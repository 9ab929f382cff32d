//! Launch attribution: where the time of a no-op launch goes (ROADMAP
//! item 3, EXPERIMENTS.md "What a launch costs").
//!
//! A launch is assembled here by hand from the same public pieces
//! `run_wall` puts together, in the same order, with a timestamp between
//! the phases:
//!
//! * **fabric** — `UdnFabric::new`: the sender table and every receiver;
//! * **memory** — `ShardedArena::new` + `WallShared::new`: arena shards,
//!   private segments, probes;
//! * **handout** — one `WallFabric` per PE (contexts index the launch's
//!   endpoints in place, so this is reference counts only);
//! * **spawn** — from the first `thread::spawn` until the last PE is
//!   admitted and inside the job body;
//! * **run** — `ShmemCtx::new` + `finalize` (the job body is empty), to
//!   the last PE's return;
//! * **join** — the scope's joins, PE threads and any service context;
//! * **drop** — the last references to fabric, arena and gate.
//!
//! The phases are consecutive, so they sum to the hand-assembled launch;
//! the `whole` column is the median of the same number of real
//! `Launcher::run` launches of an empty closure, and `sum/whole` says how
//! faithful the hand assembly is (within 5 % or the table is not
//! evidence). `threads` is what `EngineOutcome::threads_spawned` reports
//! for the real launch. Run it pinned, on an idle host:
//!
//! ```text
//! taskset -c 0 cargo run --release --example launch_attr
//! ```

use std::sync::Mutex;
use std::time::Instant;

use tshmem::ctx::Layout;
use tshmem::engine::coop::GateSet;
use tshmem::engine::wall::{Admission, Free, ShardedArena, WallFabric, WallShared};
use tshmem::prelude::*;
use udn::fabric::UdnFabric;

const LAUNCHES: usize = 15;
const PHASES: [&str; 7] = ["fabric", "memory", "handout", "spawn", "run", "join", "drop"];

/// The benchmark's collective-workload geometry.
fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::for_scale(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
}

/// One hand-assembled no-op launch under `gate`; milliseconds per phase.
fn phases<P: Admission>(gate: P, block: usize, cfg: &RuntimeConfig) -> [f64; 7] {
    let npes = cfg.npes;
    let layout = Layout::new(cfg.partition_bytes, npes, cfg.temp_bytes);
    let mut marks = vec![Instant::now()];
    let endpoints = UdnFabric::new(npes);
    marks.push(Instant::now());
    let arena = ShardedArena::new(npes, block, cfg.partition_bytes);
    let shared = WallShared::new(cfg, endpoints, arena, gate.running_contexts(npes), None);
    marks.push(Instant::now());
    let fabrics: Vec<_> = (0..npes)
        .map(|pe| Mutex::new(Some(WallFabric::new_probed(shared.clone(), gate.clone(), pe))))
        .collect();
    marks.push(Instant::now());
    let spans = tmc::task::run_on_tiles(npes, |pe| {
        let fab = fabrics[pe].lock().unwrap().take().expect("one fabric per PE");
        gate.acquire(pe, Some(&shared.probes[pe]));
        let entered = Instant::now();
        let ctx = ShmemCtx::new(P::erase(fab), layout, cfg.algos, cfg.private_bytes);
        ctx.finalize();
        drop(ctx);
        gate.release(pe);
        (entered, Instant::now())
    });
    let joined = Instant::now();
    marks.push(spans.iter().map(|s| s.0).max().expect("npes > 0"));
    marks.push(spans.iter().map(|s| s.1).max().expect("npes > 0"));
    marks.push(joined);
    drop((fabrics, shared, gate));
    marks.push(Instant::now());
    std::array::from_fn(|i| (marks[i + 1] - marks[i]).as_secs_f64() * 1e3)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median phases over `LAUNCHES` hand-assembled launches, beside the
/// median of as many real ones.
fn row(engine: &str, npes: usize, workers: usize, assembled: impl Fn() -> [f64; 7], real: impl Fn() -> usize) {
    let mut runs = Vec::new();
    let mut whole = Vec::new();
    let mut threads = 0;
    for _ in 0..LAUNCHES {
        runs.push(assembled());
        let t0 = Instant::now();
        threads = real();
        whole.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let med: Vec<f64> = (0..PHASES.len()).map(|i| median(runs.iter().map(|r| r[i]).collect())).collect();
    let sum = median(runs.iter().map(|r| r.iter().sum()).collect());
    let whole = median(whole);
    print!("{engine}\t{npes}\t{workers}");
    med.iter().for_each(|m| print!("\t{m:.3}"));
    println!("\t{sum:.3}\t{whole:.3}\t{:.2}\t{threads}", sum / whole);
}

fn main() {
    println!("# no-op launch, median of {LAUNCHES} launches, ms per phase");
    println!("engine\tnpes\tworkers\t{}\tsum\twhole\tsum/whole\tthreads", PHASES.join("\t"));
    for npes in [2, 32, 256, 1024] {
        let workers = if npes == 32 { 1 } else { 4.min(npes) };
        let (cfg, block) = (cfg(npes), npes.div_ceil(workers));
        row(
            "coop",
            npes,
            workers,
            || phases(GateSet::new(npes, block), block, &cfg),
            || Launcher::new(&cfg, CoopBackend { workers, ..Default::default() }).run(|_| ()).threads_spawned,
        );
    }
    for npes in [2, 8] {
        let cfg = cfg(npes);
        row(
            "native",
            npes,
            npes,
            || phases(Free, npes, &cfg),
            || Launcher::new(&cfg, NativeBackend).run(|_| ()).threads_spawned,
        );
    }
}
