//! Launch attribution: where the time of a no-op launch goes (ROADMAP
//! item 8, EXPERIMENTS.md "What a launch costs").
//!
//! A launch is assembled here by hand from the same public pieces
//! `run_wall` puts together, in the same order, with a timestamp between
//! the phases:
//!
//! * **fabric** — `UdnFabric::new`: the sender table and every receiver;
//! * **memory** — `ArenaPool::checkout` + `Instruments::new` +
//!   `WallShared::new`: the arena (one mapping), private segments,
//!   probes;
//! * **handout** — one `WallFabric` per PE (contexts index the launch's
//!   endpoints in place, so this is reference counts only);
//! * **spawn** — from the first `thread::spawn` of a gate's carrier
//!   until the last PE has started on its stack, admitted, and is inside
//!   the job body;
//! * **run** — `ShmemCtx::new` + `finalize` (the job body is empty), to
//!   the last PE's return;
//! * **join** — the joins of the carrier lanes and any service carrier;
//! * **drop** — the last references to fabric, arena and gate.
//!
//! The phases are consecutive, so they sum to the hand-assembled launch;
//! the `whole` column is the median of the same number of real
//! `Launcher::run` launches of an empty closure, and `sum/whole` says how
//! faithful the hand assembly is (within 5 % or the table is not
//! evidence). `threads` is what `EngineOutcome::threads_spawned` reports
//! for the real launch.
//!
//! The `server` rows do the same for one **warm server job** of the
//! benchmark's `server_jobs` body (one `u64` of heap, ten barriers), at
//! 2 and 8 PEs on 2 slots (leased as the server does, one per two PEs:
//! 1 worker and 2): the client's submit, the dispatcher's hop,
//! the runner, the launch and the way back, assembled from the pieces
//! `Server`, `Launcher::run_watched` and `run_wall` put together, in
//! microseconds:
//!
//! * **to-runner** — `submit` to the runner's first instruction (queue,
//!   dispatcher wake-up, lane hand-over);
//! * **to-launch** — runner to the launch's first instruction;
//! * **checkout** — `ArenaPool::checkout`: the scrub of the recycled set;
//! * **shared** — fabric, trace sink, `WallShared` (with the private
//!   segments, when they are not part of the set);
//! * **admit** — `Lanes::run` called to the last PE started, admitted;
//! * **body** — `ShmemCtx::new`, the job body and `finalize`, to the
//!   last PE's return;
//! * **check-in** — the lanes' latch, `check_in`, to the launch's return;
//! * **report** — launch to runner to the client's `wait` returning.
//!
//! `whole` is the median real `Server::submit(..).wait()` of the same
//! job on a warm server. Run it pinned, on an idle host:
//!
//! ```text
//! taskset -c 0 cargo run --release --example launch_attr
//! ```

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use substrate::channel;
use substrate::stack::Pool;
use tshmem::ctx::Layout;
use tshmem::engine::coop::{GateSet, Gated};
use tshmem::engine::wall::{Resident, WallFabric, WallShared};
use tshmem::fabric::Instruments;
use tshmem::prelude::*;
use tshmem::server::arena::Geometry;
use tshmem::server::pool::lease_for;
use tshmem::trace::TraceSink;
use tshmem::{JobSpec, Server, ServerConfig};
use udn::fabric::UdnFabric;

const LAUNCHES: usize = 15;
const PHASES: [&str; 7] = ["fabric", "memory", "handout", "spawn", "run", "join", "drop"];
const JOBS: usize = 300;
const JOB_PHASES: [&str; 8] = ["to-runner", "to-launch", "checkout", "shared", "admit", "body", "check-in", "report"];

/// The benchmark's collective-workload geometry.
fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::for_scale(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
}

/// Carry every PE gate of `gate` on a lane of `resident`, PE `pe`
/// running `body(pe)` as a stack that starts holding its gate and gives
/// it back on return; `(entered, left)` of every PE's body.
fn carry(resident: &Resident, gate: &Gated, body: impl Fn(usize) + Sync) -> Vec<(Instant, Instant)> {
    let spans: Vec<Mutex<Option<(Instant, Instant)>>> = (0..gate.npes).map(|_| Mutex::new(None)).collect();
    resident.lanes.run(gate.workers, |dom| {
        gate.run(dom, &|pe| {
            let entered = Instant::now();
            body(pe);
            gate.release(pe);
            *spans[pe].lock().unwrap() = Some((entered, Instant::now()));
        })
    });
    spans.into_iter().map(|s| s.into_inner().unwrap().expect("every PE ran")).collect()
}

/// One hand-assembled no-op launch under the gates `gate` builds;
/// milliseconds per phase.
fn phases(gate: impl FnOnce(&Arc<Pool>) -> Gated, cfg: &RuntimeConfig) -> [f64; 7] {
    let npes = cfg.npes;
    let layout = Layout::new(cfg.partition_bytes, npes, cfg.temp_bytes);
    // As a plain launch makes it: lanes closed from the start.
    let resident = Resident::default();
    resident.lanes.close();
    let gate = gate(&resident.stacks);
    let mut marks = vec![Instant::now()];
    let endpoints = UdnFabric::new(npes);
    marks.push(Instant::now());
    let set = resident.sets.checkout(Geometry::of(cfg));
    let shared = WallShared::new(cfg, endpoints, set, gate.clone(), Instruments::new(npes, None, None));
    marks.push(Instant::now());
    let fabrics: Vec<_> = (0..npes)
        .map(|pe| Mutex::new(Some(WallFabric::new(shared.clone(), pe))))
        .collect();
    marks.push(Instant::now());
    gate.admit(&shared.instruments.probes);
    let spans = carry(&resident, &gate, |pe| {
        let fab = fabrics[pe].lock().unwrap().take().expect("one fabric per PE");
        let ctx = ShmemCtx::new(Box::new(fab), layout, cfg.algos, cfg.private_bytes);
        ctx.finalize();
    });
    resident.lanes.close();
    let joined = Instant::now();
    marks.push(spans.iter().map(|s| s.0).max().expect("npes > 0"));
    marks.push(spans.iter().map(|s| s.1).max().expect("npes > 0"));
    marks.push(joined);
    drop((fabrics, shared, gate, resident));
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

/// The benchmark's `server_jobs` geometry and job body.
fn job_cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024)
}

fn job_body(ctx: &ShmemCtx) {
    let (n, me) = (ctx.n_pes(), ctx.my_pe());
    let slot = ctx.shmalloc::<u64>(1);
    ctx.local_write(&slot, 0, &[0]);
    ctx.barrier_all();
    for k in 1..=8 {
        ctx.p(&slot, 0, k, (me + 1) % n);
        ctx.barrier_all();
    }
    assert_eq!(ctx.local_read(&slot, 0, 1)[0], 8);
}

type Marks = Arc<Mutex<Vec<Instant>>>;

fn mark(marks: &Marks) {
    marks.lock().unwrap().push(Instant::now());
}

/// The launch of one hand-assembled server job: `run_wall` under the
/// server's watch, over `resident`.
fn job_launch(resident: &Resident, cfg: &RuntimeConfig, slots: usize, marks: &Marks) {
    let npes = cfg.npes;
    let block = npes.div_ceil(lease_for(npes, slots));
    let gate = GateSet::new(npes, block, &resident.stacks);
    let layout = Layout::new(cfg.partition_bytes, npes, cfg.temp_bytes);
    let geometry = Geometry::of(cfg);
    let set = resident.sets.checkout(geometry);
    mark(marks);
    let endpoints = UdnFabric::new(npes);
    let sink = Arc::new(TraceSink::with_lanes(gate.domains));
    let instruments = Instruments::new(npes, Some(sink), None);
    let shared = WallShared::new(cfg, endpoints, set.clone(), gate.clone(), instruments);
    mark(marks);
    gate.admit(&shared.instruments.probes);
    let spans = carry(resident, &gate, |pe| {
        let ctx = ShmemCtx::new(Box::new(WallFabric::new(shared.clone(), pe)), layout, cfg.algos, cfg.private_bytes);
        job_body(&ctx);
        ctx.finalize();
    });
    marks.lock().unwrap().extend([
        spans.iter().map(|s| s.0).max().expect("npes > 0"),
        spans.iter().map(|s| s.1).max().expect("npes > 0"),
    ]);
    // What `job_body` dirties: one word of heap, no statics.
    resident.sets.check_in(geometry, set, 8, 0);
}

/// Microseconds per phase of `JOBS` hand-assembled warm server jobs
/// (medians), beside the median real `submit().wait()`.
fn server_row(npes: usize, slots: usize) {
    let cfg = job_cfg(npes);
    let resident = Arc::new(Resident::default());
    // The dispatcher: a resident thread that hands each submitted job's
    // runner to a lane.
    let (submit, queue) = channel::unbounded::<Box<dyn FnOnce() + Send>>();
    let dispatcher = std::thread::spawn(move || {
        while let Ok(dispatch) = queue.recv() {
            dispatch();
        }
    });
    let mut runs: Vec<[f64; 8]> = Vec::new();
    for _ in 0..JOBS {
        let marks: Marks = Arc::default();
        let (report, resolved) = channel::bounded::<bool>(1);
        mark(&marks);
        let (res, m) = (resident.clone(), marks.clone());
        submit
            .send(Box::new(move || {
                let lanes = res.clone();
                lanes.lanes.spawn(
                    // The runner: detach the launch onto a lane and
                    // poll it, as `run_watched` does, then resolve.
                    move || {
                        mark(&m);
                        let (tx, rx) = channel::bounded::<bool>(1);
                        let (launch_res, launch_marks) = (res.clone(), m.clone());
                        res.lanes.spawn(
                            move || {
                                mark(&launch_marks);
                                job_launch(&launch_res, &cfg, slots, &launch_marks);
                                mark(&launch_marks);
                            },
                            move |r| tx.try_send(r.is_ok()).expect("runner waits"),
                        );
                        let launched = loop {
                            if let Ok(launched) = rx.recv_timeout(Duration::from_millis(20)) {
                                break launched;
                            }
                        };
                        assert!(launched, "launch panicked");
                    },
                    move |r| report.try_send(r.is_ok()).expect("client waits"),
                );
            }))
            .expect("dispatcher lives");
        assert!(resolved.recv().expect("job resolves"), "runner panicked");
        mark(&marks);
        let marks = marks.lock().unwrap();
        assert_eq!(marks.len(), 9, "eight phases");
        runs.push(std::array::from_fn(|i| (marks[i + 1] - marks[i]).as_secs_f64() * 1e6));
    }
    drop(submit);
    dispatcher.join().expect("dispatcher");

    let server = Server::fair(ServerConfig { workers: slots, stall: Duration::from_secs(30), ..Default::default() });
    let spec = JobSpec::new(cfg, job_body);
    let mut whole = Vec::new();
    for _ in 0..JOBS {
        let t0 = Instant::now();
        assert!(server.submit(spec.clone()).expect("admitted").wait().outcome.is_completed());
        whole.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let stats = server.shutdown();
    // The first tenth of both is warm-up.
    let warm = JOBS / 10;
    let med: Vec<f64> = (0..8).map(|i| median(runs[warm..].iter().map(|r| r[i]).collect())).collect();
    let sum = median(runs[warm..].iter().map(|r| r.iter().sum()).collect());
    let whole = median(whole[warm..].to_vec());
    print!("server\t{npes}\t{slots}");
    med.iter().for_each(|m| print!("\t{m:.1}"));
    println!(
        "\t{sum:.1}\t{whole:.1}\t{:.2}\t{}\t{}",
        sum / whole,
        stats.lanes_spawned,
        stats.scrubbed_bytes / stats.arenas_recycled.max(1)
    );
}

fn main() {
    println!("# one warm server job, median of {} of {JOBS} jobs, us per phase", JOBS - JOBS / 10);
    println!("engine\tnpes\tslots\t{}\tsum\twhole\tsum/whole\tlanes\tscrub_B/job", JOB_PHASES.join("\t"));
    for npes in [2, 8] {
        server_row(npes, 2);
    }
    let mut empty: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::spawn(|| ()).join().expect("empty thread");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    empty.sort_by(f64::total_cmp);
    println!("# spawn + join of an empty thread, us: median {:.1} (quartiles {:.1} / {:.1})", empty[100], empty[50], empty[150]);
    println!("# no-op launch, median of {LAUNCHES} launches, ms per phase");
    println!("engine\tnpes\tworkers\t{}\tsum\twhole\tsum/whole\tthreads", PHASES.join("\t"));
    for npes in [2, 32, 256, 1024] {
        let workers = if npes == 32 { 1 } else { 4.min(npes) };
        let (cfg, block) = (cfg(npes), npes.div_ceil(workers));
        row(
            "coop",
            npes,
            workers,
            || phases(|stacks| GateSet::new(npes, block, stacks), &cfg),
            || Launcher::new(&cfg, CoopBackend { workers, ..Default::default() }).run(|_| ()).threads_spawned,
        );
    }
    for npes in [2, 8] {
        let cfg = cfg(npes);
        row(
            "native",
            npes,
            npes,
            || phases(|stacks| GateSet::native(npes, stacks), &cfg),
            || Launcher::new(&cfg, NativeBackend).run(|_| ()).threads_spawned,
        );
    }
}
