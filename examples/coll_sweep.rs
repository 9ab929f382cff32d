//! Collective sweep: what one round of default-algorithm collectives
//! costs on the coop engine across PE counts and PEs-per-worker — the
//! evidence behind the transport selection rule (DESIGN.md §6,
//! EXPERIMENTS.md "The cell pass at every size").
//!
//! One round is the benchmark's: 8 `barrier_all`, 4 `sum_to_all` of
//! 8 u64, 4 `broadcast` of 1 KiB from a rotating root, one `fcollect`
//! and one `alltoall`, every result checked against its closed form.
//! Each geometry is launched nine times; a launch warms up with one
//! round, times four, then times a batch of `barrier_all`. The TSV has
//! the median over launches of milliseconds per round and microseconds
//! per `barrier_all`. Run it pinned, on an idle host:
//!
//! ```text
//! taskset -c 0 cargo run --release --example coll_sweep
//! ```
//!
//! `coll_sweep --attribute` instead counts what one round costs at the
//! `coll_flat32` geometry (32 PEs, one worker): UDN sends from the
//! engine trace (a 2k-round launch minus a k-round one, exact) and the
//! context switches of the worker's one thread, which carries the 32
//! PEs as stacks (`/proc/thread-self/status` around PE 0's timed
//! rounds).

use std::time::Instant;

use tshmem::prelude::*;
use tshmem::trace::TraceKind;

const LAUNCHES: usize = 9;
const ROUNDS: usize = 4;
const BARRIERS: usize = 32;
const NRED: usize = 8;
const NBCAST: usize = 128;
const NFC: usize = 8;
const NA2A: usize = 2;

fn word(salt: u64, a: usize, b: usize) -> u64 {
    (salt ^ ((a as u64) << 32 | b as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct Bufs {
    rsrc: Sym<u64>,
    rdst: Sym<u64>,
    bsrc: Sym<u64>,
    bdst: Sym<u64>,
    fsrc: Sym<u64>,
    fdst: Sym<u64>,
    asrc: Sym<u64>,
    adst: Sym<u64>,
}

fn bufs(ctx: &ShmemCtx) -> Bufs {
    let n = ctx.n_pes();
    Bufs {
        rsrc: ctx.shmalloc(NRED),
        rdst: ctx.shmalloc(NRED),
        bsrc: ctx.shmalloc(NBCAST),
        bdst: ctx.shmalloc(NBCAST),
        fsrc: ctx.shmalloc(NFC),
        fdst: ctx.shmalloc(NFC * n),
        asrc: ctx.shmalloc(NA2A * n),
        adst: ctx.shmalloc(NA2A * n),
    }
}

fn round(ctx: &ShmemCtx, b: &Bufs, r: usize) {
    let (n, me, world) = (ctx.n_pes(), ctx.my_pe(), ctx.world());
    for _ in 0..8 {
        ctx.barrier_all();
    }
    for k in 0..4 {
        let call = r * 4 + k;
        let mine: Vec<u64> = (0..NRED).map(|i| word(0x51, call * n + me, i) >> 8).collect();
        ctx.local_write(&b.rsrc, 0, &mine);
        ctx.sum_to_all(&b.rdst, &b.rsrc, NRED, world);
        let want: Vec<u64> = (0..NRED)
            .map(|i| (0..n).map(|pe| word(0x51, call * n + pe, i) >> 8).sum())
            .collect();
        assert_eq!(ctx.local_read(&b.rdst, 0, NRED), want, "sum_to_all on PE {me}");
    }
    for k in 0..4 {
        let call = r * 4 + k;
        let root = call % n;
        let sent: Vec<u64> = (0..NBCAST).map(|i| word(0xb2, call, i)).collect();
        if me == root {
            ctx.local_write(&b.bsrc, 0, &sent);
        }
        ctx.broadcast(&b.bdst, &b.bsrc, NBCAST, root, world);
        if me != root {
            assert_eq!(ctx.local_read(&b.bdst, 0, NBCAST), sent, "broadcast on PE {me}");
        }
    }
    let mine: Vec<u64> = (0..NFC).map(|i| word(0xf3, r * n + me, i)).collect();
    ctx.local_write(&b.fsrc, 0, &mine);
    ctx.fcollect(&b.fdst, &b.fsrc, NFC, world);
    let want: Vec<u64> = (0..n * NFC).map(|x| word(0xf3, r * n + x / NFC, x % NFC)).collect();
    assert_eq!(ctx.local_read(&b.fdst, 0, n * NFC), want, "fcollect on PE {me}");

    let mine: Vec<u64> = (0..n * NA2A).map(|x| word(0xa4, r, (me * n + x / NA2A) * NA2A + x % NA2A)).collect();
    ctx.local_write(&b.asrc, 0, &mine);
    ctx.alltoall(&b.adst, &b.asrc, NA2A, world);
    let want: Vec<u64> = (0..n * NA2A).map(|x| word(0xa4, r, (x / NA2A * n + me) * NA2A + x % NA2A)).collect();
    assert_eq!(ctx.local_read(&b.adst, 0, n * NA2A), want, "alltoall on PE {me}");
}

/// One launch: `(ms per round, µs per barrier_all)` as PE 0 saw them.
fn launch_once(npes: usize, workers: usize) -> (f64, f64) {
    let cfg = RuntimeConfig::for_scale(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024);
    let backend = CoopBackend { workers, ..Default::default() };
    let out = Launcher::new(&cfg, backend).run(|ctx| {
        let b = bufs(ctx);
        round(ctx, &b, ROUNDS);
        ctx.barrier_all();
        let t0 = Instant::now();
        for r in 0..ROUNDS {
            round(ctx, &b, r);
        }
        let round_ms = t0.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64;
        let t1 = Instant::now();
        for _ in 0..BARRIERS {
            ctx.barrier_all();
        }
        (round_ms, t1.elapsed().as_secs_f64() * 1e6 / BARRIERS as f64)
    });
    out.values[0]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `(voluntary, nonvoluntary)` context switches of the calling thread.
fn ctxt_switches() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let field = |name: &str| -> u64 {
        let line = status.lines().find(|l| l.starts_with(name)).expect("ctxt_switches line");
        line.rsplit(char::is_whitespace).next().unwrap().parse().unwrap()
    };
    (field("voluntary_ctxt_switches"), field("nonvoluntary_ctxt_switches"))
}

/// Sends, context switches and milliseconds per round at 32 PEs / 1 worker.
fn attribute() {
    const K: usize = 8;
    let cfg = RuntimeConfig::for_scale(32)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024);
    let run = |cfg: &RuntimeConfig, rounds: usize| {
        Launcher::new(cfg, CoopBackend { workers: 1, ..Default::default() }).run(move |ctx| {
            let b = bufs(ctx);
            round(ctx, &b, rounds);
            ctx.barrier_all();
            let (t0, (v0, n0)) = (Instant::now(), ctxt_switches());
            for r in 0..rounds {
                round(ctx, &b, r);
            }
            let (v1, n1) = ctxt_switches();
            (t0.elapsed().as_secs_f64() * 1e3 / rounds as f64, v1 - v0, n1 - n0)
        })
    };
    let sends = |rounds: usize| {
        let trace = run(&cfg.with_trace(), rounds).trace.expect("with_trace() returns a trace");
        trace.iter().filter(|e| e.kind == TraceKind::UdnSend).count()
    };
    let per_round = (sends(2 * K + 1) - sends(K + 1)) as f64 / K as f64;
    let runs: Vec<(f64, f64, f64)> = (0..LAUNCHES)
        .map(|_| {
            let (ms, voluntary, nonvoluntary) = run(&cfg, K).values[0];
            (ms, voluntary as f64 / K as f64, nonvoluntary as f64 / K as f64)
        })
        .collect();
    println!("udn_sends_per_round\tvoluntary_cs_per_round\tnonvoluntary_cs_per_round\tround_ms");
    println!(
        "{per_round}\t{:.1}\t{:.1}\t{:.3}",
        median(runs.iter().map(|r| r.1).collect()),
        median(runs.iter().map(|r| r.2).collect()),
        median(runs.iter().map(|r| r.0).collect()),
    );
}

fn main() {
    if std::env::args().any(|a| a == "--attribute") {
        return attribute();
    }
    println!("npes\tworkers\tpes_per_worker\tround_ms\tbarrier_all_us");
    for npes in [2usize, 4, 8, 16, 32, 64] {
        let mut workers = vec![1, 2, 4, npes];
        workers.retain(|&w| w <= npes);
        workers.dedup();
        for w in workers {
            let runs: Vec<(f64, f64)> = (0..LAUNCHES).map(|_| launch_once(npes, w)).collect();
            println!(
                "{npes}\t{w}\t{}\t{:.3}\t{:.1}",
                npes.div_ceil(w),
                median(runs.iter().map(|r| r.0).collect()),
                median(runs.iter().map(|r| r.1).collect()),
            );
        }
    }
}
