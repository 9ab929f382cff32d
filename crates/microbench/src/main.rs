//! `microbench` binary — the hermetic perf gate.
//!
//! `cargo run -p microbench --release -- --native-suite` runs put/get
//! bandwidth, barrier latency, and reduce latency on the **native**
//! engine (real threads, wall clock — unlike the library's figure
//! generators, which model the Tilera under virtual time) and writes
//! `BENCH_native.json`: one entry per benchmark with `ns_per_op` and
//! `bytes_per_sec`, plus the traced/untraced ablation ratio for the
//! putget workload.
//!
//! The put/get bandwidth benchmarks go through the strided entry
//! points (`iput`/`iget`) at unit stride, so both the contiguous copy
//! and the strided fast path sit on the measured path; `putget_*` is
//! the combined put+get workload the tracing ablation compares.
//!
//! `--coop-suite` is the scaling companion: a locality ablation at
//! 64/256/1024 PEs on the cooperative M:N engine, written to
//! `BENCH_coop.json`. Each scale runs twice — once with the co-resident
//! fast paths disabled (`fault::set_coop_locality(false)`), measuring
//! flat dissemination plus the span-32 hierarchical barrier and reduce
//! (the committed pre-locality trajectory's geometry), and once with
//! locality on (the default), measuring the shard-aligned
//! `barrier_hier_local` / `reduce_hier_local` rows where cluster
//! boundaries coincide with the PE→worker shards and every intra-cluster
//! edge is a same-worker direct copy. `hier_over_flat` < 1 shows the
//! hierarchy crossover the algorithms were built for; `local_speedup`
//! > 1 shows the same-worker fast paths beating the channel path.
//!
//! Numbers are wall-clock on whatever machine runs the gate (CI boxes
//! are often single-core, so collective latencies are context-switch
//! bound); the gate schema-checks the output and *reports* thresholds
//! rather than enforcing them. `--quick` divides iteration counts for
//! smoke use; `--pes N` and `--out PATH` override the defaults.

use std::time::{Duration, Instant};

use tshmem::{
    launch, ActiveSet, CoopBackend, JobSpec, Launcher, ReduceOp, RuntimeConfig, Server, ServerConfig,
    ShmemCtx, TimedBackend,
};
use tshmem_apps::fft::{fft2d_shmem, Fft2dConfig, TransposeMode};

struct Args {
    native_suite: bool,
    coop_suite: bool,
    nbi_suite: bool,
    server_suite: bool,
    timed_suite: bool,
    pes: usize,
    out: Option<String>,
    quick: bool,
    workers: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        native_suite: false,
        coop_suite: false,
        nbi_suite: false,
        server_suite: false,
        timed_suite: false,
        pes: 8,
        out: None,
        quick: false,
        workers: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value after {flag}");
                std::process::exit(2)
            })
        };
        match flag.as_str() {
            "--native-suite" => args.native_suite = true,
            "--coop-suite" => args.coop_suite = true,
            "--nbi-suite" => args.nbi_suite = true,
            "--server-suite" => args.server_suite = true,
            "--timed-suite" => args.timed_suite = true,
            "--pes" => {
                args.pes = val().parse().unwrap_or_else(|_| {
                    eprintln!("--pes wants a number");
                    std::process::exit(2)
                })
            }
            "--workers" => {
                args.workers = val().parse().unwrap_or_else(|_| {
                    eprintln!("--workers wants a number");
                    std::process::exit(2)
                })
            }
            "--out" => args.out = Some(val()),
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                println!(
                    "usage: microbench --native-suite|--coop-suite|--nbi-suite|--server-suite\
                     |--timed-suite [--pes N] [--workers M] [--out PATH] [--quick]\n\
                     --native-suite runs the native-engine perf suite (put/get \n\
                     bandwidth, barrier latency, reduce latency, traced-vs-untraced \n\
                     putget ablation) and writes PATH (default BENCH_native.json).\n\
                     --coop-suite runs the M:N scaling suite as a locality ablation: \n\
                     flat dissemination, span-32 hierarchical barrier/reduce (co-resident \n\
                     fast paths off), and shard-aligned *_local rows (locality on) at \n\
                     64/256/1024 PEs on the coop engine (--workers 0 = auto, the \n\
                     resolved pool size is recorded) and writes PATH (default \n\
                     BENCH_coop.json).\n\
                     --nbi-suite runs the nbi overlap ablation: blocking vs \n\
                     nbi-overlapped redirected put trains and the end-to-end 2D-FFT \n\
                     transpose in both modes on the native engine, written to PATH \n\
                     (default BENCH_nbi.json).\n\
                     --server-suite runs the multi-tenant server pool throughput \n\
                     suite: a fixed fault-free 2-PE SHMEM job streamed open-loop \n\
                     through each scheduler (round_robin, fair), reporting jobs/sec \n\
                     and p50/p99 submit-to-resolve latency, written to PATH \n\
                     (default BENCH_server.json).\n\
                     --timed-suite runs the timed-engine event-core suite: raw \n\
                     calendar-queue vs reference-heap events/sec at 256/1024 \n\
                     self-rescheduling chains, and 64/256/1024-PE timed barriers \n\
                     under both the event-driven and cycle-box disciplines, \n\
                     written to PATH (default BENCH_timed.json)."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One measured benchmark: mean wall-clock ns per operation on the
/// slowest PE, and the per-op payload (0 for latency-only benchmarks).
struct Bench {
    name: &'static str,
    ns_per_op: f64,
    bytes_per_op: usize,
}

impl Bench {
    fn bytes_per_sec(&self) -> f64 {
        if self.bytes_per_op == 0 || self.ns_per_op <= 0.0 {
            0.0
        } else {
            self.bytes_per_op as f64 * 1e9 / self.ns_per_op
        }
    }
}

/// Measurement repetitions per benchmark; each PE keeps its **fastest**
/// repetition. On an oversubscribed box (CI is often one core for eight
/// PEs) a repetition window can be shorter than a scheduler quantum, so
/// any single window may absorb a multi-millisecond deschedule; the
/// minimum over several windows discards those outliers and converges
/// on the real cost.
const REPS: usize = 5;

/// Time `iters` runs of `op`, [`REPS`] times, between barriers; every
/// PE reports its fastest repetition and the job-level number is the
/// slowest PE's (the PE that bounds throughput).
fn timed_loop(ctx: &ShmemCtx, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        for _ in 0..(iters / 10).max(1) {
            op(); // warmup
        }
        ctx.barrier_all();
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        let per_op = t0.elapsed().as_nanos() as f64 / iters as f64;
        ctx.barrier_all();
        best = best.min(per_op);
    }
    best
}

fn slowest(per_pe: Vec<f64>) -> f64 {
    per_pe.into_iter().fold(0.0, f64::max)
}

/// Every PE iputs `nelems` u64 at unit stride to its right neighbor's
/// symmetric heap.
fn bench_put(npes: usize, nelems: usize, iters: usize, traced: bool) -> f64 {
    let mut cfg = RuntimeConfig::new(npes);
    if traced {
        cfg = cfg.with_trace();
    }
    slowest(launch(&cfg, |ctx| {
        let dst = ctx.shmalloc::<u64>(nelems);
        let src: Vec<u64> = (0..nelems as u64).collect();
        let to = (ctx.my_pe() + 1) % ctx.n_pes();
        let ns = timed_loop(ctx, iters, || ctx.iput(&dst, 0, 1, &src, 1, nelems, to));
        ctx.shfree(dst);
        ns
    }))
}

/// Every PE igets `nelems` u64 at unit stride from its right neighbor.
fn bench_get(npes: usize, nelems: usize, iters: usize) -> f64 {
    slowest(launch(&RuntimeConfig::new(npes), |ctx| {
        let src = ctx.shmalloc::<u64>(nelems);
        let mut dst = vec![0u64; nelems];
        let from = (ctx.my_pe() + 1) % ctx.n_pes();
        let ns = timed_loop(ctx, iters, || ctx.iget(&mut dst, 1, &src, 0, 1, nelems, from));
        ctx.shfree(src);
        ns
    }))
}

/// Combined put+get round per op — the workload the tracing ablation
/// compares traced vs. untraced.
fn bench_putget(npes: usize, nelems: usize, iters: usize, traced: bool) -> f64 {
    let mut cfg = RuntimeConfig::new(npes);
    if traced {
        cfg = cfg.with_trace();
    }
    slowest(launch(&cfg, |ctx| {
        let sym = ctx.shmalloc::<u64>(nelems);
        let src: Vec<u64> = (0..nelems as u64).collect();
        let mut dst = vec![0u64; nelems];
        let peer = (ctx.my_pe() + 1) % ctx.n_pes();
        let ns = timed_loop(ctx, iters, || {
            ctx.iput(&sym, 0, 1, &src, 1, nelems, peer);
            ctx.iget(&mut dst, 1, &sym, 0, 1, nelems, peer);
        });
        ctx.shfree(sym);
        ns
    }))
}

/// `barrier_all` latency with the default (Ring) algorithm.
fn bench_barrier(npes: usize, iters: usize) -> f64 {
    slowest(launch(&RuntimeConfig::new(npes), |ctx| {
        timed_loop(ctx, iters, || ctx.barrier_all())
    }))
}

/// `sum_to_all` latency over `nreduce` u64 across all PEs (internally
/// barriered on entry and exit, so back-to-back calls are safe).
fn bench_reduce(npes: usize, nreduce: usize, iters: usize) -> f64 {
    slowest(launch(&RuntimeConfig::new(npes), |ctx| {
        let dest = ctx.shmalloc::<u64>(nreduce);
        let source = ctx.shmalloc::<u64>(nreduce);
        let all = ActiveSet::new(0, 0, ctx.n_pes());
        let ns = timed_loop(ctx, iters, || ctx.sum_to_all(&dest, &source, nreduce, all));
        ctx.shfree(source);
        ctx.shfree(dest);
        ns
    }))
}

/// [`timed_loop`] variant for the coop scaling suite: the measured op
/// is itself a world barrier, so repetitions self-align without extra
/// `barrier_all` fencing (which past 64 PEs would silently route
/// through the hierarchical path and pollute the flat measurement).
/// `reps`/`iters` are caller-chosen — at 1024 PEs on a one-core box a
/// single barrier costs tens of milliseconds, so the big scales run a
/// handful of iterations, not thousands.
fn coop_timed(iters: usize, reps: usize, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        op(); // warmup + alignment (op is a collective)
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// u64 elements per hierarchical-reduce op — small on purpose: the
/// suite measures tree latency, not copy bandwidth.
const COOP_REDUCE_N: usize = 8;

/// One locality arm of the coop scaling suite at `npes` PEs: the
/// hierarchical world barrier and the hierarchical sum-reduce (plus
/// flat dissemination when `with_flat`), slowest-PE ns/op. Each call is
/// one coop launch; the locality knob is process-global, so the
/// caller toggles it only *between* launches.
fn bench_coop_arms(
    npes: usize,
    workers: usize,
    iters: usize,
    reps: usize,
    with_flat: bool,
) -> (f64, f64, f64) {
    let cfg = RuntimeConfig::for_scale(npes);
    let backend = CoopBackend { workers, ..Default::default() };
    let out = Launcher::new(&cfg, backend).run(move |ctx| {
        let world = ActiveSet::new(0, 0, ctx.n_pes());
        let flat = if with_flat {
            coop_timed(iters, reps, || ctx.barrier_dissemination_explicit(world))
        } else {
            0.0
        };
        let hier = coop_timed(iters, reps, || ctx.barrier_hier_explicit(world));
        let dest = ctx.shmalloc::<u64>(COOP_REDUCE_N);
        let source = ctx.shmalloc::<u64>(COOP_REDUCE_N);
        let rank = ctx.my_pe(); // world set: rank == PE number
        let reduce = coop_timed(iters, reps, || {
            ctx.reduce_hier(ReduceOp::Sum, &dest, &source, COOP_REDUCE_N, world, rank)
        });
        ctx.shfree(source);
        ctx.shfree(dest);
        (flat, hier, reduce)
    });
    let per_pe = out.values;
    (
        per_pe.iter().map(|p| p.0).fold(0.0, f64::max),
        per_pe.iter().map(|p| p.1).fold(0.0, f64::max),
        per_pe.iter().map(|p| p.2).fold(0.0, f64::max),
    )
}

/// The M:N scaling suite, run as a locality ablation at 64, 256, and
/// 1024 PEs multiplexed over `--workers` OS threads (0 = auto; the
/// *resolved* pool size is recorded per entry). Per scale: one launch
/// with the co-resident fast paths off (flat dissemination + span-32
/// hierarchical barrier/reduce — the committed baseline's geometry),
/// one with locality on (shard-aligned `*_local` rows).
/// `hier_over_flat` < 1.0 means the hierarchical barrier beat flat
/// dissemination; `local_speedup` > 1.0 means the shard-aligned
/// locality path beat the span-32 channel path;
/// `reduce_over_barrier_local` is how many barriers one 8-word reduce
/// costs on the same counter-cell pass (host-speed independent; the
/// hermetic gate holds it ≤ 2 at 256 PEs).
fn run_coop_suite(args: &Args) {
    let out = args.out.clone().unwrap_or_else(|| "BENCH_coop.json".to_string());
    // (npes, iters, reps): message count per flat barrier grows as
    // n·ceil(log2 n), so iteration budgets shrink with scale.
    let scales: &[(usize, usize, usize)] = if args.quick {
        &[(64, 4, 2), (256, 2, 2), (1024, 1, 2)]
    } else {
        &[(64, 10, 4), (256, 4, 3), (1024, 3, 3)]
    };
    let max_pes = scales.iter().map(|s| s.0).max().unwrap();
    let resolved = tshmem::resolve_coop_workers(args.workers, max_pes);
    eprintln!(
        "coop suite: workers {} (resolved {resolved}){}",
        args.workers,
        if args.quick { " (quick)" } else { "" }
    );
    let mut entries = String::new();
    for (i, &(npes, iters, reps)) in scales.iter().enumerate() {
        // Locality off first: with no topology hint the hierarchical
        // collectives fall back to span-32 clusters, which is what the
        // committed pre-locality trajectory measured.
        tshmem::fault::set_coop_locality(false);
        let (flat, hier, reduce) = bench_coop_arms(npes, args.workers, iters, reps, true);
        // Restore the default before the locality arm (and leave it on).
        tshmem::fault::set_coop_locality(true);
        let (_, hier_local, reduce_local) =
            bench_coop_arms(npes, args.workers, iters, reps, false);
        let m = tshmem::resolve_coop_workers(args.workers, npes);
        let ratio = hier / flat;
        let speedup = hier / hier_local;
        eprintln!(
            "  {npes:>5} PEs ({m} workers)  flat {flat:>13.1}  hier {hier:>13.1}  \
             hier_local {hier_local:>13.1} ns/op  local speedup {speedup:.2}x"
        );
        eprintln!(
            "  {:>5}      reduce {reduce:>13.1}  reduce_local {reduce_local:>13.1} ns/op  \
             ({:.2}x)",
            "", reduce / reduce_local
        );
        entries.push_str(&format!(
            "    {{\"npes\": {npes}, \"workers\": {m}, \"benchmarks\": {{\
             \"barrier_flat_dissemination\": {{\"ns_per_op\": {flat:.1}}}, \
             \"barrier_hier\": {{\"ns_per_op\": {hier:.1}}}, \
             \"barrier_hier_local\": {{\"ns_per_op\": {hier_local:.1}}}, \
             \"reduce_hier\": {{\"ns_per_op\": {reduce:.1}}}, \
             \"reduce_hier_local\": {{\"ns_per_op\": {reduce_local:.1}}}}}, \
             \"hier_over_flat\": {ratio:.4}, \
             \"local_speedup\": {speedup:.4}, \
             \"reduce_over_barrier_local\": {:.4}}}{}\n",
            reduce_local / hier_local,
            if i + 1 < scales.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"suite\": \"coop\",\n  \"workers_requested\": {},\n  \"workers\": {},\n  \
         \"quick\": {},\n  \"entries\": [\n{}  ]\n}}\n",
        args.workers, resolved, args.quick, entries
    );
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}

/// A train of `count` redirected puts (static-segment target, `elems`
/// u64 each) to the right neighbor, completed once per iteration. The
/// blocking arm pays a service round-trip per put; the nbi arm sends
/// every request up front and drains the completion replies at one
/// `quiet` — the pipelining `shmem_put_nbi` exists for.
fn bench_static_put_train(npes: usize, count: usize, elems: usize, iters: usize, nbi: bool) -> f64 {
    let cfg = RuntimeConfig::new(npes)
        .with_private_bytes((count * elems * 8 + (1 << 12)).next_power_of_two())
        .with_temp_bytes(1 << 14);
    slowest(launch(&cfg, move |ctx| {
        let dst = ctx.static_sym::<u64>(count * elems);
        let src: Vec<u64> = (0..elems as u64).collect();
        let to = (ctx.my_pe() + 1) % ctx.n_pes();
        timed_loop(ctx, iters, || {
            for i in 0..count {
                if nbi {
                    ctx.put_nbi(&dst, i * elems, &src, to);
                } else {
                    ctx.put(&dst, i * elems, &src, to);
                }
            }
            ctx.quiet();
        })
    }))
}

/// End-to-end 2D-FFT wall time (slowest PE) under one transpose mode.
/// One launch per repetition — the static-segment receive block is
/// bump-allocated and never freed, so repetitions must not share a
/// context — and the reported number is the fastest repetition.
fn bench_fft_transpose(npes: usize, n: usize, mode: TransposeMode, reps: usize) -> f64 {
    let fcfg = Fft2dConfig { n, seed: 0xF11, transpose: mode };
    let full_bytes = n * n * 8;
    let recv_bytes = (n / npes + 1) * n * 8;
    let cfg = RuntimeConfig::new(npes)
        .with_partition_bytes(full_bytes + 4 * recv_bytes + (1 << 20))
        .with_private_bytes((recv_bytes + (1 << 16)).next_power_of_two())
        .with_temp_bytes(1 << 14);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let vals = launch(&cfg, move |ctx| fft2d_shmem(ctx, &fcfg).elapsed_ns);
        best = best.min(vals.into_iter().fold(0.0, f64::max));
    }
    best
}

/// The nbi overlap ablation: redirected put trains and the 2D-FFT
/// transpose, blocking vs nbi-overlapped, on the native engine. The
/// headline number is `nbi_over_blocking` on the end-to-end FFT —
/// below 1.0 means the overlapped transpose won. The direct
/// (coherent-store) transpose is measured too, as the fast-path
/// context the redirected modes are traded against.
fn run_nbi_suite(args: &Args) {
    let out = args.out.clone().unwrap_or_else(|| "BENCH_nbi.json".to_string());
    let npes = args.pes.clamp(2, 4);
    let (n, reps, train_iters) = if args.quick { (128, 2, 100) } else { (256, 5, 1_000) };
    eprintln!(
        "nbi suite: {npes} PEs, {n}x{n} FFT{}",
        if args.quick { " (quick)" } else { "" }
    );

    let mut benches: Vec<Bench> = Vec::new();
    let mut push = |b: Bench| {
        eprintln!("  {:<24} {:>14.1} ns/op", b.name, b.ns_per_op);
        benches.push(b);
    };

    const TRAIN: usize = 64; // puts per train
    const ELEMS: usize = 64; // u64 per put (512 B)
    let train_blocking = bench_static_put_train(npes, TRAIN, ELEMS, train_iters, false);
    let train_nbi = bench_static_put_train(npes, TRAIN, ELEMS, train_iters, true);
    push(Bench {
        name: "static_put_train_blocking",
        ns_per_op: train_blocking,
        bytes_per_op: TRAIN * ELEMS * 8,
    });
    push(Bench {
        name: "static_put_train_nbi",
        ns_per_op: train_nbi,
        bytes_per_op: TRAIN * ELEMS * 8,
    });

    let fft_blocking = bench_fft_transpose(npes, n, TransposeMode::Blocking, reps);
    let fft_nbi = bench_fft_transpose(npes, n, TransposeMode::Nbi, reps);
    let fft_direct = bench_fft_transpose(npes, n, TransposeMode::Direct, reps);
    push(Bench { name: "fft_transpose_blocking", ns_per_op: fft_blocking, bytes_per_op: 0 });
    push(Bench { name: "fft_transpose_nbi", ns_per_op: fft_nbi, bytes_per_op: 0 });
    push(Bench { name: "fft_transpose_direct", ns_per_op: fft_direct, bytes_per_op: 0 });

    let ratio = fft_nbi / fft_blocking;
    let train_ratio = train_nbi / train_blocking;
    eprintln!("  fft nbi/blocking: {ratio:.3}   train nbi/blocking: {train_ratio:.3}");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"suite\": \"nbi\",\n");
    json.push_str(&format!("  \"npes\": {npes},\n"));
    json.push_str(&format!("  \"fft_n\": {n},\n"));
    json.push_str(&format!("  \"quick\": {},\n", args.quick));
    json.push_str(&format!("  \"nbi_over_blocking\": {ratio:.4},\n"));
    json.push_str(&format!("  \"train_nbi_over_blocking\": {train_ratio:.4},\n"));
    json.push_str("  \"benchmarks\": {\n");
    for (i, b) in benches.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"ns_per_op\": {:.1}, \"bytes_per_sec\": {:.1}}}{}\n",
            json_escape_free(b.name),
            b.ns_per_op,
            b.bytes_per_sec(),
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}

/// One scheduler's measured serve run: `jobs` fixed 2-PE SHMEM jobs
/// (8 put+barrier rounds each) streamed open-loop from 5 tenants.
/// Returns `(jobs_per_sec, p50, p99)` of submit→resolve latency.
fn bench_server(sched: &str, workers: usize, jobs: usize) -> (f64, Duration, Duration) {
    let cfg = ServerConfig {
        workers,
        queue_depth: 64,
        stall: Duration::from_secs(30), // fault-free: the watchdog is a bystander
        ..Default::default()
    };
    let server = match sched {
        "round_robin" => Server::round_robin(cfg),
        "fair" => Server::fair(cfg),
        other => unreachable!("unknown scheduler {other}"),
    };
    let job_cfg = RuntimeConfig::new(2)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024);
    let body = |ctx: &ShmemCtx| {
        let n = ctx.n_pes();
        let me = ctx.my_pe();
        let slot = ctx.shmalloc::<u64>(1);
        ctx.local_write(&slot, 0, &[0]);
        ctx.barrier_all();
        for round in 1..=8u64 {
            ctx.p(&slot, 0, round, (me + 1) % n);
            ctx.barrier_all();
        }
        assert_eq!(ctx.local_read(&slot, 0, 1)[0], 8);
    };
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let spec = JobSpec::new(job_cfg, body).with_tenant((i % 5) as u32);
        let h = loop {
            match server.submit(spec.clone()) {
                Ok(h) => break h,
                Err(tshmem::SubmitError::QueueFull { retry_after }) => {
                    std::thread::sleep(retry_after.min(Duration::from_millis(10)));
                }
                Err(e) => panic!("server-suite admission error: {e}"),
            }
        };
        handles.push(h);
    }
    let mut latencies: Vec<Duration> = handles
        .into_iter()
        .map(|h| {
            let r = h.wait();
            assert!(r.outcome.is_completed(), "fault-free job must complete: {:?}", r.outcome);
            r.latency
        })
        .collect();
    let wall = t0.elapsed();
    latencies.sort_unstable();
    server.shutdown();
    (
        jobs as f64 / wall.as_secs_f64(),
        latencies[latencies.len() / 2],
        latencies[(latencies.len() * 99) / 100],
    )
}

/// The server pool throughput suite: the same fault-free workload
/// through both shipped schedulers. Absolute jobs/sec is wall-clock on
/// whatever box runs the gate; the committed BENCH_server.json is the
/// reference trajectory and the smoke only schema-checks.
fn run_server_suite(args: &Args) {
    let out = args.out.clone().unwrap_or_else(|| "BENCH_server.json".to_string());
    let jobs = if args.quick { 60 } else { 400 };
    eprintln!(
        "server suite: {jobs} jobs per scheduler, pool workers {}{}",
        args.workers,
        if args.quick { " (quick)" } else { "" }
    );
    let mut entries = String::new();
    let scheds = ["round_robin", "fair"];
    for (i, sched) in scheds.iter().enumerate() {
        let (jps, p50, p99) = bench_server(sched, args.workers, jobs);
        eprintln!(
            "  {sched:<12} {jps:>8.1} jobs/sec  p50 {:>10.1} us  p99 {:>10.1} us",
            p50.as_nanos() as f64 / 1e3,
            p99.as_nanos() as f64 / 1e3,
        );
        entries.push_str(&format!(
            "    {{\"scheduler\": \"{sched}\", \"jobs_per_sec\": {jps:.1}, \
             \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            p50.as_nanos(),
            p99.as_nanos(),
            if i + 1 < scheds.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"suite\": \"server\",\n  \"jobs\": {jobs},\n  \"pool_workers\": {},\n  \
         \"quick\": {},\n  \"entries\": [\n{}  ]\n}}\n",
        args.workers, args.quick, entries
    );
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}

/// Mean chain delay in ps: delays are uniform `1..=2^20` ps, so a chain
/// fires roughly every half microsecond of virtual time.
const CHAIN_MEAN_PS: u64 = 1 << 19;

/// One self-rescheduling chain step for the event-core throughput
/// bench: mix the captured state and reschedule a pseudo-random delay
/// (1 ps ..= ~1 µs — the timed engine's event granularity) ahead. The
/// capture is four state words — a typical handoff closure — which fits
/// the calendar core's inline event cell; the reference core boxes it,
/// exactly as the pre-refactor `Sim` boxed every event.
fn chain_step(s: &mut desim::Sim<'_>, mut st: [u64; 4]) {
    st[0] = st[0].wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(st[1]);
    st[1] = st[1].rotate_left(7) ^ st[0];
    let delay = (st[0] & (2 * CHAIN_MEAN_PS - 1)) + 1;
    s.schedule_in(desim::SimTime::from_ps(delay), move |s2| chain_step(s2, st));
}

/// Raw event-core throughput: `chains` concurrent self-rescheduling
/// chains — the steady-state pending-event population, the analog of
/// the LP count the timed engine keeps queued — driven past a warm-up
/// horizon and then for ~`total` measured events. Returns events per
/// second. Identical seeds and deterministic tie-breaking mean both
/// cores execute the bit-identical schedule.
fn bench_event_core(kind: desim::QueueKind, chains: usize, total: usize) -> f64 {
    let mut sim = desim::Sim::with_kind(kind);
    for c in 0..chains {
        let mut x = c as u64 ^ 0x5851_f42d_4c95_7f2d;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let st = [x, x.rotate_left(31), c as u64, 0];
        sim.schedule_at(desim::SimTime::from_ps((c as u64) << 10), move |s| chain_step(s, st));
    }
    // Warm-up: several mean periods, so the population decorrelates
    // from the seeding pattern before the clock starts.
    sim.run_until(desim::SimTime::from_ps(8 * CHAIN_MEAN_PS));
    let warm_exec = sim.executed();
    let horizon = sim.now().ps() + (total as u64 * CHAIN_MEAN_PS) / chains as u64;
    let t0 = Instant::now();
    sim.run_until(desim::SimTime::from_ps(horizon));
    let secs = t0.elapsed().as_secs_f64();
    let events = sim.executed() - warm_exec;
    assert!(events as usize >= total / 2, "horizon math drifted: {events} events");
    events as f64 / secs
}

/// Wall-clock `barrier_all` latency at `npes` PEs on the timed engine
/// under `mode`: each PE times `iters` back-to-back barriers after an
/// alignment barrier, and the job-level number is the slowest PE's.
/// This is host wall time (scheduler handoffs dominate), not virtual
/// time — the cycle-box ablation is precisely about handoff count.
fn bench_timed_barrier(npes: usize, mode: tshmem::TimedMode, iters: usize) -> f64 {
    let cfg = RuntimeConfig::for_scale(npes).with_timed_mode(mode);
    let out = Launcher::new(&cfg, TimedBackend).run(move |ctx| {
        ctx.barrier_all(); // alignment
        let t0 = Instant::now();
        for _ in 0..iters {
            ctx.barrier_all();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    });
    out.values.into_iter().fold(0.0, f64::max)
}

/// The timed-engine suite: raw event-core throughput (calendar vs the
/// retained reference heap) and timed world barriers at scale under
/// both scheduling disciplines, written to `BENCH_timed.json`. The
/// committed full run is the refactor's perf gate: `calendar_over_heap`
/// is the events/sec speedup of the calendar core, and
/// `cycle_box_over_event_driven` < 1.0 means the lockstep discipline
/// beat exact event order on wall time at that scale.
fn run_timed_suite(args: &Args) {
    let out = args.out.clone().unwrap_or_else(|| "BENCH_timed.json".to_string());
    let chain_totals = if args.quick { 400_000 } else { 4_000_000 };
    eprintln!(
        "timed suite: {chain_totals} events per core{}",
        if args.quick { " (quick)" } else { "" }
    );

    let mut core_entries = String::new();
    let chain_scales = [256usize, 1024, 16384];
    for (i, &chains) in chain_scales.iter().enumerate() {
        let cal = bench_event_core(desim::QueueKind::Calendar, chains, chain_totals);
        let heap = bench_event_core(desim::QueueKind::ReferenceHeap, chains, chain_totals);
        let ratio = cal / heap;
        eprintln!(
            "  {chains:>5} chains  calendar {:>10.0} ev/s  heap {:>10.0} ev/s  calendar/heap {ratio:.2}x",
            cal, heap
        );
        core_entries.push_str(&format!(
            "      {{\"chains\": {chains}, \"calendar_events_per_sec\": {cal:.0}, \
             \"heap_events_per_sec\": {heap:.0}, \"calendar_over_heap\": {ratio:.3}}}{}\n",
            if i + 1 < chain_scales.len() { "," } else { "" }
        ));
    }

    // (npes, iters): a 1024-PE timed barrier is 2048 OS threads taking
    // turns, so the big scales run a couple of iterations, not hundreds.
    let barrier_scales: &[(usize, usize)] =
        if args.quick { &[(64, 3), (256, 2), (1024, 1)] } else { &[(64, 10), (256, 4), (1024, 2)] };
    let mut barrier_entries = String::new();
    for (i, &(npes, iters)) in barrier_scales.iter().enumerate() {
        let ed = bench_timed_barrier(npes, tshmem::TimedMode::EventDriven, iters);
        let cb = bench_timed_barrier(npes, tshmem::TimedMode::cycle_box(), iters);
        let ratio = cb / ed;
        eprintln!(
            "  {npes:>5} PEs  event-driven {ed:>14.1} ns/op  cycle-box {cb:>14.1} ns/op  cb/ed {ratio:.3}"
        );
        barrier_entries.push_str(&format!(
            "      {{\"npes\": {npes}, \"event_driven_ns_per_op\": {ed:.1}, \
             \"cycle_box_ns_per_op\": {cb:.1}, \"cycle_box_over_event_driven\": {ratio:.4}}}{}\n",
            if i + 1 < barrier_scales.len() { "," } else { "" }
        ));
    }

    let json = format!(
        "{{\n  \"suite\": \"timed\",\n  \"quick\": {},\n  \
         \"event_core\": {{\n    \"total_events\": {chain_totals},\n    \"entries\": [\n{core_entries}    ]\n  }},\n  \
         \"barriers\": {{\n    \"entries\": [\n{barrier_entries}    ]\n  }}\n}}\n",
        args.quick
    );
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}

fn json_escape_free(name: &str) -> &str {
    // Benchmark names are static identifiers; assert rather than escape.
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "benchmark name {name:?} needs JSON escaping"
    );
    name
}

fn main() {
    let args = parse_args();
    if args.coop_suite {
        run_coop_suite(&args);
        return;
    }
    if args.nbi_suite {
        run_nbi_suite(&args);
        return;
    }
    if args.server_suite {
        run_server_suite(&args);
        return;
    }
    if args.timed_suite {
        run_timed_suite(&args);
        return;
    }
    if !args.native_suite {
        eprintln!(
            "nothing to do: pass --native-suite, --coop-suite, --nbi-suite, \
             --server-suite, or --timed-suite (see --help)"
        );
        std::process::exit(2);
    }
    let out = args.out.clone().unwrap_or_else(|| "BENCH_native.json".to_string());
    let npes = args.pes;
    let div = if args.quick { 10 } else { 1 };
    let it = |n: usize| (n / div).max(10);

    eprintln!("native suite: {npes} PEs{}", if args.quick { " (quick)" } else { "" });

    let mut benches: Vec<Bench> = Vec::new();
    let mut push = |b: Bench| {
        eprintln!(
            "  {:<24} {:>12.1} ns/op  {:>10.3} MB/s",
            b.name,
            b.ns_per_op,
            b.bytes_per_sec() / 1e6
        );
        benches.push(b);
    };

    const KB4: usize = 512; // u64 elements
    const KB256: usize = 32 * 1024;

    push(Bench {
        name: "put_bw_4k",
        ns_per_op: bench_put(npes, KB4, it(20_000), false),
        bytes_per_op: KB4 * 8,
    });
    push(Bench {
        name: "put_bw_256k",
        ns_per_op: bench_put(npes, KB256, it(1_000), false),
        bytes_per_op: KB256 * 8,
    });
    push(Bench {
        name: "get_bw_4k",
        ns_per_op: bench_get(npes, KB4, it(20_000)),
        bytes_per_op: KB4 * 8,
    });
    push(Bench {
        name: "get_bw_256k",
        ns_per_op: bench_get(npes, KB256, it(500)),
        bytes_per_op: KB256 * 8,
    });
    push(Bench {
        name: "barrier_all",
        ns_per_op: bench_barrier(npes, it(2_000)),
        bytes_per_op: 0,
    });
    push(Bench {
        name: "reduce_sum_8x64",
        ns_per_op: bench_reduce(npes, 8, it(1_000)),
        bytes_per_op: 8 * 8,
    });
    // 16 KiB transfers: a realistic data-plane payload (the paper's
    // bandwidth figures run from 4 KiB up), sized so the tracing tax is
    // measured against real transfer work rather than against pure
    // call-overhead — while keeping the traced run's event log bounded
    // even on engines that trace every element.
    const ABL: usize = 2048; // u64 elements
    let untraced = bench_putget(npes, ABL, it(2_000), false);
    push(Bench {
        name: "putget_untraced",
        ns_per_op: untraced,
        bytes_per_op: 2 * ABL * 8,
    });
    let traced = bench_putget(npes, ABL, it(2_000), true);
    push(Bench {
        name: "putget_traced",
        ns_per_op: traced,
        bytes_per_op: 2 * ABL * 8,
    });
    let ratio = traced / untraced;
    eprintln!("  traced/untraced putget ratio: {ratio:.3}");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"suite\": \"native\",\n");
    json.push_str(&format!("  \"npes\": {npes},\n"));
    json.push_str(&format!("  \"quick\": {},\n", args.quick));
    json.push_str(&format!("  \"traced_over_untraced\": {ratio:.4},\n"));
    json.push_str("  \"benchmarks\": {\n");
    for (i, b) in benches.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"ns_per_op\": {:.1}, \"bytes_per_sec\": {:.1}}}{}\n",
            json_escape_free(b.name),
            b.ns_per_op,
            b.bytes_per_sec(),
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}
