//! Open-loop load harness for the `tshmem::server` multi-tenant pool.
//!
//! `stress --serve` queues a seeded stream of oracle-checked generated
//! programs (2–8 PEs each) against a resident [`Server`], with a
//! configurable fraction of jobs replaced by hostile tenants — mostly
//! caught-class panics, plus deliberate wedges that must be diagnosed
//! and evicted. The harness tracks each job's *expected* outcome class
//! and fails loudly on any divergence:
//!
//! - a healthy job must come back [`JobOutcome::Completed`] (the body
//!   is `run_on_ctx`, which asserts the sequential oracle internally);
//! - a seeded panic must come back [`JobOutcome::Faulted`];
//! - a seeded wedge must come back [`JobOutcome::Evicted`] carrying the
//!   per-PE stall diagnosis — never a pool stall.
//!
//! Throughput (jobs/sec) and latency quantiles (p50/p99 of
//! submit→resolve wall time) are printed for the healthy population;
//! the benchmark's `server_jobs` workload and `server.*` probes measure
//! the fault-free closed-loop counterpart for the committed `BENCH.jsonl`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tshmem::prelude::*;
use tshmem::{Fault, JobOutcome, JobSpec, Server, ServerConfig};

use crate::program::{gen_program, Draw, RngDraw};
use crate::run::{build_cfg, run_on_ctx};

/// Which scheduler the serve run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    RoundRobin,
    Fair,
}

/// Knobs for one serve run; `stress --serve` fills this from flags.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Base seed of the job stream; job `i` derives `(seed, i)`.
    pub seed: u64,
    /// Total jobs submitted.
    pub jobs: usize,
    /// Fraction of jobs seeded with a fault (0.0–1.0). Of the faulty
    /// jobs, ~80% panic (caught class) and ~20% wedge (evicted class).
    pub fault_frac: f64,
    /// Pool worker threads (0 = auto).
    pub pool_workers: usize,
    pub sched: Sched,
    /// Hand the first job with this PE a one-shot `Fault::PanicPe` plan
    /// for it, instead of closure-level faults: exactly one job in the
    /// stream must fault, every other job must complete (the canary
    /// mode check_hermetic.sh drives).
    pub panic_pe: Option<usize>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            seed: 0x5345525645,
            jobs: 1000,
            fault_frac: 0.10,
            pool_workers: 0,
            sched: Sched::RoundRobin,
            panic_pe: None,
        }
    }
}

/// Outcome classes a seeded job can be assigned up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Healthy,
    Panic,
    Wedge,
}

/// What one serve run did; `mismatches` non-empty means the pool broke
/// an isolation or supervision promise.
#[derive(Debug)]
pub struct ServeSummary {
    pub jobs: usize,
    pub completed: usize,
    pub faulted: usize,
    pub evicted: usize,
    pub shed: usize,
    pub jobs_per_sec: f64,
    pub p50: Duration,
    pub p99: Duration,
    /// The server's final counters (arena recycling, lanes).
    pub server: tshmem::ServerStats,
    pub mismatches: Vec<String>,
}

impl ServeSummary {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The wedge body: PE 0 waits on a flag no PE ever sets while the rest
/// park in the barrier behind it — deterministic on every attempt, so
/// the watchdog always has something to diagnose.
fn wedge_body(ctx: &ShmemCtx) {
    let flag = ctx.shmalloc::<u64>(1);
    ctx.local_fill(&flag, 0u64);
    ctx.barrier_all();
    if ctx.my_pe() == 0 {
        ctx.wait_until(&flag, 0, Cmp::Ge, 1);
    }
    ctx.barrier_all();
}

/// Classify job `i` of the stream. The split is deterministic in
/// (seed, i): faults spread evenly, with every 5th faulty job a wedge.
fn classify(d: &mut RngDraw, i: usize, opts: &ServeOpts) -> Expect {
    if opts.panic_pe.is_some() || opts.fault_frac <= 0.0 {
        return Expect::Healthy;
    }
    let cut = (opts.fault_frac.clamp(0.0, 1.0) * 1000.0) as u64;
    if d.below(1000) >= cut {
        return Expect::Healthy;
    }
    // ~20% of the faulty population wedges; the rest panic. Wedges are
    // far more expensive (a full scaled stall window each), so keep
    // them the minority while still exercising eviction under load.
    if i.is_multiple_of(5) {
        Expect::Wedge
    } else {
        Expect::Panic
    }
}

/// Run the open-loop serve load. Submission never waits for results:
/// jobs are pushed as fast as admission allows, backing off only on
/// `QueueFull` by the server's own `retry_after` hint.
pub fn serve(opts: &ServeOpts) -> ServeSummary {
    let server_cfg = ServerConfig {
        workers: opts.pool_workers,
        queue_depth: 64,
        // Wedges must be diagnosed in CI time: a short window is safe
        // because healthy generated programs at ≤8 PEs make progress at
        // microsecond scale, far inside any stall horizon.
        stall: Duration::from_millis(500),
        // A deliberate wedge reproduces on retry, so one attempt keeps
        // the run short (retry/backoff is covered by the eviction
        // regression test).
        max_attempts: 1,
        ..Default::default()
    };
    let server = match opts.sched {
        Sched::RoundRobin => Server::round_robin(server_cfg),
        Sched::Fair => Server::fair(server_cfg),
    };
    eprintln!(
        "serve: seed={:#018x} jobs={} fault_frac={} pool_workers={} (resolved {}) sched={:?}{}",
        opts.seed,
        opts.jobs,
        opts.fault_frac,
        opts.pool_workers,
        server.slots(),
        opts.sched,
        match opts.panic_pe {
            Some(pe) => format!(" panic_pe={pe}"),
            None => String::new(),
        }
    );
    // The PanicPe canary's plan rides on one job; every other job runs
    // clean, whatever overlaps it in the pool.
    let mut panic_pe = opts.panic_pe;
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(opts.jobs);
    for i in 0..opts.jobs {
        let mut d = RngDraw::new(opts.seed, i as u64);
        let expect = classify(&mut d, i, opts);
        let spec = match expect {
            Expect::Healthy | Expect::Panic => {
                // 2–8 PEs, fresh draw stream per job. A panic job runs
                // the same program but a chosen PE turns hostile at a
                // mid-program barrier.
                let npes = 2 + d.below(7) as usize;
                let prog = Arc::new(gen_program(&mut d, npes));
                let cfg = build_cfg(&prog, None);
                if expect == Expect::Panic {
                    let victim = d.below(npes as u64) as usize;
                    JobSpec::new(cfg, move |ctx| {
                        ctx.barrier_all();
                        if ctx.my_pe() == victim {
                            panic!("seeded hostile tenant (job {i})");
                        }
                        run_on_ctx(&prog, ctx);
                    })
                } else {
                    JobSpec::new(cfg, move |ctx| run_on_ctx(&prog, ctx))
                }
            }
            // Wedges pin npes=2: the diagnosis quality is identical and
            // the stranded-thread cost per wedge is minimal.
            Expect::Wedge => JobSpec::new(
                RuntimeConfig::new(2)
                    .with_partition_bytes(256 * 1024)
                    .with_private_bytes(64 * 1024)
                    .with_temp_bytes(16 * 1024),
                wedge_body,
            ),
        };
        let mut spec = spec.with_tenant((i % 7) as u32);
        if let Some(pe) = panic_pe.filter(|pe| *pe < spec.cfg.npes) {
            eprintln!("serve: job {i} carries a one-shot PanicPe(PE {pe} after 8 ops)");
            spec = spec.with_faults([Fault::PanicPe { pe, after_ops: 8 }]);
            panic_pe = None;
        }
        // Open loop with admission backpressure: on QueueFull honor the
        // server's retry hint (capped — this is a test harness, not a
        // patient client).
        let handle = loop {
            match server.submit(spec.clone()) {
                Ok(h) => break h,
                Err(tshmem::SubmitError::QueueFull { retry_after }) => {
                    std::thread::sleep(retry_after.min(Duration::from_millis(20)));
                }
                Err(e) => panic!("serve: unexpected admission error: {e}"),
            }
        };
        handles.push((i, expect, handle));
    }

    let mut summary = ServeSummary {
        jobs: opts.jobs,
        completed: 0,
        faulted: 0,
        evicted: 0,
        shed: 0,
        jobs_per_sec: 0.0,
        p50: Duration::ZERO,
        p99: Duration::ZERO,
        server: Default::default(),
        mismatches: Vec::new(),
    };
    let mut latencies = Vec::with_capacity(opts.jobs);
    let mut panic_pe_faults = 0usize;
    for (i, expect, handle) in handles {
        let report = handle.wait();
        match &report.outcome {
            JobOutcome::Completed { .. } => summary.completed += 1,
            JobOutcome::Faulted { .. } => summary.faulted += 1,
            JobOutcome::Evicted { .. } => summary.evicted += 1,
            JobOutcome::Shed { .. } => summary.shed += 1,
        }
        if expect == Expect::Healthy {
            latencies.push(report.latency);
        }
        let verdict = match (expect, &report.outcome) {
            (Expect::Healthy, JobOutcome::Completed { .. }) => Ok(()),
            // In PanicPe canary mode exactly one healthy job is allowed
            // (required, checked below) to fault.
            (Expect::Healthy, JobOutcome::Faulted { .. }) if opts.panic_pe.is_some() => {
                panic_pe_faults += 1;
                Ok(())
            }
            (Expect::Panic, JobOutcome::Faulted { .. }) => Ok(()),
            (Expect::Wedge, JobOutcome::Evicted { diagnosis, .. }) => {
                if diagnosis.contains("per-PE stall diagnosis") {
                    Ok(())
                } else {
                    Err(format!("wedge diagnosis missing the per-PE report:\n{diagnosis}"))
                }
            }
            (e, o) => Err(format!("expected {e:?}, got {o:?}")),
        };
        if let Err(msg) = verdict {
            summary.mismatches.push(format!("job {i}: {msg}"));
        }
    }
    let wall = t0.elapsed();

    if opts.panic_pe.is_some() && panic_pe_faults != 1 {
        summary.mismatches.push(format!(
            "PanicPe canary: expected exactly 1 faulted job from the one-shot \
             plan, saw {panic_pe_faults}"
        ));
    }
    summary.server = server.shutdown();
    summary.jobs_per_sec = opts.jobs as f64 / wall.as_secs_f64();
    latencies.sort_unstable();
    if !latencies.is_empty() {
        summary.p50 = latencies[latencies.len() / 2];
        summary.p99 = latencies[(latencies.len() * 99) / 100];
    }
    summary
}
