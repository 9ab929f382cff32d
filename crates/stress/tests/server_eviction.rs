//! Server supervision: a wedged tenant is diagnosed with the per-PE
//! stall report, evicted within its stall window, retried with backoff,
//! and given up on after the policy limit — without damaging the pool.
//!
//! Phase 2 hands one job `Fault::BlockingProtocolSends`; the attempt it
//! wedges parks PEs in pre-fix blocking sends into full queues, and the
//! eviction's abort unwinds them there, so no lane is left
//! (`lanes_live`). Phase 3 wedges one PE in a loop that never enters
//! the runtime: no abort reaches it, nor the PE carried as a stack on
//! the same worker lane, and the server counts that lane and the launch
//! lane waiting on it (`lanes_live`) until it returns.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use stress::program::{gen_program, RngDraw};
use stress::{build_cfg, run_on_ctx};
use tshmem::prelude::*;
use tshmem::{Fault, JobOutcome, JobSpec, Server, ServerConfig};

/// Counts the PEs whose body is over, returned or unwound.
struct Ended(Arc<AtomicUsize>);

impl Drop for Ended {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn wedge_cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024)
}

/// A deterministic wedge: PE 0 waits on a flag no PE ever sets while
/// the rest park in the barrier behind it. Every launch attempt wedges
/// the same way, so eviction, backoff, and the give-up path all fire.
fn wedged_spec(npes: usize, seen: Arc<Mutex<Vec<ThreadId>>>) -> JobSpec {
    JobSpec::new(wedge_cfg(npes), move |ctx| {
        seen.lock().unwrap().push(std::thread::current().id());
        let flag = ctx.shmalloc::<u64>(1);
        ctx.local_fill(&flag, 0u64);
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            ctx.wait_until(&flag, 0, Cmp::Ge, 1);
        }
        ctx.barrier_all();
    })
}

#[test]
fn wedged_job_is_diagnosed_evicted_retried_and_given_up() {
    let stall = Duration::from_millis(300);
    let backoff = Duration::from_millis(50);
    let server = Server::round_robin(ServerConfig {
        workers: 4,
        stall,
        max_attempts: 2,
        backoff,
        ..Default::default()
    });

    // ---- Phase 1: deterministic wedge → evict, retry, give up. ----
    let t0 = Instant::now();
    let evicted_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let report = server.submit(wedged_spec(4, evicted_on.clone())).expect("admitted").wait();
    let elapsed = t0.elapsed();
    match &report.outcome {
        JobOutcome::Evicted { attempts, diagnosis } => {
            assert_eq!(*attempts, 2, "policy grants exactly one retry");
            assert!(
                diagnosis.contains("per-PE stall diagnosis (4 PEs)"),
                "eviction must attach the per-PE stall report:\n{diagnosis}"
            );
            assert!(
                diagnosis.contains("classification:"),
                "eviction must classify the stall:\n{diagnosis}"
            );
            // PE 0 spins in wait_until with no useful work — the
            // livelock-suspect machinery should finger it.
            assert!(
                diagnosis.contains("PE 0"),
                "diagnosis must cover the wedged PE:\n{diagnosis}"
            );
        }
        other => panic!("deterministic wedge must evict, got {other:?}"),
    }
    // Evicted within the stall window (scaled by the job's
    // oversubscription, ×4 here: 8 contexts on the 2 workers of its
    // lease, so 1.2 s) per attempt, plus backoff and the abort grace — not
    // an open-ended hang. The 2 s allowance covers the ×4 window as it
    // covered the ×2 of a whole-pool lease.
    let per_attempt = stall * 2 + Duration::from_secs(2);
    assert!(
        elapsed < (per_attempt * 2) + backoff * 4,
        "eviction took {elapsed:?}, far beyond two stall windows"
    );
    let stats = server.stats();
    assert_eq!(stats.retries, 1, "one backoff retry granted");
    assert_eq!(stats.evicted, 1);

    // The pool survives: a healthy job right after completes clean —
    // on none of the lanes the two evicted attempts unwound. An attempt's
    // four PEs are stacks on the carrier lanes of its two workers.
    let evicted_on: HashSet<ThreadId> = evicted_on.lock().unwrap().iter().copied().collect();
    assert_eq!(evicted_on.len(), 4, "two attempts of two worker lanes, no lane of the first reused by the second");
    assert_eq!(stats.lanes_retired, 4);
    let healthy_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let seen = healthy_on.clone();
    let healthy = server
        .submit(JobSpec::new(wedge_cfg(4), move |ctx| {
            seen.lock().unwrap().push(std::thread::current().id());
            let x = ctx.shmalloc::<u64>(1);
            ctx.local_fill(&x, 7u64);
            ctx.barrier_all();
            assert_eq!(ctx.g(&x, 0, (ctx.my_pe() + 1) % ctx.n_pes()), 7);
        }))
        .expect("admitted")
        .wait();
    assert!(healthy.outcome.is_completed(), "{:?}", healthy.outcome);
    assert!(healthy_on.lock().unwrap().iter().all(|id| !evicted_on.contains(id)), "an evicted attempt's lane was reused");

    // ---- Phase 2: the PR-1 recipe (BlockingProtocolSends + depth-1
    // queues + chained dissemination barriers) through the server, on
    // one job; its clean twin — the same program, no plan — is queued
    // right behind it. The deadlock needs genuinely concurrent PEs, so
    // mirror the canary's seed × attempt hunt; single-attempt policy (the
    // hunt below is the retry).
    // Every lane of phase 1 either finished or unwound: none is left.
    assert_eq!(server.shutdown().lanes_live, 0);
    let server = Server::round_robin(ServerConfig {
        workers: 4,
        stall,
        max_attempts: 1,
        backoff,
        ..Default::default()
    });
    let mut caught = None;
    'hunt: for _ in 0..4 {
        for seed in [0x3u64, 0x1e, 0x22] {
            let prog = Arc::new(gen_program(&mut RngDraw::new(seed, 0), 8));
            let cfg = build_cfg(&prog, Some(1));
            let ended = Arc::new(AtomicUsize::new(0));
            let count = ended.clone();
            let p = prog.clone();
            let spec = JobSpec::new(cfg, move |ctx| {
                let _ended = Ended(count.clone());
                run_on_ctx(&p, ctx)
            })
            .with_faults([Fault::BlockingProtocolSends]);
            let faulted = server.submit(spec).expect("admitted");
            let twin = server.submit(JobSpec::new(cfg, move |ctx| run_on_ctx(&prog, ctx))).expect("admitted");
            let report = faulted.wait();
            // The plan rode on its job alone: the twin completes
            // oracle-clean, so the wedge came from the injected fault,
            // and the pool is intact.
            let twin = twin.wait();
            assert!(twin.outcome.is_completed(), "seed {seed:#x}: the clean twin was hit: {:?}", twin.outcome);
            if let JobOutcome::Evicted { diagnosis, .. } = &report.outcome {
                caught = Some((diagnosis.clone(), ended));
                break 'hunt;
            }
        }
    }
    let (diagnosis, ended) = caught.expect(
        "fault-injected dissemination barriers at queue depth 1 never wedged across \
         4 attempts x 3 seeds; the server watchdog missed the reintroduced PR-1 bug",
    );
    assert!(
        diagnosis.contains("per-PE stall diagnosis (8 PEs)"),
        "missing per-PE report:\n{diagnosis}"
    );
    assert!(diagnosis.contains("classification:"), "missing classification:\n{diagnosis}");
    assert!(
        diagnosis.contains("active fault plan seed 0x0: [BlockingProtocolSends]"),
        "the job's plan not named:\n{diagnosis}"
    );
    // The PEs of the evicted attempt parked in a raw blocking send into
    // a full queue. That send is a baton park like every wall-clock wait,
    // so the abort unwound every PE there, and the launch lane that
    // waited for them returned: the server gets everything back.
    assert_eq!(ended.load(Ordering::SeqCst), 8, "a PE of the evicted attempt never unwound");
    assert_eq!(server.shutdown().lanes_live, 0);

    // ---- Phase 3: a PE wedged outside the runtime. Past a first
    // barrier (every PE is in its body), PE 0 loops on a flag the test
    // owns and never calls into its context, while the rest wait for
    // the second barrier behind it. The abort unwinds those; it
    // cannot reach PE 0, so the supervisor gives the launch its grace
    // and returns without it. ----
    let server = Server::round_robin(ServerConfig {
        workers: 4,
        stall,
        max_attempts: 1,
        backoff,
        ..Default::default()
    });
    let release = Arc::new(AtomicBool::new(false));
    let ended = Arc::new(AtomicUsize::new(0));
    let (flag, count) = (release.clone(), ended.clone());
    let report = server
        .submit(JobSpec::new(wedge_cfg(4), move |ctx| {
            let _ended = Ended(count.clone());
            ctx.barrier_all();
            if ctx.my_pe() == 0 {
                while !flag.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            ctx.barrier_all();
        }))
        .expect("admitted")
        .wait();
    match &report.outcome {
        JobOutcome::Evicted { diagnosis, .. } => {
            assert!(diagnosis.contains("per-PE stall diagnosis (4 PEs)"), "missing per-PE report:\n{diagnosis}");
            assert!(diagnosis.contains("PE 0"), "diagnosis must cover the wedged PE:\n{diagnosis}");
        }
        other => panic!("a PE wedged outside the runtime must evict, got {other:?}"),
    }
    // What the server cannot get back is counted, not hidden: the worker
    // lane PE 0 still loops on — PE 1, a stack on the same lane, cannot
    // run to meet the abort either — and the launch lane that waits for
    // it (the blocked join of the job's launch). Everything else is gone.
    let wedged = 4 - ended.load(Ordering::SeqCst);
    assert_eq!(wedged, 2, "only PE 0 and PE 1, on its worker's lane, are out of the abort's reach");
    assert_eq!(server.shutdown().lanes_live, 1 + 1);
    // Released, PE 0 enters the runtime, meets the abort at its first
    // park and unwinds, and PE 1 after it.
    release.store(true, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(10);
    while ended.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(ended.load(Ordering::SeqCst), 4, "the released PE never unwound");
}
