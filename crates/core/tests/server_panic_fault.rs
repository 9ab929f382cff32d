//! `Fault::PanicPe` canary through the server: the injected
//! crashing-tenant panic is caught at the PE boundary, reported as
//! `JobOutcome::Faulted`, consumes its one-shot budget, and leaves the
//! pool serving.
//!
//! Own test binary: the fault plane is process-global (`tshmem::fault`
//! module rule), so an installed PanicPe plan must not be able to hit
//! unrelated tests.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use tshmem::{Fault, FaultPlan, JobOutcome, JobSpec, RuntimeConfig, Server, ServerConfig};

/// The threads tenant bodies ran on, in order.
type Seen = Arc<Mutex<Vec<ThreadId>>>;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024)
}

fn busy_spec(seen: &Seen) -> JobSpec {
    let seen = seen.clone();
    JobSpec::new(cfg(2), move |ctx| {
        seen.lock().unwrap().push(std::thread::current().id());
        let n = ctx.n_pes();
        let me = ctx.my_pe();
        let data = ctx.shmalloc::<u64>(8);
        ctx.local_fill(&data, 0u64);
        ctx.barrier_all();
        // Enough fabric ops that the global op counter comfortably
        // passes the plan's after_ops threshold.
        for round in 0..16u64 {
            ctx.p(&data, (round % 8) as usize, round, (me + 1) % n);
            ctx.barrier_all();
        }
    })
}

#[test]
fn injected_pe_panic_faults_the_job_once_and_pool_survives() {
    let server = Server::round_robin(ServerConfig {
        workers: 2,
        stall: Duration::from_secs(10),
        ..Default::default()
    });
    tshmem::fault::install(FaultPlan {
        seed: 0,
        faults: vec![Fault::PanicPe { pe: 1, after_ops: 8 }],
    });

    // First job trips the one-shot PanicPe and faults — diagnosed, not
    // a pool stall.
    let seen = Seen::default();
    let report = server.submit(busy_spec(&seen)).expect("admitted").wait();
    match &report.outcome {
        JobOutcome::Faulted { error, attempts } => {
            assert_eq!(*attempts, 1, "a caught panic is terminal, never retried");
            assert!(
                error.contains("PanicPe") || error.contains("aborting"),
                "fault message should name the injected panic or the \
                 secondary abort: {error}"
            );
        }
        other => panic!("PanicPe job must fault, got {other:?}"),
    }

    // PE 1 panicked and PE 0 unwound through the abort: both lanes are
    // gone for good, and the counters have settled by the time the
    // report is out.
    let unwound: HashSet<ThreadId> = seen.lock().unwrap().drain(..).collect();
    assert_eq!(unwound.len(), 2);
    assert_eq!(server.stats().lanes_retired, 2);

    // The budget is one-shot: with the plan still installed, the same
    // workload now completes — and the pool kept serving through it,
    // never on a lane that unwound.
    for _ in 0..50 {
        let report = server.submit(busy_spec(&seen)).expect("admitted").wait();
        assert!(
            report.outcome.is_completed(),
            "one-shot budget respected and pool healthy: {:?}",
            report.outcome
        );
    }
    tshmem::fault::clear();

    assert_eq!(seen.lock().unwrap().len(), 100);
    assert!(seen.lock().unwrap().iter().all(|id| !unwound.contains(id)), "a job ran on an unwound lane");

    let stats = server.shutdown();
    assert_eq!((stats.faulted, stats.completed), (1, 50));
    assert_eq!(stats.evicted, 0, "a caught panic must not look like a wedge");
    assert_eq!((stats.lanes_retired, stats.lanes_live), (2, 0));
}
