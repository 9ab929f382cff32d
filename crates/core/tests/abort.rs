//! A panicking PE must abort the whole job (with the original panic
//! surfacing) rather than leaving peers blocked in protocol waits, and
//! a wedged job must fail its supervised launch alike on every engine.

use tshmem::prelude::*;
use tshmem::EngineBackend;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes).with_partition_bytes(1 << 20)
}

fn coop(workers: usize) -> CoopBackend {
    CoopBackend { workers, ..Default::default() }
}

/// Run `body` under `launcher` and return the panic message the job
/// dies of.
fn abort_message<B: EngineBackend>(launcher: Launcher<B>, body: &(impl Fn(&ShmemCtx) + Send + Sync)) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        launcher.run(|ctx| body(ctx));
    }))
    .expect_err("the aborted job must report the panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().expect("string panic payload").to_string(),
    }
}

/// The abort path is the wall fabric's, not the geometry's: the job must
/// die of `body` with the same message (the lowest panicking PE's) with
/// a worker per PE and with two workers.
fn aborts_alike(npes: usize, message: &str, body: impl Fn(&ShmemCtx) + Send + Sync) {
    assert_eq!(abort_message(Launcher::new(&cfg(npes), NativeBackend), &body), message, "native");
    assert_eq!(abort_message(Launcher::new(&cfg(npes), coop(2)), &body), message, "coop");
}

/// The wedge: PE 0 joins a barrier no other PE runs, and the others
/// finalize without it.
fn barrier_for_one(ctx: &ShmemCtx) {
    ctx.barrier_all();
    if ctx.my_pe() == 0 {
        ctx.barrier_dissemination_explicit(ctx.world());
    }
}

/// The report `barrier_for_one` ends in, supervised on `backend` with
/// `per_chip` PEs per chip and a plan aboard.
fn wedge_report<B: EngineBackend + Send + 'static>(backend: B, per_chip: usize) -> String {
    Launcher::new(&cfg(per_chip), backend)
        .with_faults([tshmem::Fault::EagerNbi])
        .run_watched(std::time::Duration::from_millis(200), barrier_for_one)
        .expect_err("a barrier one PE runs alone must wedge the launch")
}

/// Supervision is the launcher's, not the engine's: on the two wall
/// clocks the supervisor's poll and on the two virtual ones the
/// scheduler's drained queue end the same wedge in the same report.
#[test]
fn a_wedge_fails_alike_on_every_engine() {
    let reports = [
        ("native", wedge_report(NativeBackend, 4)),
        ("coop", wedge_report(coop(2), 4)),
        ("timed", wedge_report(TimedBackend, 4)),
        ("multichip", wedge_report(MultiChipBackend { chips: 2 }, 2)),
    ];
    for (engine, report) in &reports {
        assert!(report.contains("per-PE stall diagnosis (4 PEs)"), "{engine}: no diagnosis in:\n{report}");
        assert!(report.contains("PE 0: recv(q0)"), "{engine}: PE 0 not parked in its barrier:\n{report}");
        assert!(report.contains("active fault plan seed 0x0: [EagerNbi]"), "{engine}: plan not named in:\n{report}");
        assert!(report.contains("classification: deadlock"), "{engine}: not classified deadlock:\n{report}");
        let pe0 = report.lines().find(|l| l.starts_with("  PE 0: ")).expect("PE 0's line");
        assert!(pe0.contains("| queue occupancy ["), "{engine}: no occupancy on PE 0's line:\n{report}");
        assert!(pe0.contains("| stash"), "{engine}: no stash on PE 0's line:\n{report}");
    }
}

/// An injected crash fires on every engine: the op clock and the
/// `PanicPe` check are one hook both fabrics run on every completed op.
/// Under virtual time the crash is the job's only panic; on the wall
/// fabric PE 0, parked in a barrier, aborts first, as in [`aborts_alike`].
#[test]
fn an_injected_pe_crash_fires_on_every_engine() {
    let crash = || tshmem::FaultPlan::from([tshmem::Fault::PanicPe { pe: 1, after_ops: 8 }]);
    let body = |ctx: &ShmemCtx| {
        for _ in 0..8 {
            ctx.barrier_all();
        }
    };
    let crashed = "PE 1: injected PanicPe fault (crashing-tenant model)";
    let timed = Launcher::new(&cfg(2), TimedBackend).with_faults(crash());
    assert_eq!(abort_message(timed, &body), crashed, "timed");
    let multichip = Launcher::new(&cfg(1), MultiChipBackend { chips: 2 }).with_faults(crash());
    assert_eq!(abort_message(multichip, &body), crashed, "multichip");
    let aborted = "PE 0: aborting — another PE panicked";
    let native = Launcher::new(&cfg(2), NativeBackend).with_faults(crash());
    assert_eq!(abort_message(native, &body), aborted, "native");
    let coop = Launcher::new(&cfg(2), coop(2)).with_faults(crash());
    assert_eq!(abort_message(coop, &body), aborted, "coop");
}

/// Unwatched, a virtual-time wedge unwinds with its report as a string.
#[test]
fn an_unwatched_virtual_time_wedge_unwinds_with_its_report() {
    let message = abort_message(Launcher::new(&cfg(4), TimedBackend), &barrier_for_one);
    assert!(message.contains("PE 0: recv(q0)"), "PE 0 not parked in its barrier:\n{message}");
}

#[test]
fn peer_panic_aborts_pes_blocked_in_barrier() {
    aborts_alike(4, "PE 0: aborting — another PE panicked", |ctx| {
        if ctx.my_pe() == 2 {
            panic!("PE 2 exploded mid-protocol");
        }
        // Everyone else blocks in a barrier PE 2 will never join; the
        // abort flag must get them out.
        ctx.barrier_all();
    });
}

#[test]
fn peer_panic_aborts_pes_blocked_in_wait() {
    aborts_alike(2, "PE 0 exploded before signaling", |ctx| {
        let flag = ctx.shmalloc::<i64>(1);
        ctx.local_write(&flag, 0, &[0i64]);
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            panic!("PE 0 exploded before signaling");
        }
        // PE 1 waits for a signal that will never come.
        ctx.wait(&flag, 0, 0i64);
    });
}

#[test]
fn jobs_after_an_aborted_job_still_work() {
    aborts_alike(3, "PE 0: aborting — another PE panicked", |ctx| {
        if ctx.my_pe() == 1 {
            panic!("boom");
        }
        ctx.barrier_all();
    });
    // A fresh job in the same process is unaffected, on either policy.
    let ring = |ctx: &ShmemCtx| {
        let v = ctx.shmalloc::<u32>(1);
        ctx.p(&v, 0, 5u32, (ctx.my_pe() + 1) % 3);
        ctx.barrier_all();
        ctx.g(&v, 0, ctx.my_pe())
    };
    assert_eq!(launch(&cfg(3), ring), vec![5, 5, 5]);
    assert_eq!(Launcher::new(&cfg(3), coop(2)).run(ring).values, vec![5, 5, 5]);
}

/// The last PE panics after its peers are done and parked in `finalize`:
/// on the coop engine, two PEs per worker, in its counter-cell pass — a
/// member on its leader's cell, a leader on the root cell or short of
/// an arrival.
#[test]
fn peer_panic_aborts_pes_parked_in_finalize() {
    aborts_alike(4, "PE 0: aborting — another PE panicked", |ctx| {
        if ctx.my_pe() == 3 {
            // Time for the others to park; the job must abort either way.
            std::thread::sleep(std::time::Duration::from_millis(50));
            panic!("PE 3 exploded while its peers finalized");
        }
    });
}

// --- interrupt-service contexts, started by their first request ----------
//
// An abort has nobody to wake where no request ever arrived, and must
// still reach a context whose start is in flight when the flag goes up:
// its first park takes the grant the abort left for it.

#[test]
fn panic_in_a_job_that_never_redirected_a_transfer() {
    aborts_alike(4, "PE 0 exploded with no service context anywhere", |ctx| {
        let v = ctx.shmalloc::<u64>(1);
        ctx.p(&v, 0, 1, (ctx.my_pe() + 1) % 4);
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            panic!("PE 0 exploded with no service context anywhere");
        }
        ctx.barrier_all();
    });
}

#[test]
fn panic_right_after_the_first_redirected_put_of_the_job() {
    aborts_alike(4, "PE 0 exploded with PE 3's service context starting", |ctx| {
        let word = ctx.static_sym::<u64>(1);
        if ctx.my_pe() == 0 {
            // Non-blocking, so nothing orders the start against the panic.
            ctx.put_nbi(&word, 0, &[7], 3);
            panic!("PE 0 exploded with PE 3's service context starting");
        }
        ctx.barrier_all();
    });
}

/// PE 1 dies at once; PE 0 then redirects more puts at PE 1's static
/// memory than the bounded queues hold. The service context those
/// requests start runs after the abort: it meets PE 0's full reply queue
/// and PE 0 meets its full request queue, and the abort must reach a
/// sender parked on a full queue, on both wall engines.
#[test]
fn peer_panic_aborts_a_sender_parked_on_a_full_queue() {
    let body = |ctx: &ShmemCtx| {
        let word = ctx.static_sym::<u64>(1);
        if ctx.my_pe() == 1 {
            panic!("PE 1 exploded before serving anything");
        }
        std::thread::sleep(Duration::from_millis(300));
        for i in 0..8 {
            ctx.put_nbi(&word, 0, &[i], 1);
        }
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let cfg = cfg(2).with_bounded_udn(2);
        let native = abort_message(Launcher::new(&cfg, NativeBackend), &body);
        let coop = abort_message(Launcher::new(&cfg, coop(2)), &body);
        let _ = tx.send((native, coop));
    });
    let (native, coop) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the aborted job hung: a sender parked on a full queue never unwound");
    assert_eq!(native, "PE 0: aborting — another PE panicked", "native");
    assert_eq!(coop, "PE 0: aborting — another PE panicked", "coop");
}

// --- cell waiters (coop engine, >64 PEs on shard-aligned sets) -----------
//
// Members of a counter-cell pass park on their leader's cell with their
// gate released and are woken by being queued on the gate. An abort has
// to reach them in both places: still on the cell list (they take
// themselves off it and unwind) or already queued (they are admitted,
// then abort — a dead context is never handed a gate, or its siblings
// would wait behind it forever).

use std::sync::mpsc;
use std::time::Duration;

use tshmem::{Bits, Reducible};

const SHARD: usize = 64;

fn coop_cfg() -> RuntimeConfig {
    RuntimeConfig::for_scale(2 * SHARD).with_partition_bytes(64 * 1024)
}

/// Run a 128-PE job on two workers (two shards of 64) that must die of
/// a panic rather than complete or hang.
fn must_abort(body: impl Fn(&ShmemCtx) + Send + Sync + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Launcher::new(&coop_cfg(), coop(2)).run(body);
        }));
        let _ = tx.send(r.is_err());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(true) => {}
        Ok(false) => panic!("the job completed; a PE was supposed to panic"),
        Err(_) => panic!("the aborted job hung: a parked cell waiter never unwound"),
    }
}

/// A fresh coop job after the wreck still runs its collectives.
fn coop_still_works() {
    let out = Launcher::new(&coop_cfg(), coop(2)).run(|ctx| {
        let src = ctx.shmalloc::<u64>(1);
        let dst = ctx.shmalloc::<u64>(1);
        ctx.local_write(&src, 0, &[1]);
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
        ctx.local_read(&dst, 0, 1)[0]
    }).values;
    assert_eq!(out, vec![2 * SHARD as u64; 2 * SHARD]);
}

#[test]
fn peer_panic_aborts_a_shard_parked_on_its_cell() {
    // PE 5 never arrives: its leader waits on the arrival count with 62
    // members parked behind it, and the other shard's 63 members sit on
    // their cell while their leader waits on the root cell.
    must_abort(|ctx| {
        if ctx.my_pe() == 5 {
            panic!("PE 5 exploded before the barrier");
        }
        ctx.barrier_all();
    });
    coop_still_works();
}

/// A reducible word whose fold blows up on a poisoned contribution.
#[derive(Clone, Copy, PartialEq, Debug)]
#[repr(transparent)]
struct Fuse(u64);

const POISON: u64 = 0xdead;

// SAFETY: a transparent `u64`: every bit pattern is a valid value.
unsafe impl Bits for Fuse {}

impl Reducible for Fuse {
    const SUPPORTS_BITWISE: bool = false;
    const SUPPORTS_ORDER: bool = false;

    fn reduce(_: ReduceOp, a: Self, b: Self) -> Self {
        assert_ne!(b.0, POISON, "poisoned contribution reached the fold");
        Fuse(a.0 + b.0)
    }
}

#[test]
fn leader_panic_between_gather_and_release_aborts_its_parked_members() {
    // Only PE 70's word is poisoned and only its own leader (PE 64)
    // folds it — after the gather, with all 63 members of the shard
    // parked on the cell it will now never release.
    must_abort(|ctx| {
        let src = ctx.shmalloc::<Fuse>(1);
        let dst = ctx.shmalloc::<Fuse>(1);
        let mine = if ctx.my_pe() == SHARD + 6 { POISON } else { 1 };
        ctx.local_write(&src, 0, &[Fuse(mine)]);
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
    });
    coop_still_works();
}

#[test]
fn leader_panic_in_the_root_fold_aborts_the_leader_parked_on_the_root_cell() {
    // The second shard's leader (PE 64) folds its members into a `dest`
    // that comes out exactly poisoned, arrives on the root cell and
    // parks; leader 0 panics folding it, with PE 64 parked on the root
    // epoch and every member parked on its cluster's cell.
    must_abort(|ctx| {
        let src = ctx.shmalloc::<Fuse>(1);
        let dst = ctx.shmalloc::<Fuse>(1);
        let mine = if ctx.my_pe() == SHARD { POISON - (SHARD as u64 - 1) } else { 1 };
        ctx.local_write(&src, 0, &[Fuse(mine)]);
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
    });
    coop_still_works();
}

#[test]
fn leader_panic_right_after_release_aborts_members_queued_on_its_gate() {
    // The leader returns from the barrier still holding the gate its 63
    // released members are queued on, and panics there: each of them is
    // admitted in turn and must abort on admission.
    must_abort(|ctx| {
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            panic!("PE 0 exploded right after releasing its shard");
        }
        ctx.barrier_all();
    });
    coop_still_works();
}
