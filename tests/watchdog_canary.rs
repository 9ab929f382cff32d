//! Watchdog canaries: a fault reintroduced on purpose must be *caught*
//! — diagnosed per PE with a reproducer — by the supervised launch
//! (`Launcher::run_watched`) on the engine it runs on, and a seeded plan
//! of the tolerated class must never be. Every fault rides on the one
//! launch it is handed to (`Launcher::with_faults`), so these run in
//! parallel with each other and with clean launches.
//!
//! A genuinely deadlocked job's PEs park in pre-fix blocking sends into
//! full queues; the supervisor's abort unwinds them there like any other
//! wall-clock wait, and they hold no plan another launch could see.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use stress::program::{fault_plan_seed, gen_program, RngDraw};
use stress::run::{run, watch_closure, Engine, Outcome};
use substrate::proptest_mini as pt;
use tshmem::prelude::*;
use tshmem::{Fault, FaultPlan, TimedMode};

/// Seeds whose generated programs chain enough dissemination barriers
/// that, at 8 PEs and queue depth 1, overlapping rounds form a cycle of
/// full-queue senders once sends stop draining (4-5 of 5 runs each, on
/// the native and the coop engine, on an idle 2-CPU host). The deadlock
/// needs genuinely concurrent PEs, so on a loaded machine any single
/// attempt can slip through serialized — hence the retry loops.
const CANARY_SEEDS: [u64; 3] = [0x3, 0x1e, 0x22];
const ATTEMPTS: usize = 4;

fn blocking_sends() -> FaultPlan {
    FaultPlan::from([Fault::BlockingProtocolSends])
}

fn hint_for(seed: u64) -> String {
    format!("cargo run -p stress -- --seed {seed:#x} --pes 8 --depth 1 --canary")
}

/// The first canary seed `run` stalls on, with its report.
fn hunt(run: impl Fn(&stress::Program, &str) -> Outcome) -> Option<(u64, String)> {
    for _ in 0..ATTEMPTS {
        for seed in CANARY_SEEDS {
            let prog = gen_program(&mut RngDraw::new(seed, 0), 8);
            if let Outcome::Stalled(report) = run(&prog, &hint_for(seed)) {
                return Some((seed, report));
            }
        }
    }
    None
}

#[test]
fn watchdog_reports_seeded_deadlock() {
    let plan = blocking_sends();
    let caught = hunt(|prog, hint| run(prog, Some(1), Some(&plan), &Engine::Native, Duration::from_secs(2), hint));
    let Some((seed, report)) = caught else {
        panic!(
            "fault-injected dissemination barriers at queue depth 1 never deadlocked \
             across {ATTEMPTS} attempts × {} seeds; the reintroduced deadlock was not caught",
            CANARY_SEEDS.len()
        );
    };

    // The diagnosis must name every PE and what it is blocked on.
    assert!(report.contains("per-PE stall diagnosis (8 PEs)"), "missing header:\n{report}");
    for pe in 0..8 {
        assert!(report.contains(&format!("PE {pe}:")), "missing PE {pe}:\n{report}");
    }
    // A send-cycle deadlock: at least one PE parked in a full-queue
    // send, with the barrier queue (q0) implicated.
    assert!(report.contains("(q0) [full]"), "no full-queue send in:\n{report}");
    // Queue occupancy and last-event columns rendered.
    assert!(report.contains("queue occupancy ["), "no occupancy in:\n{report}");
    assert!(report.contains("last event"), "no trace events in:\n{report}");
    // It names the plan it ran under, and its own reproducer.
    assert!(report.contains("active fault plan seed 0x0: [BlockingProtocolSends]"), "plan not named in:\n{report}");
    assert!(report.contains("--canary"), "no replay hint in:\n{report}");
    assert!(report.contains(&format!("--seed {seed:#x}")), "no seed in:\n{report}");

    // Without the plan the same program completes and verifies — the
    // deadlock came from the injected fault, not the program.
    let prog = gen_program(&mut RngDraw::new(seed, 0), 8);
    match run(&prog, Some(1), None, &Engine::Native, Duration::from_secs(10), "n/a") {
        Outcome::Completed => {}
        Outcome::Stalled(report) => panic!("unexpected stall without fault:\n{report}"),
    }
}

/// Two coop launches at once, one of them wedged by its plan: the
/// wedged one's report names that plan, and the other — the same
/// program, no plan — completes untouched by it.
#[test]
fn a_plan_wedges_only_the_launch_it_was_handed() {
    let plan = blocking_sends();
    let caught = hunt(|prog, hint| {
        std::thread::scope(|s| {
            let clean = s.spawn(|| run(prog, Some(1), None, &Engine::Coop { workers: 4 }, Duration::from_millis(300), "clean twin"));
            let faulted = run(prog, Some(1), Some(&plan), &Engine::Coop { workers: 4 }, Duration::from_millis(300), hint);
            match clean.join().expect("clean launch panicked") {
                Outcome::Completed => faulted,
                Outcome::Stalled(report) => panic!("the clean twin stalled:\n{report}"),
            }
        })
    });
    let (_, report) = caught.expect("BlockingProtocolSends never wedged the coop launch it was handed");
    assert!(report.contains("(q0) [full]"), "no full-queue send in:\n{report}");
    assert!(report.contains("active fault plan seed 0x0: [BlockingProtocolSends]"), "plan not named in:\n{report}");
}

/// Wedge a virtual-time job and assert the desim scheduler's deadlock
/// detector fires **the instant the event queue drains**, with the
/// drained-queue observer rendering the same per-PE diagnosis the
/// wall-clock supervisor produces. Under virtual time there is no wall clock
/// to stall, so the scheduler itself is the watchdog. The plan's
/// blocking sends put the wedged PE's barrier traffic on the
/// credit-blocked bounded-queue path, and a deliberately mismatched
/// extra barrier parks PE 0 in a barrier receive forever.
#[test]
fn desim_watchdog_catches_timed_deadlock_and_names_the_parked_pe() {
    let cfg = RuntimeConfig::new(4)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 16)
        .with_bounded_udn(1);
    let launcher = Launcher::new(&cfg, TimedBackend).with_faults(blocking_sends());
    let result = launcher.run_watched(Duration::ZERO, |ctx| {
        ctx.barrier_all();
        // Deliberate bug: PE 0 joins a barrier no other PE runs. Its
        // extra invocation collides with the other PEs' finalize-time
        // ring barrier (both are each PE's second barrier), so the whole
        // job wedges mid-protocol — the virtual event queue drains with
        // every LP parked in a barrier recv.
        if ctx.my_pe() == 0 {
            ctx.barrier_dissemination_explicit(ctx.world());
        }
    });

    let Err(report) = result else {
        panic!("mismatched barrier did not deadlock the timed engine");
    };
    assert!(
        report.contains("timed watchdog: virtual event queue drained with unfinished LPs parked"),
        "missing timed watchdog header:\n{report}"
    );
    assert!(report.contains("per-PE stall diagnosis (4 PEs)"), "missing diagnosis:\n{report}");
    // Every PE is parked in the barrier-queue recv and named with its
    // coop channel and virtual clock.
    for pe in 0..4 {
        assert!(report.contains(&format!("PE {pe}: recv(q0)")), "PE {pe} missing:\n{report}");
    }
    assert!(report.contains("parked on ch0 @"), "no parked channel/clock in:\n{report}");
    // Service contexts are probed separately, idle in their recv loops.
    assert!(report.contains("PE 0 svc: recv(q3)"), "service probe missing:\n{report}");
    assert!(report.contains("parked on ch3"), "service park missing:\n{report}");
    // Useful-work counters rendered (spins stay zero: parked, not spinning).
    assert!(report.contains("useful="), "no counters in:\n{report}");
    assert!(report.contains("active fault plan seed 0x0: [BlockingProtocolSends]"), "plan not named in:\n{report}");
}

/// Poison a lock word so every PE's `set_lock` cswap fails forever: the
/// watchdog's useful-work accounting must classify the stall as a
/// **livelock** and name the spinning PEs. A watchdog that counts any
/// fabric op as progress is blind to this: the spinning PEs issue fabric
/// operations continuously (failed cswaps, `wait_pause` polls), so its
/// signal never fires. The useful/spin counter split
/// makes the stall visible — ops flat, spins climbing.
#[test]
fn useful_work_watchdog_classifies_lock_pingpong_as_livelock() {
    let cfg = RuntimeConfig::new(4)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 16);
    let outcome = watch_closure(&cfg, &Engine::Native, None, Duration::from_secs(2), "poisoned-lock livelock", |ctx| {
        let lock = ctx.shmalloc::<i64>(1);
        ctx.local_fill(&lock, 0i64);
        ctx.barrier_all();
        // Deliberate bug: PE 0 scribbles a garbage owner word into the
        // lock, so no PE's cswap(0 -> me+1) can ever succeed.
        if ctx.my_pe() == 0 {
            ctx.p(&lock, 0, i64::MAX, 0);
        }
        ctx.barrier_all();
        ctx.set_lock(&lock);
        ctx.clear_lock(&lock);
    });

    let Outcome::Stalled(report) = outcome else {
        panic!("poisoned lock did not stall the job");
    };
    // The useful/spin split must call this a livelock, not a deadlock:
    // every PE keeps issuing (failing) fabric ops.
    assert!(report.contains("classification: livelock"), "not classified livelock:\n{report}");
    // Every PE is parked in the lock acquisition spin and named.
    assert!(report.contains("per-PE stall diagnosis (4 PEs)"), "missing header:\n{report}");
    assert!(report.contains("lock-wait@"), "no lock-wait state in:\n{report}");
    assert!(
        report.contains("livelock suspects (spinning, no useful work in window):"),
        "no suspects line in:\n{report}"
    );
    for pe in 0..4 {
        assert!(report.contains(&format!("PE {pe} (lock-wait@")), "PE {pe} not named a suspect in:\n{report}");
    }
    // In-window deltas rendered: zero useful work, nonzero spins.
    assert!(report.contains("(+0 useful / +"), "no window deltas in:\n{report}");
}

// --- multichip: mPIPE link faults and cross-chip stalls --------------------

fn chip_cfg(pes_per_chip: usize) -> RuntimeConfig {
    RuntimeConfig::new(pes_per_chip)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
}

/// Two chips of `per_chip` PEs.
fn two_chips(per_chip: usize) -> Launcher<MultiChipBackend> {
    Launcher::new(&chip_cfg(per_chip), MultiChipBackend { chips: 2 })
}

/// A small job whose first fabric activity crosses the chip boundary.
fn cross_chip_job(ctx: &ShmemCtx) {
    let v = ctx.shmalloc::<u64>(16);
    ctx.local_fill(&v, 0u64);
    ctx.barrier_all();
    if ctx.my_pe() == 0 {
        ctx.put(&v, 0, &[1u64, 2, 3, 4], ctx.n_pes() - 1);
    }
    ctx.barrier_all();
}

/// The panic message a cross-chip job under `fault` dies of.
fn link_panic(fault: Fault) -> String {
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Launcher::new(&chip_cfg(2), MultiChipBackend { chips: 2 })
            .with_faults([fault])
            .run(cross_chip_job);
    }))
    .expect_err("a corrupted or replayed link frame must be caught");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("non-string panic payload")
    }
}

/// Corruption: the receiving mPIPE's CRC check panics, naming the link,
/// the frame, and both checksums.
#[test]
fn corrupted_link_frame_fails_the_crc_naming_the_link() {
    let msg = link_panic(Fault::CorruptLinkPacket { nth: 1 });
    assert!(msg.contains("mPIPE link chip"), "link not named in: {msg}");
    assert!(msg.contains("CRC mismatch on frame"), "not a CRC catch: {msg}");
}

/// Duplication: the replayed frame trips the sequence check.
#[test]
fn duplicated_link_frame_trips_the_sequence_check() {
    let msg = link_panic(Fault::DuplicateLinkPacket { nth: 1 });
    assert!(msg.contains("mPIPE link chip"), "link not named in: {msg}");
    assert!(msg.contains("replayed frame"), "not a replay catch: {msg}");
    assert!(msg.contains("duplicate delivery"), "cause not spelled out: {msg}");
}

/// Drop: the first cross-chip frame is barrier protocol traffic;
/// dropping it wedges the receiver, the virtual event queue drains, and
/// the watchdog report names the plan. Runs twice: virtual time makes
/// the full diagnosis replay byte-identically.
#[test]
fn dropped_link_frame_wedges_and_the_report_replays_identically() {
    let drop_report = || {
        match two_chips(2)
            .with_faults([Fault::DropLinkPacket { nth: 1 }])
            .run_watched(Duration::ZERO, cross_chip_job)
        {
            Ok(_) => panic!("dropped link frame was not caught"),
            Err(report) => report,
        }
    };
    let report = drop_report();
    assert!(report.contains("virtual event queue drained"), "watchdog header missing:\n{report}");
    assert!(report.contains("per-PE stall diagnosis (4 PEs):"), "per-PE section missing:\n{report}");
    assert!(report.contains("(chip 0)") && report.contains("(chip 1)"), "chip labels missing:\n{report}");
    assert!(
        report.contains("active fault plan") && report.contains("DropLinkPacket(frame 1)"),
        "the plan's fault not named:\n{report}"
    );
    assert_eq!(report, drop_report(), "faulted multichip diagnosis must replay identically");
}

/// Mismatched cross-chip barrier, no plan: PE 4 (on chip 1) skips the
/// closing barrier; the diagnosis labels stalled PEs on both chips,
/// shows the bailed PE as finished, and names no plan.
#[test]
fn cross_chip_stalls_carry_chip_labels() {
    let report = match two_chips(3).run_watched(Duration::ZERO, |ctx| {
        ctx.barrier_all();
        if ctx.my_pe() != 4 {
            ctx.barrier_all(); // PE 4 bails out instead
        }
    }) {
        Ok(_) => panic!("mismatched cross-chip barrier must be caught"),
        Err(report) => report,
    };
    assert!(report.contains("per-PE stall diagnosis (6 PEs):"), "per-PE section missing:\n{report}");
    assert!(
        report.contains("PE 0 (chip 0)") && report.contains("PE 5 (chip 1)"),
        "stalled PEs not labeled per chip:\n{report}"
    );
    assert!(
        report.contains("PE 4 (chip 1)") && report.contains("finished"),
        "bailed PE not shown finished:\n{report}"
    );
    assert!(!report.contains("fault plan"), "a launch without a plan names one:\n{report}");
}

// --- the tolerated class, and a stall pinned on the faulted component ------

/// A stalled service handler is attributed to the **handler**, not to
/// the clients parked in their reply waits.
#[test]
fn service_handler_stall_is_attributed_to_the_handler() {
    // Stall every service request on PE 1 for 60 s — far past the 2 s
    // watchdog window.
    let plan = FaultPlan::from([Fault::StallServiceHandler { pe: 1, requests: 1000, micros: 60_000_000 }]);
    let cfg = RuntimeConfig::new(4)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 16);
    let outcome = watch_closure(&cfg, &Engine::Native, Some(&plan), Duration::from_secs(2), "stalled service handler", |ctx| {
        let statv = ctx.static_sym::<u64>(4);
        ctx.local_fill(&statv, 0u64);
        ctx.barrier_all();
        // A static-segment put to another PE redirects through that
        // PE's interrupt-service context — the stalled handler.
        if ctx.my_pe() == 0 {
            ctx.put(&statv, 0, &[7u64, 8, 9], 1);
        }
        ctx.barrier_all();
    });
    let Outcome::Stalled(report) = outcome else {
        panic!("stalled service handler did not stall the job");
    };
    assert!(report.contains("PE 1 svc: handler(sput from PE 0)"), "handler not attributed in:\n{report}");
    // PEs 2 and 3 were never sent a request, so their service contexts
    // never started — and read exactly as an idle one does.
    for pe in [2, 3] {
        let idle = format!("  PE {pe} svc: recv(q3) | useful=0 spins=0 (+0 useful / +0 spins in window)\n");
        assert!(report.contains(&idle), "PE {pe}'s idle service context not shown in:\n{report}");
    }
    // The client is visibly parked waiting for the handler's reply.
    assert!(report.contains("PE 0: recv(q2)"), "client wait not shown in:\n{report}");
    // A sleeping handler neither works nor spins: deadlock class.
    assert!(report.contains("classification: deadlock"), "not classified deadlock:\n{report}");
    // The report names the plan, so the stall is attributable to it
    // rather than a library bug.
    assert!(report.contains("StallServiceHandler(PE 1"), "fault plan not named in:\n{report}");
}

/// Run `prog` at depth 2 under `plan` on `engine`; coop runs 4 PEs on 2
/// workers, so every injected delay also crosses the
/// gate-release-around-sleep path.
fn run_on(engine: &str, prog: &stress::Program, plan: &FaultPlan, hint: &str) -> Outcome {
    let engine = match engine {
        "native" => Engine::Native,
        "timed" => Engine::Timed(TimedMode::EventDriven),
        "coop" => Engine::Coop { workers: 2 },
        _ => Engine::Multichip(TimedMode::EventDriven),
    };
    run(prog, Some(2), Some(plan), &engine, Duration::from_secs(20), hint)
}

const ENGINES: [&str; 4] = ["native", "timed", "multichip", "coop"];

/// Seeded plans draw only the tolerated fault kinds; every such plan
/// must converge to the oracle on all four engines (or be caught —
/// never hang the runner). The seeds are the hermetic gate's fault
/// matrix.
#[test]
fn seeded_plans_are_tolerated_on_every_engine() {
    let prog = gen_program(&mut RngDraw::new(0x5, 0), 4);
    for plan_seed in [0x11u64, 0x21, 0x31] {
        let plan = FaultPlan::from_seed(plan_seed, 4);
        for engine in ENGINES {
            let hint = format!("--fault-plan {plan_seed:#x} --engine {engine}");
            if let Outcome::Stalled(report) = run_on(engine, &prog, &plan, &hint) {
                panic!("{engine} run under tolerated {} stalled:\n{report}", plan.describe());
            }
        }
    }
}

/// `DelayNbiCompletion` is tolerated by construction: stretching the gap
/// between nbi issue and completion must never change the oracle-checked
/// final state or wedge any engine (the drain path reuses the blocking
/// protocol, so coop gates release and the watchdog still sees useful
/// ops). Delaying every 2nd completion maximizes in-flight reordering
/// pressure on the nbi trains.
#[test]
fn delayed_nbi_completions_are_tolerated_on_every_engine() {
    let plan = FaultPlan::from([Fault::DelayNbiCompletion { every: 2, micros: 300 }]);
    let prog = gen_program(&mut RngDraw::new(0x53, 1), 4);
    for engine in ENGINES {
        let hint = format!("--engine {engine} (hand-built DelayNbiCompletion plan)");
        if let Outcome::Stalled(report) = run_on(engine, &prog, &plan, &hint) {
            panic!("{engine} run under DelayNbiCompletion stalled:\n{report}");
        }
    }
}

/// The faulted acceptance sweep: the programs the smoke sweep runs, each
/// re-run under a seeded plan drawn from [`fault_plan_seed`]`(seed,
/// case)` — a derivation outside the generator's draw stream, so the
/// programs are the unfaulted sweep's and every run here replays with
/// `--fault-plan`. A stall is a liveness bug in the library, not an
/// expected fault outcome.
#[test]
fn smoke_seeds_survive_seeded_fault_plans() {
    let seed = pt::Config::default().seed;
    for npes in [2usize, 4, 8] {
        for case in 0..3u64 {
            let prog = gen_program(&mut RngDraw::new(seed, case), npes);
            let plan_seed = fault_plan_seed(seed, case);
            let plan = FaultPlan::from_seed(plan_seed, npes);
            let hint = format!(
                "cargo run -p stress -- --seed {seed:#x} --case {case} --pes {npes} \
                 --depth 2 --fault-plan {plan_seed:#x}"
            );
            if let Outcome::Stalled(report) = run(&prog, Some(2), Some(&plan), &Engine::Native, Duration::from_secs(20), &hint) {
                panic!("case {case} on {npes} PEs stalled under tolerated {}:\n{report}", plan.describe());
            }
        }
    }
}

/// The derivation is pinned: if `fault_plan_seed` changed, every
/// `--fault-plan` hint ever printed by the sweep would replay a
/// different plan.
#[test]
fn fault_plan_seed_derivation_is_stable() {
    let a = fault_plan_seed(0x1234, 0);
    let b = fault_plan_seed(0x1234, 1);
    let c = fault_plan_seed(0x1235, 0);
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_eq!(a, fault_plan_seed(0x1234, 0));
    // Distinct plans for adjacent cases (the mix spreads case bits).
    assert_ne!(FaultPlan::from_seed(a, 4).faults, FaultPlan::from_seed(b, 4).faults);
}
