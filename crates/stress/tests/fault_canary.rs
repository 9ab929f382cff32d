//! Fault-injection plane canaries: a stalled service handler is
//! attributed to the **handler** (not its clients), and seeded fault
//! plans of the tolerated class converge to the oracle on both engines.
//!
//! One `#[test]` on purpose: the installed fault plan is process-global
//! state, so the stall canary and the tolerance matrix must run
//! sequentially in one binary.

use std::time::Duration;

use stress::program::{gen_program_v, RngDraw, GEN_LATEST};
use stress::run::{run_coop, run_multichip, run_timed, run_watched, watch_closure, Outcome};
use tshmem::fault::{self, Fault, FaultPlan};
use tshmem::prelude::*;

fn stalled_handler_report() -> String {
    // Stall every service request on PE 1 for 60 virtual/real seconds —
    // far past the 2 s watchdog window.
    fault::install(FaultPlan {
        seed: 0,
        faults: vec![Fault::StallServiceHandler { pe: 1, requests: 1000, micros: 60_000_000 }],
    });
    let cfg = RuntimeConfig::new(4)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 16);
    let outcome = watch_closure(&cfg, Duration::from_secs(2), "stalled service handler", |ctx| {
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
    fault::clear();
    match outcome {
        Outcome::Stalled(report) => report,
        Outcome::Completed => panic!("stalled service handler did not stall the job"),
    }
}

#[test]
fn service_handler_stall_is_attributed_and_seeded_plans_are_tolerated() {
    // --- Canary: the stall is pinned on PE 1's *handler*, not on the
    // clients parked in their reply waits. ---
    let report = stalled_handler_report();
    assert!(
        report.contains("PE 1 svc: handler(sput from PE 0)"),
        "handler not attributed in:\n{report}"
    );
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
    // The report names the injected fault, so the stall is attributable
    // to the plan rather than a library bug.
    assert!(report.contains("StallServiceHandler(PE 1"), "fault plan not named in:\n{report}");

    // --- Tolerance matrix: seeded plans draw only the tolerated fault
    // kinds; every such plan must converge to the oracle on all four
    // engines (or be caught — never hang the runner). The coop rows run
    // 4 PEs on 2 workers, so every injected delay also exercises the
    // gate-release-around-sleep path. ---
    for plan_seed in [0x11u64, 0x21, 0x31] {
        for engine in ["native", "timed", "multichip", "coop"] {
            let plan = FaultPlan::from_seed(plan_seed, 4);
            let desc = plan.describe();
            fault::install(plan);
            let prog = gen_program_v(&mut RngDraw::new(0x5, 0), 4, GEN_LATEST);
            let hint = format!("--fault-plan {plan_seed:#x} --engine {engine}");
            let outcome = match engine {
                "native" => run_watched(&prog, Some(2), Duration::from_secs(20), &hint),
                "timed" => run_timed(&prog, Some(2), &hint),
                "coop" => run_coop(&prog, Some(2), 2, Duration::from_secs(20), &hint),
                _ => run_multichip(&prog, Some(2), &hint),
            };
            fault::clear();
            match outcome {
                Outcome::Completed => {}
                Outcome::Stalled(report) => {
                    panic!("{engine} run under tolerated {desc} stalled:\n{report}")
                }
            }
        }
    }

    // --- DelayNbiCompletion is tolerated by construction: stretching
    // the gap between nbi issue and completion must never change the
    // oracle-checked final state or wedge any engine (the drain path
    // reuses the blocking protocol, so coop gates release and the
    // watchdog still sees useful ops). Hand-built plan (not seeded):
    // delaying every 2nd completion maximizes in-flight reordering
    // pressure on the gen-4 nbi trains. ---
    for engine in ["native", "timed", "multichip", "coop"] {
        fault::install(FaultPlan {
            seed: 0,
            faults: vec![Fault::DelayNbiCompletion { every: 2, micros: 300 }],
        });
        let prog = gen_program_v(&mut RngDraw::new(0x53, 1), 4, GEN_LATEST);
        let hint = format!("--engine {engine} (hand-built DelayNbiCompletion plan)");
        let outcome = match engine {
            "native" => run_watched(&prog, Some(2), Duration::from_secs(20), &hint),
            "timed" => run_timed(&prog, Some(2), &hint),
            "coop" => run_coop(&prog, Some(2), 2, Duration::from_secs(20), &hint),
            _ => run_multichip(&prog, Some(2), &hint),
        };
        fault::clear();
        match outcome {
            Outcome::Completed => {}
            Outcome::Stalled(report) => {
                panic!("{engine} run under DelayNbiCompletion stalled:\n{report}")
            }
        }
    }
}
