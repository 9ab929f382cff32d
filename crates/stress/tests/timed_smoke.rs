//! Timed-engine smoke seeds at coop scale: pinned programs at 256 PEs
//! (512 LPs — PE contexts plus service contexts) must converge
//! to the sequential oracle under the virtual-time scheduler in **both**
//! scheduling disciplines. The replay hints carry the mode: the two
//! disciplines reach the same final state along different schedules, so
//! a failure replays only under the mode that produced it.

use std::time::Duration;

use stress::program::{gen_program, RngDraw};
use stress::run::{run, Engine, Outcome};
use tshmem::TimedMode;

const SEED: u64 = 0x7453484d454d5039;

fn assert_completed(outcome: Outcome, label: &str) {
    match outcome {
        Outcome::Completed => {}
        Outcome::Stalled(report) => {
            panic!("{label}: timed watchdog fired on a convergent run:\n{report}")
        }
    }
}

/// Case 10: RMA traffic from every PE, then a signal ring.
fn program_256() -> stress::Program {
    gen_program(&mut RngDraw::new(SEED, 10), 256)
}

#[test]
fn timed_smoke_256_pes_event_driven() {
    let hint = format!("cargo run -p stress -- --seed {SEED:#x} --case 10 --npes 256 --depth 0 --engine timed");
    assert_completed(
        run(&program_256(), None, None, &Engine::Timed(TimedMode::EventDriven), Duration::ZERO, &hint),
        "256 PEs event-driven",
    );
}

#[test]
fn timed_smoke_256_pes_cycle_box() {
    let hint = format!("cargo run -p stress -- --seed {SEED:#x} --case 10 --npes 256 --depth 0 --engine timed --cycle-box");
    assert_completed(
        run(&program_256(), None, None, &Engine::Timed(TimedMode::cycle_box()), Duration::ZERO, &hint),
        "256 PEs cycle-box",
    );
}

#[test]
fn timed_smoke_bounded_queues_both_modes() {
    // Finite UDN buffers: credit-blocked sends must wake correctly
    // under both disciplines (the cycle-box key change reorders grants
    // within a box, which is exactly where a missed credit wake hides).
    // Case 8: RMA traffic in three steps around a cswap ring and two
    // collects.
    let prog = gen_program(&mut RngDraw::new(SEED, 8), 64);
    for (mode, flag) in [
        (TimedMode::EventDriven, ""),
        (TimedMode::cycle_box(), " --cycle-box"),
    ] {
        let hint = format!(
            "cargo run -p stress -- --seed {SEED:#x} --case 8 --npes 64 --depth 2 --engine timed{flag}"
        );
        assert_completed(
            run(&prog, Some(2), None, &Engine::Timed(mode), Duration::ZERO, &hint),
            "64 PEs depth 2",
        );
    }
}
