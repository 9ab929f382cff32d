//! Hand-built stress scenarios for specific historical bug classes.

use std::time::Duration;

use stress::program::{CollKind, Program, Step, COLL_L};
use stress::run::{run, Engine, Outcome};
use tshmem::TimedMode;

fn vals_for(size: usize, salt: u64) -> Vec<Vec<u64>> {
    (0..size)
        .map(|r| (0..COLL_L).map(|i| salt << 32 | (r as u64) << 16 | i as u64).collect())
        .collect()
}

/// Two disjoint active sets (evens and odds) run collect/fcollect
/// trains *concurrently*: the odds skip the evens' steps and start their
/// own collectives immediately, so both sets' offset-scan and gather
/// messages interleave on the same demux queues. Before collective
/// idents were made collision-free per (set, invocation), a member of
/// one set could consume the other set's same-offset message and
/// scatter wrong data — this program is the pinning regression for that
/// bleed.
#[test]
fn disjoint_set_collects_interleave() {
    let npes = 8;
    let evens = (0usize, 1u32, 4usize); // PEs 0,2,4,6
    let odds = (1usize, 1u32, 4usize); // PEs 1,3,5,7
    let mut steps = Vec::new();
    let mut idx = 0;
    // Several rounds of adjacent disjoint-set collectives; no barrier
    // between them, so the two sets run fully out of phase.
    for round in 0..4u64 {
        for (set, salt) in [(evens, round * 2), (odds, round * 2 + 1)] {
            let kind = if round % 2 == 0 { CollKind::Collect } else { CollKind::Fcollect };
            steps.push(Step::Coll { kind, set, idx, vals: vals_for(set.2, salt) });
            idx += 1;
        }
    }
    let prog = Program { npes, temp_bytes: 64, algos: (3, 0, 0), steps };
    for depth in [1usize, 8] {
        match run(&prog, Some(depth), None, &Engine::Native, Duration::from_secs(10), "scenario: disjoint collects")
        {
            Outcome::Completed => {}
            Outcome::Stalled(report) => panic!("depth {depth}:\n{report}"),
        }
    }
}

/// Same shape, but the two sets *overlap* on PE 0 (world + evens):
/// overlapping membership forces PE 0 to order both collectives while
/// the other members race ahead, exercising the stash-matching path.
#[test]
fn overlapping_set_collectives() {
    let npes = 8;
    let world = (0usize, 0u32, 8usize);
    let evens = (0usize, 1u32, 4usize);
    let mut steps = Vec::new();
    let mut idx = 0;
    for round in 0..3u64 {
        steps.push(Step::Coll {
            kind: CollKind::Fcollect,
            set: world,
            idx,
            vals: vals_for(world.2, round * 2),
        });
        idx += 1;
        steps.push(Step::Coll {
            kind: CollKind::Collect,
            set: evens,
            idx,
            vals: vals_for(evens.2, round * 2 + 1),
        });
        idx += 1;
    }
    let prog = Program { npes, temp_bytes: 64, algos: (0, 0, 0), steps };
    match run(&prog, Some(1), None, &Engine::Native, Duration::from_secs(10), "scenario: overlapping collects") {
        Outcome::Completed => {}
        Outcome::Stalled(report) => panic!("{report}"),
    }
}

/// Cross-engine fence stress for collect's gather stage. The gather
/// publishes each member's contribution with a `put_sym` of the data
/// followed by a flag store; a receiver that observes the flag must also
/// observe the data (the fence between them is the contract). The two
/// engines order those stores completely differently — native issues
/// real stores through the demux threads and relies on the fabric fence,
/// the timed engine serializes them in virtual time — so the same
/// collect train must verify on both. The per-PE result check inside
/// `run_on_ctx` is the oracle: a flag outrunning its data scatters stale
/// bytes and fails verification.
#[test]
fn collect_gather_fence_holds_on_both_engines() {
    let npes = 8;
    let world = (0usize, 0u32, 8usize);
    let evens = (0usize, 1u32, 4usize);
    let mut steps = Vec::new();
    let mut idx = 0;
    // A dense train of back-to-back gathers with no intervening barrier:
    // each round alternates Collect (offset-scan then gather) and
    // Fcollect (gather only) on world and on a subset, so flag/data
    // pairs from adjacent invocations are in flight simultaneously.
    for round in 0..4u64 {
        steps.push(Step::Coll {
            kind: if round % 2 == 0 { CollKind::Collect } else { CollKind::Fcollect },
            set: world,
            idx,
            vals: vals_for(world.2, round * 2),
        });
        idx += 1;
        steps.push(Step::Coll {
            kind: if round % 2 == 0 { CollKind::Fcollect } else { CollKind::Collect },
            set: evens,
            idx,
            vals: vals_for(evens.2, round * 2 + 1),
        });
        idx += 1;
    }
    let prog = Program { npes, temp_bytes: 64, algos: (3, 2, 1), steps };

    // Native engine: both a depth-1 bottleneck (every gather message
    // waits for credit, maximizing reordering windows) and a deep queue.
    for depth in [1usize, 8] {
        match run(&prog, Some(depth), None, &Engine::Native, Duration::from_secs(10), "scenario: collect fence") {
            Outcome::Completed => {}
            Outcome::Stalled(report) => panic!("native depth {depth}:\n{report}"),
        }
    }
    // Timed engine: bounded and unbounded virtual-time schedules.
    for depth in [Some(1usize), None] {
        match run(&prog, depth, None, &Engine::Timed(TimedMode::EventDriven), Duration::ZERO, "scenario: collect fence (timed)") {
            Outcome::Completed => {}
            Outcome::Stalled(report) => panic!("timed depth {depth:?}:\n{report}"),
        }
    }
}
