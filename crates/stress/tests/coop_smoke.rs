//! Coop-engine smoke seeds past the native tile cap: pinned programs at
//! 64 and 256 PEs must converge to the sequential oracle
//! under M:N multiplexing, and the 256-PEs-on-4-workers run must finish
//! without the oversubscription-scaled watchdog raising a spurious
//! livelock/deadlock report (the satellite-1 regression: the unscaled
//! window plus the descheduled-PEs-count-as-frozen rule flagged exactly
//! this configuration).

use std::time::Duration;

use stress::program::{gen_program, RngDraw};
use stress::run::{run, watch_closure, Engine, Outcome};
use tshmem::prelude::*;

const SEED: u64 = 0x7453484d454d5031;

fn assert_completed(outcome: Outcome, label: &str) {
    match outcome {
        Outcome::Completed => {}
        Outcome::Stalled(report) => {
            panic!("{label}: watchdog fired on a convergent run:\n{report}")
        }
    }
}

#[test]
fn coop_smoke_64_pes() {
    // Case 11: reduce, two fcollects and a collect on 51-64-member sets,
    // a lock and a cswap ring.
    let prog = gen_program(&mut RngDraw::new(SEED, 11), 64);
    let hint = format!("--seed {SEED:#x} --case 11 --npes 64 --depth 0 --engine coop --workers 3");
    assert_completed(run(&prog, None, None, &Engine::Coop { workers: 3 }, Duration::from_secs(5), &hint), "64 PEs / 3 workers");
}

#[test]
fn coop_smoke_256_pes_no_spurious_stall_report() {
    // 256 PEs on 4 workers = oversubscription 128 (capped to a 64×
    // window). A deliberately tight 1 s base window: with the scaling
    // fix the effective window is 64 s and the run completes well
    // inside it; pre-fix, the raw 1 s window tripped over admission
    // latency and the report misclassified the queued PEs as frozen.
    // Case 7: a 214-member broadcast, a 130-member fcollect, an nbi
    // train and a world lock.
    let prog = gen_program(&mut RngDraw::new(SEED, 7), 256);
    let hint = format!("--seed {SEED:#x} --case 7 --npes 256 --depth 0 --engine coop --workers 4");
    assert_completed(run(&prog, None, None, &Engine::Coop { workers: 4 }, Duration::from_secs(1), &hint), "256 PEs / 4 workers");
}

#[test]
fn coop_smoke_1024_pes() {
    // The full ROADMAP scale on a deliberately small worker pool:
    // 1024 PEs on 4 workers = oversubscription 256 (capped to a 64×
    // window). A 2 s base window relies entirely on the scaled
    // watchdog; with the locality fast paths on by default this also
    // smoke-tests the counter-cell barrier at block = 256, which every
    // world barrier takes.
    //
    // Case 8 is chosen from the stream deliberately: its mix
    // (TeamColl + two Colls + NbiTrain) is parallel-friendly, whereas
    // neighboring cases draw a global Lock or token rings — n serial
    // gate handoffs per round that cost debug-build minutes at this
    // scale and measure the box, not the engine.
    let prog = gen_program(&mut RngDraw::new(SEED, 8), 1024);
    let hint = format!("--seed {SEED:#x} --case 8 --npes 1024 --depth 0 --engine coop --workers 4");
    assert_completed(run(&prog, None, None, &Engine::Coop { workers: 4 }, Duration::from_secs(2), &hint), "1024 PEs / 4 workers");
}

#[test]
fn coop_smoke_bounded_queues() {
    // Finite UDN buffers under oversubscription: the gate must be
    // released around blocking sends or a full queue wedges the worker.
    // Case 2: RMA traffic, a lock, a put_signal chain and three
    // collectives.
    let prog = gen_program(&mut RngDraw::new(SEED, 2), 64);
    let hint = format!("--seed {SEED:#x} --case 2 --npes 64 --depth 2 --engine coop --workers 2");
    assert_completed(run(&prog, Some(2), None, &Engine::Coop { workers: 2 }, Duration::from_secs(5), &hint), "64 PEs depth 2");
}

#[test]
fn watchdog_names_the_cell_and_the_pe_that_never_arrived() {
    // 72 PEs on 4 workers (shards of 18). One seeded non-leader sits in
    // a flag wait instead of entering `sum_to_all`: its leader parks on
    // its own cell short of one arrival, the shard's members park on
    // that cell behind it, and the other leaders wait on the root cell,
    // keyed by PE 0. The report must say all of that, and how to rerun it.
    const SHARD: usize = 18;
    let pick = (SEED % (4 * (SHARD as u64 - 1))) as usize;
    let missing = pick / (SHARD - 1) * SHARD + 1 + pick % (SHARD - 1);
    let leader = missing / SHARD * SHARD;
    let label = format!("cell wedge --seed {SEED:#x}: PE {missing} skips a 72-PE sum_to_all on 4 workers");
    let cfg = RuntimeConfig::for_scale(72);
    let outcome = watch_closure(&cfg, &Engine::Coop { workers: 4 }, None, Duration::from_millis(100), &label, move |ctx| {
        let src = ctx.shmalloc::<u64>(1);
        let dst = ctx.shmalloc::<u64>(1);
        let never = ctx.shmalloc::<u64>(1);
        if ctx.my_pe() == missing {
            ctx.wait_until(&never, 0, Cmp::Ne, 0u64);
        }
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
    });
    let Outcome::Stalled(report) = outcome else {
        panic!("a collective missing one member completed");
    };
    let line = |pe: usize| {
        let head = format!("  PE {pe}: ");
        report.lines().find(|l| l.starts_with(&head)).unwrap_or_else(|| panic!("no line for PE {pe} in:\n{report}"))
    };
    let on_cell = format!("cell-wait@PE{leader}");
    assert!(line(leader).contains(&on_cell), "leader not parked on its own cell:\n{report}");
    let sibling = if missing == leader + 1 { leader + 2 } else { leader + 1 };
    assert!(line(sibling).contains(&on_cell), "member not parked on its leader's cell:\n{report}");
    assert!(line(missing).contains("flag-wait@"), "the missing PE is not named as waiting elsewhere:\n{report}");
    assert!(line((leader + SHARD) % 72).contains("cell-wait@PE0"), "other leaders not on the root cell:\n{report}");
    assert!(report.contains(&format!("--seed {SEED:#x}")), "no reproducer in:\n{report}");
}
