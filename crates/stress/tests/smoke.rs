//! The acceptance sweep: ≥64 seeded programs across PE counts
//! {2, 3, 4, 8} × UDN queue depths {1, 2, 8}, each run under the stall
//! watchdog and verified against the sequential oracle.
//!
//! Failures shrink via `substrate::proptest_mini` and report
//! `seed=… case=…`; replay with
//! `cargo run -p stress -- --seed <seed> --case <case> --pes <n> --depth <d>`.

use std::time::Duration;

use stress::program::{gen_program, ProgramStrategy, RngDraw};
use stress::run::{run, Engine, Outcome};
use substrate::proptest_mini as pt;

fn sweep(npes: usize) {
    for depth in [1usize, 2, 8] {
        // Shrink candidates that stall cost a full watchdog window each,
        // so keep the shrink budget modest.
        let cfg = pt::Config { max_shrink_iters: 48, ..pt::Config::with_cases(6) };
        let seed = cfg.seed;
        pt::check(cfg, ProgramStrategy { npes }, |prog| {
            let hint = format!(
                "cargo run -p stress -- --seed {seed:#x} --case <case reported above> \
                 --pes {npes} --depth {depth}"
            );
            match run(&prog, Some(depth), None, &Engine::Native, Duration::from_secs(10), &hint) {
                Outcome::Completed => {}
                Outcome::Stalled(report) => panic!("{report}"),
            }
        });
    }
}

#[test]
fn sweep_2_pes() {
    sweep(2);
}

#[test]
fn sweep_3_pes() {
    sweep(3);
}

#[test]
fn sweep_4_pes() {
    sweep(4);
}

#[test]
fn sweep_8_pes() {
    sweep(8);
}

/// Both churn modes of [`Step::HeapChurn`] — shfree+shmalloc refresh
/// and shrealloc grow — must run under concurrent RMA and verify
/// against the oracle on the native *and* timed engines. The seeds are
/// found by scanning the frozen draw stream, so the programs are stable
/// without pinning magic numbers here.
#[test]
fn heap_churn_both_modes_verified_on_both_engines() {
    use stress::program::Step;
    use tshmem::TimedMode;
    let mut need_refresh = true;
    let mut need_grow = true;
    let mut seed = 0u64;
    while need_refresh || need_grow {
        seed += 1;
        assert!(seed < 10_000, "no HeapChurn programs in the first 10k seeds");
        let prog = gen_program(&mut RngDraw::new(seed, 0), 4);
        let (mut has_refresh, mut has_grow) = (false, false);
        for s in &prog.steps {
            if let Step::HeapChurn { refresh, .. } = s {
                if *refresh {
                    has_refresh = true;
                } else {
                    has_grow = true;
                }
            }
        }
        if !((has_refresh && need_refresh) || (has_grow && need_grow)) {
            continue;
        }
        need_refresh &= !has_refresh;
        need_grow &= !has_grow;
        let hint = format!("cargo run -p stress -- --seed {seed:#x} --case 0 --pes 4 --depth 2");
        match run(&prog, Some(2), None, &Engine::Native, Duration::from_secs(10), &hint) {
            Outcome::Completed => {}
            Outcome::Stalled(report) => panic!("{report}"),
        }
        match run(&prog, Some(2), None, &Engine::Timed(TimedMode::EventDriven), Duration::ZERO, &hint) {
            Outcome::Completed => {}
            Outcome::Stalled(report) => panic!("{report}"),
        }
    }
}

/// The property harness's `(seed, case)` stream and the replay binary's
/// `RngDraw` stream must generate byte-identical programs, or the replay
/// hint printed on failure would reproduce a different run.
#[test]
fn replay_draws_match_harness_draws() {
    for npes in [2usize, 5, 8] {
        for case in 0..4u64 {
            let seed = 0xDEAD_BEEF_0042_1337u64;
            let via_harness = {
                use std::cell::RefCell;
                let captured = RefCell::new(String::new());
                pt::check(
                    pt::Config { cases: 1, seed: seed.wrapping_add(case), max_shrink_iters: 0 },
                    ProgramStrategy { npes },
                    |prog| {
                        *captured.borrow_mut() = format!("{prog:?}");
                    },
                );
                captured.into_inner()
            };
            let via_replay = format!("{:?}", gen_program(&mut RngDraw::new(seed.wrapping_add(case), 0), npes));
            assert_eq!(via_harness, via_replay, "draw streams diverged (npes {npes})");
        }
    }
}
