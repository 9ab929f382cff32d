//! Equivalence suites: one seeded program, two arms that may differ in
//! *how* an operation is carried out but never in *what* it does. Each
//! arm is a launch of its own — a per-launch fault plan for the
//! reference arms that switch an optimisation off, a config or backend
//! for the rest — so the arms of every suite run side by side:
//!
//! | suite | arms | `Stats` compared |
//! |---|---|---|
//! | RMA fast paths | default vs `[Fault::GeneralRmaPaths]`, native and timed | all |
//! | nbi completion | lazy (default) vs `[Fault::EagerNbi]`, four engines | all but `cswap_retries` (native) |
//! | admission geometry | native vs coop with a worker per PE and with one worker | API counts; puts/gets too under named algorithms |
//! | virtual-time disciplines | event-driven vs cycle-box, timed and multichip | — (final state) |
//!
//! Final-state equality is enforced inside [`run_on_ctx`], which asserts
//! every PE's full view (heap copy, static segment, collective scratch,
//! recorded get streams, signal/atomic cells) against the sequential
//! oracle — both arms must match that one model, so they match each
//! other. `Stats` are compared here.
//!
//! The locality arms stay in `locality_equivalence.rs`; they are also
//! the cell-pass-vs-flat-algorithm comparison. Native against timed is
//! in `native_timed_equivalence.rs`, with locality off.

use std::sync::Barrier;
use std::time::Duration;

use stress::program::{gen_program, CollKind, Program, RngDraw, Step, TeamKind};
use stress::run::{build_cfg, run, run_on_ctx, Engine, Outcome};
use tshmem::prelude::*;
use tshmem::{EngineBackend, Fault, FaultPlan, Stats, TimedMode};

fn program(seed: u64, case: u64, npes: usize) -> Program {
    gen_program(&mut RngDraw::new(seed, case), npes)
}

/// Per-PE `Stats` of `prog` launched on `backend` under `cfg` and
/// `plan`, the final state oracle-checked inside the launch.
fn stats_on(backend: impl EngineBackend, cfg: &RuntimeConfig, prog: &Program, plan: Option<&FaultPlan>) -> Vec<Stats> {
    let launcher = Launcher::new(cfg, backend);
    let launcher = match plan {
        Some(plan) => launcher.with_faults(plan.clone()),
        None => launcher,
    };
    launcher
        .run(|ctx| {
            run_on_ctx(prog, ctx);
            ctx.stats()
        })
        .values
}

fn assert_completed(outcome: Outcome, label: &str) {
    if let Outcome::Stalled(report) = outcome {
        panic!("{label}: stalled:\n{report}");
    }
}

// --- RMA fast paths ---------------------------------------------------------

/// The RMA fast paths (unit-stride batched `iput`/`iget`, contiguous-
/// source borrows, direct temp drains) are pure optimizations: the same
/// program under `[GeneralRmaPaths]` must leave identical state and
/// identical per-PE `Stats` on the native and timed engines (and the
/// two engines agree with each other: `native_timed_equivalence.rs`).
/// Seeds 0x5EFA and 0x5EFC: the first two of the 0x5EED.. scan whose
/// programs draw both unit-stride and strided `iput`/`iget`.
#[test]
fn fast_and_general_rma_paths_agree_on_state_and_stats() {
    let general = FaultPlan::from([Fault::GeneralRmaPaths]);
    for seed in [0x5EFAu64, 0x5EFC] {
        let prog = program(seed, 0, 4);
        let cfg = build_cfg(&prog, Some(2));
        let native_fast = stats_on(NativeBackend, &cfg, &prog, None);
        let native_gen = stats_on(NativeBackend, &cfg, &prog, Some(&general));
        let timed_fast = stats_on(TimedBackend, &cfg, &prog, None);
        let timed_gen = stats_on(TimedBackend, &cfg, &prog, Some(&general));
        assert_eq!(native_fast, native_gen, "seed {seed:#x}: native stats diverged between fast and general paths");
        assert_eq!(timed_fast, timed_gen, "seed {seed:#x}: timed stats diverged between fast and general paths");
    }
}

// --- nbi completion ---------------------------------------------------------

/// Failed `cswap` attempts (claim-loop retries) are timing-dependent;
/// everything else in `Stats` is deterministic per program.
fn normalized(mut s: Stats) -> Stats {
    s.cswap_retries = 0;
    s
}

/// The same programs must reach the same final state — and the same
/// deterministic `Stats` — whether non-blocking operations complete at
/// issue (`[EagerNbi]`) or at the next completion point (the default).
/// Eager mode routes through `drain_pending` on the same code path, so a
/// divergence means the deferred plumbing (staging buffers, issue-order
/// replay, temp bump-allocation) changed observable semantics.
#[test]
fn eager_and_lazy_nbi_completion_agree_on_stats() {
    let eager = FaultPlan::from([Fault::EagerNbi]);
    for case in 0..4u64 {
        let prog = program(0x4eb1, case, 4);
        let cfg = build_cfg(&prog, None);
        let lazy = stats_on(NativeBackend, &cfg, &prog, None);
        let eager = stats_on(NativeBackend, &cfg, &prog, Some(&eager));
        assert_eq!(lazy.len(), eager.len());
        for (pe, (l, e)) in lazy.iter().zip(&eager).enumerate() {
            assert_eq!(
                normalized(*l),
                normalized(*e),
                "case {case} PE {pe}: eager and lazy nbi modes produced different op counts"
            );
        }
    }
}

/// Both completion modes converge to the oracle on all four engines.
#[test]
fn eager_and_lazy_nbi_completion_converge_on_every_engine() {
    let eager = FaultPlan::from([Fault::EagerNbi]);
    for plan in [None, Some(&eager)] {
        let mode = if plan.is_some() { "eager" } else { "lazy" };
        for case in 4..7u64 {
            let prog = program(0x4eb1, case, 4);
            let hint = format!("--seed 0x4eb1 --case {case} --pes 4 ({mode})");
            let stall = Duration::from_secs(20);
            assert_completed(run(&prog, None, plan, &Engine::Native, stall, &hint), &format!("native case {case} {mode}"));
            assert_completed(run(&prog, None, plan, &Engine::Timed(TimedMode::EventDriven), Duration::ZERO, &hint), &format!("timed case {case} {mode}"));
            assert_completed(run(&prog, None, plan, &Engine::Multichip(TimedMode::EventDriven), Duration::ZERO, &hint), &format!("multichip case {case} {mode}"));
            assert_completed(run(&prog, None, plan, &Engine::Coop { workers: 2 }, stall, &hint), &format!("coop case {case} {mode}"));
        }
    }
}

/// The eager arm belongs to the launch it was handed: with an eager and
/// a default launch in flight at once, the default one still holds its
/// `put_nbi` to a remote static object after `fence` (fence orders, it
/// does not complete) and the eager one holds none.
#[test]
fn eager_nbi_reaches_only_its_own_launch() {
    let cfg = RuntimeConfig::new(2).with_partition_bytes(1 << 20);
    let both_issued = Barrier::new(2);
    let pending_after_fence = |plan: Option<FaultPlan>| {
        let launcher = Launcher::new(&cfg, NativeBackend);
        let launcher = match plan {
            Some(plan) => launcher.with_faults(plan),
            None => launcher,
        };
        launcher
            .run(|ctx| {
                let x = ctx.static_sym::<u64>(4);
                let mut pending = 0;
                if ctx.my_pe() == 0 {
                    ctx.put_nbi(&x, 0, &[1u64, 2, 3, 4], 1);
                    ctx.fence();
                    pending = ctx.pending_nbi_ops();
                    // Both launches hold their answer before either
                    // drains at its next barrier.
                    both_issued.wait();
                }
                ctx.barrier_all();
                pending
            })
            .values[0]
    };
    let (lazy, eager) = std::thread::scope(|s| {
        let eager = s.spawn(|| pending_after_fence(Some(FaultPlan::from([Fault::EagerNbi]))));
        (pending_after_fence(None), eager.join().unwrap())
    });
    assert_eq!((lazy, eager), (1, 0), "pending put_nbi ops after fence (default launch, eager launch)");
}

// --- admission geometry -----------------------------------------------------

/// Every collective asked for by name, so each engine runs the same
/// algorithm instead of the transport its fabric selects by default.
const NAMED: Algorithms = Algorithms {
    barrier: BarrierAlgo::RootBroadcast,
    broadcast: BroadcastAlgo::Push,
    reduce: ReduceAlgo::RecursiveDoubling,
};

/// Whether `prog` draws an `fcollect`, which has no named algorithm: it
/// takes the counter-cell pass wherever the fabric offers one, and who
/// copies what there depends on the geometry. `alltoall` has no named
/// algorithm either, but on the pass leader 0 makes every copy raw, so
/// it counts no put or get on any geometry.
fn draws_fcollect(prog: &Program) -> bool {
    prog.steps.iter().any(|s| {
        matches!(
            s,
            Step::Coll { kind: CollKind::Fcollect, .. } | Step::TeamColl { kind: TeamKind::Fcollect, .. }
        )
    })
}

/// Both wall-clock engines are one data plane under one admission gate,
/// and the gate may decide only *when* a context touches the fabric —
/// never what an operation does or counts (DESIGN.md §6). So the same
/// program on `NativeBackend` (a gate per PE and one per service
/// context), on `CoopBackend` with a worker per PE (a PE's two contexts
/// behind one gate) and on `CoopBackend` with one worker (every context
/// behind a single gate) must reach the oracle and report equal
/// API-level `Stats`.
///
/// Raw `puts`/`gets` also count the copies a collective makes on the
/// caller's behalf, and who makes them depends on the geometry: the
/// default collectives take the counter-cell pass (`ShmemCtx::select`),
/// where a leader does copies for its cluster and leader 0 for the
/// other leaders. An algorithm asked for by name runs at every
/// geometry, though, so the program is run once more with every
/// algorithm named, and there `puts`/`gets` must agree too — unless it
/// draws an `fcollect`, which has no named algorithm. A contiguous
/// `alltoall` takes the pass under the named algorithms as well, and
/// counts no copy there on any geometry; a strided one runs the flat
/// exchange everywhere.
/// `redirected`/`locality_hits` are never compared (one worker turns
/// every redirect into a direct copy).
#[test]
fn a_worker_per_pe_and_one_worker_agree_on_state_and_api_stats() {
    const SEED: u64 = 0x57414C4C45513136;
    let api_counts = |s: &Stats| [s.atomics, s.barriers, s.quiets, s.fences, s.collectives];
    let copy_counts = |s: &Stats| [s.puts, s.gets];
    for case in 0..8 {
        for npes in [2usize, 5, 8] {
            let prog = program(SEED, case, npes);
            let coop = |workers| CoopBackend { workers, ..Default::default() };
            for depth in [Some(2), None] {
                let cfg = build_cfg(&prog, depth);
                let native = stats_on(NativeBackend, &cfg, &prog, None);
                for workers in [npes, 1] {
                    let gated = stats_on(coop(workers), &cfg, &prog, None);
                    for (pe, (a, b)) in native.iter().zip(&gated).enumerate() {
                        assert_eq!(
                            api_counts(a),
                            api_counts(b),
                            "seed {SEED:#x} case {case} npes {npes} depth {depth:?} PE {pe}: \
                             native and coop({workers} workers) counted different operations"
                        );
                    }
                }
                if draws_fcollect(&prog) {
                    continue;
                }
                let cfg = cfg.with_algos(NAMED);
                let native = stats_on(NativeBackend, &cfg, &prog, None);
                for workers in [npes, 1] {
                    let gated = stats_on(coop(workers), &cfg, &prog, None);
                    for (pe, (a, b)) in native.iter().zip(&gated).enumerate() {
                        assert_eq!(
                            copy_counts(a),
                            copy_counts(b),
                            "seed {SEED:#x} case {case} npes {npes} depth {depth:?} PE {pe}: \
                             native and coop({workers} workers) made different copies under named algorithms"
                        );
                    }
                }
            }
        }
    }
}

// --- virtual-time scheduling disciplines ----------------------------------

/// The cycle-box discipline batches LPs into lockstep virtual-time
/// boxes, so its interleavings (and per-PE clocks) differ from exact
/// event-driven order — but the protocols must converge to the same
/// final state.
const CYCLE_BOX_SEED: u64 = 0x7453484d454d5042;

fn cycle_box_hint(case: u64, npes: usize, depth: Option<usize>, engine: &str) -> String {
    format!(
        "cargo run -p stress -- --seed {CYCLE_BOX_SEED:#x} --case {case} --pes {npes} \
         --depth {} --engine {engine}",
        depth.unwrap_or(0)
    )
}

#[test]
fn event_driven_and_cycle_box_converge_to_the_oracle() {
    for (case, npes, depth) in [(0u64, 6usize, None), (1, 8, Some(2)), (2, 5, None), (3, 12, None)] {
        let prog = program(CYCLE_BOX_SEED, case, npes);
        for (mode, flag) in [(TimedMode::EventDriven, ""), (TimedMode::cycle_box(), " --cycle-box")] {
            let hint = cycle_box_hint(case, npes, depth, &format!("timed{flag}"));
            assert_completed(
                run(&prog, depth, None, &Engine::Timed(mode), Duration::ZERO, &hint),
                &format!("case {case} npes {npes} mode{flag}"),
            );
        }
    }
}

/// Determinism: identical runs complete identically (both oracle-checked).
/// Tick-robustness: a much coarser box still converges — the discipline
/// changes performance, never outcomes.
#[test]
fn cycle_box_is_deterministic_and_tick_width_does_not_change_state() {
    let prog = program(CYCLE_BOX_SEED, 4, 7);
    let hint = cycle_box_hint(4, 7, None, "timed --cycle-box");
    for _ in 0..2 {
        assert_completed(run(&prog, None, None, &Engine::Timed(TimedMode::cycle_box()), Duration::ZERO, &hint), "7 PEs cycle-box");
    }
    assert_completed(
        run(&prog, None, None, &Engine::Timed(TimedMode::CycleBox { tick_ns: 50_000 }), Duration::ZERO, &hint),
        "7 PEs coarse cycle-box",
    );
}

#[test]
fn multichip_cycle_box_converges() {
    let prog = program(CYCLE_BOX_SEED, 5, 8);
    let hint = cycle_box_hint(5, 8, None, "multichip --cycle-box");
    assert_completed(
        run(&prog, None, None, &Engine::Multichip(TimedMode::cycle_box()), Duration::ZERO, &hint),
        "8 PEs multichip cycle-box",
    );
}
