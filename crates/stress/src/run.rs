//! Program execution, oracle verification, and supervised launches.
//!
//! [`run_on_ctx`] executes a [`Program`] on one PE and asserts its view
//! of the final state against [`crate::oracle::oracle`]. [`run`] makes
//! one supervised launch of a program on any [`Engine`]
//! ([`Launcher::run_watched`]), and [`watch_closure`] one of a
//! hand-built closure: a launch that wedges comes back as
//! [`Outcome::Stalled`] with the engine's per-PE stall report (blocked
//! state, queue occupancy, stash, last trace event, the launch's fault
//! plan) and a replay hint appended.
//!
//! Every runner takes the fault plan of the one launch it makes
//! (`None` for a clean run), so runs with different plans may share a
//! process and run side by side.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use tshmem::prelude::*;
use tshmem::{EngineBackend, FaultPlan, TimedMode};

use crate::oracle::{oracle, Model};
use crate::program::{
    chain_payload, coll_base, coll_len, collect_nelems, AuxOp, CollKind, NbiOp, Program, RmaOp,
    Step, TeamKind, CHAIN_W, COLL_L, NCTRS, NSIG, SLOTS_PER_PE, STAT_SLOTS_PER_PE,
};

/// Result of a supervised run. Verification failures (oracle
/// mismatches, internal asserts) propagate as panics so `pt::check` can
/// shrink them; only detected stalls are reified.
#[derive(Debug)]
pub enum Outcome {
    Completed,
    /// The job stopped making progress; the payload is the full per-PE
    /// stall diagnosis plus the replay hint.
    Stalled(String),
}

fn algos_of(prog: &Program) -> Algorithms {
    Algorithms {
        barrier: match prog.algos.0 {
            0 => BarrierAlgo::Ring,
            1 => BarrierAlgo::RootBroadcast,
            2 => BarrierAlgo::TmcSpin,
            _ => BarrierAlgo::Dissemination,
        },
        broadcast: match prog.algos.1 {
            0 => BroadcastAlgo::Pull,
            1 => BroadcastAlgo::Push,
            _ => BroadcastAlgo::Binomial,
        },
        reduce: match prog.algos.2 {
            0 => ReduceAlgo::Naive,
            _ => ReduceAlgo::RecursiveDoubling,
        },
    }
}

/// Runtime config for a program at the given UDN queue depth
/// (`None` = unbounded queues). Scales the device/partition geometry
/// with the PE count (`RuntimeConfig::for_scale`), so the same
/// generator vocabulary runs at 2 PEs and at 1024; the temp region is
/// clamped to 8 B per PE, the floor below which the chunked reduce
/// cannot carve per-sender slots.
pub fn build_cfg(prog: &Program, depth: Option<usize>) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::for_scale(prog.npes)
        .with_private_bytes(1 << 16)
        .with_temp_bytes(prog.temp_bytes.max(8 * prog.npes))
        .with_algos(algos_of(prog));
    if prog.npes <= 64 {
        // The historical stress geometry; past 64 PEs `for_scale`'s
        // 256 KB partitions keep 256-PE jobs inside 64 MB.
        cfg = cfg.with_partition_bytes(1 << 20);
    } else {
        // The harness's symmetric footprint scales with npes (the
        // data/chain/static arrays) and with the program's collective
        // step count (`coll_len`), so a fixed 256 KB partition
        // overflows at 1024 PEs. Grow to fit: 16 B per footprint word
        // doubles the raw array bytes, covering allocator headers, the
        // temp region, and the private block.
        let words = prog.npes * (SLOTS_PER_PE + CHAIN_W + STAT_SLOTS_PER_PE) + coll_len(prog);
        cfg = cfg.with_partition_bytes((256 * 1024).max(16 * words));
    }
    if let Some(d) = depth {
        cfg = cfg.with_bounded_udn(d);
    }
    cfg
}

/// Execute `prog` on this PE and verify its final view of every shared
/// array against the sequential oracle.
///
/// Computes a private oracle model per call. Fine for the small-PE
/// equivalence suites; large-`npes` launches should share one model
/// across all PEs via [`run_on_ctx_shared`] — the model holds
/// O(npes²) expectation arrays, so per-PE computation is quadratic
/// memory *times* npes (at 1024 PEs: ~350 MB of zeroed arrays per PE,
/// ~350 GB across a launch, which is what it cost before the launch
/// wrappers switched to the shared variant).
pub fn run_on_ctx(prog: &Program, ctx: &ShmemCtx) {
    run_on_ctx_shared(prog, ctx, &OnceLock::new())
}

/// [`run_on_ctx`] with the oracle model computed once per *launch*:
/// the first PE to reach verification initializes the shared cell and
/// every other PE checks against the same model.
pub fn run_on_ctx_shared(prog: &Program, ctx: &ShmemCtx, shared_model: &OnceLock<Model>) {
    let me = ctx.my_pe();
    let npes = ctx.n_pes();
    assert_eq!(npes, prog.npes);
    let hs = me * SLOTS_PER_PE;
    let ss = me * STAT_SLOTS_PER_PE;

    let data = ctx.shmalloc::<u64>(npes * SLOTS_PER_PE);
    let coll = ctx.shmalloc::<u64>(coll_len(prog));
    let ctrs = ctx.shmalloc::<u64>(NCTRS);
    // lockctr[0] = protected counter, lockctr[1] = mutual-exclusion
    // marker (must read 0 inside the critical section).
    let lockctr = ctx.shmalloc::<u64>(2);
    let lock = ctx.shmalloc::<i64>(1);
    // Token cells for the liveness mixes: `sig` is the signal-ring
    // flag (every copy written), `ring` the single contended cswap cell
    // (PE 0's copy only).
    let sig = ctx.shmalloc::<u64>(1);
    let ring = ctx.shmalloc::<u64>(1);
    // put_signal chains: `sigs` holds the indexed signal words,
    // `chaind` the delivered payloads (stripe `p` written by PE `p`).
    let sigs = ctx.shmalloc::<u64>(NSIG);
    let chaind = ctx.shmalloc::<u64>(npes * CHAIN_W);
    let statv = ctx.static_sym::<u64>(npes * STAT_SLOTS_PER_PE);
    ctx.local_fill(&data, 0u64);
    ctx.local_fill(&coll, 0u64);
    ctx.local_fill(&ctrs, 0u64);
    ctx.local_fill(&lockctr, 0u64);
    ctx.local_fill(&lock, 0i64);
    ctx.local_fill(&sig, 0u64);
    ctx.local_fill(&ring, 0u64);
    ctx.local_fill(&sigs, 0u64);
    ctx.local_fill(&chaind, 0u64);
    ctx.local_fill(&statv, 0u64);
    ctx.barrier_all();

    let mut gets: Vec<u64> = Vec::new();
    let mut sig_base = 0u64;
    let mut ring_base = 0u64;
    let mut chain_bases = [0u64; NSIG];
    for step in &prog.steps {
        match step {
            Step::Rma { ops, barrier } => {
                for op in &ops[me] {
                    match op {
                        RmaOp::PutHeapElem { to, slot, val } => ctx.p(&data, hs + slot, *val, *to),
                        RmaOp::PutHeapBulk { to, slot, vals } => ctx.put(&data, hs + slot, vals, *to),
                        RmaOp::IputHeap { to, slot, tst, vals } => {
                            ctx.iput(&data, hs + slot, *tst, vals, 1, vals.len(), *to)
                        }
                        RmaOp::GetHeapElem { from, slot } => gets.push(ctx.g(&data, hs + slot, *from)),
                        RmaOp::GetHeapBulk { from, slot, n } => {
                            let mut buf = vec![0u64; *n];
                            ctx.get(&mut buf, &data, hs + slot, *from);
                            gets.extend_from_slice(&buf);
                        }
                        RmaOp::PutStatic { to, slot, vals } => ctx.put(&statv, ss + slot, vals, *to),
                        RmaOp::IputStatic { to, slot, tst, vals } => {
                            ctx.iput(&statv, ss + slot, *tst, vals, 1, vals.len(), *to)
                        }
                        RmaOp::GetStatic { from, slot, n } => {
                            let mut buf = vec![0u64; *n];
                            ctx.get(&mut buf, &statv, ss + slot, *from);
                            gets.extend_from_slice(&buf);
                        }
                        RmaOp::IgetStatic { from, slot, sst, n } => {
                            let mut buf = vec![0u64; *n];
                            ctx.iget(&mut buf, 1, &statv, ss + slot, *sst, *n, *from);
                            gets.extend_from_slice(&buf);
                        }
                        RmaOp::PutSymDynToStatic { to, slot, dslot, n } => {
                            ctx.put_sym(&statv, ss + slot, &data, hs + dslot, *n, *to)
                        }
                        RmaOp::GetSymStaticToDyn { from, slot, dslot, n } => {
                            ctx.get_sym(&data, hs + dslot, &statv, ss + slot, *n, *from)
                        }
                        RmaOp::CtrAdd { ctr, amount } => ctx.add(&ctrs, *ctr, *amount, 0),
                        RmaOp::PtrPut { to, slot, val } => {
                            let p = ctx
                                .ptr(&data, *to)
                                .expect("heap symmetric objects are always directly addressable");
                            unsafe { p.add(hs + slot).write_volatile(*val) }
                        }
                        RmaOp::PtrGet { from, slot } => {
                            let p = ctx
                                .ptr(&data, *from)
                                .expect("heap symmetric objects are always directly addressable");
                            gets.push(unsafe { p.add(hs + slot).read_volatile() })
                        }
                    }
                }
                ctx.quiet();
                let world = ctx.world();
                match barrier {
                    0 => ctx.barrier_all(),
                    1 => ctx.barrier_ring_explicit(world),
                    2 => ctx.barrier_root_broadcast_explicit(world),
                    _ => ctx.barrier_dissemination_explicit(world),
                }
            }
            Step::Coll { kind, set, idx, vals } => {
                let set = ActiveSet::new(set.0, set.1, set.2);
                let Some(rank) = set.rank_of(me) else { continue };
                let base = coll_base(prog, *idx);
                let src = coll.slice(base, COLL_L);
                let dest = coll.slice(base + COLL_L, npes * COLL_L);
                ctx.local_write(&src, 0, &vals[rank]);
                match kind {
                    CollKind::Bcast { root_rank } => {
                        ctx.broadcast(&dest, &src, COLL_L, *root_rank, set)
                    }
                    CollKind::Reduce { op } => {
                        let rop = match op {
                            0 => ReduceOp::Sum,
                            1 => ReduceOp::Min,
                            2 => ReduceOp::Max,
                            3 => ReduceOp::Or,
                            _ => ReduceOp::Xor,
                        };
                        ctx.reduce(rop, &dest, &src, COLL_L, set);
                    }
                    CollKind::Fcollect => ctx.fcollect(&dest, &src, COLL_L, set),
                    CollKind::Collect => {
                        let mine = collect_nelems(rank, *idx);
                        let expected: usize =
                            (0..set.size).map(|r| collect_nelems(r, *idx)).sum();
                        let total = ctx.collect(&dest, &src, mine, set);
                        assert_eq!(total, expected, "collect total mismatch");
                    }
                }
            }
            Step::Lock { rounds } => {
                for _ in 0..*rounds {
                    ctx.set_lock(&lock);
                    let marker = ctx.g(&lockctr, 1, 0);
                    assert_eq!(marker, 0, "mutual exclusion violated: PE {} saw marker {marker}", me);
                    ctx.p(&lockctr, 1, me as u64 + 1, 0);
                    let c = ctx.g(&lockctr, 0, 0);
                    ctx.p(&lockctr, 0, c + 1, 0);
                    ctx.p(&lockctr, 1, 0u64, 0);
                    ctx.clear_lock(&lock);
                }
            }
            Step::SignalRing { rounds } => {
                // Pass a token once around the ring per round: PE 0
                // seeds it, everyone else forwards on arrival, PE 0
                // absorbs the wrap-around. Each PE leaves the step with
                // its own copy already at the final value.
                let next = (me + 1) % npes;
                for r in 0..*rounds {
                    let target = sig_base + r as u64 + 1;
                    if me == 0 {
                        ctx.p(&sig, 0, target, next);
                        ctx.wait_until(&sig, 0, Cmp::Ge, target);
                    } else {
                        ctx.wait_until(&sig, 0, Cmp::Ge, target);
                        ctx.p(&sig, 0, target, next);
                    }
                }
                sig_base += *rounds as u64;
            }
            Step::CswapRing { rounds } => {
                // Rank-ordered claims: PE `me`'s round-`r` claim only
                // succeeds once the cell reaches its token, so every
                // other PE's attempt fails (and counts a spin retry)
                // until then. `arena_cswap` charges cycles even on
                // failure, which keeps the timed engine's conservative
                // scheduler advancing through the contention.
                for r in 0..*rounds {
                    let t = ring_base + r as u64 * npes as u64 + me as u64;
                    while ctx.cswap(&ring, 0, t, t + 1, 0) != t {}
                }
                ring_base += *rounds as u64 * npes as u64;
            }
            Step::HeapChurn { slots, refresh, round1, round2, barrier } => {
                // Collective scratch array, zeroed on every copy before
                // traffic starts (remote puts must not race the fill).
                let slots = *slots;
                let total = npes * slots;
                let base = me * slots;
                let mut aux = ctx.shmalloc::<u64>(total);
                ctx.local_fill(&aux, 0u64);
                ctx.barrier_all();
                for (round, ops) in [round1, round2].into_iter().enumerate() {
                    for op in &ops[me] {
                        match op {
                            AuxOp::Put { to, slot, val } => ctx.p(&aux, base + slot, *val, *to),
                            AuxOp::PutBulk { to, slot, vals } => {
                                ctx.put(&aux, base + slot, vals, *to)
                            }
                            AuxOp::Get { from, slot } => {
                                gets.push(ctx.g(&aux, base + slot, *from))
                            }
                        }
                    }
                    ctx.quiet();
                    let world = ctx.world();
                    match barrier {
                        0 => ctx.barrier_all(),
                        1 => ctx.barrier_ring_explicit(world),
                        2 => ctx.barrier_root_broadcast_explicit(world),
                        _ => ctx.barrier_dissemination_explicit(world),
                    }
                    if round == 0 {
                        if *refresh {
                            // Free-then-reallocate: the replacement block
                            // may land at a different offset and starts
                            // with stale contents, so every PE re-zeroes
                            // its copy before traffic resumes.
                            ctx.shfree(aux);
                            aux = ctx.shmalloc::<u64>(total);
                            ctx.local_fill(&aux, 0u64);
                        } else {
                            // Grow one slot per PE. `shrealloc` preserves
                            // only the old prefix — the grown tail holds
                            // whatever the heap block held before, so it
                            // is zeroed explicitly. The tail is never
                            // written remotely, which keeps the local
                            // fill race-free.
                            aux = ctx.shrealloc(aux, total + npes);
                            ctx.local_fill(&aux.slice(total, npes), 0u64);
                        }
                        ctx.barrier_all();
                    }
                }
                // Dump the full local copy into the recorded stream —
                // this is how the refreshed contents and the grown tail
                // get oracle-checked — then complete the churn cycle.
                gets.extend(ctx.local_read(&aux, 0, aux.len()));
                ctx.shfree(aux);
            }
            Step::NbiTrain { ops, barrier } => {
                // get_nbi buffers are only read after the closing quiet:
                // per the OpenSHMEM contract they are undefined before
                // completion, and deferring the reads keeps the eager
                // and lazy completion modes on the same recorded stream.
                let mut bufs: Vec<Vec<u64>> = Vec::new();
                for op in &ops[me] {
                    match op {
                        NbiOp::PutNbiHeap { to, slot, vals } => {
                            ctx.put_nbi(&data, hs + slot, vals, *to)
                        }
                        NbiOp::PutNbiStatic { to, slot, vals } => {
                            ctx.put_nbi(&statv, ss + slot, vals, *to)
                        }
                        NbiOp::GetNbiHeap { from, slot, n } => {
                            let mut buf = vec![0u64; *n];
                            ctx.get_nbi(&mut buf, &data, hs + slot, *from);
                            bufs.push(buf);
                        }
                        NbiOp::GetNbiStatic { from, slot, n } => {
                            let mut buf = vec![0u64; *n];
                            ctx.get_nbi(&mut buf, &statv, ss + slot, *from);
                            bufs.push(buf);
                        }
                        NbiOp::Fence => ctx.fence(),
                        NbiOp::Quiet => ctx.quiet(),
                    }
                }
                ctx.quiet();
                for buf in &bufs {
                    gets.extend_from_slice(buf);
                }
                let world = ctx.world();
                match barrier {
                    0 => ctx.barrier_all(),
                    1 => ctx.barrier_ring_explicit(world),
                    2 => ctx.barrier_root_broadcast_explicit(world),
                    _ => ctx.barrier_dissemination_explicit(world),
                }
            }
            Step::SignalChain { rounds, idx, add } => {
                // Token ring over put_signal: the payload lands in our
                // stripe of `chaind` on the next PE, then `sigs[idx]`
                // there reaches the round target (one Set, or one Add
                // per received hop — same final value). Receivers read
                // *before* forwarding, so a payload slot is never
                // overwritten by the next round until its reader is
                // done (the wrap-around cannot pass a PE that has not
                // forwarded yet).
                let next = (me + 1) % npes;
                let prev = (me + npes - 1) % npes;
                let base = chain_bases[*idx];
                for r in 0..*rounds {
                    let target = base + r as u64 + 1;
                    let payload = chain_payload(base, r, me);
                    let send = |ctx: &ShmemCtx| {
                        let (val, op) =
                            if *add { (1, SignalOp::Add) } else { (target, SignalOp::Set) };
                        ctx.put_signal(&chaind, me * CHAIN_W, &payload, &sigs, *idx, val, op, next);
                    };
                    if me == 0 {
                        send(ctx);
                        ctx.wait_until(&sigs, *idx, Cmp::Ge, target);
                        gets.extend(ctx.local_read(&chaind, prev * CHAIN_W, CHAIN_W));
                    } else {
                        ctx.wait_until(&sigs, *idx, Cmp::Ge, target);
                        gets.extend(ctx.local_read(&chaind, prev * CHAIN_W, CHAIN_W));
                        send(ctx);
                    }
                }
                chain_bases[*idx] += *rounds as u64;
            }
            Step::TeamColl { kind, split, idx, vals } => {
                // Non-members get SHMEM_TEAM_INVALID (None) and skip —
                // the team collectives barrier over the member set only.
                let Some(team) = ctx.team_world().split_strided(split.0, split.1, split.2)
                else {
                    continue;
                };
                let rank = team.my_pe();
                let base = coll_base(prog, *idx);
                let src = coll.slice(base, COLL_L);
                let dest = coll.slice(base + COLL_L, npes * COLL_L);
                ctx.local_write(&src, 0, &vals[rank]);
                match kind {
                    TeamKind::Bcast { root_rank } => {
                        team.broadcast(ctx, &dest, &src, COLL_L, *root_rank)
                    }
                    TeamKind::Reduce { op } => {
                        let rop = match op {
                            0 => ReduceOp::Sum,
                            1 => ReduceOp::Min,
                            2 => ReduceOp::Max,
                            3 => ReduceOp::Or,
                            _ => ReduceOp::Xor,
                        };
                        team.reduce(ctx, rop, &dest, &src, COLL_L);
                    }
                    TeamKind::Fcollect => team.fcollect(ctx, &dest, &src, COLL_L),
                    TeamKind::Collect => {
                        let mine = collect_nelems(rank, *idx);
                        let expected: usize =
                            (0..team.n_pes()).map(|r| collect_nelems(r, *idx)).sum();
                        let total = team.collect(ctx, &dest, &src, mine);
                        assert_eq!(total, expected, "team collect total mismatch");
                    }
                    TeamKind::Alltoall { nelems } => team.alltoall(ctx, &dest, &src, *nelems),
                }
            }
        }
    }

    ctx.quiet();
    ctx.barrier_all();

    // Verify this PE's entire view against the oracle. `get_or_init`
    // briefly blocks the other workers' running PEs while the first
    // arrival computes the model; that pause is seconds at worst and
    // the scaled watchdog window dwarfs it.
    let model = shared_model.get_or_init(|| oracle(prog));
    let got_heap = ctx.local_read(&data, 0, data.len());
    assert_eq!(got_heap, model.heap[me], "PE {me}: heap copy diverged from oracle");
    let got_stat = ctx.local_read(&statv, 0, statv.len());
    assert_eq!(got_stat, model.stat[me], "PE {me}: static segment diverged from oracle");
    let got_coll = ctx.local_read(&coll, 0, coll.len());
    assert_eq!(got_coll, model.coll[me], "PE {me}: collective scratch diverged from oracle");
    assert_eq!(gets, model.gets[me], "PE {me}: recorded get results diverged from oracle");
    assert_eq!(
        ctx.local_read(&sig, 0, 1)[0],
        model.sig,
        "PE {me}: signal-ring cell diverged from oracle"
    );
    assert_eq!(
        ctx.local_read(&sigs, 0, NSIG),
        model.sigs,
        "PE {me}: indexed signal words diverged from oracle"
    );
    assert_eq!(
        ctx.local_read(&chaind, 0, chaind.len()),
        model.chaind[me],
        "PE {me}: put_signal payload array diverged from oracle"
    );
    if me == 0 {
        let got_ctrs = ctx.local_read(&ctrs, 0, NCTRS);
        assert_eq!(got_ctrs, model.ctrs, "atomic counters diverged from oracle");
        assert_eq!(ctx.local_read(&lockctr, 0, 1)[0], model.lock_ctr, "lock-protected counter diverged");
        assert_eq!(ctx.local_read(&lockctr, 1, 1)[0], 0, "lock marker left set");
        assert_eq!(ctx.local_read(&ring, 0, 1)[0], model.ring, "cswap-ring cell diverged from oracle");
    }
    ctx.barrier_all();
}

/// The engine a stress launch runs on — the replay CLI's `--engine`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Native,
    /// The coop M:N engine on this many workers (`0` = sized from the
    /// host; see [`resolve_coop_workers`]).
    Coop { workers: usize },
    /// The timed engine under this scheduling discipline.
    Timed(TimedMode),
    /// Two simulated chips joined by an mPIPE link, under this
    /// scheduling discipline.
    Multichip(TimedMode),
}

/// Run `prog` supervised on `engine` under fault plan `faults`.
///
/// On the wall-clock engines `stall` is the window with zero *useful*
/// fabric progress (spin retries do not count) after which the job is
/// declared wedged, scaled by the launch's oversubscription; the
/// virtual-time engines report the instant their event queue drains
/// and ignore it. `replay_hint` is appended to the stall report so the
/// failure names its own reproducer.
///
/// On [`Engine::Multichip`] half the PEs run on each chip, so
/// `prog.npes` must be even, and a drawn `TmcSpin` barrier is remapped
/// to `Dissemination` (with a note on stderr): the TMC spin barrier is
/// a single-chip hardware primitive and the multichip backend rejects
/// it.
pub fn run(
    prog: &Program,
    depth: Option<usize>,
    faults: Option<&FaultPlan>,
    engine: &Engine,
    stall: Duration,
    replay_hint: &str,
) -> Outcome {
    let mut cfg = build_cfg(prog, depth);
    if let Engine::Multichip(_) = engine {
        assert!(
            prog.npes.is_multiple_of(2),
            "multichip stress runs split PEs across 2 chips; need an even PE count (got {})",
            prog.npes
        );
        // MultiChipBackend interprets cfg.npes as PEs *per chip*.
        cfg.npes = prog.npes / 2;
        if cfg.algos.barrier == BarrierAlgo::TmcSpin {
            eprintln!(
                "note: program drew the TmcSpin barrier, which cannot span chips; \
                 running with Dissemination instead"
            );
            cfg.algos.barrier = BarrierAlgo::Dissemination;
        }
    }
    let prog = Arc::new(prog.clone());
    let cell = OnceLock::new();
    let trailer = format!("replay: {replay_hint}\n");
    launch(&cfg, engine, faults, stall, trailer, move |ctx| run_on_ctx_shared(&prog, ctx, &cell))
}

/// Run an arbitrary per-PE closure supervised on `engine`, as [`run`]
/// runs a program — for hand-built liveness canaries that are not
/// expressible as a [`Program`]. `cfg` goes to the backend as given:
/// on [`Engine::Multichip`] its `npes` is per chip.
pub fn watch_closure<F>(
    cfg: &RuntimeConfig,
    engine: &Engine,
    faults: Option<&FaultPlan>,
    stall: Duration,
    label: &str,
    f: F,
) -> Outcome
where
    F: Fn(&ShmemCtx) + Send + Sync + 'static,
{
    launch(cfg, engine, faults, stall, format!("scenario: {label}\n"), f)
}

/// The one supervised launch behind [`run`] and [`watch_closure`].
fn launch<F>(cfg: &RuntimeConfig, engine: &Engine, faults: Option<&FaultPlan>, stall: Duration, trailer: String, f: F) -> Outcome
where
    F: Fn(&ShmemCtx) + Send + Sync + 'static,
{
    fn on<B, F>(cfg: &RuntimeConfig, backend: B, faults: Option<&FaultPlan>, stall: Duration, f: F) -> Result<(), String>
    where
        B: EngineBackend + Send + 'static,
        F: Fn(&ShmemCtx) + Send + Sync + 'static,
    {
        let launcher = Launcher::new(cfg, backend);
        let launcher = match faults {
            Some(plan) => launcher.with_faults(plan.clone()),
            None => launcher,
        };
        launcher.run_watched(stall, f).map(|_| ())
    }
    let result = match *engine {
        Engine::Native => on(cfg, NativeBackend, faults, stall, f),
        Engine::Coop { workers } => on(cfg, CoopBackend { workers, ..Default::default() }, faults, stall, f),
        Engine::Timed(mode) => on(&cfg.with_timed_mode(mode), TimedBackend, faults, stall, f),
        Engine::Multichip(mode) => on(&cfg.with_timed_mode(mode), MultiChipBackend { chips: 2 }, faults, stall, f),
    };
    match result {
        Ok(()) => Outcome::Completed,
        Err(report) => Outcome::Stalled(format!("{report}{trailer}")),
    }
}

/// Resolve a `--workers` request to the concrete coop pool size, with
/// the same rule the backend applies for `0` (auto): host parallelism,
/// at least 2, at most one worker per PE. Both the CLI and the `dump`
/// example bake this resolved M into replay hints, so a seed replay is
/// byte-faithful on a host with a different core count.
pub fn resolve_coop_workers(requested: usize, pes: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    // Auto case: one rule, owned by the backend (via the core shim), so
    // replay hints and benchmark rows can never drift from what a
    // launch actually runs on.
    tshmem::resolve_coop_workers(0, pes.max(1))
}
