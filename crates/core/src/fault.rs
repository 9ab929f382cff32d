//! The fault-injection plane: seeded, replayable liveness faults, handed
//! to one launch.
//!
//! PR 1 fixed a real dissemination-barrier deadlock: a PE blocked in a
//! plain full-queue send cannot drain its own demux queue, so a cycle of
//! blocked senders hangs on finite-buffer fabrics. The stress harness's
//! watchdog exists to catch exactly that bug class, and its detection
//! power is proven by *reintroducing* faults on demand
//! ([`Fault::BlockingProtocolSends`]) — one of the fault kinds here,
//! drawn from a seed by substrate's `KeyedRng` so any fault schedule is
//! replayable byte-identically
//! (`cargo run -p stress -- --fault-plan SEED`).
//!
//! Every fault is a *liveness* fault, never a correctness fault: an
//! injected delay, clamp, or stall may slow a run or wedge it outright,
//! but it never corrupts data. A faulted run therefore either still
//! converges to the stress oracle (the fault was tolerated) or is
//! caught by a watchdog whose diagnosis names the faulted component —
//! it must never hang the test runner.
//!
//! A [`FaultPlan`] is a value, and its lifetime is one launch:
//! `Launcher::with_faults` arms it as a [`LaunchFaults`] — the faults,
//! their one-shot budgets and the op, send, frame and completion
//! counters their triggers key off — which the launch's
//! [`Instruments`](crate::fabric::Instruments) hold behind an `Arc`, the
//! one set both fabrics keep. Every hook is a method on it and takes no
//! lock; a launch without a plan pays one `None` check. The op-progress
//! hooks (`PanicPe`, `SlowPe`) run in one place,
//! `Instruments::progress`, so every fault fires on all four engines. A server job's plan (`JobSpec::with_faults`) is armed
//! once for the job, so a `PanicPe` budget is spent once across its
//! eviction retries. Two launches in flight at once — two tests, two
//! tenants — never see each other's plan, and every stall report names
//! the plan of the launch it diagnoses.
//!
//! Two entries are not faults but equivalence reference arms:
//! [`Fault::GeneralRmaPaths`] and [`Fault::EagerNbi`] switch an
//! optimisation off, so a suite can compare the same program both ways.
//! `ShmemCtx` reads them (and [`Fault::BlockingProtocolSends`]) once,
//! when it is built.
//!
//! One global knob remains: [`set_coop_locality`]. The
//! benchmark's `engine.coop.locality_speedup_256` probe flips it for its
//! off arm and the benchmark crate is edited on its own; until then it
//! is read once per launch (`WallShared::new` snapshots it), so a flip
//! while a launch runs reaches only later launches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use substrate::rng::KeyedRng;

static COOP_LOCALITY_OFF: AtomicBool = AtomicBool::new(false);

/// Disable the wall-clock fabric's locality awareness (same-worker RMA
/// fast paths, co-resident recv hints, the counter-cell collectives)
/// for launches started from now on — native and coop launches alike,
/// since both run under the one admission gate — so every transfer
/// takes the engine-agnostic channel/protocol path. **Equivalence testing and
/// the locality ablation only**: the locality-aware and locality-blind
/// paths must produce identical memory state and identical API-level
/// `Stats`, and the locality suite proves it by running the same seeded
/// program both ways.
pub fn set_coop_locality(on: bool) {
    COOP_LOCALITY_OFF.store(!on, Ordering::Release);
}

/// Whether wall-clock launches started now get locality awareness (the
/// default).
pub fn coop_locality() -> bool {
    !COOP_LOCALITY_OFF.load(Ordering::Acquire)
}

/// One injectable liveness fault, or one equivalence reference arm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Degrade `send_draining` to a plain blocking send (the PR-1
    /// deadlock). Canary-grade: deliberately *not* drawn by
    /// [`FaultPlan::from_seed`], whose plans must stay in the
    /// tolerated class.
    BlockingProtocolSends,
    /// Take the general per-element path for every strided transfer
    /// (no unit-stride batched `iput`/`iget` runs, no contiguous-source
    /// borrows). An equivalence reference arm: the fast and general
    /// paths must produce identical memory state and identical `Stats`.
    /// Tolerated class; never drawn from a seed.
    GeneralRmaPaths,
    /// Complete every non-blocking RMA op at issue instead of deferring
    /// it to `quiet` — the same code path, draining the pending set
    /// after each issue. An equivalence reference arm: eager and lazy
    /// completion must produce identical state and identical `Stats`.
    /// Tolerated class; never drawn from a seed.
    EagerNbi,
    /// Stall every `every`-th protocol send for `micros` µs before it
    /// enters the fabric (reordering/latency pressure on the token
    /// protocols).
    DelayProtocolSends { every: u64, micros: u64 },
    /// Once the launch's op counter passes `after_ops`, clamp the
    /// *effective* UDN queue depth to `depth` packets — a mid-run
    /// buffer squeeze that forces the draining-send backpressure path.
    ClampQueueDepth { after_ops: u64, depth: usize },
    /// Stall PE `pe`'s service handler for `micros` µs on each of its
    /// next `requests` redirected-RMA requests.
    StallServiceHandler { pe: usize, requests: u64, micros: u64 },
    /// Slow PE `pe` down: stall `micros` µs after every `every`-th of
    /// the launch's completed fabric ops (an overloaded-tile model).
    SlowPe { pe: usize, every: u64, micros: u64 },
    /// Corrupt the `nth` cross-chip mPIPE frame in flight. Caught-class
    /// (like [`Fault::BlockingProtocolSends`], never drawn from a
    /// seed): the receiving mPIPE's CRC check panics naming the link.
    CorruptLinkPacket { nth: u64 },
    /// Drop the `nth` cross-chip mPIPE frame. Caught-class: the next
    /// frame's sequence check reports the gap naming the link, or — if
    /// the link goes quiet — the receiver's wedged wait is reported by
    /// the multichip drained-queue watchdog.
    DropLinkPacket { nth: u64 },
    /// Deliver the `nth` cross-chip mPIPE frame twice. Caught-class:
    /// the replay trips the sequence check, naming the link.
    DuplicateLinkPacket { nth: u64 },
    /// Stall every `every`-th non-blocking-op completion for `micros` µs
    /// as it drains (at `quiet`, barrier entry, or a same-destination
    /// flush). Tolerated-class: completions slow down but retire in
    /// issue order, so a correct program still converges to the oracle.
    DelayNbiCompletion { every: u64, micros: u64 },
    /// Panic PE `pe` mid-program, once the launch's op counter passes
    /// `after_ops` (a crashing-tenant model). Caught-class (never drawn
    /// from a seed): a single-job run aborts with the panic; under the
    /// server layer the panic is caught at the PE boundary and reported
    /// as a `Faulted` job outcome while the pool keeps serving. One-shot:
    /// the fault fires on exactly one op, so a retry of the same job
    /// runs clean.
    PanicPe { pe: usize, after_ops: u64 },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::BlockingProtocolSends => write!(f, "BlockingProtocolSends"),
            Fault::GeneralRmaPaths => write!(f, "GeneralRmaPaths"),
            Fault::EagerNbi => write!(f, "EagerNbi"),
            Fault::DelayProtocolSends { every, micros } => {
                write!(f, "DelayProtocolSends(every {every}th send +{micros}us)")
            }
            Fault::ClampQueueDepth { after_ops, depth } => {
                write!(f, "ClampQueueDepth(depth {depth} after {after_ops} ops)")
            }
            Fault::StallServiceHandler { pe, requests, micros } => {
                write!(f, "StallServiceHandler(PE {pe}, first {requests} requests +{micros}us)")
            }
            Fault::SlowPe { pe, every, micros } => {
                write!(f, "SlowPe(PE {pe}, every {every}th op +{micros}us)")
            }
            Fault::CorruptLinkPacket { nth } => {
                write!(f, "CorruptLinkPacket(frame {nth})")
            }
            Fault::DropLinkPacket { nth } => write!(f, "DropLinkPacket(frame {nth})"),
            Fault::DuplicateLinkPacket { nth } => {
                write!(f, "DuplicateLinkPacket(frame {nth})")
            }
            Fault::DelayNbiCompletion { every, micros } => {
                write!(f, "DelayNbiCompletion(every {every}th completion +{micros}us)")
            }
            Fault::PanicPe { pe, after_ops } => {
                write!(f, "PanicPe(PE {pe} after {after_ops} ops)")
            }
        }
    }
}

/// A seeded, replayable schedule of liveness faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The generating seed (0 for hand-built plans).
    pub seed: u64,
    pub faults: Vec<Fault>,
}

/// A hand-built plan: `Launcher::with_faults([Fault::EagerNbi])`.
impl<const N: usize> From<[Fault; N]> for FaultPlan {
    fn from(faults: [Fault; N]) -> Self {
        FaultPlan { seed: 0, faults: faults.into() }
    }
}

impl FaultPlan {
    /// Draw a plan from a seed. Magnitudes are kept inside the
    /// *tolerated* envelope — delays of at most a few hundred µs,
    /// clamps no tighter than one packet, handler stalls bounded in
    /// count and duration — so a seeded plan exercises backpressure and
    /// slow paths without wedging a correct protocol. The same seed and
    /// PE count always yield the same plan.
    pub fn from_seed(seed: u64, npes: usize) -> Self {
        let mut rng = KeyedRng::new(seed, 0xFAB7);
        let nfaults = 1 + rng.below(3);
        let mut faults = Vec::new();
        for _ in 0..nfaults {
            faults.push(match rng.below(4) {
                0 => Fault::DelayProtocolSends {
                    every: 1 + rng.below(4),
                    micros: 20 + rng.below(200),
                },
                1 => Fault::ClampQueueDepth {
                    after_ops: rng.below(2000),
                    depth: (1 + rng.below(2)) as usize,
                },
                2 => Fault::StallServiceHandler {
                    pe: rng.below(npes as u64) as usize,
                    requests: 1 + rng.below(8),
                    micros: 100 + rng.below(1200),
                },
                _ => Fault::SlowPe {
                    pe: rng.below(npes as u64) as usize,
                    every: 1 + rng.below(8),
                    micros: 10 + rng.below(150),
                },
            });
        }
        FaultPlan { seed, faults }
    }

    /// One-line human description, for watchdog reports and logs.
    pub fn describe(&self) -> String {
        let list: Vec<String> = self.faults.iter().map(|f| f.to_string()).collect();
        format!("fault plan seed {:#x}: [{}]", self.seed, list.join(", "))
    }
}

/// A [`FaultPlan`] armed for one launch (see the module docs): the
/// plan, its one-shot budgets, and the counters its triggers key off.
pub struct LaunchFaults {
    plan: FaultPlan,
    /// Remaining budget per fault (parallel to `plan.faults`; only
    /// `StallServiceHandler` and `PanicPe` entries consume theirs).
    budgets: Vec<AtomicU64>,
    /// State-changing ops completed (drives `ClampQueueDepth::after_ops`,
    /// `SlowPe::every` and `PanicPe::after_ops`).
    ops: AtomicU64,
    /// Protocol sends issued (drives `DelayProtocolSends::every`).
    sends: AtomicU64,
    /// Cross-chip mPIPE frames sent (drives the `nth`-frame link faults).
    link_frames: AtomicU64,
    /// Non-blocking-op completions drained (drives
    /// `DelayNbiCompletion::every`).
    nbi_completions: AtomicU64,
}

impl LaunchFaults {
    /// Arm `plan`: full budgets, every counter at zero.
    pub fn new(plan: FaultPlan) -> Self {
        let budgets = plan
            .faults
            .iter()
            .map(|f| match f {
                Fault::StallServiceHandler { requests, .. } => AtomicU64::new(*requests),
                // One-shot: a crashing tenant crashes once, so a retry
                // under the same armed plan runs clean.
                Fault::PanicPe { .. } => AtomicU64::new(1),
                _ => AtomicU64::new(0),
            })
            .collect();
        Self {
            plan,
            budgets,
            ops: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            link_frames: AtomicU64::new(0),
            nbi_completions: AtomicU64::new(0),
        }
    }

    /// [`FaultPlan::describe`] of the armed plan, for stall reports.
    pub fn describe(&self) -> String {
        self.plan.describe()
    }

    /// Whether the plan holds `fault` (the parameterless entries).
    pub(crate) fn has(&self, fault: &Fault) -> bool {
        self.plan.faults.contains(fault)
    }

    /// Spend one unit of fault `i`'s budget; `false` once it is gone.
    fn spend(&self, i: usize) -> bool {
        self.budgets[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(1))
            .is_ok()
    }

    /// Engines call this on every completed state-changing op so mid-run
    /// triggers have a clock to key off.
    #[inline]
    pub(crate) fn note_op(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Delay (µs) to inject before the current protocol send, if any.
    pub(crate) fn protocol_send_delay_us(&self) -> Option<u64> {
        let n = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        self.plan.faults.iter().find_map(|f| match f {
            Fault::DelayProtocolSends { every, micros } if n.is_multiple_of(*every) => Some(*micros),
            _ => None,
        })
    }

    /// Effective queue-depth clamp, once its op threshold has passed.
    pub(crate) fn clamp_queue_depth(&self) -> Option<usize> {
        let ops = self.ops.load(Ordering::Relaxed);
        self.plan
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::ClampQueueDepth { after_ops, depth } if ops >= *after_ops => Some(*depth),
                _ => None,
            })
            .min()
    }

    /// Stall (µs) the service handler on PE `pe` should inject for the
    /// request it just received, consuming one unit of that fault's budget.
    pub(crate) fn service_stall_us(&self, pe: usize) -> Option<u64> {
        self.plan.faults.iter().enumerate().find_map(|(i, f)| match f {
            Fault::StallServiceHandler { pe: fpe, micros, .. } if *fpe == pe && self.spend(i) => {
                Some(*micros)
            }
            _ => None,
        })
    }

    /// Fault to apply to the cross-chip mPIPE frame being sent right now,
    /// if the plan targets this frame. The multichip engine calls this
    /// once per cross-chip transfer.
    pub(crate) fn link_fault(&self) -> Option<mpipe::FrameFault> {
        let n = self.link_frames.fetch_add(1, Ordering::Relaxed) + 1;
        self.plan.faults.iter().find_map(|f| match f {
            Fault::CorruptLinkPacket { nth } if *nth == n => Some(mpipe::FrameFault::Corrupt),
            Fault::DropLinkPacket { nth } if *nth == n => Some(mpipe::FrameFault::Drop),
            Fault::DuplicateLinkPacket { nth } if *nth == n => Some(mpipe::FrameFault::Duplicate),
            _ => None,
        })
    }

    /// Delay (µs) to inject before the non-blocking-op completion being
    /// drained right now, if the plan stalls this one.
    pub(crate) fn nbi_completion_delay_us(&self) -> Option<u64> {
        let n = self.nbi_completions.fetch_add(1, Ordering::Relaxed) + 1;
        self.plan.faults.iter().find_map(|f| match f {
            Fault::DelayNbiCompletion { every, micros } if n.is_multiple_of(*every) => Some(*micros),
            _ => None,
        })
    }

    /// Whether PE `pe` must panic right now: a `PanicPe` fault targets
    /// it, the op counter has passed its threshold, and its one-shot
    /// budget is unspent (spent here, so exactly one op fires).
    pub(crate) fn panic_pe_now(&self, pe: usize) -> bool {
        let ops = self.ops.load(Ordering::Relaxed);
        self.plan.faults.iter().enumerate().any(|(i, f)| {
            matches!(f, Fault::PanicPe { pe: fpe, after_ops } if *fpe == pe && ops >= *after_ops)
                && self.spend(i)
        })
    }

    /// Delay (µs) to inject into PE `pe`'s op stream right now, if it is a
    /// `SlowPe` target on an `every`-th op.
    pub(crate) fn slow_pe_delay_us(&self, pe: usize) -> Option<u64> {
        let ops = self.ops.load(Ordering::Relaxed);
        self.plan.faults.iter().find_map(|f| match f {
            Fault::SlowPe { pe: fpe, every, micros } if *fpe == pe && ops.is_multiple_of(*every) => {
                Some(*micros)
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay_byte_identically() {
        let a = FaultPlan::from_seed(0xDEAD_BEEF, 8);
        let b = FaultPlan::from_seed(0xDEAD_BEEF, 8);
        assert_eq!(a, b);
        assert!(!a.faults.is_empty());
        // Seeded plans stay in the tolerated class.
        assert!(!a.faults.contains(&Fault::BlockingProtocolSends));
        let c = FaultPlan::from_seed(0xDEAD_BEF0, 8);
        assert_ne!(a, c, "distinct seeds should draw distinct plans");
    }

    /// The fault-matrix seeds of `tools/check_hermetic.sh` draw the same
    /// plans they always have: a printed `--fault-plan` hint replays.
    #[test]
    fn fault_matrix_seeds_describe_as_pinned() {
        let pinned = [
            (0x11, "fault plan seed 0x11: [DelayProtocolSends(every 3th send +105us)]"),
            (
                0x21,
                "fault plan seed 0x21: [DelayProtocolSends(every 3th send +61us), \
                 StallServiceHandler(PE 0, first 3 requests +1043us)]",
            ),
            (
                0x31,
                "fault plan seed 0x31: [DelayProtocolSends(every 3th send +160us), \
                 ClampQueueDepth(depth 1 after 119 ops)]",
            ),
        ];
        for (seed, want) in pinned {
            assert_eq!(FaultPlan::from_seed(seed, 4).describe(), want);
        }
    }

    #[test]
    fn seeded_plan_magnitudes_stay_in_the_tolerated_envelope() {
        for seed in 0..64u64 {
            for f in FaultPlan::from_seed(seed, 4).faults {
                match f {
                    Fault::BlockingProtocolSends => panic!("canary-only fault drawn from seed"),
                    Fault::GeneralRmaPaths | Fault::EagerNbi => {
                        panic!("equivalence arm drawn from seed")
                    }
                    Fault::DelayProtocolSends { every, micros } => {
                        assert!(every >= 1 && micros < 1000);
                    }
                    Fault::ClampQueueDepth { depth, .. } => assert!(depth >= 1),
                    Fault::StallServiceHandler { pe, requests, micros } => {
                        assert!(pe < 4 && requests <= 16 && micros < 10_000);
                    }
                    Fault::SlowPe { pe, every, micros } => {
                        assert!(pe < 4 && every >= 1 && micros < 1000);
                    }
                    Fault::CorruptLinkPacket { .. }
                    | Fault::DropLinkPacket { .. }
                    | Fault::DuplicateLinkPacket { .. } => {
                        panic!("canary-only link fault drawn from seed")
                    }
                    // Hand-built (canary-matrix) only today, but safe to
                    // draw if from_seed ever grows it — just bound it.
                    Fault::DelayNbiCompletion { every, micros } => {
                        assert!(every >= 1 && micros < 1000);
                    }
                    Fault::PanicPe { .. } => {
                        panic!("canary-only crash fault drawn from seed")
                    }
                }
            }
        }
    }

    #[test]
    fn describe_names_every_fault() {
        let plan = FaultPlan {
            seed: 0x42,
            faults: vec![
                Fault::StallServiceHandler { pe: 3, requests: 2, micros: 500 },
                Fault::SlowPe { pe: 1, every: 4, micros: 50 },
                Fault::CorruptLinkPacket { nth: 7 },
                Fault::DropLinkPacket { nth: 2 },
                Fault::DuplicateLinkPacket { nth: 9 },
                Fault::DelayNbiCompletion { every: 3, micros: 120 },
                Fault::PanicPe { pe: 2, after_ops: 40 },
                Fault::GeneralRmaPaths,
                Fault::EagerNbi,
            ],
        };
        let d = plan.describe();
        assert!(d.contains("0x42"));
        assert!(d.contains("StallServiceHandler(PE 3"));
        assert!(d.contains("SlowPe(PE 1"));
        assert!(d.contains("CorruptLinkPacket(frame 7)"));
        assert!(d.contains("DropLinkPacket(frame 2)"));
        assert!(d.contains("DuplicateLinkPacket(frame 9)"));
        assert!(d.contains("DelayNbiCompletion(every 3th completion +120us)"));
        assert!(d.contains("PanicPe(PE 2 after 40 ops)"));
        assert!(d.ends_with("GeneralRmaPaths, EagerNbi]"));
    }

    /// Each armed plan keeps its own counters and budgets: spending one
    /// launch's `PanicPe` leaves another launch of the same plan armed.
    #[test]
    fn armed_plans_share_nothing() {
        let plan = FaultPlan::from([
            Fault::PanicPe { pe: 1, after_ops: 2 },
            Fault::StallServiceHandler { pe: 0, requests: 1, micros: 5 },
        ]);
        let (a, b) = (LaunchFaults::new(plan.clone()), LaunchFaults::new(plan));
        a.note_op();
        a.note_op();
        assert!(!b.panic_pe_now(1), "b's op clock has not moved");
        assert!(!a.panic_pe_now(0), "PE 0 is not the target");
        assert!(a.panic_pe_now(1));
        assert!(!a.panic_pe_now(1), "one-shot");
        assert_eq!(a.service_stall_us(0), Some(5));
        assert_eq!(a.service_stall_us(0), None, "budget spent");
        assert_eq!(b.service_stall_us(0), Some(5));
        b.note_op();
        b.note_op();
        assert!(b.panic_pe_now(1), "b's budget is its own");
    }
}
