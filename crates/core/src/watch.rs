//! Supervision of one launch, in either clock domain — what
//! [`Launcher::run_watched`](crate::Launcher::run_watched) runs.
//!
//! A wall-clock launch runs detached on a lane of its `Resident`, and
//! [`supervise`] watches it from the calling thread: it hands the launch
//! a [`JobWatch`], the launch body publishes its shared state there
//! before any PE starts, and the supervisor polls it for forward
//! progress. When
//! *useful* work stops moving for the stall window it renders what every
//! PE (and every service context) was doing — which protocol wait it is
//! parked in, how full its demux queues are, what its stash holds, and
//! the last trace event it recorded — and only then aborts the launch.
//!
//! Useful work and spinning are split: a probe's `ops` counts
//! state-changing operations only, while failed `cswap` retries and
//! polling waits count as `spins`. That split is what distinguishes a
//! **deadlock** (both flat) from a **livelock** (spins climbing, ops
//! flat) — the latter looked like progress to the PR-2 watchdog.
//!
//! A virtual-time launch has no wall-clock stall, so its backend
//! attaches a [`TimedWatch`] to the desim scheduler's own deadlock
//! detector (`desim::coop::CoopObserver`): it fires the instant the
//! virtual event queue drains while LPs are parked. Both write their
//! report through one renderer over the launch's [`Instruments`]; a
//! drained virtual-time queue proves no LP can run again, so its
//! classification is always deadlock.
//!
//! All reads are racy snapshots by design: the wall-clock supervisor
//! reports only after a stall window in which nothing moved, at which
//! point the states are stable; the timed observer runs with the
//! scheduler lock held.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use substrate::channel::{self, RecvTimeoutError};
use substrate::sync::Mutex;
use udn::NUM_QUEUES;

use crate::engine::timed::TimedShared;
use crate::engine::wall::{Resident, WallShared};
use crate::fabric::{BlockedOn, Instruments};

/// How often the supervisor samples a wall-clock launch's progress.
const POLL: Duration = Duration::from_millis(20);
/// How long an aborted launch gets to unwind before the supervisor
/// returns without it: a context wedged past every abort checkpoint (in
/// a loop that never enters the runtime) leaks until process exit, and
/// with it the lane the launch runs on.
const ABORT_GRACE: Duration = Duration::from_secs(1);

/// Where a supervised wall-clock launch publishes its shared state:
/// handed to the backend with the launch, and on to its launch body.
pub type JobWatch = OnceLock<Arc<WallShared>>;

/// Run the wall-clock launch `launch` detached on a lane of `resident`,
/// handing it the watch it publishes its state in, and supervise it from
/// this thread: its value once it returns, its
/// panic re-raised here, or — when it made no useful progress for
/// `stall` scaled by its oversubscription — `Err` with the stall report,
/// after the launch was aborted and given [`ABORT_GRACE`] to unwind.
///
/// Detached on purpose: a wedged launch's PEs may never be joined. The
/// launch's panic is caught on its lane, so it unwinds the PE lanes it
/// crossed and not the one the launch runs on, which stays reusable.
pub(crate) fn supervise<T: Send + 'static>(
    resident: &Resident,
    stall: Duration,
    launch: impl FnOnce(&JobWatch) -> T + Send + 'static,
) -> Result<T, String> {
    let watch = Arc::new(JobWatch::new());
    let (tx, rx) = channel::bounded::<std::thread::Result<T>>(1);
    let w = watch.clone();
    resident.lanes.spawn(
        move || catch_unwind(AssertUnwindSafe(|| launch(&w))),
        move |r| {
            let _ = tx.try_send(r.and_then(|caught| caught));
        },
    );

    let mut last_ops = 0u64;
    // Counter snapshot from the last moment useful work moved — the
    // baseline the stall window's deltas (and the livelock-vs-deadlock
    // call) are measured against.
    let mut baseline = Vec::new();
    let mut last_change = Instant::now();
    loop {
        match rx.recv_timeout(POLL) {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(payload)) => resume_unwind(payload),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => panic!("watched launch ended without reporting"),
        }
        // Before the launch body publishes its state no PE has started,
        // so nothing can stall.
        let Some(shared) = watch.get() else {
            continue;
        };
        let ops = shared.instruments.probes.iter().map(|p| p.ops()).sum();
        let window = scaled_stall(stall, shared.oversubscription);
        if ops != last_ops || baseline.is_empty() {
            last_ops = ops;
            baseline = counters(shared);
            last_change = Instant::now();
        } else if last_change.elapsed() >= window {
            // Diagnose BEFORE aborting: abort unparks the blocked PEs
            // and would destroy the evidence.
            let report = wall_report(shared, window, &baseline);
            shared.abort();
            let _ = rx.recv_timeout(ABORT_GRACE);
            return Err(report);
        }
    }
}

/// Wall-clock stall window scaled by the engine's oversubscription
/// factor (runnable contexts per worker thread). A descheduled coop PE
/// only moves the progress counter when its admission turn comes, so an
/// N-PEs-on-M-workers job legitimately needs up to `2N/M` times longer
/// between counter movements than a fully parallel native run — the
/// unscaled window fired spuriously on exactly those runs. Capped at
/// 64× so a true deadlock on a 1024-PE job still reports in minutes.
fn scaled_stall(stall: Duration, oversubscription: usize) -> Duration {
    stall * oversubscription.clamp(1, 64) as u32
}

/// Classify a stall from per-main-PE deltas measured since the last
/// useful-op movement: `(useful_ops, spin_retries, descheduled)` per
/// PE. A descheduled-but-runnable coop PE shows zero deltas while it
/// waits for a worker slot; counting it as frozen used to turn every
/// oversubscribed stall into a "deadlock" verdict (and starve the
/// livelock detector of its "everyone is spinning" signal), so only a
/// PE that is *scheduled* yet moved nothing counts as frozen.
fn classify_stall<I: IntoIterator<Item = (u64, u64, bool)>>(deltas: I) -> &'static str {
    let mut spun = 0u64;
    let mut frozen = false;
    for (du, ds, descheduled) in deltas {
        spun += ds;
        if du == 0 && ds == 0 && !descheduled {
            frozen = true;
        }
    }
    if spun > 0 && !frozen {
        "livelock (every stalled PE is spinning without completing useful work)"
    } else if spun > 0 {
        "deadlock (at least one PE frozen; others spin without useful work)"
    } else {
        "deadlock (no useful work and no spin retries anywhere)"
    }
}

/// One probe's counter snapshot (useful ops vs spin retries).
#[derive(Clone, Copy)]
struct PeCounters {
    ops: u64,
    spins: u64,
}

/// Every context's counters: `0..npes` the PE main contexts,
/// `npes..2*npes` their service contexts.
fn counters(shared: &WallShared) -> Vec<PeCounters> {
    shared.instruments.probes.iter().map(|p| PeCounters { ops: p.ops(), spins: p.spins() }).collect()
}

/// The wall-clock stall report: the stall's classification against
/// `baseline` (captured when useful work last moved), and each
/// context's counter deltas since then.
fn wall_report(shared: &WallShared, window: Duration, baseline: &[PeCounters]) -> String {
    let now = counters(shared);
    let (ops, spins) = now.iter().fold((0, 0), |(o, s), c| (o + c.ops, s + c.spins));
    let deltas: Vec<(u64, u64)> = now
        .iter()
        .zip(baseline)
        .map(|(n, b)| (n.ops.saturating_sub(b.ops), n.spins.saturating_sub(b.spins)))
        .collect();
    let descheduled = |ctx: usize| matches!(shared.instruments.probes[ctx].blocked(), BlockedOn::Descheduled);
    let class = classify_stall((0..shared.npes).map(|pe| (deltas[pe].0, deltas[pe].1, descheduled(pe))));
    let header = format!(
        "watchdog: no useful fabric progress for {:.1}s (useful ops {ops}, spin retries {spins})",
        window.as_secs_f64()
    );
    let occupancy = |pe: usize| std::array::from_fn(|q| shared.endpoints[pe].queue_len(q));
    stall_report(&header, class, &shared.instruments, occupancy, |ctx| {
        // A descheduled context is runnable but waiting for a worker
        // slot (coop M:N engine) — spinning without useful work is
        // expected there, not a livelock sign.
        let (du, ds) = deltas[ctx];
        (format!(" (+{du} useful / +{ds} spins in window)"), du == 0 && ds > 0 && !descheduled(ctx))
    })
}

/// The one stall report, on either fabric: `header`, the stall's
/// `class`, then two lines per PE — its main context's blocked state,
/// useful/spin counters, the caller's `note` on it, demux-queue
/// `occupancy`, stash contents and last trace event; its service
/// context's state, counters and note — then the livelock suspects and
/// the launch's fault plan if it has one. `note(ctx)` returns the text a
/// context's line carries past its counters and whether it is a livelock
/// suspect (spun without completing useful work in the window).
fn stall_report(
    header: &str,
    class: &str,
    inst: &Instruments,
    occupancy: impl Fn(usize) -> [usize; NUM_QUEUES],
    note: impl Fn(usize) -> (String, bool),
) -> String {
    use std::fmt::Write as _;
    let npes = inst.npes;
    let last = match &inst.trace {
        Some(sink) => sink.last_per_pe(npes),
        None => vec![None; npes], // cold: once per stall report
    };
    let mut out = String::new();
    let mut suspects: Vec<String> = Vec::new();
    let _ = writeln!(out, "{header}\nclassification: {class}\nper-PE stall diagnosis ({npes} PEs):");
    for (pe, last_ev) in last.iter().enumerate() {
        for (ctx, label) in [(pe, ""), (npes + pe, " svc")] {
            let probe = &inst.probes[ctx];
            let (text, suspect) = note(ctx);
            let _ = write!(
                out,
                "  PE {pe}{label}: {} | useful={} spins={}{text}",
                probe.blocked(),
                probe.ops(),
                probe.spins()
            );
            if suspect {
                suspects.push(format!("PE {pe}{label} ({})", probe.blocked()));
            }
            if ctx == pe {
                let _ = write!(out, " | queue occupancy {:?}", occupancy(pe));
                let stash = probe.stash();
                if stash.is_empty() {
                    let _ = write!(out, " | stash empty");
                } else {
                    let _ = write!(out, " | stash ");
                    for (i, (tag, src)) in stash.iter().enumerate() {
                        let sep = if i == 0 { "" } else { ", " };
                        let _ = write!(out, "{sep}(tag {tag:#x} from PE {src})");
                    }
                    let hidden = probe.stash_total().saturating_sub(stash.len());
                    if hidden > 0 {
                        let _ = write!(out, " (+{hidden} more)");
                    }
                }
                let _ = match last_ev {
                    Some(e) => write!(out, " | last event {} @{:.0}ns", e.kind.name(), e.start.ns_f64()),
                    None => write!(out, " | no events recorded"),
                };
            }
            let _ = writeln!(out);
        }
    }
    if !suspects.is_empty() {
        let _ = writeln!(
            out,
            "livelock suspects (spinning, no useful work in window): {}",
            suspects.join(", ")
        );
    }
    if let Some(faults) = &inst.faults {
        let _ = writeln!(out, "active {}", faults.describe());
    }
    out
}

/// The payload a virtual-time launch unwinds with when its scheduler
/// proved it wedged: the stall report, which
/// [`Launcher::run_watched`](crate::Launcher::run_watched) returns as
/// `Err`.
pub(crate) struct Stalled(pub(crate) String);

/// The deadlock observer every virtual-time launch (timed and
/// multichip) runs under.
///
/// Under virtual time a wedged job does not stall a wall clock — the
/// desim scheduler itself detects the moment no LP can ever run again —
/// so this implements [`desim::coop::CoopObserver`]: when the
/// scheduler's deadlock detector fires, it renders the same stall report
/// as the wall-clock supervisor, each context noted with its parked
/// channel and virtual clock (on a multi-chip job followed by a map of
/// the PEs to their chips), and keeps it for the launch to unwind with
/// as [`Stalled`] instead of a raw panic.
pub(crate) struct TimedWatch {
    shared: Arc<TimedShared>,
    report: Mutex<Option<String>>,
}

impl TimedWatch {
    pub(crate) fn new(shared: Arc<TimedShared>) -> Arc<Self> {
        Arc::new(Self { shared, report: Mutex::new(None) })
    }

    /// The stall the observer diagnosed, if it fired.
    pub(crate) fn stalled(&self) -> Option<Stalled> {
        self.report.lock().take().map(Stalled)
    }
}

impl desim::coop::CoopObserver for TimedWatch {
    fn on_deadlock(&self, lps: &[desim::coop::LpStall]) -> Option<String> {
        let shared = &self.shared;
        let mut report = stall_report(
            "timed watchdog: virtual event queue drained with unfinished LPs parked",
            "deadlock (no LP can run again)",
            &shared.instruments,
            |pe| shared.queue_occupancy(pe),
            |lp| {
                let text = match lps.get(lp) {
                    Some(s) if s.done => format!(" | finished @{:.0}ns", s.clock.ns_f64()),
                    Some(s) => match s.blocked_on {
                        Some(ch) => format!(" | parked on ch{ch} @{:.0}ns", s.clock.ns_f64()),
                        None => format!(" | runnable @{:.0}ns", s.clock.ns_f64()),
                    },
                    None => String::new(),
                };
                (text, false)
            },
        );
        if shared.chips > 1 {
            let map: Vec<String> = (0..shared.npes)
                .map(|pe| format!("PE {pe} (chip {})", pe / shared.pes_per_chip))
                .collect();
            report.push_str(&format!("chips: {}\n", map.join(", ")));
        }
        *self.report.lock() = Some(report.clone());
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::EngineBackend;

    #[test]
    fn descheduled_pes_do_not_count_as_frozen() {
        // Pre-fix, a parked-but-runnable coop PE (zero deltas, queued
        // for a worker slot) forced the frozen path and misreported
        // oversubscribed livelocks as deadlocks.
        let oversubscribed = [(0, 5, false), (0, 0, true), (0, 0, true)];
        assert!(classify_stall(oversubscribed).starts_with("livelock"));
        let really_frozen = [(0, 5, false), (0, 0, false)];
        assert!(classify_stall(really_frozen).starts_with("deadlock (at least one PE frozen"));
        let silent = [(0, 0, true), (0, 0, true)];
        assert!(classify_stall(silent).starts_with("deadlock (no useful work"));
    }

    #[test]
    fn stall_window_scales_with_oversubscription_and_caps() {
        let base = Duration::from_secs(2);
        assert_eq!(scaled_stall(base, 0), base);
        assert_eq!(scaled_stall(base, 1), base);
        assert_eq!(scaled_stall(base, 8), base * 8);
        assert_eq!(scaled_stall(base, 128), base * 64);
    }

    /// The window a supervised coop launch is judged by: 2 · 8 contexts
    /// on 2 workers make it eight stall periods long.
    #[test]
    fn a_coop_launch_is_supervised_over_its_scaled_window() {
        let cfg = RuntimeConfig::new(8).with_partition_bytes(1 << 20);
        let watch = JobWatch::new();
        let backend = CoopBackend { workers: 2, ..Default::default() };
        let out = backend.execute(&cfg, None, Some(&watch), |ctx| {
            ctx.barrier_all();
            ctx.my_pe()
        });
        assert_eq!(out.values, (0..8).collect::<Vec<_>>());
        let shared = watch.get().expect("the launch body attached its state");
        assert_eq!(shared.oversubscription, 8);
        assert_eq!(scaled_stall(Duration::from_secs(1), shared.oversubscription), Duration::from_secs(8));
        assert!(shared.instruments.probes.iter().map(|p| p.ops()).sum::<u64>() > 0);
    }

    /// Every native context has a gate of its own, so a native launch
    /// is judged over one stall period.
    #[test]
    fn a_native_launch_is_supervised_over_its_own_window() {
        let cfg = RuntimeConfig::new(4).with_partition_bytes(1 << 20);
        let watch = JobWatch::new();
        let out = NativeBackend.execute(&cfg, None, Some(&watch), |ctx| ctx.my_pe());
        assert_eq!(out.values, (0..4).collect::<Vec<_>>());
        let shared = watch.get().expect("the launch body attached its state");
        assert_eq!(shared.oversubscription, 1);
    }
}
