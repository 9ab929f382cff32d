//! Job-level watchdog hooks for both clock domains.
//!
//! A [`JobWatch`] is handed to a wall-clock launch
//! ([`WatchPlane::Wall`](crate::WatchPlane::Wall)) and is populated
//! with the launch's shared state before any PE starts. An
//! external watchdog thread can then poll [`JobWatch::counters`] for
//! forward progress and, when *useful* work stops moving, call
//! [`JobWatch::diagnose_delta`] to capture what every PE (and every
//! service thread) was doing — which protocol wait it is parked in, how
//! full its demux queues are, what its stash holds, and the last trace
//! event it recorded — before calling [`JobWatch::abort`] to tear the
//! job down.
//!
//! Useful work and spinning are split: a probe's `ops` counts
//! state-changing operations only, while failed `cswap` retries and
//! polling waits count as `spins`. That split is what distinguishes a
//! **deadlock** (both flat) from a **livelock** (spins climbing, ops
//! flat) — the latter looked like progress to the PR-2 watchdog.
//!
//! The virtual-time engines get [`TimedWatch`] instead: there is no wall-clock
//! stall under virtual time, so the watchdog is the desim scheduler's
//! own deadlock detector (`desim::coop::CoopObserver`) — it fires the
//! instant the virtual event queue drains while LPs are parked, and
//! renders the same per-PE diagnosis format.
//!
//! All reads are racy snapshots by design: the native watchdog fires
//! only after a multi-second stall window, at which point the states
//! are stable; the timed observer runs with the scheduler lock held.

use std::sync::Arc;
use std::time::Duration;

use substrate::sync::Mutex;
use udn::NUM_QUEUES;

use crate::engine::backend::CoopCore;
use crate::engine::wall::WallShared;
use crate::fabric::{BlockedOn, PeProbe};
use crate::trace::TraceEvent;

/// Wall-clock stall window scaled by the engine's oversubscription
/// factor (runnable contexts per worker thread). A descheduled coop PE
/// only moves the progress counter when its admission turn comes, so an
/// N-PEs-on-M-workers job legitimately needs up to `2N/M` times longer
/// between counter movements than a fully parallel native run — the
/// unscaled window fired spuriously on exactly those runs. Capped at
/// 64× so a true deadlock on a 1024-PE job still reports in minutes.
pub fn scaled_stall(stall: Duration, oversubscription: usize) -> Duration {
    stall * oversubscription.clamp(1, 64) as u32
}

/// Classify a stall from per-main-PE deltas measured since the last
/// useful-op movement: `(useful_ops, spin_retries, descheduled)` per
/// PE. A descheduled-but-runnable coop PE shows zero deltas while it
/// waits for a worker slot; counting it as frozen used to turn every
/// oversubscribed stall into a "deadlock" verdict (and starve the
/// livelock detector of its "everyone is spinning" signal), so only a
/// PE that is *scheduled* yet moved nothing counts as frozen.
pub fn classify_stall<I: IntoIterator<Item = (u64, u64, bool)>>(deltas: I) -> &'static str {
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeCounters {
    pub ops: u64,
    pub spins: u64,
}

fn snapshot(probe: &PeProbe) -> PeCounters {
    PeCounters {
        ops: probe.ops(),
        spins: probe.spins(),
    }
}

struct Watched {
    shared: Arc<WallShared>,
}

impl Watched {
    /// Every probe: indices `0..npes` the PE main contexts,
    /// `npes..2*npes` their service contexts.
    fn all_probes(&self) -> impl Iterator<Item = &Arc<PeProbe>> {
        self.shared.probes.iter().chain(&self.shared.service_probes)
    }

    fn last_events(&self) -> Vec<Option<TraceEvent>> {
        match &self.shared.trace {
            Some(sink) => sink.last_per_pe(self.shared.npes),
            None => vec![None; self.shared.npes],
        }
    }
}

/// Observation handle over one wall-clock launch, native or coop (see
/// module docs).
///
/// Create it empty, hand it to the launcher, and poll from another
/// thread; before attachment every accessor reports "no progress yet".
#[derive(Default)]
pub struct JobWatch {
    inner: Mutex<Option<Watched>>,
}

impl JobWatch {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn attach(&self, shared: Arc<WallShared>) {
        *self.inner.lock() = Some(Watched { shared });
    }

    /// Whether a launch has attached itself yet.
    pub fn attached(&self) -> bool {
        self.inner.lock().is_some()
    }

    /// Runnable contexts per worker thread of the attached launch: 1
    /// for the native engine (and before attachment), `ceil(2N / M)`
    /// for a cooperative M:N launch. Watchdog stall windows should be
    /// scaled by this factor.
    pub fn oversubscription(&self) -> usize {
        self.inner
            .lock()
            .as_ref()
            .map_or(1, |w| w.shared.oversubscription)
    }

    /// Sum of completed *useful* fabric operations across all PEs and
    /// their service threads — the watchdog's forward-progress signal.
    /// Monotone while the job runs; spins do not move it.
    pub fn total_ops(&self) -> u64 {
        self.inner
            .lock()
            .as_ref()
            .map_or(0, |w| w.all_probes().map(|p| p.ops()).sum())
    }

    /// Sum of spin retries across all PEs and service threads.
    pub fn total_spins(&self) -> u64 {
        self.inner
            .lock()
            .as_ref()
            .map_or(0, |w| w.all_probes().map(|p| p.spins()).sum())
    }

    /// Per-probe counter snapshot: indices `0..npes` are the PE main
    /// threads, `npes..2*npes` their service threads. Empty before
    /// attachment. Feed a saved snapshot back to
    /// [`diagnose_delta`](Self::diagnose_delta) to name the probes that
    /// spun without useful work across the window.
    pub fn counters(&self) -> Vec<PeCounters> {
        match self.inner.lock().as_ref() {
            Some(w) => w.all_probes().map(|p| snapshot(p)).collect(),
            None => Vec::new(),
        }
    }

    /// Per-main-PE blocked states (indices `0..npes`). Empty before
    /// attachment. The coop engine publishes [`BlockedOn::Descheduled`]
    /// while a context is queued for worker admission — runnable, not
    /// wedged — which stall classifiers must not count as frozen.
    pub fn blocked_states(&self) -> Vec<BlockedOn> {
        match self.inner.lock().as_ref() {
            Some(w) => w.shared.probes.iter().map(|p| p.blocked()).collect(),
            None => Vec::new(),
        }
    }

    /// Flag the job aborted: every PE parked in a protocol wait panics
    /// at its next abort check instead of hanging forever.
    pub fn abort(&self) {
        if let Some(w) = self.inner.lock().as_ref() {
            w.shared.abort();
        }
    }

    /// Last recorded trace event per PE (`None` where a PE recorded
    /// nothing), for the stall dump.
    pub fn last_events(&self) -> Vec<Option<TraceEvent>> {
        self.inner.lock().as_ref().map_or_else(Vec::new, Watched::last_events)
    }

    /// Render a per-PE stall diagnosis: blocked state, useful/spin
    /// counters, demux queue occupancy, stash contents, service-thread
    /// state, last trace event, and the launch's fault plan if it has
    /// one.
    pub fn diagnose(&self) -> String {
        self.diagnose_delta(None)
    }

    /// [`diagnose`](Self::diagnose), additionally classifying against a
    /// counter `baseline` captured at the start of the stall window:
    /// each line shows the in-window deltas, and probes that spun
    /// without completing any useful work are called out as livelock
    /// suspects.
    pub fn diagnose_delta(&self, baseline: Option<&[PeCounters]>) -> String {
        use std::fmt::Write as _;
        let guard = self.inner.lock();
        let Some(w) = guard.as_ref() else {
            return "watchdog: job not attached yet".to_string();
        };
        let last = w.last_events();
        let npes = w.shared.npes;
        let mut out = String::new();
        let mut suspects: Vec<String> = Vec::new();
        let _ = writeln!(out, "per-PE stall diagnosis ({npes} PEs):");
        for (pe, last_ev) in last.iter().enumerate() {
            let probe = &w.shared.probes[pe];
            let now = snapshot(probe);
            let occ: Vec<usize> = (0..NUM_QUEUES)
                .map(|q| w.shared.endpoints[pe].queue_len(q))
                .collect();
            let _ = write!(
                out,
                "  PE {pe}: {} | useful={} spins={}",
                probe.blocked(),
                now.ops,
                now.spins
            );
            if let Some(base) = baseline.and_then(|b| b.get(pe)) {
                let du = now.ops.saturating_sub(base.ops);
                let ds = now.spins.saturating_sub(base.spins);
                let _ = write!(out, " (+{du} useful / +{ds} spins in window)");
                // A descheduled context is runnable but waiting for a
                // worker slot (coop M:N engine) — spinning without
                // useful work is expected there, not a livelock sign.
                if du == 0 && ds > 0 && !matches!(probe.blocked(), BlockedOn::Descheduled) {
                    suspects.push(format!("PE {pe} ({})", probe.blocked()));
                }
            }
            let _ = write!(out, " | queue occupancy {occ:?}");
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
            match last_ev {
                Some(e) => {
                    let _ = writeln!(
                        out,
                        " | last event {} @{:.0}ns",
                        e.kind.name(),
                        e.start.ns_f64()
                    );
                }
                None => {
                    let _ = writeln!(out, " | no events recorded");
                }
            }
            // The PE's interrupt-service thread, attributed separately.
            let svc = &w.shared.service_probes[pe];
            let snow = snapshot(svc);
            let _ = write!(
                out,
                "  PE {pe} svc: {} | useful={} spins={}",
                svc.blocked(),
                snow.ops,
                snow.spins
            );
            if let Some(base) = baseline.and_then(|b| b.get(npes + pe)) {
                let du = snow.ops.saturating_sub(base.ops);
                let ds = snow.spins.saturating_sub(base.spins);
                let _ = write!(out, " (+{du} useful / +{ds} spins in window)");
                if du == 0 && ds > 0 && !matches!(svc.blocked(), BlockedOn::Descheduled) {
                    suspects.push(format!("PE {pe} svc ({})", svc.blocked()));
                }
            }
            let _ = writeln!(out);
        }
        if !suspects.is_empty() {
            let _ = writeln!(
                out,
                "livelock suspects (spinning, no useful work in window): {}",
                suspects.join(", ")
            );
        }
        if let Some(faults) = &w.shared.faults {
            let _ = writeln!(out, "active {}", faults.describe());
        }
        out
    }
}

/// Deadlock watchdog for both cooperative engines (timed and
/// multichip).
///
/// Hand one to the launcher as
/// [`WatchPlane::Virtual`](crate::WatchPlane::Virtual). Under virtual time a
/// wedged job does not stall a wall clock — the desim scheduler itself
/// detects the moment no LP can ever run again — so this watch
/// implements [`desim::coop::CoopObserver`]: when the scheduler's
/// deadlock detector fires, it renders the same per-PE diagnosis as the
/// native [`JobWatch`] (blocked state, useful/spin counters, modeled
/// queue occupancy, virtual clocks; on a multi-chip job each PE is also
/// labeled with its chip) and stores it for the launch wrapper to
/// return as an error instead of a raw panic.
#[derive(Default)]
pub struct TimedWatch {
    core: Mutex<Option<Arc<CoopCore>>>,
    report: Mutex<Option<String>>,
}

impl TimedWatch {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn attach(&self, core: Arc<CoopCore>) {
        *self.core.lock() = Some(core);
    }

    /// The stored deadlock diagnosis, once the observer has fired.
    pub fn stall_report(&self) -> Option<String> {
        self.report.lock().clone()
    }

    /// The attached job's live trace sink, when it runs traced.
    pub fn trace_sink(&self) -> Option<Arc<crate::trace::TraceSink>> {
        self.core.lock().as_ref()?.trace.clone()
    }

    fn render(&self, lps: &[desim::coop::LpStall]) -> String {
        use std::fmt::Write as _;
        let guard = self.core.lock();
        let Some(core) = guard.as_ref() else {
            return "timed watchdog: job not attached yet".to_string();
        };
        let npes = core.npes;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timed watchdog: virtual event queue drained with unfinished LPs parked"
        );
        let _ = writeln!(out, "per-PE stall diagnosis ({npes} PEs):");
        for pe in 0..npes {
            let chip = match core.chip_of(pe) {
                Some(c) => format!(" (chip {c})"),
                None => String::new(),
            };
            for (lp, label) in [(pe, ""), (npes + pe, " svc")] {
                let probe = &core.probes[lp];
                let now = snapshot(probe);
                let occ = core.queue_occupancy(lp);
                let _ = write!(
                    out,
                    "  PE {pe}{chip}{label}: {} | useful={} spins={} | queue occupancy {:?}",
                    probe.blocked(),
                    now.ops,
                    now.spins,
                    occ.to_vec()
                );
                match lps.get(lp) {
                    Some(s) if s.done => {
                        let _ = writeln!(out, " | finished @{:.0}ns", s.clock.ns_f64());
                    }
                    Some(s) => {
                        let parked = match s.blocked_on {
                            Some(ch) => format!("parked on ch{ch}"),
                            None => "runnable".to_string(),
                        };
                        let _ = writeln!(out, " | {} @{:.0}ns", parked, s.clock.ns_f64());
                    }
                    None => {
                        let _ = writeln!(out);
                    }
                }
            }
        }
        if let Some(faults) = &core.faults {
            let _ = writeln!(out, "active {}", faults.describe());
        }
        out
    }
}

impl desim::coop::CoopObserver for TimedWatch {
    fn on_deadlock(&self, lps: &[desim::coop::LpStall]) -> Option<String> {
        let report = self.render(lps);
        *self.report.lock() = Some(report.clone());
        Some(report)
    }
}
