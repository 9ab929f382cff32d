//! Virtual-time cooperative scheduler.
//!
//! Each simulated processing element (LP — *logical process*) runs as a
//! stack of its own, with its own virtual clock, on the thread that
//! started the run; **exactly one LP executes at any instant** and the
//! scheduler always hands control to the LP with the smallest
//! *effective clock*:
//!
//! * a runnable LP's effective clock is its own clock;
//! * an LP blocked on `recv` becomes runnable when its mailbox is
//!   non-empty, with effective clock `max(own clock, earliest arrival)`;
//! * finished LPs never run again.
//!
//! Because the minimum-clock LP runs first and message latencies are
//! non-negative, no future send can ever arrive before the effective
//! clock of the LP being resumed — the classic conservative-simulation
//! argument — so blocking protocol code (token barriers, collectives,
//! request/reply) executes under simulated time with *sequential,
//! deterministic* semantics while being written in ordinary blocking
//! style.
//!
//! # Scheduling internals
//!
//! Handoffs are O(log n), not O(n): runnable LPs are indexed by a lazy
//! min-heap of `(key, id)` entries where `key` is derived from the
//! effective clock by the active [`SchedMode`]. Entries are *not*
//! removed when an LP's effective clock changes — a popped entry is
//! validated by recomputing the key and silently discarded when stale
//! (same trick as a lazy-deletion Dijkstra heap). Mailboxes are binary
//! heaps ordered by `(arrival, seq)`, so `recv` pops the earliest
//! message in O(log m) and the effective-clock probe is an O(1) peek.
//!
//! The run is one domain of [`substrate::baton`], the handoff core the
//! coop engine's admission gate runs on too, with this scheduler's state
//! as its run queue: a push keys an LP by its effective clock, a pop
//! discards stale entries. So a handoff is the core's — pick `next`
//! under the scheduler lock, drop it, grant `next`, park on our own flag
//! — on the domain's carrier ([`substrate::stack::Carrier`]): the LPs
//! are stacks carried by the thread that called [`run_mode`], so the
//! grant puts `next` on the carrier's ready
//! ring and the park is one user-space switch to it — no OS thread is
//! spawned, woken or parked. An empty queue is a deadlock: the run is
//! poisoned (panic or deadlock) under the lock, and then the core wakes
//! every LP to see it. No LP may switch while it unwinds (the carrier
//! aborts if one tries), so a panic reaches its LP's `catch_unwind`
//! before any other LP runs.
//!
//! # Scheduling modes
//!
//! [`SchedMode::EventDriven`] (the default) is the pure discrete-event
//! order described above. [`SchedMode::CycleBox`] partitions virtual
//! time into fixed-width tick boxes: within a box, runnable LPs execute
//! in id order, each running until its effective clock leaves the box.
//! A spinning LP therefore keeps the CPU (and the scheduler's cache
//! lines) until the box drains, trading exact event interleaving for far
//! fewer handoffs. Cross-LP message *order within one box* may differ
//! from event-driven order — the same reordering a real mesh exhibits —
//! so protocol outcomes converge while per-LP clocks may differ by
//! bounded amounts.
//!
//! # Example
//!
//! ```
//! use desim::{coop, SimTime};
//!
//! // Two PEs play ping-pong with a 21 ns one-way wire latency.
//! let out = coop::run(2, 1, |h| {
//!     let wire = SimTime::from_ns(21);
//!     if h.id() == 0 {
//!         h.send(1, 0, 42u64, wire);
//!         let _ = h.recv(0);
//!         h.now()
//!     } else {
//!         let v = h.recv(0);
//!         h.send(0, 0, v + 1, wire);
//!         h.now()
//!     }
//! });
//! // PE0 observes the round trip: 42 ns.
//! assert_eq!(out.values[0], SimTime::from_ns(42));
//! ```

use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use substrate::baton::{Baton, Held, RunQueue, Yield};

use crate::time::SimTime;

/// Scheduling discipline for a cooperative run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedMode {
    /// Pure discrete-event order: the LP with the minimum effective
    /// clock runs next, ties broken toward the smallest id.
    #[default]
    EventDriven,
    /// Lockstep tick execution: virtual time is cut into boxes of
    /// `tick` width; within a box, runnable LPs run in id order, each
    /// until its effective clock leaves the box. Fewer handoffs, same
    /// protocol outcomes, per-LP clocks may differ from event-driven
    /// by bounded amounts.
    CycleBox { tick: SimTime },
}

impl SchedMode {
    /// Scheduling key for an effective clock value. The run queue
    /// orders by `(key, id)`, so event-driven keys are exact clocks and
    /// cycle-box keys are box indices.
    fn key(&self, eff: u64) -> u64 {
        match self {
            SchedMode::EventDriven => eff,
            SchedMode::CycleBox { tick } => eff / tick.ps().max(1),
        }
    }
}

/// Per-LP status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Runnable (or currently running).
    Ready,
    /// Blocked in `recv` on the given channel.
    BlockedRecv(usize),
    /// Function returned.
    Done,
}

/// Mailbox entry; the heap Ord is reversed on `(arrival, seq)` so the
/// earliest message (FIFO among same-instant arrivals) pops first. The
/// payload never participates in the comparison.
struct MbMsg<M> {
    arrival: u64,
    seq: u64,
    msg: M,
}

impl<M> PartialEq for MbMsg<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.arrival, self.seq) == (other.arrival, other.seq)
    }
}
impl<M> Eq for MbMsg<M> {}
impl<M> PartialOrd for MbMsg<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for MbMsg<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-(arrival, seq).
        (other.arrival, other.seq).cmp(&(self.arrival, self.seq))
    }
}

struct Mailbox<M> {
    msgs: BinaryHeap<MbMsg<M>>,
}

impl<M> Mailbox<M> {
    fn new() -> Self {
        Self {
            msgs: BinaryHeap::new(),
        }
    }

    fn push(&mut self, arrival: u64, seq: u64, msg: M) {
        self.msgs.push(MbMsg { arrival, seq, msg });
    }

    /// O(1): the heap root is the earliest (arrival, seq).
    fn min_arrival(&self) -> Option<u64> {
        self.msgs.peek().map(|m| m.arrival)
    }

    /// O(log m): pop the minimum-(arrival, seq) message.
    fn pop_min(&mut self) -> Option<(u64, M)> {
        self.msgs.pop().map(|m| (m.arrival, m.msg))
    }

    fn len(&self) -> usize {
        self.msgs.len()
    }
}

struct LpState<M> {
    clock: u64,
    status: Status,
    boxes: Vec<Mailbox<M>>,
}

struct SchedState<M> {
    lps: Vec<LpState<M>>,
    /// Lazy scheduling index: `(key, id)` entries, min-popped. Entries
    /// go stale when an LP's effective clock changes; `pop_next`
    /// validates by recomputation and discards mismatches.
    runq: BinaryHeap<Reverse<(u64, usize)>>,
    mode: SchedMode,
    finished: usize,
    seq: u64,
    /// Set when an LP panicked or a deadlock was detected.
    poisoned: Option<String>,
}

/// Snapshot of one LP's scheduling state at deadlock-detection time,
/// handed to a [`CoopObserver`] so an engine-level watchdog can render
/// a diagnosis in its own vocabulary.
#[derive(Clone, Debug)]
pub struct LpStall {
    /// LP id.
    pub id: usize,
    /// Whether the LP's function has already returned.
    pub done: bool,
    /// The channel the LP is parked in `recv` on, if any.
    pub blocked_on: Option<usize>,
    /// The LP's virtual clock at detection time.
    pub clock: SimTime,
    /// Per-channel counts of queued (possibly future-arrival) messages.
    pub queued: Vec<usize>,
}

/// Deadlock observer: invoked exactly once when the scheduler detects
/// that no LP can ever run again (the virtual event queue drained while
/// unfinished LPs are parked). Any returned text is appended to the
/// scheduler's poison/panic message.
///
/// Called with the scheduler lock held — implementations must not call
/// back into the scheduler (no `CoopHandle` methods) and should only
/// format a report from the snapshot plus their own state.
pub trait CoopObserver: Send + Sync {
    fn on_deadlock(&self, lps: &[LpStall]) -> Option<String>;
}

impl<M> SchedState<M> {
    fn effective(&self, id: usize) -> Option<u64> {
        let lp = &self.lps[id];
        match lp.status {
            Status::Ready => Some(lp.clock),
            Status::BlockedRecv(ch) => lp.boxes[ch]
                .min_arrival()
                .map(|a| a.max(lp.clock)),
            Status::Done => None,
        }
    }

    /// Per-LP stall snapshot for the deadlock observer.
    fn stalls(&self) -> Vec<LpStall> {
        self.lps
            .iter()
            .enumerate()
            .map(|(id, lp)| LpStall {
                id,
                done: matches!(lp.status, Status::Done),
                blocked_on: match lp.status {
                    Status::BlockedRecv(ch) => Some(ch),
                    _ => None,
                },
                clock: SimTime::from_ps(lp.clock),
                queued: lp.boxes.iter().map(|b| b.len()).collect(),
            })
            .collect()
    }
}

/// The run queue of the run's one domain.
impl<M> RunQueue for SchedState<M> {
    /// Publish `id` under its current effective clock. No-op for LPs
    /// that cannot run (done, or blocked with an empty mailbox — the
    /// sender that fills the mailbox publishes them).
    fn push(&mut self, id: usize) {
        if let Some(e) = self.effective(id) {
            let k = self.mode.key(e);
            self.runq.push(Reverse((k, id)));
        }
    }

    /// The minimum `(key, id)` entry whose key still matches the LP's
    /// current effective clock. Stale entries (the LP ran, blocked
    /// differently, or finished since the push) are discarded. `None`
    /// when no LP can run.
    fn pop(&mut self) -> Option<usize> {
        while let Some(Reverse((k, id))) = self.runq.pop() {
            if self.effective(id).map(|e| self.mode.key(e)) == Some(k) {
                return Some(id);
            }
        }
        None
    }

    fn count(&self) -> usize {
        self.runq.len()
    }
}

/// The run's one domain.
const RUN: usize = 0;

type Guard<'a, M> = Held<'a, SchedState<M>>;

struct Shared<M> {
    baton: Baton<SchedState<M>>,
    observer: Option<Arc<dyn CoopObserver>>,
}

impl<M> Shared<M> {
    fn lock(&self) -> Guard<'_, M> {
        self.baton.lock(RUN)
    }

    /// Poison the run with `msg`, then wake every LP to see it.
    fn poison(&self, mut guard: Guard<'_, M>, msg: String) {
        guard.poisoned = Some(msg);
        drop(guard);
        self.baton.wake_all();
    }

    /// Poison a run no LP can continue: `msg`, then the observer's report.
    fn deadlock(&self, guard: Guard<'_, M>, mut msg: String) {
        if let Some(extra) = self.observer.as_ref().and_then(|o| o.on_deadlock(&guard.stalls())) {
            msg.push('\n');
            msg.push_str(&extra);
        }
        self.poison(guard, msg);
    }

    /// Hand the token to the next LP (which may be `self_id` again).
    /// Must be called with the lock held; returns holding the lock, with
    /// the token back at `self_id`.
    fn reschedule<'a>(&'a self, mut guard: Guard<'a, M>, self_id: usize) -> Guard<'a, M> {
        // The yield publishes us before picking: if we still hold the
        // minimum effective clock we pop our own entry and keep the
        // token with no syscall at all.
        if guard.poisoned.is_none() {
            guard = match guard.yield_now(self_id) {
                Yield::Kept(guard) => return guard,
                Yield::Passed => self.lock(),
                Yield::Empty(guard) => {
                    let blocked: Vec<usize> = (0..guard.lps.len())
                        .filter(|&i| matches!(guard.lps[i].status, Status::BlockedRecv(_)))
                        .collect();
                    let msg = format!("deadlock: no runnable LP; blocked LPs: {blocked:?}");
                    self.deadlock(guard, msg);
                    self.lock()
                }
            };
        }
        match &guard.poisoned {
            None => guard,
            Some(msg) => {
                let msg = msg.clone();
                drop(guard);
                panic!("coop scheduler poisoned: {msg}");
            }
        }
    }
}

/// Handle held by each LP; all simulated-time operations go through it.
pub struct CoopHandle<M> {
    id: usize,
    n: usize,
    channels: usize,
    shared: Arc<Shared<M>>,
}

impl<M: Send> CoopHandle<M> {
    /// This LP's id (0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of LPs in the simulation.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of channels per LP.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// This LP's current virtual clock.
    pub fn now(&self) -> SimTime {
        let g = self.shared.lock();
        SimTime::from_ps(g.lps[self.id].clock)
    }

    /// Advance this LP's clock by `dt` and yield to the scheduler.
    pub fn advance(&self, dt: SimTime) {
        let mut g = self.shared.lock();
        g.lps[self.id].clock += dt.ps();
        self.shared.reschedule(g, self.id);
    }

    /// Advance this LP's clock to at least `t` and yield.
    pub fn advance_to(&self, t: SimTime) {
        let mut g = self.shared.lock();
        let c = &mut g.lps[self.id].clock;
        *c = (*c).max(t.ps());
        self.shared.reschedule(g, self.id);
    }

    /// Yield without advancing time (lets equal-clock LPs with smaller
    /// ids run).
    pub fn yield_now(&self) {
        let g = self.shared.lock();
        self.shared.reschedule(g, self.id);
    }

    /// Send `msg` to LP `dest` on `channel`; it arrives at
    /// `now + latency`. Sending never blocks and does not advance the
    /// sender's clock (charge any software overhead with [`advance`]
    /// separately).
    ///
    /// [`advance`]: CoopHandle::advance
    pub fn send(&self, dest: usize, channel: usize, msg: M, latency: SimTime) {
        let mut g = self.shared.lock();
        assert!(dest < g.lps.len(), "send to unknown LP {dest}");
        assert!(channel < self.channels, "send on unknown channel {channel}");
        let arrival = g.lps[self.id].clock + latency.ps();
        let seq = g.seq;
        g.seq += 1;
        let dst = &mut g.lps[dest];
        let old_min = dst.boxes[channel].min_arrival();
        dst.boxes[channel].push(arrival, seq, msg);
        // A blocked receiver just became runnable (or got an earlier
        // wake-up time): publish it under the new effective clock. Its
        // older runq entries, if any, go stale and are discarded lazily.
        // The sender keeps the token: its effective clock is still the
        // minimum (arrival >= our clock for latency >= 0).
        if let Status::BlockedRecv(ch) = dst.status {
            if ch == channel && old_min.is_none_or(|m| arrival < m) {
                g.make_ready(dest);
            }
        }
    }

    /// Blocking receive on `channel`: returns the earliest-arriving
    /// message, advancing this LP's clock to the arrival time if it is
    /// in the future.
    pub fn recv(&self, channel: usize) -> M {
        assert!(channel < self.channels, "recv on unknown channel {channel}");
        let mut g = self.shared.lock();
        g.lps[self.id].status = Status::BlockedRecv(channel);
        let mut g = self.shared.reschedule(g, self.id);
        // We were resumed: the scheduler guarantees the mailbox is
        // non-empty (effective clock required an arrival).
        let (arrival, msg) = g.lps[self.id].boxes[channel]
            .pop_min()
            .expect("scheduler resumed recv with empty mailbox");
        let lp = &mut g.lps[self.id];
        lp.clock = lp.clock.max(arrival);
        lp.status = Status::Ready;
        drop(g);
        msg
    }

    /// Non-blocking receive: a message whose arrival time is ≤ now, if
    /// any. (Messages "in flight" with future arrivals are not visible.)
    pub fn try_recv(&self, channel: usize) -> Option<M> {
        let mut g = self.shared.lock();
        let now = g.lps[self.id].clock;
        let mb = &mut g.lps[self.id].boxes[channel];
        match mb.min_arrival() {
            Some(a) if a <= now => mb.pop_min().map(|(_, m)| m),
            _ => None,
        }
    }

    /// Whether a message is available right now (arrival ≤ now).
    pub fn poll(&self, channel: usize) -> bool {
        let g = self.shared.lock();
        let now = g.lps[self.id].clock;
        g.lps[self.id].boxes[channel]
            .min_arrival()
            .is_some_and(|a| a <= now)
    }

    /// Run `f` with the scheduler lock held — used by engines to mutate
    /// simulation-global state (resource banks, shared memory models)
    /// deterministically. Since only one LP ever runs at a time, the lock
    /// is uncontended; this is about atomicity with respect to scheduling,
    /// not mutual exclusion between LPs.
    pub fn with_global<T>(&self, f: impl FnOnce() -> T) -> T {
        let _g = self.shared.lock();
        f()
    }
}

/// Result of a cooperative run.
#[derive(Debug)]
pub struct CoopResult<R> {
    /// Per-LP return values, indexed by LP id.
    pub values: Vec<R>,
    /// Per-LP final clocks.
    pub clocks: Vec<SimTime>,
    /// The maximum final clock (the simulated makespan).
    pub makespan: SimTime,
    /// Grants of the token to a different LP: the context switches the
    /// run cost. Exact under a fixed program and [`SchedMode`].
    pub handoffs: u64,
}

/// Run `n` LPs, each executing `f(handle)`, under virtual time.
///
/// `channels` is the number of mailbox channels per LP. Returns each LP's
/// result and final clock.
///
/// # Panics
/// Panics if any LP panics or if the simulation deadlocks (every
/// unfinished LP blocked on an empty mailbox).
pub fn run<M, R, F>(n: usize, channels: usize, f: F) -> CoopResult<R>
where
    M: Send,
    R: Send,
    F: Fn(CoopHandle<M>) -> R + Send + Sync,
{
    run_mode(n, channels, SchedMode::EventDriven, None, f)
}

/// [`run`] with a deadlock observer: when the simulation deadlocks,
/// `observer.on_deadlock` is invoked once with a per-LP stall snapshot
/// and any text it returns is appended to the poison/panic message —
/// the hook the virtual-time engines' drained-queue observer uses to
/// render a per-PE diagnosis.
pub fn run_observed<M, R, F>(
    n: usize,
    channels: usize,
    observer: Option<Arc<dyn CoopObserver>>,
    f: F,
) -> CoopResult<R>
where
    M: Send,
    R: Send,
    F: Fn(CoopHandle<M>) -> R + Send + Sync,
{
    run_mode(n, channels, SchedMode::EventDriven, observer, f)
}

/// [`run_observed`] with an explicit [`SchedMode`] — the full entry
/// point the timed engine uses to select event-driven vs cycle-box
/// execution per run.
pub fn run_mode<M, R, F>(
    n: usize,
    channels: usize,
    mode: SchedMode,
    observer: Option<Arc<dyn CoopObserver>>,
    f: F,
) -> CoopResult<R>
where
    M: Send,
    R: Send,
    F: Fn(CoopHandle<M>) -> R + Send + Sync,
{
    assert!(n > 0, "need at least one LP");
    assert!(channels > 0, "need at least one channel");
    let mut state = SchedState {
        lps: (0..n)
            .map(|_| LpState {
                clock: 0,
                status: Status::Ready,
                boxes: (0..channels).map(|_| Mailbox::new()).collect(),
            })
            .collect(),
        runq: BinaryHeap::with_capacity(2 * n),
        mode,
        finished: 0,
        seq: 0,
        poisoned: None,
    };
    // LP 0 starts holding the token; everyone else is published at
    // clock 0 so the first handoffs find them.
    for id in 1..n {
        state.push(id);
    }
    let baton = Baton::new(n, [state], |_| (RUN, true), &Arc::default());
    let shared = Arc::new(Shared { baton, observer });
    shared.baton.start(RUN, 0);

    // Every LP is a stack on this thread: LP 0 starts holding the token,
    // the rest start when first granted, and `run` returns once all have
    // finished. So `f` and what it borrows need only outlive this call —
    // the generic `Launcher` relies on that to give every engine one
    // bound set.
    let outcomes: Vec<Cell<Option<LpOutcome<R>>>> = (0..n).map(|_| Cell::new(None)).collect();
    shared.baton.run(RUN, &|id| outcomes[id].set(Some(lp_main(id, n, channels, shared.clone(), &f))));

    let mut values: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut clocks = vec![SimTime::ZERO; n]; // cold: once per run, after all LPs finished
    let mut original_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut secondary_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for (id, outcome) in outcomes.into_iter().enumerate() {
        match outcome.into_inner().expect("every LP finished") {
            Ok((r, clk)) => {
                values[id] = Some(r);
                clocks[id] = clk;
            }
            Err((p, original)) => {
                let slot = if original {
                    &mut original_panic
                } else {
                    &mut secondary_panic
                };
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
        }
    }
    // Prefer the panic that started the collapse over the induced
    // "scheduler poisoned" panics of bystander LPs.
    if let Some(p) = original_panic.or(secondary_panic) {
        panic::resume_unwind(p);
    }
    let makespan = clocks.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let handoffs = shared.lock().handoffs();
    CoopResult {
        values: values.into_iter().map(|v| v.unwrap()).collect(),
        clocks,
        makespan,
        handoffs,
    }
}

/// Error side carries `(payload, was_original_panic)` — bystander LPs die
/// with an induced "poisoned" panic that should not mask the real one.
type LpOutcome<R> = Result<(R, SimTime), (Box<dyn std::any::Any + Send>, bool)>;

fn lp_main<M, R, F>(
    id: usize,
    n: usize,
    channels: usize,
    shared: Arc<Shared<M>>,
    f: &F,
) -> LpOutcome<R>
where
    M: Send,
    R: Send,
    F: Fn(CoopHandle<M>) -> R + Send + Sync,
{
    // LP 0 starts holding the token; the rest start when granted — by a
    // runq pop, or by the wake of a run poisoned before they ran.
    if id != 0 && shared.lock().poisoned.is_some() {
        return Err((Box::new("poisoned before start"), false));
    }

    let handle = CoopHandle {
        id,
        n,
        channels,
        shared: shared.clone(),
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(handle)));

    let mut g = shared.lock();
    let clk = SimTime::from_ps(g.lps[id].clock);
    g.lps[id].status = Status::Done;
    g.finished += 1;
    match result {
        Ok(r) => {
            // Hand the token onward.
            if let Err(g) = g.release() {
                if g.finished < g.lps.len() {
                    shared.deadlock(g, String::from("deadlock after LP finish"));
                }
            }
            Ok((r, clk))
        }
        Err(p) => {
            // A bystander unwinding from an earlier poison keeps its message.
            let original = g.poisoned.is_none();
            let msg = g.poisoned.take().unwrap_or_else(|| format!("LP {id} panicked"));
            shared.poison(g, msg);
            Err((p, original))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lp_advances_time() {
        let out = run::<u64, _, _>(1, 1, |h| {
            h.advance(SimTime::from_ns(100));
            h.advance(SimTime::from_ns(50));
            h.now()
        });
        assert_eq!(out.values[0], SimTime::from_ns(150));
        assert_eq!(out.makespan, SimTime::from_ns(150));
    }

    #[test]
    fn ping_pong_latency_accumulates() {
        let out = run::<u64, _, _>(2, 1, |h| {
            let wire = SimTime::from_ns(21);
            if h.id() == 0 {
                h.send(1, 0, 1, wire);
                let _ = h.recv(0);
                h.now()
            } else {
                let v = h.recv(0);
                h.send(0, 0, v, wire);
                h.now()
            }
        });
        assert_eq!(out.values[0], SimTime::from_ns(42));
        assert_eq!(out.values[1], SimTime::from_ns(21));
    }

    #[test]
    fn min_clock_lp_runs_first() {
        // LP1 computes for 1 us then sends; LP0 computes 10 ns and sends.
        // LP2 must receive LP0's message first even though LP1 has a
        // smaller id among senders... ordering is by arrival time.
        let out = run::<(usize, u64), _, _>(3, 1, |h| match h.id() {
            0 => {
                h.advance(SimTime::from_ns(10));
                h.send(2, 0, (0, h.now().ps()), SimTime::from_ns(5));
                0
            }
            1 => {
                h.advance(SimTime::from_us(1));
                h.send(2, 0, (1, h.now().ps()), SimTime::from_ns(5));
                0
            }
            _ => {
                let (first, _) = h.recv(0);
                let (second, _) = h.recv(0);
                assert_eq!(first, 0);
                assert_eq!(second, 1);
                h.now().ps() as usize
            }
        });
        // LP2 finishes at LP1's send arrival: 1 us + 5 ns.
        assert_eq!(out.values[2], 1_005_000);
    }

    #[test]
    fn arrival_order_not_send_order() {
        // A sends early with huge latency; B sends later with tiny
        // latency. Receiver must see B's message first.
        let out = run::<char, _, _>(3, 1, |h| match h.id() {
            0 => {
                h.send(2, 0, 'a', SimTime::from_ns(1000));
                ' '
            }
            1 => {
                h.advance(SimTime::from_ns(50));
                h.send(2, 0, 'b', SimTime::from_ns(1));
                ' '
            }
            _ => {
                let first = h.recv(0);
                let second = h.recv(0);
                assert_eq!(h.now(), SimTime::from_ns(1000));
                assert_eq!((first, second), ('b', 'a'));
                'k'
            }
        });
        drop(out);
    }

    #[test]
    fn try_recv_sees_only_arrived_messages() {
        let out = run::<u8, _, _>(2, 1, |h| {
            if h.id() == 0 {
                h.send(1, 0, 7, SimTime::from_ns(100));
                0
            } else {
                // Let LP0 run and send.
                h.advance(SimTime::from_ns(10));
                assert!(h.try_recv(0).is_none(), "message still in flight");
                assert!(!h.poll(0));
                h.advance(SimTime::from_ns(100));
                assert!(h.poll(0));
                h.try_recv(0).unwrap()
            }
        });
        assert_eq!(out.values[1], 7);
    }

    #[test]
    fn channels_are_independent() {
        let out = run::<u32, _, _>(2, 2, |h| {
            if h.id() == 0 {
                h.send(1, 1, 11, SimTime::ZERO);
                h.send(1, 0, 22, SimTime::ZERO);
                0
            } else {
                let a = h.recv(0);
                let b = h.recv(1);
                a * 100 + b
            }
        });
        assert_eq!(out.values[1], 2211);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            run::<u64, _, _>(4, 1, |h| {
                let next = (h.id() + 1) % h.n();
                for round in 0..8u64 {
                    if h.id() == 0 {
                        h.send(next, 0, round, SimTime::from_ns(3));
                        let _ = h.recv(0);
                    } else {
                        let v = h.recv(0);
                        h.advance(SimTime::from_ns(1 + h.id() as u64));
                        h.send(next, 0, v, SimTime::from_ns(3));
                    }
                }
                h.now().ps()
            })
            .values
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn send_to_self_arrives_in_future() {
        let out = run::<u8, _, _>(1, 1, |h| {
            h.send(0, 0, 9, SimTime::from_ns(40));
            let v = h.recv(0);
            assert_eq!(h.now(), SimTime::from_ns(40));
            v
        });
        assert_eq!(out.values[0], 9);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        run::<u8, _, _>(2, 1, |h| {
            let _ = h.recv(0); // both block forever
        });
    }

    #[test]
    fn deadlock_observer_sees_stalls_and_extends_the_message() {
        use std::sync::atomic::{AtomicBool, Ordering};

        struct Obs {
            fired: AtomicBool,
        }
        impl CoopObserver for Obs {
            fn on_deadlock(&self, lps: &[LpStall]) -> Option<String> {
                self.fired.store(true, Ordering::Release);
                assert_eq!(lps.len(), 2);
                assert!(lps[0].done, "LP0 returned before the deadlock");
                assert_eq!(lps[1].blocked_on, Some(0));
                Some(format!("observer: {} LPs parked", lps.len()))
            }
        }
        let obs = Arc::new(Obs { fired: AtomicBool::new(false) });
        let obs2 = obs.clone();
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            run_observed::<u8, _, _>(2, 1, Some(obs2), |h| {
                if h.id() == 1 {
                    let _ = h.recv(0); // blocks forever
                }
            })
        }));
        let p = r.expect_err("deadlock must panic");
        let msg = p.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("deadlock"), "kept the deadlock marker: {msg}");
        assert!(msg.contains("observer: 2 LPs parked"), "observer text appended: {msg}");
        assert!(obs.fired.load(Ordering::Acquire));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn lp_panic_propagates() {
        run::<u8, _, _>(2, 1, |h| {
            if h.id() == 1 {
                panic!("boom");
            }
            // LP0 blocks; must be woken by the poison, not hang.
            let _ = h.recv(0);
        });
    }

    #[test]
    fn makespan_is_max_clock() {
        let out = run::<u8, _, _>(3, 1, |h| {
            h.advance(SimTime::from_ns(10 * (h.id() as u64 + 1)));
        });
        assert_eq!(out.makespan, SimTime::from_ns(30));
        assert_eq!(out.clocks[0], SimTime::from_ns(10));
    }

    #[test]
    fn with_global_runs_closure() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        run::<u8, _, _>(2, 1, move |h| {
            h.with_global(|| c2.fetch_add(1, Ordering::Relaxed));
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn mailbox_pop_min_is_exact_arrival_seq_order() {
        // Direct regression for the old O(n)-scan pop: flood one
        // mailbox with pseudo-random arrivals (including same-instant
        // collisions) and drain — order must be exactly (arrival, seq).
        let mut mb: Mailbox<u32> = Mailbox::new();
        let mut x = 0x853c49e6748fea9bu64;
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for seq in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let arrival = x % 257; // dense range forces many ties
            mb.push(arrival, seq, seq as u32);
            expect.push((arrival, seq));
        }
        expect.sort_unstable();
        assert_eq!(mb.min_arrival(), Some(expect[0].0));
        for (arrival, seq) in expect {
            let (a, m) = mb.pop_min().expect("mailbox drained early");
            assert_eq!((a, m as u64), (arrival, seq));
        }
        assert!(mb.pop_min().is_none());
    }

    #[test]
    fn many_queued_messages_drain_in_arrival_order() {
        // Scheduler-level variant: 8 senders flood one receiver channel
        // with staggered latencies before the receiver wakes; recv must
        // return nondecreasing arrivals (carried in the payload).
        const PER_SENDER: u64 = 250;
        let n = 9;
        let out = run::<u64, _, _>(n, 1, move |h| {
            if h.id() == 0 {
                // Park past every arrival so all messages are queued.
                h.advance(SimTime::from_us(100));
                let mut last = 0u64;
                let mut count = 0u64;
                while count < (n as u64 - 1) * PER_SENDER {
                    let arrival = h.recv(0);
                    assert!(
                        arrival >= last,
                        "arrival order violated: {arrival} after {last}"
                    );
                    last = arrival;
                    count += 1;
                }
                count
            } else {
                let mut x = (h.id() as u64).wrapping_mul(0x9e3779b97f4a7c15);
                for _ in 0..PER_SENDER {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let lat = SimTime::from_ps(x % 5_000_000);
                    h.send(0, 0, h.now().ps() + lat.ps(), lat);
                }
                0
            }
        });
        assert_eq!(out.values[0], (n as u64 - 1) * PER_SENDER);
    }

    #[test]
    fn cycle_box_runs_lps_in_id_order_within_a_box() {
        use std::sync::Mutex as StdMutex;
        // Three LPs each take 3 small steps inside one 1 us box. Cycle-box
        // runs each LP to the box edge before the next id; event-driven
        // interleaves by exact clock.
        let log = Arc::new(StdMutex::new(Vec::new()));
        let body = |log: Arc<StdMutex<Vec<usize>>>| {
            move |h: CoopHandle<u8>| {
                for _ in 0..3 {
                    log.lock().unwrap().push(h.id());
                    h.advance(SimTime::from_ns(10));
                }
            }
        };
        let l = log.clone();
        run_mode::<u8, _, _>(
            3,
            1,
            SchedMode::CycleBox { tick: SimTime::from_us(1) },
            None,
            body(l),
        );
        assert_eq!(*log.lock().unwrap(), vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);

        log.lock().unwrap().clear();
        let l = log.clone();
        run_mode::<u8, _, _>(3, 1, SchedMode::EventDriven, None, body(l));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn cycle_box_converges_with_event_driven_on_seeded_traffic() {
        use std::sync::Mutex as StdMutex;
        // Seeded random all-to-all traffic: every LP sends R messages
        // (dests chosen so each LP also receives exactly R), then drains
        // its mailbox. The received multiset per LP must be identical
        // across modes (final-state convergence) and each mode must be
        // deterministic run-to-run including message order.
        const N: usize = 6;
        const R: u64 = 40;
        #[derive(Default, Clone, PartialEq, Debug)]
        struct PerLp {
            sum: u64,
            xor: u64,
            digest: u64, // order-sensitive
        }
        let run_with = |mode: SchedMode| {
            let acc = Arc::new(StdMutex::new(vec![PerLp::default(); N]));
            let a2 = acc.clone();
            run_mode::<u64, _, _>(N, 1, mode, None, move |h| {
                let id = h.id();
                let mut x = (id as u64 + 1) * 0x2545f4914f6cdd1d;
                for k in 0..R {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let dest = (id + 1 + (k as usize % (N - 1))) % N;
                    let lat = SimTime::from_ps(x % 800_000);
                    h.send(dest, 0, x, lat);
                    if x.is_multiple_of(3) {
                        h.advance(SimTime::from_ps(x % 50_000));
                    }
                }
                for _ in 0..R {
                    let v = h.recv(0);
                    let mut g = a2.lock().unwrap();
                    let p = &mut g[id];
                    p.sum = p.sum.wrapping_add(v);
                    p.xor ^= v;
                    p.digest = p.digest.wrapping_mul(31).wrapping_add(v);
                }
            });
            Arc::try_unwrap(acc).unwrap().into_inner().unwrap()
        };
        let ed1 = run_with(SchedMode::EventDriven);
        let ed2 = run_with(SchedMode::EventDriven);
        assert_eq!(ed1, ed2, "event-driven must be deterministic");
        let tick = SimTime::from_ns(1000);
        let cb1 = run_with(SchedMode::CycleBox { tick });
        let cb2 = run_with(SchedMode::CycleBox { tick });
        assert_eq!(cb1, cb2, "cycle-box must be deterministic");
        for id in 0..N {
            assert_eq!(
                (ed1[id].sum, ed1[id].xor),
                (cb1[id].sum, cb1[id].xor),
                "LP {id}: received multiset differs between modes"
            );
        }
    }

    #[test]
    fn cycle_box_deadlock_still_detected() {
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            run_mode::<u8, _, _>(
                2,
                1,
                SchedMode::CycleBox { tick: SimTime::from_ns(100) },
                None,
                |h| {
                    let _ = h.recv(0); // both block forever
                },
            )
        }));
        let p = r.expect_err("deadlock must panic");
        let msg = p.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("deadlock"), "got: {msg}");
    }

    /// The resume log of a seeded 72-LP program: every LP appends
    /// `(id, now)` after each scheduler call. Each step sends one message
    /// around a ring on channel 0 (varied latency), then `advance`s,
    /// `recv`s a ring message it is owed, `try_recv`s, `yield_now`s or
    /// sends on channel 1 to a random LP. An LP only blocks for ring
    /// message `r + 1` after its predecessor's step `r`, so no cycle of
    /// waits closes; the tail drains the ring.
    fn resume_log(mode: SchedMode) -> (Vec<(usize, u64)>, u64) {
        use std::sync::Mutex as StdMutex;
        const N: usize = 72;
        const STEPS: u64 = 24;
        let log = StdMutex::new(Vec::new());
        let out = run_mode::<u64, _, _>(N, 2, mode, None, |h| {
            let id = h.id();
            let mut x = (id as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 33
            };
            let note = |h: &CoopHandle<u64>| log.lock().unwrap().push((h.id(), h.now().ps()));
            let mut got = 0u64;
            for step in 0..STEPS {
                h.send((id + 1) % N, 0, step, SimTime::from_ps(next() % 90_000));
                match next() % 5 {
                    0 => h.advance(SimTime::from_ps(next() % 70_000)),
                    1 if got < step => {
                        h.recv(0);
                        got += 1;
                    }
                    1 => h.advance(SimTime::from_ps(1_000)),
                    2 => {
                        got += u64::from(h.try_recv(0).is_some());
                        h.try_recv(1);
                    }
                    3 => h.yield_now(),
                    _ => {
                        let dest = next() as usize % N;
                        h.send(dest, 1, step, SimTime::from_ps(next() % 40_000));
                    }
                }
                note(&h);
            }
            while got < STEPS {
                h.recv(0);
                got += 1;
                note(&h);
            }
        });
        (log.into_inner().unwrap(), out.handoffs)
    }

    fn fold(log: &[(usize, u64)]) -> u64 {
        log.iter().fold(0xcbf29ce484222325u64, |h, &(id, t)| {
            (h ^ (id as u64).wrapping_mul(0x100000001b3) ^ t.rotate_left(17)).wrapping_mul(0x100000001b3)
        })
    }

    /// The schedule pin: the exact order and clocks in which 72 LPs
    /// resume, under both modes. It depends only on which LP the
    /// scheduler chooses, never on how the chosen LP is resumed,
    /// so it holds across any change to the wake path.
    #[test]
    fn the_resume_order_of_a_seeded_72_lp_program_is_pinned() {
        let (ed, ed_handoffs) = resume_log(SchedMode::EventDriven);
        let (cb, cb_handoffs) = resume_log(SchedMode::CycleBox { tick: SimTime::from_ns(50) });
        assert_eq!((ed.len(), fold(&ed), ed_handoffs), (2920, 0xcddc865c45f96c30, 1079));
        assert_eq!((cb.len(), fold(&cb), cb_handoffs), (2921, 0xb88e04588e14185e, 417));
    }

    /// Two runs on two OS threads at once each reproduce the pin: each
    /// carries its LPs on its own thread, and the two share nothing.
    #[test]
    fn two_runs_on_two_threads_at_once_each_reproduce_the_pin() {
        let start = Arc::new(std::sync::Barrier::new(2));
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    resume_log(SchedMode::EventDriven)
                })
            })
            .collect();
        for r in runs {
            let (log, handoffs) = r.join().unwrap();
            assert_eq!((log.len(), fold(&log), handoffs), (2920, 0xcddc865c45f96c30, 1079));
        }
    }

    /// Every LP runs on the thread that called `run`: a run spawns no
    /// OS thread.
    #[test]
    fn every_lp_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let out = run::<u8, _, _>(8, 1, |h| {
            h.advance(SimTime::from_ns(1 + h.id() as u64));
            std::thread::current().id() == me
        });
        assert_eq!(out.values, vec![true; 8]);
    }

    /// An LP walks its own stack, then panics: the walk ends at the LP's
    /// stack base — its entry, above which lies a null return address —
    /// without crashing, and the run reports the LP's own panic.
    #[test]
    fn a_backtrace_in_an_lp_ends_at_its_stack_base_and_its_panic_is_reported() {
        use std::backtrace::{Backtrace, BacktraceStatus};
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            run::<u8, _, _>(4, 1, |h| {
                if h.id() == 2 {
                    h.advance(SimTime::from_ns(1));
                    let bt = Backtrace::force_capture();
                    assert_eq!(bt.status(), BacktraceStatus::Captured);
                    let frames = bt.to_string();
                    let last = frames.lines().rfind(|l| l.trim_start().chars().next().is_some_and(|c| c.is_ascii_digit()));
                    panic!("LP 2 walked to {}", last.unwrap_or("nothing").trim());
                }
                let _ = h.recv(0);
            })
        }));
        let p = r.expect_err("the panic must propagate");
        let msg = p.downcast_ref::<String>().expect("string panic payload");
        // `substrate::stack::entry`, or `entry` where only line tables name it.
        assert!(msg.starts_with("LP 2 walked to") && msg.ends_with("entry"), "{msg}");
    }

    /// One LP of 72 panics while the other 71 are parked in `recv`:
    /// every LP unwinds (the carrier resumes each one) and the panic
    /// reported is the original one, not a bystander's "poisoned".
    #[test]
    fn a_panic_among_72_parked_lps_unwinds_every_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const N: usize = 72;
        struct Unwound<'a>(&'a AtomicUsize);
        impl Drop for Unwound<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let unwound = AtomicUsize::new(0);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            run::<u8, _, _>(N, 1, |h| {
                let _guard = Unwound(&unwound);
                if h.id() == N - 1 {
                    h.advance(SimTime::from_ns(1));
                    panic!("boom from the last LP");
                }
                let _ = h.recv(0);
            })
        }));
        let p = r.expect_err("the panic must propagate");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"boom from the last LP"));
        assert_eq!(unwound.load(Ordering::Relaxed), N, "every LP unwound");
    }

    /// Counts observer calls and checks the snapshot covers every LP.
    struct CountingObs {
        calls: std::sync::atomic::AtomicUsize,
        done: usize,
    }
    impl CoopObserver for CountingObs {
        fn on_deadlock(&self, lps: &[LpStall]) -> Option<String> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(lps.len(), 72);
            assert_eq!(lps.iter().filter(|l| l.done).count(), self.done);
            assert!(lps.iter().all(|l| l.done || l.blocked_on == Some(0)));
            Some(format!("observer saw {} LPs", lps.len()))
        }
    }

    fn deadlock_72(done: usize, f: impl Fn(CoopHandle<u8>) + Send + Sync) -> (String, usize) {
        let obs = Arc::new(CountingObs { calls: Default::default(), done });
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            run_observed::<u8, _, _>(72, 1, Some(obs.clone()), f)
        }));
        let p = r.expect_err("deadlock must panic");
        let msg = p.downcast_ref::<String>().expect("string panic payload").clone();
        (msg, obs.calls.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// 72 LPs all block in `recv`: the observer fires exactly once, with
    /// every LP in its snapshot.
    #[test]
    fn a_72_lp_deadlock_fires_the_observer_once() {
        let (msg, calls) = deadlock_72(0, |h| {
            let _ = h.recv(0);
        });
        assert_eq!(calls, 1);
        assert!(msg.contains("deadlock") && msg.contains("observer saw 72 LPs"), "{msg}");
    }

    /// The last runnable LP returns while the other 71 are blocked: the
    /// finishing LP's hand-on finds no one and reports the deadlock once.
    #[test]
    fn a_deadlock_after_an_lp_finishes_is_reported_once() {
        let (msg, calls) = deadlock_72(1, |h| {
            if h.id() == 0 {
                h.advance(SimTime::from_ns(1)); // let the others block first
            } else {
                let _ = h.recv(0);
            }
        });
        assert_eq!(calls, 1);
        assert!(msg.contains("deadlock after LP finish") && msg.contains("observer saw 72 LPs"), "{msg}");
    }
}
