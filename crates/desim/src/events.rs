//! A closure-driven event queue for open-loop models.
//!
//! No engine constructs a [`Sim`]: the timed and multichip fabrics run
//! on the cooperative scheduler in [`crate::coop`], which keeps its own
//! heap of LP wake times. `Sim`'s callers are this crate's tests, the
//! root `substrate_props` suite and the benchmark's `desim.events.*`
//! probe, so neither core below can move a timed workload (ROADMAP
//! item 12 decides whether they stay).
//!
//! # Event-core contract
//!
//! Events fire in ascending `(time, seq)` order, where `seq` is the
//! global schedule-call counter — so events scheduled for the same
//! instant fire in insertion order and every run is deterministic.
//! Two interchangeable cores uphold that contract:
//!
//! * **Calendar queue** (default, [`QueueKind::Calendar`]): a bucketed
//!   timing wheel (Brown 1988) with power-of-two bucket widths, a slot
//!   arena that recycles fired event slots through a free list, and
//!   inline closure storage — the steady-state schedule→fire path does
//!   no per-event allocation.
//! * **Reference heap** ([`QueueKind::ReferenceHeap`]): the
//!   pre-refactor core, kept verbatim — `BinaryHeap<Reverse<(SimTime,
//!   u64)>>`, one `Box` per event, and an ever-growing slot `Vec` — as
//!   the semantic oracle for differential tests and the perf baseline
//!   beside it in the benchmark (`desim.events.heap_per_s_1k`).
//!
//! The differential property suite (`tests/events_differential.rs`)
//! drives both cores through seeded random schedules and asserts
//! identical firing logs, including same-instant insertion-order and
//! `run_until` boundary cases.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop, MaybeUninit};

use crate::time::SimTime;

type BoxedEvent<'a> = Box<dyn FnOnce(&mut Sim<'a>) + 'a>;

/// Which scheduler core backs a [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Calendar queue with slot recycling and inline closures (default).
    Calendar,
    /// The pre-refactor `BinaryHeap` + boxed-event core, kept as the
    /// differential-testing oracle and perf baseline.
    ReferenceHeap,
}

// ---------------------------------------------------------------------
// Inline event cells: closures stored by value, no Box on the fast path.
// ---------------------------------------------------------------------

/// Inline storage budget for event closures. Engine closures capture a
/// few words (an `Rc`, a couple of integers); anything larger falls back
/// to one `Box` without changing semantics.
const INLINE_EVENT_BYTES: usize = 48;

#[repr(align(16))]
struct InlineBuf {
    bytes: [MaybeUninit<u8>; INLINE_EVENT_BYTES],
}

/// A type-erased `FnOnce(&mut Sim)` stored inline (or behind one `Box`
/// when it exceeds [`INLINE_EVENT_BYTES`]). The two thunks are the only
/// code that knows the concrete closure type.
struct EventCell<'a> {
    /// Moves the closure out of `buf` and runs it (consuming the cell).
    call: unsafe fn(*mut u8, &mut Sim<'a>),
    /// Drops the closure in `buf` without running it (unfired events).
    drop_in_place: unsafe fn(*mut u8),
    buf: InlineBuf,
    /// Owns a closure with lifetime `'a` (also makes the cell `!Send`,
    /// matching the boxed representation).
    _own: PhantomData<BoxedEvent<'a>>,
}

unsafe fn call_inline<'a, F: FnOnce(&mut Sim<'a>) + 'a>(p: *mut u8, sim: &mut Sim<'a>) {
    // SAFETY: `p` holds a valid `F` written by `EventCell::new`; the cell
    // is consumed by `fire`, so the value is read exactly once.
    let f = unsafe { p.cast::<F>().read() };
    f(sim);
}

unsafe fn drop_inline<F>(p: *mut u8) {
    // SAFETY: as above, but invoked at most once from EventCell::drop.
    unsafe { std::ptr::drop_in_place(p.cast::<F>()) }
}

unsafe fn call_boxed<'a, F: FnOnce(&mut Sim<'a>) + 'a>(p: *mut u8, sim: &mut Sim<'a>) {
    // SAFETY: `p` holds a `*mut F` from `Box::into_raw`.
    let f = unsafe { Box::from_raw(p.cast::<*mut F>().read()) };
    (*f)(sim);
}

unsafe fn drop_boxed<F>(p: *mut u8) {
    // SAFETY: as above.
    drop(unsafe { Box::from_raw(p.cast::<*mut F>().read()) });
}

impl<'a> EventCell<'a> {
    fn new<F: FnOnce(&mut Sim<'a>) + 'a>(f: F) -> Self {
        let mut cell = EventCell {
            call: call_inline::<F>,
            drop_in_place: drop_inline::<F>,
            buf: InlineBuf {
                bytes: [MaybeUninit::uninit(); INLINE_EVENT_BYTES],
            },
            _own: PhantomData,
        };
        let p = cell.buf.bytes.as_mut_ptr().cast::<u8>();
        if mem::size_of::<F>() <= INLINE_EVENT_BYTES
            && mem::align_of::<F>() <= mem::align_of::<InlineBuf>()
        {
            // SAFETY: the buffer is large and aligned enough for `F`.
            unsafe { p.cast::<F>().write(f) };
        } else {
            cell.call = call_boxed::<F>;
            cell.drop_in_place = drop_boxed::<F>;
            let raw = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer always fits the buffer.
            unsafe { p.cast::<*mut F>().write(raw) };
        }
        cell
    }

    /// Run the stored closure, consuming the cell without double-drop.
    fn fire(self, sim: &mut Sim<'a>) {
        let mut cell = ManuallyDrop::new(self);
        // SAFETY: ManuallyDrop suppresses the destructor, so the closure
        // is consumed exactly once (by the call thunk).
        unsafe { (cell.call)(cell.buf.bytes.as_mut_ptr().cast::<u8>(), sim) }
    }
}

impl Drop for EventCell<'_> {
    fn drop(&mut self) {
        // SAFETY: only reached for cells that were never fired.
        unsafe { (self.drop_in_place)(self.buf.bytes.as_mut_ptr().cast::<u8>()) }
    }
}

// ---------------------------------------------------------------------
// Slot arena: fired slots are recycled through an intrusive free list,
// so pending-event storage is O(peak pending), not O(total scheduled).
// ---------------------------------------------------------------------

const NIL: u32 = u32::MAX;

enum Slot<'a> {
    Free { next: u32 },
    Full(EventCell<'a>),
}

struct SlotArena<'a> {
    slots: Vec<Slot<'a>>,
    free_head: u32,
}

impl<'a> SlotArena<'a> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
        }
    }

    fn insert(&mut self, cell: EventCell<'a>) -> u32 {
        if self.free_head != NIL {
            let i = self.free_head;
            match mem::replace(&mut self.slots[i as usize], Slot::Full(cell)) {
                Slot::Free { next } => self.free_head = next,
                Slot::Full(_) => unreachable!("free list pointed at a live slot"),
            }
            i
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(Slot::Full(cell));
            i
        }
    }

    fn take(&mut self, i: u32) -> EventCell<'a> {
        let freed = Slot::Free {
            next: self.free_head,
        };
        match mem::replace(&mut self.slots[i as usize], freed) {
            Slot::Full(cell) => {
                self.free_head = i;
                cell
            }
            Slot::Free { .. } => panic!("event fired twice"),
        }
    }

    /// High-water slot count — bounded by peak concurrent pending events.
    fn high_water(&self) -> usize {
        self.slots.len()
    }
}

// ---------------------------------------------------------------------
// Calendar queue.
// ---------------------------------------------------------------------

/// Queue key: full `(t, seq)` comparison keeps same-bucket selection
/// deterministic regardless of intra-bucket storage order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct EventKey {
    t: u64,
    seq: u64,
    slot: u32,
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;
const MAX_SHIFT: u32 = 44;

/// Consecutive slow pops after which the calendar re-tunes itself from
/// the live distribution. Resizes normally re-pick the bucket width
/// when the count crosses a threshold, but a distribution can drift
/// (events spreading out) at a constant count — then the width stays
/// stale forever and every pop walks hundreds of empty buckets, or
/// degenerates all the way to the full-rotation fallback. Persistent
/// slow pops are the signature of exactly that, so they force the
/// re-tune.
const RETUNE_AFTER: u32 = 4;

/// A pop that walks more than this many buckets counts as slow. A
/// well-tuned calendar keeps a couple of events per bucket, so typical
/// pops walk a handful; a genuine sparse stretch can exceed this
/// occasionally without tripping the [`RETUNE_AFTER`] streak.
const STALE_WALK: usize = 64;

/// Bucketed timing wheel: bucket `i` of width `2^shift` ps holds every
/// pending event whose day index `t >> shift` is ≡ `i` mod the bucket
/// count. A cursor walks day windows in time order; events a full
/// rotation ahead are found by a direct min scan that re-seats the
/// cursor. Resizes (grow at >2 events/bucket, shrink below 1/4) re-pick
/// the bucket count ≈ pending count and the width from the mean pending
/// gap, both rounded to powers of two so indexing is shift-and-mask.
struct Calendar {
    buckets: Vec<Vec<EventKey>>,
    /// log2 of the bucket (day) width in picoseconds.
    shift: u32,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: u64,
    count: usize,
    /// Bucket the cursor is visiting.
    cur: usize,
    /// Exclusive end of the cursor's current day window.
    day_end: u64,
    /// Consecutive pops that needed the full-rotation fallback; at
    /// [`RETUNE_AFTER`] the next pop resizes to re-tune the width.
    stale: u32,
}

impl Calendar {
    fn new() -> Self {
        let mut cal = Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: 10,
            mask: (MIN_BUCKETS - 1) as u64,
            count: 0,
            cur: 0,
            day_end: 0,
            stale: 0,
        };
        cal.seek(0);
        cal
    }

    /// Re-seat the cursor on the day window containing `t`.
    fn seek(&mut self, t: u64) {
        let day = t >> self.shift;
        self.cur = (day & self.mask) as usize;
        let end = (u128::from(day) + 1) << self.shift;
        self.day_end = u64::try_from(end).unwrap_or(u64::MAX);
    }

    fn place(&mut self, k: EventKey) {
        let idx = ((k.t >> self.shift) & self.mask) as usize;
        self.buckets[idx].push(k);
        self.count += 1;
        // Keep the cursor at or before every pending event. A push can
        // land behind the cursor when `run_until` pops a beyond-deadline
        // event (advancing the cursor to its day) and reinserts it, then
        // new events are scheduled at earlier times — reseat so the
        // forward scan cannot skip them.
        let day_start = self.day_end.saturating_sub(1u64 << self.shift);
        if k.t < day_start {
            self.seek(k.t);
        }
    }

    fn push(&mut self, k: EventKey) {
        self.place(k);
        if self.count > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    fn pop_min(&mut self) -> Option<EventKey> {
        if self.count == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let day = 1u64 << self.shift;
        let mut cur = self.cur;
        let mut day_end = self.day_end;
        for walked in 0..nb {
            if !self.buckets[cur].is_empty() {
                let b = &self.buckets[cur];
                let mut best: Option<usize> = None;
                for (i, k) in b.iter().enumerate() {
                    if k.t < day_end && best.is_none_or(|bi| *k < b[bi]) {
                        best = Some(i);
                    }
                }
                if let Some(i) = best {
                    self.cur = cur;
                    self.day_end = day_end;
                    if walked > STALE_WALK {
                        self.stale += 1;
                        let k = self.remove_at(cur, i);
                        if self.stale >= RETUNE_AFTER {
                            self.resize();
                            self.stale = 0;
                        }
                        return Some(k);
                    }
                    self.stale = 0;
                    return Some(self.remove_at(cur, i));
                }
            }
            cur = (cur + 1) & (self.mask as usize);
            day_end = day_end.saturating_add(day);
        }
        // Nothing within a full rotation: the next event is at least one
        // "year" ahead. A genuine time jump hits this once; a stale
        // width hits it on every pop — re-tune and retry (the resize
        // reseats the cursor on the min event's day, so the retry's
        // rotation scan succeeds immediately).
        self.stale += 1;
        if self.stale >= RETUNE_AFTER {
            self.resize();
            self.stale = 0;
            return self.pop_min();
        }
        // Direct search for the global min, then jump.
        let mut best: Option<(usize, usize)> = None;
        for (bi, b) in self.buckets.iter().enumerate() {
            for (i, k) in b.iter().enumerate() {
                if best.is_none_or(|(pb, pi)| *k < self.buckets[pb][pi]) {
                    best = Some((bi, i));
                }
            }
        }
        let (bi, i) = best.expect("count > 0 but no pending event found");
        let k = self.remove_at(bi, i);
        self.seek(k.t);
        Some(k)
    }

    fn remove_at(&mut self, bucket: usize, i: usize) -> EventKey {
        let k = self.buckets[bucket].swap_remove(i);
        self.count -= 1;
        if self.count * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        k
    }

    /// Rebuild with a bucket count ≈ pending count and a width matched
    /// to the mean pending gap. Amortized O(1) per event.
    fn resize(&mut self) {
        // cold: resize is amortized over ≥ half the events it moves
        let mut all: Vec<EventKey> = Vec::with_capacity(self.count);
        for b in &mut self.buckets {
            all.append(b);
        }
        let (mut min_t, mut max_t) = (u64::MAX, 0u64);
        for k in &all {
            min_t = min_t.min(k.t);
            max_t = max_t.max(k.t);
        }
        let n = all.len().max(1);
        let nb = n
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Width ≈ 2× the mean gap between pending events, so a bucket
        // holds a couple of events of the current "epoch" on average.
        let gap = ((max_t - min_t) / n as u64).max(1);
        let shift = (64 - gap.leading_zeros()).min(MAX_SHIFT);
        if nb != self.buckets.len() {
            self.buckets = (0..nb).map(|_| Vec::new()).collect();
        }
        self.shift = shift;
        self.mask = (nb - 1) as u64;
        self.count = 0;
        for k in all {
            self.place(k);
        }
        self.seek(if min_t == u64::MAX { 0 } else { min_t });
    }
}

// ---------------------------------------------------------------------
// Sim.
// ---------------------------------------------------------------------

enum Core<'a> {
    Calendar {
        cal: Calendar,
        arena: SlotArena<'a>,
    },
    /// The pre-refactor event core, verbatim: one `Box` per event and a
    /// slot `Vec` that grows by one entry per event ever scheduled.
    Reference {
        queue: BinaryHeap<Reverse<(SimTime, u64)>>,
        slots: Vec<Option<BoxedEvent<'a>>>,
    },
}

/// An event popped off a core, ready to run (the core's borrow has
/// ended, so the closure may re-enter `Sim` freely).
enum Fired<'a> {
    Cell(EventCell<'a>),
    Boxed(BoxedEvent<'a>),
}

impl<'a> Fired<'a> {
    fn fire(self, sim: &mut Sim<'a>) {
        match self {
            Fired::Cell(c) => c.fire(sim),
            Fired::Boxed(f) => f(sim),
        }
    }
}

/// Sequential discrete-event simulator with a closure per event.
///
/// Events scheduled for the same instant fire in insertion order, which
/// keeps runs deterministic. See the module docs for the two cores.
pub struct Sim<'a> {
    now: SimTime,
    seq: u64,
    executed: u64,
    core: Core<'a>,
}

impl Default for Sim<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Sim<'a> {
    /// A simulator on the default calendar-queue core.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// A simulator on the retained pre-refactor heap core (differential
    /// tests and the benchmark's `desim.events.heap_per_s_1k` baseline).
    pub fn reference() -> Self {
        Self::with_kind(QueueKind::ReferenceHeap)
    }

    pub fn with_kind(kind: QueueKind) -> Self {
        let core = match kind {
            QueueKind::Calendar => Core::Calendar {
                cal: Calendar::new(),
                arena: SlotArena::new(),
            },
            QueueKind::ReferenceHeap => Core::Reference {
                queue: BinaryHeap::new(),
                slots: Vec::new(),
            },
        };
        Self {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            core,
        }
    }

    pub fn kind(&self) -> QueueKind {
        match self.core {
            Core::Calendar { .. } => QueueKind::Calendar,
            Core::Reference { .. } => QueueKind::ReferenceHeap,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of scheduled-but-unfired events.
    pub fn pending(&self) -> usize {
        match &self.core {
            Core::Calendar { cal, .. } => cal.count,
            Core::Reference { queue, .. } => queue.len(),
        }
    }

    /// High-water mark of the event slot store. On the calendar core
    /// this is bounded by peak *concurrent* pending events (fired slots
    /// are recycled); on the reference core it grows by one per event
    /// ever scheduled — the leak the refactor removed.
    pub fn slot_high_water(&self) -> usize {
        match &self.core {
            Core::Calendar { arena, .. } => arena.high_water(),
            Core::Reference { slots, .. } => slots.len(),
        }
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<'a>) + 'a) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        let seq = self.seq;
        self.seq += 1;
        match &mut self.core {
            Core::Calendar { cal, arena } => {
                let slot = arena.insert(EventCell::new(f));
                cal.push(EventKey { t: at.ps(), seq, slot });
            }
            Core::Reference { queue, slots } => {
                slots.push(Some(Box::new(f)));
                queue.push(Reverse((at, seq)));
            }
        }
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_in(&mut self, after: SimTime, f: impl FnOnce(&mut Sim<'a>) + 'a) {
        self.schedule_at(self.now + after, f);
    }

    /// Pop the next event if its time is ≤ `until` (when given),
    /// advancing `now`/`executed`. The calendar core has no cheap peek,
    /// so a beyond-deadline event is popped and reinserted — `(t, seq)`
    /// keys make that order-preserving.
    fn pop_due(&mut self, until: Option<u64>) -> Option<Fired<'a>> {
        match &mut self.core {
            Core::Calendar { cal, arena } => {
                let k = cal.pop_min()?;
                if let Some(u) = until {
                    if k.t > u {
                        cal.push(k);
                        return None;
                    }
                }
                self.now = SimTime::from_ps(k.t);
                self.executed += 1;
                Some(Fired::Cell(arena.take(k.slot)))
            }
            Core::Reference { queue, slots } => {
                let &Reverse((t, _)) = queue.peek()?;
                if let Some(u) = until {
                    if t.ps() > u {
                        return None;
                    }
                }
                let Reverse((t, seq)) = queue.pop().expect("peeked entry vanished");
                self.now = t;
                self.executed += 1;
                let f = slots[seq as usize].take().expect("event fired twice");
                Some(Fired::Boxed(f))
            }
        }
    }

    /// Run until the queue drains; returns the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Run events with time ≤ `until` (events beyond stay queued).
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        while let Some(ev) = self.pop_due(Some(until.ps())) {
            ev.fire(self);
        }
        self.now = self.now.max(until);
        self.now
    }

    /// Execute the next event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.pop_due(None) {
            Some(ev) => {
                ev.fire(self);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const BOTH: [QueueKind; 2] = [QueueKind::Calendar, QueueKind::ReferenceHeap];

    #[test]
    fn events_fire_in_time_order() {
        for kind in BOTH {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::with_kind(kind);
            for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
                let log = log.clone();
                sim.schedule_at(SimTime::from_ns(t), move |s| {
                    log.borrow_mut().push((s.now().ps(), tag));
                });
            }
            sim.run();
            assert_eq!(
                *log.borrow(),
                vec![(10_000, 'a'), (20_000, 'b'), (30_000, 'c')],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        for kind in BOTH {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::with_kind(kind);
            for tag in ['x', 'y', 'z'] {
                let log = log.clone();
                sim.schedule_at(SimTime::from_ns(5), move |_| log.borrow_mut().push(tag));
            }
            sim.run();
            assert_eq!(*log.borrow(), vec!['x', 'y', 'z'], "{kind:?}");
        }
    }

    #[test]
    fn events_can_schedule_events() {
        for kind in BOTH {
            let hits = Rc::new(RefCell::new(0u32));
            let mut sim = Sim::with_kind(kind);
            fn tick(s: &mut Sim<'_>, hits: Rc<RefCell<u32>>, left: u32) {
                *hits.borrow_mut() += 1;
                if left > 0 {
                    s.schedule_in(SimTime::from_ns(1), move |s| tick(s, hits, left - 1));
                }
            }
            let h = hits.clone();
            sim.schedule_at(SimTime::ZERO, move |s| tick(s, h, 9));
            let end = sim.run();
            assert_eq!(*hits.borrow(), 10);
            assert_eq!(end, SimTime::from_ns(9));
            assert_eq!(sim.executed(), 10);
        }
    }

    #[test]
    fn run_until_stops_early() {
        for kind in BOTH {
            let fired = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::with_kind(kind);
            for t in [5u64, 15, 25] {
                let fired = fired.clone();
                sim.schedule_at(SimTime::from_ns(t), move |_| fired.borrow_mut().push(t));
            }
            sim.run_until(SimTime::from_ns(16));
            assert_eq!(*fired.borrow(), vec![5, 15], "{kind:?}");
            assert_eq!(sim.now(), SimTime::from_ns(16));
            assert_eq!(sim.pending(), 1);
            sim.run();
            assert_eq!(*fired.borrow(), vec![5, 15, 25], "{kind:?}");
        }
    }

    #[test]
    fn run_until_exact_boundary_fires_inclusive() {
        for kind in BOTH {
            let fired = Rc::new(RefCell::new(0u32));
            let mut sim = Sim::with_kind(kind);
            let f = fired.clone();
            sim.schedule_at(SimTime::from_ns(10), move |_| *f.borrow_mut() += 1);
            sim.run_until(SimTime::from_ns(10));
            assert_eq!(*fired.borrow(), 1, "{kind:?}: t == until must fire");
        }
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_ns(10), |s| {
            s.schedule_at(SimTime::from_ns(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn fired_slots_are_recycled() {
        // A long self-rescheduling chain keeps at most one event pending,
        // so the calendar arena must stay tiny while the reference core's
        // slot Vec (by design, kept as the pre-refactor baseline) grows
        // by one per event.
        fn chain(s: &mut Sim<'_>, left: u32) {
            if left > 0 {
                s.schedule_in(SimTime::from_ps(7), move |s| chain(s, left - 1));
            }
        }
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::ZERO, |s| chain(s, 9_999));
        sim.run();
        assert_eq!(sim.executed(), 10_000);
        assert!(
            sim.slot_high_water() <= 2,
            "calendar arena leaked: {} slots",
            sim.slot_high_water()
        );

        let mut refsim = Sim::reference();
        refsim.schedule_at(SimTime::ZERO, |s| chain(s, 9_999));
        refsim.run();
        assert_eq!(refsim.slot_high_water(), 10_000);
    }

    #[test]
    fn oversized_closures_fall_back_to_box() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let big = [7u64; 32]; // 256 B capture — beyond the inline budget
        let l = log.clone();
        sim.schedule_at(SimTime::from_ns(1), move |_| {
            l.borrow_mut().push(big.iter().sum::<u64>());
        });
        // An unfired oversized closure must also drop cleanly.
        let l2 = log.clone();
        let big2 = [1u64; 32];
        sim.schedule_at(SimTime::from_ns(2), move |_| {
            l2.borrow_mut().push(big2[0]);
        });
        sim.run_until(SimTime::from_ns(1));
        drop(sim);
        assert_eq!(*log.borrow(), vec![7 * 32]);
    }

    #[test]
    fn calendar_survives_resizes_and_wide_time_spread() {
        // Push enough events at wildly mixed magnitudes to force both
        // grow and shrink resizes, and check global firing order.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let mut ts: Vec<u64> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = match i % 3 {
                0 => x % 1_000,                  // dense cluster near zero
                1 => 1_000_000 + x % 1_000_000,  // mid-range
                _ => x % 50_000_000,             // sparse far future
            };
            ts.push(t);
            let log = log.clone();
            sim.schedule_at(SimTime::from_ps(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        ts.sort_unstable();
        assert_eq!(*log.borrow(), ts);
        assert_eq!(sim.executed(), 3000);
    }
}
