//! Operation tracing.
//!
//! When enabled ([`crate::RuntimeConfig::with_trace`]), every costed
//! operation appends a [`TraceEvent`] with its start/end times — a
//! timeline of what each PE did, suitable for debugging protocol
//! schedules or rendering Gantt-style charts. On the virtual-time
//! engines tracing is deterministic (events are part of the virtual-
//! time execution); the native engine stamps wall-clock times.
//!
//! The sink is organized as **per-lane append logs**: each execution
//! context (one lane per PE plus one per interrupt-service context)
//! appends to its own chunked log with plain stores and one
//! release-store per event — no lock, no contention with other lanes —
//! and the logs are merged and sorted only when the trace is read
//! back. A watchdog may read a live log concurrently (stall
//! diagnostics); it sees exactly the committed prefix. Callers without
//! a lane ([`TraceSink::record`]) fall back to a mutex-guarded
//! overflow log — correct, but cold-path only.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use desim::time::SimTime;
use substrate::sync::Mutex;

/// What kind of operation an event records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// UDN protocol message sent (dest PE in `peer`).
    UdnSend,
    /// Data copy (bytes in `bytes`).
    Copy,
    /// Atomic operation.
    Atomic,
    /// Compute phase.
    Compute,
    /// Barrier/collective wait time (polling).
    Wait,
    /// Cross-chip mPIPE link transfer (far chip in `peer`, frame bytes
    /// in `bytes`) — multichip engine only.
    Link,
}

impl TraceKind {
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::UdnSend => "udn_send",
            TraceKind::Copy => "copy",
            TraceKind::Atomic => "atomic",
            TraceKind::Compute => "compute",
            TraceKind::Wait => "wait",
            TraceKind::Link => "link",
        }
    }
}

/// One traced operation.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub pe: usize,
    pub kind: TraceKind,
    pub start: SimTime,
    pub end: SimTime,
    /// Peer PE for sends; `usize::MAX` otherwise.
    pub peer: usize,
    /// Payload bytes for copies/sends; 0 otherwise.
    pub bytes: u64,
}

/// Events per log chunk. Chunks are singly linked; a lane allocates a
/// fresh chunk only every `CHUNK` events, so the amortized append cost
/// is one slot store plus one release-store of the committed length.
const CHUNK: usize = 1024;

struct Chunk {
    /// Committed events in `events` — written only by the lane's owner
    /// (release), read by concurrent readers (acquire).
    len: AtomicUsize,
    /// Next chunk, installed by the owner once this one fills.
    next: AtomicPtr<Chunk>,
    events: [UnsafeCell<MaybeUninit<TraceEvent>>; CHUNK],
}

impl Chunk {
    /// Allocate a chunk without constructing the 1024-slot event array:
    /// the slots are `MaybeUninit` (legal to leave as raw heap memory),
    /// and materializing them through `Box::new` would build-and-copy
    /// ~48 KiB on the stack mid-record — a latency spike on the lane
    /// owner's hot path every `CHUNK` events.
    fn boxed() -> *mut Chunk {
        let layout = std::alloc::Layout::new::<Chunk>();
        unsafe {
            let p = std::alloc::alloc(layout).cast::<Chunk>();
            if p.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            (&raw mut (*p).len).write(AtomicUsize::new(0));
            (&raw mut (*p).next).write(AtomicPtr::new(std::ptr::null_mut()));
            p
        }
    }
}

/// One single-writer append log.
///
/// # Safety protocol
/// Exactly one execution context appends to a lane (the engines assign
/// lane = PE index for main contexts and `npes + PE` for service
/// contexts). Readers only touch slots below the acquired `len`, which
/// the owner's release-store guarantees are fully written; the owner
/// never rewrites a committed slot.
struct Lane {
    head: *mut Chunk,
    /// Owner-maintained append position (readers walk from `head`).
    tail: AtomicPtr<Chunk>,
    /// Events already drained by [`TraceSink::take`].
    consumed: AtomicUsize,
}

unsafe impl Send for Lane {}
unsafe impl Sync for Lane {}

impl Lane {
    fn new() -> Self {
        let head = Chunk::boxed();
        Self {
            head,
            tail: AtomicPtr::new(head),
            consumed: AtomicUsize::new(0),
        }
    }

    /// Owner-only append (see the lane safety protocol).
    fn push(&self, ev: TraceEvent) {
        let tail = self.tail.load(Ordering::Relaxed);
        unsafe {
            let n = (*tail).len.load(Ordering::Relaxed);
            if n < CHUNK {
                (*(*tail).events[n].get()).write(ev);
                (*tail).len.store(n + 1, Ordering::Release);
            } else {
                let fresh = Chunk::boxed();
                (*(*fresh).events[0].get()).write(ev);
                // Published by the release-store of `next` below.
                (*fresh).len.store(1, Ordering::Relaxed);
                (*tail).next.store(fresh, Ordering::Release);
                self.tail.store(fresh, Ordering::Relaxed);
            }
        }
    }

    /// Visit every committed event in append order.
    fn for_each(&self, mut f: impl FnMut(usize, TraceEvent)) {
        let mut base = 0usize;
        let mut chunk = self.head;
        while !chunk.is_null() {
            let n = unsafe { (*chunk).len.load(Ordering::Acquire) };
            for i in 0..n {
                let ev = unsafe { (*(*chunk).events[i].get()).assume_init_read() };
                f(base + i, ev);
            }
            if n < CHUNK {
                break;
            }
            chunk = unsafe { (*chunk).next.load(Ordering::Acquire) };
            base += CHUNK;
        }
    }

    fn committed(&self) -> usize {
        let mut total = 0usize;
        let mut chunk = self.head;
        while !chunk.is_null() {
            let n = unsafe { (*chunk).len.load(Ordering::Acquire) };
            total += n;
            if n < CHUNK {
                break;
            }
            chunk = unsafe { (*chunk).next.load(Ordering::Acquire) };
        }
        total
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        let mut chunk = self.head;
        while !chunk.is_null() {
            let next = unsafe { (*chunk).next.load(Ordering::Relaxed) };
            // Matches the raw `alloc` in `Chunk::boxed`; events are
            // `Copy`, so committed slots need no drop either.
            unsafe { std::alloc::dealloc(chunk.cast(), std::alloc::Layout::new::<Chunk>()) };
            chunk = next;
        }
    }
}

/// Shared, append-only event sink: per-context lock-free lanes plus a
/// mutex-guarded overflow log for lane-less callers.
#[derive(Default)]
pub struct TraceSink {
    lanes: Vec<Lane>,
    overflow: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    /// A sink with no lanes: every record goes through the overflow
    /// mutex. Fine for tests and cold paths; engines use
    /// [`TraceSink::with_lanes`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink with `lanes` single-writer lanes (engines pass
    /// `2 * npes`: one per PE plus one per interrupt-service context).
    pub fn with_lanes(lanes: usize) -> Self {
        Self {
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
            overflow: Mutex::new(Vec::new()),
        }
    }

    /// Append to `lane`, lock-free. **The caller must be the lane's
    /// only writer** (the engines' lane assignment guarantees this);
    /// unknown lanes fall back to the overflow log.
    pub fn record_lane(&self, lane: usize, ev: TraceEvent) {
        match self.lanes.get(lane) {
            Some(l) => l.push(ev),
            None => self.overflow.lock().push(ev),
        }
    }

    /// Append without a lane (mutex-guarded; cold paths only).
    pub fn record(&self, ev: TraceEvent) {
        self.overflow.lock().push(ev);
    }

    /// Drain all events, sorted by start time (ties by PE) for a stable,
    /// readable timeline.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut v: Vec<TraceEvent> = Vec::new();
        for lane in &self.lanes {
            let consumed = lane.consumed.load(Ordering::Acquire);
            let mut seen = 0usize;
            lane.for_each(|i, ev| {
                if i >= consumed {
                    v.push(ev);
                }
                seen = i + 1;
            });
            lane.consumed.store(seen.max(consumed), Ordering::Release);
        }
        v.append(&mut std::mem::take(&mut *self.overflow.lock()));
        v.sort_by_key(|e| (e.start, e.pe, e.end));
        v
    }

    pub fn len(&self) -> usize {
        let in_lanes: usize = self
            .lanes
            .iter()
            .map(|l| l.committed().saturating_sub(l.consumed.load(Ordering::Acquire)))
            .sum();
        in_lanes + self.overflow_len()
    }

    /// Undrained events that took the mutex-guarded overflow path — zero
    /// on an engine whose sink has a lane for every context.
    pub fn overflow_len(&self) -> usize {
        self.overflow.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Last recorded event per PE, **without draining**. Within one
    /// lane (or the overflow log), append order — not start time —
    /// defines "last"; when a PE's main and service lanes both have
    /// events, the later start time wins (on the native engine both
    /// stamp one wall clock, so that is the most recently appended).
    /// PEs ≥ `npes` are ignored here: the caller asked for a
    /// fixed-width dump.
    pub fn last_per_pe(&self, npes: usize) -> Vec<Option<TraceEvent>> {
        let mut out: Vec<Option<TraceEvent>> = vec![None; npes];
        let merge = |out: &mut Vec<Option<TraceEvent>>, cand: &[Option<TraceEvent>]| {
            for (slot, c) in out.iter_mut().zip(cand) {
                if let Some(c) = c {
                    if slot.is_none_or(|cur| c.start >= cur.start) {
                        *slot = Some(*c);
                    }
                }
            }
        };
        let mut lane_last: Vec<Option<TraceEvent>> = vec![None; npes];
        for lane in &self.lanes {
            lane_last.iter_mut().for_each(|s| *s = None);
            let consumed = lane.consumed.load(Ordering::Acquire);
            lane.for_each(|i, e| {
                if i >= consumed && e.pe < npes {
                    lane_last[e.pe] = Some(e);
                }
            });
            merge(&mut out, &lane_last);
        }
        lane_last.iter_mut().for_each(|s| *s = None);
        for e in self.overflow.lock().iter() {
            if e.pe < npes {
                lane_last[e.pe] = Some(*e);
            }
        }
        merge(&mut out, &lane_last);
        out
    }
}

/// Render a timeline as TSV (`start_ns  end_ns  pe  kind  peer  bytes`).
pub fn to_tsv(events: &[TraceEvent]) -> String {
    let mut out = String::from("start_ns\tend_ns\tpe\tkind\tpeer\tbytes\n");
    for e in events {
        let peer = if e.peer == usize::MAX {
            "-".to_string()
        } else {
            e.peer.to_string()
        };
        out.push_str(&format!(
            "{:.1}\t{:.1}\t{}\t{}\t{}\t{}\n",
            e.start.ns_f64(),
            e.end.ns_f64(),
            e.pe,
            e.kind.name(),
            peer,
            e.bytes
        ));
    }
    out
}

/// Per-PE busy-time summary by kind, in ns.
///
/// The result covers every PE present in `events` even when one exceeds
/// the caller's `npes` (the caller's count being stale must not silently
/// drop busy time); a debug build flags the inconsistency loudly.
pub fn summarize(events: &[TraceEvent], npes: usize) -> Vec<std::collections::HashMap<&'static str, f64>> {
    let width = events
        .iter()
        .map(|e| e.pe + 1)
        .fold(npes, usize::max);
    debug_assert_eq!(
        width, npes,
        "summarize: events mention PE {} but caller claimed {} PEs",
        width - 1,
        npes
    );
    let mut out = vec![std::collections::HashMap::new(); width];
    for e in events {
        *out[e.pe].entry(e.kind.name()).or_insert(0.0) +=
            e.end.ns_f64() - e.start.ns_f64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pe: usize, kind: TraceKind, s: u64, e: u64) -> TraceEvent {
        TraceEvent {
            pe,
            kind,
            start: SimTime::from_ns(s),
            end: SimTime::from_ns(e),
            peer: usize::MAX,
            bytes: 0,
        }
    }

    #[test]
    fn sink_collects_and_sorts() {
        let sink = TraceSink::new();
        sink.record(ev(1, TraceKind::Copy, 50, 60));
        sink.record(ev(0, TraceKind::Compute, 10, 40));
        sink.record(ev(0, TraceKind::Copy, 50, 55));
        assert_eq!(sink.len(), 3);
        let v = sink.take();
        assert_eq!(v[0].start, SimTime::from_ns(10));
        assert_eq!(v[1].pe, 0); // tie at 50 ns: PE 0 first
        assert_eq!(v[2].pe, 1);
        assert!(sink.is_empty());
    }

    #[test]
    fn tsv_rendering() {
        let t = to_tsv(&[ev(2, TraceKind::Wait, 100, 250)]);
        assert!(t.contains("100.0\t250.0\t2\twait\t-\t0"));
    }

    #[test]
    fn summary_accumulates_by_kind() {
        let events = vec![
            ev(0, TraceKind::Copy, 0, 10),
            ev(0, TraceKind::Copy, 20, 50),
            ev(1, TraceKind::Compute, 0, 100),
        ];
        let s = summarize(&events, 2);
        assert_eq!(s[0]["copy"], 40.0);
        assert_eq!(s[1]["compute"], 100.0);
        assert!(!s[0].contains_key("compute"));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "events mention PE 5"))]
    fn summary_never_silently_drops_out_of_range_pes() {
        let events = vec![ev(5, TraceKind::Copy, 0, 10)];
        // Debug builds flag the stale PE count loudly; release builds
        // widen the output instead of dropping the event.
        let s = summarize(&events, 2);
        assert_eq!(s.len(), 6);
        assert_eq!(s[5]["copy"], 10.0);
    }

    #[test]
    fn last_per_pe_keeps_insertion_order_per_pe() {
        let sink = TraceSink::new();
        sink.record(ev(0, TraceKind::Copy, 10, 20));
        sink.record(ev(1, TraceKind::Compute, 0, 5));
        sink.record(ev(0, TraceKind::Atomic, 3, 4)); // earlier start, later insert
        let last = sink.last_per_pe(3);
        assert_eq!(last[0].unwrap().kind, TraceKind::Atomic);
        assert_eq!(last[1].unwrap().kind, TraceKind::Compute);
        assert!(last[2].is_none());
        assert_eq!(sink.len(), 3, "last_per_pe must not drain");
    }

    #[test]
    fn lanes_merge_sorted_and_drain() {
        let sink = TraceSink::with_lanes(2);
        sink.record_lane(1, ev(1, TraceKind::Compute, 30, 30));
        sink.record_lane(0, ev(0, TraceKind::Compute, 10, 10));
        sink.record_lane(0, ev(0, TraceKind::Compute, 50, 50));
        sink.record(ev(7, TraceKind::Compute, 20, 20)); // lane-less caller → overflow log
        assert_eq!(sink.len(), 4);

        let taken = sink.take();
        let starts: Vec<u64> = taken.iter().map(|e| e.start.ns_f64() as u64).collect();
        assert_eq!(starts, vec![10, 20, 30, 50]);
        assert!(sink.is_empty(), "take drains lanes and overflow");

        // Draining is per-event, not per-lane-reset: new appends after a
        // take are the only thing the next take sees.
        sink.record_lane(0, ev(0, TraceKind::Compute, 99, 99));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.take().len(), 1);
    }

    #[test]
    fn lane_grows_past_chunk_boundary() {
        let sink = TraceSink::with_lanes(1);
        let n = CHUNK * 2 + 17;
        for i in 0..n {
            sink.record_lane(0, ev(0, TraceKind::Compute, i as u64, i as u64));
        }
        assert_eq!(sink.len(), n);
        let taken = sink.take();
        assert_eq!(taken.len(), n);
        // Append order equals start order here, so the sort is a no-op
        // and verifies nothing was lost or duplicated across chunks.
        for (i, e) in taken.iter().enumerate() {
            assert_eq!(e.start.ns_f64() as u64, i as u64);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn unknown_lane_falls_back_to_overflow() {
        let sink = TraceSink::with_lanes(1);
        sink.record_lane(5, ev(3, TraceKind::Compute, 40, 40));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.take()[0].pe, 3);
    }

    #[test]
    fn concurrent_lane_writers_lose_nothing() {
        let sink = std::sync::Arc::new(TraceSink::with_lanes(4));
        let per = CHUNK + 100; // force a chunk hand-off per lane
        let handles: Vec<_> = (0..4)
            .map(|lane| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let t = (lane * per + i) as u64;
                        sink.record_lane(lane, ev(lane, TraceKind::Compute, t, t));
                    }
                })
            })
            .collect();
        // Reader racing the writers must only ever see committed events.
        for _ in 0..50 {
            let _ = sink.len();
            let _ = sink.last_per_pe(4);
        }
        for h in handles {
            h.join().unwrap();
        }
        let taken = sink.take();
        assert_eq!(taken.len(), 4 * per);
        let mut counts = [0usize; 4];
        for e in &taken {
            counts[e.pe] += 1;
        }
        assert_eq!(counts, [per; 4]);
    }

    #[test]
    fn last_per_pe_merges_lanes_by_start_time() {
        let sink = TraceSink::with_lanes(2);
        // Same PE traced from its main lane (0) and service lane (1);
        // the later start time must win regardless of lane order.
        sink.record_lane(1, ev(0, TraceKind::Compute, 200, 200));
        sink.record_lane(0, ev(0, TraceKind::Compute, 100, 100));
        let last = sink.last_per_pe(1);
        assert_eq!(last[0].unwrap().start, SimTime::from_ns(200));
    }
}
