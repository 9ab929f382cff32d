//! Model of the TILE-Gx **mPIPE** (multicore Programmable Intelligent
//! Packet Engine) used as an inter-chip transport.
//!
//! The TSHMEM paper closes with the plan to "leverage novel
//! architectural features of the TILE-Gx such as the mPIPE packet
//! engine as we explore designs for expanding the shared-memory
//! abstraction in TSHMEM across multiple many-core devices"
//! (Section VI). This crate provides the transport model that the
//! virtual-time engine (`tshmem::engine::timed`) charges across chips:
//!
//! * **Frame math** — payloads segment into MTU-sized Ethernet frames,
//!   each paying per-frame engine + wire overhead; mPIPE's hardware
//!   classification makes per-frame software cost tiny (that is its
//!   selling point — wire-speed classification and distribution).
//! * **Link model** — full-duplex point-to-point links (XAUI, 10 Gbps
//!   per direction) with busy-until FIFO bandwidth accounting per
//!   direction.
//!
//! The functional data path of a multi-chip job stays in process (the
//! chips are simulated); what this crate supplies is the *cost* of
//! crossing a chip boundary, which is 100× the on-chip UDN latency and
//! bandwidth-limited at 1.25 GB/s per direction — exactly the regime
//! change the future-work experiments quantify.

use desim::resource::Resource;
use desim::time::SimTime;

/// Timing model of one mPIPE-to-mPIPE link.
#[derive(Clone, Copy, Debug)]
pub struct MpipeTimings {
    /// Maximum payload bytes per frame (jumbo Ethernet).
    pub mtu_bytes: usize,
    /// Fixed cost per frame: mPIPE ingress/egress processing plus NIC
    /// and wire latency, ps.
    pub frame_overhead_ps: u64,
    /// Serialization cost per payload byte, ps (10 Gbps = 0.8 ns/byte).
    pub per_byte_ps: u64,
    /// One-way propagation between adjacent chips, ps.
    pub propagation_ps: u64,
}

impl MpipeTimings {
    /// A 10 Gbps XAUI-class link between neighboring boards.
    pub const fn xaui_10g() -> Self {
        Self {
            mtu_bytes: 9000,
            // ~1.5 us of engine + descriptor handling per frame.
            frame_overhead_ps: 1_500_000,
            per_byte_ps: 800, // 0.8 ns/byte = 10 Gbps
            propagation_ps: 500_000,
        }
    }

    /// Number of frames a payload needs.
    pub fn frames(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1 // a bare header/doorbell still crosses the wire
        } else {
            bytes.div_ceil(self.mtu_bytes)
        }
    }

    /// Wire occupancy (serialization) time for a payload, ps — the time
    /// the link direction is busy.
    pub fn serialization_ps(&self, bytes: usize) -> u64 {
        self.frames(bytes) as u64 * self.frame_overhead_ps + bytes as u64 * self.per_byte_ps
    }

    /// One-way latency of the *first* byte group: overhead + propagation
    /// plus the first frame's serialization.
    pub fn first_frame_latency_ps(&self, bytes: usize) -> u64 {
        let first = bytes.min(self.mtu_bytes);
        self.frame_overhead_ps + self.propagation_ps + first as u64 * self.per_byte_ps
    }

    /// Effective bandwidth of a `bytes`-sized transfer, MB/s.
    pub fn effective_mbps(&self, bytes: usize) -> f64 {
        let total_ps = self.serialization_ps(bytes) + self.propagation_ps;
        tile_arch::clock::bandwidth_mbps(bytes as u64, total_ps)
    }
}

/// A fault injected into one wire frame (the multichip engine's fault
/// plane selects which frame). All three are **caught-class**: the
/// receiving mPIPE's CRC/sequence check detects them and panics with a
/// diagnosis naming the link — they never corrupt delivered data
/// silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// Flip bits in flight: the ingress CRC check fails.
    Corrupt,
    /// Lose the frame: the *next* frame's sequence check reports a gap
    /// (or, with no further traffic, the receiver's wait wedges and the
    /// drained-queue watchdog reports the stall).
    Drop,
    /// Deliver the frame twice: the replay trips the sequence check.
    Duplicate,
}

/// CRC-64-ECMA over a simulated frame header (sequence number + length).
/// The modeled chips share an address space, so the "frame" we checksum
/// is the header a real mPIPE egress descriptor would carry.
pub fn frame_crc(seq: u64, bytes: u64) -> u64 {
    const POLY: u64 = 0x42F0_E1EB_A9EA_3693;
    let mut crc = !0u64;
    for word in [seq, bytes] {
        for byte in word.to_le_bytes() {
            crc ^= (byte as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 { (crc << 1) ^ POLY } else { crc << 1 };
            }
        }
    }
    !crc
}

/// Per-direction frame-integrity state: the next sequence number the
/// egress side will stamp and the next one ingress expects.
#[derive(Clone, Copy, Debug, Default)]
struct DirIntegrity {
    next_tx: u64,
    next_rx: u64,
}

/// A full-duplex link between two chips, with FIFO bandwidth accounting
/// per direction.
#[derive(Clone, Debug)]
pub struct MpipeLink {
    pub timings: MpipeTimings,
    /// Busy-until state per direction: `[a->b, b->a]`.
    dirs: [Resource; 2],
    /// Frame CRC/sequence state per direction.
    integ: [DirIntegrity; 2],
    /// Chip ids `(a, b)` at the link ends, for diagnostics.
    ends: (usize, usize),
}

impl MpipeLink {
    pub fn new(timings: MpipeTimings) -> Self {
        Self::between(timings, 0, 1)
    }

    /// A link whose integrity diagnostics name the chips it connects
    /// (direction 0 is `a` → `b`).
    pub fn between(timings: MpipeTimings, a: usize, b: usize) -> Self {
        Self {
            timings,
            dirs: [Resource::new(), Resource::new()],
            integ: [DirIntegrity::default(); 2],
            ends: (a, b),
        }
    }

    fn end_names(&self, dir: usize) -> (usize, usize) {
        let (a, b) = self.ends;
        if dir == 0 { (a, b) } else { (b, a) }
    }

    /// Occupy direction `dir` (0 = a→b, 1 = b→a) for a `bytes` payload
    /// starting no earlier than `now`; returns the arrival time of the
    /// last byte at the far side.
    pub fn transfer(&mut self, dir: usize, now: SimTime, bytes: usize) -> SimTime {
        let ser = SimTime::from_ps(self.timings.serialization_ps(bytes));
        let done = self.dirs[dir].acquire(now, ser);
        done + SimTime::from_ps(self.timings.propagation_ps)
    }

    /// [`transfer`](Self::transfer) with the frame-integrity layer: the
    /// egress side stamps sequence numbers and a CRC, `fault` (if any)
    /// mangles the frame in flight, and the ingress check verifies —
    /// panicking with a diagnosis that **names the link** on a CRC
    /// mismatch, a sequence gap (lost frames), or a replay.
    ///
    /// Returns `None` when the frame was dropped in flight: the wire
    /// time was spent but nothing arrived, so the caller must not
    /// deliver — detection happens at the next frame's sequence check.
    pub fn transfer_checked(
        &mut self,
        dir: usize,
        now: SimTime,
        bytes: usize,
        fault: Option<FrameFault>,
    ) -> Option<SimTime> {
        let nframes = self.timings.frames(bytes) as u64;
        let seq = self.integ[dir].next_tx;
        self.integ[dir].next_tx += nframes;
        let crc = frame_crc(seq, bytes as u64);
        // The wire is occupied whatever happens to the frame afterwards.
        let arrival = self.transfer(dir, now, bytes);
        match fault {
            Some(FrameFault::Drop) => return None,
            Some(FrameFault::Corrupt) => {
                self.ingress_check(dir, seq, nframes, bytes, crc ^ (1 << 17));
            }
            Some(FrameFault::Duplicate) => {
                self.ingress_check(dir, seq, nframes, bytes, crc);
                self.ingress_check(dir, seq, nframes, bytes, crc);
            }
            None => self.ingress_check(dir, seq, nframes, bytes, crc),
        }
        Some(arrival)
    }

    /// The receiving mPIPE's classification step: verify CRC, then the
    /// sequence window.
    fn ingress_check(&mut self, dir: usize, seq: u64, nframes: u64, bytes: usize, crc: u64) {
        let (from, to) = self.end_names(dir);
        let expected = frame_crc(seq, bytes as u64);
        assert!(
            crc == expected,
            "mPIPE link chip{from}->chip{to}: CRC mismatch on frame {seq} \
             ({bytes}-byte payload): got {crc:#018x}, expected {expected:#018x}"
        );
        let rx = &mut self.integ[dir].next_rx;
        assert!(
            seq >= *rx,
            "mPIPE link chip{from}->chip{to}: replayed frame {seq} (duplicate delivery; \
             expected sequence {rx})"
        );
        assert!(
            seq == *rx,
            "mPIPE link chip{from}->chip{to}: sequence gap at frame {seq}: {} frame(s) lost",
            seq - *rx
        );
        *rx = seq + nframes;
    }

    /// Total bytes-time served on a direction (for utilization reports).
    pub fn busy(&self, dir: usize) -> SimTime {
        self.dirs[dir].busy_time()
    }

    pub fn reset(&mut self) {
        self.dirs = [Resource::new(), Resource::new()];
        self.integ = [DirIntegrity::default(); 2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> MpipeTimings {
        MpipeTimings::xaui_10g()
    }

    #[test]
    fn frame_counts() {
        let m = t();
        assert_eq!(m.frames(0), 1);
        assert_eq!(m.frames(1), 1);
        assert_eq!(m.frames(9000), 1);
        assert_eq!(m.frames(9001), 2);
        assert_eq!(m.frames(90_000), 10);
    }

    #[test]
    fn bandwidth_asymptote_near_10gbps() {
        let m = t();
        // Large transfers approach the line rate (1250 MB/s), minus
        // per-frame overhead (~17%).
        let bw = m.effective_mbps(64 << 20);
        assert!((950.0..1250.0).contains(&bw), "{bw}");
        // Small transfers are latency-dominated.
        let small = m.effective_mbps(64);
        assert!(small < 50.0, "{small}");
    }

    #[test]
    fn cross_chip_latency_is_microseconds() {
        // The regime change vs the ~21 ns on-chip UDN.
        let m = t();
        let ns = m.first_frame_latency_ps(8) as f64 / 1e3;
        assert!((1_000.0..5_000.0).contains(&ns), "{ns} ns");
    }

    #[test]
    fn directions_are_independent() {
        let mut l = MpipeLink::new(t());
        let now = SimTime::ZERO;
        let a = l.transfer(0, now, 9000);
        let b = l.transfer(1, now, 9000);
        assert_eq!(a, b, "directions must not contend");
        // Same direction serializes.
        let c = l.transfer(0, now, 9000);
        assert!(c > a);
    }

    #[test]
    fn checked_transfer_matches_unchecked_cost_and_tracks_sequence() {
        let mut plain = MpipeLink::new(t());
        let mut checked = MpipeLink::between(t(), 0, 1);
        for bytes in [8, 9000, 40_000] {
            let a = plain.transfer(0, SimTime::ZERO, bytes);
            let b = checked
                .transfer_checked(0, SimTime::ZERO, bytes, None)
                .expect("healthy frame arrives");
            assert_eq!(a, b, "integrity layer must not change the cost model");
        }
        // Directions keep independent sequence state.
        checked.transfer_checked(1, SimTime::ZERO, 8, None).unwrap();
    }

    #[test]
    #[should_panic(expected = "mPIPE link chip2->chip5: CRC mismatch on frame 0")]
    fn corrupted_frame_is_caught_and_names_the_link() {
        let mut l = MpipeLink::between(t(), 2, 5);
        l.transfer_checked(0, SimTime::ZERO, 64, Some(FrameFault::Corrupt));
    }

    #[test]
    #[should_panic(expected = "mPIPE link chip0->chip1: sequence gap at frame 1: 1 frame(s) lost")]
    fn dropped_frame_is_caught_at_the_next_frame() {
        let mut l = MpipeLink::between(t(), 0, 1);
        assert!(l.transfer_checked(0, SimTime::ZERO, 64, Some(FrameFault::Drop)).is_none());
        l.transfer_checked(0, SimTime::ZERO, 64, None);
    }

    #[test]
    #[should_panic(expected = "mPIPE link chip1->chip0: replayed frame 0")]
    fn duplicated_frame_is_caught_as_replay() {
        let mut l = MpipeLink::between(t(), 0, 1);
        l.transfer_checked(1, SimTime::ZERO, 64, Some(FrameFault::Duplicate));
    }

    #[test]
    fn fifo_backlog_accumulates() {
        let mut l = MpipeLink::new(t());
        let mut done = SimTime::ZERO;
        for _ in 0..10 {
            done = l.transfer(0, SimTime::ZERO, 9000);
        }
        let ser = l.timings.serialization_ps(9000);
        assert_eq!(done.ps(), 10 * ser + l.timings.propagation_ps);
        assert_eq!(l.busy(0).ps(), 10 * ser);
        l.reset();
        assert_eq!(l.busy(0), SimTime::ZERO);
    }
}
