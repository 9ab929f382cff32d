//! Functional UDN fabric for the wall-clock engines.
//!
//! Each tile owns four demultiplexing queues, modeled as MPMC channels of
//! whole packets (wormhole delivery is atomic from software's point of
//! view — the receive side pops complete packets). The fabric validates
//! the same payload limits as the hardware so that protocol code tested
//! here would also fit the real device.
//!
//! The send side of the fabric is **one table** of `tiles × 4` senders,
//! built once and shared by reference count: every [`UdnEndpoint`] and
//! every clone of one holds the same `Arc`. Building a
//! fabric is therefore linear in tiles, and handing an endpoint to
//! another context (or dropping it) touches that tile's four receivers
//! and one reference count, whatever the fabric's size.

use std::sync::Arc;

use substrate::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use crate::packet::{Header, Packet, MAX_PAYLOAD_WORDS, NUM_QUEUES};

/// One tile's connection to the UDN: its four receive queues plus the
/// fabric's one sender table, onto every tile's queues.
///
/// Cloning shares the underlying queues (MPMC): a PE's main context and
/// its interrupt-service context receive from the same endpoint, the
/// service context consuming only queue
/// [`crate::packet::NUM_QUEUES`]`- 1` while the PE consumes the rest.
#[derive(Clone)]
pub struct UdnEndpoint {
    rx: Vec<Receiver<Packet>>,
    tile: usize,
    /// `table[tile][queue]`, shared by the whole fabric.
    table: Arc<[[Sender<Packet>; NUM_QUEUES]]>,
}

impl UdnEndpoint {
    /// This endpoint's tile id.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of tiles on the fabric.
    pub fn tiles(&self) -> usize {
        self.table.len()
    }

    /// The validated packet and the queue it goes to.
    fn route(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> (&Sender<Packet>, Packet) {
        assert!(queue < NUM_QUEUES, "queue {queue} out of range");
        assert!(dest < self.table.len(), "unknown destination tile {dest}");
        let pkt = Packet::new(
            Header {
                dest: dest as u16,
                src: self.tile as u16,
                queue: queue as u8,
                tag,
            },
            payload,
        );
        (&self.table[dest][queue], pkt)
    }

    /// Send `payload` to `dest`'s demux queue `queue` with software tag
    /// `tag`, stalling on flow control while a bounded queue is full.
    ///
    /// # Panics
    /// Panics if the payload exceeds the 127-word hardware limit, the
    /// queue index is out of range, or `dest` is unknown.
    pub fn send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) {
        let (tx, pkt) = self.route(dest, queue, tag, payload);
        // The receiver can only have hung up if its PE exited early —
        // surfacing that as a panic beats silently dropping the packet.
        tx.send(pkt).expect("UDN destination endpoint dropped");
    }

    /// Non-blocking send: `false` when `dest`'s queue is full instead of
    /// stalling on flow control. Protocol code that must stay live while
    /// the destination backs up (e.g. barrier tokens on bounded queues)
    /// retries this while draining its own demux queues — the software
    /// analog of the UDN interrupt handler running during a stalled send.
    ///
    /// # Panics
    /// Same validation as [`send`](Self::send); also panics if the
    /// destination endpoint was dropped.
    pub fn try_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> bool {
        let (tx, pkt) = self.route(dest, queue, tag, payload);
        match tx.try_send(pkt) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => false,
            Err(TrySendError::Disconnected(_)) => panic!("UDN destination endpoint dropped"),
        }
    }

    /// Send a buffer larger than one packet by chunking (keeps per-packet
    /// payloads within the hardware limit).
    pub fn send_bulk(&self, dest: usize, queue: usize, tag: u16, words: &[u64]) {
        if words.is_empty() {
            self.send(dest, queue, tag, &[]);
            return;
        }
        for chunk in words.chunks(MAX_PAYLOAD_WORDS) {
            self.send(dest, queue, tag, chunk);
        }
    }

    /// Blocking receive from demux queue `queue`.
    pub fn recv(&self, queue: usize) -> Packet {
        self.rx[queue].recv().expect("UDN fabric disconnected")
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, queue: usize) -> Option<Packet> {
        self.rx[queue].try_recv().ok()
    }

    /// Current occupancy (packets) of this endpoint's demux queue —
    /// observability for stall diagnosis; the value is a racy snapshot.
    pub fn queue_len(&self, queue: usize) -> usize {
        self.rx[queue].len()
    }

    /// Current occupancy of a *destination* tile's demux queue, as seen
    /// from this endpoint's send side — a racy snapshot used by the
    /// fault plane to clamp effective queue depth below the fabric's
    /// real bound.
    pub fn dest_queue_len(&self, dest: usize, queue: usize) -> usize {
        self.table[dest][queue].len()
    }

    /// Clone of the receiver for `queue`.
    pub fn queue_receiver(&self, queue: usize) -> Receiver<Packet> {
        self.rx[queue].clone()
    }
}

/// The whole-fabric constructor: builds `tiles` endpoints wired all-to-all.
pub struct UdnFabric;

#[allow(clippy::new_ret_no_self)] // a fabric *is* its set of endpoints
impl UdnFabric {
    /// Create endpoints for `tiles` tiles with unbounded queues —
    /// TSHMEM's protocol traffic is small and self-limiting, and
    /// unbounded buffering cannot deadlock.
    pub fn new(tiles: usize) -> Vec<UdnEndpoint> {
        Self::build(tiles, None)
    }

    /// Create endpoints with **bounded** demux queues of
    /// `capacity_packets` each — the hardware-faithful mode: a sender
    /// blocks (backpressure into the mesh) when the destination queue is
    /// full, exactly as wormhole flow control would stall it. The real
    /// device holds 127 words per queue (1–2 packets' worth); protocols
    /// run under this mode in tests to prove they cannot deadlock on
    /// finite buffering.
    pub fn new_bounded(tiles: usize, capacity_packets: usize) -> Vec<UdnEndpoint> {
        assert!(capacity_packets > 0, "queues need capacity for at least one packet");
        Self::build(tiles, Some(capacity_packets))
    }

    fn build(tiles: usize, capacity: Option<usize>) -> Vec<UdnEndpoint> {
        assert!(tiles > 0);
        let mut table = Vec::with_capacity(tiles);
        let mut receivers = Vec::with_capacity(tiles);
        for _ in 0..tiles {
            let mut rx = Vec::with_capacity(NUM_QUEUES);
            table.push(std::array::from_fn(|_| {
                let (s, r) = match capacity {
                    Some(c) => bounded(c),
                    None => unbounded(),
                };
                rx.push(r);
                s
            }));
            receivers.push(rx);
        }
        let table: Arc<[_]> = table.into();
        receivers
            .into_iter()
            .enumerate()
            .map(|(tile, rx)| UdnEndpoint {
                rx,
                tile,
                table: table.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn point_to_point_delivery() {
        let eps = UdnFabric::new(4);
        eps[0].send(3, 1, 7, &[10, 20, 30]);
        let p = eps[3].recv(1);
        assert_eq!(p.header.src, 0);
        assert_eq!(p.header.dest, 3);
        assert_eq!(p.header.tag, 7);
        assert_eq!(p.payload, vec![10, 20, 30]);
    }

    #[test]
    fn queues_do_not_cross() {
        let eps = UdnFabric::new(2);
        eps[0].send(1, 0, 0, &[1]);
        eps[0].send(1, 2, 0, &[2]);
        assert!(eps[1].try_recv(1).is_none());
        assert_eq!(eps[1].recv(2).payload, vec![2]);
        assert_eq!(eps[1].recv(0).payload, vec![1]);
    }

    #[test]
    fn fifo_order_per_sender_per_queue() {
        let eps = UdnFabric::new(2);
        for i in 0..100u64 {
            eps[0].send(1, 0, 0, &[i]);
        }
        for i in 0..100u64 {
            assert_eq!(eps[1].recv(0).payload, vec![i]);
        }
    }

    #[test]
    fn send_to_self_works() {
        let eps = UdnFabric::new(1);
        eps[0].send(0, 0, 5, &[9]);
        assert_eq!(eps[0].recv(0).payload, vec![9]);
    }

    #[test]
    fn bulk_send_chunks_within_limit() {
        let eps = UdnFabric::new(2);
        let words: Vec<u64> = (0..300).collect();
        eps[0].send_bulk(1, 0, 1, &words);
        let mut got = Vec::new();
        while got.len() < 300 {
            let p = eps[1].recv(0);
            assert!(p.payload.len() <= MAX_PAYLOAD_WORDS);
            got.extend(p.payload);
        }
        assert_eq!(got, words);
    }

    #[test]
    fn bulk_send_empty_still_delivers_a_packet() {
        let eps = UdnFabric::new(2);
        eps[0].send_bulk(1, 0, 9, &[]);
        let p = eps[1].recv(0);
        assert!(p.payload.is_empty());
        assert_eq!(p.header.tag, 9);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = UdnFabric::new(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let p = e1.recv(0);
            e1.send(0, 0, 0, &[p.payload[0] * 2]);
        });
        e0.send(1, 0, 0, &[21]);
        assert_eq!(e0.recv(0).payload, vec![42]);
        t.join().unwrap();
    }

    #[test]
    fn sender_handle_sends_from_service_thread() {
        let eps = UdnFabric::new(2);
        let s = eps[0].clone();
        std::thread::spawn(move || s.send(1, 3, 2, &[5]))
            .join()
            .unwrap();
        assert_eq!(eps[1].recv(3).payload, vec![5]);
    }

    #[test]
    fn sender_table_is_built_once_and_shared() {
        // However many handles a 256-tile fabric gives out, each queue
        // keeps the one sender it was built with.
        let eps = UdnFabric::new(256);
        let clones: Vec<_> = eps.iter().flat_map(|e| [e.clone(), e.clone()]).collect();
        for queues in eps[0].table.iter() {
            for q in queues {
                assert_eq!(q.handles(), 1, "one sender per queue per fabric");
            }
        }
        // One surviving endpoint keeps the whole send side alive...
        drop(clones);
        let mut eps = eps;
        let last = eps.swap_remove(7);
        drop(eps);
        let rx = last.queue_receiver(2);
        last.send(7, 2, 9, &[1]);
        assert_eq!(rx.recv().expect("delivered").payload, vec![1]);
        // ...and the last one to go disconnects the receivers.
        drop(last);
        assert!(rx.recv().is_err());
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn sender_handle_validates_the_destination() {
        UdnFabric::new(2)[0].send(2, 0, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_queue_send_panics() {
        let eps = UdnFabric::new(1);
        eps[0].send(0, 4, 0, &[]);
    }

    #[test]
    fn bounded_fabric_applies_backpressure() {
        let mut eps = UdnFabric::new_bounded(2, 2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        // Fill the queue, then show the next send blocks until the
        // receiver drains (sender thread + timing probe).
        e0.send(1, 0, 0, &[1]);
        e0.send(1, 0, 0, &[2]);
        let t = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            e0.send(1, 0, 0, &[3]); // blocks: queue full
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(e1.recv(0).payload, vec![1]); // drain one slot
        let blocked_for = t.join().unwrap();
        assert!(
            blocked_for >= Duration::from_millis(30),
            "sender should have stalled, blocked {blocked_for:?}"
        );
        assert_eq!(e1.recv(0).payload, vec![2]);
        assert_eq!(e1.recv(0).payload, vec![3]);
    }

    #[test]
    fn bounded_fabric_delivers_heavy_traffic() {
        // Many packets through tiny queues: flow control, not loss.
        let mut eps = UdnFabric::new_bounded(2, 1);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let sender = std::thread::spawn(move || {
            for i in 0..500u64 {
                e0.send(1, (i % 3) as usize, 0, &[i]);
            }
        });
        let mut got = 0u64;
        for i in 0..500u64 {
            let p = e1.recv((i % 3) as usize);
            assert_eq!(p.payload, vec![i]);
            got += 1;
        }
        sender.join().unwrap();
        assert_eq!(got, 500);
    }

    #[test]
    fn try_send_reports_full_queue_without_blocking() {
        let eps = UdnFabric::new_bounded(2, 2);
        assert!(eps[0].try_send(1, 0, 0, &[1]));
        assert!(eps[0].try_send(1, 0, 0, &[2]));
        assert!(!eps[0].try_send(1, 0, 0, &[3])); // full, returns instead of stalling
        assert_eq!(eps[1].recv(0).payload, vec![1]);
        assert!(eps[0].try_send(1, 0, 0, &[3])); // slot freed
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        UdnFabric::new_bounded(2, 0);
    }
}
