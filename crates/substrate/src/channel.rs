//! Bounded and unbounded MPMC channels.
//!
//! A minimal in-tree replacement for the `crossbeam_channel` surface the
//! UDN fabric model uses: cloneable [`Sender`]s and [`Receiver`]s over
//! one FIFO queue, blocking `send`/`recv`, `try_recv`, `recv_timeout`,
//! and disconnection detection (a send fails once every receiver is
//! gone; a recv fails once every sender is gone *and* the queue is
//! drained). Bounded channels block the sender when full — exactly the
//! backpressure semantics the fabric's hardware-faithful mode needs.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

/// The sending half failed because all receivers were dropped; the
/// unsent value is returned.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// All senders were dropped and the queue is empty.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Why a non-blocking receive returned nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TryRecvError {
    /// No message available right now.
    Empty,
    /// All senders dropped and the queue is drained.
    Disconnected,
}

/// Why a non-blocking send was refused; the unsent value is returned.
pub enum TrySendError<T> {
    /// A bounded queue is at capacity right now.
    Full(T),
    /// All receivers were dropped.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.pad("Full(..)"),
            TrySendError::Disconnected(_) => f.pad("Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.pad("sending on a full channel"),
            TrySendError::Disconnected(_) => f.pad("sending on a disconnected channel"),
        }
    }
}

impl<T> std::error::Error for TrySendError<T> {}

/// Why a timed receive returned nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// All senders dropped and the queue is drained.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers currently parked in a `not_empty` wait. Maintained
    /// under the state lock so senders can skip the condvar notify —
    /// an unconditional futex syscall on std's condvar — when nobody
    /// is parked (the common case when receivers poll before parking).
    empty_waiters: usize,
    /// Senders currently parked in a `not_full` wait (bounded queues).
    full_waiters: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half of a channel. Cloneable; all clones feed one queue.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of a channel. Cloneable; clones *share* the queue
/// (MPMC — each message is delivered to exactly one receiver).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Create an unbounded channel: sends never block.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make(None)
}

/// Create a bounded channel: a send blocks while `capacity` messages
/// are already queued (backpressure).
///
/// # Panics
/// Panics if `capacity == 0` (rendezvous channels are not modeled).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be at least 1");
    make(Some(capacity))
}

fn make<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            empty_waiters: 0,
            full_waiters: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender { chan: chan.clone() },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Send a message, blocking while a bounded queue is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.chan.state.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            match self.chan.capacity {
                Some(cap) if st.queue.len() >= cap => {
                    st.full_waiters += 1;
                    self.chan.not_full.wait(&mut st);
                    st.full_waiters -= 1;
                }
                _ => break,
            }
        }
        st.queue.push_back(value);
        let wake = st.empty_waiters > 0;
        drop(st);
        if wake {
            self.chan.not_empty.notify_one();
        }
        Ok(())
    }

    /// Non-blocking send: refuses instead of blocking when a bounded
    /// queue is full, returning the value so the caller can retry while
    /// doing other work (e.g. draining its own receive queues — the
    /// deadlock-avoidance pattern for finite-buffer fabrics).
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.chan.state.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = self.chan.capacity {
            if st.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        st.queue.push_back(value);
        let wake = st.empty_waiters > 0;
        drop(st);
        if wake {
            self.chan.not_empty.notify_one();
        }
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live [`Sender`] handles on this channel, this one included — what
    /// a clone takes and a drop gives back.
    pub fn handles(&self) -> usize {
        self.chan.state.lock().senders
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Self {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake receivers blocked on an empty queue so they observe
            // the disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                let wake = st.full_waiters > 0;
                drop(st);
                if wake {
                    self.chan.not_full.notify_one();
                }
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st.empty_waiters += 1;
            self.chan.not_empty.wait(&mut st);
            st.empty_waiters -= 1;
        }
    }

    /// Blocking receive that gives up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                let wake = st.full_waiters > 0;
                drop(st);
                if wake {
                    self.chan.not_full.notify_one();
                }
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st.empty_waiters += 1;
            self.chan.not_empty.wait_timeout(&mut st, deadline - now);
            st.empty_waiters -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.state.lock();
        if let Some(v) = st.queue.pop_front() {
            let wake = st.full_waiters > 0;
            drop(st);
            if wake {
                self.chan.not_full.notify_one();
            }
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Self {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            // Wake senders blocked on a full queue so they observe the
            // disconnect.
            self.chan.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..1000u64 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..1000u64 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        t.join().unwrap();
    }

    #[test]
    fn mpmc_each_message_delivered_once() {
        let (tx, rx) = unbounded::<u64>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        drop(tx);
        drop(rx);
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expect: u64 = (0..500).sum::<u64>() + (1000..1500).sum::<u64>();
        assert_eq!(total, expect);
    }

    #[test]
    fn bounded_send_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = std::thread::spawn(move || {
            let t0 = Instant::now();
            tx.send(3).unwrap();
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(rx.recv().unwrap(), 1);
        let blocked = t.join().unwrap();
        assert!(blocked >= Duration::from_millis(20), "blocked {blocked:?}");
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
    }

    #[test]
    fn recv_sees_disconnect_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn blocked_recv_woken_by_sender_drop() {
        let (tx, rx) = unbounded::<u8>();
        let t = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_all_receivers_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocked_bounded_send_woken_by_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).is_err());
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(t.join().unwrap());
    }

    #[test]
    fn try_recv_empty_vs_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn try_send_full_vs_disconnected() {
        let (tx, rx) = bounded(1);
        assert!(tx.try_send(1).is_ok());
        match tx.try_send(2) {
            Err(TrySendError::Full(v)) => assert_eq!(v, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        match tx.try_send(4) {
            Err(TrySendError::Disconnected(v)) => assert_eq!(v, 4),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn try_send_never_blocks_on_unbounded() {
        let (tx, rx) = unbounded();
        for i in 0..1000 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(rx.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u8>(0);
    }
}
