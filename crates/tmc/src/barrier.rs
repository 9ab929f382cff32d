//! TMC spin and sync barriers (paper Section III-D, Figure 5).
//!
//! * [`SpinBarrier`] polls an atomic generation counter — lowest latency,
//!   but it burns the core, so it is only appropriate with one task per
//!   tile (exactly the configuration TSHMEM runs).
//! * [`SyncBarrier`] blocks through the scheduler (mutex + condvar, the
//!   analog of TMC's `tmc_sync_barrier`, which notifies the Linux
//!   scheduler): far slower, but tolerates oversubscription.
//!
//! Both are reusable (sense-reversing / generation-counted) and safe for
//! repeated waits by the same fixed set of participants.

use std::sync::atomic::{AtomicUsize, Ordering};

use substrate::sync::{Condvar, Mutex};

/// Sense-reversing spin barrier for a fixed number of participants.
#[derive(Debug)]
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// Barrier for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Self {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    pub fn participants(&self) -> usize {
        self.n
    }

    /// Block (by polling) until all `n` participants have called `wait`.
    /// Returns `true` for exactly one participant per round (the last
    /// arriver), mirroring `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        self.wait_with(|_| std::hint::spin_loop())
    }

    /// [`wait`](Self::wait), calling `pause(attempt)` between polls
    /// (`attempt` counts the failed polls of this wait) — a caller that
    /// shares its core can yield there, or unwind out of the wait.
    #[inline]
    pub fn wait_with(&self, mut pause: impl FnMut(u32)) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset and release the generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
            true
        } else {
            let mut attempt = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                pause(attempt);
                attempt = attempt.wrapping_add(1);
            }
            false
        }
    }
}

/// Scheduler-interacting barrier (mutex + condvar).
#[derive(Debug)]
pub struct SyncBarrier {
    n: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl SyncBarrier {
    /// Barrier for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Self {
            n,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    pub fn participants(&self) -> usize {
        self.n
    }

    /// Block (sleeping) until all `n` participants have called `wait`.
    /// Returns `true` for the last arriver.
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 = st.1.wrapping_add(1);
            self.cv.notify_all();
            true
        } else {
            while st.1 == gen {
                self.cv.wait(&mut st);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn hammer<B: Sync + Send>(b: Arc<B>, n: usize, rounds: usize, wait: fn(&B) -> bool) {
        // All participants must observe every phase boundary in order.
        let phase = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = b.clone();
                let phase = phase.clone();
                s.spawn(move || {
                    for r in 0..rounds {
                        // Everyone sees the phase at least r.
                        assert!(phase.load(Ordering::SeqCst) >= r);
                        if wait(&b) {
                            phase.fetch_add(1, Ordering::SeqCst);
                        }
                        wait(&b); // second barrier so the add is visible
                        assert!(phase.load(Ordering::SeqCst) > r);
                    }
                });
            }
        });
        assert_eq!(phase.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn spin_barrier_synchronizes_many_rounds() {
        hammer(Arc::new(SpinBarrier::new(8)), 8, 50, |b| b.wait());
    }

    #[test]
    fn sync_barrier_synchronizes_many_rounds() {
        hammer(Arc::new(SyncBarrier::new(8)), 8, 50, |b| b.wait());
    }

    #[test]
    fn exactly_one_leader_per_round() {
        let b = Arc::new(SpinBarrier::new(4));
        let leaders = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                let leaders = leaders.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 25);
    }

    #[test]
    fn single_participant_never_blocks() {
        let b = SpinBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
        let sb = SyncBarrier::new(1);
        assert!(sb.wait());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_participants_panics() {
        SpinBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_participants_sync_panics() {
        SyncBarrier::new(0);
    }

    #[test]
    fn oversubscribed_sync_barrier_makes_progress() {
        // More tasks than cores is the sync barrier's reason to exist.
        let n = 64;
        let b = Arc::new(SyncBarrier::new(n));
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        b.wait();
                    }
                });
            }
        });
    }
}
