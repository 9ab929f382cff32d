//! Barrier synchronization (paper Section IV-C1).
//!
//! The paper's design synchronizes over the UDN: the start PE of the
//! active set generates an *active-set identification* (so overlapping
//! barrier calls on different sets can't return out of order or stall),
//! encodes it with a **wait** signal, and sends it linearly around the
//! set; when it comes back, the process repeats with a **release**
//! signal. A broadcast-release variant and the TMC spin barrier are
//! selectable for the ablation study.

use crate::active_set::ActiveSet;
use crate::ctx::{BarrierAlgo, ShmemCtx};
use crate::fabric::{BlockedOn, ProtoMsg, Q_BARRIER};

/// Ring token carrying a *wait* signal.
pub const TAG_BAR_WAIT: u16 = 10;
/// Ring token carrying a *release* signal.
pub const TAG_BAR_RELEASE: u16 = 11;
/// Arrival notification (root-broadcast variant).
pub const TAG_BAR_ARRIVE: u16 = 12;
/// Round signal of the dissemination barrier.
pub const TAG_BAR_DISS: u16 = 13;

impl ShmemCtx {
    /// Barrier across all PEs (`shmem_barrier_all`).
    pub fn barrier_all(&self) {
        self.barrier(self.world());
    }

    /// Barrier across an active set (`shmem_barrier`). Also completes
    /// all outstanding puts (the OpenSHMEM barrier includes a quiet).
    ///
    /// # Panics
    /// Panics if this PE is not a member of `set` or the set exceeds the
    /// job size.
    pub fn barrier(&self, set: ActiveSet) {
        self.stats.borrow_mut().barriers += 1;
        self.sync_set(set);
    }

    /// [`ShmemCtx::barrier`] without the `Stats::barriers` count: the
    /// synchronisation a collective does on its own behalf. Keeping it
    /// out of the count makes `barriers` the number of barriers the
    /// program asked for, whichever transport carried its collectives
    /// (the counter-cell pass has no bracketing barriers to count).
    pub(crate) fn sync_set(&self, set: ActiveSet) {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set {set:?}", self.my_pe()));
        // Barrier completes outstanding nbi ops (it subsumes a quiet),
        // but without bumping the `quiets` counter — fence/quiet stats
        // stay attributable to the explicit entry points.
        self.complete_puts();
        if set.size == 1 {
            return;
        }
        if let Some(cl) = self.select(set, rank, self.algos.barrier.into()) {
            return self.cell_pass(&cl, || {}, || {}, || {});
        }
        match self.algos.barrier {
            BarrierAlgo::Ring => self.barrier_ring(set, rank),
            BarrierAlgo::RootBroadcast => self.barrier_root_broadcast(set, rank),
            BarrierAlgo::TmcSpin => self.fab.tmc_spin_barrier(set.triplet()),
            BarrierAlgo::Dissemination => self.barrier_dissemination(set, rank),
        }
    }

    /// Explicit ring barrier (exposed for the ablation benches regardless
    /// of the configured default).
    pub fn barrier_ring_explicit(&self, set: ActiveSet) {
        let rank = set.rank_of(self.my_pe()).expect("not in set");
        self.complete_puts();
        if set.size > 1 {
            self.barrier_ring(set, rank);
        }
    }

    /// Explicit root-broadcast barrier (for the ablation benches).
    pub fn barrier_root_broadcast_explicit(&self, set: ActiveSet) {
        let rank = set.rank_of(self.my_pe()).expect("not in set");
        self.complete_puts();
        if set.size > 1 {
            self.barrier_root_broadcast(set, rank);
        }
    }

    /// Explicit dissemination barrier (for the ablation benches).
    pub fn barrier_dissemination_explicit(&self, set: ActiveSet) {
        let rank = set.rank_of(self.my_pe()).expect("not in set");
        self.complete_puts();
        if set.size > 1 {
            self.barrier_dissemination(set, rank);
        }
    }

    /// Explicit clustered barrier (for the scaling benches): the
    /// payload-free counter-cell pass wherever the fabric has cells for
    /// `set`, otherwise what [`ShmemCtx::barrier`] runs.
    pub fn barrier_hier_explicit(&self, set: ActiveSet) {
        let rank = set.rank_of(self.my_pe()).expect("not in set");
        match self.cluster_for(set, rank) {
            Some(cl) if set.size > 1 => {
                self.complete_puts();
                self.cell_pass(&cl, || {}, || {}, || {});
            }
            _ => self.sync_set(set),
        }
    }

    /// Dissemination barrier: in round k every member signals the member
    /// 2^k ranks ahead and waits for the signal from 2^k ranks behind —
    /// ⌈log2 n⌉ parallel rounds instead of the ring's 2n serial hops.
    fn barrier_dissemination(&self, set: ActiveSet, rank: usize) {
        let id = set.ident();
        let n = set.size;
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < n {
            let to = set.pe_at((rank + dist) % n);
            self.send_draining(to, Q_BARRIER, TAG_BAR_DISS, &[id, round]);
            self.recv_matching(Q_BARRIER, |m: &ProtoMsg| {
                m.tag == TAG_BAR_DISS && m.payload.first() == Some(&id) && m.payload.get(1) == Some(&round)
            });
            dist <<= 1;
            round += 1;
        }
    }

    fn barrier_ring(&self, set: ActiveSet, rank: usize) {
        let id = set.ident();
        let next = set.pe_at((rank + 1) % set.size);
        let m = |tag: u16| move |m: &ProtoMsg| m.tag == tag && m.payload.first() == Some(&id);
        if rank == 0 {
            // Wait phase: send the token around; its return means every
            // member reached the barrier.
            self.send_draining(next, Q_BARRIER, TAG_BAR_WAIT, &[id]);
            self.recv_matching(Q_BARRIER, m(TAG_BAR_WAIT));
            // Release phase.
            self.send_draining(next, Q_BARRIER, TAG_BAR_RELEASE, &[id]);
            self.recv_matching(Q_BARRIER, m(TAG_BAR_RELEASE));
        } else {
            self.recv_matching(Q_BARRIER, m(TAG_BAR_WAIT));
            self.send_draining(next, Q_BARRIER, TAG_BAR_WAIT, &[id]);
            self.recv_matching(Q_BARRIER, m(TAG_BAR_RELEASE));
            self.send_draining(next, Q_BARRIER, TAG_BAR_RELEASE, &[id]);
        }
    }

    fn barrier_root_broadcast(&self, set: ActiveSet, rank: usize) {
        let id = set.ident();
        let root = set.pe_at(0);
        if rank == 0 {
            for _ in 1..set.size {
                self.recv_matching(Q_BARRIER, |m: &ProtoMsg| {
                    m.tag == TAG_BAR_ARRIVE && m.payload.first() == Some(&id)
                });
            }
            for r in 1..set.size {
                self.send_draining(set.pe_at(r), Q_BARRIER, TAG_BAR_RELEASE, &[id]);
            }
        } else {
            self.send_draining(root, Q_BARRIER, TAG_BAR_ARRIVE, &[id]);
            self.recv_matching(Q_BARRIER, |m: &ProtoMsg| {
                m.tag == TAG_BAR_RELEASE && m.payload.first() == Some(&id)
            });
        }
    }

    /// Send a protocol token without stalling our own demux queue: while
    /// the destination queue is full, drain arrivals on our `queue` into
    /// the stash instead of blocking. A PE blocked in a plain send cannot
    /// consume, so on finite-buffer fabrics a cycle of full-queue senders
    /// deadlocks (e.g. overlapping dissemination-barrier rounds with
    /// 2-packet queues); draining while stalled breaks every such cycle —
    /// the software analog of Tilera's UDN interrupt handler running
    /// while a send spins on wormhole flow control.
    pub(crate) fn send_draining(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) {
        if self.blocking_sends {
            // Fault injection (watchdog canary): the pre-fix plain
            // blocking send, which reintroduces the deadlock above.
            if let Some(p) = self.fab.probe() {
                p.set_blocked(BlockedOn::SendFull { dest, queue });
            }
            self.fab.udn_send(dest, queue, tag, payload);
            if let Some(p) = self.fab.probe() {
                p.set_blocked(BlockedOn::Running);
            }
            return;
        }
        let mut attempt = 0u32;
        let mut published = false;
        while !self.fab.udn_try_send(dest, queue, tag, payload) {
            if !published {
                // First refusal: publish where we're wedged so a stall
                // watchdog can name the full destination queue.
                if let Some(p) = self.fab.probe() {
                    p.set_blocked(BlockedOn::SendFull { dest, queue });
                }
                published = true;
            }
            if let Some(m) = self.fab.udn_try_recv(queue) {
                self.stash.borrow_mut().push(m);
                self.mirror_stash();
            } else {
                self.fab.wait_pause(attempt);
                attempt = attempt.wrapping_add(1);
            }
        }
        if published {
            if let Some(p) = self.fab.probe() {
                p.set_blocked(BlockedOn::Running);
            }
        }
    }

    /// Receive from `queue`, parking mismatched messages in the stash so
    /// overlapping protocol exchanges cannot steal each other's tokens.
    pub(crate) fn recv_matching(&self, queue: usize, pred: impl Fn(&ProtoMsg) -> bool) -> ProtoMsg {
        {
            let mut stash = self.stash.borrow_mut();
            if let Some(i) = stash.iter().position(&pred) {
                let m = stash.swap_remove(i);
                drop(stash);
                self.mirror_stash();
                return m;
            }
        }
        loop {
            let msg = self.fab.udn_recv(queue);
            if pred(&msg) {
                return msg;
            }
            self.stash.borrow_mut().push(msg);
            self.mirror_stash();
        }
    }
}
