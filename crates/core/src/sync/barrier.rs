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
use crate::collectives::hier;
use crate::ctx::{BarrierAlgo, ShmemCtx};
use crate::fabric::{BlockedOn, Locality, ProtoMsg, Q_BARRIER};

/// Ring token carrying a *wait* signal.
pub const TAG_BAR_WAIT: u16 = 10;
/// Ring token carrying a *release* signal.
pub const TAG_BAR_RELEASE: u16 = 11;
/// Arrival notification (root-broadcast variant).
pub const TAG_BAR_ARRIVE: u16 = 12;
/// Round signal of the dissemination barrier.
pub const TAG_BAR_DISS: u16 = 13;
/// Cluster-gather signal of the hierarchical barrier.
pub const TAG_BAR_HGATHER: u16 = 14;
/// Leader-dissemination round signal of the hierarchical barrier.
pub const TAG_BAR_HDISS: u16 = 15;
/// Cluster-release signal of the hierarchical barrier.
pub const TAG_BAR_HRELEASE: u16 = 16;

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
            return self.barrier_hier(&cl);
        }
        match self.algos.barrier {
            BarrierAlgo::Ring => self.barrier_ring(set, rank),
            BarrierAlgo::RootBroadcast => self.barrier_root_broadcast(set, rank),
            BarrierAlgo::TmcSpin => self.fab.tmc_spin_barrier(set.triplet()),
            BarrierAlgo::Dissemination => self.barrier_dissemination(set, rank),
            BarrierAlgo::Hierarchical => unreachable!("select() clusters every Hierarchical barrier"),
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

    /// Explicit hierarchical barrier (for the scaling benches), at the
    /// topology-aligned cluster width.
    pub fn barrier_hier_explicit(&self, set: ActiveSet) {
        self.barrier_hier_at(set, None);
    }

    /// [`ShmemCtx::barrier_hier_explicit`] with an explicit cluster
    /// width, so the equivalence suite can exercise odd geometries on
    /// small sets.
    #[doc(hidden)]
    pub fn barrier_hier_with(&self, set: ActiveSet, cs: usize) {
        self.barrier_hier_at(set, Some(cs));
    }

    fn barrier_hier_at(&self, set: ActiveSet, width: Option<usize>) {
        let rank = set.rank_of(self.my_pe()).expect("not in set");
        self.complete_puts();
        if set.size > 1 {
            self.barrier_hier(&self.cluster_for(set, rank, width));
        }
    }

    /// Two-level barrier. On *set ∩ shard* clusters it is the
    /// payload-free instance of the counter-cell pass
    /// ([`ShmemCtx::cell_pass`]): no intra-cluster messages at all.
    /// Elsewhere: binomial gather to each cluster leader, dissemination
    /// across the `⌈n/cs⌉` leaders, binomial release back down. Per
    /// edge and instance at most one token is outstanding, and
    /// gather/release tokens from the same sender are interchangeable
    /// across consecutive barriers (a later instance's token is strictly
    /// stronger evidence of arrival), so the `[id]`-only payload is safe
    /// under [`ShmemCtx::recv_matching`]'s stashing — the same argument
    /// as the flat dissemination rounds.
    fn barrier_hier(&self, cl: &hier::Cluster) {
        if let Some(cells) = cl.cells {
            return self.cell_pass(cells, cl, || {});
        }
        let hier::Cluster { set, first, lr, m, .. } = *cl;
        let id = set.ident();

        // Gather: binomial reduction tree into the cluster leader; a
        // co-resident child is admitted by our own gate rotation, so
        // its recv carries the hint — no condvar park needed.
        let mut span = 1usize;
        while span < m {
            if lr % (2 * span) == span {
                let parent = set.pe_at(first + lr - span);
                self.send_draining(parent, Q_BARRIER, TAG_BAR_HGATHER, &[id]);
                break;
            }
            if lr.is_multiple_of(2 * span) && lr + span < m {
                let child = set.pe_at(first + lr + span);
                self.recv_matching_local(Q_BARRIER, self.local_to(child), |msg: &ProtoMsg| {
                    msg.tag == TAG_BAR_HGATHER && msg.payload.first() == Some(&id)
                });
            }
            span <<= 1;
        }

        if lr == 0 {
            self.leader_dissemination(cl);
        }

        // Release: binomial broadcast tree back down the cluster.
        if lr > 0 {
            let parent = set.pe_at(first + hier::bcast_parent(lr));
            self.recv_matching_local(Q_BARRIER, self.local_to(parent), |msg: &ProtoMsg| {
                msg.tag == TAG_BAR_HRELEASE && msg.payload.first() == Some(&id)
            });
        }
        let mut span = 1usize;
        while span < m {
            if lr < span && lr + span < m {
                let child = set.pe_at(first + lr + span);
                self.send_draining(child, Q_BARRIER, TAG_BAR_HRELEASE, &[id]);
            }
            span <<= 1;
        }
    }

    /// Flat dissemination over the cluster leaders (called by leaders
    /// only): when it returns, every leader of the set has finished its
    /// gather. *Set ∩ shard* clusters put every leader on a distinct
    /// worker, so these recvs stay on the parked path.
    pub(crate) fn leader_dissemination(&self, cl: &hier::Cluster) {
        let (c, nc) = (cl.c, cl.nc);
        let id = cl.set.ident();
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < nc {
            let to = cl.leader_pe((c + dist) % nc);
            let from = cl.leader_pe((c + nc - dist) % nc);
            self.send_draining(to, Q_BARRIER, TAG_BAR_HDISS, &[id, round]);
            self.recv_matching_local(Q_BARRIER, self.local_to(from), |msg: &ProtoMsg| {
                msg.tag == TAG_BAR_HDISS
                    && msg.payload.first() == Some(&id)
                    && msg.payload.get(1) == Some(&round)
            });
            dist <<= 1;
            round += 1;
        }
        debug_assert_eq!(round, u64::from(hier::diss_rounds(nc)));
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
        self.recv_matching_local(queue, None, pred)
    }

    /// The locality capability, if `pe` shares this PE's worker.
    pub(crate) fn local_to(&self, pe: usize) -> Option<&dyn Locality> {
        self.fab.locality().filter(|loc| loc.co_resident(pe))
    }

    /// [`ShmemCtx::recv_matching`] with a co-residency hint: when
    /// `local` is set the expected sender shares this PE's worker
    /// ([`ShmemCtx::local_to`]), so the engine waits with
    /// [`Locality::udn_recv_local`] (poll + gate yield) instead of the
    /// parked receive. Purely a wait-strategy hint — a wrong `local` is
    /// slower, never wrong.
    pub(crate) fn recv_matching_local(
        &self,
        queue: usize,
        local: Option<&dyn Locality>,
        pred: impl Fn(&ProtoMsg) -> bool,
    ) -> ProtoMsg {
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
            let msg = match local {
                Some(loc) => loc.udn_recv_local(queue),
                None => self.fab.udn_recv(queue),
            };
            if pred(&msg) {
                return msg;
            }
            self.stash.borrow_mut().push(msg);
            self.mirror_stash();
        }
    }
}
