//! One cooperative handoff core: at most one running context per
//! *domain*, handed on by the context that lets it go.
//!
//! Contexts are numbered `0..contexts`, each the member of one domain. A
//! domain is one lock over its holder and its [`RunQueue`] — the policy:
//! a FIFO of context ids for the coop engine's per-worker admission
//! gates, the `(key, id)` heap of a desim run — and one carrier thread
//! ([`crate::stack::Carrier`]) on which its members run as stacks. Every
//! operation picks under the lock, drops the lock, then grants, then
//! parks. A grant sets the wakee's flag (Release) and makes it ready on
//! its carrier; a context parks on its own flag (Acquire swap), suspending
//! its stack until it is set, so the next holder sees everything the last
//! one wrote and never wakes into a lock its granter still holds, and a
//! stray resume admits nobody. What an empty queue means is the policy's
//! call: [`Held::release`] frees the domain and hands the lock back,
//! [`Held::yield_now`] reports [`Yield::Empty`].
//!
//! "Grant next, then park self" inside one domain is one user-space
//! switch. A grant from another domain's thread posts to the carrier's
//! inbox and unparks its thread if it idles; so a domain with one member
//! parks as a thread does, on a futex.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stack::{Carrier, Pool};
use crate::sync::{Mutex, MutexGuard};

/// The ordering policy of a domain: which queued context runs next.
pub trait RunQueue {
    /// Queue `ctx`. A policy may decline a context that cannot run yet.
    fn push(&mut self, ctx: usize);
    /// The next context to run, or `None` when none can.
    fn pop(&mut self) -> Option<usize>;
    /// Entries queued.
    fn count(&self) -> usize;
}

/// First come, first served.
impl RunQueue for VecDeque<usize> {
    fn push(&mut self, ctx: usize) {
        self.push_back(ctx);
    }

    fn pop(&mut self) -> Option<usize> {
        self.pop_front()
    }

    fn count(&self) -> usize {
        self.len()
    }
}

struct Turn<Q> {
    holder: Option<usize>,
    queue: Q,
    /// Grants of the domain to a different context.
    handoffs: u64,
}

struct Domain<Q> {
    turn: Mutex<Turn<Q>>,
    /// The queue's count, readable without the lock.
    queued: AtomicUsize,
    carrier: Carrier,
    /// The members by carrier index: the main ones first.
    members: Box<[usize]>,
}

/// The handoff core: `contexts` contexts over one domain per queue.
pub struct Baton<Q> {
    domains: Box<[Domain<Q>]>,
    granted: Box<[AtomicBool]>,
    /// Each context's domain and its index on that domain's carrier.
    homes: Box<[(usize, usize)]>,
}

impl<Q: RunQueue> Baton<Q> {
    /// `contexts` contexts; one free domain per queue in `queues`, whose
    /// members `home(ctx) = (domain, main)` names. A domain's carrier
    /// returns only once each of its main members has started; its
    /// stacks come from `stacks`.
    pub fn new(
        contexts: usize,
        queues: impl IntoIterator<Item = Q>,
        home: impl Fn(usize) -> (usize, bool),
        stacks: &Arc<Pool>,
    ) -> Self {
        let queues: Vec<Q> = queues.into_iter().collect();
        let mut members: Vec<(Vec<usize>, Vec<usize>)> = queues.iter().map(|_| Default::default()).collect();
        for ctx in 0..contexts {
            let (dom, main) = home(ctx);
            let (mains, rest) = &mut members[dom];
            if main { mains } else { rest }.push(ctx);
        }
        let mut homes = vec![(0, 0); contexts]; // cold: once per baton
        let domains = queues
            .into_iter()
            .zip(members)
            .enumerate()
            .map(|(dom, (queue, (mains, rest)))| {
                let carrier = Carrier::new(mains.len() + rest.len(), mains.len(), stacks.clone());
                let members: Box<[usize]> = mains.into_iter().chain(rest).collect();
                for (local, &ctx) in members.iter().enumerate() {
                    homes[ctx] = (dom, local);
                }
                Domain {
                    queued: AtomicUsize::new(queue.count()),
                    turn: Mutex::new(Turn { holder: None, queue, handoffs: 0 }),
                    carrier,
                    members,
                }
            })
            .collect();
        Self {
            domains,
            granted: (0..contexts).map(|_| AtomicBool::new(false)).collect(),
            homes: homes.into(),
        }
    }

    #[inline]
    pub fn lock(&self, dom: usize) -> Held<'_, Q> {
        let d = &self.domains[dom];
        Held { baton: self, dom: d, turn: d.turn.lock() }
    }

    /// Contexts queued on `dom`, read without its lock.
    #[inline]
    pub fn queued(&self, dom: usize) -> usize {
        self.domains[dom].queued.load(Ordering::Relaxed)
    }

    /// Give free `dom` to `ctx`, its member, and make it ready to start:
    /// how a run's first context gets its domain, with no grant.
    pub fn start(&self, dom: usize, ctx: usize) {
        let mut held = self.lock(dom);
        assert_eq!(held.turn.holder, None, "domain {dom} is free when its first context starts");
        held.turn.holder = Some(ctx);
        drop(held);
        self.carrier(ctx).ready(self.homes[ctx].1);
    }

    /// Take `dom` for `ctx`: at once if it is free, otherwise queue, run
    /// `queued`, and park until granted.
    pub fn acquire(&self, dom: usize, ctx: usize, queued: impl FnOnce()) {
        {
            let mut held = self.lock(dom);
            if held.turn.holder.is_none() {
                held.turn.holder = Some(ctx);
                return;
            }
            held.push(ctx);
        }
        queued();
        self.park(ctx);
    }

    /// Whether `ctx` has a grant it has not taken yet.
    pub fn is_granted(&self, ctx: usize) -> bool {
        self.granted[ctx].load(Ordering::Acquire)
    }

    /// Suspend `ctx`, the running context, until it is granted (or woken
    /// by [`wake_all`](Self::wake_all)), and take the grant.
    pub fn park(&self, ctx: usize) {
        let (carrier, local) = (self.carrier(ctx), self.homes[ctx].1);
        while !self.granted[ctx].swap(false, Ordering::Acquire) {
            carrier.suspend(local);
        }
    }

    /// [`park`](Self::park) until `deadline` at the latest: whether the
    /// grant was taken.
    pub fn park_until(&self, ctx: usize, deadline: Instant) -> bool {
        let (carrier, local) = (self.carrier(ctx), self.homes[ctx].1);
        loop {
            if self.granted[ctx].swap(false, Ordering::Acquire) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            carrier.suspend_until(local, deadline);
        }
    }

    /// Let the other members of `ctx`'s domain that have something to
    /// run — started, past a deadline, woken — run before `ctx`, the
    /// running context, resumes. Whether any did.
    #[inline]
    pub fn run_others(&self, ctx: usize) -> bool {
        self.carrier(ctx).yield_now(self.homes[ctx].1)
    }

    /// Grant every context, holder or not: each returns from its park (a
    /// running one from its next), and a main context not started yet
    /// starts, to read what the caller published.
    pub fn wake_all(&self) {
        self.granted.iter().for_each(|g| g.store(true, Ordering::Release));
        self.domains.iter().for_each(|d| d.carrier.wake_all());
    }

    /// Carry the members of `dom` on the calling thread, each as a stack:
    /// start each as it is made ready, and return once every started one
    /// has finished and every main one has started. Member `ctx` runs
    /// `body(ctx)`, and starts by taking the grant that started it.
    /// Panics as [`Carrier::run`] does.
    pub fn run(&self, dom: usize, body: &dyn Fn(usize)) {
        let d = &self.domains[dom];
        d.carrier.run(&|local| {
            let ctx = d.members[local];
            self.granted[ctx].store(false, Ordering::Relaxed);
            body(ctx);
        });
    }

    fn carrier(&self, ctx: usize) -> &Carrier {
        &self.domains[self.homes[ctx].0].carrier
    }

    fn grant(&self, ctx: usize) {
        self.granted[ctx].store(true, Ordering::Release);
        self.carrier(ctx).ready(self.homes[ctx].1);
    }
}

/// A locked domain, dereferencing to its queue. An operation that hands
/// the domain on consumes it, so the lock is dropped before the grant.
pub struct Held<'a, Q> {
    baton: &'a Baton<Q>,
    dom: &'a Domain<Q>,
    turn: MutexGuard<'a, Turn<Q>>,
}

impl<Q> Deref for Held<'_, Q> {
    type Target = Q;
    fn deref(&self) -> &Q {
        &self.turn.queue
    }
}

impl<Q> DerefMut for Held<'_, Q> {
    fn deref_mut(&mut self) -> &mut Q {
        &mut self.turn.queue
    }
}

/// What [`Held::yield_now`] did.
pub enum Yield<'a, Q> {
    /// The yielder came out next; it still holds the domain.
    Kept(Held<'a, Q>),
    /// It granted the next context, parked, and was granted back.
    Passed,
    /// Nobody can run, the yielder included; the lock is still held.
    Empty(Held<'a, Q>),
}

impl<'a, Q: RunQueue> Held<'a, Q> {
    pub fn holder(&self) -> Option<usize> {
        self.turn.holder
    }

    /// Grants of this domain to a different context so far.
    pub fn handoffs(&self) -> u64 {
        self.turn.handoffs
    }

    /// Grant the domain to the next queued context and return it, or,
    /// the queue empty, free the domain and hand the lock back.
    pub fn release(mut self) -> Result<usize, Self> {
        match self.pop() {
            Some(next) => {
                self.hand_to(next);
                Ok(next)
            }
            None => {
                self.turn.holder = None;
                Err(self)
            }
        }
    }

    /// Queue `ctx` on its behalf — it parks for the grant — or grant it
    /// a free domain at once.
    pub fn make_ready(mut self, ctx: usize) {
        if self.turn.holder.is_some() {
            self.push(ctx);
        } else {
            self.hand_to(ctx);
        }
    }

    /// Queue `ctx`, the holder, and pop the next: if that is someone
    /// else, grant it and park until granted back.
    pub fn yield_now(mut self, ctx: usize) -> Yield<'a, Q> {
        self.push(ctx);
        match self.pop() {
            Some(next) if next == ctx => Yield::Kept(self),
            Some(next) => {
                let baton = self.baton;
                self.hand_to(next);
                baton.park(ctx);
                Yield::Passed
            }
            None => Yield::Empty(self),
        }
    }

    fn push(&mut self, ctx: usize) {
        self.turn.queue.push(ctx);
        self.dom.queued.store(self.turn.queue.count(), Ordering::Relaxed);
    }

    fn pop(&mut self) -> Option<usize> {
        let next = self.turn.queue.pop();
        self.dom.queued.store(self.turn.queue.count(), Ordering::Relaxed);
        next
    }

    fn hand_to(mut self, next: usize) {
        self.turn.holder = Some(next);
        self.turn.handoffs += 1;
        let baton = self.baton;
        drop(self);
        baton.grant(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::thread;
    use std::time::Duration;

    /// A keyed order for the tests: a context's key counts its pushes,
    /// so the one that has queued least runs next, ties to the lower id.
    struct Keyed {
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        pushes: Vec<u64>,
    }

    impl Keyed {
        fn new(contexts: usize) -> Self {
            Self { heap: BinaryHeap::new(), pushes: vec![0; contexts] }
        }
    }

    impl RunQueue for Keyed {
        fn push(&mut self, ctx: usize) {
            self.pushes[ctx] += 1;
            self.heap.push(Reverse((self.pushes[ctx], ctx)));
        }

        fn pop(&mut self) -> Option<usize> {
            self.heap.pop().map(|Reverse((_, ctx))| ctx)
        }

        fn count(&self) -> usize {
            self.heap.len()
        }
    }

    /// Every context a main member of domain 0.
    fn one_domain<Q: RunQueue>(contexts: usize, queue: Q) -> Baton<Q> {
        Baton::new(contexts, [queue], |_| (0, true), &Arc::default())
    }

    #[test]
    fn a_fifo_domain_admits_in_queue_order_and_make_ready_joins_the_tail() {
        let baton = one_domain(4, VecDeque::from([1, 2]));
        let admitted = Mutex::new(Vec::new());
        baton.start(0, 0);
        baton.run(0, &|ctx| {
            if ctx == 0 {
                baton.lock(0).make_ready(3);
                assert_eq!(baton.queued(0), 3);
                assert_eq!(baton.lock(0).release().ok(), Some(1));
                // Queued behind 3, and parked until the domain comes round.
                baton.acquire(0, 0, || assert!(admitted.lock().is_empty(), "nobody ran before the holder let go"));
            }
            assert_eq!(baton.lock(0).holder(), Some(ctx));
            admitted.lock().push(ctx);
            let _ = baton.lock(0).release();
        });
        assert_eq!(*admitted.lock(), vec![1, 2, 3, 0]);
        let held = baton.lock(0);
        assert_eq!((held.holder(), held.handoffs()), (None, 4));
    }

    /// Two contexts on two domains, each carried by its own thread, pass
    /// a turn back and forth: a context waits by releasing its domain and
    /// parking, and passes the turn by making the other ready on the
    /// other's domain. That grant crosses threads — into an idle
    /// carrier's inbox, or, while the other still holds its domain,
    /// onto its queue to be handed back on release — and none may be
    /// lost (a lost one hangs the test).
    fn cross_thread_turns_lose_no_grant<Q: RunQueue + Send + 'static>(queue: impl Fn() -> Q) {
        const TURNS: usize = 4_000;
        for _ in 0..5 {
            let baton = Arc::new(Baton::new(2, [queue(), queue()], |ctx| (ctx, true), &Arc::default()));
            baton.start(0, 0);
            baton.start(1, 1);
            let carry = |dom: usize| {
                let baton = baton.clone();
                thread::spawn(move || {
                    baton.run(dom, &|ctx| {
                        let me = thread::current().id();
                        for t in (ctx..TURNS).step_by(2) {
                            if t > 0 {
                                let _ = baton.lock(ctx).release();
                                baton.park(ctx);
                            }
                            assert_eq!((baton.lock(ctx).holder(), thread::current().id()), (Some(ctx), me));
                            if t + 1 < TURNS {
                                baton.lock(1 - ctx).make_ready(1 - ctx);
                            }
                        }
                        let _ = baton.lock(ctx).release();
                    });
                })
            };
            let (zero, one) = (carry(0), carry(1));
            zero.join().unwrap();
            one.join().unwrap();
            let grants = baton.lock(0).handoffs() + baton.lock(1).handoffs();
            assert_eq!(grants, TURNS as u64 - 1, "one grant per turn after the first");
        }
    }

    #[test]
    fn cross_thread_turns_lose_no_grant_fifo() {
        cross_thread_turns_lose_no_grant(VecDeque::new);
    }

    #[test]
    fn cross_thread_turns_lose_no_grant_keyed() {
        cross_thread_turns_lose_no_grant(|| Keyed::new(2));
    }

    /// Back-to-back yields inside one domain: both contexts run on the
    /// calling thread, a yield that passes switches to the other, and
    /// every grant is counted.
    #[test]
    fn two_stacked_contexts_alternate_on_one_thread_and_lose_no_grant() {
        const ROUNDS: u64 = 1_000;
        let baton = one_domain(2, VecDeque::from([1]));
        baton.start(0, 0);
        let me = thread::current().id();
        let grants = [AtomicUsize::new(0), AtomicUsize::new(0)];
        baton.run(0, &|ctx| {
            assert_eq!(thread::current().id(), me);
            let mut passed = 0;
            for _ in 0..ROUNDS {
                match baton.lock(0).yield_now(ctx) {
                    Yield::Passed => passed += 1,
                    Yield::Kept(_) => {}
                    Yield::Empty(_) => unreachable!("the yielder can always run"),
                }
                assert_eq!(baton.lock(0).holder(), Some(ctx));
            }
            grants[ctx].store(passed + usize::from(baton.lock(0).release().is_ok()), Ordering::Relaxed);
        });
        let grants: u64 = grants.iter().map(|g| g.load(Ordering::Relaxed) as u64).sum();
        let held = baton.lock(0);
        assert_eq!((held.holder(), held.handoffs()), (None, grants));
        assert!(grants >= 2 * ROUNDS - 1, "the two alternate: {grants}");
    }

    /// A timed park returns ungranted at its deadline — the carrier
    /// thread idles until then — and granted, early, when `wake_all`
    /// comes from another thread first.
    #[test]
    fn a_timed_park_returns_at_its_deadline_or_early_on_wake_all() {
        let baton = one_domain(1, VecDeque::new());
        baton.start(0, 0);
        let waited = std::cell::Cell::new(None);
        baton.run(0, &|ctx| {
            let t0 = Instant::now();
            let granted = baton.park_until(ctx, t0 + Duration::from_millis(20));
            waited.set(Some((granted, t0.elapsed())));
        });
        let (granted, waited) = waited.get().expect("ran");
        assert!(!granted && waited >= Duration::from_millis(20), "{granted} after {waited:?}");

        let baton = Arc::new(one_domain(1, VecDeque::new()));
        baton.start(0, 0);
        let b = baton.clone();
        let parked = Arc::new(AtomicBool::new(false));
        let p = parked.clone();
        let t = thread::spawn(move || {
            let out = std::cell::Cell::new(None);
            b.run(0, &|ctx| {
                let t0 = Instant::now();
                p.store(true, Ordering::SeqCst);
                out.set(Some((b.park_until(ctx, t0 + Duration::from_secs(60)), t0.elapsed())));
            });
            out.get().expect("ran")
        });
        while !parked.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(10));
        baton.wake_all();
        let (granted, waited) = t.join().unwrap();
        assert!(granted && waited < Duration::from_secs(30), "{granted} after {waited:?}");
    }
}
