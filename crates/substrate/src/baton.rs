//! One cooperative handoff core: at most one running context per
//! *domain*, handed on by the context that lets it go.
//!
//! Contexts are numbered `0..contexts`. A domain is one lock over its
//! holder and its [`RunQueue`] — the policy: a FIFO of context ids for
//! the coop engine's per-worker admission gates, the `(key, id)` heap of
//! a desim run. Every operation picks under the lock, drops the lock,
//! then grants, then parks. A grant sets the wakee's flag (Release) and
//! wakes it; a context parks on its own flag (Acquire swap), so the next
//! holder sees everything the last one wrote and never wakes into a lock
//! its granter still holds, and a stray wake admits nobody. What an
//! empty queue means is the policy's call: [`Held::release`] frees the
//! domain and hands the lock back, [`Held::yield_now`] reports
//! [`Yield::Empty`].
//!
//! How a context waits is the second parameter, [`Wait`]:
//! * [`Threads`] — each context is an OS thread. A grant unparks the
//!   wakee's thread, registered at its first park; a SeqCst fence on
//!   each side makes a grant that finds no handle yet leave only the
//!   flag, which that park takes.
//! * [`Stacks`] — every context is a stack on one carrier thread
//!   ([`stack::Carrier`]). A grant puts the wakee on the carrier's ready
//!   ring, and a park switches to the next ready stack, or back to the
//!   carrier loop: "grant next, then park self" is one user-space switch.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::Duration;

use crate::stack;
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

/// How a context of a [`Baton`] waits for its grant flag.
pub trait Wait {
    fn new(contexts: usize) -> Self;
    /// `ctx`'s flag was just set: make it see the flag.
    fn wake(&self, ctx: usize);
    /// Wait until `granted`, `ctx`'s flag, is set, and take it.
    fn park(&self, ctx: usize, granted: &AtomicBool);
}

/// Every context is an OS thread.
pub struct Threads {
    threads: Box<[OnceLock<Thread>]>,
}

impl Threads {
    /// Take `granted`, parking once first — for at most about `timeout`
    /// if given — if it is not there yet. Whether it was taken.
    #[inline]
    fn park_timeout(&self, ctx: usize, granted: &AtomicBool, timeout: Option<Duration>) -> bool {
        if self.threads[ctx].get().is_none() {
            let _ = self.threads[ctx].set(thread::current());
            fence(Ordering::SeqCst); // pairs with the one in `wake`
        }
        let take = || granted.swap(false, Ordering::Acquire);
        take() || {
            match timeout {
                Some(t) => thread::park_timeout(t),
                None => thread::park(),
            }
            take()
        }
    }
}

impl Wait for Threads {
    fn new(contexts: usize) -> Self {
        Self { threads: (0..contexts).map(|_| OnceLock::new()).collect() }
    }

    #[inline]
    fn wake(&self, ctx: usize) {
        fence(Ordering::SeqCst);
        if let Some(t) = self.threads[ctx].get() {
            t.unpark();
        }
    }

    #[inline]
    fn park(&self, ctx: usize, granted: &AtomicBool) {
        while !self.park_timeout(ctx, granted, None) {}
    }
}

/// Every context is a stack on one carrier thread: the one in
/// [`Baton::run`].
pub struct Stacks {
    carrier: stack::Carrier,
}

impl Wait for Stacks {
    fn new(contexts: usize) -> Self {
        Self { carrier: stack::Carrier::new(contexts) }
    }

    #[inline]
    fn wake(&self, ctx: usize) {
        self.carrier.ready(ctx);
    }

    #[inline]
    fn park(&self, ctx: usize, granted: &AtomicBool) {
        while !granted.swap(false, Ordering::Acquire) {
            self.carrier.suspend(ctx);
        }
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
}

/// The handoff core: `contexts` contexts over one domain per queue,
/// waiting as `W` says.
pub struct Baton<Q, W = Threads> {
    domains: Box<[Domain<Q>]>,
    granted: Box<[AtomicBool]>,
    wait: W,
}

impl<Q: RunQueue, W: Wait> Baton<Q, W> {
    /// `contexts` contexts; one free domain per queue in `queues`.
    pub fn new(contexts: usize, queues: impl IntoIterator<Item = Q>) -> Self {
        let domain = |queue: Q| Domain {
            queued: AtomicUsize::new(queue.count()),
            turn: Mutex::new(Turn { holder: None, queue, handoffs: 0 }),
        };
        Self {
            domains: queues.into_iter().map(domain).collect(),
            granted: (0..contexts).map(|_| AtomicBool::new(false)).collect(),
            wait: W::new(contexts),
        }
    }

    #[inline]
    pub fn lock(&self, dom: usize) -> Held<'_, Q, W> {
        let d = &self.domains[dom];
        Held { baton: self, dom: d, turn: d.turn.lock() }
    }

    /// Contexts queued on `dom`, read without its lock.
    #[inline]
    pub fn queued(&self, dom: usize) -> usize {
        self.domains[dom].queued.load(Ordering::Relaxed)
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

    /// Block until `ctx` is granted (or woken by [`wake_all`](Self::wake_all)).
    pub fn park(&self, ctx: usize) {
        self.wait.park(ctx, &self.granted[ctx]);
    }

    /// Grant every context, holder or not: each returns from its park (a
    /// running one from its next) to read what the caller published.
    pub fn wake_all(&self) {
        (0..self.granted.len()).for_each(|ctx| self.grant(ctx));
    }

    fn grant(&self, ctx: usize) {
        self.granted[ctx].store(true, Ordering::Release);
        self.wait.wake(ctx);
    }
}

impl<Q: RunQueue> Baton<Q, Threads> {
    /// Take `ctx`'s grant, parking once first — for at most about
    /// `timeout` if given — if it is not there yet. Whether it was taken.
    pub fn park_timeout(&self, ctx: usize, timeout: Option<Duration>) -> bool {
        self.wait.park_timeout(ctx, &self.granted[ctx], timeout)
    }
}

impl<Q: RunQueue> Baton<Q, Stacks> {
    /// Carry every context on the calling thread: start `first` — which
    /// must hold its domain or be granted — and then each context as it
    /// is granted, until none is; context `ctx` runs `body(ctx)`. A
    /// context starts by taking the grant that started it. Panics as
    /// [`stack::Carrier::run`] does.
    pub fn run(&self, first: usize, body: &dyn Fn(usize)) {
        self.wait.carrier.run(first, &|ctx| {
            self.granted[ctx].store(false, Ordering::Relaxed);
            body(ctx);
        });
    }
}

/// A locked domain, dereferencing to its queue. An operation that hands
/// the domain on consumes it, so the lock is dropped before the grant.
pub struct Held<'a, Q, W = Threads> {
    baton: &'a Baton<Q, W>,
    dom: &'a Domain<Q>,
    turn: MutexGuard<'a, Turn<Q>>,
}

impl<Q, W> Deref for Held<'_, Q, W> {
    type Target = Q;
    fn deref(&self) -> &Q {
        &self.turn.queue
    }
}

impl<Q, W> DerefMut for Held<'_, Q, W> {
    fn deref_mut(&mut self) -> &mut Q {
        &mut self.turn.queue
    }
}

/// What [`Held::yield_now`] did.
pub enum Yield<'a, Q, W = Threads> {
    /// The yielder came out next; it still holds the domain.
    Kept(Held<'a, Q, W>),
    /// It granted the next context, parked, and was granted back.
    Passed,
    /// Nobody can run, the yielder included; the lock is still held.
    Empty(Held<'a, Q, W>),
}

impl<'a, Q: RunQueue, W: Wait> Held<'a, Q, W> {
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
    pub fn yield_now(mut self, ctx: usize) -> Yield<'a, Q, W> {
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
    use std::sync::Arc;

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

    fn wait_queued<Q: RunQueue>(baton: &Baton<Q>, n: usize) {
        while baton.queued(0) != n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_fifo_domain_admits_in_queue_order_and_make_ready_joins_the_tail() {
        let baton = Arc::new(Baton::new(5, [VecDeque::new()]));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        baton.acquire(0, 0, || unreachable!("the domain is free"));
        let run = |ctx: usize, queued: bool| {
            let (baton, admitted) = (baton.clone(), admitted.clone());
            thread::spawn(move || {
                if queued {
                    baton.acquire(0, ctx, || {});
                } else {
                    baton.park(ctx);
                }
                assert_eq!(baton.lock(0).holder(), Some(ctx));
                admitted.lock().push(ctx);
                let _ = baton.lock(0).release();
            })
        };
        let mut threads = Vec::new();
        for ctx in 1..=3 {
            threads.push(run(ctx, true));
            wait_queued(&baton, ctx);
        }
        threads.push(run(4, false));
        baton.lock(0).make_ready(4);
        assert_eq!(baton.queued(0), 4);
        assert!(admitted.lock().is_empty(), "nobody runs before the holder lets go");
        assert_eq!(baton.lock(0).release().ok(), Some(1));
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(*admitted.lock(), vec![1, 2, 3, 4]);
        let held = baton.lock(0);
        assert_eq!((held.holder(), held.handoffs()), (None, 4));
    }

    // A thread outlives the domain it parked on — a lane runs job after
    // job — so an unpark meant for one park can land on a later one, and
    // a context can find a token waiting at its first park. Every park
    // re-checks its own flag, so a stray token costs one more look and
    // admits nobody.
    fn a_leftover_unpark_admits_no_queued_context<Q: RunQueue + Send + 'static>(queue: Q) {
        let baton = Arc::new(Baton::new(2, [queue]));
        baton.acquire(0, 0, || {});
        let b = baton.clone();
        let queued = thread::spawn(move || {
            // The token is there before the first park.
            thread::current().unpark();
            b.acquire(0, 1, || {});
            b.lock(0).holder() == Some(1)
        });
        wait_queued(&baton, 1);
        for _ in 0..3 {
            queued.thread().unpark();
            thread::sleep(Duration::from_millis(5));
            assert_eq!(baton.lock(0).holder(), Some(0), "admitted by a stray unpark");
            assert!(!queued.is_finished());
        }
        assert_eq!(baton.lock(0).release().ok(), Some(1));
        assert!(queued.join().unwrap(), "admitted by the hand-off, after the holder let go");
    }

    #[test]
    fn a_leftover_unpark_admits_no_queued_context_fifo() {
        a_leftover_unpark_admits_no_queued_context(VecDeque::new());
    }

    #[test]
    fn a_leftover_unpark_admits_no_queued_context_keyed() {
        a_leftover_unpark_admits_no_queued_context(Keyed::new(2));
    }

    /// 20 000 back-to-back yields between two contexts on unpinned
    /// threads, 20 times over: a grant regularly lands before its wakee
    /// has parked, and none may be lost (a lost one hangs the test).
    /// Every grant is a yield that passed or the release that ends it.
    fn back_to_back_handoffs_between_two_contexts_lose_no_grant<Q: RunQueue + Send + 'static>(queue: impl Fn() -> Q) {
        const ROUNDS: u64 = 10_000;
        for _ in 0..20 {
            let baton = Arc::new(Baton::new(2, [queue()]));
            baton.acquire(0, 0, || {});
            let body = |ctx: usize| {
                let baton = baton.clone();
                thread::spawn(move || {
                    if ctx == 1 {
                        baton.acquire(0, 1, || {});
                    }
                    let mut passed = 0;
                    for _ in 0..ROUNDS {
                        match baton.lock(0).yield_now(ctx) {
                            Yield::Passed => passed += 1,
                            Yield::Kept(_) => {}
                            Yield::Empty(_) => unreachable!("the yielder can always run"),
                        }
                        assert_eq!(baton.lock(0).holder(), Some(ctx));
                    }
                    passed + u64::from(baton.lock(0).release().is_ok())
                })
            };
            let one = body(1);
            wait_queued(&baton, 1);
            let zero = body(0);
            let grants = zero.join().unwrap() + one.join().unwrap();
            let held = baton.lock(0);
            assert_eq!((held.holder(), held.handoffs()), (None, grants));
            assert!(grants >= ROUNDS, "the two alternate: {grants}");
        }
    }

    #[test]
    fn back_to_back_handoffs_between_two_contexts_lose_no_grant_fifo() {
        back_to_back_handoffs_between_two_contexts_lose_no_grant(VecDeque::new);
    }

    #[test]
    fn back_to_back_handoffs_between_two_contexts_lose_no_grant_keyed() {
        back_to_back_handoffs_between_two_contexts_lose_no_grant(|| Keyed::new(2));
    }

    /// The same yields with the contexts as stacks: both run on the
    /// calling thread, a yield that passes switches to the other, and
    /// every grant is counted.
    #[test]
    fn two_stacked_contexts_alternate_on_one_thread_and_lose_no_grant() {
        const ROUNDS: u64 = 1_000;
        let baton: Baton<VecDeque<usize>, Stacks> = Baton::new(2, [VecDeque::from([1])]);
        baton.acquire(0, 0, || unreachable!("the domain is free"));
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
}
