//! Contexts as stacks: `n` contexts run on the one thread that carries
//! them, and handing the CPU from one to another is one user-space
//! switch of the stack pointer — no kernel wake, no park.
//!
//! A [`Carrier`] owns the contexts and a ring of the ready ones. Its
//! [`run`](Carrier::run) starts each context made ready on a stack of
//! its own; from then on a context makes another ready with
//! [`ready`](Carrier::ready) and gives the CPU up with
//! [`suspend`](Carrier::suspend), which switches straight to the next
//! ready context. A ready from another thread goes to the carrier's
//! inbox instead, and unparks the carrier thread if it idles: with
//! nothing ready the thread parks — in the suspending context, or in
//! the carrier loop once no started context is left to run — bounded by
//! the earliest deadline of a [`suspend_until`](Carrier::suspend_until),
//! until a ready, a [`wake_all`](Carrier::wake_all) or that deadline
//! comes. `run` returns
//! once every context it started has finished and every *main* context
//! (the first `mains` of them) has started.
//!
//! Stacks come from a [`Pool`]: 2 MiB of fresh pages ([`crate::pages`])
//! each, the lowest mapped again inaccessible as a guard, and given back
//! to the pool when the carrier is dropped, so a pool kept across runs
//! maps a stack once. A context starts in `entry`, which runs its body
//! under `catch_unwind` above a null return address: no unwind crosses
//! a switch, and a backtrace walk ends at the stack base. A panic a body
//! lets escape is resumed by `run` once every context is done.
//!
//! The panic count and every other thread-local of std belong to the
//! carrier thread, which all contexts share, so a context must never
//! switch while it unwinds: the switch aborts the process instead,
//! naming the context. A context must not hold a lock another context
//! takes across a switch either: that one would block the only thread.
//!
//! This module is the only place of the workspace with the switch and
//! the unsafe code around stacks; it has one routine pair per target,
//! today x86_64.

use std::alloc::{handle_alloc_error, Layout};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::Instant;

use crate::pages;
use crate::sync::Mutex;

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "substrate::stack has no `switch` and no `trampoline` for this target: \
     write the pair for its calling convention beside the x86_64 one"
);

thread_local! {
    /// The carrier whose `run` this thread is in, if any.
    static CARRIER: Cell<*const Carrier> = const { Cell::new(ptr::null()) };
}

/// One context's stack: [`SIZE`](Self::SIZE) bytes of fresh pages, the
/// lowest of them a guard.
struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a stack is a mapping it owns alone; which thread unmaps it
// does not matter.
unsafe impl Send for Stack {}

impl Stack {
    /// The size of std's default thread stack.
    const SIZE: usize = 2 << 20;

    fn new() -> Self {
        let layout = Layout::from_size_align(Self::SIZE, pages::PAGE).expect("a stack's layout is valid");
        let base = pages::map(Self::SIZE).unwrap_or_else(|| handle_alloc_error(layout));
        // SAFETY: `base` is a fresh mapping of `SIZE > PAGE` bytes, and
        // nothing uses its first page.
        let guarded = unsafe { pages::guard(base) };
        assert!(guarded || !cfg!(target_os = "linux"), "could not map a stack's guard page");
        Self { base }
    }

    /// Lay out the frame [`switch`] restores for `ctx` of `carrier` on
    /// this unused stack, and return its stack pointer: the switch
    /// "returns" into [`trampoline`] with `carrier` in `rbx` and `ctx` in
    /// `r12`, the stack pointer then on a zero word — the null return
    /// address `entry` sees — at 8 mod 16, as after a call.
    fn fresh_frame(&self, carrier: &Carrier, ctx: usize) -> usize {
        // MXCSR and the x87 control word at their power-on defaults.
        const FP_ENV: usize = 0x1F80 | (0x037F << 32);
        let frame: [usize; 9] = [
            FP_ENV,
            0, // r15
            0, // r14
            0, // r13
            ctx,
            carrier as *const Carrier as usize, // rbx
            0,                                  // rbp: the frame-pointer chain ends here too
            trampoline as *const () as usize,
            0,
        ];
        // SAFETY: the nine words below the top of the mapping lie far
        // above its guard page, and nothing else uses them: the context
        // has not run.
        unsafe {
            let sp = self.base.as_ptr().add(Self::SIZE).cast::<usize>().sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            sp as usize
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: mapped by `new` for `SIZE`; the carrier drops a stack
        // only once no context can run on it again.
        unsafe { pages::unmap(self.base, Self::SIZE) }
    }
}

/// Stacks kept for reuse: a context takes one when it starts, and its
/// carrier gives it back when dropped. Keep a pool across runs — as a
/// server keeps its lanes — and a warm run maps no stack.
#[derive(Default)]
pub struct Pool {
    free: Mutex<Vec<Stack>>,
}

impl Pool {
    fn take(&self) -> Stack {
        let kept = self.free.lock().pop();
        kept.unwrap_or_else(Stack::new)
    }

    /// Stacks kept, none of them in use.
    pub fn kept(&self) -> usize {
        self.free.lock().len()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Not started: no stack yet.
    Fresh,
    Running,
    /// Switched away from; `sp` holds where to resume it.
    Suspended,
    /// Its body returned or panicked.
    Finished,
}

struct Context {
    state: Cell<State>,
    sp: Cell<usize>,
    stack: Cell<Option<Stack>>,
}

/// `n` contexts run as stacks on the thread that calls
/// [`run`](Self::run), one at a time.
pub struct Carrier {
    contexts: Box<[Context]>,
    /// Contexts `0..mains` must start before `run` returns.
    mains: usize,
    /// Contexts made ready, in order; an entry for one that is running
    /// or finished by the time it comes up is skipped.
    ready: RefCell<VecDeque<usize>>,
    /// `(deadline, ctx)` of every context in [`suspend_until`](Self::suspend_until).
    deadlines: RefCell<Vec<(Instant, usize)>>,
    /// Started and not finished.
    live: Cell<usize>,
    mains_started: Cell<usize>,
    /// The running context; `None` while the carrier loop runs.
    current: Cell<Option<usize>>,
    /// The carrier loop's stack pointer while a context runs.
    home: Cell<usize>,
    /// The body `run` was given, as a `*const &dyn Fn(usize)`.
    body: Cell<*const ()>,
    /// The first panic a body let escape.
    escaped: Cell<Option<Box<dyn Any + Send>>>,
    pool: Arc<Pool>,
    ran: AtomicBool,
    /// The inbox: per context, whether another thread made it ready
    /// since the carrier last looked.
    posted_ready: Box<[AtomicBool]>,
    door: Door,
}

/// What a thread that posts to a carrier touches besides the inbox
/// flag, on a cache line of its own, away from the fields the carrier
/// thread writes on every switch.
#[repr(align(64))]
struct Door {
    /// Set after a post to the inbox, taken before it is read.
    posted: AtomicBool,
    /// Another thread asked for [`wake_all`](Carrier::wake_all).
    wake_all: AtomicBool,
    /// The carrier thread parks, or is about to: a post unparks it.
    idle: AtomicBool,
    thread: OnceLock<Thread>,
}

// SAFETY: every cell — each context's state, saved stack pointer and
// stack, the ready ring, the deadlines, the counts, `current`, `home`,
// `body` and `escaped` — is read and written only on the thread in the
// carrier's one `run` (`ran`, an atomic, admits one call): `suspend`,
// `suspend_until` and `yield_now` first check that this thread's
// `CARRIER` is this carrier, which only `run` sets, on its own thread;
// `ready` and `wake_all` touch the cells only after the same check and
// otherwise post to the inbox, which is atomics only; the rest is
// reached only from those, `new` and `Drop`. The stacks are mappings
// the carrier owns, and no context runs once `run` returned; an escaped
// panic payload is `Send`.
unsafe impl Send for Carrier {}
unsafe impl Sync for Carrier {}

impl Carrier {
    /// `contexts` contexts, none started, the first `mains` of which
    /// `run` waits to start; stacks come from `pool` as they start. The
    /// inbox and the deadline list are allocated here, for every context.
    pub fn new(contexts: usize, mains: usize, pool: Arc<Pool>) -> Self {
        assert!(mains <= contexts, "{mains} main contexts of {contexts}");
        let context = |_| Context { state: Cell::new(State::Fresh), sp: Cell::new(0), stack: Cell::new(None) };
        Self {
            contexts: (0..contexts).map(context).collect(),
            mains,
            ready: RefCell::new(VecDeque::with_capacity(contexts)),
            deadlines: RefCell::new(Vec::with_capacity(contexts)),
            live: Cell::new(0),
            mains_started: Cell::new(0),
            current: Cell::new(None),
            home: Cell::new(0),
            body: Cell::new(ptr::null()),
            escaped: Cell::new(None),
            pool,
            ran: AtomicBool::new(false),
            posted_ready: (0..contexts).map(|_| AtomicBool::new(false)).collect(),
            door: Door {
                posted: AtomicBool::new(false),
                wake_all: AtomicBool::new(false),
                idle: AtomicBool::new(false),
                thread: OnceLock::new(),
            },
        }
    }

    /// Run every context made ready — before this call or during it, from
    /// any thread — each as a stack on the calling thread; context `ctx`
    /// runs `body(ctx)`. With nothing ready the thread parks until
    /// something is. Returns once every started context has finished and
    /// every main one has started. A carrier runs once.
    ///
    /// # Panics
    /// With the first panic a body let escape, once that holds.
    pub fn run(&self, body: &dyn Fn(usize)) {
        assert!(!self.ran.swap(true, Ordering::Relaxed), "a carrier runs once");
        struct Restore(*const Carrier);
        impl Drop for Restore {
            fn drop(&mut self) {
                CARRIER.set(self.0);
            }
        }
        let _outer = Restore(CARRIER.replace(self));
        let _ = self.door.thread.set(thread::current());
        self.body.set(&body as *const &dyn Fn(usize) as *const ());
        loop {
            while let Some(next) = self.pop_ready() {
                self.switch_to(Some(next));
            }
            if self.live.get() == 0 && self.mains_started.get() == self.mains {
                break;
            }
            self.idle_park();
        }
        self.body.set(ptr::null());
        if let Some(p) = self.escaped.take() {
            panic::resume_unwind(p);
        }
    }

    /// Queue `ctx` to run: on the carrier thread, when the running
    /// context suspends — or, from the carrier loop, next; from any other
    /// thread, through the inbox, unparking the carrier thread if it
    /// idles.
    #[inline]
    pub fn ready(&self, ctx: usize) {
        if self.on_carrier() {
            self.ready.borrow_mut().push_back(ctx);
        } else {
            self.post(&self.posted_ready[ctx]);
        }
    }

    /// Make every context that has started and not finished ready, and
    /// every main context that has not started.
    pub fn wake_all(&self) {
        if self.on_carrier() {
            self.ready_all();
        } else {
            self.post(&self.door.wake_all);
        }
    }

    /// Give the CPU up from `ctx`, the running context: switch to the
    /// next ready context, or, with none ready, park the carrier thread
    /// right here until one is. Returns when `ctx` is resumed — at once
    /// if it is the next ready, without a switch.
    ///
    /// # Aborts
    /// If `ctx` is unwinding a panic and another context is to run.
    #[inline]
    pub fn suspend(&self, ctx: usize) {
        self.check_carrier();
        assert_eq!(self.current.get(), Some(ctx), "only the running context suspends");
        let cx = &self.contexts[ctx];
        cx.state.set(State::Suspended);
        loop {
            match self.pop_ready() {
                Some(next) if next == ctx => return cx.state.set(State::Running),
                Some(next) => return self.switch_to(Some(next)),
                None => self.idle_park(),
            }
        }
    }

    /// [`suspend`](Self::suspend) `ctx`, and make it ready again at
    /// `deadline` if nothing has by then: the carrier thread, idle, parks
    /// no longer than the earliest such deadline.
    pub fn suspend_until(&self, ctx: usize, deadline: Instant) {
        self.check_carrier();
        self.deadlines.borrow_mut().push((deadline, ctx));
        self.suspend(ctx);
        self.deadlines.borrow_mut().retain(|&(_, c)| c != ctx);
    }

    /// Let the other contexts with something to run — made ready, from
    /// the inbox, or past their deadline — run before `ctx` resumes.
    /// Whether any did.
    #[inline]
    pub fn yield_now(&self, ctx: usize) -> bool {
        self.check_carrier();
        let others = !self.ready.borrow().is_empty() || self.door.posted.load(Ordering::Relaxed) || self.expired();
        if others {
            self.ready.borrow_mut().push_back(ctx);
            self.suspend(ctx);
        }
        others
    }

    fn on_carrier(&self) -> bool {
        ptr::eq(CARRIER.get(), self)
    }

    fn check_carrier(&self) {
        assert!(
            self.on_carrier(),
            "a context of a carrier suspends only on that carrier's own run"
        );
    }

    fn state(&self, ctx: usize) -> State {
        self.contexts[ctx].state.get()
    }

    /// Raise `flag` of the inbox, then unpark the carrier thread if it
    /// idles. The flag's Release store pairs with the Acquire swap that
    /// takes it in [`pop_ready`](Self::pop_ready). The `posted` store and
    /// the `idle` load here and the `idle` store and the `posted` load in
    /// [`idle_park`](Self::idle_park) are SeqCst, so one side sees the
    /// other.
    fn post(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::Release);
        self.door.posted.store(true, Ordering::SeqCst);
        if self.door.idle.load(Ordering::SeqCst) {
            if let Some(t) = self.door.thread.get() {
                t.unpark();
            }
        }
    }

    /// Park the carrier thread until a post, or the earliest deadline. A
    /// stale unpark token only costs one more pass of the loop.
    fn idle_park(&self) {
        self.door.idle.store(true, Ordering::SeqCst);
        if !self.door.posted.load(Ordering::SeqCst) {
            let earliest = self.deadlines.borrow().iter().map(|&(d, _)| d).min();
            match earliest {
                Some(d) => thread::park_timeout(d.saturating_duration_since(Instant::now())),
                None => thread::park(),
            }
        }
        self.door.idle.store(false, Ordering::Relaxed);
    }

    fn ready_all(&self) {
        let mut ready = self.ready.borrow_mut();
        for (c, cx) in self.contexts.iter().enumerate() {
            if cx.state.get() == State::Suspended || (cx.state.get() == State::Fresh && c < self.mains) {
                ready.push_back(c);
            }
        }
    }

    fn expired(&self) -> bool {
        let deadlines = self.deadlines.borrow();
        !deadlines.is_empty() && {
            let now = Instant::now();
            deadlines.iter().any(|&(d, _)| d <= now)
        }
    }

    /// Move what the inbox holds — in context order — and the contexts
    /// past their deadline onto the ready ring, then pop the first that
    /// can run.
    #[inline]
    fn pop_ready(&self) -> Option<usize> {
        if self.door.posted.load(Ordering::Relaxed) {
            self.take_posts();
        }
        if !self.deadlines.borrow().is_empty() {
            self.take_expired();
        }
        let mut ready = self.ready.borrow_mut();
        std::iter::from_fn(|| ready.pop_front()).find(|&c| matches!(self.state(c), State::Fresh | State::Suspended))
    }

    #[cold]
    fn take_posts(&self) {
        if !self.door.posted.swap(false, Ordering::SeqCst) {
            return;
        }
        let mut ready = self.ready.borrow_mut();
        for (c, posted) in self.posted_ready.iter().enumerate() {
            if posted.load(Ordering::Relaxed) && posted.swap(false, Ordering::Acquire) {
                ready.push_back(c);
            }
        }
        drop(ready);
        if self.door.wake_all.swap(false, Ordering::Acquire) {
            self.ready_all();
        }
    }

    #[cold]
    fn take_expired(&self) {
        let now = Instant::now();
        let mut ready = self.ready.borrow_mut();
        self.deadlines.borrow_mut().retain(|&(d, c)| d > now || {
            ready.push_back(c);
            false
        });
    }

    /// Switch from what runs now — a context or the carrier loop — to
    /// context `to`, starting it if it is fresh, or to the carrier loop.
    fn switch_to(&self, to: Option<usize>) {
        let save = match self.current.get() {
            Some(from) => {
                if std::thread::panicking() {
                    eprintln!(
                        "substrate::stack: context {from} tried to switch away while it unwinds a panic; the \
                         panic count belongs to the carrier thread, so no other context may run now — aborting"
                    );
                    std::process::abort();
                }
                let cx = &self.contexts[from];
                if cx.state.get() == State::Running {
                    cx.state.set(State::Suspended);
                }
                cx.sp.as_ptr()
            }
            None => self.home.as_ptr(),
        };
        let sp = match to {
            Some(ctx) => {
                let cx = &self.contexts[ctx];
                let sp = match cx.state.get() {
                    State::Fresh => {
                        self.live.set(self.live.get() + 1);
                        if ctx < self.mains {
                            self.mains_started.set(self.mains_started.get() + 1);
                        }
                        let stack = self.pool.take();
                        let sp = stack.fresh_frame(self, ctx);
                        cx.stack.set(Some(stack));
                        sp
                    }
                    State::Suspended => cx.sp.get(),
                    s => unreachable!("context {ctx} resumed while {s:?}"),
                };
                cx.state.set(State::Running);
                sp
            }
            None => self.home.get(),
        };
        self.current.set(to);
        // SAFETY: `save` is a cell of this carrier, valid for a write.
        // `sp` is the carrier loop's own, saved when it switched to the
        // context running now, or a context's: saved when it suspended
        // (and it has been suspended since: resuming made it `Running`),
        // or its fresh frame. Its stack stays mapped while the carrier
        // lives, and the carrier outlives every switch: they all happen
        // inside `run`, which borrows it.
        unsafe { switch(save, sp) }
    }
}

impl Drop for Carrier {
    fn drop(&mut self) {
        // A finished context's stack goes back to the pool. One left
        // suspended still has live frames: its stack is leaked, never
        // unmapped or reused under them.
        let mut free = self.pool.free.lock();
        for cx in self.contexts.iter_mut() {
            match (cx.state.get(), cx.stack.take()) {
                (State::Finished, Some(stack)) => free.push(stack), // cold: once per context a run started
                (_, stack) => std::mem::forget(stack),
            }
        }
    }
}

/// Where a context starts: entered from [`trampoline`] with the null
/// return address above it. Runs the body under `catch_unwind`, then
/// switches to the carrier loop for good.
extern "C" fn entry(carrier: *const Carrier, ctx: usize) -> ! {
    // SAFETY: `fresh_frame` put `carrier`'s address in `rbx`, which the
    // trampoline passed on; the carrier outlives its contexts (see
    // `switch_to`).
    let carrier = unsafe { &*carrier };
    // SAFETY: `run` stored a pointer to its `body` argument, which lives
    // on its frame until it returns; it returns only when every started
    // context has finished, and a context starts only inside `run`.
    let body = unsafe { *carrier.body.get().cast::<&dyn Fn(usize)>() };
    if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| body(ctx))) {
        let first = carrier.escaped.take().unwrap_or(p);
        carrier.escaped.set(Some(first));
    }
    carrier.contexts[ctx].state.set(State::Finished);
    carrier.live.set(carrier.live.get() - 1);
    carrier.switch_to(None);
    unreachable_resume(ctx)
}

#[cold]
fn unreachable_resume(ctx: usize) -> ! {
    eprintln!("substrate::stack: finished context {ctx} was resumed — aborting");
    std::process::abort()
}

/// A fresh context's first instructions: [`switch`] "returns" here with
/// the carrier in `rbx` and the context in `r12`, and `entry` is jumped
/// to, not called, so its return address is the zero word above.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!("mov rdi, rbx", "mov rsi, r12", "jmp {entry}", entry = sym entry)
}

/// Save the callee-saved registers, MXCSR and the x87 control word on
/// the running stack, store its stack pointer at `save`, then load `sp`
/// and restore the same set from there: the return is into whatever
/// last switched away from `sp`'s stack, or into [`trampoline`].
///
/// # Safety
/// `save` is valid for a write. `sp` was stored by a `switch` whose stack
/// has not run since, or laid out by [`Stack::fresh_frame`], and that
/// stack stays mapped until it is switched away from again.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, sp: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// `n` contexts, all main, over a pool of their own.
    fn carrier(n: usize) -> Carrier {
        Carrier::new(n, n, Arc::default())
    }

    /// Run `carrier` from context `first`.
    fn run_from(carrier: &Carrier, first: usize, body: &dyn Fn(usize)) {
        carrier.ready(first);
        carrier.run(body);
    }

    /// Three contexts take turns through the ready ring, all on the
    /// calling thread.
    #[test]
    fn contexts_take_turns_in_ready_order_on_the_calling_thread() {
        let carrier = carrier(3);
        let log = Mutex::new(Vec::new());
        let me = std::thread::current().id();
        run_from(&carrier, 0, &|ctx| {
            assert_eq!(std::thread::current().id(), me);
            for round in 0..3 {
                log.lock().unwrap().push((ctx, round));
                if ctx == 0 && round == 0 {
                    carrier.ready(1);
                    carrier.ready(2);
                }
                carrier.ready(ctx);
                carrier.suspend(ctx);
            }
        });
        let got = log.into_inner().unwrap();
        let want: Vec<_> = (0..3).flat_map(|r| (0..3).map(move |c| (c, r))).collect();
        assert_eq!(got, want);
    }

    /// Locals — in callee-saved registers or spilled — survive switches,
    /// and each context keeps its own MXCSR: a rounding mode one context
    /// sets is not the next one's.
    #[test]
    #[allow(deprecated)] // `_mm_getcsr`/`_mm_setcsr`: the direct way to name MXCSR
    fn each_context_keeps_its_registers_and_floating_point_mode() {
        use std::arch::x86_64::{_mm_getcsr, _mm_setcsr};
        const TOWARD_ZERO: u32 = 0x6000;
        let carrier = carrier(2);
        let sums = Mutex::new([0.0f64; 2]);
        run_from(&carrier, 0, &|ctx| {
            // SAFETY: reading and writing MXCSR's rounding bits has no
            // effect beyond this context's floating-point results.
            let csr = unsafe { _mm_getcsr() };
            assert_eq!(csr & TOWARD_ZERO, 0, "context {ctx} starts rounding to nearest");
            if ctx == 0 {
                // SAFETY: as above.
                unsafe { _mm_setcsr(csr | TOWARD_ZERO) };
                carrier.ready(1);
            }
            let mut acc = ctx as f64;
            for i in 1..=100u32 {
                acc += f64::from(i).sqrt();
                carrier.ready(1 - ctx);
                carrier.suspend(ctx);
            }
            carrier.ready(1 - ctx);
            // SAFETY: as above.
            let now = unsafe { _mm_getcsr() };
            assert_eq!(now & TOWARD_ZERO, if ctx == 0 { TOWARD_ZERO } else { 0 });
            // SAFETY: as above; back to the mode it started with.
            unsafe { _mm_setcsr(csr) };
            sums.lock().unwrap()[ctx] = acc;
        });
        let sums = sums.into_inner().unwrap();
        assert!((sums[1] - sums[0] - 1.0).abs() < 1e-9, "{sums:?}");
    }

    /// A body may use much of its stack: the guard is below it, not in it.
    #[test]
    fn a_context_recurses_half_a_megabyte_deep() {
        fn deep(n: usize) -> usize {
            let pad = std::hint::black_box([n as u8; 1024]);
            if n == 0 {
                0
            } else {
                deep(n - 1) + usize::from(pad[0] & 1)
            }
        }
        let carrier = carrier(1);
        let out = Cell::new(0);
        run_from(&carrier, 0, &|_| out.set(deep(512)));
        assert_eq!(out.get(), 256);
    }

    /// A panic a body lets escape comes out of `run`, after the other
    /// contexts finished.
    #[test]
    fn an_escaped_panic_is_resumed_after_every_context_finished() {
        let carrier = carrier(2);
        let finished = Cell::new(false);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            run_from(&carrier, 0, &|ctx| {
                if ctx == 0 {
                    carrier.ready(1);
                    panic!("boom in 0");
                }
                finished.set(true);
            })
        }));
        assert_eq!(r.unwrap_err().downcast_ref::<&str>(), Some(&"boom in 0"));
        assert!(finished.get());
    }

    /// A ready from another thread reaches a carrier that idles with its
    /// one context suspended: the carrier thread parks, and the ready
    /// unparks it and resumes the context there.
    #[test]
    fn a_context_made_ready_from_another_thread_resumes_on_its_idle_carrier() {
        let carrier = Arc::new(carrier(1));
        let (c, steps) = (carrier.clone(), Arc::new(Mutex::new(Vec::new())));
        let log = steps.clone();
        let t = thread::spawn(move || {
            let me = thread::current().id();
            run_from(&c, 0, &|ctx| {
                log.lock().unwrap().push("suspended");
                c.suspend(ctx);
                assert_eq!(thread::current().id(), me, "resumed on its carrier thread");
                log.lock().unwrap().push("resumed");
            });
        });
        while !carrier.door.idle.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        assert_eq!(*steps.lock().unwrap(), ["suspended"]);
        carrier.ready(0);
        t.join().unwrap();
        assert_eq!(*steps.lock().unwrap(), ["suspended", "resumed"]);
    }

    /// `run` does not return while a started context is suspended, nor
    /// before every main context has started, however long nothing is
    /// ready; a non-main context that never starts does not hold it.
    #[test]
    fn a_carrier_does_not_return_while_a_started_context_is_suspended() {
        let carrier = Arc::new(Carrier::new(3, 2, Arc::default()));
        let c = carrier.clone();
        let t = thread::spawn(move || run_from(&c, 0, &|ctx| c.suspend(ctx)));
        thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "returned with context 0 suspended");
        carrier.ready(0);
        thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "returned before main context 1 started");
        carrier.ready(1);
        thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "returned with context 1 suspended");
        carrier.wake_all();
        t.join().unwrap();
        assert_eq!(carrier.state(2), State::Fresh, "the non-main context never started");
    }

    /// A context in `suspend_until` resumes at its deadline while the
    /// carrier idles, not before; a `wake_all` from another thread ends
    /// the same wait early.
    #[test]
    fn a_timed_suspend_resumes_at_its_deadline_or_early_on_wake_all() {
        let carrier = carrier(1);
        let waited = Cell::new(Duration::ZERO);
        run_from(&carrier, 0, &|ctx| {
            let t0 = Instant::now();
            carrier.suspend_until(ctx, t0 + Duration::from_millis(20));
            waited.set(t0.elapsed());
        });
        assert!(waited.get() >= Duration::from_millis(20), "{:?}", waited.get());

        let carrier = Arc::new(self::carrier(1));
        let c = carrier.clone();
        let t = thread::spawn(move || {
            let waited = Cell::new(Duration::ZERO);
            run_from(&c, 0, &|ctx| {
                let t0 = Instant::now();
                c.suspend_until(ctx, t0 + Duration::from_secs(60));
                waited.set(t0.elapsed());
            });
            waited.get()
        });
        while !carrier.door.idle.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        carrier.wake_all();
        assert!(t.join().unwrap() < Duration::from_secs(30), "wake_all did not end the timed wait");
    }

    /// A stack a finished context ran on goes back to the pool, and the
    /// next carrier over that pool starts its context on it.
    #[test]
    fn a_pool_kept_across_carriers_maps_each_stack_once() {
        let pool: Arc<Pool> = Arc::default();
        let base = || {
            let carrier = Carrier::new(1, 1, pool.clone());
            let at = Cell::new(0usize);
            run_from(&carrier, 0, &|_| {
                let local = 0u8;
                at.set(std::hint::black_box(&local) as *const u8 as usize >> 21);
            });
            at.get()
        };
        let first = base();
        assert_eq!(pool.kept(), 1);
        assert_eq!(base(), first, "the second run started on the first run's stack");
        assert_eq!(pool.kept(), 1);
    }

    #[test]
    #[should_panic(expected = "own run")]
    fn only_the_carrier_thread_suspends_a_context() {
        carrier(1).suspend(0);
    }
}
