//! Contexts as stacks: `n` contexts run on the one thread that carries
//! them, and handing the CPU from one to another is one user-space
//! switch of the stack pointer — no kernel wake, no park.
//!
//! A [`Carrier`] owns the contexts and a ring of the ready ones. Its
//! [`run`](Carrier::run) starts the first context on a fresh stack;
//! from then on a context makes another ready with
//! [`ready`](Carrier::ready) and gives the CPU up with
//! [`suspend`](Carrier::suspend), which switches straight to the next
//! ready context, or back to the carrier loop when none is. `run`
//! returns once no context is ready; by then every context has
//! finished, or `run` panics naming the ones left suspended.
//!
//! Every stack is 2 MiB of fresh pages ([`crate::pages`]), the lowest
//! mapped again inaccessible as a guard. A context starts in `entry`,
//! which runs its body under `catch_unwind` above a null return
//! address: no unwind crosses a switch, and a backtrace walk ends at the
//! stack base. A panic a body lets escape is resumed by `run` once every
//! context is done.
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
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::pages;

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
    stack: OnceCell<Stack>,
}

/// `n` contexts run as stacks on the thread that calls
/// [`run`](Self::run), one at a time.
pub struct Carrier {
    contexts: Box<[Context]>,
    /// Contexts made ready, in order; an entry for one that is running
    /// or finished by the time it comes up is skipped.
    ready: RefCell<VecDeque<usize>>,
    /// The running context; `None` while the carrier loop runs.
    current: Cell<Option<usize>>,
    /// The carrier loop's stack pointer while a context runs.
    home: Cell<usize>,
    /// The body `run` was given, as a `*const &dyn Fn(usize)`.
    body: Cell<*const ()>,
    /// The first panic a body let escape.
    escaped: Cell<Option<Box<dyn Any + Send>>>,
    ran: AtomicBool,
}

// SAFETY: every cell — each context's state, saved stack pointer and
// stack, the ready ring, `current`, `home`, `body` and `escaped` — is
// read and written only on the thread in the carrier's one `run` (`ran`,
// an atomic, admits one call): `ready` and `suspend`, the entry points
// besides `new`, `run` and `Drop`, first check that this thread's
// `CARRIER` is this carrier, which only `run` sets, on its own thread,
// and the rest is reached only from those. The stacks are mappings the
// carrier owns, and no context runs once `run` returned; an escaped
// panic payload is `Send`.
unsafe impl Send for Carrier {}
unsafe impl Sync for Carrier {}

impl Carrier {
    /// `contexts` contexts, none started; stacks are mapped as they start.
    pub fn new(contexts: usize) -> Self {
        let context = |_| Context { state: Cell::new(State::Fresh), sp: Cell::new(0), stack: OnceCell::new() };
        Self {
            contexts: (0..contexts).map(context).collect(),
            ready: RefCell::new(VecDeque::with_capacity(contexts)),
            current: Cell::new(None),
            home: Cell::new(0),
            body: Cell::new(ptr::null()),
            escaped: Cell::new(None),
            ran: AtomicBool::new(false),
        }
    }

    /// Run context `first`, and every context made ready since, each as
    /// a stack on the calling thread, until no context is ready; context
    /// `ctx` runs `body(ctx)`. A carrier runs once.
    ///
    /// # Panics
    /// With the first panic a body let escape; otherwise if a context is
    /// left suspended with none ready to make it ready again (its stack
    /// is leaked, not unwound).
    pub fn run(&self, first: usize, body: &dyn Fn(usize)) {
        assert!(!self.ran.swap(true, Ordering::Relaxed), "a carrier runs once");
        struct Restore(*const Carrier);
        impl Drop for Restore {
            fn drop(&mut self) {
                CARRIER.set(self.0);
            }
        }
        let _outer = Restore(CARRIER.replace(self));
        self.body.set(&body as *const &dyn Fn(usize) as *const ());
        self.ready.borrow_mut().push_back(first);
        while let Some(next) = self.pop_ready() {
            self.switch_to(Some(next));
        }
        self.body.set(ptr::null());
        if let Some(p) = self.escaped.take() {
            panic::resume_unwind(p);
        }
        let stuck: Vec<usize> = (0..self.contexts.len()).filter(|&c| self.state(c) == State::Suspended).collect(); // cold: once per run
        assert!(stuck.is_empty(), "contexts {stuck:?} are suspended and no context is ready to make them ready");
    }

    /// Queue `ctx` to run when the running context suspends — or, from
    /// the carrier loop, next.
    #[inline]
    pub fn ready(&self, ctx: usize) {
        self.check_carrier();
        self.ready.borrow_mut().push_back(ctx);
    }

    /// Give the CPU up from `ctx`, the running context: switch to the
    /// next ready context, or to the carrier loop when none is. Returns
    /// when a switch resumes `ctx`.
    ///
    /// # Aborts
    /// If `ctx` is unwinding a panic.
    #[inline]
    pub fn suspend(&self, ctx: usize) {
        self.check_carrier();
        assert_eq!(self.current.get(), Some(ctx), "only the running context suspends");
        let next = self.pop_ready();
        self.switch_to(next);
    }

    fn check_carrier(&self) {
        assert!(
            ptr::eq(CARRIER.get(), self),
            "a context of a carrier is readied or suspended only from that carrier's own run"
        );
    }

    fn state(&self, ctx: usize) -> State {
        self.contexts[ctx].state.get()
    }

    fn pop_ready(&self) -> Option<usize> {
        let mut ready = self.ready.borrow_mut();
        std::iter::from_fn(|| ready.pop_front()).find(|&c| matches!(self.state(c), State::Fresh | State::Suspended))
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
                    State::Fresh => cx.stack.get_or_init(Stack::new).fresh_frame(self, ctx),
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
        // A context left suspended still has live frames: its stack is
        // leaked, never unmapped under them.
        for cx in self.contexts.iter_mut() {
            if cx.state.get() == State::Suspended {
                std::mem::forget(cx.stack.take());
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
    // on its frame until it returns; it returns only when no context is
    // ready, and a context starts only from the ready ring.
    let body = unsafe { *carrier.body.get().cast::<&dyn Fn(usize)>() };
    if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| body(ctx))) {
        let first = carrier.escaped.take().unwrap_or(p);
        carrier.escaped.set(Some(first));
    }
    carrier.contexts[ctx].state.set(State::Finished);
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

    /// Three contexts take turns through the ready ring, all on the
    /// calling thread.
    #[test]
    fn contexts_take_turns_in_ready_order_on_the_calling_thread() {
        let carrier = Carrier::new(3);
        let log = Mutex::new(Vec::new());
        let me = std::thread::current().id();
        carrier.run(0, &|ctx| {
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
        let carrier = Carrier::new(2);
        let sums = Mutex::new([0.0f64; 2]);
        carrier.run(0, &|ctx| {
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
        let carrier = Carrier::new(1);
        let out = Cell::new(0);
        carrier.run(0, &|_| out.set(deep(512)));
        assert_eq!(out.get(), 256);
    }

    /// A panic a body lets escape comes out of `run`, after the other
    /// contexts finished.
    #[test]
    fn an_escaped_panic_is_resumed_after_every_context_finished() {
        let carrier = Carrier::new(2);
        let finished = Cell::new(false);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            carrier.run(0, &|ctx| {
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

    /// A context left waiting with nothing ready fails the run by name.
    #[test]
    fn a_context_left_suspended_fails_the_run() {
        let carrier = Carrier::new(2);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            carrier.run(0, &|ctx| {
                if ctx == 0 {
                    carrier.ready(1);
                }
                carrier.suspend(ctx);
            })
        }));
        let p = r.unwrap_err();
        let msg = p.downcast_ref::<String>().unwrap();
        assert!(msg.contains("[0, 1]"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "own run")]
    fn only_the_carrier_thread_readies_a_context() {
        Carrier::new(1).ready(0);
    }
}
