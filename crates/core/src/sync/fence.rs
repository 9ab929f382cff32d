//! Communication synchronization: `shmem_fence` and `shmem_quiet`
//! (paper Section IV-C2, extended with the OpenSHMEM 1.3 completion
//! model).
//!
//! `shmem_quiet()` blocks until all outstanding puts by this PE — the
//! blocking ones *and* the non-blocking (`_nbi`) ones — are complete
//! and visible. `shmem_fence()` is strictly weaker: the puts, nbi puts
//! and AMOs this PE issues to one PE before it are delivered before
//! those it issues to that PE after it, whatever their addresses; but it
//! does **not** complete outstanding non-blocking operations. The
//! paper's TSHMEM aliased fence to quiet (both were `tmc_mem_fence()`),
//! which was harmless when every op was blocking; with `put_nbi` in the
//! surface, that alias would silently destroy the
//! communication/computation overlap nbi exists to provide. The two
//! entry points now diverge, and `Stats { fences, quiets }` counts them
//! separately so tests can assert the difference.
//!
//! Ordering without a drain: a put into the heap, an AMO and a
//! co-resident bypass are done at issue, in program order; a redirected
//! static-target request is sent at issue and served by the remote
//! handler later, in arrival order, and may be left pending. So `fence`
//! starts a new epoch, each pending op records the epoch it was issued
//! in, and the next put, nbi put or AMO to a PE first completes the ops
//! pending to that PE from earlier epochs — nothing else, and nothing at
//! the fence itself. A flag written after `fence` therefore lands after
//! the data written before it, in whichever memory either lives.

use crate::ctx::ShmemCtx;

impl ShmemCtx {
    /// `shmem_quiet`: all outstanding puts by this PE — including
    /// non-blocking ones — are complete and visible. This is the
    /// completion point for `put_nbi`/`get_nbi`.
    pub fn quiet(&self) {
        self.complete_puts();
        self.stats.borrow_mut().quiets += 1;
    }

    /// What `quiet` does, for the library's own use (barrier entry,
    /// collective internals): `Stats::quiets` counts the application's
    /// calls only, so it does not depend on which algorithm or
    /// transport a collective ran on.
    pub(crate) fn complete_puts(&self) {
        self.drain_pending();
        self.fab.quiet();
    }

    /// `shmem_fence`: the puts, nbi puts and AMOs issued to a PE before
    /// it are delivered before those issued to that PE after it. Does
    /// **not** complete outstanding non-blocking operations — after a
    /// `put_nbi` + `fence`, the op is still pending until
    /// [`quiet`](Self::quiet) or the next put or AMO to its PE.
    pub fn fence(&self) {
        self.fab.quiet();
        self.fence_epoch.set(self.fence_epoch.get() + 1);
        self.stats.borrow_mut().fences += 1;
    }
}
