//! Communication synchronization: `shmem_fence` and `shmem_quiet`
//! (paper Section IV-C2, extended with the OpenSHMEM 1.3 completion
//! model).
//!
//! `shmem_quiet()` blocks until all outstanding puts by this PE — the
//! blocking ones *and* the non-blocking (`_nbi`) ones — are complete
//! and visible. `shmem_fence()` is strictly weaker: it orders puts per
//! destination PE but does **not** complete outstanding non-blocking
//! operations. The paper's TSHMEM aliased fence to quiet (both were
//! `tmc_mem_fence()`), which was harmless when every op was blocking;
//! with `put_nbi` in the surface, that alias would silently destroy the
//! communication/computation overlap nbi exists to provide. The two
//! entry points now diverge, and `Stats { fences, quiets }` counts them
//! separately so tests can assert the difference.
//!
//! Per-destination ordering without a drain holds by construction:
//! a put into the heap is one copy, done at issue in program order,
//! redirected static-target requests are sent at issue and serviced by
//! the remote handler in arrival order, and the two kinds target
//! disjoint memory (arena vs private), so same-location writes to one
//! PE always retire in program order.

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

    /// `shmem_fence`: ordering of puts per destination PE. Does **not**
    /// complete outstanding non-blocking operations — after a
    /// `put_nbi` + `fence`, the op is still pending until
    /// [`quiet`](Self::quiet).
    pub fn fence(&self) {
        self.fab.quiet();
        self.stats.borrow_mut().fences += 1;
    }
}
