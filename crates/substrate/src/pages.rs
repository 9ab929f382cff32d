//! Fresh zero pages from the kernel: the one foreign-function shim of the
//! workspace's runtime crates.
//!
//! On Linux a mapping is an anonymous private `mmap`, whose pages are the
//! kernel's zero page until first written, so asking for a large region
//! costs nothing until it is touched. Common memory (`tmc::common`) maps
//! its segments here and [`stack`](crate::stack) its context stacks.
//! Elsewhere a mapping is a zeroed, page-aligned heap allocation and
//! [`guard`] does nothing.

/// The page size every mapping is aligned to, and the size of a guard.
pub const PAGE: usize = 4096;

pub use sys::{guard, map, unmap};

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use std::ptr::NonNull;

    use super::PAGE;

    const PROT_NONE: i32 = 0x0;
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_FIXED: i32 = 0x10;
    const MAP_ANONYMOUS: i32 = 0x20;

    // The libc symbols std already links, declared here so the crate
    // needs nothing from outside the repository.
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// `len > 0` zero bytes at a fresh page-aligned base: an anonymous
    /// private mapping. `None` if the kernel refuses.
    pub fn map(len: usize) -> Option<NonNull<u8>> {
        // SAFETY: a fresh anonymous mapping at an address of the
        // kernel's choosing aliases nothing.
        let p = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0) };
        // MAP_FAILED is `(void *) -1`.
        NonNull::new(p).filter(|p| p.as_ptr() as usize != usize::MAX)
    }

    /// Give back what [`map`] returned for `len`.
    ///
    /// # Safety
    /// `base` came from `map(len)` and nothing uses it afterwards.
    pub unsafe fn unmap(base: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract. `munmap` fails only on
        // arguments `map` never returns, and a `Drop` has no one to
        // report to anyway.
        unsafe { munmap(base.as_ptr(), len) };
    }

    /// Make the first [`PAGE`] at `base` inaccessible, so a stack that
    /// grows down into it faults instead of running over what lies
    /// below: the page is mapped again, `PROT_NONE`, in place. Whether
    /// the kernel did.
    ///
    /// # Safety
    /// `base` came from `map(len)` with `len > PAGE`, and nothing uses its
    /// first page.
    pub unsafe fn guard(base: NonNull<u8>) -> bool {
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED;
        // SAFETY: the caller's contract: the page belongs to a mapping of
        // ours that nothing reads or writes there, so replacing it
        // changes no live memory.
        let p = unsafe { mmap(base.as_ptr(), PAGE, PROT_NONE, flags, -1, 0) };
        p == base.as_ptr()
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    use std::alloc::Layout;
    use std::ptr::NonNull;

    use super::PAGE;

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, PAGE).expect("mapping size overflows")
    }

    /// A zeroed heap allocation. `None` if the allocator refuses.
    pub fn map(len: usize) -> Option<NonNull<u8>> {
        // SAFETY: `len > 0`, so the layout has a non-zero size.
        NonNull::new(unsafe { std::alloc::alloc_zeroed(layout(len)) })
    }

    /// # Safety
    /// `base` came from `map(len)` and nothing uses it afterwards.
    pub unsafe fn unmap(base: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract: allocated with this layout.
        unsafe { std::alloc::dealloc(base.as_ptr(), layout(len)) }
    }

    /// No guard without a mapping to replace a page of.
    ///
    /// # Safety
    /// None needed; the signature matches the Linux one.
    pub unsafe fn guard(_base: NonNull<u8>) -> bool {
        false
    }
}
