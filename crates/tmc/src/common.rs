//! Common memory: shared memory with identical addressing in every task.
//!
//! TMC common memory differs from plain shared-memory mappings in that
//! every participating process maps the region at the same virtual
//! address, so pointers into it can be shared (paper Section III-B). Our
//! analog is an arena shared by all PE threads and addressed by
//! **offset**: an offset means the same thing to every PE, which is the
//! property TSHMEM's symmetric partitions need.
//!
//! # Data races
//!
//! SHMEM is a weakly-ordered one-sided communication model: the
//! *application* is responsible for ordering conflicting accesses with
//! barriers, fences, and point-to-point synchronization, exactly as with
//! the C library on the real hardware. Bulk accessors use raw-pointer
//! copies; the word accessors used by synchronization primitives
//! (`atomic_u32`/`atomic_u64`/volatile reads) are genuinely atomic, which
//! is what `shmem_wait()` and the atomic operations build on.
//!
//! # Pages
//!
//! TMC common memory is a *mapping*, and so is this: on Linux a segment
//! is an anonymous private `mmap`, whose pages are the kernel's zero page
//! until first written. Creating one writes nothing, so a launch faults in
//! only the pages its job touches, not every byte of every partition.
//! Elsewhere it is a zeroed allocation. Either way the base is at least
//! [`ALIGN`]-aligned and the contents start all zero.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cachesim::homing::Homing;

/// Alignment of every segment's base: a cache line. A mapped segment is
/// page-aligned, which is more.
pub const ALIGN: usize = 64;

/// Where a segment's bytes come from, and where they go back.
mod pages {
    use std::alloc::{handle_alloc_error, Layout};
    use std::ptr::NonNull;

    use substrate::pages;

    use super::ALIGN;

    /// `len` zero bytes at a fresh [`ALIGN`]-aligned base.
    pub fn map(len: usize) -> NonNull<u8> {
        if len == 0 {
            // Aligned, and never dereferenced.
            return NonNull::new(std::ptr::without_provenance_mut(ALIGN)).expect("ALIGN is non-zero");
        }
        pages::map(len).unwrap_or_else(|| handle_alloc_error(layout(len)))
    }

    /// Give back what [`map`] returned for `len`.
    ///
    /// # Safety
    /// `base` came from `map(len)` and nothing uses it afterwards.
    pub unsafe fn unmap(base: NonNull<u8>, len: usize) {
        if len > 0 {
            // SAFETY: the caller's contract, and `len > 0` means `map`
            // got `base` from `pages::map(len)`.
            unsafe { pages::unmap(base, len) }
        }
    }

    /// The allocation `len` bytes stand for: what an out-of-memory report
    /// names.
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, ALIGN).expect("common-memory segment size overflows")
    }
}

/// Marker for types that can be transported byte-wise through common
/// memory (no padding requirements are relied on — reads/writes are
/// unaligned raw copies of `size_of::<T>()` bytes).
///
/// # Safety
/// Implementors must be valid for every bit pattern of their size.
pub unsafe trait Bits: Copy + Send + 'static {}

macro_rules! impl_bits {
    ($($t:ty),*) => {
        $(unsafe impl Bits for $t {})*
    };
}

impl_bits!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// A shared arena addressed by offset, visible to all PE threads.
pub struct CommonMemory {
    /// `len` bytes owned by this segment (see the module's "Pages").
    base: NonNull<u8>,
    len: usize,
    homing: Homing,
}

// SAFETY: the segment behind `base` belongs to this value alone and is
// given back only by `Drop`; `len` and `homing` never change. All access
// goes through raw-pointer copies or atomics; the SHMEM programming
// model (and this library's docs) make cross-PE ordering the
// application's responsibility, as on the real device.
unsafe impl Send for CommonMemory {}
unsafe impl Sync for CommonMemory {}

impl CommonMemory {
    /// Map `len` zero bytes of common memory with the given homing
    /// policy (homing affects the timed model and ablations; functional
    /// behavior is identical).
    pub fn new(len: usize, homing: Homing) -> Arc<Self> {
        Arc::new(Self {
            base: pages::map(len),
            len,
            homing,
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn homing(&self) -> Homing {
        self.homing
    }

    #[inline]
    fn ptr(&self, offset: usize, len: usize) -> *mut u8 {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "common-memory access [{offset}, {offset}+{len}) out of bounds (len {})",
            self.len
        );
        // SAFETY: `offset <= len`: inside the segment or one past its end.
        unsafe { self.base.as_ptr().add(offset) }
    }

    /// Copy `src` into the arena at `offset`.
    #[inline]
    pub fn write_bytes(&self, offset: usize, src: &[u8]) {
        let p = self.ptr(offset, src.len());
        // SAFETY: bounds checked above; see module docs for the
        // concurrency contract.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), p, src.len()) }
    }

    /// Copy from the arena at `offset` into `dst`.
    #[inline]
    pub fn read_bytes(&self, offset: usize, dst: &mut [u8]) {
        let p = self.ptr(offset, dst.len());
        // SAFETY: as above.
        unsafe { std::ptr::copy_nonoverlapping(p as *const u8, dst.as_mut_ptr(), dst.len()) }
    }

    /// Fill `[offset, offset + len)` with `byte`. Used by arena
    /// recycling to scrub a retired region before another tenant maps
    /// it — zeroing restores the freshly-`new` contract, a poison
    /// pattern makes use-before-init visible in debug builds.
    #[inline]
    pub fn fill(&self, offset: usize, len: usize, byte: u8) {
        let p = self.ptr(offset, len);
        // SAFETY: bounds checked above; see module docs for the
        // concurrency contract.
        unsafe { std::ptr::write_bytes(p, byte, len) }
    }

    /// `memmove` within the arena (ranges may overlap).
    #[inline]
    pub fn copy_within(&self, dst_offset: usize, src_offset: usize, len: usize) {
        let s = self.ptr(src_offset, len) as *const u8;
        let d = self.ptr(dst_offset, len);
        // SAFETY: both ranges bounds-checked; copy handles overlap.
        unsafe { std::ptr::copy(s, d, len) }
    }

    /// Strided gather/scatter within the arena: copies `nelems` elements
    /// of `elem` bytes from `src_offset` (stride `src_stride` elements)
    /// to `dst_offset` (stride `dst_stride` elements). This is the
    /// engine-room of `shmem_iput`/`shmem_iget`.
    pub fn copy_strided(
        &self,
        dst_offset: usize,
        dst_stride: usize,
        src_offset: usize,
        src_stride: usize,
        elem: usize,
        nelems: usize,
    ) {
        for i in 0..nelems {
            self.copy_within(
                dst_offset + i * dst_stride * elem,
                src_offset + i * src_stride * elem,
                elem,
            );
        }
    }

    /// Write one value at `offset` (unaligned).
    #[inline]
    pub fn write_val<T: Bits>(&self, offset: usize, v: T) {
        let p = self.ptr(offset, std::mem::size_of::<T>());
        // SAFETY: bounds checked; T: Bits allows byte-wise transport.
        unsafe { std::ptr::write_unaligned(p.cast::<T>(), v) }
    }

    /// Read one value at `offset` (unaligned).
    #[inline]
    pub fn read_val<T: Bits>(&self, offset: usize) -> T {
        let p = self.ptr(offset, std::mem::size_of::<T>());
        // SAFETY: as above.
        unsafe { std::ptr::read_unaligned(p.cast::<T>()) }
    }

    /// Atomic view of an aligned `u64` in the arena.
    ///
    /// # Panics
    /// Panics if `offset` is not 8-byte aligned (relative to the arena
    /// base, which is [`ALIGN`]-aligned).
    #[inline]
    pub fn atomic_u64(&self, offset: usize) -> &AtomicU64 {
        assert!(offset.is_multiple_of(8), "atomic_u64 offset {offset} unaligned");
        let p = self.ptr(offset, 8);
        // SAFETY: in-bounds, aligned; AtomicU64 has the same layout as u64.
        unsafe { &*(p as *const AtomicU64) }
    }

    /// Atomic view of an aligned `u32` in the arena.
    #[inline]
    pub fn atomic_u32(&self, offset: usize) -> &AtomicU32 {
        assert!(offset.is_multiple_of(4), "atomic_u32 offset {offset} unaligned");
        let p = self.ptr(offset, 4);
        // SAFETY: as above.
        unsafe { &*(p as *const AtomicU32) }
    }

    /// Raw pointer to `len` bytes at `offset` (bounds-checked). Callers
    /// take on the module's concurrency contract; used by TSHMEM's
    /// local-slice accessors.
    #[inline]
    pub fn raw(&self, offset: usize, len: usize) -> *mut u8 {
        self.ptr(offset, len)
    }

    /// Copy `len` bytes between two distinct arenas (e.g. a private
    /// segment and common memory) in one `memcpy`.
    ///
    /// # Panics
    /// Panics on out-of-bounds ranges or if `dst` and `src` are the same
    /// arena (use [`copy_within`](Self::copy_within) for that).
    pub fn copy_between(dst: &CommonMemory, dst_off: usize, src: &CommonMemory, src_off: usize, len: usize) {
        assert!(
            !std::ptr::eq(dst, src),
            "copy_between requires distinct arenas; use copy_within"
        );
        let d = dst.ptr(dst_off, len);
        let s = src.ptr(src_off, len) as *const u8;
        // SAFETY: bounds checked; distinct allocations cannot overlap.
        unsafe { std::ptr::copy_nonoverlapping(s, d, len) }
    }

    /// Volatile (racy-tolerant) read of a value — what `shmem_wait`
    /// polls with. Uses an acquire fence so written data is visible once
    /// the awaited value appears.
    #[inline]
    pub fn read_volatile<T: Bits>(&self, offset: usize) -> T {
        let p = self.ptr(offset, std::mem::size_of::<T>());
        // SAFETY: bounds checked.
        let v = unsafe { std::ptr::read_volatile(p.cast::<T>()) };
        std::sync::atomic::fence(Ordering::Acquire);
        v
    }
}

impl Drop for CommonMemory {
    fn drop(&mut self) {
        // SAFETY: `base` came from `pages::map(len)`; `&mut self` is the
        // last use.
        unsafe { pages::unmap(self.base, self.len) }
    }
}

impl std::fmt::Debug for CommonMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommonMemory")
            .field("len", &self.len)
            .field("homing", &self.homing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm(len: usize) -> Arc<CommonMemory> {
        CommonMemory::new(len, Homing::HashForHome)
    }

    #[test]
    fn bytes_roundtrip() {
        let m = cm(64);
        m.write_bytes(3, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        m.read_bytes(3, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn typed_roundtrip_unaligned() {
        let m = cm(64);
        m.write_val::<f64>(5, 2.5);
        assert_eq!(m.read_val::<f64>(5), 2.5);
        m.write_val::<u32>(1, 0xDEAD_BEEF);
        assert_eq!(m.read_val::<u32>(1), 0xDEAD_BEEF);
    }

    #[test]
    fn copy_within_overlapping() {
        let m = cm(16);
        m.write_bytes(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.copy_within(2, 0, 8); // overlapping forward copy
        let mut out = [0u8; 10];
        m.read_bytes(0, &mut out);
        assert_eq!(out, [1, 2, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn strided_copy_gathers() {
        let m = cm(256);
        // Source: u32 elements at stride 2.
        for i in 0..4u32 {
            m.write_val::<u32>((i as usize) * 8, i + 10);
        }
        m.copy_strided(128, 1, 0, 2, 4, 4);
        for i in 0..4u32 {
            assert_eq!(m.read_val::<u32>(128 + (i as usize) * 4), i + 10);
        }
    }

    #[test]
    fn atomics_are_shared() {
        let m = cm(64);
        m.atomic_u64(8).store(7, Ordering::SeqCst);
        assert_eq!(m.read_val::<u64>(8), 7);
        m.atomic_u32(4).fetch_add(5, Ordering::SeqCst);
        assert_eq!(m.read_val::<u32>(4), 5);
    }

    #[test]
    fn cross_thread_visibility() {
        let m = cm(64);
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            m2.write_val::<u64>(16, 99);
            m2.atomic_u64(0).store(1, Ordering::Release);
        });
        while m.atomic_u64(0).load(Ordering::Acquire) == 0 {
            std::hint::spin_loop();
        }
        assert_eq!(m.read_val::<u64>(16), 99);
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        cm(8).read_val::<u64>(1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_overflowing_offset_panics() {
        cm(8).write_bytes(usize::MAX - 2, &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_atomic_panics() {
        cm(64).atomic_u64(4);
    }

    #[test]
    fn volatile_read_sees_value() {
        let m = cm(8);
        m.write_val::<u32>(0, 42);
        assert_eq!(m.read_volatile::<u32>(0), 42);
    }

    #[test]
    fn zero_length_access_at_the_end_succeeds() {
        for len in [0, 1, 64, 4097] {
            let m = cm(len);
            m.write_bytes(len, &[]);
            m.read_bytes(len, &mut []);
            m.fill(len, 0, 0xFF);
            m.copy_within(len, len, 0);
            assert!(!m.raw(len, 0).is_null());
        }
    }

    #[test]
    fn the_base_is_line_aligned() {
        for len in [0, 1, 8, 64, 4095, 4096, 65_537, 1 << 20] {
            assert_eq!(cm(len).raw(0, 0) as usize % ALIGN, 0, "segment of {len} B");
        }
    }

    /// Anonymous resident memory of this process, bytes (`RssAnon` of
    /// `/proc/self/status`: the pages a process itself dirtied, not code
    /// or files it maps).
    #[cfg(target_os = "linux")]
    fn resident_anon() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let kib = status.lines().find_map(|l| l.strip_prefix("RssAnon:")).expect("RssAnon line");
        kib.trim().trim_end_matches("kB").trim().parse::<usize>().expect("a kB count") * 1024
    }

    /// A fresh segment costs no resident memory: its untouched pages read
    /// zero, and a write makes one page resident, not the segment. The
    /// smallest of three tries is the one judged, so a concurrent test
    /// allocating in the same process cannot fail it.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_fresh_segment_stays_non_resident_until_touched() {
        const LEN: usize = 64 << 20;
        let grew = (0..3)
            .map(|_| {
                let before = resident_anon();
                let m = cm(LEN);
                for off in (0..LEN).step_by(LEN / 64).chain([LEN - 8]) {
                    assert_eq!(m.read_val::<u64>(off), 0, "offset {off}");
                }
                let grew = resident_anon().saturating_sub(before);
                m.write_bytes(LEN / 2, b"touched");
                let mut back = [0u8; 7];
                m.read_bytes(LEN / 2, &mut back);
                assert_eq!(&back, b"touched");
                grew
            })
            .min()
            .unwrap();
        assert!(grew < 1 << 20, "a fresh 64 MiB segment made {grew} B resident");
    }
}
