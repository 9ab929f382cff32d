//! Atomic memory operations (Table I: `shmem_swap` and friends).
//!
//! SHMEM provided atomics long before MPI 3.0 (paper Section II-A). All
//! operations act on a single element of a **dynamic** symmetric
//! variable on a target PE; static targets are unsupported (as in the
//! paper's TSHMEM). Float swaps operate on the bit pattern; conditional
//! float operations go through compare-and-swap loops.

use crate::ctx::ShmemCtx;
use crate::fabric::{RmwOp, RmwWidth};
use crate::symm::{AddrClass, Bits, Sym};

/// Integer types supporting direct hardware-style atomics.
pub trait AtomicInt: Bits + PartialEq {
    const WIDTH: RmwWidth;
    fn to_word(self) -> u64;
    fn from_word(w: u64) -> Self;
}

macro_rules! impl_atomic_int {
    ($($t:ty => $w:expr),*) => {$(
        impl AtomicInt for $t {
            const WIDTH: RmwWidth = $w;
            fn to_word(self) -> u64 {
                self as u64 & mask($w)
            }
            fn from_word(w: u64) -> Self {
                w as $t
            }
        }
    )*};
}

impl_atomic_int!(i32 => RmwWidth::W32, u32 => RmwWidth::W32, i64 => RmwWidth::W64, u64 => RmwWidth::W64);

const fn mask(w: RmwWidth) -> u64 {
    match w {
        RmwWidth::W32 => 0xffff_ffff,
        RmwWidth::W64 => u64::MAX,
    }
}

impl ShmemCtx {
    fn atomic_off<T: Bits>(&self, var: &Sym<T>, index: usize, pe: usize) -> usize {
        self.check_pe(pe);
        self.complete_fenced(pe);
        assert_eq!(
            var.class(),
            AddrClass::Dynamic,
            "atomics on static symmetric variables are not supported"
        );
        assert!(index < var.len(), "atomic index out of bounds");
        let off = self.go(pe, var.elem_offset(index));
        assert_eq!(off % std::mem::size_of::<T>(), 0, "unaligned atomic target");
        off
    }

    /// [`Self::atomic_off`] for an operation that always completes.
    fn counted_off<T: Bits>(&self, var: &Sym<T>, index: usize, pe: usize) -> usize {
        let off = self.atomic_off(var, index, pe);
        self.stats.borrow_mut().atomics += 1;
        off
    }

    /// `shmem_swap`: unconditionally replace `var[index]` on `pe`;
    /// returns the old value.
    pub fn swap<T: AtomicInt>(&self, var: &Sym<T>, index: usize, value: T, pe: usize) -> T {
        let off = self.counted_off(var, index, pe);
        T::from_word(self.fab.arena_rmw(off, RmwOp::Swap, value.to_word(), T::WIDTH))
    }

    /// `shmem_cswap`: replace `var[index]` with `value` iff it equals
    /// `cond`; returns the old value.
    pub fn cswap<T: AtomicInt>(&self, var: &Sym<T>, index: usize, cond: T, value: T, pe: usize) -> T {
        let off = self.atomic_off(var, index, pe);
        let old = self.fab.arena_cswap(off, cond.to_word(), value.to_word(), T::WIDTH);
        let mut stats = self.stats.borrow_mut();
        if old == cond.to_word() {
            stats.atomics += 1;
        } else {
            stats.cswap_retries += 1;
        }
        T::from_word(old)
    }

    /// `shmem_fadd`: fetch-and-add; returns the old value.
    pub fn fadd<T: AtomicInt>(&self, var: &Sym<T>, index: usize, value: T, pe: usize) -> T {
        let off = self.counted_off(var, index, pe);
        T::from_word(self.fab.arena_rmw(off, RmwOp::Add, value.to_word(), T::WIDTH))
    }

    /// `shmem_finc`: fetch-and-increment; returns the old value.
    pub fn finc<T: AtomicInt + From<u8>>(&self, var: &Sym<T>, index: usize, pe: usize) -> T {
        self.fadd(var, index, T::from(1u8), pe)
    }

    /// `shmem_add`: add without fetching.
    pub fn add<T: AtomicInt>(&self, var: &Sym<T>, index: usize, value: T, pe: usize) {
        let _ = self.fadd(var, index, value, pe);
    }

    /// `shmem_inc`: increment without fetching.
    pub fn inc<T: AtomicInt + From<u8>>(&self, var: &Sym<T>, index: usize, pe: usize) {
        let _ = self.finc(var, index, pe);
    }

    /// `shmem_float_swap` / `shmem_double_swap`: atomic swap of a
    /// floating-point value (bit-pattern swap).
    pub fn swap_f32(&self, var: &Sym<f32>, index: usize, value: f32, pe: usize) -> f32 {
        let off = self.counted_off(var, index, pe);
        f32::from_bits(
            self.fab
                .arena_rmw(off, RmwOp::Swap, value.to_bits() as u64, RmwWidth::W32) as u32,
        )
    }

    /// Double-precision swap.
    pub fn swap_f64(&self, var: &Sym<f64>, index: usize, value: f64, pe: usize) -> f64 {
        let off = self.counted_off(var, index, pe);
        f64::from_bits(self.fab.arena_rmw(off, RmwOp::Swap, value.to_bits(), RmwWidth::W64))
    }

    /// Atomic fetch-add on a float via a CAS loop (an extension; useful
    /// for histogram-style kernels).
    pub fn fadd_f64(&self, var: &Sym<f64>, index: usize, value: f64, pe: usize) -> f64 {
        let off = self.counted_off(var, index, pe);
        let mut attempt = 0u32;
        loop {
            let cur = self.fab.arena_read_u64(off);
            let new = (f64::from_bits(cur) + value).to_bits();
            if self.fab.arena_cswap(off, cur, new, RmwWidth::W64) == cur {
                return f64::from_bits(cur);
            }
            self.fab.wait_pause(attempt);
            attempt += 1;
        }
    }
}
