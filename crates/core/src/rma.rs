//! One-sided data transfers: elemental, bulk, and strided puts/gets,
//! with the paper's address classification (Section IV-B).
//!
//! Every transfer classifies its target and source:
//!
//! | case (target–source) | put | get |
//! |---|---|---|
//! | dynamic–dynamic | direct local `memcpy` | direct local `memcpy` |
//! | dynamic–static  | direct (read own private, write arena) | **redirected**: remote services a put into my arena |
//! | static–dynamic  | **redirected**: remote services a get from my arena | direct (read arena, write own private) |
//! | static–static   | **temp-assisted**: copy to shared temp, then redirect | **temp-assisted**: redirect into my temp, then copy |
//!
//! Redirection interrupts the remote tile over the UDN ([`crate::service`]);
//! the temp-assisted cases pay one extra shared-memory copy — exactly the
//! cost ladder of Figure 7. A caller's local slice is private memory the
//! remote tile cannot address, so it classifies as static.
//!
//! A blocking call and its `_nbi` twin take the same path — one class
//! dispatch per direction, one redirect, one temp chunker — and differ
//! only in when a redirected request completes: a blocking call awaits
//! its reply before it returns, a deferred one at
//! [`quiet`](ShmemCtx::quiet). Every local copy completes at issue.

use crate::ctx::{byte_view, byte_view_mut, ShmemCtx};
use crate::fabric::{Locality, ProtoMsg, Q_REPLY, Q_SERVICE, RmwOp, RmwWidth};
use crate::service::{
    encode_request, encode_strided_request, TAG_SDONE, TAG_SGET, TAG_SGETS, TAG_SPUT, TAG_SPUTS,
};
use crate::symm::{AddrClass, Bits, Sym};

/// One outstanding non-blocking operation, tracked per context and
/// completed by [`ShmemCtx::quiet`] (or the internal drain every
/// barrier-entering operation performs): a redirected request already
/// queued at `pe`'s service context, whose completion only awaits the
/// `TAG_SDONE` reply carrying `token`. Multiple requests pipeline
/// through the remote handler, which is where the nbi overlap win comes
/// from; the only ops that wait on another context are these.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingOp {
    pe: usize,
    token: u64,
    /// The [`fence`](ShmemCtx::fence) epoch it was issued in.
    epoch: u64,
}

/// When a transfer completes — the one difference between a blocking
/// call and its `_nbi` twin.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Completion {
    /// Before the call returns.
    Now,
    /// At the next [`quiet`](ShmemCtx::quiet) or internal drain: a
    /// redirected request is sent now and its reply awaited then. A
    /// local copy — a put into the heap among them — has nothing to
    /// overlap and completes at issue.
    AtQuiet,
}

/// One end of a contiguous transfer: a caller's slice (read by a put,
/// written by a get), or a byte offset into the arena (global) or into a
/// private segment.
enum End<'a> {
    Read(&'a [u8]),
    Write(&'a mut [u8]),
    Arena(usize),
    Private(usize),
}

impl End<'_> {
    fn class(&self) -> AddrClass {
        match self {
            End::Arena(_) => AddrClass::Dynamic,
            _ => AddrClass::Static,
        }
    }

    /// The offset of a symmetric end.
    fn off(&self) -> usize {
        match self {
            End::Arena(off) | End::Private(off) => *off,
            End::Read(_) | End::Write(_) => unreachable!("a slice has no offset"),
        }
    }

    /// The `n` bytes at byte `at` of this end.
    fn sub(&mut self, at: usize, n: usize) -> End<'_> {
        match self {
            End::Read(b) => End::Read(&b[at..at + n]),
            End::Write(b) => End::Write(&mut b[at..at + n]),
            End::Arena(off) => End::Arena(*off + at),
            End::Private(off) => End::Private(*off + at),
        }
    }
}

/// One service request: `count` elements of `esize` bytes, `stride`
/// bytes apart from `priv_off` in the remote private segment and packed
/// from `arena` in the arena. A contiguous request (`TAG_SPUT`,
/// `TAG_SGET`) is one element; a strided batch (`TAG_SPUTS`,
/// `TAG_SGETS`) covers a whole temp-staged chunk with one interrupt.
#[derive(Clone, Copy)]
struct Request {
    tag: u16,
    priv_off: usize,
    stride: usize,
    esize: usize,
    count: usize,
    arena: usize,
}

impl Request {
    fn span(tag: u16, priv_off: usize, arena: usize, len: usize) -> Self {
        Request { tag, priv_off, stride: len, esize: len, count: 1, arena }
    }
}

/// How `put_signal` updates the signal word after delivering the
/// payload (`SHMEM_SIGNAL_SET` / `SHMEM_SIGNAL_ADD`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalOp {
    /// Overwrite the signal word.
    Set,
    /// Atomically add to the signal word.
    Add,
}

impl ShmemCtx {
    // --- elemental (`shmem_T_p` / `shmem_T_g`) --------------------------

    /// Write one element to `target[index]` on PE `pe`.
    pub fn p<T: Bits>(&self, target: &Sym<T>, index: usize, value: T, pe: usize) {
        self.put(target, index, std::slice::from_ref(&value), pe);
    }

    /// Read one element from `source[index]` on PE `pe`.
    pub fn g<T: Bits>(&self, source: &Sym<T>, index: usize, pe: usize) -> T {
        let mut out = [unsafe { std::mem::zeroed::<T>() }];
        self.get(&mut out, source, index, pe);
        out[0]
    }

    // --- bulk (`shmem_put` / `shmem_get` / `shmem_putmem`...) -----------

    /// Put `src` into `target[index..]` on PE `pe` from a local buffer.
    ///
    /// Local buffers are private to this PE, so a static-class target
    /// takes the temp-assisted path (a local Rust slice is the moral
    /// equivalent of static/stack memory — the remote tile cannot read
    /// it directly).
    pub fn put<T: Bits>(&self, target: &Sym<T>, index: usize, src: &[T], pe: usize) {
        self.put_slice(target, index, src, pe, Completion::Now);
    }

    /// Get `source[index..]` on PE `pe` into a local buffer.
    pub fn get<T: Bits>(&self, dst: &mut [T], source: &Sym<T>, index: usize, pe: usize) {
        self.get_slice(dst, source, index, pe, Completion::Now);
    }

    /// Symmetric-to-symmetric put: `target[toff..toff+n]` on PE `pe`
    /// receives `source[soff..soff+n]` from this PE. This is the form
    /// that exercises all four Figure 7 cases.
    pub fn put_sym<T: Bits>(
        &self,
        target: &Sym<T>,
        toff: usize,
        source: &Sym<T>,
        soff: usize,
        n: usize,
        pe: usize,
    ) {
        self.sym_transfer(true, target, toff, source, soff, n, pe, Completion::Now);
    }

    /// Symmetric-to-symmetric get: `target[toff..]` on this PE receives
    /// `source[soff..]` from PE `pe`.
    pub fn get_sym<T: Bits>(
        &self,
        target: &Sym<T>,
        toff: usize,
        source: &Sym<T>,
        soff: usize,
        n: usize,
        pe: usize,
    ) {
        self.sym_transfer(false, target, toff, source, soff, n, pe, Completion::Now);
    }

    // --- strided (`shmem_T_iput` / `shmem_T_iget`) ----------------------

    /// Strided put: for `i` in `0..nelems`, `src[sst*i]` goes to
    /// `target[tst*i + tidx]` on PE `pe` — the OpenSHMEM `iput` shape,
    /// with the element count explicit on both sides (the count is never
    /// derived from a buffer length, so iput and iget agree).
    ///
    /// Counted as **one** logical put of `nelems` elements. Static-class
    /// targets are serviced in temp-buffer-sized batches: the strided
    /// elements are gathered locally, staged contiguously in the shared
    /// temp, and scattered by the remote service handler — one redirect
    /// round-trip per `temp_bytes / size_of::<T>()` elements instead of
    /// one per element.
    // Mirrors the C `shmem_iput` signature.
    #[allow(clippy::too_many_arguments)]
    pub fn iput<T: Bits>(
        &self,
        target: &Sym<T>,
        tidx: usize,
        tst: usize,
        src: &[T],
        sst: usize,
        nelems: usize,
        pe: usize,
    ) {
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(tst >= 1 && sst >= 1, "strides must be >= 1");
        if nelems == 0 {
            return;
        }
        assert!(
            (nelems - 1) * sst < src.len(),
            "iput source too small: need element {} of {}",
            (nelems - 1) * sst,
            src.len()
        );
        assert!(
            tidx + (nelems - 1) * tst < target.len(),
            "iput target out of bounds"
        );
        let esize = std::mem::size_of::<T>();
        {
            let mut s = self.stats.borrow_mut();
            s.puts += 1;
            s.put_bytes += (nelems * esize) as u64;
        }
        // Every downstream path wants the source contiguous. A unit-
        // stride source already is — borrow it; only a genuinely strided
        // source pays a gather.
        // cold: allocation only on the strided-source path; unit-stride
        // borrows `src` directly.
        let owned: Vec<T>;
        let gathered: &[T] = if sst == 1 && self.rma_fast_paths {
            &src[..nelems]
        } else {
            owned = (0..nelems).map(|i| src[i * sst]).collect();
            &owned
        };
        let me = self.my_pe();
        match target.class() {
            // Unit-stride target: the whole run is one contiguous write.
            AddrClass::Dynamic if tst == 1 && self.rma_fast_paths => {
                self.fab
                    .arena_write(self.go(pe, target.elem_offset(tidx)), byte_view(gathered));
            }
            AddrClass::Dynamic => {
                for (i, v) in gathered.iter().enumerate() {
                    self.fab.arena_write(
                        self.go(pe, target.elem_offset(tidx + i * tst)),
                        byte_view(std::slice::from_ref(v)),
                    );
                }
            }
            AddrClass::Static if pe == me && tst == 1 && self.rma_fast_paths => {
                self.fab
                    .private_write(target.elem_offset(tidx), byte_view(gathered));
            }
            AddrClass::Static if pe == me => {
                for (i, v) in gathered.iter().enumerate() {
                    self.fab.private_write(
                        target.elem_offset(tidx + i * tst),
                        byte_view(std::slice::from_ref(v)),
                    );
                }
            }
            AddrClass::Static => self.temp_chunks(nelems, esize, Completion::Now, |done, n, temp| {
                // Stage the gathered batch; the remote scatters it.
                self.fab.arena_write(temp, byte_view(&gathered[done..done + n]));
                let priv_off = target.elem_offset(tidx + done * tst);
                let r = Request { tag: TAG_SPUTS, priv_off, stride: tst * esize, esize, count: n, arena: temp };
                self.redirect(pe, r, Completion::Now);
            }),
        }
    }

    /// Strided get: for `i` in `0..nelems`, `dst[dst_stride*i]` receives
    /// `source[sst*i + sidx]` from PE `pe`. Counted as **one** logical
    /// get of `nelems` elements; static-class sources batch through the
    /// temp buffer like [`ShmemCtx::iput`].
    // Mirrors the C `shmem_iget` signature.
    #[allow(clippy::too_many_arguments)]
    pub fn iget<T: Bits>(
        &self,
        dst: &mut [T],
        dst_stride: usize,
        source: &Sym<T>,
        sidx: usize,
        sst: usize,
        nelems: usize,
        pe: usize,
    ) {
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(dst_stride >= 1 && sst >= 1, "strides must be >= 1");
        if nelems == 0 {
            return;
        }
        assert!(
            (nelems - 1) * dst_stride < dst.len(),
            "iget destination too small: need element {} of {}",
            (nelems - 1) * dst_stride,
            dst.len()
        );
        assert!(
            sidx + (nelems - 1) * sst < source.len(),
            "iget source out of bounds"
        );
        let esize = std::mem::size_of::<T>();
        {
            let mut s = self.stats.borrow_mut();
            s.gets += 1;
            s.get_bytes += (nelems * esize) as u64;
        }
        let me = self.my_pe();
        match source.class() {
            // Unit stride on both sides: one contiguous read, straight
            // into the caller's buffer — one copy, one trace event.
            AddrClass::Dynamic if sst == 1 && dst_stride == 1 && self.rma_fast_paths => {
                self.fab.arena_read(
                    self.go(pe, source.elem_offset(sidx)),
                    byte_view_mut(&mut dst[..nelems]),
                );
            }
            // Contiguous source, strided destination: still one read (to
            // scratch), then a local scatter.
            AddrClass::Dynamic if sst == 1 && self.rma_fast_paths => {
                self.with_scratch(nelems * esize, |buf| {
                    self.fab.arena_read(self.go(pe, source.elem_offset(sidx)), buf);
                    for i in 0..nelems {
                        byte_view_mut(std::slice::from_mut(&mut dst[i * dst_stride]))
                            .copy_from_slice(&buf[i * esize..(i + 1) * esize]);
                    }
                });
            }
            AddrClass::Dynamic => {
                for i in 0..nelems {
                    let mut tmp = [unsafe { std::mem::zeroed::<T>() }];
                    self.fab.arena_read(
                        self.go(pe, source.elem_offset(sidx + i * sst)),
                        byte_view_mut(&mut tmp),
                    );
                    dst[i * dst_stride] = tmp[0];
                }
            }
            AddrClass::Static if pe == me && sst == 1 && dst_stride == 1 && self.rma_fast_paths => {
                self.fab.private_read(
                    source.elem_offset(sidx),
                    byte_view_mut(&mut dst[..nelems]),
                );
            }
            AddrClass::Static if pe == me => {
                for i in 0..nelems {
                    let mut tmp = [unsafe { std::mem::zeroed::<T>() }];
                    self.fab.private_read(
                        source.elem_offset(sidx + i * sst),
                        byte_view_mut(&mut tmp),
                    );
                    dst[i * dst_stride] = tmp[0];
                }
            }
            AddrClass::Static => self.temp_chunks(nelems, esize, Completion::Now, |done, n, temp| {
                // The remote gathers the batch into our temp; scatter it.
                let priv_off = source.elem_offset(sidx + done * sst);
                let r = Request { tag: TAG_SGETS, priv_off, stride: sst * esize, esize, count: n, arena: temp };
                self.redirect(pe, r, Completion::Now);
                if dst_stride == 1 && self.rma_fast_paths {
                    // Contiguous destination: drain the temp straight into
                    // the caller's buffer, no staging copy.
                    self.fab
                        .arena_read(temp, byte_view_mut(&mut dst[done..done + n]));
                } else {
                    self.with_scratch(n * esize, |buf| {
                        self.fab.arena_read(temp, buf);
                        for i in 0..n {
                            byte_view_mut(std::slice::from_mut(&mut dst[(done + i) * dst_stride]))
                                .copy_from_slice(&buf[i * esize..(i + 1) * esize]);
                        }
                    });
                }
            }),
        }
    }

    // --- `shmem_ptr` ----------------------------------------------------

    /// The analog of `shmem_ptr`: a raw pointer to `sym` on PE `pe` if
    /// it is directly addressable from this PE (dynamic objects always
    /// are on this shared-memory machine; remote static objects are not).
    pub fn ptr<T: Bits>(&self, sym: &Sym<T>, pe: usize) -> Option<*mut T> {
        self.check_pe(pe);
        match sym.class() {
            AddrClass::Dynamic => Some(
                self.fab
                    .arena_raw(self.go(pe, sym.offset()), sym.byte_len())
                    .cast::<T>(),
            ),
            AddrClass::Static if pe == self.my_pe() => {
                Some(self.fab.private_raw(sym.offset(), sym.byte_len()).cast::<T>())
            }
            AddrClass::Static => None,
        }
    }


    // --- non-blocking transfers (`shmem_put_nbi` / `shmem_get_nbi`) -----

    /// `shmem_put_nbi`: start a put of `src` into `target[index..]` on
    /// PE `pe` and return without awaiting the remote handler. A dynamic
    /// target is directly addressable, so the put is one copy and is
    /// complete when the call returns (the OpenSHMEM nbi contract permits
    /// early completion); a remote static target sends its redirected
    /// service requests now and defers only their completion-reply waits
    /// to [`quiet`](Self::quiet), pipelining the requests through the
    /// remote handler.
    pub fn put_nbi<T: Bits>(&self, target: &Sym<T>, index: usize, src: &[T], pe: usize) {
        self.put_slice(target, index, src, pe, Completion::AtQuiet);
    }

    /// `shmem_get_nbi`: get into a local buffer. The destination is a
    /// borrowed Rust slice, so the transfer completes at issue (the
    /// OpenSHMEM nbi contract permits early completion); the call still
    /// counts as an nbi get and participates in the fence/quiet
    /// ordering model.
    pub fn get_nbi<T: Bits>(&self, dst: &mut [T], source: &Sym<T>, index: usize, pe: usize) {
        self.get_slice(dst, source, index, pe, Completion::AtQuiet);
    }

    /// Symmetric-to-symmetric non-blocking put (the deferred counterpart
    /// of [`put_sym`](Self::put_sym)).
    #[allow(clippy::too_many_arguments)] // mirrors put_sym
    pub fn put_sym_nbi<T: Bits>(
        &self,
        target: &Sym<T>,
        toff: usize,
        source: &Sym<T>,
        soff: usize,
        n: usize,
        pe: usize,
    ) {
        self.sym_transfer(true, target, toff, source, soff, n, pe, Completion::AtQuiet);
    }

    /// Symmetric-to-symmetric non-blocking get. The dynamic-target,
    /// static-source case — the redirected one — genuinely defers: the
    /// remote handler writes straight into our arena target and the
    /// completion reply is awaited at [`quiet`](Self::quiet). The other
    /// cases are local copies and complete at issue.
    #[allow(clippy::too_many_arguments)] // mirrors get_sym
    pub fn get_sym_nbi<T: Bits>(
        &self,
        target: &Sym<T>,
        toff: usize,
        source: &Sym<T>,
        soff: usize,
        n: usize,
        pe: usize,
    ) {
        self.sym_transfer(false, target, toff, source, soff, n, pe, Completion::AtQuiet);
    }

    // --- the one contiguous path ----------------------------------------

    fn put_slice<T: Bits>(&self, target: &Sym<T>, index: usize, src: &[T], pe: usize, c: Completion) {
        self.enter(true, pe, c);
        assert!(index + src.len() <= target.len(), "put out of bounds");
        let bytes = byte_view(src);
        self.transfer(true, pe, self.end(target, index, pe), End::Read(bytes), bytes.len(), c);
    }

    fn get_slice<T: Bits>(&self, dst: &mut [T], source: &Sym<T>, index: usize, pe: usize, c: Completion) {
        self.enter(false, pe, c);
        assert!(index + dst.len() <= source.len(), "get out of bounds");
        let bytes = byte_view_mut(dst);
        let len = bytes.len();
        self.transfer(false, pe, End::Write(bytes), self.end(source, index, pe), len, c);
    }

    #[allow(clippy::too_many_arguments)]
    fn sym_transfer<T: Bits>(
        &self,
        put: bool,
        target: &Sym<T>,
        toff: usize,
        source: &Sym<T>,
        soff: usize,
        n: usize,
        pe: usize,
        c: Completion,
    ) {
        self.enter(put, pe, c);
        let op = if put { "put_sym" } else { "get_sym" };
        assert!(toff + n <= target.len(), "{op} target out of bounds");
        assert!(soff + n <= source.len(), "{op} source out of bounds");
        let len = n * std::mem::size_of::<T>();
        if len == 0 {
            return;
        }
        let me = self.my_pe();
        let (tpe, spe) = if put { (pe, me) } else { (me, pe) };
        self.transfer(put, pe, self.end(target, toff, tpe), self.end(source, soff, spe), len, c);
    }

    /// Element `index` of `sym` on PE `pe` as a transfer end.
    fn end<T: Bits>(&self, sym: &Sym<T>, index: usize, pe: usize) -> End<'static> {
        let off = sym.elem_offset(index);
        match sym.class() {
            AddrClass::Dynamic => End::Arena(self.go(pe, off)),
            AddrClass::Static => End::Private(off),
        }
    }

    /// Check `pe` and keep program order with earlier nbi traffic to it:
    /// every call flushes that traffic but a deferred put, which may
    /// queue behind what was issued since the last `fence` and completes
    /// only what came before it.
    fn enter(&self, put: bool, pe: usize, c: Completion) {
        self.check_pe(pe);
        if !put || c == Completion::Now {
            self.flush_pending_dest(pe);
        } else {
            self.complete_fenced(pe);
        }
    }

    /// Count one put or get of `len` bytes and run it through its
    /// direction's class dispatch. Under [`Fault::EagerNbi`] a deferred
    /// op is drained at its tail.
    ///
    /// [`Fault::EagerNbi`]: crate::fault::Fault::EagerNbi
    fn transfer(&self, put: bool, pe: usize, target: End<'_>, source: End<'_>, len: usize, c: Completion) {
        {
            let mut s = self.stats.borrow_mut();
            match (put, c) {
                (true, Completion::Now) => s.puts += 1,
                (true, Completion::AtQuiet) => s.nbi_puts += 1,
                (false, Completion::Now) => s.gets += 1,
                (false, Completion::AtQuiet) => s.nbi_gets += 1,
            }
            if put {
                s.put_bytes += len as u64;
            } else {
                s.get_bytes += len as u64;
            }
        }
        if put {
            self.put_to(pe, target, source, len, c);
        } else {
            self.get_from(pe, target, source, len, c);
        }
        if c == Completion::AtQuiet && self.nbi_eager {
            self.drain_pending();
        }
    }

    /// Figure 7 for a put: `source` is this PE's, `target` is on `pe`.
    fn put_to(&self, pe: usize, target: End<'_>, source: End<'_>, len: usize, c: Completion) {
        let remote = pe != self.my_pe();
        match (target.class(), source.class()) {
            // static-dynamic: redirect — the remote tile reads our arena
            // source into its private target.
            (AddrClass::Static, AddrClass::Dynamic) if remote => {
                self.redirect(pe, Request::span(TAG_SPUT, target.off(), source.off(), len), c);
            }
            // static-static: copy to our shared temp first, then
            // redirect (the extra-copy penalty of Figure 7).
            (AddrClass::Static, AddrClass::Static) if remote => {
                self.via_temp(pe, TAG_SPUT, target.off(), source, len, c);
            }
            // A dynamic target, or a static one on ourselves, is directly
            // addressable: one local copy.
            _ => self.copy(target, source, len),
        }
    }

    /// Figure 7 for a get: `target` is this PE's, `source` is on `pe`.
    fn get_from(&self, pe: usize, target: End<'_>, source: End<'_>, len: usize, c: Completion) {
        let remote = pe != self.my_pe();
        match (target.class(), source.class()) {
            // dynamic-static: redirect — the remote tile puts its private
            // source straight into our arena target.
            (AddrClass::Dynamic, AddrClass::Static) if remote => {
                self.redirect(pe, Request::span(TAG_SGET, source.off(), target.off(), len), c);
            }
            // static-static: redirect into our temp, then copy out. The
            // copy needs each reply, so this completes now either way.
            (AddrClass::Static, AddrClass::Static) if remote => {
                self.via_temp(pe, TAG_SGET, source.off(), target, len, Completion::Now);
            }
            // A dynamic source, or a static one on ourselves, is directly
            // addressable: one local copy.
            _ => self.copy(target, source, len),
        }
    }

    /// One local copy between two directly addressable ends.
    fn copy(&self, dst: End<'_>, src: End<'_>, len: usize) {
        match (dst, src) {
            (End::Arena(d), End::Read(s)) => self.fab.arena_write(d, s),
            (End::Arena(d), End::Arena(s)) => self.fab.arena_copy(d, s, len),
            (End::Arena(d), End::Private(s)) => self.fab.private_to_arena(d, s, len),
            (End::Private(d), End::Read(s)) => self.fab.private_write(d, s),
            (End::Private(d), End::Arena(s)) => self.fab.arena_to_private(d, s, len),
            (End::Private(d), End::Private(s)) => self.with_scratch(len, |buf| {
                self.fab.private_read(s, buf);
                self.fab.private_write(d, buf);
            }),
            (End::Write(d), End::Read(s)) => d.copy_from_slice(s),
            (End::Write(d), End::Arena(s)) => self.fab.arena_read(s, d),
            (End::Write(d), End::Private(s)) => self.fab.private_read(s, d),
            (End::Read(_), _) | (_, End::Write(_)) => {
                unreachable!("a transfer reads its source and writes its target")
            }
        }
    }

    // --- redirection internals -------------------------------------------

    /// Take the co-resident bypass to `pe` if there is one: the locality
    /// capability when `pe` is a *distinct* co-resident peer — on the
    /// coop engine, a PE multiplexed on the same worker, whose private
    /// segment is directly addressable while we hold the shared
    /// admission gate. Redirected traffic to such a peer degrades to the
    /// handler's one memcpy done locally (the POSH same-address-space
    /// argument), skipping the interrupt round trip entirely. Taking it
    /// counts a locality hit and fences, the same visibility point as
    /// the channel path.
    fn local_peer(&self, pe: usize) -> Option<&dyn Locality> {
        if pe == self.my_pe() {
            return None;
        }
        let peer = self.fab.locality().filter(|loc| loc.co_resident(pe))?;
        self.stats.borrow_mut().locality_hits += 1;
        self.fab.quiet();
        Some(peer)
    }

    /// Send one service request to `pe` — `Now` awaits its completion
    /// reply, `AtQuiet` queues the wait — or, to a co-resident peer, do
    /// the handler's copy ourselves (with the same stride collapse).
    /// A bypassed request completes at issue either way: the nbi
    /// contract permits early completion (the eager/lazy equivalence
    /// suite is the standing proof), like every local copy.
    fn redirect(&self, pe: usize, r: Request, c: Completion) {
        if let Some(peer) = self.local_peer(pe) {
            // cold: no allocation on this path.
            let (runs, size) = if r.stride == r.esize {
                (1, r.count * r.esize)
            } else {
                (r.count, r.esize)
            };
            for i in 0..runs {
                let (p, a) = (r.priv_off + i * r.stride, r.arena + i * r.esize);
                match r.tag {
                    TAG_SPUT | TAG_SPUTS => peer.peer_arena_to_private(pe, p, a, size),
                    _ => peer.peer_private_to_arena(pe, a, p, size),
                }
            }
            return;
        }
        self.stats.borrow_mut().redirected += 1;
        let token = self.next_token();
        self.fab.quiet(); // our arena-side data must be visible first
        if let TAG_SPUTS | TAG_SGETS = r.tag {
            let req = encode_strided_request(r.priv_off, r.stride, r.esize, r.count, r.arena, token);
            self.fab.udn_send(pe, Q_SERVICE, r.tag, &req);
        } else {
            let req = encode_request(r.priv_off, r.arena, r.esize, token);
            self.fab.udn_send(pe, Q_SERVICE, r.tag, &req);
        }
        match c {
            Completion::Now => self.await_sdone(token),
            Completion::AtQuiet => {
                let epoch = self.fence_epoch.get();
                self.pending.borrow_mut().push(PendingOp { pe, token, epoch });
            }
        }
    }

    /// Block until the `TAG_SDONE` reply carrying `token` arrives,
    /// stashing any other reply that lands first: with nbi requests in
    /// flight, replies from different pipelined requests interleave on
    /// `Q_REPLY`, so a positional receive would steal another op's
    /// completion.
    fn await_sdone(&self, token: u64) {
        let reply = self.recv_matching(Q_REPLY, |m: &ProtoMsg| {
            m.tag == TAG_SDONE && m.payload.first() == Some(&token)
        });
        debug_assert_eq!(reply.payload[0], token);
    }

    /// The temp-assisted cases: `len` bytes between `local` (a caller's
    /// slice or our own private segment) and the static object at
    /// `priv_off` on `pe`, chunked through our shared temp — staged
    /// before each `TAG_SPUT` request, read out after each `TAG_SGET`
    /// reply. A slice to or from a co-resident peer skips the temp: one
    /// memcpy.
    fn via_temp(&self, pe: usize, tag: u16, priv_off: usize, mut local: End<'_>, len: usize, c: Completion) {
        let peer = match local {
            End::Read(_) | End::Write(_) => self.local_peer(pe),
            End::Arena(_) | End::Private(_) => None,
        };
        if let Some(peer) = peer {
            // cold: no allocation on this path.
            match local {
                End::Read(b) => peer.peer_private_write(pe, priv_off, b),
                End::Write(b) => peer.peer_private_read(pe, priv_off, b),
                End::Arena(_) | End::Private(_) => unreachable!(),
            }
            return;
        }
        self.temp_chunks(len, 1, c, |done, n, temp| {
            let r = Request::span(tag, priv_off + done, temp, n);
            if tag == TAG_SPUT {
                self.copy(End::Arena(temp), local.sub(done, n), n);
                self.redirect(pe, r, c);
            } else {
                self.redirect(pe, r, c);
                self.copy(local.sub(done, n), End::Arena(temp), n);
            }
        });
    }

    /// The one temp chunker: `each(done, n, temp)` over `count` units of
    /// `unit` bytes, at most a temp's worth per chunk, with `temp` the
    /// chunk's global arena offset. A blocking caller first drains the
    /// pending ops (in-flight nbi chunks own slices of the temp) and
    /// reuses the temp's start for every chunk; a deferred one takes
    /// slices from the bump cursor and drains only when the temp is
    /// exhausted.
    fn temp_chunks(&self, count: usize, unit: usize, c: Completion, mut each: impl FnMut(usize, usize, usize)) {
        if c == Completion::Now {
            self.drain_pending();
        }
        let cap = self.layout.temp_bytes;
        let batch = (cap / unit).max(1);
        let mut done = 0;
        while done < count {
            let used = self.nbi_temp_used.get(); // 0 under `Now`: drained
            if used == cap {
                self.drain_pending(); // resets the bump cursor
                continue;
            }
            let n = (count - done).min(batch - used / unit);
            if c == Completion::AtQuiet {
                self.nbi_temp_used.set(used + n * unit);
            }
            each(done, n, self.go(self.my_pe(), self.layout.temp_off + used));
            done += n;
        }
    }

    // --- put-with-signal (`shmem_put_signal`) ---------------------------

    /// `shmem_put_signal`: deliver `src` into `target[index..]` on `pe`,
    /// then update the signal word `sig[sig_index]` on `pe` — with the
    /// payload guaranteed visible before the signal. The signal word is
    /// waitable with [`wait_until`](Self::wait_until) at its (possibly
    /// non-zero) element index, which is exactly why the indexed wait
    /// entry point exists.
    #[allow(clippy::too_many_arguments)] // mirrors the OpenSHMEM C signature
    pub fn put_signal<T: Bits>(
        &self,
        target: &Sym<T>,
        index: usize,
        src: &[T],
        sig: &Sym<u64>,
        sig_index: usize,
        sig_value: u64,
        sig_op: SignalOp,
        pe: usize,
    ) {
        // Payload first (a blocking put, which also flushes any pending
        // nbi ops to `pe`), then a fabric fence so the data is visible
        // before the signal word changes.
        self.put(target, index, src, pe);
        self.fab.quiet();
        assert_eq!(sig.class(), AddrClass::Dynamic, "signal word must be dynamic");
        assert!(sig_index < sig.len(), "signal index out of bounds");
        let off = self.go(pe, sig.elem_offset(sig_index));
        assert_eq!(off % 8, 0, "unaligned signal word");
        self.stats.borrow_mut().atomics += 1;
        match sig_op {
            SignalOp::Set => self.fab.arena_write_u64(off, sig_value),
            SignalOp::Add => {
                let _ = self.fab.arena_rmw(off, RmwOp::Add, sig_value, RmwWidth::W64);
            }
        }
    }

    // --- pending-op lifecycle -------------------------------------------

    /// Number of outstanding non-blocking operations (observability for
    /// tests: the fence-vs-quiet contract is asserted against this).
    pub fn pending_nbi_ops(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Complete **all** outstanding nbi operations in issue order, then
    /// reset the temp's bump cursor. Called by [`quiet`](Self::quiet),
    /// barrier entry, and blocking users of the shared temp.
    pub(crate) fn drain_pending(&self) {
        if !self.pending.borrow().is_empty() {
            let mut ops = self.pending.take();
            for op in ops.drain(..) {
                self.complete_op(op);
            }
            // Hand the drained vec back so its capacity is reused.
            *self.pending.borrow_mut() = ops;
        }
        self.nbi_temp_used.set(0);
    }

    /// Complete outstanding nbi operations addressed to `pe`, in issue
    /// order, leaving ops to other destinations pending. Blocking RMA
    /// calls this on entry so mixed blocking/non-blocking traffic to one
    /// destination retains program order.
    pub(crate) fn flush_pending_dest(&self, pe: usize) {
        self.flush_dest(pe, u64::MAX);
    }

    /// Complete the ops pending to `pe` that a [`fence`](Self::fence)
    /// issued since orders before the put or AMO to `pe` about to be
    /// issued, leaving the ones since the last fence pending. With
    /// nothing pending, one look at an empty list.
    pub(crate) fn complete_fenced(&self, pe: usize) {
        self.flush_dest(pe, self.fence_epoch.get());
    }

    /// Complete, in issue order, the ops pending to `pe` issued in an
    /// epoch before `before`.
    fn flush_dest(&self, pe: usize, before: u64) {
        let due = |op: &PendingOp| op.pe == pe && op.epoch < before;
        if !self.pending.borrow().iter().any(due) {
            return;
        }
        // cold: rare path — only when fenced or blocking traffic
        // interleaves with an unfinished nbi train to the same destination.
        let mut todo: Vec<PendingOp> = Vec::new();
        {
            let mut pending = self.pending.borrow_mut();
            let mut i = 0;
            while i < pending.len() {
                if due(&pending[i]) {
                    todo.push(pending.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for op in todo {
            self.complete_op(op);
        }
    }

    /// Complete one pending op. Consulted by the fault plane first: a
    /// `DelayNbiCompletion` plan stalls completions without reordering
    /// them (tolerated class — slower, never wrong).
    fn complete_op(&self, op: PendingOp) {
        if let Some(us) = self.fab.faults().and_then(|f| f.nbi_completion_delay_us()) {
            self.fab.inject_delay_us(us);
        }
        self.await_sdone(op.token);
    }
}
