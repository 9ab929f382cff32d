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
//! cost ladder of Figure 7.

use crate::ctx::{byte_view, byte_view_mut, ShmemCtx};
use crate::fabric::{Locality, ProtoMsg, Q_REPLY, Q_SERVICE, RmwOp, RmwWidth};
use crate::service::{
    encode_request, encode_strided_request, TAG_SDONE, TAG_SGET, TAG_SGETS, TAG_SPUT, TAG_SPUTS,
};
use crate::symm::{AddrClass, Bits, Sym};

/// One outstanding non-blocking operation, tracked per context and
/// completed by [`ShmemCtx::quiet`] (or the internal drain every
/// barrier-entering operation performs).
#[derive(Clone, Copy, Debug)]
pub(crate) enum PendingOp {
    /// A dynamic-target nbi put whose source bytes were captured into
    /// the context's stage buffer at issue; applied with a single
    /// `arena_write` at completion.
    StagedPut {
        pe: usize,
        dest_global: usize,
        stage_off: usize,
        len: usize,
    },
    /// A redirected nbi request already queued at `pe`'s service
    /// context; completion only awaits the `TAG_SDONE` reply carrying
    /// `token`. Multiple requests pipeline through the remote handler,
    /// which is where the nbi overlap win comes from.
    AwaitReply { pe: usize, token: u64 },
}

impl PendingOp {
    fn pe(&self) -> usize {
        match self {
            PendingOp::StagedPut { pe, .. } | PendingOp::AwaitReply { pe, .. } => *pe,
        }
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
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(index + src.len() <= target.len(), "put out of bounds");
        let bytes = byte_view(src);
        {
            let mut s = self.stats.borrow_mut();
            s.puts += 1;
            s.put_bytes += bytes.len() as u64;
        }
        let toff = target.elem_offset(index);
        match target.class() {
            AddrClass::Dynamic => self.fab.arena_write(self.go(pe, toff), bytes),
            AddrClass::Static if pe == self.my_pe() => self.fab.private_write(toff, bytes),
            AddrClass::Static => self.put_static_via_temp(pe, toff, bytes),
        }
    }

    /// Get `source[index..]` on PE `pe` into a local buffer.
    pub fn get<T: Bits>(&self, dst: &mut [T], source: &Sym<T>, index: usize, pe: usize) {
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(index + dst.len() <= source.len(), "get out of bounds");
        {
            let mut s = self.stats.borrow_mut();
            s.gets += 1;
            s.get_bytes += std::mem::size_of_val(dst) as u64;
        }
        self.get_body(dst, source, index, pe);
    }

    /// Class dispatch shared by [`get`](Self::get) and
    /// [`get_nbi`](Self::get_nbi) (which differ only in counters and
    /// pending-set bookkeeping).
    fn get_body<T: Bits>(&self, dst: &mut [T], source: &Sym<T>, index: usize, pe: usize) {
        let soff = source.elem_offset(index);
        let bytes = byte_view_mut(dst);
        match source.class() {
            AddrClass::Dynamic => self.fab.arena_read(self.go(pe, soff), bytes),
            AddrClass::Static if pe == self.my_pe() => self.fab.private_read(soff, bytes),
            AddrClass::Static => self.get_static_via_temp(pe, soff, bytes),
        }
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
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(toff + n <= target.len(), "put_sym target out of bounds");
        assert!(soff + n <= source.len(), "put_sym source out of bounds");
        let len = n * std::mem::size_of::<T>();
        if len == 0 {
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            s.puts += 1;
            s.put_bytes += len as u64;
        }
        let t = target.elem_offset(toff);
        let s = source.elem_offset(soff);
        let me = self.my_pe();
        match (target.class(), source.class()) {
            // dynamic-dynamic: plain shared-memory copy.
            (AddrClass::Dynamic, AddrClass::Dynamic) => {
                self.fab.arena_copy(self.go(pe, t), self.go(me, s), len);
            }
            // dynamic-static: the local tile can read its own private
            // source and write the remote arena directly.
            (AddrClass::Dynamic, AddrClass::Static) => {
                self.bounce_private_to_arena(self.go(pe, t), s, len);
            }
            // static target on ourselves: direct private access.
            (AddrClass::Static, _) if pe == me => match source.class() {
                AddrClass::Dynamic => {
                    self.bounce_arena_to_private(t, self.go(me, s), len);
                }
                AddrClass::Static => {
                    self.with_scratch(len, |buf| {
                        self.fab.private_read(s, buf);
                        self.fab.private_write(t, buf);
                    });
                }
            },
            // static-dynamic: redirect — the remote tile reads our arena
            // partition into its private target.
            (AddrClass::Static, AddrClass::Dynamic) => {
                self.redirect(pe, TAG_SPUT, t, self.go(me, s), len);
            }
            // static-static: copy to the shared temp first, then
            // redirect (the extra-copy penalty of Figure 7).
            (AddrClass::Static, AddrClass::Static) => {
                self.put_static_from_private(pe, t, s, len);
            }
        }
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
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(toff + n <= target.len(), "get_sym target out of bounds");
        assert!(soff + n <= source.len(), "get_sym source out of bounds");
        let len = n * std::mem::size_of::<T>();
        if len == 0 {
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            s.gets += 1;
            s.get_bytes += len as u64;
        }
        let t = target.elem_offset(toff);
        let s = source.elem_offset(soff);
        let me = self.my_pe();
        match (target.class(), source.class()) {
            (AddrClass::Dynamic, AddrClass::Dynamic) => {
                self.fab.arena_copy(self.go(me, t), self.go(pe, s), len);
            }
            // static-dynamic get: local private target, readable arena
            // source — direct.
            (AddrClass::Static, AddrClass::Dynamic) => {
                self.bounce_arena_to_private(t, self.go(pe, s), len);
            }
            (_, AddrClass::Static) if pe == me => match target.class() {
                AddrClass::Dynamic => {
                    self.bounce_private_to_arena(self.go(me, t), s, len);
                }
                AddrClass::Static => {
                    self.with_scratch(len, |buf| {
                        self.fab.private_read(s, buf);
                        self.fab.private_write(t, buf);
                    });
                }
            },
            // dynamic-static get: redirect — remote puts its private
            // source straight into our arena target.
            (AddrClass::Dynamic, AddrClass::Static) => {
                self.redirect(pe, TAG_SGET, s, self.go(me, t), len);
            }
            // static-static get: redirect into our temp, then copy to
            // our private target.
            (AddrClass::Static, AddrClass::Static) => {
                self.get_static_to_private(pe, t, s, len);
            }
        }
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
            AddrClass::Static => {
                self.iput_static_via_temp(pe, target, tidx, tst, gathered);
            }
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
            AddrClass::Static => {
                self.iget_static_via_temp(dst, dst_stride, source, sidx, sst, nelems, pe);
            }
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

    // --- redirection internals -------------------------------------------

    /// The locality capability when `pe` is a *distinct* co-resident
    /// peer — on the coop engine, a PE multiplexed on the same worker,
    /// whose private segment is directly addressable while we hold the
    /// shared admission gate. Redirected traffic to such a peer
    /// degrades to the handler's one memcpy done locally (the POSH
    /// same-address-space argument), skipping the interrupt round trip
    /// entirely.
    #[inline]
    fn local_peer(&self, pe: usize) -> Option<&dyn Locality> {
        if pe == self.my_pe() {
            return None;
        }
        self.fab.locality().filter(|loc| loc.co_resident(pe))
    }

    /// Perform a redirected request's effect directly on a co-resident
    /// peer (the service handler's single memcpy, executed by us).
    /// `TAG_SPUT` moves arena bytes into the peer's private segment;
    /// `TAG_SGET` moves the peer's private bytes into the arena.
    // cold: no allocation on this path.
    fn redirect_local(
        &self,
        peer: &dyn Locality,
        pe: usize,
        tag: u16,
        priv_off: usize,
        arena_global: usize,
        len: usize,
    ) {
        self.stats.borrow_mut().locality_hits += 1;
        self.fab.quiet(); // same visibility point as the channel path
        match tag {
            TAG_SPUT => peer.peer_arena_to_private(pe, priv_off, arena_global, len),
            _ => peer.peer_private_to_arena(pe, arena_global, priv_off, len),
        }
    }

    /// Send a service request and await its completion reply. The reply
    /// wait matches by token: with nbi requests in flight, `TAG_SDONE`
    /// replies from different pipelined requests interleave on
    /// `Q_REPLY`, so a positional receive would steal another op's
    /// completion.
    fn redirect(&self, pe: usize, tag: u16, priv_off: usize, arena_global: usize, len: usize) {
        if let Some(peer) = self.local_peer(pe) {
            self.redirect_local(peer, pe, tag, priv_off, arena_global, len);
            return;
        }
        self.stats.borrow_mut().redirected += 1;
        let token = self.next_token();
        self.fab.quiet(); // our arena-side data must be visible first
        self.fab
            .udn_send(pe, Q_SERVICE, tag, &encode_request(priv_off, arena_global, len, token));
        self.await_sdone(token);
    }

    /// Block until the `TAG_SDONE` reply carrying `token` arrives,
    /// stashing any other reply that lands first.
    fn await_sdone(&self, token: u64) {
        let reply = self.recv_matching(Q_REPLY, |m: &ProtoMsg| {
            m.tag == TAG_SDONE && m.payload.first() == Some(&token)
        });
        debug_assert_eq!(reply.payload[0], token);
    }

    /// Send a **strided** service request (one interrupt covers a whole
    /// temp-staged batch) and await its completion reply.
    #[allow(clippy::too_many_arguments)]
    fn redirect_strided(
        &self,
        pe: usize,
        tag: u16,
        priv_base: usize,
        stride_bytes: usize,
        esize: usize,
        count: usize,
        arena_global: usize,
    ) {
        if let Some(peer) = self.local_peer(pe) {
            // The strided handler's scatter/gather, executed locally
            // against the co-resident peer's private segment (same
            // stride collapse as the handler). cold: no allocation.
            self.stats.borrow_mut().locality_hits += 1;
            self.fab.quiet();
            if stride_bytes == esize {
                match tag {
                    TAG_SPUTS => {
                        peer.peer_arena_to_private(pe, priv_base, arena_global, count * esize)
                    }
                    _ => peer.peer_private_to_arena(pe, arena_global, priv_base, count * esize),
                }
            } else {
                for i in 0..count {
                    let p = priv_base + i * stride_bytes;
                    let a = arena_global + i * esize;
                    match tag {
                        TAG_SPUTS => peer.peer_arena_to_private(pe, p, a, esize),
                        _ => peer.peer_private_to_arena(pe, a, p, esize),
                    }
                }
            }
            return;
        }
        self.stats.borrow_mut().redirected += 1;
        let token = self.next_token();
        self.fab.quiet(); // our arena-side data must be visible first
        self.fab.udn_send(
            pe,
            Q_SERVICE,
            tag,
            &encode_strided_request(priv_base, stride_bytes, esize, count, arena_global, token),
        );
        self.await_sdone(token);
    }

    /// Strided put to a remote static target: stage gathered elements in
    /// the shared temp, then let the remote scatter each batch.
    fn iput_static_via_temp<T: Bits>(
        &self,
        pe: usize,
        target: &Sym<T>,
        tidx: usize,
        tst: usize,
        gathered: &[T],
    ) {
        // Blocking use of the shared temp: in-flight nbi chunks own bump-
        // allocated slices of it, so complete them before reusing it.
        self.drain_pending();
        let me = self.my_pe();
        let esize = std::mem::size_of::<T>();
        let temp = self.go(me, self.layout.temp_off);
        let batch = (self.layout.temp_bytes / esize).max(1);
        let mut done = 0;
        while done < gathered.len() {
            let n = (gathered.len() - done).min(batch);
            self.fab
                .arena_write(temp, byte_view(&gathered[done..done + n]));
            self.redirect_strided(
                pe,
                TAG_SPUTS,
                target.elem_offset(tidx + done * tst),
                tst * esize,
                esize,
                n,
                temp,
            );
            done += n;
        }
    }

    /// Strided get from a remote static source: the remote gathers each
    /// batch into our shared temp, which we scatter into `dst`.
    #[allow(clippy::too_many_arguments)]
    fn iget_static_via_temp<T: Bits>(
        &self,
        dst: &mut [T],
        dst_stride: usize,
        source: &Sym<T>,
        sidx: usize,
        sst: usize,
        nelems: usize,
        pe: usize,
    ) {
        self.drain_pending(); // temp reuse — see iput_static_via_temp
        let me = self.my_pe();
        let esize = std::mem::size_of::<T>();
        let temp = self.go(me, self.layout.temp_off);
        let batch = (self.layout.temp_bytes / esize).max(1);
        let mut done = 0;
        while done < nelems {
            let n = (nelems - done).min(batch);
            self.redirect_strided(
                pe,
                TAG_SGETS,
                source.elem_offset(sidx + done * sst),
                sst * esize,
                esize,
                n,
                temp,
            );
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
            done += n;
        }
    }

    /// put with static target, arbitrary local bytes: chunk through the
    /// shared temp buffer.
    fn put_static_via_temp(&self, pe: usize, priv_dst: usize, bytes: &[u8]) {
        if let Some(peer) = self.local_peer(pe) {
            // Co-resident target: skip the temp bounce entirely — one
            // memcpy into the peer's private segment instead of
            // stage + interrupt + handler copy. cold: no allocation.
            self.stats.borrow_mut().locality_hits += 1;
            self.fab.quiet();
            peer.peer_private_write(pe, priv_dst, bytes);
            return;
        }
        self.drain_pending(); // temp reuse — see iput_static_via_temp
        let me = self.my_pe();
        let temp = self.layout.temp_off;
        let cap = self.layout.temp_bytes;
        let mut done = 0;
        while done < bytes.len() {
            let n = (bytes.len() - done).min(cap);
            self.fab.arena_write(self.go(me, temp), &bytes[done..done + n]);
            self.redirect(pe, TAG_SPUT, priv_dst + done, self.go(me, temp), n);
            done += n;
        }
    }

    /// get with static source into arbitrary local bytes: redirect into
    /// our temp, then read out.
    fn get_static_via_temp(&self, pe: usize, priv_src: usize, bytes: &mut [u8]) {
        if let Some(peer) = self.local_peer(pe) {
            // Co-resident source: one memcpy out of the peer's private
            // segment, no temp bounce. cold: no allocation.
            self.stats.borrow_mut().locality_hits += 1;
            self.fab.quiet();
            peer.peer_private_read(pe, priv_src, bytes);
            return;
        }
        self.drain_pending(); // temp reuse — see iput_static_via_temp
        let me = self.my_pe();
        let temp = self.layout.temp_off;
        let cap = self.layout.temp_bytes;
        let mut done = 0;
        while done < bytes.len() {
            let n = (bytes.len() - done).min(cap);
            self.redirect(pe, TAG_SGET, priv_src + done, self.go(me, temp), n);
            self.fab.arena_read(self.go(me, temp), &mut bytes[done..done + n]);
            done += n;
        }
    }

    /// static-static put: private source -> shared temp -> remote private.
    fn put_static_from_private(&self, pe: usize, priv_dst: usize, priv_src: usize, len: usize) {
        self.drain_pending(); // temp reuse — see iput_static_via_temp
        let me = self.my_pe();
        let temp = self.layout.temp_off;
        let cap = self.layout.temp_bytes;
        let mut done = 0;
        while done < len {
            let n = (len - done).min(cap);
            self.fab.private_to_arena(self.go(me, temp), priv_src + done, n);
            self.redirect(pe, TAG_SPUT, priv_dst + done, self.go(me, temp), n);
            done += n;
        }
    }

    /// static-static get: remote private -> my shared temp -> my private.
    fn get_static_to_private(&self, pe: usize, priv_dst: usize, priv_src: usize, len: usize) {
        self.drain_pending(); // temp reuse — see iput_static_via_temp
        let me = self.my_pe();
        let temp = self.layout.temp_off;
        let cap = self.layout.temp_bytes;
        let mut done = 0;
        while done < len {
            let n = (len - done).min(cap);
            self.redirect(pe, TAG_SGET, priv_src + done, self.go(me, temp), n);
            self.fab.arena_to_private(priv_dst + done, self.go(me, temp), n);
            done += n;
        }
    }

    /// Large private->arena transfer in one memcpy.
    fn bounce_private_to_arena(&self, arena_dst_global: usize, priv_src: usize, len: usize) {
        self.fab.private_to_arena(arena_dst_global, priv_src, len);
    }

    /// Large arena->private transfer in one memcpy.
    fn bounce_arena_to_private(&self, priv_dst: usize, arena_src_global: usize, len: usize) {
        self.fab.arena_to_private(priv_dst, arena_src_global, len);
    }

    // --- non-blocking transfers (`shmem_put_nbi` / `shmem_get_nbi`) -----

    /// `shmem_put_nbi`: start a put of `src` into `target[index..]` on
    /// PE `pe` and return immediately. The source slice is captured at
    /// issue (OpenSHMEM forbids reuse before completion, so capturing is
    /// always observationally valid); completion is deferred to
    /// [`quiet`](Self::quiet). Dynamic targets stage the bytes locally
    /// and apply them at drain; static targets send their redirected
    /// service requests immediately and defer only the completion-reply
    /// waits, pipelining multiple requests through the remote handler.
    pub fn put_nbi<T: Bits>(&self, target: &Sym<T>, index: usize, src: &[T], pe: usize) {
        self.check_pe(pe);
        assert!(index + src.len() <= target.len(), "put_nbi out of bounds");
        let bytes = byte_view(src);
        {
            let mut s = self.stats.borrow_mut();
            s.nbi_puts += 1;
            s.put_bytes += bytes.len() as u64;
        }
        let toff = target.elem_offset(index);
        match target.class() {
            AddrClass::Dynamic => self.stage_put_nbi(pe, self.go(pe, toff), bytes),
            // A local private write has no remote completion to defer.
            AddrClass::Static if pe == self.my_pe() => self.fab.private_write(toff, bytes),
            AddrClass::Static => self.put_static_via_temp_nbi(pe, toff, bytes),
        }
        if self.nbi_eager {
            self.drain_pending();
        }
    }

    /// `shmem_get_nbi`: get into a local buffer. The destination is a
    /// borrowed Rust slice, so the transfer completes at issue (the
    /// OpenSHMEM nbi contract permits early completion); the call still
    /// counts as an nbi get and participates in the fence/quiet
    /// ordering model.
    pub fn get_nbi<T: Bits>(&self, dst: &mut [T], source: &Sym<T>, index: usize, pe: usize) {
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(index + dst.len() <= source.len(), "get_nbi out of bounds");
        {
            let mut s = self.stats.borrow_mut();
            s.nbi_gets += 1;
            s.get_bytes += std::mem::size_of_val(dst) as u64;
        }
        self.get_body(dst, source, index, pe);
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
        self.check_pe(pe);
        assert!(toff + n <= target.len(), "put_sym_nbi target out of bounds");
        assert!(soff + n <= source.len(), "put_sym_nbi source out of bounds");
        let len = n * std::mem::size_of::<T>();
        if len == 0 {
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            s.nbi_puts += 1;
            s.put_bytes += len as u64;
        }
        let t = target.elem_offset(toff);
        let s = source.elem_offset(soff);
        let me = self.my_pe();
        match (target.class(), source.class()) {
            (AddrClass::Dynamic, AddrClass::Dynamic) => {
                let off = self.stage_reserve(len);
                {
                    let mut stage = self.nbi_stage.borrow_mut();
                    self.fab.arena_read(self.go(me, s), &mut stage[off..off + len]);
                }
                self.push_staged(pe, self.go(pe, t), off, len);
            }
            (AddrClass::Dynamic, AddrClass::Static) => {
                let off = self.stage_reserve(len);
                {
                    let mut stage = self.nbi_stage.borrow_mut();
                    self.fab.private_read(s, &mut stage[off..off + len]);
                }
                self.push_staged(pe, self.go(pe, t), off, len);
            }
            // Local static target: completes at issue.
            (AddrClass::Static, _) if pe == me => match source.class() {
                AddrClass::Dynamic => self.bounce_arena_to_private(t, self.go(me, s), len),
                AddrClass::Static => self.with_scratch(len, |buf| {
                    self.fab.private_read(s, buf);
                    self.fab.private_write(t, buf);
                }),
            },
            // static-dynamic: the remote handler reads our arena source
            // directly, so the request needs no staging at all — send it
            // now, await the reply at quiet.
            (AddrClass::Static, AddrClass::Dynamic) => {
                self.redirect_nbi(pe, TAG_SPUT, t, self.go(me, s), len);
            }
            (AddrClass::Static, AddrClass::Static) => {
                self.put_static_from_private_nbi(pe, t, s, len);
            }
        }
        if self.nbi_eager {
            self.drain_pending();
        }
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
        self.check_pe(pe);
        self.flush_pending_dest(pe);
        assert!(toff + n <= target.len(), "get_sym_nbi target out of bounds");
        assert!(soff + n <= source.len(), "get_sym_nbi source out of bounds");
        let len = n * std::mem::size_of::<T>();
        if len == 0 {
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            s.nbi_gets += 1;
            s.get_bytes += len as u64;
        }
        let t = target.elem_offset(toff);
        let s = source.elem_offset(soff);
        let me = self.my_pe();
        match (target.class(), source.class()) {
            (AddrClass::Dynamic, AddrClass::Static) if pe != me => {
                self.redirect_nbi(pe, TAG_SGET, s, self.go(me, t), len);
            }
            (AddrClass::Dynamic, AddrClass::Dynamic) => {
                self.fab.arena_copy(self.go(me, t), self.go(pe, s), len);
            }
            (AddrClass::Static, AddrClass::Dynamic) => {
                self.bounce_arena_to_private(t, self.go(pe, s), len);
            }
            (_, AddrClass::Static) if pe == me => match target.class() {
                AddrClass::Dynamic => self.bounce_private_to_arena(self.go(me, t), s, len),
                AddrClass::Static => self.with_scratch(len, |buf| {
                    self.fab.private_read(s, buf);
                    self.fab.private_write(t, buf);
                }),
            },
            (AddrClass::Static, AddrClass::Static) => {
                self.get_static_to_private(pe, t, s, len);
            }
            // pe == me dynamic-static handled above; nothing else remains.
            (AddrClass::Dynamic, AddrClass::Static) => unreachable!(),
        }
        if self.nbi_eager {
            self.drain_pending();
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
    /// reset the staging buffers. Called by [`quiet`](Self::quiet),
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
        self.nbi_stage.borrow_mut().clear();
        self.nbi_temp_used.set(0);
    }

    /// Complete outstanding nbi operations addressed to `pe`, in issue
    /// order, leaving ops to other destinations pending. Blocking RMA
    /// calls this on entry so mixed blocking/non-blocking traffic to one
    /// destination retains program order.
    pub(crate) fn flush_pending_dest(&self, pe: usize) {
        if !self.pending.borrow().iter().any(|op| op.pe() == pe) {
            return;
        }
        // cold: rare path — only when blocking traffic interleaves with
        // an unfinished nbi train to the same destination.
        let mut todo: Vec<PendingOp> = Vec::new();
        {
            let mut pending = self.pending.borrow_mut();
            let mut i = 0;
            while i < pending.len() {
                if pending[i].pe() == pe {
                    todo.push(pending.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for op in todo {
            self.complete_op(op);
        }
        // Staged bytes of the flushed ops stay in the stage buffer (ops
        // behind them still reference their own ranges); the buffer is
        // reclaimed wholesale at the next full drain.
    }

    /// Complete one pending op. Consulted by the fault plane first: a
    /// `DelayNbiCompletion` plan stalls completions without reordering
    /// them (tolerated class — slower, never wrong).
    fn complete_op(&self, op: PendingOp) {
        if let Some(us) = self.fab.faults().and_then(|f| f.nbi_completion_delay_us()) {
            self.fab.inject_delay_us(us);
        }
        match op {
            PendingOp::StagedPut { dest_global, stage_off, len, .. } => {
                let stage = self.nbi_stage.borrow();
                self.fab.arena_write(dest_global, &stage[stage_off..stage_off + len]);
            }
            PendingOp::AwaitReply { token, .. } => self.await_sdone(token),
        }
    }

    /// Reserve `len` bytes in the stage buffer, returning the offset.
    fn stage_reserve(&self, len: usize) -> usize {
        let mut stage = self.nbi_stage.borrow_mut();
        let off = stage.len();
        stage.resize(off + len, 0);
        off
    }

    fn push_staged(&self, pe: usize, dest_global: usize, stage_off: usize, len: usize) {
        self.pending.borrow_mut().push(PendingOp::StagedPut {
            pe,
            dest_global,
            stage_off,
            len,
        });
    }

    /// Capture `bytes` and queue a deferred dynamic-target put.
    fn stage_put_nbi(&self, pe: usize, dest_global: usize, bytes: &[u8]) {
        let off = self.stage_reserve(bytes.len());
        self.nbi_stage.borrow_mut()[off..off + bytes.len()].copy_from_slice(bytes);
        self.push_staged(pe, dest_global, off, bytes.len());
    }

    /// Send a redirected service request and queue its completion-reply
    /// wait instead of blocking on it — the pipelined counterpart of
    /// [`redirect`](Self::redirect).
    fn redirect_nbi(&self, pe: usize, tag: u16, priv_off: usize, arena_global: usize, len: usize) {
        if let Some(peer) = self.local_peer(pe) {
            // Completes at issue — the OpenSHMEM nbi contract permits
            // early completion (the eager/lazy equivalence suite is the
            // standing proof), and a bypassed op can never overlap a
            // staged dynamic-target put, so no ordering is lost.
            self.redirect_local(peer, pe, tag, priv_off, arena_global, len);
            return;
        }
        self.stats.borrow_mut().redirected += 1;
        let token = self.next_token();
        self.fab.quiet(); // our arena-side data must be visible first
        self.fab
            .udn_send(pe, Q_SERVICE, tag, &encode_request(priv_off, arena_global, len, token));
        self.pending.borrow_mut().push(PendingOp::AwaitReply { pe, token });
    }

    /// Non-blocking static-target put of arbitrary local bytes: chunks
    /// bump-allocate slices of the shared temp so several chunks can be
    /// in flight at once; only on temp exhaustion does the train stall
    /// for a full drain.
    fn put_static_via_temp_nbi(&self, pe: usize, priv_dst: usize, bytes: &[u8]) {
        if let Some(peer) = self.local_peer(pe) {
            // Single-copy completion at issue (see redirect_nbi), no
            // temp bump allocation. cold: no allocation.
            self.stats.borrow_mut().locality_hits += 1;
            self.fab.quiet();
            peer.peer_private_write(pe, priv_dst, bytes);
            return;
        }
        let me = self.my_pe();
        let cap = self.layout.temp_bytes;
        let mut done = 0;
        while done < bytes.len() {
            let used = self.nbi_temp_used.get();
            if used == cap {
                self.drain_pending(); // resets the bump cursor
                continue;
            }
            let n = (bytes.len() - done).min(cap - used);
            let temp = self.layout.temp_off + used;
            self.nbi_temp_used.set(used + n);
            self.fab.arena_write(self.go(me, temp), &bytes[done..done + n]);
            self.redirect_nbi(pe, TAG_SPUT, priv_dst + done, self.go(me, temp), n);
            done += n;
        }
    }

    /// Non-blocking static-static put: private source staged through
    /// bump-allocated temp chunks, requests pipelined.
    fn put_static_from_private_nbi(&self, pe: usize, priv_dst: usize, priv_src: usize, len: usize) {
        let me = self.my_pe();
        let cap = self.layout.temp_bytes;
        let mut done = 0;
        while done < len {
            let used = self.nbi_temp_used.get();
            if used == cap {
                self.drain_pending();
                continue;
            }
            let n = (len - done).min(cap - used);
            let temp = self.layout.temp_off + used;
            self.nbi_temp_used.set(used + n);
            self.fab.private_to_arena(self.go(me, temp), priv_src + done, n);
            self.redirect_nbi(pe, TAG_SPUT, priv_dst + done, self.go(me, temp), n);
            done += n;
        }
    }
}
