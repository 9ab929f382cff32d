//! The interrupt-service handler — the analog of Tilera UDN interrupts.
//!
//! Static symmetric variables live in each PE's private segment, which
//! other PEs cannot touch directly. When a put/get needs the far side's
//! private memory, the near side interrupts the far tile over the UDN and
//! the far tile services the operation itself (paper Section IV-B2). Our
//! analog is one service context per PE that listens on [`Q_SERVICE`]
//! and performs the copy against its own private segment: a logical
//! process on the timed engine, and on the wall-clock engines a thread
//! that — like the interrupt it stands for — does not exist until the
//! first request addressed to its PE starts it (`engine::wall`), so a
//! job that never redirects a transfer never runs one. Between requests
//! it is parked in its `Q_SERVICE` receive like any wall-clock wait, and
//! the request's send is what makes it ready.
//!
//! The handler also implements the orderly teardown that motivates the
//! paper's proposed `shmem_finalize()` (Section IV-E): without a shutdown
//! message the service context would outlive the application and, on real
//! hardware, leave the UDN engaged. A job abort is not a message: it
//! ends the park of every context of the job, this one included
//! (`WallShared::abort`).

use crate::fabric::{BlockedOn, Fabric, Q_REPLY, Q_SERVICE};

/// Service-request tags on `Q_SERVICE`.
pub const TAG_SPUT: u16 = 1;
/// Remote get service: "copy from YOUR private segment into the arena".
pub const TAG_SGET: u16 = 2;
/// Completion replies on `Q_REPLY`.
pub const TAG_SDONE: u16 = 3;
/// Strided put service: scatter a contiguous arena staging run into
/// YOUR private segment with a byte stride — one interrupt per staged
/// chunk instead of one per element.
pub const TAG_SPUTS: u16 = 4;
/// Strided get service: gather from YOUR private segment (byte stride)
/// into a contiguous arena staging run.
pub const TAG_SGETS: u16 = 5;
/// Orderly teardown (see `shmem_finalize`): the last packet a service
/// context receives on a job that completes.
pub const TAG_SHUTDOWN: u16 = 0xFFFE;

/// Human name of a service-protocol tag, for watchdog diagnoses
/// (`BlockedOn::Handler` display).
pub fn tag_name(tag: u16) -> &'static str {
    match tag {
        TAG_SPUT => "sput",
        TAG_SGET => "sget",
        TAG_SDONE => "sdone",
        TAG_SPUTS => "sputs",
        TAG_SGETS => "sgets",
        TAG_SHUTDOWN => "shutdown",
        _ => "?",
    }
}

/// Run the service loop until shutdown. `fab` must be the serviced PE's
/// service-context fabric (`WallFabric::new` with `npes + pe` on the wall-clock
/// engines; the dedicated service LP's fabric on the timed engine).
///
/// While a request executes, the service probe (when present) publishes
/// [`BlockedOn::Handler`] naming the request's tag and source — so a
/// stall *inside* the handler (e.g. an injected `StallServiceHandler`
/// fault, or a real bug in the copy path) is attributed to this
/// handler, not to the clients parked in their reply waits.
pub fn service_loop(fab: &dyn Fabric) {
    loop {
        let msg = fab.udn_recv(Q_SERVICE);
        if msg.tag != TAG_SHUTDOWN {
            if let Some(p) = fab.probe() {
                p.set_blocked(BlockedOn::Handler { tag: msg.tag, src: msg.src });
            }
            if let Some(us) = fab.faults().and_then(|f| f.service_stall_us(fab.pe())) {
                fab.inject_delay_us(us);
            }
        }
        match msg.tag {
            TAG_SPUT => {
                // payload: [priv_dst, arena_src(global), len, token]
                let [priv_dst, arena_src, len, token] = decode4(&msg.payload);
                fab.arena_to_private(priv_dst, arena_src, len);
                fab.quiet();
                fab.udn_send(msg.src, Q_REPLY, TAG_SDONE, &[token as u64]);
            }
            TAG_SGET => {
                // payload: [priv_src, arena_dst(global), len, token]
                let [priv_src, arena_dst, len, token] = decode4(&msg.payload);
                fab.private_to_arena(arena_dst, priv_src, len);
                fab.quiet();
                fab.udn_send(msg.src, Q_REPLY, TAG_SDONE, &[token as u64]);
            }
            TAG_SPUTS => {
                // payload: [priv_base, stride_bytes, esize, count, arena_src(global), token]
                let [priv_base, stride, esize, count, arena_src, token] = decode6(&msg.payload);
                if stride == esize {
                    fab.arena_to_private(priv_base, arena_src, count * esize);
                } else {
                    for i in 0..count {
                        fab.arena_to_private(priv_base + i * stride, arena_src + i * esize, esize);
                    }
                }
                fab.quiet();
                fab.udn_send(msg.src, Q_REPLY, TAG_SDONE, &[token as u64]);
            }
            TAG_SGETS => {
                // payload: [priv_base, stride_bytes, esize, count, arena_dst(global), token]
                let [priv_base, stride, esize, count, arena_dst, token] = decode6(&msg.payload);
                if stride == esize {
                    fab.private_to_arena(arena_dst, priv_base, count * esize);
                } else {
                    for i in 0..count {
                        fab.private_to_arena(arena_dst + i * esize, priv_base + i * stride, esize);
                    }
                }
                fab.quiet();
                fab.udn_send(msg.src, Q_REPLY, TAG_SDONE, &[token as u64]);
            }
            TAG_SHUTDOWN => return,
            other => panic!("service context of PE {} got unknown tag {other}", fab.pe()),
        }
        if let Some(p) = fab.probe() {
            p.set_blocked(BlockedOn::Running);
        }
    }
}

fn decode4(payload: &[u64]) -> [usize; 4] {
    assert_eq!(payload.len(), 4, "malformed service request");
    [
        payload[0] as usize,
        payload[1] as usize,
        payload[2] as usize,
        payload[3] as usize,
    ]
}

fn decode6(payload: &[u64]) -> [usize; 6] {
    assert_eq!(payload.len(), 6, "malformed strided service request");
    std::array::from_fn(|i| payload[i] as usize)
}

/// Encode a service request payload.
pub fn encode_request(a: usize, b: usize, len: usize, token: u64) -> [u64; 4] {
    [a as u64, b as u64, len as u64, token]
}

/// Encode a strided service request payload.
pub fn encode_strided_request(
    priv_base: usize,
    stride_bytes: usize,
    esize: usize,
    count: usize,
    arena_global: usize,
    token: u64,
) -> [u64; 6] {
    [
        priv_base as u64,
        stride_bytes as u64,
        esize as u64,
        count as u64,
        arena_global as u64,
        token,
    ]
}
