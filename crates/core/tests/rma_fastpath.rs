//! Regression pins for the RMA batched fast paths.
//!
//! A unit-stride `iget` must be **one logical get and one `Copy` trace
//! event** on both engines — the pre-fix dynamic-class path issued one
//! traced `arena_read` (and one progress bump) per element, so an
//! N-element get cost N events and N fabric calls.

use tshmem::prelude::*;
use tshmem::trace::{TraceEvent, TraceKind};
use tshmem::{Launcher, NativeBackend};

/// Distinctive element count so the get's Copy event is identifiable by
/// size among the workload's other copies.
const NELEMS: usize = 997;
const NPES: usize = 4;

fn cfg() -> RuntimeConfig {
    RuntimeConfig::new(NPES)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
        .with_trace()
}

/// Each PE fills its own source array (a copy of a *different* byte
/// size than the get), then pulls `NELEMS` elements from its right
/// neighbor at unit stride on both sides. Returns the PE's `gets`
/// counter.
fn workload(ctx: &ShmemCtx) -> u64 {
    let src = ctx.shmalloc::<u64>(NELEMS + 3);
    let base = (ctx.my_pe() as u64) << 32;
    let vals: Vec<u64> = (0..(NELEMS + 3) as u64).map(|i| base + i).collect();
    ctx.put(&src, 0, &vals, ctx.my_pe());
    ctx.barrier_all();
    let peer = (ctx.my_pe() + 1) % ctx.n_pes();
    let mut dst = vec![0u64; NELEMS];
    ctx.iget(&mut dst, 1, &src, 2, 1, NELEMS, peer);
    let pbase = (peer as u64) << 32;
    for (i, &d) in dst.iter().enumerate() {
        assert_eq!(d, pbase + 2 + i as u64, "element {i} wrong");
    }
    ctx.barrier_all();
    ctx.stats().gets
}

fn assert_one_copy_per_get(trace: &[TraceEvent]) {
    let get_bytes = (NELEMS * std::mem::size_of::<u64>()) as u64;
    let copies: Vec<&TraceEvent> = trace
        .iter()
        .filter(|e| e.kind == TraceKind::Copy && e.bytes == get_bytes)
        .collect();
    assert_eq!(
        copies.len(),
        NPES,
        "expected exactly one {get_bytes}-byte Copy event per PE's single iget, got {copies:#?}"
    );
    for pe in 0..NPES {
        assert_eq!(
            copies.iter().filter(|e| e.pe == pe).count(),
            1,
            "PE {pe}: unit-stride iget must trace exactly one Copy"
        );
    }
}

#[test]
fn unit_stride_iget_is_one_copy_event_native() {
    let out = Launcher::new(&cfg(), NativeBackend).run(workload);
    for (pe, gets) in out.values.iter().enumerate() {
        assert_eq!(*gets, 1, "PE {pe}: iget must count as one logical get");
    }
    assert_one_copy_per_get(&out.trace.expect("trace enabled"));
}

#[test]
fn unit_stride_iget_is_one_copy_event_timed() {
    let out = Launcher::new(&cfg(), TimedBackend).run(workload);
    for (pe, gets) in out.values.iter().enumerate() {
        assert_eq!(*gets, 1, "PE {pe}: iget must count as one logical get");
    }
    assert_one_copy_per_get(&out.trace.expect("trace enabled"));
}
