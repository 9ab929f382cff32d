//! The pinned RMA table: every Figure-7 (target, source) class case of
//! the contiguous puts and gets, blocking and non-blocking, at one
//! length below the temp size and one above it, to self and to a peer —
//! on the native engine, the coop engine with both PEs on one worker
//! (co-resident: the locality bypass) and on two, and the timed engine.
//!
//! Every transfer's bytes are checked against its source pattern, and
//! each PE's `Stats` — plus, on the timed engine, its final virtual
//! clock — are pinned as literals, so a rework of the RMA paths must
//! make the same transfers with the same bookkeeping at the same
//! simulated cost. No figure runs an nbi path; this is their only
//! virtual-time pin.

use tshmem::prelude::*;
use tshmem::{Fault, Stats};

const TEMP: usize = 1 << 12;
/// Elements per transfer (u64): 64 B, below the temp, and 12 000 B,
/// three temp chunks with a partial last one.
const LENS: [usize; 2] = [8, 1500];
/// One region per length; a target object holds one region per
/// (key PE, source kind).
const SLOT: usize = LENS[0] + LENS[1];
/// Source kinds: a dynamic symbol, a static symbol, a local slice.
const KINDS: usize = 3;

#[derive(Clone, Copy, Debug)]
enum Op {
    PutSym,
    PutSymNbi,
    GetSym,
    GetSymNbi,
    Put,
    PutNbi,
    Get,
    GetNbi,
}

const OPS: [Op; 8] = [
    Op::PutSym,
    Op::PutSymNbi,
    Op::GetSym,
    Op::GetSymNbi,
    Op::Put,
    Op::PutNbi,
    Op::Get,
    Op::GetNbi,
];

fn cfg() -> RuntimeConfig {
    RuntimeConfig::new(2)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 18)
        .with_temp_bytes(TEMP)
}

/// Element `i` of source kind `kind` owned by PE `pe`.
fn pattern(pe: usize, kind: usize, i: usize) -> u64 {
    ((pe as u64) << 40) | ((kind as u64) << 32) | (i as u64 + 1)
}

/// First element of length `li`'s run within a region.
fn base(li: usize) -> usize {
    if li == 0 { 0 } else { LENS[0] }
}

/// Where the run keyed by PE `key` from source kind `kind` lands in a
/// target object: the writer's PE for a put, the source PE for a get.
fn region(key: usize, kind: usize, li: usize) -> usize {
    (key * KINDS + kind) * SLOT + base(li)
}

fn expected(key: usize, kind: usize, li: usize) -> Vec<u64> {
    (0..LENS[li]).map(|i| pattern(key, kind, base(li) + i)).collect()
}

/// Run every op of the table, checking each phase's bytes, and return
/// this PE's counters.
fn table(ctx: &ShmemCtx) -> Stats {
    let me = ctx.my_pe();
    let srcs = [ctx.shmalloc::<u64>(SLOT), ctx.static_sym::<u64>(SLOT)];
    let dsts = [
        ctx.shmalloc::<u64>(2 * KINDS * SLOT),
        ctx.static_sym::<u64>(2 * KINDS * SLOT),
    ];
    for (kind, src) in srcs.iter().enumerate() {
        let v: Vec<u64> = (0..SLOT).map(|i| pattern(me, kind, i)).collect();
        ctx.local_write(src, 0, &v);
    }
    let slice: Vec<u64> = (0..SLOT).map(|i| pattern(me, 2, i)).collect();
    ctx.barrier_all();
    for op in OPS {
        for d in &dsts {
            ctx.local_fill(d, 0u64);
        }
        ctx.barrier_all();
        for pe in [me, 1 - me] {
            for (li, &n) in LENS.iter().enumerate() {
                let b = base(li);
                for (tc, dst) in dsts.iter().enumerate() {
                    for (kind, src) in srcs.iter().enumerate() {
                        let (put_at, get_at) = (region(me, kind, li), region(pe, kind, li));
                        match op {
                            Op::PutSym => ctx.put_sym(dst, put_at, src, b, n, pe),
                            Op::PutSymNbi => ctx.put_sym_nbi(dst, put_at, src, b, n, pe),
                            Op::GetSym => ctx.get_sym(dst, get_at, src, b, n, pe),
                            Op::GetSymNbi => ctx.get_sym_nbi(dst, get_at, src, b, n, pe),
                            // A slice source, once per target class...
                            Op::Put | Op::PutNbi if kind == 0 => {
                                let at = region(me, 2, li);
                                let run = &slice[b..b + n];
                                if matches!(op, Op::Put) {
                                    ctx.put(dst, at, run, pe);
                                } else {
                                    ctx.put_nbi(dst, at, run, pe);
                                }
                            }
                            // ...and a slice target, once per source class.
                            Op::Get | Op::GetNbi if tc == 0 => {
                                let mut out = vec![0u64; n];
                                if matches!(op, Op::Get) {
                                    ctx.get(&mut out, src, b, pe);
                                } else {
                                    ctx.get_nbi(&mut out, src, b, pe);
                                }
                                assert_eq!(out, expected(pe, kind, li), "{op:?} kind {kind} from {pe}");
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        ctx.quiet();
        ctx.barrier_all();
        let kinds: &[usize] = match op {
            Op::PutSym | Op::PutSymNbi | Op::GetSym | Op::GetSymNbi => &[0, 1],
            Op::Put | Op::PutNbi => &[2],
            Op::Get | Op::GetNbi => &[],
        };
        for dst in &dsts {
            for key in 0..2 {
                for &kind in kinds {
                    for (li, &n) in LENS.iter().enumerate() {
                        let got = ctx.local_read(dst, region(key, kind, li), n);
                        assert_eq!(got, expected(key, kind, li), "{op:?} key {key} kind {kind}");
                    }
                }
            }
        }
    }
    ctx.barrier_all();
    ctx.stats()
}

/// The counters every engine agrees on. The 40 remote static requests
/// per PE are redirected, or on one worker all 32 that can take the
/// locality bypass do: a slice transfer bypasses once, a request once
/// per temp chunk.
fn pinned(redirected: u64, locality_hits: u64) -> [Stats; 2] {
    let s = Stats {
        puts: 24,
        gets: 24,
        put_bytes: 289_536,
        get_bytes: 289_536,
        redirected,
        barriers: 20,
        nbi_puts: 24,
        nbi_gets: 24,
        quiets: 8,
        locality_hits,
        ..Default::default()
    };
    [s, s]
}

#[test]
fn native_two_pes() {
    let stats = Launcher::new(&cfg(), NativeBackend).run(table).values;
    assert_eq!(stats, pinned(40, 0));
}

#[test]
fn coop_co_resident() {
    let coop = CoopBackend { workers: 1, ..Default::default() };
    let stats = Launcher::new(&cfg(), coop).run(table).values;
    assert_eq!(stats, pinned(0, 32));
}

#[test]
fn coop_two_workers() {
    let coop = CoopBackend { workers: 2, ..Default::default() };
    let stats = Launcher::new(&cfg(), coop).run(table).values;
    assert_eq!(stats, pinned(40, 0));
}

#[test]
fn timed_two_pes() {
    let out = Launcher::new(&cfg(), TimedBackend).run(table);
    assert_eq!(out.values, pinned(40, 0));
    let clocks: Vec<u64> = out.clocks.iter().map(|c| c.ps()).collect();
    assert_eq!(clocks, [1_936_670_635, 1_936_648_624]);
}

/// The eager reference arm (every nbi op drained at its tail) has its
/// own virtual cost.
#[test]
fn timed_two_pes_eager_nbi() {
    let out = Launcher::new(&cfg(), TimedBackend).with_faults([Fault::EagerNbi]).run(table);
    assert_eq!(out.values, pinned(40, 0));
    let clocks: Vec<u64> = out.clocks.iter().map(|c| c.ps()).collect();
    assert_eq!(clocks, [1_938_620_824, 1_938_598_813]);
}
