//! The OpenSHMEM 1.3/1.4 surface: non-blocking RMA completion
//! semantics (fence vs quiet), indexed `wait_until`, `put_signal`,
//! `alltoall(s)`, and teams — including the team-vs-active-set
//! collective equivalence the `Team` docs promise.

use tshmem::api::{shmem_put_nbi, shmem_put_signal, shmem_wait_until, shmem_wait_until_at};
use tshmem::prelude::*;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 18)
        .with_temp_bytes(1 << 12)
}

/// The satellite negative test: `shmem_fence` orders but must NOT
/// complete pending non-blocking operations — only `shmem_quiet` does.
/// Before the fix, fence aliased quiet and this distinction was
/// unobservable. The put targets a remote static object, the one put
/// that defers: its redirected request's reply is awaited at quiet.
#[test]
fn fence_after_put_nbi_leaves_op_pending() {
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let buf = ctx.static_sym::<u64>(8);
        ctx.local_fill(&buf, 0u64);
        ctx.barrier_all();
        if me == 0 {
            let s0 = ctx.stats();
            ctx.put_nbi(&buf, 0, &[7u64, 8, 9], 1);
            assert_eq!(ctx.pending_nbi_ops(), 1, "put_nbi to a remote static object must defer");
            ctx.fence();
            assert_eq!(
                ctx.pending_nbi_ops(),
                1,
                "fence completed the pending nbi op — it must only order, not drain"
            );
            ctx.quiet();
            assert_eq!(ctx.pending_nbi_ops(), 0, "quiet must drain the pending set");
            let s1 = ctx.stats();
            assert_eq!(s1.nbi_puts - s0.nbi_puts, 1);
            assert_eq!(s1.fences - s0.fences, 1, "fence must count separately");
            assert_eq!(s1.quiets - s0.quiets, 1);
        }
        ctx.barrier_all();
        if me == 1 {
            assert_eq!(ctx.local_read(&buf, 0, 3), vec![7, 8, 9]);
        }
    });
}

/// A blocking RMA to the same destination flushes the pending nbi ops
/// to that PE first (program order per destination), and a later nbi op
/// in the same train overwrites an earlier one.
#[test]
fn pending_ops_complete_in_issue_order() {
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let buf = ctx.static_sym::<u64>(4);
        ctx.local_fill(&buf, 0u64);
        ctx.barrier_all();
        if me == 0 {
            ctx.put_nbi(&buf, 0, &[1u64], 1);
            ctx.put_nbi(&buf, 0, &[2u64], 1);
            assert_eq!(ctx.pending_nbi_ops(), 2);
            // Blocking get from PE 1 must observe the *second* put.
            let mut got = [0u64];
            ctx.get(&mut got, &buf, 0, 1);
            assert_eq!(got[0], 2, "get must flush pending puts to its source in issue order");
            assert_eq!(ctx.pending_nbi_ops(), 0);
        }
        ctx.barrier_all();
    });
}

/// Static-segment nbi puts ride the temp-chunked redirection path; the
/// data still must not be assumed delivered until quiet.
#[test]
fn static_put_nbi_round_trips_through_temp() {
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let st = ctx.static_sym::<u64>(64);
        ctx.local_fill(&st, 0u64);
        ctx.barrier_all();
        if me == 0 {
            // 64 elements through a small temp forces several chunks.
            let vals: Vec<u64> = (0..64).map(|i| 1000 + i as u64).collect();
            shmem_put_nbi(ctx, &st, &vals, 1);
            ctx.quiet();
        }
        ctx.barrier_all();
        if me == 1 {
            let got = ctx.local_read(&st, 0, 64);
            assert_eq!(got[0], 1000);
            assert_eq!(got[63], 1063);
        }
    });
}

/// `get_sym_nbi` with a static source is the genuinely deferred
/// redirected read: issued at call time, reply awaited at quiet.
#[test]
fn get_sym_nbi_defers_the_redirect_reply() {
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let st = ctx.static_sym::<u64>(8);
        let heap = ctx.shmalloc::<u64>(8);
        ctx.local_fill(&heap, 0u64);
        let pat: Vec<u64> = (0..8).map(|i| me as u64 * 100 + i as u64).collect();
        ctx.local_write(&st, 0, &pat);
        ctx.barrier_all();
        if me == 0 {
            ctx.get_sym_nbi(&heap, 0, &st, 0, 8, 1);
            assert_eq!(ctx.pending_nbi_ops(), 1, "redirected static read must defer its reply");
            ctx.quiet();
            assert_eq!(ctx.local_read(&heap, 0, 8), (0..8).map(|i| 100 + i).collect::<Vec<_>>());
        }
        ctx.barrier_all();
    });
}

/// A put into the heap is one copy and completes when issued, nbi or
/// not: nothing is left pending on any engine, and the bytes are at the
/// target after the barrier.
#[test]
fn heap_put_nbi_completes_at_issue_on_every_engine() {
    fn body(ctx: &ShmemCtx) {
        let (me, n) = (ctx.my_pe(), ctx.n_pes());
        let buf = ctx.shmalloc::<u64>(n);
        ctx.local_fill(&buf, 0u64);
        ctx.barrier_all();
        ctx.put_nbi(&buf, me, &[me as u64 + 1], (me + 1) % n);
        assert_eq!(ctx.pending_nbi_ops(), 0, "a heap-target put_nbi left an op pending");
        ctx.barrier_all();
        let prev = (me + n - 1) % n;
        assert_eq!(ctx.local_read(&buf, prev, 1)[0], prev as u64 + 1);
    }
    Launcher::new(&cfg(2), NativeBackend).run(body);
    for workers in [1, 2] {
        Launcher::new(&cfg(2), CoopBackend { workers, ..Default::default() }).run(body);
    }
    Launcher::new(&cfg(2), TimedBackend).run(body);
}

/// The satellite pin: indexed `wait_until` at a non-zero element, on
/// the native engine.
#[test]
fn wait_until_at_nonzero_index_native() {
    launch(&cfg(2), |ctx| {
        wait_at_index_body(ctx);
    });
}

/// Same pin on the timed engine: virtual-time waits must poll the same
/// (correct) element.
#[test]
fn wait_until_at_nonzero_index_timed() {
    Launcher::new(&cfg(2), TimedBackend).run(|ctx| {
        wait_at_index_body(ctx);
    });
}

fn wait_at_index_body(ctx: &ShmemCtx) {
    let me = ctx.my_pe();
    let flags = ctx.shmalloc::<u64>(4);
    ctx.local_fill(&flags, 0u64);
    ctx.barrier_all();
    if me == 0 {
        // Element 0 deliberately stays 0 forever: a wait that secretly
        // polls element 0 (the pre-fix wrapper) would hang here and the
        // engine watchdog/timeout would flag it.
        ctx.p(&flags, 3, 42u64, 1);
    } else {
        shmem_wait_until_at(ctx, &flags, 3, Cmp::Ge, 42u64);
        assert_eq!(ctx.local_read(&flags, 0, 1)[0], 0, "element 0 must be untouched");
        // The old entry point routes through index 0 — check it still
        // works for the flag that does live there.
        ctx.p(&flags, 0, 7u64, 1);
        shmem_wait_until(ctx, &flags, Cmp::Eq, 7u64);
    }
    ctx.barrier_all();
}

/// `put_signal` delivers payload-then-signal: an indexed wait on the
/// signal word implies the payload has landed. Covers both `Set` and
/// `Add` signal operators around a ring.
#[test]
fn put_signal_ring_set_and_add() {
    let n = 4;
    launch(&cfg(n), |ctx| {
        let me = ctx.my_pe();
        let npes = ctx.n_pes();
        let data = ctx.shmalloc::<u64>(npes * 2);
        let sig = ctx.shmalloc::<u64>(4);
        ctx.local_fill(&data, 0u64);
        ctx.local_fill(&sig, 0u64);
        ctx.barrier_all();
        let next = (me + 1) % npes;
        let prev = (me + npes - 1) % npes;
        // Round 1: Set the signal word at index 2.
        let payload = [me as u64 + 1, me as u64 + 100];
        shmem_put_signal(
            ctx,
            &data.slice(me * 2, 2),
            &payload,
            &sig,
            2,
            1,
            SignalOp::Set,
            next,
        );
        shmem_wait_until_at(ctx, &sig, 2, Cmp::Ge, 1u64);
        assert_eq!(
            ctx.local_read(&data, prev * 2, 2),
            vec![prev as u64 + 1, prev as u64 + 100],
            "signal observed but payload missing: put_signal ordering broken"
        );
        // Round 2 reuses the payload slots — everyone must be done
        // reading round 1 before the next hop may overwrite them.
        ctx.barrier_all();
        // Add on the same word pushes it to 2.
        ctx.put_signal(&data, me * 2, &[7u64, 8], &sig, 2, 1, SignalOp::Add, next);
        ctx.wait_until(&sig, 2, Cmp::Ge, 2);
        assert_eq!(ctx.local_read(&data, prev * 2, 2), vec![7, 8]);
        ctx.barrier_all();
    });
}

/// `alltoall` over the world set: member j's dest block i holds member
/// i's source block j.
#[test]
fn alltoall_exchanges_blocks() {
    let n = 4;
    launch(&cfg(n), |ctx| {
        let me = ctx.my_pe();
        let npes = ctx.n_pes();
        let nelems = 3;
        let src = ctx.shmalloc::<u64>(npes * nelems);
        let dst = ctx.shmalloc::<u64>(npes * nelems);
        let mine: Vec<u64> = (0..npes * nelems)
            .map(|k| (me * 1000 + k) as u64)
            .collect();
        ctx.local_write(&src, 0, &mine);
        ctx.local_fill(&dst, 0u64);
        ctx.alltoall(&dst, &src, nelems, ctx.world());
        let got = ctx.local_read(&dst, 0, npes * nelems);
        for i in 0..npes {
            for k in 0..nelems {
                assert_eq!(
                    got[i * nelems + k],
                    (i * 1000 + me * nelems + k) as u64,
                    "PE {me}: block from {i} wrong at {k}"
                );
            }
        }
    });
}

/// `alltoalls` strided layout matches the spec: element k of the block
/// from set-rank i lands at `dest[i*dst*nelems + k*dst]`.
#[test]
fn alltoalls_strided_layout() {
    let n = 3;
    launch(&cfg(n), |ctx| {
        let me = ctx.my_pe();
        let npes = ctx.n_pes();
        let (dst_st, sst, nelems) = (2usize, 3usize, 2usize);
        let src = ctx.shmalloc::<u64>(npes * sst * nelems);
        let dst = ctx.shmalloc::<u64>(npes * dst_st * nelems);
        let mine: Vec<u64> = (0..src.len()).map(|k| (me * 1000 + k) as u64).collect();
        ctx.local_write(&src, 0, &mine);
        ctx.local_fill(&dst, u64::MAX);
        ctx.alltoalls(&dst, &src, dst_st, sst, nelems, ctx.world());
        let got = ctx.local_read(&dst, 0, dst.len());
        for i in 0..npes {
            for k in 0..nelems {
                let want = (i * 1000 + (me * sst * nelems) + k * sst) as u64;
                assert_eq!(got[i * dst_st * nelems + k * dst_st], want);
            }
        }
        // Holes between strided elements are untouched.
        assert_eq!(got[1], u64::MAX);
    });
}

/// `Stats::quiets` counts the program's `shmem_quiet` calls only: the
/// completion drain inside `alltoall` / `alltoalls` is the library's
/// own, on either wall-clock engine.
#[test]
fn alltoall_drains_without_counting_a_quiet() {
    fn body(ctx: &ShmemCtx) -> (u64, u64) {
        let n = ctx.n_pes();
        let src = ctx.shmalloc::<u64>(2 * n);
        let dst = ctx.shmalloc::<u64>(2 * n);
        ctx.local_fill(&src, ctx.my_pe() as u64);
        ctx.alltoall(&dst, &src, 2, ctx.world());
        ctx.alltoalls(&dst, &src, 1, 1, 2, ctx.world());
        let after = ctx.stats().quiets;
        ctx.quiet();
        (after, ctx.stats().quiets)
    }
    let native = Launcher::new(&cfg(4), NativeBackend).run(body).values;
    let coop = Launcher::new(&cfg(4), CoopBackend { workers: 2, ..Default::default() }).run(body).values;
    assert_eq!(native, vec![(0, 1); 4], "native: quiets after the exchanges, then after one quiet()");
    assert_eq!(coop, vec![(0, 1); 4], "coop, 2 workers: quiets after the exchanges, then after one quiet()");
}

/// The equivalence the team docs promise: a team collective and the
/// equivalent active-set collective produce the same memory state *and*
/// the same `Stats` deltas (same algorithm, same PEs, same traffic).
#[test]
fn team_collectives_match_active_set_collectives() {
    let n = 4;
    launch(&cfg(n), |ctx| {
        let me = ctx.my_pe();
        let npes = ctx.n_pes();
        let src = ctx.shmalloc::<i64>(8);
        let d_set = ctx.shmalloc::<i64>(npes * 8);
        let d_team = ctx.shmalloc::<i64>(npes * 8);
        let vals: Vec<i64> = (0..8).map(|i| (me as i64 + 1) * 10 + i).collect();
        ctx.local_write(&src, 0, &vals);
        ctx.local_fill(&d_set, 0i64);
        ctx.local_fill(&d_team, 0i64);
        ctx.barrier_all();
        let world = ctx.world();
        let team = ctx.team_world();
        assert_eq!(team.my_pe(), me);
        assert_eq!(team.n_pes(), npes);

        // broadcast
        let before = ctx.stats();
        ctx.broadcast(&d_set, &src, 8, 1, world);
        let mid = ctx.stats();
        team.broadcast(ctx, &d_team, &src, 8, 1);
        let after = ctx.stats();
        assert_eq!(
            ctx.local_read(&d_set, 0, 8),
            ctx.local_read(&d_team, 0, 8),
            "team broadcast diverged from active-set broadcast"
        );
        assert_eq!(
            mid.barriers - before.barriers,
            after.barriers - mid.barriers,
            "team broadcast ran a different barrier pattern"
        );
        assert_eq!(mid.collectives - before.collectives, after.collectives - mid.collectives);

        // reduce
        ctx.reduce(ReduceOp::Sum, &d_set, &src, 8, world);
        team.reduce(ctx, ReduceOp::Sum, &d_team, &src, 8);
        assert_eq!(ctx.local_read(&d_set, 0, 8), ctx.local_read(&d_team, 0, 8));

        // fcollect
        ctx.fcollect(&d_set, &src, 8, world);
        team.fcollect(ctx, &d_team, &src, 8);
        assert_eq!(ctx.local_read(&d_set, 0, npes * 8), ctx.local_read(&d_team, 0, npes * 8));

        // alltoall
        ctx.alltoall(&d_set, &src, 2, world);
        team.alltoall(ctx, &d_team, &src, 2);
        assert_eq!(ctx.local_read(&d_set, 0, npes * 2), ctx.local_read(&d_team, 0, npes * 2));
        ctx.barrier_all();
    });
}

/// Collectives on a strided sub-team only involve (and only write) the
/// members; the split returns `None` elsewhere.
#[test]
fn sub_team_collective_leaves_non_members_alone() {
    let n = 4;
    launch(&cfg(n), |ctx| {
        let me = ctx.my_pe();
        let src = ctx.shmalloc::<u64>(4);
        let dst = ctx.shmalloc::<u64>(4);
        ctx.local_write(&src, 0, &[me as u64 + 1; 4]);
        ctx.local_fill(&dst, 0u64);
        ctx.barrier_all();
        // Evens team: {0, 2}.
        match ctx.team_world().split_strided(0, 1, 2) {
            Some(team) => {
                assert!(me % 2 == 0);
                team.reduce(ctx, ReduceOp::Sum, &dst, &src, 4);
                // 1 + 3 (PE values +1) = members 0 and 2 contribute 1 and 3.
                assert_eq!(ctx.local_read(&dst, 0, 4), vec![4u64; 4]);
            }
            None => {
                assert!(me % 2 == 1, "even PE wrongly excluded from the evens team");
            }
        }
        ctx.barrier_all();
        if me % 2 == 1 {
            assert_eq!(ctx.local_read(&dst, 0, 4), vec![0u64; 4], "non-member dest written");
        }
    });
}

/// Teams work on the timed engine too (same protocol code, virtual
/// time), including a remote static put's completion at quiet.
#[test]
fn timed_engine_runs_nbi_and_teams() {
    Launcher::new(&cfg(4), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let npes = ctx.n_pes();
        let buf = ctx.static_sym::<u64>(npes);
        ctx.local_fill(&buf, 0u64);
        ctx.barrier_all();
        ctx.put_nbi(&buf, me, &[me as u64 + 1], (me + 1) % npes);
        assert_eq!(ctx.pending_nbi_ops(), 1);
        ctx.fence();
        assert_eq!(ctx.pending_nbi_ops(), 1, "fence must not drain on the timed engine either");
        ctx.quiet();
        assert_eq!(ctx.pending_nbi_ops(), 0);
        ctx.barrier_all();
        let prev = (me + npes - 1) % npes;
        assert_eq!(ctx.local_read(&buf, prev, 1)[0], prev as u64 + 1);
        // A quick team alltoall for coverage of the timed service path.
        let src = ctx.shmalloc::<u64>(npes);
        let dst = ctx.shmalloc::<u64>(npes);
        ctx.local_write(&src, 0, &(0..npes).map(|k| (me * 10 + k) as u64).collect::<Vec<_>>());
        ctx.team_world().alltoall(ctx, &dst, &src, 1);
        let got = ctx.local_read(&dst, 0, npes);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(*g, (i * 10 + me) as u64);
        }
    });
}
