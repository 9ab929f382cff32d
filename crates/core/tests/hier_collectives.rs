//! The counter-cell pass on the coop engine: spot checks past 64 PEs,
//! where every contiguous set takes it, and the safety envelope
//! (DESIGN.md §6) that the fused collectives lean on. The cluster
//! geometry itself is unit-tested in `collectives/hier.rs`; without
//! cells — other engines, strided sets, locality off — a collective runs
//! its configured flat algorithm, which `locality_equivalence` compares
//! against the pass.

use tshmem::prelude::*;

fn coop(workers: usize) -> CoopBackend {
    CoopBackend { workers, ..Default::default() }
}

/// Past 64 PEs the default algorithms take the counter-cell pass; the
/// results must match the closed forms, and the whole thing must hold
/// together on the oversubscribed coop engine.
#[test]
fn default_algos_auto_upgrade_past_64_pes() {
    let npes = 96;
    let cfg = RuntimeConfig::for_scale(npes).with_partition_bytes(96 * 1024);
    let out = Launcher::new(&cfg, coop(4)).run(|ctx| {
        let me = ctx.my_pe();
        let src = ctx.shmalloc::<i64>(1);
        let dst = ctx.shmalloc::<i64>(1);
        ctx.local_write(&src, 0, &[me as i64 + 1]);
        // Default Naive reduce → the cell pass at 96 members.
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
        let sum = ctx.local_read(&dst, 0, 1)[0];
        // Default Pull broadcast → the cell pass at 96 members.
        let b_src = ctx.shmalloc::<i64>(1);
        let b_dst = ctx.shmalloc::<i64>(1);
        ctx.local_write(&b_src, 0, &[sum * 2]);
        ctx.local_write(&b_dst, 0, &[0]);
        ctx.broadcast(&b_dst, &b_src, 1, 7, ctx.world());
        // Default Ring barrier → the cell pass at 96 members.
        ctx.barrier_all();
        let bval = if me == 7 { sum * 2 } else { ctx.local_read(&b_dst, 0, 1)[0] };
        (sum, bval)
    }).values;
    let want_sum = (npes * (npes + 1) / 2) as i64;
    for (pe, (sum, bval)) in out.iter().enumerate() {
        assert_eq!(*sum, want_sum, "PE {pe} reduce");
        assert_eq!(*bval, want_sum * 2, "PE {pe} broadcast");
    }
}

/// Large-set spot check on the explicit clustered barrier: 96 PEs on
/// 4 workers, so four leaders of 24.
#[test]
fn hier_barrier_at_96_pes_on_coop() {
    let cfg = RuntimeConfig::for_scale(96).with_partition_bytes(64 * 1024);
    let out = Launcher::new(&cfg, coop(4)).run(|ctx| {
        let n = ctx.n_pes();
        let me = ctx.my_pe();
        let table = ctx.shmalloc::<u64>(n);
        ctx.p(&table, me, me as u64 + 1, (me + 1) % n);
        ctx.barrier_hier_explicit(ctx.world());
        ctx.g(&table, (me + n - 1) % n, me)
    }).values;
    for (pe, v) in out.iter().enumerate() {
        let writer = (pe + 95) % 96;
        assert_eq!(*v, writer as u64 + 1, "PE {pe}");
    }
}

// --- the counter-cell pass (coop engine, shard-aligned world set) --------

/// `(PEs, workers)`: 4 even shards of 18; 3 shards of 32 (a
/// non-power-of-two leader count); shards of 34, 34 and a short 32.
const ALIGNED: [(usize, usize); 3] = [(72, 4), (96, 3), (100, 3)];

fn scale_cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::for_scale(npes).with_partition_bytes(128 * 1024)
}

fn word(salt: u64, a: usize, b: usize) -> u64 {
    (salt ^ ((a as u64) << 32 | b as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `sum_to_all`, `broadcast` and `fcollect` back to back on the same
/// buffers with no barrier in between, the broadcast root rotating
/// through every rank (leaders, members, the last cluster's last
/// member). Inputs change every round, so a value read too late, a
/// result written too early, or one left over from the previous call
/// fails its check. The root's `dest` must keep what the previous
/// broadcast left there.
#[test]
fn fused_pass_back_to_back_reuses_buffers_with_rotating_root() {
    const NR: usize = 4;
    const NB: usize = 3;
    const NF: usize = 2;
    for (npes, workers) in ALIGNED {
        Launcher::new(&scale_cfg(npes), coop(workers)).run(move |ctx| {
            let (n, me, world) = (ctx.n_pes(), ctx.my_pe(), ctx.world());
            let rsrc = ctx.shmalloc::<u64>(NR);
            let rdst = ctx.shmalloc::<u64>(NR);
            let bsrc = ctx.shmalloc::<u64>(NB);
            let bdst = ctx.shmalloc::<u64>(NB);
            let fsrc = ctx.shmalloc::<u64>(NF);
            let fdst = ctx.shmalloc::<u64>(NF * n);
            let mut bdst_holds = vec![u64::MAX; NB];
            ctx.local_write(&bdst, 0, &bdst_holds);
            for root in 0..n {
                let round = root;
                let mine: Vec<u64> = (0..NR).map(|i| word(0x51, round * n + me, i) >> 8).collect();
                ctx.local_write(&rsrc, 0, &mine);
                ctx.sum_to_all(&rdst, &rsrc, NR, world);
                let want: Vec<u64> = (0..NR)
                    .map(|i| (0..n).map(|pe| word(0x51, round * n + pe, i) >> 8).sum())
                    .collect();
                assert_eq!(ctx.local_read(&rdst, 0, NR), want, "sum: npes={n} PE {me} round {round}");

                let sent: Vec<u64> = (0..NB).map(|i| word(0xb2, round, i)).collect();
                if me == root {
                    ctx.local_write(&bsrc, 0, &sent);
                } else {
                    bdst_holds.clone_from(&sent);
                }
                ctx.broadcast(&bdst, &bsrc, NB, root, world);
                assert_eq!(
                    ctx.local_read(&bdst, 0, NB),
                    bdst_holds,
                    "broadcast: npes={n} PE {me} root {root}"
                );

                let mine: Vec<u64> = (0..NF).map(|i| word(0xf3, round * n + me, i)).collect();
                ctx.local_write(&fsrc, 0, &mine);
                ctx.fcollect(&fdst, &fsrc, NF, world);
                let want: Vec<u64> = (0..n * NF)
                    .map(|x| word(0xf3, round * n + x / NF, x % NF))
                    .collect();
                assert_eq!(ctx.local_read(&fdst, 0, NF * n), want, "fcollect: npes={n} PE {me} round {round}");
            }
        });
    }
}

/// A static-class (private-segment) broadcast `dest`: the leader writes
/// its parked members' private segments directly, and a static `source`
/// on a root in another shard is pulled through that root's service
/// context while the root itself stays parked.
#[test]
fn fused_broadcast_into_static_dest() {
    Launcher::new(&scale_cfg(72), coop(4)).run(|ctx| {
        let me = ctx.my_pe();
        let dyn_src = ctx.shmalloc::<u64>(5);
        let stat_src = ctx.static_sym::<u64>(5);
        let dst = ctx.static_sym::<u64>(5);
        // Roots: a leader, a member of the first shard, the last PE.
        for (k, root) in [0usize, 7, 18, 71].into_iter().enumerate() {
            for (j, src) in [dyn_src, stat_src].into_iter().enumerate() {
                let sent: Vec<u64> = (0..5).map(|i| word(0x57, 2 * k + j, i)).collect();
                if me == root {
                    ctx.local_write(&src, 0, &sent);
                }
                ctx.local_write(&dst, 0, &[0; 5]);
                ctx.broadcast(&dst, &src, 5, root, ctx.world());
                let want = if me == root { vec![0; 5] } else { sent };
                assert_eq!(ctx.local_read(&dst, 0, 5), want, "PE {me} root {root} source {j}");
            }
        }
    });
}

/// `nreduce` above the per-sender temp-slot capacity (the leaders'
/// recursive doubling must chunk: 16 KiB of temp over 96 PEs is 21 u64
/// per slot), and zero-length calls of all three, which must
/// synchronize and touch nothing.
#[test]
fn fused_pass_chunks_large_reductions_and_accepts_zero_lengths() {
    const BIG: usize = 100;
    Launcher::new(&scale_cfg(96), coop(3)).run(|ctx| {
        let (n, me, world) = (ctx.n_pes(), ctx.my_pe(), ctx.world());
        let src = ctx.shmalloc::<u64>(BIG);
        let dst = ctx.shmalloc::<u64>(BIG);
        let all = ctx.shmalloc::<u64>(n);
        let mine: Vec<u64> = (0..BIG).map(|i| word(0xc4, me, i)).collect();
        ctx.local_write(&src, 0, &mine);
        for op in [ReduceOp::Xor, ReduceOp::Max] {
            ctx.reduce(op, &dst, &src, BIG, world);
            let want: Vec<u64> = (0..BIG)
                .map(|i| {
                    let vals = (0..n).map(|pe| word(0xc4, pe, i));
                    match op {
                        ReduceOp::Xor => vals.fold(0, |a, b| a ^ b),
                        _ => vals.max().unwrap(),
                    }
                })
                .collect();
            assert_eq!(ctx.local_read(&dst, 0, BIG), want, "PE {me} {op:?}");
        }

        ctx.local_write(&dst, 0, &[7; BIG]);
        ctx.local_write(&all, 0, &vec![9; n]);
        ctx.reduce(ReduceOp::Sum, &dst, &src, 0, world);
        ctx.broadcast(&dst, &src, 0, 40, world);
        ctx.fcollect(&all, &src, 0, world);
        assert_eq!(ctx.local_read(&dst, 0, BIG), vec![7; BIG], "PE {me}: zero-length call wrote dest");
        assert_eq!(ctx.local_read(&all, 0, n), vec![9; n], "PE {me}: zero-length fcollect wrote dest");
    });
}

/// Sets that meet on one leader. 140 PEs on 2 workers shard 70 + 70, so
/// `[0, 66)` starts on a shard boundary but stops inside the shard: on
/// a cell indexed by PE 0 its arrivals would be indistinguishable from
/// those of PEs 66..70 entering the world call that follows, so the two
/// clusters — 66 members and 70 — must count on different cells. PE 65
/// is held back until those four have entered the world `sum_to_all`;
/// a subset pass that counted them would fold PE 65's `source` before
/// PE 65 wrote it. `[70, 140)` covers its shard whole and does share a
/// cell with the world set — the same 70 members in the same program
/// order.
#[test]
fn sets_sharing_a_leader_do_not_mix_arrivals() {
    let cfg = RuntimeConfig::for_scale(140).with_partition_bytes(64 * 1024);
    Launcher::new(&cfg, coop(2)).run(|ctx| {
        let (n, me) = (ctx.n_pes(), ctx.my_pe());
        let src = ctx.shmalloc::<u64>(1);
        let dst = ctx.shmalloc::<u64>(1);
        let all = ctx.shmalloc::<u64>(n);
        let go = ctx.shmalloc::<u64>(1);
        ctx.barrier_all();

        let partial = ActiveSet::new(0, 0, 66);
        if me == n - 1 {
            std::thread::sleep(std::time::Duration::from_millis(300));
            ctx.put(&go, 0, &[1u64], 65);
        }
        if me < 66 {
            if me == 65 {
                ctx.wait_until(&go, 0, Cmp::Ne, 0u64);
            }
            ctx.local_write(&src, 0, &[me as u64 + 1]);
            ctx.sum_to_all(&dst, &src, 1, partial);
            assert_eq!(ctx.local_read(&dst, 0, 1)[0], 66 * 67 / 2, "partial-shard sum on PE {me}");
        }
        ctx.local_write(&src, 0, &[1]);
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
        assert_eq!(ctx.local_read(&dst, 0, 1)[0], n as u64, "world sum on PE {me}");

        let shard = ActiveSet::new(70, 0, 70);
        if me >= 70 {
            ctx.local_write(&src, 0, &[word(0xd5, me, 0)]);
            ctx.sum_to_all(&dst, &src, 1, shard);
            let want = (70..n).map(|pe| word(0xd5, pe, 0)).fold(0u64, u64::wrapping_add);
            assert_eq!(ctx.local_read(&dst, 0, 1)[0], want, "whole-shard sum on PE {me}");
            ctx.broadcast(&dst, &src, 1, 69, shard);
            if me != n - 1 {
                assert_eq!(ctx.local_read(&dst, 0, 1)[0], word(0xd5, n - 1, 0), "whole-shard broadcast on PE {me}");
            }
            ctx.fcollect(&all, &src, 1, shard);
            let want: Vec<u64> = (70..n).map(|pe| word(0xd5, pe, 0)).collect();
            assert_eq!(ctx.local_read(&all, 0, 70), want, "whole-shard fcollect on PE {me}");
        }
        ctx.fcollect(&all, &src, 1, ctx.world());
        let want: Vec<u64> = (0..n).map(|pe| if pe < 70 { 1 } else { word(0xd5, pe, 0) }).collect();
        assert_eq!(ctx.local_read(&all, 0, n), want, "world fcollect on PE {me}");
    });
}

// --- contiguous sets that start or stop inside a shard --------------------

/// `[start, end)` as an active set.
fn span(start: usize, end: usize) -> ActiveSet {
    ActiveSet::new(start, 0, end - start)
}

/// Rank of the leader of `set`'s last cluster (the first member inside
/// the last shard the set touches) at `block` PEs per worker.
fn last_leader_rank(set: ActiveSet, block: usize) -> usize {
    ((set.start + set.size - 1) / block * block).saturating_sub(set.start)
}

/// Unaligned and overlapping contiguous sets on the cell pass, results
/// and transport both checked. The sets are the world, one that stops
/// inside a later shard, one that starts inside the first (or, at 70
/// PEs, is the second shard whole), one wholly inside a shard and one
/// that straddles shard boundaries with partial clusters at both ends.
/// Every PE calls the sets it belongs to in one global order, 20 rounds
/// with changing inputs, every result closed-form.
///
/// It opens twice with `head` and the world meeting where one key could
/// serve both — a sum, then an `alltoall` — with PEs of `head` held
/// back until the last PE, in the world but not in `head`, is on its
/// way into the world call:
/// * on two workers (the shape that once mixed two sets' arrivals,
///   scaled down), the two sets meet on the second shard's leader with
///   different member counts, and `head`'s last member is held. On a
///   cell indexed by the leader alone an early world arrival completes
///   `head`'s gather, and the leader folds the held member's `source`
///   before it is written (a wrong sum, or a hang once the counts
///   drift). At 70 PEs the two sets share one root cell, legitimately:
///   same leaders, same `nc`;
/// * on three workers, the two sets have the same first leader and
///   different `nc`. `head`'s last leader is held longest, so the
///   world's third leader is on the root first, and `head`'s first PE
///   a little less, so it looks after that arrival. On a root indexed by
///   the first leader alone that arrival releases `head`'s root early: a
///   wrong sum again.
///
/// An exchange run before every rank of the set had entered would copy
/// the held member's `source` before it is written, the same way.
///
/// The trace must show no collective send at all: inside a shard the
/// pass moves data by direct copy and wakes by counter, and the leaders
/// meet on a root cell. `alltoall` and `alltoalls` must make no put and
/// no get: the transpose is leader 0's raw copies in the root step,
/// where the flat exchange made a put (and, strided, a get per element)
/// per member.
#[test]
fn unaligned_and_overlapping_sets_take_the_cell_pass() {
    const NR: usize = 3;
    const NB: usize = 2;
    const NF: usize = 2;
    const NA: usize = 2;
    // `alltoalls` strides: dest, source.
    const DST: usize = 2;
    const SST: usize = 3;
    const ROUNDS: usize = 20;
    // (PEs, workers, [(held-back PE, ms it waits once freed)],
    // [head, tail, inner, straddle]).
    let geometries = [
        (10usize, 2usize, &[(7usize, 0u64)][..], [span(0, 8), span(2, 10), span(1, 4), span(3, 7)]),
        (70, 2, &[(65, 0)][..], [span(0, 66), span(35, 70), span(3, 7), span(30, 40)]),
        (12, 3, &[(4, 100), (0, 50)][..], [span(0, 8), span(2, 12), span(5, 7), span(3, 9)]),
    ];
    for (npes, workers, held, subsets) in geometries {
        let block = npes / workers;
        let cfg = scale_cfg(npes).with_trace();
        let out = Launcher::new(&cfg, coop(workers)).run(move |ctx| {
            let (n, me, world) = (ctx.n_pes(), ctx.my_pe(), ctx.world());
            let sets = [world, subsets[0], subsets[1], subsets[2], subsets[3]];
            let rsrc = ctx.shmalloc::<u64>(NR);
            let rdst = ctx.shmalloc::<u64>(NR);
            let bsrc = ctx.shmalloc::<u64>(NB);
            let bdst = ctx.shmalloc::<u64>(NB);
            let fsrc = ctx.shmalloc::<u64>(NF);
            let fdst = ctx.shmalloc::<u64>(NF * n);
            let asrc = ctx.shmalloc::<u64>(NA * n);
            let adst = ctx.shmalloc::<u64>(NA * n);
            let ssrc = ctx.shmalloc::<u64>(SST * NA * n);
            let sdst = ctx.shmalloc::<u64>(DST * NA * n);
            let table = ctx.shmalloc::<u64>(sets.len());
            let go = ctx.shmalloc::<u64>(1);
            ctx.local_write(&sdst, 0, &vec![u64::MAX; DST * NA * n]);
            ctx.barrier_all();
            let copies = || {
                let s = ctx.stats();
                (s.puts, s.gets)
            };
            // `alltoall` on `set` with `source` block `x` on rank `r`
            // set to `word(salt, r, x)`; checked against the closed form.
            let exchange = |set: ActiveSet, salt: u64, what: &str| {
                let rank = set.rank_of(me).unwrap();
                let mine: Vec<u64> = (0..NA * set.size).map(|x| word(salt, rank, x)).collect();
                ctx.local_write(&asrc, 0, &mine);
                let before = copies();
                ctx.alltoall(&adst, &asrc, NA, set);
                assert_eq!(copies(), before, "npes={n} PE {me}: {what} alltoall on {set:?} made a put or get");
                let want: Vec<u64> = (0..NA * set.size).map(|x| word(salt, x / NA, rank * NA + x % NA)).collect();
                assert_eq!(ctx.local_read(&adst, 0, NA * set.size), want, "npes={n} PE {me}: {what} alltoall on {set:?}");
            };

            // Two sets, one place to meet, PEs of `head` held back: for
            // a sum, then for an exchange.
            let head = sets[1];
            for phase in 1..=2u64 {
                if me == n - 1 {
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    for &(pe, _) in held {
                        ctx.put(&go, 0, &[phase], pe);
                    }
                }
                if head.rank_of(me).is_some() {
                    if let Some(&(_, ms)) = held.iter().find(|h| h.0 == me) {
                        ctx.wait_until(&go, 0, Cmp::Ge, phase);
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    if phase == 1 {
                        ctx.local_write(&rsrc, 0, &[me as u64 + 1; NR]);
                        ctx.sum_to_all(&rdst, &rsrc, NR, head);
                        let want = (head.size * (head.size + 1) / 2) as u64;
                        assert_eq!(ctx.local_read(&rdst, 0, NR), [want; NR], "npes={n} PE {me}: held-back sum on {head:?}");
                    } else {
                        exchange(head, 0xa1, "held-back");
                    }
                }
                if phase == 1 {
                    ctx.local_write(&rsrc, 0, &[2; NR]);
                    ctx.sum_to_all(&rdst, &rsrc, NR, world);
                    assert_eq!(ctx.local_read(&rdst, 0, NR), [2 * n as u64; NR], "npes={n} PE {me}: world sum after it");
                } else {
                    exchange(world, 0xa2, "world");
                }
            }

            let mut bdst_holds = vec![u64::MAX; NB];
            ctx.local_write(&bdst, 0, &bdst_holds);
            for round in 0..ROUNDS {
                for (k, set) in sets.into_iter().enumerate() {
                    let Some(rank) = set.rank_of(me) else { continue };
                    let call = round * sets.len() + k;

                    // barrier: my predecessor's put must have landed.
                    let next = set.pe_at((rank + 1) % set.size);
                    let prev = set.pe_at((rank + set.size - 1) % set.size);
                    ctx.p(&table, k, word(0xba, call, me), next);
                    ctx.barrier(set);
                    assert_eq!(ctx.g(&table, k, me), word(0xba, call, prev), "barrier: npes={n} PE {me} {set:?} round {round}");

                    let mine: Vec<u64> = (0..NR).map(|i| word(0x51, call * n + me, i) >> 8).collect();
                    ctx.local_write(&rsrc, 0, &mine);
                    ctx.sum_to_all(&rdst, &rsrc, NR, set);
                    let want: Vec<u64> = (0..NR)
                        .map(|i| (0..set.size).map(|r| word(0x51, call * n + set.pe_at(r), i) >> 8).sum())
                        .collect();
                    assert_eq!(ctx.local_read(&rdst, 0, NR), want, "sum: npes={n} PE {me} {set:?} round {round}");

                    // Roots: the last cluster's leader, the set's last
                    // member (inside a partial cluster), and one that
                    // moves with the round.
                    let roots = [last_leader_rank(set, block), set.size - 1, (round * 7 + 3) % set.size];
                    for (j, root) in roots.into_iter().enumerate() {
                        let sent: Vec<u64> = (0..NB).map(|i| word(0xb2, call * 3 + j, i)).collect();
                        if rank == root {
                            ctx.local_write(&bsrc, 0, &sent);
                        } else {
                            bdst_holds.clone_from(&sent);
                        }
                        ctx.broadcast(&bdst, &bsrc, NB, root, set);
                        assert_eq!(
                            ctx.local_read(&bdst, 0, NB),
                            bdst_holds,
                            "broadcast: npes={n} PE {me} {set:?} root {root} round {round}"
                        );
                    }

                    let mine: Vec<u64> = (0..NF).map(|i| word(0xf3, call * n + me, i)).collect();
                    ctx.local_write(&fsrc, 0, &mine);
                    ctx.fcollect(&fdst, &fsrc, NF, set);
                    let want: Vec<u64> = (0..set.size * NF)
                        .map(|x| word(0xf3, call * n + set.pe_at(x / NF), x % NF))
                        .collect();
                    assert_eq!(
                        ctx.local_read(&fdst, 0, NF * set.size),
                        want,
                        "fcollect: npes={n} PE {me} {set:?} round {round}"
                    );

                    exchange(set, 0xa4 + call as u64, "round");

                    // Element k of the block for rank j is read from
                    // `source[j·SST·NA + k·SST]` and lands at
                    // `dest[i·DST·NA + k·DST]` on rank j; the holes
                    // between are never written.
                    let salt = 0x5a + call as u64;
                    let mine: Vec<u64> = (0..SST * NA * set.size).map(|x| word(salt, rank, x)).collect();
                    ctx.local_write(&ssrc, 0, &mine);
                    let before = copies();
                    ctx.alltoalls(&sdst, &ssrc, DST, SST, NA, set);
                    assert_eq!(copies(), before, "alltoalls: npes={n} PE {me} {set:?} made a put or get");
                    let want: Vec<u64> = (0..DST * NA * set.size)
                        .map(|x| match x % DST {
                            0 => word(salt, x / (DST * NA), rank * SST * NA + x % (DST * NA) / DST * SST),
                            _ => u64::MAX,
                        })
                        .collect();
                    assert_eq!(
                        ctx.local_read(&sdst, 0, DST * NA * set.size),
                        want,
                        "alltoalls: npes={n} PE {me} {set:?} round {round}"
                    );
                }
            }
        });
        // Finalization takes the cell pass too, so an empty job sends
        // its shutdowns and nothing else.
        let idle = Launcher::new(&cfg, coop(workers)).run(|_| {});
        assert_eq!(
            shard_sends(&out, block),
            shard_sends(&idle, block),
            "npes={npes}: no collective sent a token inside or across shards"
        );
    }
}

// --- alltoall on and off the pass -------------------------------------------

/// `alltoall` of `NA`-element blocks on `set` from `source` block `x` on
/// rank `r` = `word(salt, r, x)`: `Some(puts made)` for a member, after
/// checking `dest` against the closed form.
fn exchange_on(ctx: &ShmemCtx, dest: &Sym<u64>, source: &Sym<u64>, nelems: usize, set: ActiveSet, salt: u64) -> usize {
    let rank = set.rank_of(ctx.my_pe()).expect("a member");
    let mine: Vec<u64> = (0..nelems * set.size).map(|x| word(salt, rank, x)).collect();
    ctx.local_write(source, 0, &mine);
    let before = ctx.stats().puts;
    ctx.alltoall(dest, source, nelems, set);
    let puts = (ctx.stats().puts - before) as usize;
    let want: Vec<u64> = (0..nelems * set.size).map(|x| word(salt, x / nelems, rank * nelems + x % nelems)).collect();
    assert_eq!(ctx.local_read(dest, 0, nelems * set.size), want, "PE {}: alltoall on {set:?}", ctx.my_pe());
    puts
}

/// The shapes at the edge of the pass, on native and on two workers.
/// A zero-length exchange synchronises and writes nothing; a one-member
/// set copies the member's own block; both make no put. A strided set
/// (a `split_strided` team) has no cells and takes the flat exchange:
/// still correct, with a put per member.
#[test]
fn alltoall_edges_and_strided_sets() {
    const N: usize = 12;
    const NA: usize = 3;
    for engine in ["native", "coop(2)"] {
        let cfg = scale_cfg(N);
        let body = move |ctx: &ShmemCtx| {
            let (n, me, world) = (ctx.n_pes(), ctx.my_pe(), ctx.world());
            let src = ctx.shmalloc::<u64>(NA * n);
            let dst = ctx.shmalloc::<u64>(NA * n);
            ctx.local_write(&dst, 0, &vec![7; NA * n]);
            let before = ctx.stats().puts;
            ctx.alltoall(&dst, &src, 0, world);
            ctx.alltoalls(&dst, &src, 2, 3, 0, world);
            assert_eq!(ctx.local_read(&dst, 0, NA * n), vec![7; NA * n], "{engine} PE {me}: zero-length exchange wrote dest");
            assert_eq!(ctx.stats().puts, before, "{engine} PE {me}: zero-length exchange made a put");

            let alone = ActiveSet::new(me, 0, 1);
            assert_eq!(exchange_on(ctx, &dst, &src, NA, alone, 0x1e), 0, "{engine} PE {me}: one-member set");
            assert_eq!(exchange_on(ctx, &dst, &src, NA, world, 0x3c), 0, "{engine} PE {me}: world");

            // Odd PEs: start 1, stride 2.
            if let Some(team) = ctx.team_world().split_strided(1, 1, n / 2) {
                let set = team.active_set();
                assert_eq!(exchange_on(ctx, &dst, &src, NA, set, 0x5d), set.size, "{engine} PE {me}: strided set");
            }
            ctx.barrier_all();
        };
        if engine == "native" {
            Launcher::new(&cfg, NativeBackend).run(body);
        } else {
            Launcher::new(&cfg, coop(2)).run(body);
        }
    }
}

/// Back-to-back exchanges whose caller rewrites `source` and reads
/// `dest` the moment each returns, with no barrier between: a rank
/// released before leader 0 finished copying would see a stale block,
/// or have its next `source` copied in place of this one. On native
/// (each PE its own cluster, so leader 0 copies for every rank) and on
/// one, two and four workers.
#[test]
fn back_to_back_alltoalls_publish_before_release() {
    const N: usize = 8;
    const NA: usize = 2;
    const ROUNDS: usize = 200;
    let cfg = scale_cfg(N);
    let body = |ctx: &ShmemCtx| {
        let (n, world) = (ctx.n_pes(), ctx.world());
        let src = ctx.shmalloc::<u64>(NA * n);
        let dst = ctx.shmalloc::<u64>(NA * n);
        let halves = [ActiveSet::new(0, 0, n / 2), ActiveSet::new(n / 2, 0, n / 2)];
        let mut puts = 0;
        for round in 0..ROUNDS {
            puts += exchange_on(ctx, &dst, &src, NA, world, round as u64);
            let half = halves[ctx.my_pe() / (n / 2)];
            puts += exchange_on(ctx, &dst, &src, NA, half, (ROUNDS + round) as u64);
        }
        puts
    };
    let runs = [
        ("native", Launcher::new(&cfg, NativeBackend).run(body).values),
        ("coop(1)", Launcher::new(&cfg, coop(1)).run(body).values),
        ("coop(2)", Launcher::new(&cfg, coop(2)).run(body).values),
        ("coop(4)", Launcher::new(&cfg, coop(4)).run(body).values),
    ];
    for (engine, puts) in runs {
        assert_eq!(puts, vec![0; N], "{engine}: the exchanges made puts");
    }
}

/// `(inside one worker's shard, across shards)` UDN sends of a traced
/// launch at `block` PEs per worker.
fn shard_sends<R>(out: &EngineOutcome<R>, block: usize) -> (usize, usize) {
    let trace = out.trace.as_ref().expect("with_trace() returns a trace");
    let sends = trace.iter().filter(|e| e.kind == tshmem::trace::TraceKind::UdnSend);
    let inside = sends.clone().filter(|e| e.pe / block == e.peer / block).count();
    (inside, sends.count() - inside)
}
