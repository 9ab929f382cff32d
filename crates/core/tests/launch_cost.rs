//! A launch pays for what the job uses: interrupt-service contexts are
//! started by the first request addressed to them. Every context is a
//! stack on its gate's carrier thread, so the threads a launch spawns
//! are one per gate it runs: on the coop engine its workers, whose
//! carriers run the service contexts too; on the native engine its PEs
//! plus the PEs that were ever the target of a redirected
//! (static-variable) transfer, each service gate's carrier on a thread
//! of its own — an exact count under a fixed program. Its teardown on
//! the coop engine sends no token walk.

use tshmem::prelude::*;
use tshmem::trace::TraceKind;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::for_scale(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
}

fn coop(workers: usize) -> CoopBackend {
    CoopBackend { workers, ..Default::default() }
}

/// The benchmark's `coll_hier256` round (8 barriers, 4 reduces, 4
/// broadcasts with a rotating root, one `fcollect`, one `alltoall`, all
/// at the default algorithms) at its `--quick` geometry. No call in it
/// redirects a transfer, so no service context ever starts.
#[test]
fn a_collective_only_job_starts_no_service_context() {
    const NPES: usize = 72;
    let out = Launcher::new(&cfg(NPES), coop(4)).run(|ctx| {
        let (n, me) = (ctx.n_pes(), ctx.my_pe() as u64);
        let world = ctx.world();
        let rsrc = ctx.shmalloc::<u64>(8);
        let rdst = ctx.shmalloc::<u64>(8);
        let bsrc = ctx.shmalloc::<u64>(128);
        let bdst = ctx.shmalloc::<u64>(128);
        let fsrc = ctx.shmalloc::<u64>(8);
        let fdst = ctx.shmalloc::<u64>(8 * n);
        let asrc = ctx.shmalloc::<u64>(2 * n);
        let adst = ctx.shmalloc::<u64>(2 * n);
        let mut sum = 0;
        for k in 0..4 {
            ctx.barrier_all();
            ctx.local_write(&rsrc, 0, &[me + k as u64; 8]);
            ctx.sum_to_all(&rdst, &rsrc, 8, world);
            sum += ctx.local_read(&rdst, 0, 1)[0];
            ctx.barrier_all();
            ctx.local_write(&bsrc, 0, &[me; 128]);
            ctx.broadcast(&bdst, &bsrc, 128, (17 * k) % n, world);
        }
        ctx.local_write(&fsrc, 0, &[me; 8]);
        ctx.fcollect(&fdst, &fsrc, 8, world);
        ctx.local_write(&asrc, 0, &vec![me; 2 * n]);
        ctx.alltoall(&adst, &asrc, 2, world);
        (sum, ctx.local_read(&fdst, 8 * (n - 1), 1)[0], ctx.local_read(&adst, 2 * (n - 1), 1)[0])
    });
    let n = NPES as u64;
    let sums = (0..4).map(|k| n * (n - 1) / 2 + n * k).sum::<u64>();
    assert_eq!(out.values, vec![(sums, n - 1, n - 1); NPES]);
    assert_eq!(out.threads_spawned, 4, "one carrier per worker");
}

/// The start race: after one barrier every PE puts into a static slab on
/// every peer, all walking the peers in the same order, so each
/// destination's first requests arrive together from contexts on other
/// workers (co-resident peers are written directly, without a request).
/// Exactly one context per PE starts, and every request is served; the
/// service contexts are stacks on their workers' carriers, so no thread
/// is spawned for them.
#[test]
fn concurrent_first_requests_start_each_service_context_once() {
    const NPES: usize = 64;
    let out = Launcher::new(&cfg(NPES), coop(4)).run(|ctx| {
        let (n, me) = (ctx.n_pes(), ctx.my_pe());
        let slab = ctx.static_sym::<u64>(n);
        ctx.local_write(&slab, 0, &vec![u64::MAX; n]);
        ctx.barrier_all();
        for pe in (0..n).filter(|&pe| pe != me) {
            ctx.p(&slab, me, (me * n + pe) as u64, pe);
        }
        ctx.barrier_all();
        let got = ctx.local_read(&slab, 0, n);
        for (writer, &v) in got.iter().enumerate() {
            let want = if writer == me { u64::MAX } else { (writer * n + me) as u64 };
            assert_eq!(v, want, "PE {me}, slot of writer {writer}");
        }
        ctx.stats().redirected
    });
    // 16 PEs per worker: 48 of each PE's 63 puts cross a shard.
    assert_eq!(out.values, vec![48; NPES]);
    assert_eq!(out.threads_spawned, 4, "one carrier per worker, none per service context");
}

/// `finalize` synchronises on the default barrier's transport. A no-op
/// launch sends one `TAG_SHUTDOWN` per PE (traced even though no service
/// context started to receive it) plus whatever that barrier sends: on
/// the coop engine it is the counter-cell pass at every PEs-per-worker
/// geometry, silent inside a shard and across shards alike (the leaders
/// meet on a root cell), where the ring walks 2n tokens (8 PEs: 24
/// sends in all).
#[test]
fn finalize_takes_the_cell_pass_where_pes_share_a_worker() {
    let sends = |npes, workers| {
        let out = Launcher::new(&cfg(npes).with_trace(), coop(workers)).run(|_| ());
        let trace = out.trace.expect("with_trace() returns a trace");
        trace.iter().filter(|e| e.kind == TraceKind::UdnSend).count()
    };
    assert_eq!(sends(8, 1), 8, "one shard: the shutdowns alone");
    assert_eq!(sends(8, 2), 8, "two shards: the shutdowns alone");
    assert_eq!(sends(8, 8), 8, "one PE per worker: the shutdowns alone");
}

/// One redirected get on the native engine interrupts one tile.
#[test]
fn one_redirected_get_starts_one_service_context() {
    let out = Launcher::new(&cfg(2), NativeBackend).run(|ctx| {
        let word = ctx.static_sym::<u64>(1);
        ctx.local_write(&word, 0, &[40 + ctx.my_pe() as u64]);
        ctx.barrier_all();
        if ctx.my_pe() == 0 { ctx.g(&word, 0, 1) } else { 0 }
    });
    assert_eq!(out.values, vec![41, 0]);
    assert_eq!(out.threads_spawned, 2 + 1);
}
