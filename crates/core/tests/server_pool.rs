//! The multi-tenant server pool: admission control, per-job fault
//! isolation, load shedding, and cross-tenant arena-recycling hygiene.
//!
//! Hostile tenants are plain panicking closures, or jobs handed a
//! `Fault::PanicPe` plan of their own (`JobSpec::with_faults`), which no
//! other job — in this server or another test's — can see.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use substrate::sync::{Condvar, Mutex};
use tshmem::ctx::Layout;
use tshmem::{
    CoopBackend, Fault, JobOutcome, JobSpec, Launcher, Resident, RuntimeConfig, Server,
    ServerConfig, ShedPolicy, ShmemCtx, SubmitError,
};

fn small_cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024)
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        workers: 4,
        ..Default::default()
    }
}

/// A latch tenants can park on without tripping the watchdog (the test
/// raises the stall window when it uses this).
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.cv.wait(&mut open);
        }
    }

    fn release(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }
}

/// A job that holds a 2-slot pool whole — it leases one slot per two
/// PEs — until `latch` opens.
fn pool_holder(latch: &Arc<Latch>) -> JobSpec {
    let latch = latch.clone();
    JobSpec::new(small_cfg(4), move |ctx| {
        if ctx.my_pe() == 0 {
            latch.wait();
        }
        ctx.barrier_all();
    })
}

#[test]
fn quotas_reject_oversized_jobs() {
    let server = Server::round_robin(ServerConfig {
        max_npes: 4,
        max_partition_bytes: 1024 * 1024,
        ..server_cfg()
    });
    let err = server
        .submit(JobSpec::new(small_cfg(8), |_| {}))
        .expect_err("8 PEs over a 4-PE quota");
    assert_eq!(err, SubmitError::TooManyPes { requested: 8, quota: 4 });
    let err = server
        .submit(JobSpec::new(
            small_cfg(2).with_partition_bytes(2 * 1024 * 1024),
            |_| {},
        ))
        .expect_err("2MB partitions over a 1MB quota");
    assert_eq!(
        err,
        SubmitError::HeapQuota { requested: 2 * 1024 * 1024, quota: 1024 * 1024 }
    );
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.submitted, 0);
}

#[test]
fn full_queue_rejects_with_retry_after() {
    let latch = Arc::new(Latch::default());
    let server = Server::round_robin(ServerConfig {
        workers: 2,
        queue_depth: 2,
        // The blocker parks outside the fabric; keep the watchdog far away.
        stall: Duration::from_secs(120),
        ..Default::default()
    });
    // Holds both worker slots and parks, so everything behind it queues.
    let blocker = server.submit(pool_holder(&latch)).expect("blocker admitted");
    // Wait until the blocker is dispatched (leaves the queue).
    while server.queue_len() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued: Vec<_> = (0..2)
        .map(|_| server.submit(JobSpec::new(small_cfg(2), |_| {})).expect("fits in queue"))
        .collect();
    let err = server
        .submit(JobSpec::new(small_cfg(2), |_| {}))
        .expect_err("third submission finds the depth-2 queue full");
    match err {
        SubmitError::QueueFull { retry_after } => {
            assert!(retry_after >= Duration::from_millis(1), "hint must be usable");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    latch.release();
    assert!(blocker.wait().outcome.is_completed());
    for h in queued {
        assert!(h.wait().outcome.is_completed());
    }
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.rejected, stats.completed), (3, 1, 3));
}

#[test]
fn drop_oldest_sheds_the_queue_head() {
    let latch = Arc::new(Latch::default());
    let server = Server::round_robin(ServerConfig {
        workers: 2,
        queue_depth: 1,
        shed: ShedPolicy::DropOldest,
        stall: Duration::from_secs(120),
        ..Default::default()
    });
    let blocker = server.submit(pool_holder(&latch)).expect("blocker admitted");
    while server.queue_len() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let victim = server.submit(JobSpec::new(small_cfg(2), |_| {})).expect("queued");
    let survivor = server.submit(JobSpec::new(small_cfg(2), |_| {})).expect("sheds the victim");
    let shed = victim.wait();
    assert!(shed.outcome.is_shed(), "oldest queued job load-shed: {:?}", shed.outcome);
    latch.release();
    assert!(blocker.wait().outcome.is_completed());
    assert!(survivor.wait().outcome.is_completed());
    let stats = server.shutdown();
    assert_eq!((stats.shed, stats.completed), (1, 2));
}

#[test]
fn tenant_panic_faults_only_that_job() {
    let server = Server::fair(server_cfg());
    let mut handles = Vec::new();
    for i in 0..6u32 {
        let spec = if i == 2 {
            JobSpec::new(small_cfg(2), |ctx| {
                if ctx.my_pe() == 1 {
                    panic!("hostile tenant payload");
                }
                ctx.barrier_all();
            })
            .with_tenant(i)
        } else {
            JobSpec::new(small_cfg(2), |ctx| {
                let n = ctx.n_pes();
                let me = ctx.my_pe();
                let ring = ctx.shmalloc::<u64>(1);
                ctx.local_write(&ring, 0, &[0]);
                ctx.barrier_all();
                ctx.p(&ring, 0, me as u64 + 1, (me + 1) % n);
                ctx.barrier_all();
                let got = ctx.local_read(&ring, 0, 1)[0];
                assert_eq!(got, ((me + n - 1) % n) as u64 + 1);
            })
            .with_tenant(i)
        };
        handles.push((i, server.submit(spec).expect("admitted")));
    }
    for (i, h) in handles {
        let report = h.wait();
        if i == 2 {
            match &report.outcome {
                JobOutcome::Faulted { error, .. } => {
                    // Either the origin's message or a sibling's
                    // secondary abort panic, depending on join order.
                    assert!(
                        error.contains("hostile tenant payload") || error.contains("aborting"),
                        "unexpected fault message: {error}"
                    );
                }
                other => panic!("hostile job should fault, got {other:?}"),
            }
        } else {
            assert!(
                report.outcome.is_completed(),
                "healthy tenant {i} harmed by the hostile one: {:?}",
                report.outcome
            );
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.faulted), (5, 1));
}

/// Cross-tenant leak regression: a recycled heap shard must never carry
/// the previous tenant's bytes — zeroed in release, poison-patterned
/// under `debug_assertions`.
#[test]
fn recycled_arenas_never_leak_tenant_bytes() {
    const SECRET: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let server = Server::round_robin(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let cfg = small_cfg(2);
    // Tenant A fills its symmetric heap with a secret and completes
    // cleanly, retiring its shard set into the recycling pool.
    server
        .submit(JobSpec::new(cfg, |ctx| {
            let buf = ctx.shmalloc::<u64>(64);
            ctx.local_fill(&buf, SECRET);
            ctx.barrier_all();
        }))
        .expect("tenant A admitted")
        .wait();
    // Tenant B gets the same geometry and reads its heap *without
    // writing first* — nothing of tenant A may show through.
    let report = server
        .submit(JobSpec::new(cfg, |ctx| {
            let buf = ctx.shmalloc::<u64>(64);
            let got = ctx.local_read(&buf, 0, 64);
            let expect = if cfg!(debug_assertions) {
                u64::from_ne_bytes([0xA5; 8])
            } else {
                0
            };
            for (i, v) in got.iter().enumerate() {
                assert_ne!(*v, SECRET, "tenant A's secret leaked at word {i}");
                assert_eq!(*v, expect, "recycled heap not scrubbed at word {i}");
            }
        }))
        .expect("tenant B admitted")
        .wait();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    let stats = server.shutdown();
    assert!(
        stats.arenas_recycled >= 1,
        "tenant B must actually exercise recycling (stats: {stats:?})"
    );
}

const SECRET: u64 = 0xDEAD_BEEF_CAFE_F00D;

/// Tenant B of the extent-scrub tests: take the whole symmetric heap
/// and the whole private segment of the recycled set and find no word
/// of tenant A in either. Release builds hand out zeros; debug builds a
/// heap that is poison or zero. The statics are always zero.
fn assert_next_tenant_finds_no_secret(server: Server, cfg: RuntimeConfig) {
    let heap_words = Layout::new(cfg.partition_bytes, cfg.npes, cfg.temp_bytes).heap_bytes / 8;
    let static_words = cfg.private_bytes / 8;
    let report = server
        .submit(JobSpec::new(cfg, move |ctx| {
            let me = ctx.my_pe();
            let heap = ctx.shmalloc::<u64>(heap_words);
            for (i, v) in ctx.local_read(&heap, 0, heap_words).into_iter().enumerate() {
                assert_ne!(v, SECRET, "PE {me}: tenant A's secret leaked at heap word {i}");
                let clean = v == 0 || (cfg!(debug_assertions) && v == u64::from_ne_bytes([0xA5; 8]));
                assert!(clean, "PE {me}: heap word {i} = {v:#x} is neither zero nor poison");
            }
            let statics = ctx.static_sym::<u64>(static_words);
            for (i, v) in ctx.local_read(&statics, 0, static_words).into_iter().enumerate() {
                assert_eq!(v, 0, "PE {me}: static word {i} not scrubbed");
            }
        }))
        .expect("tenant B admitted")
        .wait();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    let stats = server.shutdown();
    assert_eq!(
        (stats.arenas_fresh, stats.arenas_recycled),
        (1, 1),
        "tenant B must run in tenant A's memory"
    );
}

fn run_tenant_a(server: &Server, cfg: RuntimeConfig, body: impl Fn(&ShmemCtx) + Send + Sync + 'static) {
    let report = server.submit(JobSpec::new(cfg, body)).expect("tenant A admitted").wait();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
}

/// The extent is a high-water mark, not what is allocated at the end:
/// tenant A frees its 64 KiB, then writes the secret again through the
/// stale handle.
#[test]
fn a_stale_handle_after_shfree_is_still_scrubbed() {
    let server = Server::round_robin(ServerConfig { workers: 2, ..Default::default() });
    let cfg = small_cfg(2);
    run_tenant_a(&server, cfg, |ctx| {
        let buf = ctx.shmalloc::<u64>(8192);
        let statics = ctx.static_sym::<u64>(512);
        ctx.local_fill(&buf, SECRET);
        ctx.local_fill(&statics, SECRET);
        ctx.shfree(buf);
        ctx.local_fill(&buf, SECRET);
        ctx.barrier_all();
    });
    assert_next_tenant_finds_no_secret(server, cfg);
}

/// The extent is the maximum over PEs: PE 1 allocates 128 KiB where PE 0
/// allocates 8 bytes, and puts the secret into PE 0's partition through
/// its own, larger handle.
#[test]
fn a_peer_writing_through_a_larger_handle_is_still_scrubbed() {
    let server = Server::round_robin(ServerConfig { workers: 2, ..Default::default() });
    let cfg = small_cfg(2);
    run_tenant_a(&server, cfg, |ctx| {
        let mine = ctx.shmalloc::<u64>(if ctx.my_pe() == 1 { 16 * 1024 } else { 1 });
        if ctx.my_pe() == 1 {
            ctx.put(&mine, 0, &vec![SECRET; mine.len()], 0);
        }
        ctx.barrier_all();
    });
    assert_next_tenant_finds_no_secret(server, cfg);
}

/// The extents are read after the tenant closure has returned, not in
/// `finalize`: a tenant may finalize early and allocate afterwards.
#[test]
fn allocations_after_an_early_finalize_are_still_scrubbed() {
    let server = Server::round_robin(ServerConfig { workers: 2, ..Default::default() });
    let cfg = small_cfg(2);
    run_tenant_a(&server, cfg, |ctx| {
        ctx.finalize();
        let buf = ctx.shmalloc::<u64>(8192);
        let statics = ctx.static_sym::<u64>(512);
        ctx.local_fill(&buf, SECRET);
        ctx.local_fill(&statics, SECRET);
    });
    assert_next_tenant_finds_no_secret(server, cfg);
}

/// The benchmark's `server_jobs` job body: one `u64` of heap, no statics.
fn ring_spec(npes: usize) -> JobSpec {
    JobSpec::new(small_cfg(npes), |ctx| {
        let (n, me) = (ctx.n_pes(), ctx.my_pe());
        let slot = ctx.shmalloc::<u64>(1);
        ctx.local_write(&slot, 0, &[0]);
        ctx.barrier_all();
        for k in 1..=8 {
            ctx.p(&slot, 0, k, (me + 1) % n);
            ctx.barrier_all();
        }
        assert_eq!(ctx.local_read(&slot, 0, 1)[0], 8);
    })
}

/// What a warm job scrubs: per PE its 8 heap bytes and the internal
/// region, not the partition.
fn warm_scrub(npes: usize) -> u64 {
    let cfg = small_cfg(npes);
    let heap_bytes = Layout::new(cfg.partition_bytes, npes, cfg.temp_bytes).heap_bytes;
    (npes * (8 + cfg.partition_bytes - heap_bytes)) as u64
}

/// A job pays for what it touches: a sequential stream of 2-PE jobs
/// runs on the three lanes of its first job (runner, launch, and the
/// carrier of the one worker its two PEs are stacks on) however long it
/// is, and scrubs 8 bytes of heap per PE.
#[test]
fn a_sequential_stream_runs_on_three_lanes_and_scrubs_what_it_dirtied() {
    let server = Server::fair(ServerConfig { workers: 2, ..Default::default() });
    for _ in 0..100 {
        assert!(server.submit(ring_spec(2)).expect("admitted").wait().outcome.is_completed());
    }
    let stats = server.stats();
    assert_eq!((stats.lanes_spawned, stats.lanes_reused), (3, 297));
    assert_eq!((stats.arenas_fresh, stats.arenas_recycled), (1, 99));
    assert_eq!(stats.scrubbed_bytes, 99 * warm_scrub(2));
    assert_eq!((stats.lanes_retired, stats.lanes_live), (0, 3));
    let stats = server.shutdown();
    assert_eq!((stats.lanes_spawned, stats.lanes_live), (3, 0), "shutdown ends every idle lane");
}

/// The benchmark's stream — 2 slots, 8 jobs in flight, one 8-PE job in
/// five. A 2-PE job leases one slot, so two of them run side by side,
/// but an 8-PE job leases both and runs alone; and every lane of a job
/// is idle again before its slots are. A job's lanes are its runner,
/// its launch and one carrier per leased worker, so six lanes — two
/// narrow jobs' side by side, more than the widest job's four — carry
/// the whole stream, and it allocates three sets: one per narrow job in
/// flight and one 8-PE set.
#[test]
fn a_closed_loop_stream_runs_on_the_lanes_of_its_widest_job() {
    let server = Server::fair(ServerConfig { workers: 2, ..Default::default() });
    let mut inflight = VecDeque::new();
    let (mut narrow, mut wide) = (0, 0);
    for i in 0..200 {
        if inflight.len() == 8 {
            let oldest: tshmem::JobHandle = inflight.pop_front().expect("window is full");
            assert!(oldest.wait().outcome.is_completed());
        }
        let npes = if i % 5 == 4 { 8 } else { 2 };
        *(if npes == 8 { &mut wide } else { &mut narrow }) += 1;
        inflight.push_back(server.submit(ring_spec(npes).with_tenant(i % 5)).expect("admitted"));
    }
    for h in inflight {
        assert!(h.wait().outcome.is_completed());
    }
    let stats = server.shutdown();
    assert_eq!(stats.lanes_spawned, 3 + 3);
    assert_eq!(stats.lanes_reused, narrow * 3 + wide * 4 - 6);
    assert_eq!((stats.arenas_fresh, stats.arenas_recycled), (3, narrow + wide - 3));
    assert_eq!(stats.scrubbed_bytes, (narrow - 2) * warm_scrub(2) + (wide - 1) * warm_scrub(8));
    assert_eq!((stats.lanes_retired, stats.lanes_live), (0, 0));
}

/// The lease is one slot per two PEs. On a 2-slot pool two 2-PE jobs run
/// at the same time, each behind one gate — a put into the peer's static
/// is a direct copy, not a request to its service context — and an 8-PE
/// job waits until both slots are free, not one.
#[test]
fn two_narrow_jobs_share_the_pool_and_a_wide_one_waits_for_both_slots() {
    let server = Server::round_robin(ServerConfig { workers: 2, stall: Duration::from_secs(120), ..Default::default() });
    let running = Arc::new(AtomicUsize::new(0));
    let narrow = |latch: &Arc<Latch>| {
        let (latch, running) = (latch.clone(), running.clone());
        JobSpec::new(small_cfg(2), move |ctx| {
            let word = ctx.static_sym::<u64>(1);
            if ctx.my_pe() == 0 {
                running.fetch_add(1, Ordering::SeqCst);
                latch.wait();
                ctx.p(&word, 0, 7, 1);
            }
            ctx.barrier_all();
            let stats = ctx.stats();
            let direct = u64::from(ctx.my_pe() == 0);
            assert_eq!((stats.redirected, stats.locality_hits), (0, direct), "both PEs on one worker");
        })
    };
    let (first, second) = (Arc::new(Latch::default()), Arc::new(Latch::default()));
    let a = server.submit(narrow(&first)).expect("admitted");
    let b = server.submit(narrow(&second)).expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(30);
    while running.load(Ordering::SeqCst) < 2 {
        assert!(Instant::now() < deadline, "the second 2-PE job never started beside the first");
        std::thread::sleep(Duration::from_millis(1));
    }

    let wide_ran = Arc::new(AtomicBool::new(false));
    let ran = wide_ran.clone();
    let wide = server
        .submit(JobSpec::new(small_cfg(8), move |_| ran.store(true, Ordering::SeqCst)))
        .expect("admitted");
    first.release();
    assert!(a.wait().outcome.is_completed());
    std::thread::sleep(Duration::from_millis(50));
    assert!(!wide_ran.load(Ordering::SeqCst), "the 8-PE job started on one free slot");
    assert_eq!(server.queue_len(), 1);
    second.release();
    assert!(b.wait().outcome.is_completed());
    assert!(wide.wait().outcome.is_completed());
    assert!(wide_ran.load(Ordering::SeqCst));
}

/// `threads_spawned` is what *this launch* created: the worker carriers
/// of the first launch over a kept `Resident`, nothing for the ones
/// after it — which map no stack either: the first launch's four are
/// kept and taken again.
#[test]
fn a_warm_resident_launch_spawns_no_thread() {
    let resident = Arc::new(Resident::default());
    let launch = || {
        let backend = CoopBackend { workers: 2, resident: Some(resident.clone()) };
        Launcher::new(&small_cfg(4), backend).run(|ctx| ctx.my_pe()).threads_spawned
    };
    assert_eq!(launch(), 2);
    assert_eq!(resident.stacks.kept(), 4);
    assert_eq!(launch(), 0);
    assert_eq!(launch(), 0);
    assert_eq!(resident.lanes.stats().live, 2);
    assert_eq!(resident.stacks.kept(), 4, "a warm launch maps no stack");
}

/// The trust rule of the lanes: after a `Faulted` job — one PE panics,
/// its sibling unwinds through the abort, both stacks on their worker's
/// one carrier lane — no later job ever runs on a thread that unwound,
/// exactly that lane is retired, and the pool keeps serving on the rest.
#[test]
fn lanes_a_faulted_job_unwound_are_never_reused() {
    let server = Server::round_robin(ServerConfig { workers: 2, ..Default::default() });
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let healthy = |seen: &Arc<Mutex<Vec<ThreadId>>>| {
        let seen = seen.clone();
        JobSpec::new(small_cfg(2), move |ctx| {
            seen.lock().push(std::thread::current().id());
            ctx.barrier_all();
        })
    };
    assert!(server.submit(healthy(&seen)).expect("admitted").wait().outcome.is_completed());

    let unwound: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let ids = unwound.clone();
    let report = server
        .submit(JobSpec::new(small_cfg(2), move |ctx| {
            ids.lock().push(std::thread::current().id());
            // Both PEs are in the body before PE 1 panics: on one worker
            // PE 0 may otherwise still be queued for the gate and unwind
            // there without recording its lane.
            ctx.barrier_all();
            if ctx.my_pe() == 1 {
                panic!("hostile tenant payload");
            }
            ctx.barrier_all();
        }))
        .expect("admitted")
        .wait();
    match &report.outcome {
        // Lanes carry no PE in their name; the message does.
        JobOutcome::Faulted { error, .. } => assert!(
            error == "PE 1: hostile tenant payload" || error == "PE 0: aborting — another PE panicked",
            "{error}"
        ),
        other => panic!("hostile job should fault, got {other:?}"),
    }
    let unwound: HashSet<ThreadId> = unwound.lock().iter().copied().collect();
    assert_eq!(unwound.len(), 1, "both PEs on their worker's carrier");
    assert_eq!(server.stats().lanes_retired, 1, "the carrier lane unwound; the launch lane caught it");

    seen.lock().clear();
    for _ in 0..50 {
        assert!(server.submit(healthy(&seen)).expect("admitted").wait().outcome.is_completed());
    }
    assert_eq!(seen.lock().len(), 100);
    assert!(seen.lock().iter().all(|id| !unwound.contains(id)), "a job ran on an unwound lane");
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.faulted), (51, 1));
    // Runner + launch + the worker's carrier, and the one that replaced
    // the unwound carrier.
    assert_eq!((stats.lanes_spawned, stats.lanes_retired, stats.lanes_live), (4, 1, 0));
}

/// A 2-PE job with enough fabric ops that a `PanicPe { after_ops: 8 }`
/// plan's op counter comfortably passes its threshold; each run records
/// the lanes it ran on in `seen`.
fn busy_spec(seen: &Arc<Mutex<Vec<ThreadId>>>) -> JobSpec {
    let seen = seen.clone();
    JobSpec::new(small_cfg(2), move |ctx| {
        seen.lock().push(std::thread::current().id());
        let (n, me) = (ctx.n_pes(), ctx.my_pe());
        let data = ctx.shmalloc::<u64>(8);
        ctx.local_fill(&data, 0u64);
        ctx.barrier_all();
        for round in 0..16u64 {
            ctx.p(&data, (round % 8) as usize, round, (me + 1) % n);
            ctx.barrier_all();
        }
    })
}

const PANIC_PE_1: [Fault; 1] = [Fault::PanicPe { pe: 1, after_ops: 8 }];

/// The injected crashing-tenant panic is caught at the PE boundary,
/// reported as `Faulted` — diagnosed, not a pool stall, and never
/// retried — and the pool keeps serving, never on a lane that unwound.
#[test]
fn injected_pe_panic_faults_the_job_and_pool_survives() {
    let server = Server::round_robin(ServerConfig { workers: 2, stall: Duration::from_secs(10), ..Default::default() });
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let report = server.submit(busy_spec(&seen).with_faults(PANIC_PE_1)).expect("admitted").wait();
    match &report.outcome {
        JobOutcome::Faulted { error, attempts } => {
            assert_eq!(*attempts, 1, "a caught panic is terminal, never retried");
            assert!(
                error.contains("PanicPe") || error.contains("aborting"),
                "fault message should name the injected panic or the secondary abort: {error}"
            );
        }
        other => panic!("PanicPe job must fault, got {other:?}"),
    }
    // PE 1 panicked and PE 0 unwound through the abort: the carrier lane
    // both ran on is gone for good, and the counters have settled by the
    // time the report is out.
    let unwound: HashSet<ThreadId> = seen.lock().drain(..).collect();
    assert_eq!(unwound.len(), 1);
    assert_eq!(server.stats().lanes_retired, 1);

    // The same workload without the plan completes.
    for _ in 0..50 {
        let report = server.submit(busy_spec(&seen)).expect("admitted").wait();
        assert!(report.outcome.is_completed(), "pool healthy: {:?}", report.outcome);
    }
    assert_eq!(seen.lock().len(), 100);
    assert!(seen.lock().iter().all(|id| !unwound.contains(id)), "a job ran on an unwound lane");
    let stats = server.shutdown();
    assert_eq!((stats.faulted, stats.completed), (1, 50));
    assert_eq!(stats.evicted, 0, "a caught panic must not look like a wedge");
    assert_eq!((stats.lanes_retired, stats.lanes_live), (1, 0));
}

/// A plan rides on its job, not on the server: with one tenant's
/// `PanicPe` job queued amid 50 clean jobs of another, only the job
/// that carries the plan faults — whichever job first passes eight ops
/// on PE 1, and in whatever order the two tenants are served.
#[test]
fn a_panic_pe_plan_faults_only_the_job_that_carries_it() {
    let server = Server::round_robin(ServerConfig { workers: 2, stall: Duration::from_secs(10), ..Default::default() });
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    for rep in 0..20 {
        let clean = |_| server.submit(busy_spec(&seen).with_tenant(2)).expect("admitted");
        let before: Vec<_> = (0..25).map(clean).collect();
        let faulted = server.submit(busy_spec(&seen).with_tenant(1).with_faults(PANIC_PE_1)).expect("admitted");
        let after: Vec<_> = (0..25).map(clean).collect();
        assert!(faulted.wait().outcome.is_faulted(), "rep {rep}: the job with the plan ran clean");
        for h in before.into_iter().chain(after) {
            let report = h.wait();
            assert!(report.outcome.is_completed(), "rep {rep}: a clean job was hit: {:?}", report.outcome);
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.faulted, stats.completed), (20, 1000));
}

#[test]
fn shutdown_sheds_queued_jobs_and_resolves_every_handle() {
    let latch = Arc::new(Latch::default());
    let server = Server::round_robin(ServerConfig {
        workers: 2,
        queue_depth: 8,
        stall: Duration::from_secs(120),
        ..Default::default()
    });
    let blocker = server.submit(pool_holder(&latch)).expect("blocker admitted");
    while server.queue_len() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued: Vec<_> = (0..3)
        .map(|_| server.submit(JobSpec::new(small_cfg(2), |_| {})).expect("queued"))
        .collect();
    // Shutdown from another thread (it blocks on the running job);
    // release the latch so the blocker can drain.
    let shutter = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    latch.release();
    let stats = shutter.join().expect("shutdown thread");
    assert!(blocker.wait().outcome.is_completed());
    for h in queued {
        assert!(h.wait().outcome.is_shed(), "queued jobs shed at shutdown");
    }
    assert_eq!((stats.completed, stats.shed), (1, 3));
}
