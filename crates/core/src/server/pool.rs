//! The resident multi-tenant job pool: bounded admission, worker-slot
//! leasing, per-job fault isolation, and watchdog-driven eviction.
//!
//! # Job lifecycle (DESIGN.md §8)
//!
//! ```text
//! submit ── quota check ──▶ Queued ── pick + lease ──▶ Running
//!    │            │            │                          │
//!    ▼            ▼            ▼                          ├─▶ Completed
//! TooManyPes  QueueFull       Shed                        ├─▶ Faulted   (tenant panic, caught)
//! /HeapQuota  (RejectNew)  (DropOldest                    └─▶ wedged ──▶ evict ─▶ backoff ─▶ Running (retry)
//!                           or shutdown)                              └─────── attempts exhausted ──▶ Evicted
//! ```
//!
//! Isolation boundaries: every job runs as its own supervised
//! cooperative launch ([`Launcher::run_watched`]) — its own recycled
//! arena and private segments (scrubbed to the previous tenant's
//! dirty extent at checkout, see [`super::arena`]), its own UDN fabric,
//! its own trace lanes, its own supervision, its own fault plan (armed
//! once per job, see [`JobSpec::faults`]). What a job does *not* get for
//! itself is threads or stacks: the server keeps one [`Resident`] for
//! its lifetime, and a job's runner, its launch and its workers'
//! carriers — each running its PEs as stacks from the handle's pool —
//! run on that handle's lanes ([`tmc::task::Lanes`]) — a lane that unwound or never
//! finished is never reused, and a reused one carries nothing of a
//! tenant but thread-locals, affinity and a name, which tenants of one
//! address space share anyway. A tenant panic is caught at the launch
//! boundary ([`std::panic::catch_unwind`] around `run_watched`), poisons
//! only that job, and is reported as [`JobOutcome::Faulted`] while the
//! pool keeps serving. A wedged job is diagnosed with the per-PE stall
//! report every supervised launch renders, aborted, its worker-slot
//! lease reclaimed, and retried with exponential backoff up to
//! [`ServerConfig::max_attempts`].
//!
//! What eviction cannot reclaim: a worker lane whose PE is wedged
//! outside every fabric abort checkpoint (e.g. spinning on raw loads
//! that never enter the runtime) leaks until process exit, as after any
//! supervised launch, with the PEs carried beside it — and with it the
//! launch lane that waits for it. They stay in
//! [`ServerStats::lanes_live`] and are never handed another task. The
//! pool's accounting unit is the worker-slot *lease*, not the OS
//! thread, so capacity recovers even when threads leak.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use substrate::channel::{self, Receiver, Sender};
use substrate::sync::{Condvar, Mutex};

use crate::engine::coop::CoopBackend;
use crate::engine::wall::Resident;
use crate::fault::LaunchFaults;
use crate::runtime::Launcher;
use crate::server::job::{JobId, JobOutcome, JobReport, JobSpec, SubmitError};
use crate::server::scheduler::{FairScheduler, QueuedJob, RoundRobin, Scheduler};

/// What to do with a submission that finds the bounded queue full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject the new submission with a retry-after hint (default).
    RejectNew,
    /// Admit the new submission and shed the oldest queued job, whose
    /// handle resolves to [`JobOutcome::Shed`].
    DropOldest,
}

/// Pool sizing, quotas, and supervision policy.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker slots (M) the pool leases to jobs; `0` = auto from host
    /// parallelism (floored at 2).
    pub workers: usize,
    /// Bounded admission-queue depth (floored at 1).
    pub queue_depth: usize,
    /// Per-job PE quota.
    pub max_npes: usize,
    /// Per-job symmetric-heap quota (bytes per partition).
    pub max_partition_bytes: usize,
    /// Base per-job stall window; the supervisor scales it by the
    /// oversubscription of the job's own launch.
    pub stall: Duration,
    /// Total launch attempts per job (1 = never retry a wedge).
    pub max_attempts: u32,
    /// Eviction backoff before attempt `k+1`: `backoff * 2^(k-1)`.
    pub backoff: Duration,
    pub shed: ShedPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 64,
            max_npes: 64,
            max_partition_bytes: 4 * 1024 * 1024,
            stall: Duration::from_secs(2),
            max_attempts: 2,
            backoff: Duration::from_millis(50),
            shed: ShedPolicy::RejectNew,
        }
    }
}

impl ServerConfig {
    fn resolved_slots(&self) -> usize {
        if self.workers == 0 {
            crate::engine::coop::host_parallelism()
        } else {
            self.workers
        }
    }
}

/// Pool-lifetime counters (monotone but for `lanes_live`; `arenas_*`,
/// `scrubbed_bytes` and `lanes_*` come from the server's [`Resident`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Accepted into the queue.
    pub submitted: u64,
    /// Refused at admission (quotas or a full queue under `RejectNew`).
    pub rejected: u64,
    /// Accepted but dropped before running (DropOldest or shutdown).
    pub shed: u64,
    pub completed: u64,
    pub faulted: u64,
    pub evicted: u64,
    /// Eviction retries granted (attempts beyond each job's first).
    pub retries: u64,
    pub arenas_fresh: u64,
    pub arenas_recycled: u64,
    /// Bytes written scrubbing recycled sets — their dirty extents and
    /// internal regions, not their length.
    pub scrubbed_bytes: u64,
    /// Runner, launch and worker-carrier tasks that needed a new thread.
    pub lanes_spawned: u64,
    /// ... and those that ran on an idle lane.
    pub lanes_reused: u64,
    /// Lanes that ended because their task unwound (the carrier of a
    /// panicking tenant PE, and those of the siblings its abort took
    /// down).
    pub lanes_retired: u64,
    /// Lane threads that have not ended. After [`Server::shutdown`]:
    /// the lanes stuck in a task that never finishes.
    pub lanes_live: u64,
}

struct Queued {
    id: JobId,
    spec: JobSpec,
    accepted: Instant,
    tx: Sender<JobReport>,
}

struct State {
    queue: VecDeque<Queued>,
    /// Job chosen by the scheduler but still waiting for enough free
    /// slots — kept sticky so a blocked wide job does not make the
    /// dispatcher re-`pick` (and corrupt rotation state) on every wake.
    pending: Option<JobId>,
    free_slots: usize,
    active: usize,
    shutdown: bool,
    scheduler: Box<dyn Scheduler>,
}

struct Inner {
    cfg: ServerConfig,
    /// Total worker slots (resolved once at construction).
    slots: usize,
    state: Mutex<State>,
    /// Signaled on submit, slot release, runner completion, shutdown.
    work: Condvar,
    /// The memory and lanes every job attaches to.
    resident: Arc<Resident>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    faulted: AtomicU64,
    evicted: AtomicU64,
    retries: AtomicU64,
    /// Completed-attempt runtime accounting for retry-after estimates.
    run_ns: AtomicU64,
    runs: AtomicU64,
}

/// Waitable handle to one accepted job.
pub struct JobHandle {
    id: JobId,
    rx: Receiver<JobReport>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish_non_exhaustive()
    }
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Block until the job resolves. Every accepted job resolves: run
    /// to an outcome, or shed at shutdown.
    pub fn wait(self) -> JobReport {
        self.rx.recv().unwrap_or(JobReport {
            id: self.id,
            latency: Duration::ZERO,
            outcome: JobOutcome::Shed {
                reason: "server dropped without resolving the job".into(),
            },
        })
    }

    /// Non-blocking probe; `Some` exactly once.
    pub fn try_wait(&self) -> Option<JobReport> {
        self.rx.try_recv().ok()
    }
}

/// The resident job pool (see module docs). Construct with a scheduling
/// policy, `submit` jobs, `shutdown` to drain.
pub struct Server {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn new(cfg: ServerConfig, scheduler: Box<dyn Scheduler>) -> Self {
        let slots = cfg.resolved_slots();
        let cfg = ServerConfig {
            queue_depth: cfg.queue_depth.max(1),
            max_attempts: cfg.max_attempts.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            cfg,
            slots,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pending: None,
                free_slots: slots,
                active: 0,
                shutdown: false,
                scheduler,
            }),
            work: Condvar::new(),
            resident: Arc::default(),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        });
        let inner2 = inner.clone();
        let dispatcher = std::thread::Builder::new() // cold: once per server
            .name("tshmem-srv-dispatch".into())
            .spawn(move || dispatch_loop(inner2))
            .expect("spawn server dispatcher");
        Self {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// A server scheduling tenants round-robin.
    pub fn round_robin(cfg: ServerConfig) -> Self {
        Self::new(cfg, Box::new(RoundRobin::new()))
    }

    /// A server with the CFS-style fair scheduler.
    pub fn fair(cfg: ServerConfig) -> Self {
        Self::new(cfg, Box::new(FairScheduler::new()))
    }

    /// Total worker slots the pool leases from.
    pub fn slots(&self) -> usize {
        self.inner.slots
    }

    /// Admit a job: quota checks, then the bounded queue. On success the
    /// handle resolves to exactly one [`JobReport`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let cfg = &self.inner.cfg;
        if spec.cfg.npes > cfg.max_npes {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::TooManyPes {
                requested: spec.cfg.npes,
                quota: cfg.max_npes,
            });
        }
        if spec.cfg.partition_bytes > cfg.max_partition_bytes {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::HeapQuota {
                requested: spec.cfg.partition_bytes,
                quota: cfg.max_partition_bytes,
            });
        }
        let mut st = self.inner.state.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= cfg.queue_depth {
            match cfg.shed {
                ShedPolicy::RejectNew => {
                    let retry_after = self.inner.retry_after(st.queue.len());
                    drop(st);
                    self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::QueueFull { retry_after });
                }
                ShedPolicy::DropOldest => {
                    let old = st.queue.pop_front().expect("full queue is non-empty");
                    self.inner.shed.fetch_add(1, Ordering::Relaxed);
                    let _ = old.tx.try_send(JobReport {
                        id: old.id,
                        latency: old.accepted.elapsed(),
                        outcome: JobOutcome::Shed {
                            reason: "load-shed: oldest queued job dropped under overload".into(),
                        },
                    });
                }
            }
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, rx) = channel::bounded(1);
        st.queue.push_back(Queued {
            id,
            spec,
            accepted: Instant::now(),
            tx,
        });
        drop(st);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.work.notify_all();
        Ok(JobHandle { id, rx })
    }

    /// Jobs accepted but not yet dispatched.
    pub fn queue_len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    pub fn stats(&self) -> ServerStats {
        let arena = self.inner.resident.sets.stats();
        let lanes = self.inner.resident.lanes.stats();
        ServerStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            faulted: self.inner.faulted.load(Ordering::Relaxed),
            evicted: self.inner.evicted.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            arenas_fresh: arena.fresh,
            arenas_recycled: arena.recycled,
            scrubbed_bytes: arena.scrubbed_bytes,
            lanes_spawned: lanes.spawned,
            lanes_reused: lanes.reused,
            lanes_retired: lanes.retired,
            lanes_live: lanes.live,
        }
    }

    /// Stop accepting work, shed still-queued jobs, wait for running
    /// jobs to resolve, end the idle lanes, and return the final
    /// counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.do_shutdown();
        self.stats()
    }

    fn do_shutdown(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.work.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        let mut st = self.inner.state.lock();
        while st.active > 0 {
            self.inner.work.wait(&mut st);
        }
        drop(st);
        // Every runner has listed its lane idle before it gave up its
        // `active` count, so this ends every lane that ever finished.
        self.inner.resident.lanes.close();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.dispatcher.is_some() {
            self.do_shutdown();
        }
    }
}

impl Inner {
    /// Retry-after hint for a rejected submission: mean observed attempt
    /// runtime times the queue depth ahead of the caller, spread over
    /// the pool width.
    fn retry_after(&self, queue_len: usize) -> Duration {
        let runs = self.runs.load(Ordering::Relaxed);
        let mean_ns = self
            .run_ns
            .load(Ordering::Relaxed)
            .checked_div(runs)
            .unwrap_or(10_000_000); // no history yet: assume 10ms jobs
        let est = mean_ns.saturating_mul(queue_len as u64 + 1) / self.slots.max(1) as u64;
        Duration::from_nanos(est.clamp(1_000_000, 10_000_000_000))
    }
}

/// Worker slots a job of `npes` PEs leases out of `slots`: one per two
/// PEs. The rule was made when only PEs sharing a worker took the
/// counter-cell pass; every geometry takes it now, so the rule only
/// sets how many PEs share a gate, and whether one PE per worker would
/// serve a job better is unmeasured (DESIGN.md §8). Never more than
/// exist, so even an `npes > 2 · slots` job can always eventually run.
/// Public only so `examples/launch_attr` can assemble a server job with
/// the server's own geometry.
#[doc(hidden)]
pub fn lease_for(npes: usize, slots: usize) -> usize {
    npes.div_ceil(2).clamp(1, slots)
}

fn dispatch_loop(inner: Arc<Inner>) {
    loop {
        let (q, lease) = {
            let mut st = inner.state.lock();
            loop {
                if st.shutdown {
                    while let Some(old) = st.queue.pop_front() {
                        inner.shed.fetch_add(1, Ordering::Relaxed);
                        let _ = old.tx.try_send(JobReport {
                            id: old.id,
                            latency: old.accepted.elapsed(),
                            outcome: JobOutcome::Shed {
                                reason: "server shut down before the job ran".into(),
                            },
                        });
                    }
                    return;
                }
                if !st.queue.is_empty() {
                    let idx = match st.pending.and_then(|id| st.queue.iter().position(|j| j.id == id)) {
                        Some(idx) => idx,
                        None => {
                            let metas: Vec<QueuedJob> = st
                                .queue
                                .iter()
                                .map(|j| QueuedJob {
                                    id: j.id,
                                    tenant: j.spec.tenant,
                                    npes: j.spec.cfg.npes,
                                })
                                .collect();
                            let idx = st.scheduler.pick(&metas).min(metas.len() - 1);
                            st.pending = Some(st.queue[idx].id);
                            idx
                        }
                    };
                    let lease = lease_for(st.queue[idx].spec.cfg.npes, inner.slots);
                    if st.free_slots >= lease {
                        let q = st.queue.remove(idx).expect("picked index in range");
                        st.pending = None;
                        st.free_slots -= lease;
                        st.active += 1;
                        break (q, lease);
                    }
                    // Deliberate head-of-line wait: the picked job keeps
                    // its turn until slots free — skipping ahead would
                    // let a stream of narrow jobs starve a wide one.
                }
                inner.work.wait(&mut st);
            }
        };
        let runner = inner.clone();
        inner.resident.lanes.spawn(
            move || run_job(runner, q, lease),
            |resolve| resolve.expect("server job runner panicked")(),
        );
    }
}

/// One launch attempt's verdict (internal to the runner).
enum Attempt {
    Completed,
    Panicked(String),
    Wedged(String),
}

/// Run `q` to its outcome. Returns the last step — give the lease back,
/// resolve the handle — for the runner's lane to take once it is idle
/// again, so whoever sees the job resolved finds every lane it used
/// reusable.
fn run_job(inner: Arc<Inner>, q: Queued, lease: usize) -> impl FnOnce() {
    let mut attempts = 0u32;
    let mut holding = true;
    // Armed once: every attempt of this job spends from the same budgets.
    let faults = q.spec.faults.clone().map(|plan| Arc::new(LaunchFaults::new(plan)));
    let outcome = loop {
        attempts += 1;
        let t0 = Instant::now();
        let attempt = attempt_launch(&inner, q.id, &q.spec, faults.clone(), lease);
        let ran = t0.elapsed();
        inner.run_ns.fetch_add(ran.as_nanos() as u64, Ordering::Relaxed);
        inner.runs.fetch_add(1, Ordering::Relaxed);
        inner
            .state
            .lock()
            .scheduler
            .charge(q.spec.tenant, q.spec.cfg.npes, ran);
        match attempt {
            Attempt::Completed => break JobOutcome::Completed { attempts },
            Attempt::Panicked(error) => break JobOutcome::Faulted { attempts, error },
            Attempt::Wedged(diagnosis) => {
                if attempts >= inner.cfg.max_attempts {
                    break JobOutcome::Evicted { attempts, diagnosis };
                }
                inner.retries.fetch_add(1, Ordering::Relaxed);
                // Return the lease for the backoff: eviction reclaims
                // the workers even though the retry is still pending.
                release_slots(&inner, lease);
                holding = false;
                std::thread::sleep(inner.cfg.backoff * 2u32.saturating_pow(attempts - 1));
                if acquire_slots(&inner, lease) {
                    holding = true;
                } else {
                    break JobOutcome::Evicted {
                        attempts,
                        diagnosis: format!("{diagnosis}(retry abandoned: server shut down during backoff)\n"),
                    };
                }
            }
        }
    };
    match &outcome {
        JobOutcome::Completed { .. } => inner.completed.fetch_add(1, Ordering::Relaxed),
        JobOutcome::Faulted { .. } => inner.faulted.fetch_add(1, Ordering::Relaxed),
        JobOutcome::Evicted { .. } => inner.evicted.fetch_add(1, Ordering::Relaxed),
        JobOutcome::Shed { .. } => unreachable!("runners never shed"),
    };
    move || {
        {
            let mut st = inner.state.lock();
            if holding {
                st.free_slots += lease;
            }
            st.active -= 1;
        }
        inner.work.notify_all();
        let _ = q.tx.try_send(JobReport {
            id: q.id,
            outcome,
            latency: q.accepted.elapsed(),
        });
    }
}

fn release_slots(inner: &Inner, lease: usize) {
    inner.state.lock().free_slots += lease;
    inner.work.notify_all();
}

/// Re-acquire `lease` slots for a retry; `false` if the server shut
/// down while waiting.
fn acquire_slots(inner: &Inner, lease: usize) -> bool {
    let mut st = inner.state.lock();
    loop {
        if st.shutdown {
            return false;
        }
        if st.free_slots >= lease {
            st.free_slots -= lease;
            return true;
        }
        inner.work.wait(&mut st);
    }
}

/// Launch the job once as its own supervised cooperative launch; see the
/// module docs for the isolation contract.
fn attempt_launch(
    inner: &Arc<Inner>,
    id: JobId,
    spec: &JobSpec,
    faults: Option<Arc<LaunchFaults>>,
    lease: usize,
) -> Attempt {
    let backend = CoopBackend {
        workers: lease,
        resident: Some(inner.resident.clone()),
    };
    let body = spec.body.clone();
    let launcher = Launcher::new(&spec.cfg, backend).with_armed_faults(faults);
    match catch_unwind(AssertUnwindSafe(|| launcher.run_watched(inner.cfg.stall, move |ctx| body(ctx)))) {
        Ok(Ok(_)) => Attempt::Completed,
        Ok(Err(report)) => Attempt::Wedged(format!("{report}server job {id}\n")),
        // `&*payload`, not `&payload`: coercing the Box itself into
        // `dyn Any` would make every downcast miss.
        Err(payload) => Attempt::Panicked(panic_message(&*payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    crate::engine::wall::panic_text(payload)
        .unwrap_or("tenant panic (non-string payload)")
        .to_string()
}
