//! `server_jobs`: the multi-tenant server under a closed-loop client.
//!
//! `Server::fair` with 2 worker slots, the process pinned to one CPU.
//! Five tenants; every fifth job in a seeded shuffle is an 8-PE job, the
//! rest 2-PE, each 8 rounds of put + barrier. An epoch is one server
//! lifetime: start, warm-up jobs, then the timed jobs with 8 in flight
//! (the client waits for its oldest job before it submits the next).
//! Launch and teardown, arena recycling and admission dominate;
//! collectives and RMA are a few percent.
//!
//! The headline operation is submit→resolve of a lone 2-PE job on the
//! idle server, taken after the timed jobs have drained.
//!
//! Oracle: every PE of every job asserts the slot value its neighbour
//! wrote last, so a wrong value resolves the job `Faulted`; a job that
//! is refused or resolves anything but `Completed` counts as failed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use tshmem::{
    JobHandle, JobReport, JobSpec, RuntimeConfig, Server, ServerConfig, ServerStats, ShmemCtx,
};

use crate::span::{self, span, Layer};
use crate::{mix, stats, Epoch, Workload};

const TENANTS: u32 = 5;
const SLOTS: usize = 2;
const WINDOW: usize = 8;
const JOB_ROUNDS: u64 = 8;
/// The timed jobs are cut into this many rounds for the span tree; the
/// client's window stays full across the cuts.
const ROUNDS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Job {
    pub tenant: u32,
    pub npes: usize,
    /// Seeded payload: round `k` puts `token + k`.
    pub token: u64,
}

pub struct ServerJobs {
    warm: Vec<Job>,
    timed: Vec<Job>,
    lone: Job,
    op_batches: usize,
    op_iters: usize,
    /// Counters and worker slots of the last epoch's server.
    pub last_stats: ServerStats,
    slots: usize,
    /// Test hook: the first timed job expects a value nobody wrote.
    pub corrupt: bool,
}

/// The seeded job list: exactly one 8-PE job in five, in seeded order.
pub fn jobs(seed: u64, salt: u64, count: usize) -> Vec<Job> {
    let mut v: Vec<Job> = (0..count)
        .map(|i| Job {
            tenant: (mix(seed, salt, i as u64) % u64::from(TENANTS)) as u32,
            npes: if i % 5 == 4 { 8 } else { 2 },
            token: mix(seed, salt ^ 0x70, i as u64) >> 16,
        })
        .collect();
    for i in (1..v.len()).rev() {
        let j = (mix(seed, salt ^ 0x5f, i as u64) % (i as u64 + 1)) as usize;
        let (a, b) = (v[i].npes, v[j].npes);
        v[i].npes = b;
        v[j].npes = a;
    }
    v
}

fn spec(job: Job, wrong: bool) -> JobSpec {
    let cfg = RuntimeConfig::new(job.npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024);
    let token = job.token;
    JobSpec::new(cfg, move |ctx: &ShmemCtx| {
        let (n, me) = (ctx.n_pes(), ctx.my_pe());
        let slot = ctx.shmalloc::<u64>(1);
        ctx.local_write(&slot, 0, &[0]);
        ctx.barrier_all();
        for k in 1..=JOB_ROUNDS {
            ctx.p(&slot, 0, token + k, (me + 1) % n);
            ctx.barrier_all();
        }
        let want = token + JOB_ROUNDS + u64::from(wrong);
        assert_eq!(ctx.local_read(&slot, 0, 1)[0], want, "slot value");
    })
    .with_tenant(job.tenant)
}

/// The closed-loop client: it keeps `WINDOW` jobs in flight and waits
/// for its oldest job before it submits the next. The window carries
/// over from one `feed` to the next, so cutting a stream into rounds
/// adds no drain and refill.
pub struct Client<'a> {
    server: &'a Server,
    inflight: VecDeque<JobHandle>,
    /// Jobs refused, or resolved as anything but `Completed`.
    pub failed: u64,
}

impl<'a> Client<'a> {
    pub fn new(server: &'a Server) -> Self {
        Self {
            server,
            inflight: VecDeque::with_capacity(WINDOW),
            failed: 0,
        }
    }

    fn settle(&mut self, h: JobHandle, seen: &mut impl FnMut(&JobReport)) {
        let report = span(Layer::Server, "server.wait", || h.wait());
        seen(&report);
        self.failed += u64::from(!report.outcome.is_completed());
    }

    /// Submit `list`; `seen` gets the report of every job that resolves
    /// on the way.
    pub fn feed(&mut self, list: &[Job], corrupt_first: bool, mut seen: impl FnMut(&JobReport)) {
        for (i, &job) in list.iter().enumerate() {
            if self.inflight.len() == WINDOW {
                let oldest = self.inflight.pop_front().expect("window is full");
                self.settle(oldest, &mut seen);
            }
            let s = spec(job, corrupt_first && i == 0);
            match span(Layer::Server, "server.submit", || self.server.submit(s)) {
                Ok(h) => self.inflight.push_back(h),
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Wait for every job still in flight.
    pub fn drain(&mut self, mut seen: impl FnMut(&JobReport)) {
        while let Some(h) = self.inflight.pop_front() {
            self.settle(h, &mut seen);
        }
    }
}

/// Run `list` through a client of its own, start to drained. Returns how
/// many jobs were refused or did not complete.
pub fn stream(server: &Server, list: &[Job], mut seen: impl FnMut(&JobReport)) -> u64 {
    let mut client = Client::new(server);
    client.feed(list, false, &mut seen);
    client.drain(&mut seen);
    client.failed
}

impl ServerJobs {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (warm, timed) = if quick { (10, 40) } else { (200, 1000) };
        Self {
            warm: jobs(seed, 0x3a, warm),
            timed: jobs(seed, 0x3b, timed),
            lone: Job {
                tenant: 0,
                npes: 2,
                token: mix(seed, 0x3c, 0) >> 16,
            },
            op_batches: if quick { 2 } else { 10 },
            op_iters: if quick { 2 } else { 5 },
            last_stats: ServerStats::default(),
            slots: 0,
            corrupt: false,
        }
    }

    pub fn config() -> ServerConfig {
        ServerConfig {
            workers: SLOTS,
            queue_depth: 64,
            // Fault-free jobs: the watchdog is a bystander.
            stall: Duration::from_secs(30),
            ..Default::default()
        }
    }
}

impl Workload for ServerJobs {
    fn epoch(&mut self, epoch: u32) -> Epoch {
        span::set_epoch(epoch);
        let t0 = Instant::now();
        let server = span(Layer::Server, "server.start", || {
            Server::fair(Self::config())
        });
        self.slots = server.slots();
        stream(&server, &self.warm, |_| {}); // warm-up jobs are not counted

        let aligned = Instant::now();
        let mut client = Client::new(&server);
        let per_round = self.timed.len().div_ceil(ROUNDS);
        for (r, chunk) in self.timed.chunks(per_round).enumerate() {
            span(Layer::Bench, "bench.round", || {
                client.feed(chunk, self.corrupt && r == 0, |_| {});
                // The last round ends when the last job has resolved.
                if (r + 1) * per_round >= self.timed.len() {
                    client.drain(|_| {});
                }
            });
        }
        let mut failed = client.failed;
        let solved = Instant::now();

        let op_ns = stats::batch_means_ns(self.op_batches, self.op_iters, || {
            failed += match server.submit(spec(self.lone, false)) {
                Ok(h) => u64::from(!h.wait().outcome.is_completed()),
                Err(_) => 1,
            };
        });
        let done = Instant::now();
        self.last_stats = span(Layer::Server, "server.shutdown", || server.shutdown());
        let wall = t0.elapsed();

        Epoch {
            solve_s: (solved - aligned).as_secs_f64(),
            setup_s: wall.saturating_sub(done - aligned).as_secs_f64(),
            op_us: op_ns.into_iter().map(|ns| ns / 1e3).collect(),
            attempted: (self.timed.len() + self.op_batches * self.op_iters) as u64,
            failed,
        }
    }

    fn rounds(&self) -> usize {
        ROUNDS
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "\"server/coop\"".into()),
            ("scheduler", "\"fair\"".into()),
            ("server_slots", self.slots.to_string()),
            ("tenants", TENANTS.to_string()),
            ("inflight_window", WINDOW.to_string()),
        ]
    }
}
