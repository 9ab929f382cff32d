//! Job types of the multi-tenant server: what a tenant submits, what
//! admission can reject, and what the pool reports back.

use std::sync::Arc;
use std::time::Duration;

use crate::ctx::ShmemCtx;
use crate::fault::FaultPlan;
use crate::runtime::RuntimeConfig;

/// Server-assigned job identifier (monotone per [`Server`]).
///
/// [`Server`]: crate::server::Server
pub type JobId = u64;

/// One tenant job: a launch geometry plus the per-PE body the pool runs
/// on every PE of the job's private launch.
#[derive(Clone)]
pub struct JobSpec {
    /// Tenant identity — the unit of scheduler fairness accounting.
    pub tenant: u32,
    /// Launch geometry (PE count, partition size, algorithms, ...).
    /// Admission checks `cfg.npes` and `cfg.partition_bytes` against
    /// the server's per-job quotas.
    pub cfg: RuntimeConfig,
    /// Per-PE body, exactly as a `Launcher::run` closure.
    pub body: Arc<dyn Fn(&ShmemCtx) + Send + Sync>,
    /// Fault plan for this job alone: armed once when the job starts and
    /// kept across its eviction retries.
    pub faults: Option<FaultPlan>,
}

impl JobSpec {
    pub fn new(cfg: RuntimeConfig, body: impl Fn(&ShmemCtx) + Send + Sync + 'static) -> Self {
        Self {
            tenant: 0,
            cfg,
            body: Arc::new(body),
            faults: None,
        }
    }

    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Run the job under `plan` (see [`JobSpec::faults`]).
    pub fn with_faults(mut self, plan: impl Into<FaultPlan>) -> Self {
        self.faults = Some(plan.into());
        self
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("tenant", &self.tenant)
            .field("npes", &self.cfg.npes)
            .field("partition_bytes", &self.cfg.partition_bytes)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

/// Terminal state of one job. Every accepted job resolves to exactly
/// one of these; the pool itself never stalls on a tenant's behalf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion. `attempts > 1` means earlier launches were
    /// evicted as wedged and a retry succeeded.
    Completed { attempts: u32 },
    /// A tenant PE panicked; the panic was caught at the PE boundary and
    /// poisoned only this job. `error` is the panic message of the
    /// lowest PE that unwound, saying which PE that was (`PE 1: ...`) —
    /// on a multi-PE job the origin PE's message may be shadowed by a
    /// lower sibling's secondary "aborting" panic.
    Faulted { attempts: u32, error: String },
    /// The job wedged (livelock/deadlock): the per-tenant watchdog
    /// diagnosed it, evicted it, and every retry up to the policy limit
    /// wedged again. `diagnosis` is the final per-PE stall report.
    Evicted { attempts: u32, diagnosis: String },
    /// Dropped before running: load-shed as the oldest queued job under
    /// overload ([`ShedPolicy::DropOldest`]), or still queued at server
    /// shutdown.
    ///
    /// [`ShedPolicy::DropOldest`]: crate::server::ShedPolicy::DropOldest
    Shed { reason: String },
}

impl JobOutcome {
    pub fn is_completed(&self) -> bool {
        matches!(self, Self::Completed { .. })
    }

    pub fn is_faulted(&self) -> bool {
        matches!(self, Self::Faulted { .. })
    }

    pub fn is_evicted(&self) -> bool {
        matches!(self, Self::Evicted { .. })
    }

    pub fn is_shed(&self) -> bool {
        matches!(self, Self::Shed { .. })
    }

    /// Launch attempts consumed (0 for a job that never ran).
    pub fn attempts(&self) -> u32 {
        match self {
            Self::Completed { attempts }
            | Self::Faulted { attempts, .. }
            | Self::Evicted { attempts, .. } => *attempts,
            Self::Shed { .. } => 0,
        }
    }
}

/// A resolved job: its outcome plus the accept-to-resolution sojourn
/// time (queue wait + every launch attempt + eviction backoff).
#[derive(Clone, Debug)]
pub struct JobReport {
    pub id: JobId,
    pub outcome: JobOutcome,
    pub latency: Duration,
}

/// Why admission refused a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Bounded queue full under [`ShedPolicy::RejectNew`]. The hint is
    /// the server's estimate of when a slot frees (mean observed service
    /// time scaled by queue depth over pool width).
    ///
    /// [`ShedPolicy::RejectNew`]: crate::server::ShedPolicy::RejectNew
    QueueFull { retry_after: Duration },
    /// `cfg.npes` exceeds the server's per-job PE quota.
    TooManyPes { requested: usize, quota: usize },
    /// `cfg.partition_bytes` exceeds the per-job symmetric-heap quota.
    HeapQuota { requested: usize, quota: usize },
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { retry_after } => {
                write!(f, "admission queue full; retry after {retry_after:?}")
            }
            Self::TooManyPes { requested, quota } => {
                write!(f, "job wants {requested} PEs, per-job quota is {quota}")
            }
            Self::HeapQuota { requested, quota } => write!(
                f,
                "job wants {requested}-byte partitions, per-job quota is {quota}"
            ),
            Self::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}
