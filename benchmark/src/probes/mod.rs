//! Layer probes: the per-layer metrics of a traced run.
//!
//! Each probe calls one layer's public functions directly, from outside,
//! and reports a median of batch means (or an exact count). The probes
//! do not depend on the workload being traced: every traced run prints
//! the whole list, so two traced runs of different workloads can be laid
//! side by side. Which end-to-end metric each should move is in
//! [`crate::registry::PER_LAYER`].
//!
//! Placement follows the workloads: the process sits on its home CPU
//! (the highest allowed) unless a probe says otherwise, and native PE
//! lanes move to a CPU of their own.

mod coop;
mod native;
mod server;
mod substrate;
mod timed;

use crate::affinity;

pub struct Host {
    pub allowed: Vec<usize>,
    pub quick: bool,
    pub seed: u64,
}

impl Host {
    /// Iterations for a timing loop: `full`, or a sliver of it at the
    /// test size.
    pub fn n(&self, full: usize) -> usize {
        if self.quick {
            (full / 50).max(2)
        } else {
            full
        }
    }

    /// Pin the calling thread, and what it spawns, to the home CPU.
    pub fn pin_home(&self) {
        if let Some(&cpu) = self.allowed.last() {
            affinity::pin(cpu);
        }
    }

    /// Let the calling thread, and what it spawns, use every allowed CPU.
    pub fn unpin(&self) {
        affinity::set_cpus(&self.allowed);
    }

    /// Pin a native PE lane to its own CPU.
    pub fn pin_pe(&self, pe: usize) {
        if let Some(cpu) = affinity::pe_cpu(&self.allowed, pe) {
            affinity::pin(cpu);
        }
    }
}

pub type Out = Vec<(String, f64)>;

/// Run every probe; the caller checks the names against the registry.
pub fn run_all(h: &Host) -> Out {
    let mut out = Out::new();
    h.pin_home();
    substrate::run(h, &mut out);
    native::run(h, &mut out);
    coop::run(h, &mut out);
    timed::run(h, &mut out);
    server::run(h, &mut out);
    out.push(("engine.peak_rss_mib".into(), affinity::peak_rss_mib()));
    out
}
