//! The six workloads. Each makes its inputs and its oracle from the
//! seed once, outside every clock, then runs epochs of fixed work.

pub mod coll;
pub mod fft2d_app;
pub mod rma_native;
pub mod server_jobs;
pub mod timed_paper;

use crate::Workload;

/// Build a workload by its registered name.
///
/// # Panics
/// Panics on a name the registry does not list; callers look the name
/// up there first.
pub fn make(name: &str, seed: u64, quick: bool, allowed: &[usize]) -> Box<dyn Workload> {
    match name {
        "rma_native" => Box::new(rma_native::RmaNative::new(seed, quick, allowed)),
        "coll_flat32" => Box::new(coll::Coll::flat32(seed, quick)),
        "coll_hier256" => Box::new(coll::Coll::hier256(seed, quick)),
        "fft2d_app" => Box::new(fft2d_app::Fft2dApp::new(seed, quick, allowed)),
        "timed_paper" => Box::new(timed_paper::TimedPaper::new(seed, quick)),
        "server_jobs" => Box::new(server_jobs::ServerJobs::new(seed, quick)),
        other => panic!("workload {other} is registered but not built"),
    }
}
