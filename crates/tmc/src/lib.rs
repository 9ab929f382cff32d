//! Analog of the Tilera Multicore Components (TMC) library.
//!
//! TSHMEM is built on four TMC facilities, all reproduced here with the
//! same semantics (paper Sections III and IV):
//!
//! * **Common memory** ([`common`]) — shared memory mapped at the *same
//!   virtual address* in every participating task, so tasks can share
//!   pointers into it. Our analog is a process-wide arena addressed by
//!   offset: an offset is valid in every PE, which is exactly the
//!   property TSHMEM's symmetric heap relies on.
//! * **Spin and sync barriers** ([`barrier`]) — the two TMC barrier
//!   flavors benchmarked in Figure 5: a polling barrier (fast, one task
//!   per tile only) and a scheduler-interacting barrier (slower, but
//!   tolerant of oversubscription).
//! * **Memory fences** ([`fence`]) — `tmc_mem_fence()`, which TSHMEM
//!   uses to implement `shmem_quiet()`.
//! * **Cycle counters and task binding** ([`cycles`], [`task`]) — the
//!   measurement and launch substrate.

pub mod barrier;
pub mod common;
pub mod cycles;
pub mod fence;
pub mod task;

pub use barrier::{SpinBarrier, SyncBarrier};
pub use common::CommonMemory;
pub use cycles::CycleClock;
pub use fence::mem_fence;
pub use task::{LaneStats, Lanes};
