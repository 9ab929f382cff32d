//! Discrete-event simulation kernel for the Tilera substrate models.
//!
//! Four pieces:
//!
//! * [`SimTime`] — integer picosecond simulated time (exact for both the
//!   1 GHz TILE-Gx and the 700 MHz TILEPro clock grids).
//! * [`Sim`] — a classic closure-based event queue for open-loop models.
//! * [`coop`] — a **virtual-time cooperative scheduler**: each simulated
//!   processing element runs as a stack of its own, with its own virtual
//!   clock, on the thread that started the run; exactly one runs at any
//!   instant and the scheduler always resumes the one with the smallest
//!   effective clock. Blocking protocol code
//!   (token barriers, collectives) therefore executes unchanged under
//!   simulated time, deterministically.
//! * [`resource`] — busy-until FIFO servers used to model contended
//!   hardware (home-tile cache ports, memory controllers).
//!
//! The cooperative scheduler is what lets the TSHMEM protocol
//! implementations be written once and executed by both the native-thread
//! engine (real time) and the timed engine (simulated time) — see
//! `DESIGN.md` §6.

pub mod coop;
pub mod events;
pub mod resource;
pub mod time;

pub use coop::{CoopHandle, CoopObserver, CoopResult, LpStall, SchedMode};
pub use events::{QueueKind, Sim};
pub use resource::Resource;
pub use time::SimTime;
