//! # psbench-sim — a discrete-event simulator for parallel job scheduling
//!
//! The evaluation methodology the paper standardizes — replaying standard workloads
//! (real or synthetic) through candidate schedulers and comparing standard metrics —
//! needs a simulator. This crate provides it:
//!
//! * [`job`] — job descriptions (rigid and moldable), queue / running / finished state.
//! * [`cluster`] — machine capacity and outages.
//! * [`scheduler`] — the policy interface: the simulator asks, the policy decides.
//! * [`engine`] — the event loop, with rate-based execution (space *and* time
//!   sharing), closed-loop feedback submission, and outage handling.
//! * [`queue`] — the arrival-ordered wait queue and its backlog index.
//! * [`idhash`] — the keyed hasher of every job-id map on the hot paths, defined in
//!   `psbench-swf` (log assembly uses it too) and re-exported here.
//! * [`result`] — per-run results, metric extraction, and SWF export of the executed
//!   schedule.
//!
//! Scheduling policies themselves live in the companion `psbench-sched` crate.

#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod job;
pub mod queue;
pub mod result;
pub mod scheduler;

pub use psbench_swf::idhash;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::cluster::Cluster;
    pub use crate::engine::{
        EngineKind, Fork, JobState, OnlineError, OutagePolicy, SimConfig, Simulation,
    };
    pub use crate::job::{FinishedJob, QueuedJob, RunningJob, SimJob};
    pub use crate::queue::{JobQueue, QueueKey, StaircaseScan};
    pub use crate::result::SimulationResult;
    pub use crate::scheduler::{Decision, Scheduler, SchedulerContext, SchedulerEvent};
}

pub use prelude::*;
