//! # psbench-sched — the scheduler zoo
//!
//! Scheduling policies for the psbench simulator, covering the families the paper's
//! evaluation methodology is meant to compare:
//!
//! * [`queue_order`] — FCFS and sorted greedy variants (SJF, LJF, widest, narrowest).
//! * [`backfill`] — EASY (aggressive) backfilling and the replan-per-react
//!   conservative variant, driven by the user estimates carried in SWF field 9.
//! * [`calendar`] — conservative backfilling on a persistent cross-react
//!   reservation calendar (the default `conservative` policy), the exhaustive
//!   oracle it is verified against, and the free-capacity step function
//!   ([`StepFn`], [`StepVec`]) that both plan on and the metasystem books its
//!   advance reservations in.
//! * [`gang`] — Ousterhout-matrix gang scheduling (time slicing with coscheduling).
//! * [`adaptive`] — adaptive equipartitioning for moldable (flexible) jobs.
//! * [`drain`] — outage-aware EASY (drains before announced outages).
//! * [`probe`] — [`LiveSim`], an online engine that owns its live policy,
//!   and predicted-start queries against a fork of its state (the `whatif`
//!   surface of `psbench serve`).

#![warn(missing_docs)]

/// Version stamp of the scheduler zoo's decision semantics.
///
/// Folded into every memoized-result key of the artifact store
/// (`psbench-store`): bump it whenever any registered policy's decisions (or
/// the engine contract they rely on) change, so cached `SimulationResult`s
/// from the old semantics stop being addressable and are reclaimed by
/// `store gc` instead of silently serving stale numbers.
pub const SCHED_VERSION: u32 = 1;

pub mod adaptive;
pub mod backfill;
pub mod calendar;
pub mod drain;
pub mod gang;
pub mod probe;
pub mod queue_order;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::adaptive::AdaptivePartition;
    pub use crate::backfill::{EasyBackfill, ReplanConservative};
    pub use crate::calendar::{ConservativeBackfill, StepFn, StepVec};
    pub use crate::drain::DrainingEasy;
    pub use crate::gang::{GangScheduler, Packing};
    pub use crate::probe::{probe_start, LiveSim, Prediction, ProbeError};
    pub use crate::queue_order::{Fcfs, Order, SortedGreedy};
    pub use crate::{by_name, scheduler_names, UnknownScheduler};
}

pub use prelude::*;

use psbench_sim::Scheduler;

/// Constructor of one registered scheduler, from a machine size.
type SchedulerCtor = fn(u32) -> Box<dyn Scheduler>;

/// The scheduler registry: every constructible policy, by name, in canonical
/// order. [`by_name`] and [`scheduler_names`] both derive from this single
/// table, so a policy added here automatically appears in CLI help and error
/// messages.
const REGISTRY: &[(&str, SchedulerCtor)] = &[
    ("fcfs", |_| Box::new(Fcfs)),
    ("sjf", |_| Box::new(SortedGreedy::sjf())),
    ("ljf", |_| Box::new(SortedGreedy::ljf())),
    ("widest-first", |_| Box::new(SortedGreedy::widest())),
    ("narrowest-first", |_| Box::new(SortedGreedy::narrowest())),
    ("greedy-fcfs", |_| Box::new(SortedGreedy::greedy_fcfs())),
    ("easy", |_| Box::new(EasyBackfill::default())),
    (
        "conservative",
        |_| Box::new(ConservativeBackfill::default()),
    ),
    ("conservative-replan", |_| Box::new(ReplanConservative)),
    ("gang", |machine_size| {
        Box::new(GangScheduler::new(machine_size, 4, Packing::FirstFit))
    }),
    ("adaptive", |_| Box::new(AdaptivePartition::default())),
    ("draining-easy", |_| Box::new(DrainingEasy::new())),
];

/// Registry names of every scheduler [`by_name`] can construct, in canonical
/// order. This is the single list surfaced by CLI help and error messages.
pub fn scheduler_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

/// The structured error returned by [`by_name`] for an unrecognized registry
/// name. Its [`std::fmt::Display`] output lists every valid name, so callers
/// can surface an actionable message without consulting the registry
/// themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler {
    /// The name that did not resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheduler {:?}; valid schedulers: {}",
            self.name,
            scheduler_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownScheduler {}

/// Construct a scheduler by its registry name (the names reported by
/// [`Scheduler::name`] and listed by [`scheduler_names`]).
pub fn by_name(name: &str, machine_size: u32) -> Result<Box<dyn Scheduler>, UnknownScheduler> {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build(machine_size))
        .ok_or_else(|| UnknownScheduler {
            name: name.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_sim::{SimConfig, SimJob, Simulation};

    #[test]
    fn every_registered_scheduler_runs() {
        let jobs: Vec<SimJob> = (0..100)
            .map(|i| {
                SimJob::rigid(
                    i + 1,
                    (i * 30) as f64,
                    100.0 + (i % 3) as f64 * 300.0,
                    1 + (i % 32) as u32,
                )
            })
            .collect();
        for name in scheduler_names() {
            let mut s = by_name(name, 64).unwrap();
            let result = Simulation::new(SimConfig::new(64), jobs.clone()).run(s.as_mut());
            assert_eq!(result.finished.len(), 100, "{name}");
        }
    }

    #[test]
    fn by_name_round_trips_every_registered_name() {
        for name in scheduler_names() {
            let s = by_name(name, 128).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(s.name(), name);
        }
    }

    #[test]
    fn by_name_error_lists_every_valid_name() {
        let err = match by_name("not-a-scheduler", 128) {
            Err(e) => e,
            Ok(s) => panic!("unexpectedly resolved {}", s.name()),
        };
        assert_eq!(err.name, "not-a-scheduler");
        let msg = err.to_string();
        assert!(msg.contains("not-a-scheduler"));
        for name in scheduler_names() {
            assert!(msg.contains(name), "error should list {name}");
        }
    }
}
