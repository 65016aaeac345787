//! # psbench-core — the benchmark standard
//!
//! This crate is the paper's primary deliverable turned into code: a *canonical*
//! set of workloads (fixed models, machine sizes and seeds), a harness that runs
//! scheduler × workload scenarios and renders comparable tables, and the catalogue
//! of experiments that regenerate the paper's claims (`psbench sweep` prints
//! them; see the README's experiment-harness section).
//!
//! * [`suite`] — the canonical workloads, scenario definitions, scheduler line-up.
//! * [`harness`] — scenario sweeps (sequential or parallel), parallel trace
//!   profiling, and table rendering.
//! * [`sweep`] — resumable, memoized scenario sweeps over a `psbench_store`
//!   artifact store: enumerate the grid, skip cached cells, journal progress
//!   durably, resume after a kill with zero recomputation.
//! * [`experiments`] — E1..E10, each returning a [`harness::Table`].

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod suite;
pub mod sweep;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::experiments::{experiment_ids, run_experiment, Scale};
    pub use crate::harness::{
        default_threads, fmt, parallel_map, parallel_map_mut, profile_source_parallel,
        results_table, run_all_parallel, Format, Table, PROFILE_BLOCK_LEN,
    };
    pub use crate::suite::{
        canonical_schedulers, canonical_suite, Scenario, WorkloadDef, WorkloadKind,
    };
    pub use crate::sweep::{
        cell_key, run_sweep_resumable, sweep_key, trace_cell_key, GridSpec, SweepOutcome,
    };
}

pub use prelude::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_lineup_is_a_subset_of_the_registry() {
        // Every policy in the benchmark line-up must be reachable by name, so
        // the registry (and thus CLI help) can never lag behind the line-up.
        let names = psbench_sched::scheduler_names();
        assert_eq!(canonical_schedulers().len(), 6);
        for &name in canonical_schedulers() {
            assert!(names.contains(&name), "{name} missing from registry");
            assert_eq!(psbench_sched::by_name(name, 128).unwrap().name(), name);
        }
    }
}
