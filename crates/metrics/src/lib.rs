//! # psbench-metrics — metrics and objective functions for parallel job scheduling
//!
//! The paper's Section 1.2 observes that "the measured performance of a system
//! depends not only on the system and workload, but also on the metrics used to
//! gauge performance", and that different metrics may rank the same schedulers
//! differently. This crate provides the standard metric set so every experiment in
//! the workspace measures the same quantities the same way:
//!
//! * [`job`] — per-job metrics: wait, response time, slowdown, bounded slowdown.
//! * [`aggregate`] — means, percentiles, weighted means, batch-means confidence
//!   intervals, and the per-workload aggregate report.
//! * [`system`] — machine-owner metrics: utilization, throughput, makespan, loss of
//!   capacity, and a simple economic cost model.
//! * [`objective`] — standard and owner-weighted objective functions, scheduler
//!   ranking, and metric-disagreement detection (experiments E1/E2).
//! * [`stats`] — distribution statistics and the co-plot-style workload comparison
//!   (experiment E3).

#![warn(missing_docs)]

pub mod aggregate;
pub mod job;
pub mod objective;
pub mod stats;
pub mod system;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::aggregate::{
        batch_means_ci, geometric_mean, percentile_sorted, summarize, summarize_iter,
        weighted_mean, AggregateMetrics, ConfidenceInterval, Summary,
    };
    pub use crate::job::{outcomes_from_log, JobOutcome, BOUNDED_SLOWDOWN_THRESHOLD};
    pub use crate::objective::{
        objectives_disagree, rank_by_objective, rank_by_weighted, Objective, SchedulerResult,
        WeightedObjective,
    };
    pub use crate::stats::{
        compare_workloads, moments, pearson_correlation, workload_features, ComparisonMatrix, Ecdf,
        Moments, WorkloadFeatures,
    };
    pub use crate::system::{
        system_metrics, system_metrics_iter, CostModel, SystemMetrics, SystemObservation,
    };
}

pub use prelude::*;
