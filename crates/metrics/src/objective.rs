//! Objective functions and scheduler ranking.
//!
//! Section 1.2 of the paper discusses whether the objective function itself should
//! be standardized: different metrics can rank the same schedulers differently
//! (\[30\]), and owner-defined weighted objectives change rankings as the weights move
//! (\[41\]). This module provides the standard single-metric objectives, weighted
//! composite objectives, and ranking utilities used by experiments E1 and E2.

use crate::aggregate::AggregateMetrics;
use crate::system::SystemMetrics;
use serde::{Deserialize, Serialize};

/// The standard single-quantity objectives found "in almost all installations".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Mean response (turnaround) time; minimize.
    MeanResponseTime,
    /// Mean wait time; minimize.
    MeanWaitTime,
    /// Mean slowdown; minimize.
    MeanSlowdown,
    /// Mean bounded slowdown; minimize.
    MeanBoundedSlowdown,
    /// 90th percentile of response time; minimize.
    P90ResponseTime,
    /// Machine utilization; maximize.
    Utilization,
    /// Throughput (jobs/hour); maximize.
    Throughput,
    /// Loss of capacity; minimize.
    LossOfCapacity,
}

impl Objective {
    /// All objectives, for iteration in experiments.
    pub fn all() -> &'static [Objective] {
        &[
            Objective::MeanResponseTime,
            Objective::MeanWaitTime,
            Objective::MeanSlowdown,
            Objective::MeanBoundedSlowdown,
            Objective::P90ResponseTime,
            Objective::Utilization,
            Objective::Throughput,
            Objective::LossOfCapacity,
        ]
    }

    /// Human readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::MeanResponseTime => "mean response time",
            Objective::MeanWaitTime => "mean wait time",
            Objective::MeanSlowdown => "mean slowdown",
            Objective::MeanBoundedSlowdown => "mean bounded slowdown",
            Objective::P90ResponseTime => "p90 response time",
            Objective::Utilization => "utilization",
            Objective::Throughput => "throughput",
            Objective::LossOfCapacity => "loss of capacity",
        }
    }

    /// True if larger values are better (maximize), false if smaller is better.
    pub fn maximize(&self) -> bool {
        matches!(self, Objective::Utilization | Objective::Throughput)
    }

    /// Extract the objective's value from a pair of aggregate and system metrics.
    pub fn value(&self, agg: &AggregateMetrics, sys: &SystemMetrics) -> f64 {
        match self {
            Objective::MeanResponseTime => agg.response_time.mean,
            Objective::MeanWaitTime => agg.wait_time.mean,
            Objective::MeanSlowdown => agg.slowdown.mean,
            Objective::MeanBoundedSlowdown => agg.bounded_slowdown.mean,
            Objective::P90ResponseTime => agg.response_time.p90,
            Objective::Utilization => sys.utilization,
            Objective::Throughput => sys.throughput_per_hour,
            Objective::LossOfCapacity => sys.loss_of_capacity,
        }
    }

    /// A "badness" score in which smaller is always better, so values of different
    /// objectives can be ranked uniformly.
    pub fn badness(&self, agg: &AggregateMetrics, sys: &SystemMetrics) -> f64 {
        let v = self.value(agg, sys);
        if self.maximize() {
            -v
        } else {
            v
        }
    }
}

/// A weighted composite objective in the spirit of the owner-policy objectives of
/// Krallmann, Schwiegelshohn and Yahyapour \[41\]: a convex combination of a
/// user-centric term (bounded slowdown, normalized) and a system-centric term
/// (1 − utilization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedObjective {
    /// Weight of the user-centric term, in `[0, 1]`. The system-centric term gets
    /// `1 − weight`.
    pub user_weight: f64,
    /// Normalization constant for bounded slowdown: the slowdown that counts as
    /// "as bad as" zero utilization. Defaults to 100.
    pub slowdown_scale: f64,
}

impl Default for WeightedObjective {
    fn default() -> Self {
        WeightedObjective {
            user_weight: 0.5,
            slowdown_scale: 100.0,
        }
    }
}

impl WeightedObjective {
    /// Create a weighted objective with the given user weight (clamped to `[0,1]`).
    pub fn with_user_weight(user_weight: f64) -> Self {
        WeightedObjective {
            user_weight: user_weight.clamp(0.0, 1.0),
            ..WeightedObjective::default()
        }
    }

    /// Evaluate the objective; smaller is better.
    pub fn badness(&self, agg: &AggregateMetrics, sys: &SystemMetrics) -> f64 {
        let user_term = (agg.bounded_slowdown.mean / self.slowdown_scale).min(10.0);
        let system_term = 1.0 - sys.utilization;
        self.user_weight * user_term + (1.0 - self.user_weight) * system_term
    }
}

/// One scheduler's measured results, as fed to the ranking utilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerResult {
    /// Scheduler name.
    pub name: String,
    /// Aggregate (user-centric) metrics.
    pub aggregate: AggregateMetrics,
    /// System-centric metrics.
    pub system: SystemMetrics,
}

/// Rank schedulers best first under a badness score in which smaller is
/// better, such as [`Objective::badness`] or [`WeightedObjective::badness`].
/// Ties keep input order.
pub fn rank_by(
    results: &[SchedulerResult],
    badness: impl Fn(&AggregateMetrics, &SystemMetrics) -> f64,
) -> Vec<String> {
    let mut indexed: Vec<(usize, f64)> = results
        .iter()
        .enumerate()
        .map(|(i, r)| (i, badness(&r.aggregate, &r.system)))
        .collect();
    indexed.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    indexed
        .into_iter()
        .map(|(i, _)| results[i].name.clone())
        .collect()
}

/// Rank schedulers under a single-metric objective; best first.
pub fn rank_by_objective(results: &[SchedulerResult], objective: Objective) -> Vec<String> {
    rank_by(results, |agg, sys| objective.badness(agg, sys))
}

/// Report whether two objectives *disagree* on the relative order of any pair of
/// schedulers — the phenomenon the paper highlights from \[30\].
pub fn objectives_disagree(results: &[SchedulerResult], a: Objective, b: Objective) -> bool {
    let ra = rank_by_objective(results, a);
    let rb = rank_by_objective(results, b);
    ra != rb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Summary;

    fn result(name: &str, resp: f64, slow: f64, util: f64) -> SchedulerResult {
        let mut agg = AggregateMetrics::default();
        agg.response_time = Summary {
            count: 1,
            mean: resp,
            p90: resp,
            ..Summary::default()
        };
        agg.slowdown = Summary {
            count: 1,
            mean: slow,
            ..Summary::default()
        };
        agg.bounded_slowdown = agg.slowdown;
        agg.wait_time = Summary {
            count: 1,
            mean: resp / 2.0,
            ..Summary::default()
        };
        let sys = SystemMetrics {
            jobs_finished: 1,
            makespan: 1000.0,
            utilization: util,
            throughput_per_hour: util * 100.0,
            loss_of_capacity: 1.0 - util,
        };
        SchedulerResult {
            name: name.to_string(),
            aggregate: agg,
            system: sys,
        }
    }

    #[test]
    fn objective_metadata() {
        assert_eq!(Objective::all().len(), 8);
        assert!(Objective::Utilization.maximize());
        assert!(!Objective::MeanSlowdown.maximize());
        for o in Objective::all() {
            assert!(!o.name().is_empty());
        }
    }

    #[test]
    fn ranking_minimizes_or_maximizes_correctly() {
        let results = vec![result("A", 100.0, 5.0, 0.9), result("B", 50.0, 20.0, 0.7)];
        // B is better on response time, A better on slowdown and utilization.
        assert_eq!(
            rank_by_objective(&results, Objective::MeanResponseTime),
            vec!["B", "A"]
        );
        assert_eq!(
            rank_by_objective(&results, Objective::MeanSlowdown),
            vec!["A", "B"]
        );
        assert_eq!(
            rank_by_objective(&results, Objective::Utilization),
            vec!["A", "B"]
        );
    }

    #[test]
    fn disagreement_detected() {
        let results = vec![result("A", 100.0, 5.0, 0.9), result("B", 50.0, 20.0, 0.7)];
        assert!(objectives_disagree(
            &results,
            Objective::MeanResponseTime,
            Objective::MeanSlowdown
        ));
        assert!(!objectives_disagree(
            &results,
            Objective::MeanSlowdown,
            Objective::Utilization
        ));
    }

    #[test]
    fn weighted_objective_moves_ranking_with_weight() {
        // A: great utilization, terrible slowdown. B: mediocre both.
        let results = vec![
            result("A", 200.0, 90.0, 0.95),
            result("B", 100.0, 10.0, 0.6),
        ];
        let rank = |w: f64| {
            let objective = WeightedObjective::with_user_weight(w);
            rank_by(&results, |agg, sys| objective.badness(agg, sys))
        };
        let (user_heavy, system_heavy) = (rank(1.0), rank(0.0));
        assert_eq!(user_heavy, vec!["B", "A"]);
        assert_eq!(system_heavy, vec!["A", "B"]);
    }

    #[test]
    fn weighted_objective_clamps_weight() {
        let w = WeightedObjective::with_user_weight(7.0);
        assert_eq!(w.user_weight, 1.0);
        let w2 = WeightedObjective::with_user_weight(-1.0);
        assert_eq!(w2.user_weight, 0.0);
    }

    #[test]
    fn badness_is_negated_for_maximize_objectives() {
        let r = result("A", 100.0, 5.0, 0.9);
        let b = Objective::Utilization.badness(&r.aggregate, &r.system);
        assert!(b < 0.0);
        let v = Objective::Utilization.value(&r.aggregate, &r.system);
        assert_eq!(v, 0.9);
    }

    #[test]
    fn tie_preserves_input_order() {
        let results = vec![result("X", 100.0, 5.0, 0.5), result("Y", 100.0, 5.0, 0.5)];
        assert_eq!(
            rank_by_objective(&results, Objective::MeanResponseTime),
            vec!["X", "Y"]
        );
    }
}
