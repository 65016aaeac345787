//! System-centric (machine-owner) metrics: utilization, throughput, makespan, and
//! loss of capacity.
//!
//! The paper contrasts these "low-level, system-centric metrics such as percent
//! utilization" with the user-centric metrics of [`crate::job`]; both families are
//! needed to reproduce the objective-function discussions of Section 1.2 and the
//! economic unification of Section 4.2.

use crate::job::JobOutcome;
use serde::{Deserialize, Serialize};

/// System-level metrics for one simulation / trace interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SystemMetrics {
    /// Number of jobs that terminated in the interval.
    pub jobs_finished: usize,
    /// Makespan: time from the first submit to the last completion, in seconds.
    pub makespan: f64,
    /// Utilization in `[0, 1]`: processor-seconds of work done divided by
    /// processor-seconds available (machine size × makespan, minus capacity lost to
    /// outages if supplied).
    pub utilization: f64,
    /// Throughput in jobs per hour.
    pub throughput_per_hour: f64,
    /// Loss of capacity in `[0, 1]`: fraction of available processor-seconds that
    /// were idle while at least one job was waiting in the queue (requires the idle-
    /// while-waiting integral from the simulator; 0 when not supplied).
    pub loss_of_capacity: f64,
}

/// Inputs needed to compute [`SystemMetrics`].
#[derive(Debug, Clone, Copy)]
pub struct SystemObservation<'a> {
    /// Outcomes of all jobs that ran (including killed ones: their work still
    /// occupied the machine).
    pub outcomes: &'a [JobOutcome],
    /// Machine size in processors.
    pub machine_size: u32,
    /// Processor-seconds lost to outages during the interval (0 if none).
    pub lost_node_seconds: f64,
    /// Integral of (idle processors × seconds) accumulated while the queue was
    /// non-empty, from the simulator; `None` if unavailable.
    pub idle_while_queued: Option<f64>,
}

/// Compute system metrics from an observation.
pub fn system_metrics(obs: &SystemObservation<'_>) -> SystemMetrics {
    system_metrics_iter(
        obs.outcomes.iter().copied(),
        obs.machine_size,
        obs.lost_node_seconds,
        obs.idle_while_queued,
    )
}

/// [`system_metrics`] over a sequence of outcomes that can be walked more
/// than once, without collecting it into a slice first; the other arguments
/// are the remaining fields of a [`SystemObservation`].
pub fn system_metrics_iter<I>(
    outcomes: I,
    machine_size: u32,
    lost_node_seconds: f64,
    idle_while_queued: Option<f64>,
) -> SystemMetrics
where
    I: Iterator<Item = JobOutcome> + Clone,
{
    let jobs = outcomes.clone().count();
    if jobs == 0 || machine_size == 0 {
        return SystemMetrics::default();
    }
    let first_submit = outcomes
        .clone()
        .map(|o| o.submit_time)
        .fold(f64::INFINITY, f64::min);
    let last_end = outcomes.clone().map(|o| o.end_time).fold(0.0f64, f64::max);
    let makespan = (last_end - first_submit).max(0.0);
    let work: f64 = outcomes.map(|o| o.area()).sum();
    let capacity = (machine_size as f64 * makespan - lost_node_seconds).max(0.0);
    let utilization = if capacity > 0.0 {
        (work / capacity).min(1.0)
    } else {
        0.0
    };
    let throughput = if makespan > 0.0 {
        jobs as f64 / makespan * 3600.0
    } else {
        0.0
    };
    let loss = match idle_while_queued {
        Some(idle) if capacity > 0.0 => (idle / capacity).clamp(0.0, 1.0),
        _ => 0.0,
    };
    SystemMetrics {
        jobs_finished: jobs,
        makespan,
        utilization,
        throughput_per_hour: throughput,
        loss_of_capacity: loss,
    }
}

/// A simple cost model for the economic unification of system- and user-centric
/// metrics sketched in Section 4.2: suppliers charge per processor-second, users
/// additionally value their waiting time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Price charged per processor-second of allocated computation.
    pub price_per_proc_second: f64,
    /// The user's (opportunity) cost per second of waiting.
    pub wait_cost_per_second: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            price_per_proc_second: 1.0,
            wait_cost_per_second: 0.1,
        }
    }
}

impl CostModel {
    /// What the user pays (and implicitly what the supplier earns) for one job.
    pub fn charge(&self, job: &JobOutcome) -> f64 {
        job.area() * self.price_per_proc_second
    }

    /// The user's total cost for one job: charge plus valued waiting time.
    pub fn user_cost(&self, job: &JobOutcome) -> f64 {
        self.charge(job) + job.wait_time() * self.wait_cost_per_second
    }

    /// Supplier revenue over a set of jobs.
    pub fn revenue(&self, jobs: &[JobOutcome]) -> f64 {
        jobs.iter().map(|j| self.charge(j)).sum()
    }

    /// Aggregate user cost over a set of jobs.
    pub fn total_user_cost(&self, jobs: &[JobOutcome]) -> f64 {
        jobs.iter().map(|j| self.user_cost(j)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(submit: f64, start: f64, end: f64, procs: u32) -> JobOutcome {
        JobOutcome {
            job_id: 0,
            submit_time: submit,
            start_time: start,
            end_time: end,
            procs,
            completed: true,
        }
    }

    #[test]
    fn utilization_and_throughput() {
        // Two jobs on a 10-processor machine, makespan 100s, total work 600 proc-s.
        let outcomes = vec![outcome(0.0, 0.0, 50.0, 10), outcome(0.0, 50.0, 100.0, 2)];
        let m = system_metrics(&SystemObservation {
            outcomes: &outcomes,
            machine_size: 10,
            lost_node_seconds: 0.0,
            idle_while_queued: None,
        });
        assert_eq!(m.jobs_finished, 2);
        assert_eq!(m.makespan, 100.0);
        assert!((m.utilization - 0.6).abs() < 1e-12);
        assert!((m.throughput_per_hour - 72.0).abs() < 1e-9);
        assert_eq!(m.loss_of_capacity, 0.0);
    }

    #[test]
    fn outages_reduce_available_capacity() {
        let outcomes = vec![outcome(0.0, 0.0, 100.0, 5)];
        let without = system_metrics(&SystemObservation {
            outcomes: &outcomes,
            machine_size: 10,
            lost_node_seconds: 0.0,
            idle_while_queued: None,
        });
        let with = system_metrics(&SystemObservation {
            outcomes: &outcomes,
            machine_size: 10,
            lost_node_seconds: 400.0,
            idle_while_queued: None,
        });
        assert!(with.utilization > without.utilization);
        assert!((without.utilization - 0.5).abs() < 1e-12);
        assert!((with.utilization - 500.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamped_to_one() {
        let outcomes = vec![outcome(0.0, 0.0, 100.0, 20)];
        let m = system_metrics(&SystemObservation {
            outcomes: &outcomes,
            machine_size: 10,
            lost_node_seconds: 0.0,
            idle_while_queued: None,
        });
        assert_eq!(m.utilization, 1.0);
    }

    #[test]
    fn loss_of_capacity_fraction() {
        let outcomes = vec![outcome(0.0, 0.0, 100.0, 5)];
        let m = system_metrics(&SystemObservation {
            outcomes: &outcomes,
            machine_size: 10,
            lost_node_seconds: 0.0,
            idle_while_queued: Some(250.0),
        });
        assert!((m.loss_of_capacity - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_observation_is_all_zero() {
        let m = system_metrics(&SystemObservation {
            outcomes: &[],
            machine_size: 10,
            lost_node_seconds: 0.0,
            idle_while_queued: None,
        });
        assert_eq!(m, SystemMetrics::default());
    }

    #[test]
    fn cost_model_charges() {
        let model = CostModel {
            price_per_proc_second: 2.0,
            wait_cost_per_second: 1.0,
        };
        let job = outcome(0.0, 30.0, 130.0, 4); // area 400, wait 30
        assert_eq!(model.charge(&job), 800.0);
        assert_eq!(model.user_cost(&job), 830.0);
        let jobs = vec![job, outcome(0.0, 0.0, 10.0, 1)];
        assert_eq!(model.revenue(&jobs), 820.0);
        assert_eq!(model.total_user_cost(&jobs), 850.0);
    }

    #[test]
    fn default_cost_model_is_sane() {
        let m = CostModel::default();
        assert!(m.price_per_proc_second > 0.0);
        assert!(m.wait_cost_per_second >= 0.0);
    }
}
