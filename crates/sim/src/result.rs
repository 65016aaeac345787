//! Simulation results: per-job outcomes, aggregate metrics, and SWF export.

use crate::job::FinishedJob;
use psbench_metrics::{
    summarize_iter, system_metrics_iter, AggregateMetrics, JobOutcome, SystemMetrics,
};
use psbench_swf::{CompletionStatus, SwfHeader, SwfLog, SwfRecord};
use serde::{Deserialize, Serialize};

/// Everything the simulator measured in one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Name of the scheduler that produced this run.
    pub scheduler: String,
    /// Machine size in processors.
    pub machine_size: u32,
    /// Jobs that completed, in completion order.
    pub finished: Vec<FinishedJob>,
    /// Jobs still queued or running when the simulation stopped.
    pub unfinished: usize,
    /// Jobs discarded by the outage policy.
    pub discarded: usize,
    /// Integral of idle processors × seconds accumulated while the queue was
    /// non-empty (the raw material of the loss-of-capacity metric).
    pub idle_while_queued: f64,
    /// Integral of busy processors × seconds (work actually performed).
    pub busy_integral: f64,
    /// Integral of down processors × seconds (capacity lost to outages).
    pub lost_node_seconds: f64,
    /// Number of outage-induced job kills.
    pub kills: usize,
    /// Scheduler decisions the engine rejected as infeasible.
    pub rejected_decisions: usize,
    /// Duplicate same-time wakeup requests merged into an already-scheduled
    /// timer instead of flooding the event heap.
    pub coalesced_wakeups: usize,
    /// Engine events processed: external events (arrivals, outages, timers)
    /// plus job completions. The denominator of the events/sec benchmarks.
    pub events_processed: u64,
    /// Simulation clock when the run ended.
    pub end_time: f64,
}

impl SimulationResult {
    /// Per-job outcomes in the metrics crate's format.
    pub fn outcomes(&self) -> Vec<JobOutcome> {
        self.outcome_iter().collect()
    }

    /// [`outcomes`](Self::outcomes) without the vector: the metrics below
    /// read `finished` through this instead of copying it.
    fn outcome_iter(&self) -> impl Iterator<Item = JobOutcome> + Clone + '_ {
        self.finished.iter().map(FinishedJob::to_outcome)
    }

    /// User-centric aggregate metrics (wait, response, slowdown, ...).
    pub fn aggregate(&self) -> AggregateMetrics {
        AggregateMetrics::from_outcomes_iter(self.outcome_iter())
    }

    /// System-centric metrics (utilization, throughput, loss of capacity, ...).
    pub fn system(&self) -> SystemMetrics {
        system_metrics_iter(
            self.outcome_iter(),
            self.machine_size,
            self.lost_node_seconds,
            Some(self.idle_while_queued),
        )
    }

    /// Both metric families packaged for the ranking utilities of experiments E1/E2.
    pub fn scheduler_result(&self) -> psbench_metrics::SchedulerResult {
        psbench_metrics::SchedulerResult {
            name: self.scheduler.clone(),
            aggregate: self.aggregate(),
            system: self.system(),
        }
    }

    /// Mean wait time in seconds; the `wait_time.mean` of
    /// [`aggregate`](Self::aggregate), computed alone.
    pub fn mean_wait_time(&self) -> f64 {
        summarize_iter(self.outcome_iter().map(|o| o.wait_time())).mean
    }

    /// Mean response time in seconds (shortcut used by many experiments); the
    /// `response_time.mean` of [`aggregate`](Self::aggregate), computed alone.
    pub fn mean_response_time(&self) -> f64 {
        summarize_iter(self.outcome_iter().map(|o| o.response_time())).mean
    }

    /// Mean bounded slowdown (shortcut used by many experiments); the
    /// `bounded_slowdown.mean` of [`aggregate`](Self::aggregate), computed alone.
    pub fn mean_bounded_slowdown(&self) -> f64 {
        summarize_iter(self.outcome_iter().map(|o| o.bounded_slowdown())).mean
    }

    /// Export the executed schedule as an SWF log, so a simulated run can itself be
    /// archived, validated, and re-analyzed with the same tools as a real trace.
    pub fn to_swf(&self) -> SwfLog {
        let mut header = SwfHeader {
            computer: Some(format!("psbench simulation ({})", self.scheduler)),
            version: Some(psbench_swf::FORMAT_VERSION),
            max_nodes: Some(self.machine_size),
            ..SwfHeader::default()
        };
        header
            .notes
            .push("Exported from a psbench simulation run".to_string());
        let mut jobs: Vec<&FinishedJob> = self.finished.iter().collect();
        jobs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.id.cmp(&b.id)));
        let records: Vec<SwfRecord> = jobs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut r = SwfRecord::rigid(
                    i as u64 + 1,
                    f.submit.round() as i64,
                    (f.end - f.start).round().max(0.0) as i64,
                    f.procs,
                );
                r.wait_time = Some(f.wait().round().max(0.0) as i64);
                r.status = CompletionStatus::Completed;
                r.user_id = f.user;
                r
            })
            .collect();
        let mut log = SwfLog::new(header, records);
        log.rebase_times();
        psbench_swf::clean(&mut log);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psbench_metrics::{system_metrics, Summary, SystemObservation};
    use psbench_swf::validate;

    fn finished(id: u64, submit: f64, start: f64, end: f64, procs: u32) -> FinishedJob {
        FinishedJob {
            id,
            submit,
            start,
            first_start: start,
            end,
            procs,
            restarts: 0,
            user: Some(1),
        }
    }

    fn sample_result() -> SimulationResult {
        SimulationResult {
            scheduler: "test".to_string(),
            machine_size: 64,
            finished: vec![
                finished(1, 0.0, 0.0, 100.0, 32),
                finished(2, 10.0, 100.0, 160.0, 64),
            ],
            unfinished: 0,
            discarded: 0,
            idle_while_queued: 320.0,
            busy_integral: 32.0 * 100.0 + 64.0 * 60.0,
            lost_node_seconds: 0.0,
            kills: 0,
            rejected_decisions: 0,
            coalesced_wakeups: 0,
            events_processed: 4,
            end_time: 160.0,
        }
    }

    #[test]
    fn outcomes_and_aggregates() {
        let r = sample_result();
        let outcomes = r.outcomes();
        assert_eq!(outcomes.len(), 2);
        let agg = r.aggregate();
        assert_eq!(agg.jobs, 2);
        // waits: 0 and 90 -> mean 45
        assert!((agg.wait_time.mean - 45.0).abs() < 1e-9);
        assert!((r.mean_response_time() - (100.0 + 150.0) / 2.0).abs() < 1e-9);
        assert!(r.mean_bounded_slowdown() >= 1.0);
    }

    #[test]
    fn system_metrics_from_result() {
        let r = sample_result();
        let sys = r.system();
        assert_eq!(sys.jobs_finished, 2);
        assert!((sys.makespan - 160.0).abs() < 1e-9);
        let expected_util = (32.0 * 100.0 + 64.0 * 60.0) / (64.0 * 160.0);
        assert!((sys.utilization - expected_util).abs() < 1e-9);
        assert!(sys.loss_of_capacity > 0.0);
        let sr = r.scheduler_result();
        assert_eq!(sr.name, "test");
    }

    #[test]
    fn swf_export_is_valid_and_preserves_schedule() {
        let r = sample_result();
        let log = r.to_swf();
        assert_eq!(log.len(), 2);
        assert!(validate(&log).is_clean(), "{:?}", validate(&log).violations);
        assert_eq!(log.header.max_nodes, Some(64));
        assert_eq!(log.jobs[0].run_time, Some(100));
        assert_eq!(log.jobs[1].wait_time, Some(90));
        // Round-trips through the textual format.
        let text = psbench_swf::write_string(&log);
        let back = psbench_swf::parse(&text).unwrap();
        assert_eq!(back.jobs, log.jobs);
    }

    fn summary_bits(s: &Summary) -> Vec<u64> {
        let floats = [s.mean, s.std_dev, s.min, s.max, s.median, s.p90, s.p99];
        std::iter::once(s.count as u64)
            .chain(floats.iter().map(|v| v.to_bits()))
            .collect()
    }

    fn aggregate_bits(a: &AggregateMetrics) -> Vec<u64> {
        let mut bits = vec![a.jobs as u64, a.area_weighted_wait.to_bits()];
        for s in [
            &a.wait_time,
            &a.response_time,
            &a.slowdown,
            &a.bounded_slowdown,
        ] {
            bits.extend(summary_bits(s));
        }
        bits
    }

    fn system_bits(s: &SystemMetrics) -> [u64; 5] {
        [
            s.jobs_finished as u64,
            s.makespan.to_bits(),
            s.utilization.to_bits(),
            s.throughput_per_hour.to_bits(),
            s.loss_of_capacity.to_bits(),
        ]
    }

    /// Times from a small repeating pool (so waits and runtimes tie and
    /// cancel to both zeros), non-finite values, and arbitrary ones.
    fn time() -> impl Strategy<Value = f64> {
        (0u8..8, -1.0e7f64..1.0e7).prop_map(|(kind, x)| match kind {
            0 => -0.0,
            1 => f64::INFINITY,
            2 => f64::NAN,
            3..=5 => [0.0, 10.0, 15.5, 3600.0][(x.abs() as usize) % 4],
            _ => x,
        })
    }

    prop_compose! {
        fn any_job()(
            id in 0u64..1000,
            submit in time(),
            start in time(),
            end in time(),
            procs in 0u32..512,
        ) -> FinishedJob {
            finished(id, submit, start, end, procs)
        }
    }

    proptest! {
        #[test]
        fn metrics_equal_the_metrics_crate_on_materialized_outcomes(
            jobs in proptest::collection::vec(any_job(), 0..400),
            machine_size in 0u32..1024,
            lost in 0.0f64..1.0e6,
            idle in 0.0f64..1.0e6,
        ) {
            let r = SimulationResult {
                machine_size,
                finished: jobs,
                lost_node_seconds: lost,
                idle_while_queued: idle,
                ..sample_result()
            };
            let outcomes = r.outcomes();
            let want = AggregateMetrics::from_outcomes(&outcomes);
            prop_assert_eq!(aggregate_bits(&r.aggregate()), aggregate_bits(&want));
            prop_assert_eq!(r.mean_wait_time().to_bits(), want.wait_time.mean.to_bits());
            prop_assert_eq!(
                r.mean_response_time().to_bits(),
                want.response_time.mean.to_bits()
            );
            prop_assert_eq!(
                r.mean_bounded_slowdown().to_bits(),
                want.bounded_slowdown.mean.to_bits()
            );
            let system = system_metrics(&SystemObservation {
                outcomes: &outcomes,
                machine_size,
                lost_node_seconds: lost,
                idle_while_queued: Some(idle),
            });
            prop_assert_eq!(system_bits(&r.system()), system_bits(&system));
        }
    }

    #[test]
    fn empty_result_edge_cases() {
        let r = SimulationResult {
            scheduler: "empty".to_string(),
            machine_size: 16,
            finished: vec![],
            unfinished: 0,
            discarded: 0,
            idle_while_queued: 0.0,
            busy_integral: 0.0,
            lost_node_seconds: 0.0,
            kills: 0,
            rejected_decisions: 0,
            coalesced_wakeups: 0,
            events_processed: 0,
            end_time: 0.0,
        };
        assert_eq!(r.aggregate().jobs, 0);
        assert_eq!(r.system(), SystemMetrics::default());
        assert!(r.to_swf().is_empty());
    }
}
