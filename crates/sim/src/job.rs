//! Job descriptions and runtime job state used by the simulator.

use crate::idhash::IdSet;
use psbench_swf::{JobSource, ParseError, SwfLog, SwfRecord};
use psbench_workload::flexible::{DowneySpeedup, SpeedupModel};
use serde::{Deserialize, Serialize};

/// The static description of a job handed to the simulator.
///
/// For rigid jobs `work` is simply the runtime and `procs` the (fixed) allocation.
/// For moldable jobs `speedup` is present, `work` is the *sequential* runtime, and
/// the scheduler may choose the allocation; the execution rate then follows the
/// speedup function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// Job identifier (unique within one simulation).
    pub id: u64,
    /// Submission time in seconds. For jobs with a `preceding` dependency this is a
    /// lower bound; the actual submission happens after the predecessor terminates
    /// plus the think time (closed-loop behaviour).
    pub submit: f64,
    /// Work in seconds: runtime for rigid jobs, sequential runtime for moldable jobs.
    pub work: f64,
    /// The user's runtime estimate in seconds (≥ actual runtime in practice;
    /// backfilling schedulers rely on it). For moldable jobs it refers to the
    /// runtime at the requested allocation.
    pub estimate: f64,
    /// Requested number of processors (the allocation for rigid jobs).
    pub procs: u32,
    /// User identifier, if known (used by fairness policies and feedback).
    pub user: Option<u32>,
    /// Id of the job that must terminate before this one is submitted, if any.
    pub preceding: Option<u64>,
    /// Think time (seconds) between the predecessor's termination and submission.
    pub think_time: f64,
    /// Speedup profile for moldable jobs; `None` for rigid jobs.
    pub speedup: Option<DowneySpeedup>,
}

impl SimJob {
    /// A rigid job. Processor requests are clamped to at least 1 (the engine
    /// never allocates less), so `procs ≥ 1` is an invariant policies may rely
    /// on — e.g. to stop scanning once free capacity drops below one processor.
    pub fn rigid(id: u64, submit: f64, runtime: f64, procs: u32) -> Self {
        SimJob {
            id,
            submit,
            work: runtime,
            estimate: runtime,
            procs: procs.max(1),
            user: None,
            preceding: None,
            think_time: 0.0,
            speedup: None,
        }
    }

    /// Set the runtime estimate.
    pub fn with_estimate(mut self, estimate: f64) -> Self {
        self.estimate = estimate.max(0.0);
        self
    }

    /// Set the user.
    pub fn with_user(mut self, user: u32) -> Self {
        self.user = Some(user);
        self
    }

    /// Make the job moldable with the given speedup profile. `work` is reinterpreted
    /// as the sequential runtime.
    pub fn moldable(mut self, speedup: DowneySpeedup) -> Self {
        self.speedup = Some(speedup);
        self
    }

    /// The factor by which execution is accelerated when running on `procs`
    /// processors: 1 for rigid jobs (their work is already expressed at their fixed
    /// allocation), the speedup function for moldable jobs.
    pub fn speedup_factor(&self, procs: u32) -> f64 {
        match &self.speedup {
            Some(s) => s.speedup(procs).max(f64::MIN_POSITIVE),
            None => 1.0,
        }
    }

    /// The runtime this job would take on `procs` processors at full (share = 1) speed.
    pub fn runtime_on(&self, procs: u32) -> f64 {
        self.work / self.speedup_factor(procs)
    }

    /// Build a [`SimJob`] from an SWF record (the usual path for trace-driven
    /// simulation). Records with unknown runtime or processors are rejected.
    pub fn from_swf(record: &SwfRecord) -> Option<Self> {
        let runtime = record.run_time? as f64;
        let procs = record.procs()?.max(1);
        Some(SimJob {
            id: record.job_id,
            submit: record.submit_time as f64,
            work: runtime,
            estimate: record
                .requested_time
                .map(|t| t as f64)
                .unwrap_or(runtime)
                .max(runtime.min(1.0)),
            procs,
            user: record.user_id,
            preceding: record.preceding_job,
            think_time: record.think_time.unwrap_or(0) as f64,
            speedup: None,
        })
    }

    /// Build the simulator's job list from an SWF log (summary records only).
    /// Dirty archive logs can repeat job numbers; the simulator requires
    /// unique ids, so only the first record of each id is kept.
    pub fn from_log(log: &SwfLog) -> Vec<SimJob> {
        let mut kept = FirstOfEachId::default();
        for job in log.summaries().filter_map(SimJob::from_swf) {
            kept.push(job);
        }
        kept.jobs
    }

    /// Build the simulator's job list from any streaming [`JobSource`]
    /// (summary records only), without materializing an intermediate
    /// [`SwfLog`]. The job list is identical to [`SimJob::from_log`] over the
    /// collected log, including its duplicate-id policy (first record kept).
    pub fn from_source<S: JobSource>(mut source: S) -> Result<Vec<SimJob>, ParseError> {
        let mut kept = FirstOfEachId::default();
        while let Some(rec) = source.next_record() {
            let rec = rec?;
            if !rec.is_summary() {
                continue;
            }
            if let Some(job) = SimJob::from_swf(&rec) {
                kept.push(job);
            }
        }
        Ok(kept.jobs)
    }
}

/// A job list that keeps the first job of each id, in order.
///
/// While the kept ids ascend, each new id exceeds every kept one and needs no
/// lookup; the duplicate-id set is built at the first id that does not
/// exceed the last one kept, from every id kept so far, so an ascending job
/// list never hashes.
#[derive(Default)]
struct FirstOfEachId {
    jobs: Vec<SimJob>,
    seen: Option<IdSet>,
}

impl FirstOfEachId {
    fn push(&mut self, job: SimJob) {
        let fresh = match (&mut self.seen, self.jobs.last()) {
            (Some(seen), _) => seen.insert(job.id),
            (None, Some(last)) if job.id <= last.id => self
                .seen
                .insert(self.jobs.iter().map(|j| j.id).collect())
                .insert(job.id),
            (None, _) => true,
        };
        if fresh {
            self.jobs.push(job);
        }
    }
}

/// A job waiting in the scheduler's queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuedJob {
    /// The job description.
    pub job: SimJob,
    /// The time the job entered the queue (its effective submission time).
    pub queued_at: f64,
    /// Number of times the job was killed by an outage and requeued.
    pub restarts: u32,
    /// When the job first started, if it has run before. Carried across
    /// outage-induced restarts and preemptions so restart statistics (the
    /// `first_start` of the eventual [`FinishedJob`]) survive a requeue.
    pub first_started_at: Option<f64>,
}

/// A job currently holding processors.
///
/// Execution state follows the engine's *rate-epoch* model: `remaining_work` is
/// the remaining work **at `anchor_time`**, not at the current clock. While the
/// job's rate is constant (the common case — every space-sharing scheduler) the
/// pair never changes; the engine re-materializes it only when the rate actually
/// changes (a `SetShare`, a preemption, an outage kill). The remaining work at
/// any later instant is [`RunningJob::remaining_at`], and `predicted_end` caches
/// the completion time implied by the current epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// The job description.
    pub job: SimJob,
    /// The time the job entered the queue (carried over from [`QueuedJob`]).
    pub queued_at: f64,
    /// Number of processors allocated.
    pub procs: u32,
    /// Time share in `(0, 1]`: 1 for dedicated (space-shared) execution, `1/k` when
    /// the processors are time-shared between `k` jobs (gang scheduling).
    pub share: f64,
    /// Remaining work in seconds (at the job's reference rate), measured at
    /// [`anchor_time`](Self::anchor_time) — *not* at the current simulation time.
    pub remaining_work: f64,
    /// The time at which `remaining_work` was last materialized: the start of the
    /// job's current rate epoch (its start time, or its latest rate change).
    pub anchor_time: f64,
    /// Completion time implied by the current rate epoch:
    /// `anchor_time + remaining_work / progress_rate()`, clamped to be no earlier
    /// than the epoch start. The engine treats this cached value as the job's
    /// exact completion instant; it is recomputed only when the rate changes.
    pub predicted_end: f64,
    /// When this dispatch started.
    pub started_at: f64,
    /// When the job first started (differs from `started_at` after a restart).
    pub first_started_at: f64,
    /// Number of times the job was killed by an outage and requeued.
    pub restarts: u32,
}

impl RunningJob {
    /// The job's current progress rate in work-seconds per second.
    pub fn progress_rate(&self) -> f64 {
        self.share * self.job.speedup_factor(self.procs)
    }

    /// Remaining work at time `t` (≥ `anchor_time`) under the current rate epoch.
    pub fn remaining_at(&self, t: f64) -> f64 {
        self.remaining_work - self.progress_rate() * (t - self.anchor_time).max(0.0)
    }

    /// Processor-share product, the quantity conserved by the cluster capacity
    /// constraint (`Σ procs·share ≤ available processors`).
    pub fn proc_share(&self) -> f64 {
        self.procs as f64 * self.share
    }
}

/// The final record of one job's passage through the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FinishedJob {
    /// Job identifier.
    pub id: u64,
    /// The time the job was (effectively) submitted.
    pub submit: f64,
    /// The time the job last started (after any restarts).
    pub start: f64,
    /// The time the job first started.
    pub first_start: f64,
    /// Completion time.
    pub end: f64,
    /// Processors allocated in the final dispatch.
    pub procs: u32,
    /// Number of outage-induced restarts.
    pub restarts: u32,
    /// User identifier, if known.
    pub user: Option<u32>,
}

impl FinishedJob {
    /// Wait time of the final dispatch (start − submit).
    pub fn wait(&self) -> f64 {
        self.start - self.submit
    }

    /// Response time (end − submit).
    pub fn response(&self) -> f64 {
        self.end - self.submit
    }

    /// Convert to the metrics crate's job outcome.
    pub fn to_outcome(&self) -> psbench_metrics::JobOutcome {
        psbench_metrics::JobOutcome {
            job_id: self.id,
            submit_time: self.submit,
            start_time: self.start,
            end_time: self.end,
            procs: self.procs,
            completed: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psbench_swf::SwfRecordBuilder;

    #[test]
    fn rigid_job_runtime_is_its_work() {
        let j = SimJob::rigid(1, 0.0, 600.0, 16);
        assert_eq!(j.speedup_factor(16), 1.0);
        assert_eq!(j.speedup_factor(1), 1.0);
        assert_eq!(j.runtime_on(16), 600.0);
        assert_eq!(j.estimate, 600.0);
    }

    #[test]
    fn moldable_job_runtime_follows_speedup() {
        let j = SimJob::rigid(1, 0.0, 6400.0, 32).moldable(DowneySpeedup {
            a: 32.0,
            sigma: 0.0,
        });
        assert_eq!(j.runtime_on(1), 6400.0);
        assert_eq!(j.runtime_on(32), 200.0);
        assert_eq!(j.runtime_on(64), 200.0); // saturates at A
    }

    #[test]
    fn builder_methods() {
        let j = SimJob::rigid(2, 10.0, 100.0, 4)
            .with_estimate(500.0)
            .with_user(7);
        assert_eq!(j.estimate, 500.0);
        assert_eq!(j.user, Some(7));
    }

    #[test]
    fn from_swf_maps_fields() {
        let rec = SwfRecordBuilder::new(5, 100)
            .wait_time(10)
            .run_time(300)
            .allocated_procs(8)
            .requested_time(900)
            .user_id(3)
            .depends_on(4, 60)
            .build();
        let j = SimJob::from_swf(&rec).unwrap();
        assert_eq!(j.id, 5);
        assert_eq!(j.submit, 100.0);
        assert_eq!(j.work, 300.0);
        assert_eq!(j.estimate, 900.0);
        assert_eq!(j.procs, 8);
        assert_eq!(j.user, Some(3));
        assert_eq!(j.preceding, Some(4));
        assert_eq!(j.think_time, 60.0);
        // missing runtime or procs -> rejected
        assert!(SimJob::from_swf(&SwfRecordBuilder::new(6, 0).build()).is_none());
    }

    #[test]
    fn from_source_matches_from_log() {
        use psbench_swf::SwfLog;
        let mut log = SwfLog::default();
        log.jobs.push(
            SwfRecordBuilder::new(1, 0)
                .run_time(100)
                .allocated_procs(4)
                .build(),
        );
        log.jobs.push(SwfRecordBuilder::new(2, 5).build()); // rejected: no runtime
        let mut partial = SwfRecordBuilder::new(3, 9)
            .run_time(10)
            .allocated_procs(1)
            .build();
        partial.status = psbench_swf::CompletionStatus::PartialContinued;
        log.jobs.push(partial); // rejected: not a summary
        let streamed = SimJob::from_source(log.as_source("s")).unwrap();
        assert_eq!(streamed, SimJob::from_log(&log));
        assert_eq!(streamed.len(), 1);
    }

    #[test]
    fn duplicate_job_ids_keep_first_record() {
        // Dirty archive logs repeat job numbers; the simulator needs unique
        // ids, so both constructors keep the first record of each id.
        let mut log = SwfLog::default();
        for (submit, runtime) in [(0i64, 100i64), (5, 50), (9, 10)] {
            log.jobs.push(
                SwfRecordBuilder::new(7, submit)
                    .run_time(runtime)
                    .allocated_procs(4)
                    .build(),
            );
        }
        let from_log = SimJob::from_log(&log);
        assert_eq!(from_log.len(), 1);
        assert_eq!(from_log[0].work, 100.0);
        assert_eq!(from_log, SimJob::from_source(log.as_source("dup")).unwrap());
    }

    /// Ids that ascend by steps of 1 to 4 from `first`.
    fn ascending(first: u64, steps: &[u64]) -> Vec<u64> {
        steps
            .iter()
            .scan(first, |id, step| {
                let this = *id;
                *id += step;
                Some(this)
            })
            .collect()
    }

    fn arb_id_sequence() -> impl Strategy<Value = Vec<u64>> {
        let steps = || prop::collection::vec(1u64..5, 1..80);
        prop_oneof![
            // Ascending.
            steps().prop_map(|s| ascending(1, &s)),
            // Ascending, then a repeat of an earlier id.
            (steps(), 0usize..80).prop_map(|(s, k)| {
                let mut ids = ascending(1, &s);
                ids.push(ids[k % ids.len()]);
                ids
            }),
            // A descent after a long ascending prefix, then ids that may
            // repeat the prefix's.
            (
                prop::collection::vec(1u64..3, 40..80),
                prop::collection::vec(1u64..200, 1..20)
            )
                .prop_map(|(s, tail)| {
                    let mut ids = ascending(100, &s);
                    ids.extend(tail);
                    ids
                }),
            // A repeat of the first id.
            steps().prop_map(|s| {
                let mut ids = ascending(7, &s);
                ids.insert(ids.len() / 2, 7);
                ids.push(7);
                ids
            }),
            // All ids equal.
            (1u64..100, 1usize..20).prop_map(|(id, n)| vec![id; n]),
            // Small ids, many repeats, in any order.
            prop::collection::vec(0u64..12, 0..60),
        ]
    }

    proptest! {
        /// `from_source` hashes ids only once they stop ascending; on every
        /// id sequence, with partial lines and unrunnable records among the
        /// summaries, it keeps the jobs `from_log`'s id set keeps, in order.
        #[test]
        fn from_source_keeps_the_jobs_the_id_set_keeps(
            ids in arb_id_sequence(),
            kinds in prop::collection::vec(0u8..8, 80),
        ) {
            let mut log = SwfLog::default();
            for (i, (&id, &kind)) in ids.iter().zip(kinds.iter().cycle()).enumerate() {
                let mut rec = SwfRecordBuilder::new(id, i as i64)
                    .run_time(10 + i as i64)
                    .allocated_procs(1 + kind as u32)
                    .build();
                match kind {
                    0 => rec.status = psbench_swf::CompletionStatus::PartialContinued,
                    1 => rec.status = psbench_swf::CompletionStatus::PartialFailed,
                    2 => rec.run_time = None,
                    _ => {}
                }
                log.jobs.push(rec);
            }
            // The reference: an eager id set probed for every job.
            let mut seen = IdSet::default();
            let reference: Vec<SimJob> = log
                .summaries()
                .filter_map(SimJob::from_swf)
                .filter(|j| seen.insert(j.id))
                .collect();
            let streamed = SimJob::from_source(log.as_source("ids")).unwrap();
            prop_assert_eq!(&streamed, &reference);
            prop_assert_eq!(SimJob::from_log(&log), reference);
        }
    }

    #[test]
    fn running_job_rates() {
        let j = SimJob::rigid(1, 0.0, 100.0, 8);
        let r = RunningJob {
            job: j,
            queued_at: 0.0,
            procs: 8,
            share: 0.5,
            remaining_work: 100.0,
            anchor_time: 0.0,
            predicted_end: 200.0,
            started_at: 0.0,
            first_started_at: 0.0,
            restarts: 0,
        };
        assert_eq!(r.progress_rate(), 0.5);
        assert_eq!(r.proc_share(), 4.0);
        assert_eq!(r.remaining_at(0.0), 100.0);
        assert_eq!(r.remaining_at(100.0), 50.0);
        assert_eq!(r.remaining_at(200.0), 0.0);
        // Before the anchor the epoch has accrued no progress.
        assert_eq!(r.remaining_at(-10.0), 100.0);
        let stopped = RunningJob { share: 0.0, ..r };
        assert_eq!(stopped.progress_rate(), 0.0);
        assert_eq!(stopped.remaining_at(1e9), 100.0);
    }

    #[test]
    fn finished_job_metrics() {
        let f = FinishedJob {
            id: 1,
            submit: 100.0,
            start: 150.0,
            first_start: 150.0,
            end: 400.0,
            procs: 16,
            restarts: 0,
            user: Some(1),
        };
        assert_eq!(f.wait(), 50.0);
        assert_eq!(f.response(), 300.0);
        let o = f.to_outcome();
        assert_eq!(o.response_time(), 300.0);
        assert_eq!(o.procs, 16);
        assert!(o.completed);
    }
}
