//! The interface between the simulator and scheduling policies.
//!
//! The simulator owns the queue, the running set and the cluster; a [`Scheduler`]
//! is consulted whenever the state changes (arrival, completion, outage,
//! cancellation, or a timer it asked for) and answers with a list of
//! [`Decision`]s. The simulator validates every decision against the capacity
//! constraint before applying it, so a buggy policy cannot oversubscribe the
//! machine — it just gets its decision rejected (and counted).

use crate::cluster::Cluster;
use crate::job::RunningJob;
use crate::queue::JobQueue;
use serde::{Deserialize, Serialize};

/// What just happened; passed to the scheduler so policies can react differently to
/// different triggers (most simply re-plan on every call).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerEvent {
    /// The simulation is starting (time 0, before any arrival).
    Start,
    /// A job entered the queue.
    JobArrived {
        /// Id of the arriving job.
        job_id: u64,
    },
    /// A running job completed.
    JobCompleted {
        /// Id of the completed job.
        job_id: u64,
    },
    /// Two or more running jobs completed at the same instant. The engine
    /// coalesces all same-instant completions into this single consult — all
    /// freed capacity is already reflected in the context — instead of one
    /// [`SchedulerEvent::JobCompleted`] react per job, so a mass completion
    /// under saturation costs one replan, not N. The completed ids travel in
    /// [`SchedulerContext::completed`].
    CompletionBatch {
        /// Number of jobs that completed at this instant.
        count: usize,
    },
    /// Jobs were killed by an outage and put back in the queue.
    JobsKilled {
        /// Number of jobs killed.
        count: usize,
    },
    /// An outage was announced for the future (advance notice).
    OutageAnnounced {
        /// When the outage will start.
        start: f64,
        /// When the outage will end.
        end: f64,
        /// Number of processors that will be lost.
        procs: u32,
    },
    /// An outage started; capacity already reflects the loss.
    OutageStarted {
        /// Number of processors lost.
        procs: u32,
    },
    /// An outage ended; capacity already reflects the recovery.
    OutageEnded {
        /// Number of processors restored.
        procs: u32,
    },
    /// A queued job was cancelled by an external agent (online sessions); it
    /// has already left the queue when the scheduler is consulted. Policies
    /// holding per-job plans should drop the job and may replan the hole it
    /// leaves behind.
    JobCancelled {
        /// Id of the cancelled job.
        job_id: u64,
    },
    /// A timer previously requested via [`Decision::Wakeup`] fired.
    Timer,
}

/// An action the scheduler asks the simulator to take.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// Start a queued job now on `procs` processors with the given time share.
    Start {
        /// Id of the queued job to start.
        job_id: u64,
        /// Processors to allocate; `None` means the job's requested size.
        procs: Option<u32>,
        /// Time share in `(0, 1]`; 1.0 means dedicated processors.
        share: f64,
    },
    /// Change the time share of a running job (gang scheduling repacks, malleable
    /// policies).
    SetShare {
        /// Id of the running job.
        job_id: u64,
        /// New share in `(0, 1]`.
        share: f64,
    },
    /// Preempt a running job: its remaining work is preserved and it returns to the
    /// queue (position by original queue time).
    Preempt {
        /// Id of the running job to preempt.
        job_id: u64,
    },
    /// Ask to be called again at the given absolute time (quantum expiry, planned
    /// drain before an announced outage, reservation start).
    Wakeup {
        /// Absolute simulation time of the requested callback.
        at: f64,
    },
}

impl Decision {
    /// Convenience: start a job on its requested processors, dedicated.
    pub fn start(job_id: u64) -> Decision {
        Decision::Start {
            job_id,
            procs: None,
            share: 1.0,
        }
    }

    /// Convenience: start a job on an explicit number of processors, dedicated.
    pub fn start_on(job_id: u64, procs: u32) -> Decision {
        Decision::Start {
            job_id,
            procs: Some(procs),
            share: 1.0,
        }
    }
}

/// A read-only view of the simulation state passed to the scheduler.
///
/// `queue` iterates in `(queued_at, job id)` order — arrival order, with
/// requeued jobs back at their original position — maintained structurally by
/// the engine, so policies never sort it; head-of-queue policies can stop
/// iterating at the first job that does not fit. Deep-queue policies should
/// consult the queue's **backlog index** ([`JobQueue::staircase_scan`])
/// instead of scanning: it enumerates, still in arrival order, only the jobs
/// that fit a per-width estimate staircase (a backfill pass's capacity and
/// shadow budget are a two-stair one), skipping 32 queued jobs at a time
/// wherever none of them fits, so a replan under saturation reads the jobs
/// it can start, not the backlog. The `running` slice, by contrast, is
/// in **no meaningful order** (the engine uses swap-removal): policies that emit
/// per-running-job decisions should order them by job id so results stay
/// independent of the engine's internal layout.
#[derive(Debug)]
pub struct SchedulerContext<'a> {
    /// Current simulation time, seconds.
    pub now: f64,
    /// The cluster (capacity and outages).
    pub cluster: &'a Cluster,
    /// Jobs waiting in the queue, iterated in `(queued_at, id)` order.
    pub queue: &'a JobQueue,
    /// Jobs currently running (unspecified order).
    pub running: &'a [RunningJob],
    /// Processor·share capacity currently in use by running jobs, maintained
    /// incrementally by the engine (`Σ procs·share` over `running`).
    pub used_procs: f64,
    /// Ids of the jobs this consult reports as completed, in the order the
    /// engine finished them: the one id of a [`SchedulerEvent::JobCompleted`],
    /// every id of a [`SchedulerEvent::CompletionBatch`], and empty on every
    /// other consult. They have already left `running`, so a policy that
    /// tracks running jobs can release exactly these instead of diffing its
    /// view against the running set.
    pub completed: &'a [u64],
}

impl SchedulerContext<'_> {
    /// Processor·share capacity currently in use by running jobs. O(1): reads
    /// the engine's incrementally maintained accumulator instead of re-summing
    /// the running set.
    pub fn used_capacity(&self) -> f64 {
        self.used_procs
    }

    /// Free capacity right now: available processors minus what running jobs use.
    pub fn free_capacity(&self) -> f64 {
        self.cluster.available_procs() as f64 - self.used_capacity()
    }

    /// Estimated completions of all running jobs as `(id, time, proc_share)`
    /// triples, sorted by `(time, id)`. This is the raw material of every
    /// backfilling shadow/profile computation: sorted once per react and carrying
    /// the capacity each completion releases, so policies need neither a re-sort
    /// nor a per-completion lookup into the running set. Ties on the estimated
    /// end break by job id, which keeps the profile independent of the engine's
    /// internal running-set layout.
    pub fn completion_profile(&self) -> Vec<(u64, f64, f64)> {
        let mut v: Vec<(u64, f64, f64)> = self
            .running
            .iter()
            .map(|r| (r.job.id, self.estimated_end(r), r.proc_share()))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }

    /// A running job's estimated completion as [`Self::completion_profile`]
    /// reports it: `now` plus the estimated remaining time — the user's
    /// estimate (at least one second) less the elapsed runtime, never
    /// negative — as a real scheduler would judge it.
    pub fn estimated_end(&self, r: &RunningJob) -> f64 {
        let elapsed = self.now - r.started_at;
        let est_total = r.job.estimate.max(1.0);
        let est_remaining = (est_total - elapsed).max(0.0);
        self.now + est_remaining
    }

    /// **Canonical** estimated completions of all running jobs as
    /// `(id, end, proc_share)` triples, sorted by `(end, id)` in total order.
    ///
    /// Unlike [`Self::completion_profile`], the end here is the *absolute*
    /// `started_at + max(estimate, 1)` (clamped up to `now` for overdue
    /// estimates), not `now + remaining`. The absolute form is **bit-stable
    /// across reacts**: the same running job reports the same end at every
    /// consult until it actually completes, because no `now`-dependent float
    /// arithmetic re-derives it. Persistent planners (the conservative
    /// reservation calendar) depend on that stability — a reservation placed
    /// against a completion at one react must still face the identical
    /// breakpoint at the next, or incremental and rebuilt-from-scratch plans
    /// diverge in the last bit and cascade into different decisions.
    pub fn canonical_completions(&self) -> Vec<(u64, f64, f64)> {
        let mut v: Vec<(u64, f64, f64)> = self
            .running
            .iter()
            .map(|r| {
                let end = (r.started_at + r.job.estimate.max(1.0)).max(self.now);
                (r.job.id, end, r.proc_share())
            })
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// A scheduling policy.
///
/// Policies are `Send` so a live policy instance can ride inside a per-session
/// engine shard handed to a connection thread (`psbench serve`); every policy
/// is plain owned data, so this costs nothing.
pub trait Scheduler: Send {
    /// A short, stable name used in reports.
    fn name(&self) -> &str;

    /// React to a state change with zero or more decisions.
    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SimJob;

    fn running(id: u64, procs: u32, share: f64) -> RunningJob {
        RunningJob {
            job: SimJob::rigid(id, 0.0, 100.0, procs),
            queued_at: 0.0,
            procs,
            share,
            remaining_work: 50.0,
            anchor_time: 0.0,
            predicted_end: 50.0,
            started_at: 0.0,
            first_started_at: 0.0,
            restarts: 0,
        }
    }

    /// Build a context over the given running set, with `used_procs` derived the
    /// way the engine maintains it.
    fn ctx_over<'a>(
        now: f64,
        cluster: &'a Cluster,
        queue: &'a JobQueue,
        running: &'a [RunningJob],
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            now,
            cluster,
            queue,
            running,
            used_procs: running.iter().map(|r| r.proc_share()).sum(),
            completed: &[],
        }
    }

    #[test]
    fn context_capacity_accounting() {
        let cluster = Cluster::new(64);
        let running = vec![running(1, 16, 1.0), running(2, 32, 0.5)];
        let queue = JobQueue::new();
        let ctx = ctx_over(10.0, &cluster, &queue, &running);
        assert_eq!(ctx.used_capacity(), 32.0);
        assert_eq!(ctx.free_capacity(), 64.0 - 32.0);
    }

    #[test]
    fn estimated_completions_use_estimates_and_sort() {
        let cluster = Cluster::new(64);
        let mut a = running(1, 8, 1.0);
        a.job.estimate = 1000.0;
        a.started_at = 0.0;
        let mut b = running(2, 8, 1.0);
        b.job.estimate = 100.0;
        b.started_at = 50.0;
        let running = vec![a, b];
        let queue = JobQueue::new();
        let ctx = ctx_over(100.0, &cluster, &queue, &running);
        // b: estimate 100, elapsed 50 -> completes at 150; a: estimate 1000,
        // elapsed 100 -> 1000. Each entry carries the proc·share it releases.
        let profile = ctx.completion_profile();
        assert_eq!(profile[0], (2, 150.0, 8.0));
        assert_eq!(profile[1], (1, 1000.0, 8.0));
    }

    #[test]
    fn estimated_completion_never_in_the_past() {
        let cluster = Cluster::new(4);
        let mut a = running(1, 4, 1.0);
        a.job.estimate = 10.0; // badly underestimated; job still running at t=100
        a.started_at = 0.0;
        let running = vec![a];
        let queue = JobQueue::new();
        let ctx = ctx_over(100.0, &cluster, &queue, &running);
        assert_eq!(ctx.completion_profile()[0].1, 100.0);
    }

    #[test]
    fn completion_profile_ties_break_by_id() {
        let cluster = Cluster::new(64);
        // Same estimate, same start: estimated ends tie; order must be by id
        // regardless of the slice layout.
        let jobs = vec![running(7, 8, 1.0), running(3, 16, 1.0), running(5, 4, 1.0)];
        let queue = JobQueue::new();
        let ctx = ctx_over(0.0, &cluster, &queue, &jobs);
        let ids: Vec<u64> = ctx.completion_profile().iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![3, 5, 7]);
    }

    #[test]
    fn decision_helpers() {
        assert_eq!(
            Decision::start(5),
            Decision::Start {
                job_id: 5,
                procs: None,
                share: 1.0
            }
        );
        assert_eq!(
            Decision::start_on(5, 16),
            Decision::Start {
                job_id: 5,
                procs: Some(16),
                share: 1.0
            }
        );
    }
}
