//! Oracle for what-if probes over random online sessions.
//!
//! A probe steps a [`Simulation::fork`], which copies only the live state.
//! Before forks existed, a probe deep-copied the whole simulation, poked a
//! fresh policy and stepped the copy until the target started. That
//! algorithm is kept here as the reference: a twin session replays the same
//! operations (the engine is deterministic, so the twin is the live session
//! state for state) and is then probed the old way. Under every policy in
//! the zoo, and probing under each of them, [`probe_start`] must answer
//! exactly as the reference does, and the probed session must drain to the
//! same encoded result as a twin that was never probed.

use proptest::prelude::*;
use psbench_sched::{by_name, probe_start, scheduler_names, Prediction, ProbeError};
use psbench_sim::{JobState, OnlineError, Scheduler, SimConfig, SimJob, Simulation};
use psbench_store::encode_result;

const MACHINE: u32 = 64;

/// One operation of a random online session.
#[derive(Debug, Clone)]
enum Op {
    /// Submit the next job `gap` seconds past the released frontier,
    /// releasing the timeline up to its arrival first when `release` is set
    /// (as `psbench serve` does); otherwise its arrival stays pending.
    Submit {
        gap: u32,
        runtime: u32,
        procs: u32,
        estimate_extra: u32,
        user: u32,
        release: bool,
    },
    /// Release the timeline `dt` seconds further.
    Advance(u32),
    /// Cancel the id `back` places below the two unknown ids past the last
    /// submit (so queued, pending, running, finished and unknown jobs).
    Cancel(u32),
    /// Probe that same choice of id under every policy in the zoo.
    Probe(u32),
}

fn op() -> impl Strategy<Value = Op> {
    let submit = || {
        (
            0u32..60,
            0u32..400,
            1u32..=MACHINE,
            0u32..300,
            0u32..4,
            0u32..3,
        )
            .prop_map(
                |(gap, runtime, procs, estimate_extra, user, release)| Op::Submit {
                    gap,
                    runtime,
                    procs,
                    estimate_extra,
                    user,
                    release: release > 0,
                },
            )
    };
    prop_oneof![
        submit(),
        submit(),
        submit(),
        (0u32..300).prop_map(Op::Advance),
        (0u32..10).prop_map(Op::Cancel),
        (0u32..6).prop_map(Op::Probe),
    ]
}

/// A session under a live policy, driven op by op.
struct Session {
    sim: Simulation,
    policy: Box<dyn Scheduler>,
    next_id: u64,
}

impl Session {
    fn new(live: &str) -> Session {
        let mut policy = by_name(live, MACHINE).unwrap();
        let mut sim = Simulation::new_online(SimConfig::new(MACHINE));
        sim.begin(policy.as_mut());
        Session {
            sim,
            policy,
            next_id: 0,
        }
    }

    /// A session that has applied `ops` (probes are skipped).
    fn replay(live: &str, ops: &[Op]) -> Session {
        let mut session = Session::new(live);
        for op in ops {
            session.apply(op).ok();
        }
        session
    }

    fn target(&self, back: u32) -> u64 {
        (self.next_id + 2).saturating_sub(back as u64)
    }

    fn apply(&mut self, op: &Op) -> Result<(), OnlineError> {
        let policy = self.policy.as_mut();
        match *op {
            Op::Submit {
                gap,
                runtime,
                procs,
                estimate_extra,
                user,
                release,
            } => {
                self.next_id += 1;
                let t = self.sim.released().ceil() + gap as f64;
                if release {
                    self.sim.advance_released(policy, t);
                }
                let job = SimJob::rigid(self.next_id, t, runtime as f64, procs)
                    .with_estimate((runtime + estimate_extra) as f64)
                    .with_user(user);
                self.sim.submit(job)
            }
            Op::Advance(dt) => {
                let t = self.sim.released() + dt as f64;
                self.sim.advance_released(policy, t);
                Ok(())
            }
            Op::Cancel(back) => {
                let id = (self.next_id + 2).saturating_sub(back as u64);
                self.sim.cancel(policy, id)
            }
            Op::Probe(_) => Ok(()),
        }
    }
}

/// The probe as it was before forks: copy the whole session (here, by
/// replaying its operations into a twin), poke a fresh policy and step the
/// copy until the target starts.
fn probe_by_replay(
    live: &str,
    ops: &[Op],
    job_id: u64,
    scheduler: &str,
) -> Result<Prediction, ProbeError> {
    let mut twin = Session::replay(live, ops).sim;
    let started = |state: &JobState| match *state {
        JobState::Running { started_at, .. } => Some(started_at),
        JobState::Finished { start, .. } => Some(start),
        _ => None,
    };
    let state = twin
        .job_state(job_id)
        .ok_or(ProbeError::UnknownJob(job_id))?;
    let prediction = |start, wait, already_started| Prediction {
        job_id,
        scheduler: scheduler.to_string(),
        start,
        wait,
        already_started,
    };
    if let Some(start) = started(&state) {
        return Ok(prediction(start, 0.0, true));
    }
    let since = match state {
        JobState::Pending { submit } => submit,
        JobState::Queued { queued_at } => queued_at,
        _ => return Err(ProbeError::NeverStarts(job_id)),
    };
    let mut policy = by_name(scheduler, MACHINE)?;
    twin.poke(policy.as_mut());
    loop {
        if let Some(start) = twin.job_state(job_id).as_ref().and_then(started) {
            return Ok(prediction(start, (start - since).max(0.0), false));
        }
        if !twin.step(policy.as_mut()) {
            return Err(ProbeError::NeverStarts(job_id));
        }
    }
}

proptest! {
    #[test]
    fn probes_match_the_full_copy_and_leave_no_trace(
        ops in proptest::collection::vec(op(), 1..30),
    ) {
        let names = scheduler_names();
        for &live in &names {
            let mut session = Session::new(live);
            let mut twin = Session::new(live);
            for (i, op) in ops.iter().enumerate() {
                if let Op::Probe(back) = *op {
                    let id = session.target(back);
                    for &under in &names {
                        prop_assert_eq!(
                            probe_start(&session.sim, id, under),
                            probe_by_replay(live, &ops[..i], id, under),
                            "probe of job {} under {} in a {} session",
                            id,
                            under,
                            live
                        );
                    }
                }
                prop_assert_eq!(session.apply(op), twin.apply(op));
            }
            let probed = session.sim.finish(session.policy.as_mut());
            let unprobed = twin.sim.finish(twin.policy.as_mut());
            prop_assert_eq!(encode_result(&probed), encode_result(&unprobed));
        }
    }
}
