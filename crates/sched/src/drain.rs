//! Outage-aware scheduling.
//!
//! Section 2.2 argues that outage information "is often available to the job
//! scheduler so that jobs can be scheduled around the outages, or such that the
//! system is drained up to the outage". This policy wraps EASY backfilling with
//! that behaviour: it refuses to start jobs whose estimated completion would
//! collide with an announced outage unless enough capacity remains during the
//! overlap.

use crate::backfill::EasyBackfill;
use crate::calendar::{StepFn, StepVec};
use psbench_sim::{Decision, Scheduler, SchedulerContext, SchedulerEvent};

/// EASY backfilling that drains before announced outages.
#[derive(Debug, Clone)]
pub struct DrainingEasy {
    /// The announced capacity drops as one step function: at each instant,
    /// minus the processors promised away to outages. Anchored at −∞, so no
    /// instant before the first drop reads a drop's value.
    drops: StepVec,
    inner: EasyBackfill,
}

impl Default for DrainingEasy {
    fn default() -> Self {
        DrainingEasy {
            drops: StepVec::anchored(f64::NEG_INFINITY, 0.0),
            inner: EasyBackfill::default(),
        }
    }
}

impl DrainingEasy {
    /// New draining scheduler with no announced outages yet.
    pub fn new() -> Self {
        DrainingEasy::default()
    }

    /// Book an announced drop of `procs` processors over `[start, end)`.
    fn announce(&mut self, start: f64, end: f64, procs: u32) {
        self.drops.add_range(start, end, -f64::from(procs));
    }

    /// Capacity that is promised away to announced outages during
    /// `[from, to)`, at its worst instant: the least value of the summed
    /// drops over the window — not the separate maxima added, which
    /// overstates the loss whenever the drops never coincide (and made this
    /// policy refuse backfills that were perfectly safe). Sums of whole
    /// processors are exact in `f64`.
    fn promised_away(&self, from: f64, to: f64) -> f64 {
        -self.drops.window_min(from, to)
    }

    /// Would starting `procs` processors now, for `duration` seconds, collide with a
    /// future capacity drop? The test is conservative: during the overlap the
    /// machine must still hold the already-running load plus this job plus the drop.
    fn collides(&self, ctx: &SchedulerContext<'_>, procs: f64, duration: f64) -> bool {
        let from = ctx.now;
        let to = ctx.now + duration;
        let promised = self.promised_away(from, to);
        if promised <= 0.0 {
            return false;
        }
        // Load that will still be there during the drop: assume currently running
        // jobs may still be running (conservative), plus this candidate.
        let used = ctx.used_capacity();
        used + procs + promised > ctx.cluster.available_procs() as f64 + 1e-9
    }
}

impl Scheduler for DrainingEasy {
    fn name(&self) -> &str {
        "draining-easy"
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        match event {
            SchedulerEvent::OutageAnnounced { start, end, procs } => {
                self.announce(start, end, procs);
            }
            // Forget the drops before now.
            SchedulerEvent::OutageEnded { .. } => self.drops.advance_to(ctx.now),
            _ => {}
        }
        // Ask EASY what it would do, then veto starts that collide with an announced
        // capacity drop. The inner planner consults the backlog index (and handles
        // batched completion consults), so the wrapper's own cost is O(proposed
        // decisions).
        let proposed = self.inner.react(ctx, event);
        let mut out = Vec::new();
        let mut vetoed = false;
        for d in proposed {
            match d {
                Decision::Start {
                    job_id,
                    procs,
                    share,
                } => {
                    let job = ctx.queue.get(job_id);
                    let keep = match job {
                        Some(q) => {
                            let p = procs.unwrap_or(q.job.procs) as f64 * share;
                            !self.collides(ctx, p, q.job.estimate.max(1.0))
                        }
                        None => false,
                    };
                    if keep {
                        out.push(d);
                    } else {
                        vetoed = true;
                    }
                }
                other => out.push(other),
            }
        }
        if vetoed {
            // The inner planner's caches assume its proposed starts happened;
            // a vetoed start leaves them describing a state that never did.
            self.inner.invalidate();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::EasyBackfill;
    use proptest::prelude::*;
    use psbench_sim::{SimConfig, SimJob, Simulation};
    use psbench_swf::outage::{OutageKind, OutageLog, OutageRecord};

    /// The edge sum the step function replaced, kept as its oracle: the
    /// drops `(start, end, procs)` summed at `from` and at every drop edge
    /// inside `(from, to)`, the worst of those instants.
    fn edge_sum(drops: &[(f64, f64, u32)], from: f64, to: f64) -> f64 {
        let mut points: Vec<f64> = vec![from];
        for &(start, end, _) in drops {
            if start < to && from < end {
                if start > from {
                    points.push(start);
                }
                if end < to {
                    points.push(end);
                }
            }
        }
        let mut worst = 0u32;
        for &t in &points {
            let outage: u32 = drops
                .iter()
                .filter(|d| t >= d.0 && t < d.1)
                .map(|d| d.2)
                .sum();
            worst = worst.max(outage);
        }
        worst as f64
    }

    proptest! {
        #[test]
        fn promised_away_matches_the_edge_sum(
            ops in proptest::collection::vec((0u32..3, 0u32..800, 0u32..400, 0u32..48), 1..80),
        ) {
            // Times on a quarter-second grid, so edges often coincide.
            let mut d = DrainingEasy::new();
            let mut drops: Vec<(f64, f64, u32)> = Vec::new();
            let mut now = 0.0;
            for (kind, a, b, procs) in ops {
                let (a, b) = (f64::from(a) / 4.0, f64::from(b) / 4.0);
                match kind {
                    // Announce, possibly starting before now.
                    0 => {
                        let start = now + a - 50.0;
                        d.announce(start, start + b, procs);
                        drops.push((start, start + b, procs));
                    }
                    // An outage ends: the clock moves on and both forget.
                    1 => {
                        now += a;
                        d.drops.advance_to(now);
                        drops.retain(|x| x.1 > now);
                    }
                    _ => {
                        let (from, to) = (now + a, now + a + b.max(1.0));
                        // Equal as numbers (no drop reads −0 here, 0 there).
                        prop_assert_eq!(d.promised_away(from, to), edge_sum(&drops, from, to));
                    }
                }
            }
        }
    }

    fn maintenance(announce: i64, start: i64, end: i64, procs: u32) -> OutageLog {
        OutageLog::from_records(vec![OutageRecord {
            outage_id: 0,
            announced_time: Some(announce),
            start_time: start,
            end_time: end,
            kind: OutageKind::Maintenance,
            nodes_affected: Some(procs),
            components: vec![],
        }])
    }

    #[test]
    fn drains_before_announced_full_machine_outage() {
        // A 500-second job arriving shortly before a full-machine maintenance window
        // would be killed by plain EASY (and restart after), but the draining policy
        // holds it until after the outage.
        let outages = maintenance(0, 100, 200, 64);
        let jobs = vec![SimJob::rigid(1, 10.0, 500.0, 32)];
        let easy = Simulation::new(
            SimConfig::new(64).with_outages(outages.clone()),
            jobs.clone(),
        )
        .run(&mut EasyBackfill::default());
        let drain = Simulation::new(SimConfig::new(64).with_outages(outages), jobs)
            .run(&mut DrainingEasy::new());
        // Plain EASY starts it at t=10, loses it to the outage, restarts at 200.
        assert_eq!(easy.kills, 1);
        let easy_job = &easy.finished[0];
        assert_eq!(easy_job.end, 700.0);
        // Draining EASY never wastes the work: no kill, starts at 200, ends at 700.
        assert_eq!(drain.kills, 0);
        let drain_job = &drain.finished[0];
        assert_eq!(drain_job.start, 200.0);
        assert_eq!(drain_job.end, 700.0);
    }

    #[test]
    fn short_jobs_still_run_before_the_outage() {
        // A 50-second job can finish before the maintenance starts, so the draining
        // policy lets it run immediately.
        let outages = maintenance(0, 100, 200, 64);
        let jobs = vec![SimJob::rigid(1, 10.0, 50.0, 32)];
        let result = Simulation::new(SimConfig::new(64).with_outages(outages), jobs)
            .run(&mut DrainingEasy::new());
        assert_eq!(result.kills, 0);
        assert_eq!(result.finished[0].start, 10.0);
        assert_eq!(result.finished[0].end, 60.0);
    }

    #[test]
    fn partial_outage_lets_small_jobs_continue() {
        // Maintenance takes 32 of 64 processors. A 16-proc job can run across the
        // window because enough capacity remains.
        let outages = maintenance(0, 100, 200, 32);
        let jobs = vec![SimJob::rigid(1, 10.0, 500.0, 16)];
        let result = Simulation::new(SimConfig::new(64).with_outages(outages), jobs)
            .run(&mut DrainingEasy::new());
        assert_eq!(result.kills, 0);
        assert_eq!(result.finished[0].start, 10.0);
    }

    #[test]
    fn disjoint_outage_and_reservation_do_not_stack() {
        // Two announced 40-proc capacity drops, in [100, 200) and [300, 400),
        // never coincide, so the worst instant of a job window spanning both
        // is 40 promised-away processors — not 80. Adding the separate maxima
        // vetoed this perfectly safe 16-proc start.
        let cluster = psbench_sim::Cluster::new(64);
        let mut d = DrainingEasy::new();
        for (start, end) in [(100.0, 200.0), (300.0, 400.0)] {
            d.announce(start, end, 40);
        }
        let queue = psbench_sim::JobQueue::new();
        let ctx = SchedulerContext {
            now: 0.0,
            cluster: &cluster,
            queue: &queue,
            running: &[],
            used_procs: 0.0,
            completed: &[],
        };
        assert_eq!(d.promised_away(0.0, 350.0), 40.0);
        assert!(
            !d.collides(&ctx, 16.0, 350.0),
            "disjoint windows must not stack; 16 + 40 fits a 64-proc machine"
        );
        // Overlapping windows still stack to their true combined worst
        // instant: add an outage coinciding with the second one.
        d.announce(320.0, 380.0, 20);
        assert_eq!(d.promised_away(0.0, 350.0), 60.0);
        assert!(d.collides(&ctx, 16.0, 350.0));
    }

    #[test]
    fn forgets_expired_outages() {
        let outages = maintenance(0, 100, 200, 64);
        let jobs = vec![
            SimJob::rigid(1, 10.0, 500.0, 32),
            SimJob::rigid(2, 300.0, 100.0, 64),
        ];
        let result = Simulation::new(SimConfig::new(64).with_outages(outages), jobs)
            .run(&mut DrainingEasy::new());
        // After the outage ends the drained job runs 200..700; job 2 (whole machine)
        // follows it without being vetoed by the already-expired outage.
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(j2.start, 700.0);
        assert_eq!(j2.end, 800.0);
        assert_eq!(result.kills, 0);
    }
}
