//! Gang scheduling with an Ousterhout matrix.
//!
//! Gang scheduling time-slices the machine between *rows* of a matrix; all the
//! processes of a job occupy one row, so they are always coscheduled — the property
//! Section 2.2 identifies as crucial for fine-grained synchronization. In the
//! simulator's rate-based execution model every job in an `R`-row matrix runs with
//! time share `1/R`.

use psbench_sim::{Decision, Scheduler, SchedulerContext, SchedulerEvent};
use serde::{Deserialize, Serialize};

/// How jobs are packed into matrix rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Packing {
    /// First fit: a new job goes into the first row with enough free processors.
    #[default]
    FirstFit,
    /// Best fit: the row with the least remaining space that still fits.
    BestFit,
}

/// One row of the Ousterhout matrix, with its occupancy maintained
/// incrementally so packing decisions don't re-sum the row per candidate.
#[derive(Debug, Clone, Default)]
struct Row {
    jobs: Vec<(u64, u32)>, // (job id, procs)
    used: u32,
}

/// An Ousterhout-matrix gang scheduler.
#[derive(Debug, Clone)]
pub struct GangScheduler {
    /// Packing rule for new jobs.
    pub packing: Packing,
    /// Maximum number of rows (multiprogramming level); jobs queue when exceeded.
    pub max_rows: usize,
    rows: Vec<Row>,
    machine: u32,
}

impl GangScheduler {
    /// Create a gang scheduler for a machine of the given size.
    pub fn new(machine_size: u32, max_rows: usize, packing: Packing) -> Self {
        GangScheduler {
            packing,
            max_rows: max_rows.max(1),
            rows: Vec::new(),
            machine: machine_size,
        }
    }

    fn push_to_row(&mut self, row: usize, job_id: u64, procs: u32) {
        self.rows[row].jobs.push((job_id, procs));
        self.rows[row].used += procs;
    }

    fn find_row(&self, procs: u32) -> Option<usize> {
        let fits = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.used + procs <= self.machine);
        match self.packing {
            Packing::FirstFit => fits.map(|(i, _)| i).next(),
            // Least remaining space first; ties by lowest row index.
            Packing::BestFit => fits
                .min_by_key(|&(i, row)| (self.machine - row.used - procs, i))
                .map(|(i, _)| i),
        }
    }

    fn remove_job(&mut self, job_id: u64) {
        // Remove *every* entry for the job: a queued-but-unstartable job can be
        // re-admitted on successive reacts and accumulate duplicate entries
        // (even within one row), and leaving any behind would permanently
        // inflate the row's occupancy and depress every share.
        for row in &mut self.rows {
            let removed: u32 = row
                .jobs
                .iter()
                .filter(|(id, _)| *id == job_id)
                .map(|(_, procs)| *procs)
                .sum();
            if removed > 0 {
                row.jobs.retain(|(id, _)| *id != job_id);
                row.used -= removed;
            }
        }
        self.rows.retain(|row| !row.jobs.is_empty());
    }

    /// Reconcile the matrix after a batched completion consult: drop every
    /// entry whose job is neither running nor queued any more. The engine
    /// coalesces same-instant completions into one `CompletionBatch` without
    /// per-id notifications, so the matrix is diffed against the context
    /// instead.
    fn purge_departed(&mut self, ctx: &SchedulerContext<'_>) {
        let running: std::collections::HashSet<u64> =
            ctx.running.iter().map(|r| r.job.id).collect();
        for row in &mut self.rows {
            let mut removed = 0u32;
            row.jobs.retain(|(id, procs)| {
                let keep = running.contains(id) || ctx.queue.get(*id).is_some();
                if !keep {
                    removed += *procs;
                }
                keep
            });
            row.used -= removed;
        }
        self.rows.retain(|row| !row.jobs.is_empty());
    }

    /// Try to admit one queued job into the matrix, recording it in `to_start`
    /// on success. Mirrors the packing rules: an existing row with space, else
    /// a new row while the multiprogramming level allows, else the job waits.
    fn try_admit(&mut self, id: u64, procs: u32, to_start: &mut Vec<(u64, u32)>) {
        let procs = procs.min(self.machine).max(1);
        match self.find_row(procs) {
            Some(r) => {
                self.push_to_row(r, id, procs);
                to_start.push((id, procs));
            }
            None if self.rows.len() < self.max_rows => {
                self.rows.push(Row {
                    jobs: vec![(id, procs)],
                    used: procs,
                });
                to_start.push((id, procs));
            }
            None => {} // matrix full: job waits in the queue
        }
    }

    /// Current number of rows (the multiprogramming level).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    fn share(&self) -> f64 {
        1.0 / self.rows.len().max(1) as f64
    }

    fn rebalance(&self, ctx: &SchedulerContext<'_>) -> Vec<Decision> {
        let share = self.share();
        // Sorted by id so the decision order (and hence the engine's ledger
        // arithmetic) is independent of the running-set layout.
        let mut ids: Vec<u64> = ctx
            .running
            .iter()
            .filter(|r| (r.share - share).abs() > 1e-9)
            .map(|r| r.job.id)
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|job_id| Decision::SetShare { job_id, share })
            .collect()
    }
}

impl Scheduler for GangScheduler {
    fn name(&self) -> &str {
        "gang"
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        // Keep the matrix consistent with what actually finished.
        match event {
            SchedulerEvent::JobCompleted { job_id } => self.remove_job(job_id),
            SchedulerEvent::CompletionBatch { .. } => self.purge_departed(ctx),
            _ => {}
        }
        // Admit queued jobs into the matrix, in arrival order. While the
        // matrix can still open rows every job is admitted, so the plain
        // arrival-order walk costs one step per admission; the moment it
        // fills, only jobs at most as wide as the emptiest row's slack can
        // enter, so the walk hands over to the backlog index — resuming at
        // its own position — and touches exactly those candidates instead of
        // the rest of the backlog.
        let mut to_start: Vec<(u64, u32)> = Vec::new();
        let mut resume: Option<Option<(f64, u64)>> = None;
        if self.rows.len() < self.max_rows {
            for q in ctx.queue.iter() {
                self.try_admit(q.job.id, q.job.procs, &mut to_start);
                if self.rows.len() == self.max_rows {
                    resume = Some(Some((q.queued_at, q.job.id)));
                    break;
                }
            }
        } else {
            resume = Some(None);
        }
        if let Some(after) = resume {
            let machine = self.machine;
            let slack = |rows: &[Row]| {
                rows.iter()
                    .map(|row| machine - row.used.min(machine))
                    .max()
                    .unwrap_or(0)
            };
            let bound = slack(&self.rows);
            if bound >= 1 {
                // Stream lazily and tighten the bound as admissions fill the
                // rows; admissions into a full matrix only reduce its slack,
                // so a dropped (too-wide) width can never become admissible
                // again within this react.
                let mut scan = ctx.queue.staircase_scan(&[(bound, f64::INFINITY)], after);
                while let Some(q) = scan.next() {
                    self.try_admit(q.id, q.procs, &mut to_start);
                    let bound = slack(&self.rows);
                    if bound < 1 {
                        break;
                    }
                    scan.tighten(&[(bound, f64::INFINITY)]);
                }
            }
        }
        // Shrink shares of already-running jobs first (so capacity frees up), then
        // start the newly admitted ones at the new share.
        let share = self.share();
        let mut decisions = self.rebalance(ctx);
        for (job_id, procs) in to_start {
            decisions.push(Decision::Start {
                job_id,
                procs: Some(procs),
                share,
            });
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_sim::{SimConfig, SimJob, Simulation};

    fn jobs(specs: &[(u64, f64, f64, u32)]) -> Vec<SimJob> {
        specs
            .iter()
            .map(|&(id, submit, rt, procs)| SimJob::rigid(id, submit, rt, procs))
            .collect()
    }

    #[test]
    fn single_row_runs_at_full_speed() {
        let js = jobs(&[(1, 0.0, 100.0, 32), (2, 0.0, 100.0, 32)]);
        let mut g = GangScheduler::new(64, 4, Packing::FirstFit);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut g);
        // Both fit in one row: no time slicing, both end at 100.
        for f in &result.finished {
            assert!((f.end - 100.0).abs() < 1e-6, "end {}", f.end);
        }
    }

    #[test]
    fn two_rows_time_slice_the_machine() {
        let js = jobs(&[(1, 0.0, 100.0, 64), (2, 0.0, 100.0, 64)]);
        let mut g = GangScheduler::new(64, 4, Packing::FirstFit);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut g);
        assert_eq!(result.finished.len(), 2);
        // Two full-machine jobs share the machine: both take ~200 s wall clock, but
        // both *start* immediately (no queueing wait), which is gang scheduling's point.
        for f in &result.finished {
            assert_eq!(f.start, 0.0);
            assert!((f.end - 200.0).abs() < 1.0, "end {}", f.end);
        }
        assert_eq!(result.rejected_decisions, 0);
    }

    #[test]
    fn completion_restores_full_speed_to_remaining_jobs() {
        // Job 1 is short; once it completes, job 2 should speed back up.
        let js = jobs(&[(1, 0.0, 50.0, 64), (2, 0.0, 100.0, 64)]);
        let mut g = GangScheduler::new(64, 4, Packing::FirstFit);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut g);
        let j1 = result.finished.iter().find(|f| f.id == 1).unwrap();
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        // Job 1 runs at 1/2 speed until done at t=100. Job 2 then has 50 s of work
        // left and runs at full speed: ends at 150.
        assert!((j1.end - 100.0).abs() < 1.0, "j1 end {}", j1.end);
        assert!((j2.end - 150.0).abs() < 1.0, "j2 end {}", j2.end);
    }

    #[test]
    fn max_rows_limits_multiprogramming() {
        let js = jobs(&[
            (1, 0.0, 100.0, 64),
            (2, 0.0, 100.0, 64),
            (3, 0.0, 100.0, 64),
        ]);
        let mut g = GangScheduler::new(64, 2, Packing::FirstFit);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut g);
        assert_eq!(result.finished.len(), 3);
        // Only two jobs share the machine at first; the third starts only after one
        // of them completes.
        let starts: Vec<f64> = result.finished.iter().map(|f| f.start).collect();
        assert_eq!(starts.iter().filter(|&&s| s == 0.0).count(), 2);
        assert_eq!(starts.iter().filter(|&&s| s > 0.0).count(), 1);
    }

    #[test]
    fn best_fit_packs_tighter_than_first_fit() {
        // Rows after jobs of 32 and 48 procs on a 64-proc machine: first-fit puts a
        // 16-proc job in row 0 (with the 32), best-fit puts it in row 1 (with the 48).
        let mut ff = GangScheduler::new(64, 4, Packing::FirstFit);
        let mut bf = GangScheduler::new(64, 4, Packing::BestFit);
        for g in [&mut ff, &mut bf] {
            g.rows.push(Row {
                jobs: vec![(1, 32)],
                used: 32,
            });
            g.rows.push(Row {
                jobs: vec![(2, 48)],
                used: 48,
            });
        }
        assert_eq!(ff.find_row(16), Some(0));
        assert_eq!(bf.find_row(16), Some(1));
    }

    #[test]
    fn gang_starts_jobs_immediately_that_space_sharing_queues() {
        use crate::queue_order::Fcfs;
        let js = jobs(&[(1, 0.0, 1000.0, 64), (2, 1.0, 10.0, 64)]);
        let fcfs = Simulation::new(SimConfig::new(64), js.clone()).run(&mut Fcfs);
        let mut g = GangScheduler::new(64, 4, Packing::FirstFit);
        let gang = Simulation::new(SimConfig::new(64), js).run(&mut g);
        let wait = |r: &psbench_sim::SimulationResult, id: u64| {
            r.finished.iter().find(|f| f.id == id).unwrap().wait()
        };
        assert!(wait(&fcfs, 2) > 900.0);
        assert!(wait(&gang, 2) < 1.0 + 1e-9);
        // and the short job's *response* is far better under gang scheduling
        let resp = |r: &psbench_sim::SimulationResult, id: u64| {
            r.finished.iter().find(|f| f.id == id).unwrap().response()
        };
        assert!(resp(&gang, 2) < resp(&fcfs, 2) / 10.0);
    }

    #[test]
    fn remove_job_purges_duplicate_matrix_entries() {
        // A queued-but-unstartable job can be re-admitted on successive reacts
        // and accumulate duplicate entries, even within one row; completion
        // must purge them all or the row's occupancy stays inflated forever.
        let mut g = GangScheduler::new(64, 4, Packing::FirstFit);
        g.rows.push(Row {
            jobs: vec![(1, 16), (1, 16), (2, 8)],
            used: 40,
        });
        g.rows.push(Row {
            jobs: vec![(1, 16)],
            used: 16,
        });
        g.remove_job(1);
        assert_eq!(g.rows.len(), 1);
        assert_eq!(g.rows[0].jobs, vec![(2, 8)]);
        assert_eq!(g.rows[0].used, 8);
        g.remove_job(2);
        assert_eq!(g.rows(), 0);
    }

    #[test]
    fn matrix_bookkeeping_on_large_workload() {
        let js: Vec<SimJob> = (0..120)
            .map(|i| {
                SimJob::rigid(
                    i + 1,
                    (i * 10) as f64,
                    100.0 + (i % 4) as f64 * 200.0,
                    1 + (i % 64) as u32,
                )
            })
            .collect();
        let mut g = GangScheduler::new(64, 5, Packing::BestFit);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut g);
        assert_eq!(result.finished.len(), 120);
        assert_eq!(result.unfinished, 0);
    }
}
