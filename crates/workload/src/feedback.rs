//! Feedback: user sessions, think times, and dependency chains.
//!
//! Section 2.2 argues that "the workload on a production machine is ... the result
//! of interleaving the sequences of activities performed by many human beings" and
//! that the instant at which a job is submitted may depend on the termination of a
//! previous job. The SWF standard therefore carries two fields — *preceding job* and
//! *think time* — that make such dependencies explicit.
//!
//! This module provides both directions:
//!
//! * [`infer_dependencies`] implements the paper's "educated guess" methodology: it
//!   identifies sequences of jobs by the same user submitted in rapid succession
//!   after the previous job terminated, and rewrites them as explicit
//!   preceding-job / think-time pairs.
//! * [`SessionModel`] generates closed-loop workloads organized as user sessions
//!   from scratch (think time between dependent jobs, breaks between sessions).
//! * [`dependency_chains`] extracts the chains back out of a log, for analysis and
//!   for the closed-loop simulation driver.

use crate::model::{model_rng, CommonParams, WorkloadModel};
use psbench_swf::{clean, SwfHeader, SwfLog, SwfRecord};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Parameters of the dependency-inference heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceParams {
    /// A job is considered dependent on the user's previous job if it was submitted
    /// no later than this many seconds after that job terminated.
    pub max_think_time: i64,
    /// Jobs submitted while the user's previous job was still running are treated as
    /// independent (the user clearly did not wait for the result) unless this is true.
    pub chain_overlapping: bool,
}

impl Default for InferenceParams {
    fn default() -> Self {
        InferenceParams {
            max_think_time: 20 * 60,
            chain_overlapping: false,
        }
    }
}

/// Statistics reported by [`infer_dependencies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct InferenceReport {
    /// Number of jobs that were given a preceding-job dependency.
    pub dependent_jobs: usize,
    /// Number of distinct dependency chains (sessions) found.
    pub chains: usize,
}

/// Insert postulated feedback dependencies into a log, following the methodology of
/// Section 2.2: for each user, a job submitted within `max_think_time` of the
/// termination of that user's previous job depends on it, with the think time set
/// to the actual gap.
pub fn infer_dependencies(log: &mut SwfLog, params: &InferenceParams) -> InferenceReport {
    let mut report = InferenceReport::default();
    // Jobs must be processed in submit order; the log invariant guarantees this.
    // Track, per user, the last job's id, end time, and whether it started a chain.
    struct Last {
        job_id: u64,
        end_time: i64,
        chain_started: bool,
    }
    let mut last_by_user: HashMap<u32, Last> = HashMap::new();
    for j in log.jobs.iter_mut().filter(|j| j.is_summary()) {
        let user = match j.user_id {
            Some(u) => u,
            None => continue,
        };
        // Model-generated workloads have no wait times; assume the job started at
        // submission for the purpose of estimating when its user saw the result.
        let end = j
            .end_time()
            .or_else(|| j.run_time.map(|r| j.submit_time + r));
        if let Some(prev) = last_by_user.get_mut(&user) {
            let gap = j.submit_time - prev.end_time;
            let dependent = if gap >= 0 {
                gap <= params.max_think_time
            } else {
                params.chain_overlapping
            };
            if dependent {
                j.preceding_job = Some(prev.job_id);
                j.think_time = Some(gap.max(0));
                report.dependent_jobs += 1;
                if !prev.chain_started {
                    report.chains += 1;
                    prev.chain_started = true;
                }
            }
        }
        if let Some(e) = end {
            let started = j.preceding_job.is_some()
                && last_by_user
                    .get(&user)
                    .map(|p| p.chain_started)
                    .unwrap_or(false);
            last_by_user.insert(
                user,
                Last {
                    job_id: j.job_id,
                    end_time: e,
                    chain_started: started,
                },
            );
        }
    }
    report
}

/// One dependency chain: job ids in order, each depending on the previous.
pub type Chain = Vec<u64>;

/// Extract the dependency chains of a log (each chain is a maximal path through the
/// preceding-job links). Jobs without dependencies form singleton chains only if
/// some other job depends on them; isolated jobs are not reported.
pub fn dependency_chains(log: &SwfLog) -> Vec<Chain> {
    let mut successor: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut has_predecessor: HashMap<u64, bool> = HashMap::new();
    for j in log.summaries() {
        if let Some(p) = j.preceding_job {
            successor.entry(p).or_default().push(j.job_id);
            has_predecessor.insert(j.job_id, true);
            has_predecessor.entry(p).or_insert(false);
        }
    }
    let mut chains = Vec::new();
    let mut roots: Vec<u64> = has_predecessor
        .iter()
        .filter(|(_, &has)| !has)
        .map(|(&id, _)| id)
        .collect();
    roots.sort_unstable();
    for root in roots {
        // Follow the (first) successor repeatedly; branches start new chains.
        let mut chain = vec![root];
        let mut cur = root;
        while let Some(next) = successor.get(&cur).and_then(|v| v.first()).copied() {
            chain.push(next);
            cur = next;
        }
        chains.push(chain);
    }
    chains
}

/// A closed-loop session workload generator: a fixed population of users each
/// alternates between thinking and submitting the next job of their session; after
/// a session ends the user takes a long break. Because the workload is generated
/// open-loop here (we do not know the schedule yet), the dependency structure is
/// recorded in the SWF feedback fields and the *simulator* realizes the closed loop
/// by releasing dependent jobs only after their predecessors finish.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionModel {
    /// Parameters shared by all models.
    pub common: CommonParams,
    /// Number of concurrently active users.
    pub active_users: u32,
    /// Mean number of jobs per session (geometric).
    pub mean_session_length: f64,
    /// Mean think time between dependent jobs, seconds (exponential).
    pub mean_think_time: f64,
    /// Mean break between sessions of the same user, seconds (exponential).
    pub mean_break: f64,
    /// Mean runtime of a job, seconds (exponential).
    pub mean_runtime: f64,
    /// Probability that a job is serial; otherwise a power of two up to the machine size.
    pub p_serial: f64,
}

impl Default for SessionModel {
    fn default() -> Self {
        SessionModel {
            common: CommonParams::default(),
            active_users: 32,
            mean_session_length: 4.0,
            mean_think_time: 300.0,
            mean_break: 4.0 * 3600.0,
            mean_runtime: 1200.0,
            p_serial: 0.3,
        }
    }
}

impl WorkloadModel for SessionModel {
    fn name(&self) -> &'static str {
        "sessions"
    }

    fn machine_size(&self) -> u32 {
        self.common.machine_size
    }

    fn generate(&self, n_jobs: usize, seed: u64) -> SwfLog {
        let mut rng = model_rng(seed);
        let mut records: Vec<SwfRecord> = Vec::with_capacity(n_jobs);
        // Per-user virtual clocks assuming nominal wait times of zero; the simulator
        // will re-derive actual submit times from the dependencies.
        let users = self.active_users.max(1);
        let mut user_clock: Vec<f64> = (0..users)
            .map(|_| crate::dist::exponential(&mut rng, self.mean_break))
            .collect();
        let mut next_id = 1u64;
        while records.len() < n_jobs {
            // The next event belongs to the user with the earliest clock.
            let (u, _) = user_clock
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            let mut t = user_clock[u];
            // One session of geometrically many jobs, chained by think times.
            let p_end = (1.0 / self.mean_session_length.max(1.0)).clamp(0.05, 1.0);
            let mut prev: Option<(u64, f64)> = None; // (job id, end time)
            loop {
                if records.len() >= n_jobs {
                    break;
                }
                let runtime = crate::dist::exponential(&mut rng, self.mean_runtime)
                    .ceil()
                    .max(1.0);
                let procs = if rng.gen_bool(self.p_serial) {
                    1
                } else {
                    let max_exp = (self.common.machine_size as f64).log2().floor() as u32;
                    1u32 << rng.gen_range(1..=max_exp.max(1))
                };
                let mut rec = SwfRecord::rigid(next_id, t.round() as i64, runtime as i64, procs);
                rec.user_id = Some(u as u32 + 1);
                rec.group_id = Some(1);
                rec.queue_id = Some(1);
                rec.status = psbench_swf::CompletionStatus::Completed;
                rec.requested_time = self.common.estimates.estimate(
                    &mut rng,
                    runtime as i64,
                    Some(self.common.max_runtime),
                );
                if let Some((pid, _)) = prev {
                    let think =
                        crate::dist::exponential(&mut rng, self.mean_think_time).round() as i64;
                    rec.preceding_job = Some(pid);
                    rec.think_time = Some(think);
                }
                let end = t + runtime;
                prev = Some((next_id, end));
                records.push(rec);
                next_id += 1;
                if rng.gen_bool(p_end) {
                    break;
                }
                let think = crate::dist::exponential(&mut rng, self.mean_think_time);
                t = end + think;
            }
            let session_end = prev.map(|(_, e)| e).unwrap_or(t);
            user_clock[u] = session_end + crate::dist::exponential(&mut rng, self.mean_break);
        }
        let mut header = SwfHeader::synthetic(self.name(), self.common.machine_size);
        header.max_runtime = Some(self.common.max_runtime);
        header
            .notes
            .push("Closed-loop session workload: fields 17/18 carry the dependencies".to_string());
        // The ids ascend in generation order, so `clean` sorts by submit as a
        // stable sort would, rebases, and renumbers jobs and references 1..n.
        let mut log = SwfLog::new(header, records);
        clean(&mut log);
        log
    }
}

/// Remove all feedback information from a log (turning a closed workload into an
/// open one), for open-versus-closed comparisons (experiment E4).
pub fn strip_dependencies(log: &mut SwfLog) -> usize {
    let mut stripped = 0;
    for j in &mut log.jobs {
        if j.preceding_job.is_some() || j.think_time.is_some() {
            j.preceding_job = None;
            j.think_time = None;
            stripped += 1;
        }
    }
    stripped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lublin99::Lublin99;
    use psbench_swf::validate;

    #[test]
    fn infer_dependencies_links_rapid_successions() {
        // One user submits three jobs back to back; another submits one far later.
        let mut log = SwfLog::default();
        log.header.max_nodes = Some(16);
        let mk = |id: u64, submit: i64, wait: i64, run: i64, user: u32| {
            let mut r = SwfRecord::rigid(id, submit, run, 1);
            r.wait_time = Some(wait);
            r.user_id = Some(user);
            r.status = psbench_swf::CompletionStatus::Completed;
            r
        };
        log.jobs.push(mk(1, 0, 0, 100, 1)); // ends at 100
        log.jobs.push(mk(2, 150, 0, 100, 1)); // 50s after end -> dependent
        log.jobs.push(mk(3, 200, 0, 100, 2)); // different user -> independent
        log.jobs.push(mk(4, 10_000, 0, 100, 1)); // far later -> independent
        let report = infer_dependencies(&mut log, &InferenceParams::default());
        assert_eq!(report.dependent_jobs, 1);
        assert_eq!(report.chains, 1);
        assert_eq!(log.jobs[1].preceding_job, Some(1));
        assert_eq!(log.jobs[1].think_time, Some(50));
        assert_eq!(log.jobs[2].preceding_job, None);
        assert_eq!(log.jobs[3].preceding_job, None);
        assert!(validate(&log).is_clean());
    }

    #[test]
    fn infer_dependencies_skips_overlapping_submissions_by_default() {
        let mut log = SwfLog::default();
        log.header.max_nodes = Some(16);
        let mut a = SwfRecord::rigid(1, 0, 1000, 1);
        a.wait_time = Some(0);
        a.user_id = Some(1);
        let mut b = SwfRecord::rigid(2, 100, 50, 1);
        b.wait_time = Some(0);
        b.user_id = Some(1);
        log.jobs.push(a);
        log.jobs.push(b);
        let report = infer_dependencies(&mut log, &InferenceParams::default());
        assert_eq!(report.dependent_jobs, 0);
        let report2 = infer_dependencies(
            &mut log,
            &InferenceParams {
                chain_overlapping: true,
                ..InferenceParams::default()
            },
        );
        assert_eq!(report2.dependent_jobs, 1);
        assert_eq!(log.jobs[1].think_time, Some(0));
    }

    #[test]
    fn infer_dependencies_on_model_output_finds_sessions() {
        let mut log = Lublin99::default().generate(3_000, 77);
        let report = infer_dependencies(&mut log, &InferenceParams::default());
        assert!(
            report.dependent_jobs > 100,
            "dependent {}",
            report.dependent_jobs
        );
        assert!(validate(&log).is_clean());
    }

    #[test]
    fn dependency_chains_extraction() {
        let mut log = SwfLog::default();
        let mk = |id: u64, submit: i64| SwfRecord::rigid(id, submit, 10, 1);
        log.jobs.push(mk(1, 0));
        let mut j2 = mk(2, 20);
        j2.preceding_job = Some(1);
        j2.think_time = Some(5);
        log.jobs.push(j2);
        let mut j3 = mk(3, 40);
        j3.preceding_job = Some(2);
        j3.think_time = Some(5);
        log.jobs.push(j3);
        log.jobs.push(mk(4, 50));
        let chains = dependency_chains(&log);
        assert_eq!(chains, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn session_model_generates_valid_closed_workload() {
        let model = SessionModel::default();
        let log = model.generate(1_000, 13);
        assert_eq!(log.len(), 1_000);
        assert!(validate(&log).is_clean());
        let dependent = log
            .summaries()
            .filter(|j| j.preceding_job.is_some())
            .count();
        assert!(dependent > 300, "dependent jobs {dependent}");
        // every dependency points backwards
        for j in log.summaries() {
            if let Some(p) = j.preceding_job {
                assert!(p < j.job_id);
            }
        }
        let chains = dependency_chains(&log);
        assert!(!chains.is_empty());
        assert_eq!(model.name(), "sessions");
        assert_eq!(model.machine_size(), 128);
    }

    #[test]
    fn session_model_deterministic() {
        let a = SessionModel::default().generate(300, 3);
        let b = SessionModel::default().generate(300, 3);
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn strip_dependencies_removes_all_feedback() {
        let mut log = SessionModel::default().generate(500, 4);
        let n = strip_dependencies(&mut log);
        assert!(n > 0);
        assert!(log
            .jobs
            .iter()
            .all(|j| j.preceding_job.is_none() && j.think_time.is_none()));
        assert_eq!(strip_dependencies(&mut log), 0);
    }
}
