//! A complete standard workload: header plus job records.

use crate::header::SwfHeader;
use crate::idhash::IdMap;
use crate::record::{CompletionStatus, SwfRecord};
use crate::source::LogSource;
use serde::{Deserialize, Serialize};

/// A workload in the standard format: a typed header and a list of job records in
/// file order (ascending submit time for a conforming log).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SwfLog {
    /// The header comments of the log.
    pub header: SwfHeader,
    /// The job records, in file order.
    pub jobs: Vec<SwfRecord>,
}

impl SwfLog {
    /// Create a log from a header and records.
    pub fn new(header: SwfHeader, jobs: Vec<SwfRecord>) -> Self {
        SwfLog { header, jobs }
    }

    /// Number of job records (including partial-execution lines of checkpointed jobs).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the log has no job records.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterate over whole-job summary records only, skipping partial-execution lines
    /// (completion codes 2/3/4). Workload studies should use exactly these records.
    pub fn summaries(&self) -> impl Iterator<Item = &SwfRecord> {
        self.jobs.iter().filter(|j| j.is_summary())
    }

    /// Iterate over the partial-execution lines (codes 2/3/4) only.
    pub fn partials(&self) -> impl Iterator<Item = &SwfRecord> {
        self.jobs.iter().filter(|j| !j.is_summary())
    }

    /// Replay this in-memory log as a streaming [`crate::source::JobSource`],
    /// so materialized and streamed workloads share one consumer API.
    pub fn as_source(&self, name: impl Into<String>) -> LogSource<'_> {
        LogSource::new(name, self)
    }

    /// The submit time of the first job, or 0 for an empty log.
    pub fn first_submit(&self) -> i64 {
        self.jobs.iter().map(|j| j.submit_time).min().unwrap_or(0)
    }

    /// The latest known event time in the log (maximum of end times and submit times).
    pub fn last_event(&self) -> i64 {
        self.jobs
            .iter()
            .map(|j| j.end_time().unwrap_or(j.submit_time))
            .max()
            .unwrap_or(0)
    }

    /// Log duration in seconds: last event minus first submit.
    pub fn duration(&self) -> i64 {
        (self.last_event() - self.first_submit()).max(0)
    }

    /// Total processor-seconds of work in the summary records (where known).
    pub fn total_area(&self) -> i64 {
        self.summaries().filter_map(|j| j.area()).sum()
    }

    /// The largest processor count requested or allocated by any job.
    pub fn max_job_procs(&self) -> u32 {
        self.jobs
            .iter()
            .filter_map(|j| j.procs())
            .max()
            .unwrap_or(0)
    }

    /// The machine size to use for utilization computations: the header's `MaxNodes`
    /// if present, otherwise the largest job size observed.
    pub fn machine_size(&self) -> u32 {
        self.header
            .max_nodes
            .unwrap_or_else(|| self.max_job_procs())
    }

    /// Offered load of the log: total work area divided by machine capacity over the
    /// log duration. Returns `None` for an empty or zero-duration log.
    pub fn offered_load(&self) -> Option<f64> {
        let dur = self.duration();
        let size = self.machine_size();
        if dur <= 0 || size == 0 {
            return None;
        }
        Some(self.total_area() as f64 / (dur as f64 * size as f64))
    }

    /// Number of distinct users appearing in the log.
    pub fn user_count(&self) -> usize {
        let mut users: Vec<u32> = self.jobs.iter().filter_map(|j| j.user_id).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }

    /// Sort records by ascending submit time, breaking ties by job id; records
    /// that tie on both (a checkpointed job's partial lines share their
    /// summary's id and submit time) keep their relative order. A conforming
    /// log is already sorted; this restores the invariant after edits.
    ///
    /// The sort moves keys, not records. It sorts one 24-byte
    /// `(submit_time, job_id, index)` key per record; the index makes every key
    /// unique, so an unstable sort yields the stable order. It then applies
    /// that permutation in place by following its cycles, so each record moves
    /// once and no second buffer of records is allocated. A sorted log is
    /// checked in one pass and left alone.
    pub fn sort_by_submit(&mut self) {
        let sorted = self
            .jobs
            .windows(2)
            .all(|w| (w[0].submit_time, w[0].job_id) <= (w[1].submit_time, w[1].job_id));
        if sorted {
            return;
        }
        // `order[k].2` names the record that belongs at position k. Each cycle
        // is filled hole by hole from its source, and every filled position is
        // marked done by pointing its entry at itself.
        let mut order = submit_order(&self.jobs);
        for start in 0..order.len() {
            if order[start].2 == start {
                continue;
            }
            let first = self.jobs[start].clone();
            let mut hole = start;
            loop {
                let src = std::mem::replace(&mut order[hole].2, hole);
                if src == start {
                    self.jobs[hole] = first;
                    break;
                }
                self.jobs[hole] = self.jobs[src].clone();
                hole = src;
            }
        }
    }

    /// Shift all submit times so the earliest submit becomes zero, as the standard
    /// requires. Start/end times move implicitly since they are stored as offsets.
    pub fn rebase_times(&mut self) {
        let base = self.first_submit();
        if base != 0 {
            for j in &mut self.jobs {
                j.submit_time -= base;
            }
        }
    }

    /// Renumber jobs 1..n in current record order, remapping `preceding_job`
    /// references accordingly. Partial-execution lines keep the id of their summary
    /// line (identified by sharing the old id).
    pub fn renumber(&mut self) {
        let mut mapping: IdMap<u64> = IdMap::default();
        let mut next = 1u64;
        for j in &mut self.jobs {
            let new_id = *mapping.entry(j.job_id).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            j.job_id = new_id;
        }
        for j in &mut self.jobs {
            if let Some(p) = j.preceding_job {
                j.preceding_job = mapping.get(&p).copied();
                if j.preceding_job.is_none() {
                    j.think_time = None;
                }
            }
        }
    }

    /// Retain only summary records (drop checkpoint/swap partial lines).
    pub fn drop_partials(&mut self) {
        self.jobs.retain(|j| j.is_summary());
    }

    /// Retain only jobs that completed successfully (code 1).
    pub fn completed_only(&self) -> SwfLog {
        SwfLog {
            header: self.header.clone(),
            jobs: self
                .jobs
                .iter()
                .filter(|j| j.status == CompletionStatus::Completed)
                .cloned()
                .collect(),
        }
    }

    /// Return a copy containing only the first `n` summary jobs (partials dropped).
    pub fn truncate_jobs(&self, n: usize) -> SwfLog {
        SwfLog {
            header: self.header.clone(),
            jobs: self.summaries().take(n).cloned().collect(),
        }
    }

    /// Scale all interarrival gaps by `factor` (>1 stretches the log, lowering load;
    /// <1 compresses it, raising load). Wait/run times are unchanged; the first
    /// submit time is preserved.
    pub fn scale_interarrivals(&mut self, factor: f64) {
        assert!(factor > 0.0, "interarrival scale factor must be positive");
        let order = submit_order(&self.jobs);
        let Some(&(base, _, _)) = order.first() else {
            return;
        };
        let mut prev_orig = base;
        let mut prev_new = base as f64;
        for &(orig, _, i) in &order {
            let gap = (orig - prev_orig) as f64;
            let new = prev_new + gap * factor;
            prev_orig = orig;
            prev_new = new;
            self.jobs[i].submit_time = new.round() as i64;
        }
    }
}

/// The `(submit_time, job_id, index)` key of every record, sorted: the order
/// in which a stable sort by `(submit_time, job_id)` leaves the records.
fn submit_order(jobs: &[SwfRecord]) -> Vec<(i64, u64, usize)> {
    let mut keys: Vec<(i64, u64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.submit_time, j.job_id, i))
        .collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SwfRecordBuilder;

    fn sample_log() -> SwfLog {
        let header = SwfHeader {
            max_nodes: Some(8),
            ..SwfHeader::default()
        };
        let jobs = vec![
            SwfRecordBuilder::new(1, 0)
                .wait_time(0)
                .run_time(100)
                .allocated_procs(4)
                .status(CompletionStatus::Completed)
                .user_id(1)
                .build(),
            SwfRecordBuilder::new(2, 50)
                .wait_time(10)
                .run_time(200)
                .allocated_procs(8)
                .status(CompletionStatus::Completed)
                .user_id(2)
                .build(),
            SwfRecordBuilder::new(3, 120)
                .wait_time(5)
                .run_time(10)
                .allocated_procs(1)
                .status(CompletionStatus::Failed)
                .user_id(1)
                .build(),
        ];
        SwfLog::new(header, jobs)
    }

    #[test]
    fn basic_accessors() {
        let log = sample_log();
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.first_submit(), 0);
        assert_eq!(log.last_event(), 260);
        assert_eq!(log.duration(), 260);
        assert_eq!(log.max_job_procs(), 8);
        assert_eq!(log.machine_size(), 8);
        assert_eq!(log.user_count(), 2);
    }

    #[test]
    fn total_area_and_load() {
        let log = sample_log();
        // 100*4 + 200*8 + 10*1 = 2010 processor-seconds
        assert_eq!(log.total_area(), 2010);
        let load = log.offered_load().unwrap();
        assert!((load - 2010.0 / (260.0 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn machine_size_falls_back_to_max_job() {
        let mut log = sample_log();
        log.header.max_nodes = None;
        assert_eq!(log.machine_size(), 8);
    }

    #[test]
    fn empty_log_edge_cases() {
        let log = SwfLog::default();
        assert!(log.is_empty());
        assert_eq!(log.duration(), 0);
        assert_eq!(log.offered_load(), None);
        assert_eq!(log.total_area(), 0);
    }

    #[test]
    fn sort_and_rebase() {
        let mut log = sample_log();
        log.jobs.reverse();
        log.jobs[0].submit_time += 30; // perturb
        log.sort_by_submit();
        assert!(log
            .jobs
            .windows(2)
            .all(|w| w[0].submit_time <= w[1].submit_time));
        for j in &mut log.jobs {
            j.submit_time += 1000;
        }
        log.rebase_times();
        assert_eq!(log.first_submit(), 0);
    }

    #[test]
    fn renumber_remaps_dependencies() {
        let mut log = SwfLog::default();
        log.jobs.push(SwfRecordBuilder::new(10, 0).build());
        log.jobs
            .push(SwfRecordBuilder::new(20, 5).depends_on(10, 60).build());
        log.jobs
            .push(SwfRecordBuilder::new(30, 9).depends_on(99, 5).build());
        log.renumber();
        assert_eq!(log.jobs[0].job_id, 1);
        assert_eq!(log.jobs[1].job_id, 2);
        assert_eq!(log.jobs[1].preceding_job, Some(1));
        assert_eq!(log.jobs[1].think_time, Some(60));
        // dangling dependency is dropped along with its think time
        assert_eq!(log.jobs[2].preceding_job, None);
        assert_eq!(log.jobs[2].think_time, None);
    }

    #[test]
    fn renumber_keeps_checkpoint_lines_together() {
        let mut log = SwfLog::default();
        let mut summary = SwfRecordBuilder::new(7, 0).run_time(100).build();
        summary.status = CompletionStatus::Completed;
        let mut part = SwfRecordBuilder::new(7, 0).run_time(40).build();
        part.status = CompletionStatus::PartialContinued;
        log.jobs.push(summary);
        log.jobs.push(part);
        log.renumber();
        assert_eq!(log.jobs[0].job_id, 1);
        assert_eq!(log.jobs[1].job_id, 1);
    }

    #[test]
    fn completed_only_filters() {
        let log = sample_log();
        let done = log.completed_only();
        assert_eq!(done.len(), 2);
        assert!(done
            .jobs
            .iter()
            .all(|j| j.status == CompletionStatus::Completed));
    }

    #[test]
    fn truncate_jobs_takes_prefix() {
        let log = sample_log();
        let t = log.truncate_jobs(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.jobs[0].job_id, 1);
        assert_eq!(t.jobs[1].job_id, 2);
    }

    #[test]
    fn scale_interarrivals_stretches() {
        let mut log = sample_log();
        log.scale_interarrivals(2.0);
        let submits: Vec<i64> = log.jobs.iter().map(|j| j.submit_time).collect();
        assert_eq!(submits, vec![0, 100, 240]);
        let mut log2 = sample_log();
        log2.scale_interarrivals(0.5);
        let submits2: Vec<i64> = log2.jobs.iter().map(|j| j.submit_time).collect();
        assert_eq!(submits2, vec![0, 25, 60]);
    }

    #[test]
    #[should_panic]
    fn scale_interarrivals_rejects_nonpositive() {
        let mut log = sample_log();
        log.scale_interarrivals(0.0);
    }

    #[test]
    fn partials_iterator() {
        let mut log = sample_log();
        let mut part = SwfRecordBuilder::new(4, 200).run_time(5).build();
        part.status = CompletionStatus::PartialContinued;
        log.jobs.push(part);
        assert_eq!(log.partials().count(), 1);
        assert_eq!(log.summaries().count(), 3);
    }
}
