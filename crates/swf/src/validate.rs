//! Consistency checking and cleaning of standard workload files.
//!
//! The paper requires that "every datum must abide to strict consistency rules, that
//! when checked ensure that the workload is always clean". This module implements
//! those rules as a validator that reports violations, and a cleaner that repairs
//! the repairable ones (re-sorting, re-numbering, clamping, dropping hopeless
//! records) and reports exactly what it did.

use crate::error::ParseError;
use crate::header::SwfHeader;
use crate::idhash::{IdMap, IdSet};
use crate::log::SwfLog;
use crate::record::{CompletionStatus, SwfRecord};
use crate::source::JobSource;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single consistency violation found in a log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// Submit times are not sorted in ascending order.
    UnsortedSubmitTimes {
        /// Index (0-based, in record order) of the first out-of-order record.
        index: usize,
    },
    /// Job numbers of summary records are not the consecutive sequence 1..n.
    NonConsecutiveJobIds {
        /// Index of the offending record.
        index: usize,
        /// The id found.
        found: u64,
        /// The id expected.
        expected: u64,
    },
    /// The first submit time is not zero.
    NonZeroFirstSubmit {
        /// The first submit time found.
        first_submit: i64,
    },
    /// A job uses more processors than the machine has (`MaxNodes`).
    TooManyProcessors {
        /// Job id.
        job: u64,
        /// Processors requested or allocated.
        procs: u32,
        /// Machine size from the header.
        max_nodes: u32,
    },
    /// A job's runtime exceeds the maximum the system allows (`MaxRuntime`).
    RuntimeExceedsMax {
        /// Job id.
        job: u64,
        /// Observed runtime.
        run_time: i64,
        /// Header maximum.
        max_runtime: i64,
    },
    /// A job's used memory exceeds `MaxMemory`.
    MemoryExceedsMax {
        /// Job id.
        job: u64,
        /// Observed memory (KB).
        memory_kb: i64,
        /// Header maximum (KB).
        max_memory: i64,
    },
    /// Average CPU time is larger than wall-clock runtime (and overuse is not allowed).
    CpuExceedsWallclock {
        /// Job id.
        job: u64,
        /// CPU time per processor.
        cpu: i64,
        /// Wall-clock runtime.
        run_time: i64,
    },
    /// The job references a preceding job that does not exist or is not earlier.
    BadPrecedingJob {
        /// Job id.
        job: u64,
        /// Referenced preceding job id.
        preceding: u64,
    },
    /// A think time is present without a preceding job.
    ThinkTimeWithoutPreceding {
        /// Job id.
        job: u64,
    },
    /// A partial-execution record (code 2/3/4) has no matching summary record.
    OrphanPartial {
        /// Job id of the partial record.
        job: u64,
    },
    /// A checkpointed job's partial runtimes do not sum to the summary runtime.
    PartialRuntimeMismatch {
        /// Job id.
        job: u64,
        /// Sum of partial runtimes.
        partial_sum: i64,
        /// Summary runtime.
        summary: i64,
    },
    /// A record has neither requested nor allocated processors.
    MissingProcessors {
        /// Job id.
        job: u64,
    },
    /// A summary record has an unknown runtime and is not cancelled.
    MissingRuntime {
        /// Job id.
        job: u64,
    },
}

/// Outcome of validating a log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// All violations found, in record order.
    pub violations: Vec<Violation>,
    /// Number of records inspected.
    pub records: usize,
}

impl ValidationReport {
    /// True if no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count violations of a given discriminant (by matching closure).
    pub fn count_where<F: Fn(&Violation) -> bool>(&self, f: F) -> usize {
        self.violations.iter().filter(|v| f(v)).count()
    }
}

/// Rank of each per-record rule, used to restore the rule order within one
/// record when a deferred check (a forward preceding-job reference) resolves
/// only at the end of the stream.
mod rule {
    pub const TOO_MANY_PROCS: u8 = 0;
    pub const RUNTIME_MAX: u8 = 1;
    pub const MEMORY_MAX: u8 = 2;
    pub const CPU_WALLCLOCK: u8 = 3;
    pub const BAD_PRECEDING: u8 = 4;
    pub const THINK_TIME: u8 = 5;
    pub const MISSING_PROCS: u8 = 6;
    pub const MISSING_RUNTIME: u8 = 7;
}

/// Incremental validation of a record stream against the standard's
/// consistency rules, retaining only the minimal cross-record state.
///
/// Push every record (in stream order) with [`StreamingValidator::push`], then
/// call [`StreamingValidator::finish`]; the resulting [`ValidationReport`] is
/// identical to running [`validate`] over the collected log, provided the
/// header directives precede the data records — which the standard requires
/// and every conforming writer produces. (A header directive appearing
/// mid-file only affects the checks of the records after it.)
///
/// Cross-record state kept per stream: one `(id → runtime)` entry per summary
/// record (for dependency-existence and checkpoint-chain rules), the partial
/// runtime sums of checkpointed jobs, and the unresolved forward
/// preceding-job references — tens of bytes per summary job instead of the
/// whole record vector. Memory therefore still grows linearly with the
/// number of summary jobs.
#[derive(Debug)]
pub struct StreamingValidator {
    records: usize,
    /// Submit time of the previous record, for the sortedness rule.
    prev_submit: Option<i64>,
    /// First out-of-order record, if any (the rule reports only the first).
    unsorted_at: Option<usize>,
    /// Smallest submit time seen.
    min_submit: Option<i64>,
    /// Next expected summary job id (ids must be 1..n consecutive).
    expected_id: u64,
    /// NonConsecutiveJobIds violations, in record order.
    id_violations: Vec<Violation>,
    /// Per-record violations as `(record index, rule rank, violation)`;
    /// deferred dependency checks splice back in by this key.
    record_violations: Vec<(usize, u8, Violation)>,
    /// id → runtime of every summary record seen (last record wins for
    /// duplicated ids, matching the collected validator).
    summaries: IdMap<Option<i64>>,
    /// Preceding-job references that pointed at ids not seen yet: `(record
    /// index, job id, preceding id)`. Resolved against `summaries` at finish.
    pending_refs: Vec<(usize, u64, u64)>,
    /// `(record index, job id)` of every partial record, for the orphan rule.
    partials: Vec<(usize, u64)>,
    /// Sum of partial runtimes per job id (deterministically ordered).
    partial_sums: BTreeMap<u64, i64>,
}

impl Default for StreamingValidator {
    fn default() -> Self {
        StreamingValidator::new()
    }
}

impl StreamingValidator {
    /// A validator with no records pushed yet.
    pub fn new() -> Self {
        StreamingValidator {
            records: 0,
            prev_submit: None,
            unsorted_at: None,
            min_submit: None,
            // Summary ids must be the consecutive sequence starting at 1.
            expected_id: 1,
            id_violations: Vec::new(),
            record_violations: Vec::new(),
            summaries: IdMap::default(),
            pending_refs: Vec::new(),
            partials: Vec::new(),
            partial_sums: BTreeMap::new(),
        }
    }

    /// Validate one record against the header as currently known.
    pub fn push(&mut self, j: &SwfRecord, header: &SwfHeader) {
        let i = self.records;
        self.records += 1;

        // Rule: lines sorted by ascending submit time (first offender only).
        if let Some(prev) = self.prev_submit {
            if j.submit_time < prev && self.unsorted_at.is_none() {
                self.unsorted_at = Some(i);
            }
        }
        self.prev_submit = Some(j.submit_time);
        self.min_submit = Some(match self.min_submit {
            Some(m) => m.min(j.submit_time),
            None => j.submit_time,
        });

        // Rule: summary job ids are 1..n consecutive.
        if j.is_summary() {
            if j.job_id != self.expected_id {
                self.id_violations.push(Violation::NonConsecutiveJobIds {
                    index: i,
                    found: j.job_id,
                    expected: self.expected_id,
                });
            }
            self.expected_id += 1;
        }

        // Header-bound rules, against the header as known at this record.
        let allow_overuse = header.allow_overuse.unwrap_or(true);
        if let (Some(p), Some(mn)) = (j.procs(), header.max_nodes) {
            if p > mn {
                self.record_violations.push((
                    i,
                    rule::TOO_MANY_PROCS,
                    Violation::TooManyProcessors {
                        job: j.job_id,
                        procs: p,
                        max_nodes: mn,
                    },
                ));
            }
        }
        if let (Some(r), Some(mr)) = (j.run_time, header.max_runtime) {
            if !allow_overuse && r > mr {
                self.record_violations.push((
                    i,
                    rule::RUNTIME_MAX,
                    Violation::RuntimeExceedsMax {
                        job: j.job_id,
                        run_time: r,
                        max_runtime: mr,
                    },
                ));
            }
        }
        if let (Some(m), Some(mm)) = (j.used_memory_kb, header.max_memory) {
            if !allow_overuse && m > mm {
                self.record_violations.push((
                    i,
                    rule::MEMORY_MAX,
                    Violation::MemoryExceedsMax {
                        job: j.job_id,
                        memory_kb: m,
                        max_memory: mm,
                    },
                ));
            }
        }
        if let (Some(c), Some(r)) = (j.avg_cpu_time, j.run_time) {
            if c > r {
                self.record_violations.push((
                    i,
                    rule::CPU_WALLCLOCK,
                    Violation::CpuExceedsWallclock {
                        job: j.job_id,
                        cpu: c,
                        run_time: r,
                    },
                ));
            }
        }

        // Dependency rules. A summary record's dependency must point at an
        // existing *earlier* summary id; a partial record's must merely exist.
        // References to ids not seen yet are deferred to `finish`.
        if let Some(p) = j.preceding_job {
            let bad_now = j.is_summary() && p >= j.job_id;
            if bad_now {
                self.record_violations.push((
                    i,
                    rule::BAD_PRECEDING,
                    Violation::BadPrecedingJob {
                        job: j.job_id,
                        preceding: p,
                    },
                ));
            } else if self.summaries.contains_key(&p) {
                // exists and (for summaries) is earlier: clean
            } else {
                self.pending_refs.push((i, j.job_id, p));
            }
        }
        if j.think_time.is_some() && j.preceding_job.is_none() {
            self.record_violations.push((
                i,
                rule::THINK_TIME,
                Violation::ThinkTimeWithoutPreceding { job: j.job_id },
            ));
        }

        if j.is_summary() {
            if j.procs().is_none() {
                self.record_violations.push((
                    i,
                    rule::MISSING_PROCS,
                    Violation::MissingProcessors { job: j.job_id },
                ));
            }
            if j.run_time.is_none()
                && j.status != CompletionStatus::Cancelled
                && j.status != CompletionStatus::Unknown
            {
                self.record_violations.push((
                    i,
                    rule::MISSING_RUNTIME,
                    Violation::MissingRuntime { job: j.job_id },
                ));
            }
            self.summaries.insert(j.job_id, j.run_time);
        } else {
            self.partials.push((i, j.job_id));
            if let Some(r) = j.run_time {
                *self.partial_sums.entry(j.job_id).or_insert(0) += r;
            }
        }
    }

    /// Resolve the deferred rules and assemble the report.
    pub fn finish(mut self) -> ValidationReport {
        let mut report = ValidationReport {
            records: self.records,
            ..ValidationReport::default()
        };
        if self.records == 0 {
            return report;
        }
        if let Some(index) = self.unsorted_at {
            report
                .violations
                .push(Violation::UnsortedSubmitTimes { index });
        }
        let first = self.min_submit.unwrap_or(0);
        if first != 0 {
            report.violations.push(Violation::NonZeroFirstSubmit {
                first_submit: first,
            });
        }
        report.violations.append(&mut self.id_violations);

        // Forward references that never resolved are bad dependencies; splice
        // them back at their records' positions in rule order.
        for (i, job, preceding) in self.pending_refs {
            if !self.summaries.contains_key(&preceding) {
                self.record_violations.push((
                    i,
                    rule::BAD_PRECEDING,
                    Violation::BadPrecedingJob { job, preceding },
                ));
            }
        }
        self.record_violations
            .sort_by_key(|&(i, rank, _)| (i, rank));
        report
            .violations
            .extend(self.record_violations.into_iter().map(|(_, _, v)| v));

        // Checkpoint chain rules: every partial record needs a summary, and
        // partial runtimes must sum to the summary runtime.
        for (_, id) in &self.partials {
            if !self.summaries.contains_key(id) {
                report
                    .violations
                    .push(Violation::OrphanPartial { job: *id });
            }
        }
        for (id, sum) in &self.partial_sums {
            if let Some(Some(total)) = self.summaries.get(id) {
                if total != sum {
                    report.violations.push(Violation::PartialRuntimeMismatch {
                        job: *id,
                        partial_sum: *sum,
                        summary: *total,
                    });
                }
            }
        }
        report
    }
}

/// Validate a log against the standard's consistency rules.
pub fn validate(log: &SwfLog) -> ValidationReport {
    let mut v = StreamingValidator::new();
    for j in &log.jobs {
        v.push(j, &log.header);
    }
    v.finish()
}

/// Validate a streaming [`JobSource`] record by record, without collecting the
/// log. The report is identical to [`validate`] over the collected stream for
/// any source whose header directives precede its data records (which the
/// standard requires); only the minimal cross-record state is retained — see
/// [`StreamingValidator`]. Fails only if the source itself fails mid-stream.
pub fn validate_source<S: JobSource>(mut source: S) -> Result<ValidationReport, ParseError> {
    let mut v = StreamingValidator::new();
    while let Some(rec) = source.next_record() {
        let rec = rec?;
        v.push(&rec, &source.meta().header);
    }
    Ok(v.finish())
}

/// Actions a cleaning pass may take, counted in the [`CleaningReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Records dropped because they could not be repaired.
    pub dropped: usize,
    /// Whether the records were re-sorted by submit time.
    pub resorted: bool,
    /// Whether the submit times were rebased to start at zero.
    pub rebased: bool,
    /// Whether job ids were renumbered to 1..n.
    pub renumbered: bool,
    /// Number of processor counts clamped to `MaxNodes`.
    pub clamped_procs: usize,
    /// Number of CPU times clamped to the wall-clock runtime.
    pub clamped_cpu: usize,
    /// Number of dangling preceding-job references removed.
    pub dropped_dependencies: usize,
    /// Number of summary records whose missing runtime was filled in (from the CPU
    /// time when known, otherwise zero).
    pub filled_runtimes: usize,
}

/// Clean a log in place so that [`validate`] reports no violations, and report what
/// was changed. Records that cannot be repaired (summary records with no processor
/// count at all) are dropped.
pub fn clean(log: &mut SwfLog) -> CleaningReport {
    let mut report = CleaningReport::default();

    // Drop hopeless records first.
    let before = log.jobs.len();
    log.jobs
        .retain(|j| !(j.is_summary() && j.procs().is_none()));
    // Drop orphan partial records (only a log with partial lines can hold one).
    if log.jobs.iter().any(|j| !j.is_summary()) {
        let ids: IdSet = log
            .jobs
            .iter()
            .filter(|j| j.is_summary())
            .map(|j| j.job_id)
            .collect();
        log.jobs
            .retain(|j| j.is_summary() || ids.contains(&j.job_id));
    }
    report.dropped = before - log.jobs.len();

    // Sort and rebase.
    let was_sorted = log
        .jobs
        .windows(2)
        .all(|w| w[0].submit_time <= w[1].submit_time);
    if !was_sorted {
        log.sort_by_submit();
        report.resorted = true;
    }
    if log.first_submit() != 0 {
        log.rebase_times();
        report.rebased = true;
    }

    // Renumber if summary ids are not consecutive from 1.
    let needs_renumber = log
        .jobs
        .iter()
        .filter(|j| j.is_summary())
        .zip(1u64..)
        .any(|(j, expected)| j.job_id != expected);
    if needs_renumber {
        // Every summary record gets a fresh sequential id (this also resolves
        // duplicate ids, which SwfLog::renumber would collapse); partial lines take
        // the new id of the summary that carried their old id, and preceding-job
        // references are remapped or dropped.
        let mut next = 1u64;
        let mut old_to_new: IdMap<u64> = IdMap::default();
        let mut new_ids = vec![0u64; log.jobs.len()];
        for (i, j) in log.jobs.iter().enumerate() {
            if j.is_summary() {
                let id = next;
                next += 1;
                old_to_new.insert(j.job_id, id);
                new_ids[i] = id;
            }
        }
        for (i, j) in log.jobs.iter().enumerate() {
            if !j.is_summary() {
                new_ids[i] = old_to_new.get(&j.job_id).copied().unwrap_or(0);
            }
        }
        for (i, j) in log.jobs.iter_mut().enumerate() {
            if let Some(p) = j.preceding_job {
                j.preceding_job = old_to_new.get(&p).copied();
                if j.preceding_job.is_none() {
                    j.think_time = None;
                    report.dropped_dependencies += 1;
                }
            }
            j.job_id = new_ids[i];
        }
        report.renumbered = true;
    }

    // Clamp per-record values.
    let max_nodes = log.header.max_nodes;
    for j in &mut log.jobs {
        if let Some(mn) = max_nodes {
            if let Some(p) = j.requested_procs {
                if p > mn {
                    j.requested_procs = Some(mn);
                    report.clamped_procs += 1;
                }
            }
            if let Some(p) = j.allocated_procs {
                if p > mn {
                    j.allocated_procs = Some(mn);
                    report.clamped_procs += 1;
                }
            }
        }
        if let (Some(c), Some(r)) = (j.avg_cpu_time, j.run_time) {
            if c > r {
                j.avg_cpu_time = Some(r);
                report.clamped_cpu += 1;
            }
        }
        if j.think_time.is_some() && j.preceding_job.is_none() {
            j.think_time = None;
            report.dropped_dependencies += 1;
        }
        if j.is_summary()
            && j.run_time.is_none()
            && j.status != CompletionStatus::Cancelled
            && j.status != CompletionStatus::Unknown
        {
            j.run_time = Some(j.avg_cpu_time.unwrap_or(0));
            report.filled_runtimes += 1;
        }
    }

    // Drop dependencies pointing at later or missing jobs (only a log whose
    // records name preceding jobs can hold one).
    if log.jobs.iter().any(|j| j.preceding_job.is_some()) {
        let summary_ids: IdSet = log
            .jobs
            .iter()
            .filter(|j| j.is_summary())
            .map(|j| j.job_id)
            .collect();
        for j in &mut log.jobs {
            if let Some(p) = j.preceding_job {
                let bad = !summary_ids.contains(&p) || (j.is_summary() && p >= j.job_id);
                if bad {
                    j.preceding_job = None;
                    j.think_time = None;
                    report.dropped_dependencies += 1;
                }
            }
        }
    }

    // Re-derive MaxNodes if the header lacks it, so later validations have a bound.
    if log.header.max_nodes.is_none() {
        let max = log.max_job_procs();
        if max > 0 {
            log.header.max_nodes = Some(max);
        }
    }

    // Header hygiene: make sure the version is stamped.
    if log.header.version.is_none() {
        log.header.version = Some(crate::header::FORMAT_VERSION);
    }

    report
}

/// Validate, and if violations are found clean and re-validate; returns the cleaning
/// report together with the final validation report (which is clean for repairable
/// inputs).
pub fn clean_and_validate(log: &mut SwfLog) -> (CleaningReport, ValidationReport) {
    let initial = validate(log);
    if initial.is_clean() {
        return (CleaningReport::default(), initial);
    }
    let cleaning = clean(log);
    let after = validate(log);
    (cleaning, after)
}

/// Convenience: build a minimal conforming header for a machine of `max_nodes` nodes.
pub fn minimal_header(max_nodes: u32) -> SwfHeader {
    SwfHeader {
        version: Some(crate::header::FORMAT_VERSION),
        max_nodes: Some(max_nodes),
        ..SwfHeader::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SwfRecordBuilder;

    fn conforming_log() -> SwfLog {
        let header = minimal_header(64);
        let jobs = vec![
            SwfRecordBuilder::new(1, 0)
                .wait_time(0)
                .run_time(100)
                .allocated_procs(8)
                .status(CompletionStatus::Completed)
                .build(),
            SwfRecordBuilder::new(2, 10)
                .wait_time(5)
                .run_time(20)
                .allocated_procs(4)
                .status(CompletionStatus::Completed)
                .depends_on(1, 3)
                .build(),
        ];
        SwfLog::new(header, jobs)
    }

    #[test]
    fn conforming_log_is_clean() {
        let report = validate(&conforming_log());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.records, 2);
    }

    #[test]
    fn detects_unsorted_and_nonzero_start() {
        let mut log = conforming_log();
        log.jobs.swap(0, 1);
        for j in &mut log.jobs {
            j.submit_time += 100;
        }
        let report = validate(&log);
        assert!(report.count_where(|v| matches!(v, Violation::UnsortedSubmitTimes { .. })) == 1);
        assert!(report.count_where(|v| matches!(v, Violation::NonZeroFirstSubmit { .. })) == 1);
    }

    #[test]
    fn detects_nonconsecutive_ids() {
        let mut log = conforming_log();
        log.jobs[1].job_id = 7;
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::NonConsecutiveJobIds { .. })),
            1
        );
    }

    #[test]
    fn detects_too_many_processors() {
        let mut log = conforming_log();
        log.jobs[0].allocated_procs = Some(1000);
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::TooManyProcessors { .. })),
            1
        );
    }

    #[test]
    fn detects_cpu_exceeding_wallclock() {
        let mut log = conforming_log();
        log.jobs[0].avg_cpu_time = Some(500);
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::CpuExceedsWallclock { .. })),
            1
        );
    }

    #[test]
    fn detects_runtime_and_memory_overuse_only_when_disallowed() {
        let mut log = conforming_log();
        log.header.max_runtime = Some(50);
        log.header.max_memory = Some(100);
        log.jobs[0].used_memory_kb = Some(200);
        // Overuse allowed by default => no violations for these rules.
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::RuntimeExceedsMax { .. })),
            0
        );
        log.header.allow_overuse = Some(false);
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::RuntimeExceedsMax { .. })),
            1
        );
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::MemoryExceedsMax { .. })),
            1
        );
    }

    #[test]
    fn detects_bad_dependencies() {
        let mut log = conforming_log();
        log.jobs[1].preceding_job = Some(99);
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::BadPrecedingJob { .. })),
            1
        );
        let mut log2 = conforming_log();
        log2.jobs[0].think_time = Some(10);
        let report2 = validate(&log2);
        assert_eq!(
            report2.count_where(|v| matches!(v, Violation::ThinkTimeWithoutPreceding { .. })),
            1
        );
    }

    #[test]
    fn detects_forward_dependency() {
        let mut log = conforming_log();
        // Job 1 depends on job 2 (which comes later) -- illegal.
        log.jobs[0].preceding_job = Some(2);
        log.jobs[0].think_time = Some(1);
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::BadPrecedingJob { .. })),
            1
        );
    }

    #[test]
    fn detects_orphan_partials_and_mismatched_sums() {
        let mut log = conforming_log();
        let mut orphan = SwfRecordBuilder::new(9, 20)
            .run_time(5)
            .allocated_procs(1)
            .build();
        orphan.status = CompletionStatus::PartialContinued;
        log.jobs.push(orphan);
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::OrphanPartial { .. })),
            1
        );

        // Now a checkpointed job whose partial runtimes do not add up.
        let mut log2 = conforming_log();
        let mut p1 = SwfRecordBuilder::new(1, 0)
            .run_time(30)
            .allocated_procs(8)
            .build();
        p1.status = CompletionStatus::PartialContinued;
        let mut p2 = SwfRecordBuilder::new(1, 0)
            .run_time(30)
            .allocated_procs(8)
            .build();
        p2.status = CompletionStatus::PartialCompleted;
        log2.jobs.push(p1);
        log2.jobs.push(p2);
        let report2 = validate(&log2);
        assert_eq!(
            report2.count_where(|v| matches!(v, Violation::PartialRuntimeMismatch { .. })),
            1
        );
    }

    #[test]
    fn detects_missing_fields() {
        let mut log = conforming_log();
        log.jobs[0].allocated_procs = None;
        log.jobs[0].requested_procs = None;
        log.jobs[1].run_time = None;
        let report = validate(&log);
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::MissingProcessors { .. })),
            1
        );
        assert_eq!(
            report.count_where(|v| matches!(v, Violation::MissingRuntime { .. })),
            1
        );
    }

    #[test]
    fn clean_repairs_messy_log() {
        let mut log = conforming_log();
        // Make a mess: unsorted, shifted, gap in ids, oversized job, bogus dependency.
        log.jobs.swap(0, 1);
        for j in &mut log.jobs {
            j.submit_time += 500;
        }
        log.jobs[0].job_id = 12;
        log.jobs[1].job_id = 3;
        log.jobs[0].allocated_procs = Some(128);
        log.jobs[0].preceding_job = Some(77);
        log.jobs[0].think_time = Some(4);

        let (cleaning, after) = clean_and_validate(&mut log);
        assert!(after.is_clean(), "{:?}", after.violations);
        assert!(cleaning.resorted);
        assert!(cleaning.rebased);
        assert!(cleaning.renumbered);
        assert!(cleaning.clamped_procs >= 1);
    }

    #[test]
    fn clean_counts_dropped_dependencies() {
        let mut log = conforming_log();
        // Dangling dependency on a job that never exists, with ids already consecutive
        // so the renumber pass is not involved.
        log.jobs[1].preceding_job = Some(42);
        let report = clean(&mut log);
        assert!(report.dropped_dependencies >= 1);
        assert!(validate(&log).is_clean());
    }

    #[test]
    fn clean_drops_hopeless_records() {
        let mut log = conforming_log();
        let hopeless = SwfRecordBuilder::new(3, 20).run_time(10).build(); // no procs at all
        log.jobs.push(hopeless);
        let report = clean(&mut log);
        assert_eq!(report.dropped, 1);
        assert!(validate(&log).is_clean());
    }

    #[test]
    fn clean_is_idempotent() {
        let mut log = conforming_log();
        log.jobs[0].allocated_procs = Some(500);
        clean(&mut log);
        let second = clean(&mut log);
        assert_eq!(second, CleaningReport::default());
    }

    #[test]
    fn clean_on_clean_log_reports_nothing() {
        let mut log = conforming_log();
        let (cleaning, after) = clean_and_validate(&mut log);
        assert_eq!(cleaning, CleaningReport::default());
        assert!(after.is_clean());
    }

    /// Every way of making a log dirty that the suite above exercises, to
    /// drive the streaming-vs-collected equivalence check.
    fn messy_logs() -> Vec<SwfLog> {
        let mut logs = vec![conforming_log()];
        let mut l = conforming_log();
        l.jobs.swap(0, 1);
        for j in &mut l.jobs {
            j.submit_time += 100;
        }
        logs.push(l);
        let mut l = conforming_log();
        l.jobs[1].job_id = 7;
        l.jobs[0].allocated_procs = Some(1000);
        l.jobs[0].avg_cpu_time = Some(500);
        logs.push(l);
        let mut l = conforming_log();
        l.header.max_runtime = Some(50);
        l.header.max_memory = Some(100);
        l.header.allow_overuse = Some(false);
        l.jobs[0].used_memory_kb = Some(200);
        l.jobs[1].preceding_job = Some(99);
        l.jobs[0].think_time = Some(10);
        logs.push(l);
        // Forward dependency plus checkpoint-chain trouble: an orphan partial,
        // a mismatched partial sum, and a partial that precedes its summary.
        let mut l = conforming_log();
        l.jobs[0].preceding_job = Some(2);
        l.jobs[0].think_time = Some(1);
        let mut orphan = SwfRecordBuilder::new(9, 20)
            .run_time(5)
            .allocated_procs(1)
            .build();
        orphan.status = CompletionStatus::PartialContinued;
        l.jobs.insert(0, orphan);
        let mut p1 = SwfRecordBuilder::new(1, 0)
            .run_time(30)
            .allocated_procs(8)
            .build();
        p1.status = CompletionStatus::PartialCompleted;
        l.jobs.push(p1);
        logs.push(l);
        let mut l = conforming_log();
        l.jobs[0].allocated_procs = None;
        l.jobs[0].requested_procs = None;
        l.jobs[1].run_time = None;
        logs.push(l);
        logs.push(SwfLog::default());
        logs
    }

    #[test]
    fn streaming_validation_matches_collected() {
        for (i, log) in messy_logs().into_iter().enumerate() {
            let collected = validate(&log);
            let streamed = validate_source(log.as_source("s")).unwrap();
            assert_eq!(streamed, collected, "log #{i}");
        }
    }

    #[test]
    fn streaming_validation_matches_over_a_parsed_file() {
        use crate::parse::{ParseOptions, RecordIter};
        use crate::write::write_string;
        let mut log = conforming_log();
        log.jobs[0].avg_cpu_time = Some(500); // one violation survives writing
        let text = write_string(&log);
        let streamed =
            validate_source(RecordIter::new(text.as_bytes(), ParseOptions::default())).unwrap();
        let collected = validate(&crate::parse::parse(&text).unwrap());
        assert_eq!(streamed, collected);
        assert!(!streamed.is_clean());
    }

    #[test]
    fn default_streaming_validator_behaves_like_new() {
        // `Default` must establish the ids-start-at-1 invariant too.
        let log = conforming_log();
        let mut v = StreamingValidator::default();
        for j in &log.jobs {
            v.push(j, &log.header);
        }
        assert!(v.finish().is_clean());
    }

    #[test]
    fn streaming_validation_surfaces_stream_errors() {
        use crate::parse::{ParseOptions, RecordIter};
        let bad = "1 0 10\n";
        assert!(validate_source(RecordIter::new(bad.as_bytes(), ParseOptions::default())).is_err());
    }
}
