//! Single-pass streaming characterization of an SWF job stream.
//!
//! A [`WorkloadProfile`] is built in one pass over the summary records of a
//! log (in submit order) and captures the marginal distributions the paper's
//! workload-modelling discussion cares about — interarrival time, runtime, job
//! size, runtime-estimate accuracy — plus diurnal and weekly arrival cycles,
//! per-user and per-group aggregates, and the size–runtime correlation.
//!
//! Profiles are **mergeable**: a trace can be cut into contiguous chunks,
//! each chunk profiled independently, and the chunk profiles folded back
//! together with [`WorkloadProfile::merge`]. All accumulator state is integral
//! (see [`crate::sketch`]), and the interarrival gap that crosses a chunk
//! boundary is reconstructed at merge time from the chunks' first/last submit
//! times, so the chunked (parallel) result is **bit-identical** to the
//! sequential single pass — `chunked == sequential` holds with `==`, not just
//! approximately.

use crate::sketch::{Correlation, Histogram2, MarginalSketch, Moments};
use psbench_swf::{JobSource, ParseError, SwfLog, SwfRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Seconds per hour / day / week, for the arrival-cycle histograms.
const HOUR: i64 = 3600;
const DAY: i64 = 24 * HOUR;
const WEEK: i64 = 7 * DAY;

/// Runtime-estimate accuracy is stored in per-mille (runtime × 1000 /
/// estimate), computed in integer arithmetic so chunked analysis stays exact.
pub const ACCURACY_SCALE: i64 = 1000;

/// The interarrival gap between two submit times, clamped to ≥ 0 without
/// wrapping even for lenient-parsed traces whose submits span the i64 range.
fn gap(prev: i64, next: i64) -> i64 {
    next.saturating_sub(prev).max(0)
}

/// Estimate accuracy in per-mille, in widened arithmetic: `r × 1000 / e`
/// cannot wrap for any `i64` runtime/estimate pair from a parsed trace.
fn accuracy_per_mille(r: i64, e: i64) -> i64 {
    ((r as i128 * ACCURACY_SCALE as i128) / e as i128).clamp(0, i64::MAX as i128) as i64
}

/// Aggregate statistics for one user or group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GroupStats {
    /// Number of jobs attributed to this user/group.
    pub jobs: u64,
    /// Total consumed area in processor-seconds (where known).
    pub area: i128,
    /// Exact runtime moments of the jobs.
    pub runtime: Moments,
}

impl GroupStats {
    fn add(&mut self, rec: &SwfRecord) {
        self.jobs += 1;
        if let Some(a) = rec.area() {
            self.area += a as i128;
        }
        if let Some(r) = rec.run_time {
            self.runtime.add(r);
        }
    }

    fn merge(&mut self, other: &GroupStats) {
        self.jobs += other.jobs;
        self.area += other.area;
        self.runtime.merge(&other.runtime);
    }
}

/// The streaming characterization of a workload trace.
///
/// Build one with [`WorkloadProfile::of_source`] (streaming, O(1) record
/// memory), [`WorkloadProfile::of_log`] (sequential over an in-memory log),
/// or by merging chunk profiles from [`WorkloadProfile::of_records`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct WorkloadProfile {
    /// Display name of the profiled workload.
    pub name: String,
    /// Number of summary jobs profiled.
    pub jobs: u64,
    /// Marginal distribution of interarrival gaps between consecutive submits, seconds.
    pub interarrival: MarginalSketch,
    /// Marginal distribution of wall-clock runtimes, seconds.
    pub runtime: MarginalSketch,
    /// Marginal distribution of job sizes (requested or allocated processors).
    pub size: MarginalSketch,
    /// Marginal distribution of estimate accuracy: runtime × 1000 / estimate.
    pub accuracy: MarginalSketch,
    /// Submit counts by hour of day (diurnal arrival cycle).
    pub diurnal: [u64; 24],
    /// Submit counts by day of week (weekly arrival cycle).
    pub weekly: [u64; 7],
    /// Per-user aggregates, keyed by SWF user id.
    pub per_user: BTreeMap<u32, GroupStats>,
    /// Per-group aggregates, keyed by SWF group id.
    pub per_group: BTreeMap<u32, GroupStats>,
    /// Exact size–runtime correlation accumulator.
    pub size_runtime: Correlation,
    /// Joint (2-D) size × runtime histogram: octave-binned on both axes, it
    /// captures which sizes pair with which runtimes — structure invisible to
    /// the two marginals alone.
    pub size_runtime_hist: Histogram2,
    /// Submit time of the first profiled job (None when empty).
    pub first_submit: Option<i64>,
    /// Submit time of the last profiled job (None when empty).
    pub last_submit: Option<i64>,
}

impl WorkloadProfile {
    /// An empty profile with a display name.
    pub fn named(name: impl Into<String>) -> Self {
        WorkloadProfile {
            name: name.into(),
            ..WorkloadProfile::default()
        }
    }

    /// Record one summary record. Records must be fed in submit order (the
    /// order of a conforming log); partial-execution lines are ignored.
    pub fn add(&mut self, rec: &SwfRecord) {
        if !rec.is_summary() {
            return;
        }
        self.jobs += 1;
        if let Some(prev) = self.last_submit {
            self.interarrival.add(gap(prev, rec.submit_time));
        } else {
            self.first_submit = Some(rec.submit_time);
        }
        self.last_submit = Some(rec.submit_time);

        if let Some(r) = rec.run_time {
            self.runtime.add(r);
            if let Some(p) = rec.procs() {
                self.size_runtime.add(p as i64, r);
                self.size_runtime_hist.add(p as i64, r);
            }
            if let Some(e) = rec.requested_time {
                if e > 0 {
                    self.accuracy.add(accuracy_per_mille(r, e));
                }
            }
        }
        if let Some(p) = rec.procs() {
            self.size.add(p as i64);
        }
        let tod = rec.submit_time.rem_euclid(DAY);
        self.diurnal[(tod / HOUR) as usize] += 1;
        let dow = rec.submit_time.rem_euclid(WEEK);
        self.weekly[(dow / DAY) as usize] += 1;
        if let Some(u) = rec.user_id {
            self.per_user.entry(u).or_default().add(rec);
        }
        if let Some(g) = rec.group_id {
            self.per_group.entry(g).or_default().add(rec);
        }
    }

    /// Profile a whole log in one sequential pass over its summary records.
    pub fn of_log(name: impl Into<String>, log: &SwfLog) -> Self {
        WorkloadProfile::of_records(name, &log.jobs)
    }

    /// Profile a contiguous run of records (summary filtering happens
    /// inside). This is the chunk primitive: profiles of consecutive runs
    /// merge back into the whole-trace profile via [`WorkloadProfile::merge`].
    pub fn of_records(name: impl Into<String>, records: &[SwfRecord]) -> Self {
        let mut p = WorkloadProfile::named(name);
        for rec in records.iter().filter(|r| r.is_summary()) {
            p.add(rec);
        }
        p
    }

    /// Profile a streaming [`JobSource`] in one sequential pass, in O(1)
    /// record memory.
    ///
    /// The profile takes its display name from the source's metadata, and the
    /// result is **bit-identical** to [`WorkloadProfile::of_log`] over the
    /// collected log: streamed, chunk-merged and materialized analyses can
    /// never disagree. Fails only if the source itself fails (e.g. a malformed
    /// archive file mid-stream).
    pub fn of_source<S: JobSource>(mut source: S) -> Result<Self, ParseError> {
        let mut p = WorkloadProfile::named(source.meta().name.clone());
        while let Some(rec) = source.next_record() {
            p.add(&rec?);
        }
        Ok(p)
    }

    /// Fold the profile of the *following* trace chunk into this one.
    ///
    /// The interarrival gap between this chunk's last submit and the next
    /// chunk's first submit is added here, which is exactly the observation a
    /// sequential pass would have recorded at the boundary — this is what
    /// makes chunked analysis bit-identical to the single pass. Merging is
    /// associative because every accumulator is integral and each boundary
    /// gap is added exactly once whatever the grouping.
    pub fn merge(&mut self, next: &WorkloadProfile) {
        if next.jobs == 0 {
            return;
        }
        if let (Some(last), Some(first)) = (self.last_submit, next.first_submit) {
            self.interarrival.add(gap(last, first));
        }
        if self.jobs == 0 {
            self.first_submit = next.first_submit;
        }
        self.last_submit = next.last_submit.or(self.last_submit);
        self.jobs += next.jobs;
        self.interarrival.merge(&next.interarrival);
        self.runtime.merge(&next.runtime);
        self.size.merge(&next.size);
        self.accuracy.merge(&next.accuracy);
        for (d, o) in self.diurnal.iter_mut().zip(next.diurnal.iter()) {
            *d += o;
        }
        for (d, o) in self.weekly.iter_mut().zip(next.weekly.iter()) {
            *d += o;
        }
        for (k, v) in &next.per_user {
            self.per_user.entry(*k).or_default().merge(v);
        }
        for (k, v) in &next.per_group {
            self.per_group.entry(*k).or_default().merge(v);
        }
        self.size_runtime.merge(&next.size_runtime);
        self.size_runtime_hist.merge(&next.size_runtime_hist);
    }

    /// Trace duration in seconds spanned by the profiled submits.
    pub fn submit_span(&self) -> i64 {
        match (self.first_submit, self.last_submit) {
            (Some(f), Some(l)) => (l - f).max(0),
            _ => 0,
        }
    }

    /// Number of distinct users observed.
    pub fn users(&self) -> usize {
        self.per_user.len()
    }

    /// Number of distinct groups observed.
    pub fn groups(&self) -> usize {
        self.per_group.len()
    }

    /// The `n` users with the most jobs, as `(user id, stats)` pairs, ties
    /// broken by ascending user id (deterministic).
    pub fn top_users(&self, n: usize) -> Vec<(u32, &GroupStats)> {
        let mut v: Vec<(u32, &GroupStats)> = self.per_user.iter().map(|(k, s)| (*k, s)).collect();
        v.sort_by(|a, b| b.1.jobs.cmp(&a.1.jobs).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_workload::{Lublin99, WorkloadModel};

    fn sample_log() -> SwfLog {
        Lublin99::default().generate(400, 7)
    }

    #[test]
    fn profile_counts_and_marginals() {
        let log = sample_log();
        let p = WorkloadProfile::of_log("lublin99", &log);
        assert_eq!(p.jobs, 400);
        assert_eq!(p.interarrival.count(), 399); // n-1 gaps
        assert_eq!(p.runtime.count(), 400);
        assert_eq!(p.size.count(), 400);
        assert!(p.accuracy.count() > 0);
        assert!(p.users() > 1);
        assert!(p.groups() >= 1);
        assert_eq!(p.diurnal.iter().sum::<u64>(), 400);
        assert_eq!(p.weekly.iter().sum::<u64>(), 400);
        assert_eq!(p.per_user.values().map(|s| s.jobs).sum::<u64>(), 400);
        assert!(p.submit_span() > 0);
        assert_eq!(p.first_submit, Some(0));
    }

    #[test]
    fn extreme_values_do_not_wrap() {
        use psbench_swf::SwfRecordBuilder;
        // A lenient-parsed trace can carry i64::MAX runtimes/estimates and
        // submits anywhere in the i64 range; the accumulators must not wrap.
        let mut p = WorkloadProfile::named("extreme");
        p.add(
            &SwfRecordBuilder::new(1, i64::MIN + 1)
                .run_time(i64::MAX)
                .requested_time(i64::MAX)
                .build(),
        );
        p.add(
            &SwfRecordBuilder::new(2, i64::MAX)
                .run_time(i64::MAX)
                .requested_time(1)
                .build(),
        );
        // runtime == estimate -> exactly 1000 per-mille; huge r/e ratio saturates.
        assert_eq!(p.accuracy.moments.min, ACCURACY_SCALE);
        assert_eq!(p.accuracy.moments.max, i64::MAX);
        // The i64-spanning gap saturates instead of wrapping negative.
        assert_eq!(p.interarrival.moments.max, i64::MAX);
        assert_eq!(p.jobs, 2);
    }

    #[test]
    fn accuracy_is_at_most_one_for_overestimating_models() {
        // The default estimate model only overestimates, so runtime/estimate <= 1.
        let p = WorkloadProfile::of_log("l", &sample_log());
        assert!(p.accuracy.moments.max <= ACCURACY_SCALE);
        assert!(p.accuracy.moments.min >= 0);
    }

    #[test]
    fn chunked_profile_is_bit_identical_to_sequential() {
        let log = sample_log();
        let seq = WorkloadProfile::of_log("l", &log);
        let n = log.jobs.len();
        for chunks in [1usize, 2, 3, 7, 50, 400, 1000] {
            let mut chunked = WorkloadProfile::named("l");
            for c in 0..chunks {
                let part = &log.jobs[c * n / chunks..(c + 1) * n / chunks];
                chunked.merge(&WorkloadProfile::of_records("l", part));
            }
            assert_eq!(chunked, seq, "chunks = {chunks}");
        }
    }

    #[test]
    fn streamed_profile_is_bit_identical_to_of_log() {
        let log = sample_log();
        let seq = WorkloadProfile::of_log("l", &log);
        let streamed = WorkloadProfile::of_source(log.as_source("l")).unwrap();
        assert_eq!(streamed, seq);
    }

    #[test]
    fn of_source_surfaces_stream_errors() {
        use psbench_swf::{ParseOptions, RecordIter};
        let bad = "1 0 10\n";
        let err =
            WorkloadProfile::of_source(RecordIter::new(bad.as_bytes(), ParseOptions::default()));
        assert!(err.is_err());
    }

    #[test]
    fn merge_is_associative_across_three_chunks() {
        let log = sample_log();
        let n = log.jobs.len();
        let a = WorkloadProfile::of_records("l", &log.jobs[..n / 3]);
        let b = WorkloadProfile::of_records("l", &log.jobs[n / 3..2 * n / 3]);
        let c = WorkloadProfile::of_records("l", &log.jobs[2 * n / 3..]);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn empty_chunks_are_neutral_in_merges() {
        let log = sample_log();
        let seq = WorkloadProfile::of_log("l", &log);
        let mut with_empty = WorkloadProfile::named("l");
        with_empty.merge(&WorkloadProfile::named("l"));
        with_empty.merge(&seq);
        with_empty.merge(&WorkloadProfile::named("l"));
        assert_eq!(with_empty, seq);
        assert_eq!(WorkloadProfile::named("x").submit_span(), 0);
    }

    #[test]
    fn top_users_is_deterministic_and_sorted() {
        let p = WorkloadProfile::of_log("l", &sample_log());
        let top = p.top_users(5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].1.jobs >= w[1].1.jobs);
        }
        // The model's zipf-like attribution makes user 1 the heaviest.
        assert_eq!(top[0].0, 1);
    }
}
