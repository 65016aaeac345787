//! Aggregate statistics over per-job metrics.
//!
//! Different studies aggregate per-job metrics differently (arithmetic mean,
//! geometric mean, percentiles, weighted means); the disagreements the paper warns
//! about (Section 1.2) often come from exactly this choice. This module provides
//! the standard aggregations plus batch-means confidence intervals.
//!
//! A [`Summary`] sums its values in ascending order, so a mean depends only on
//! the values, never on the order jobs finished in. The values are ordered by
//! sorting integer keys, not floats: each finite value becomes a `u64` whose
//! unsigned order is the values' numeric order (the sign bit of a non-negative
//! value is flipped, every bit of a negative one), +0.0 and −0.0 sort under one
//! key, and `sort_unstable` orders the keys in one buffer that
//! [`AggregateMetrics`] reuses across its four summaries. Equal keys stand for
//! equal bits, except for the two zeros, so the unstable sort yields exactly
//! the sequence a stable sort by value would; when a −0.0 occurs, the run of
//! zeros is rewritten from the input in input order, which is where a stable
//! sort leaves it. Sums, minimum, maximum and percentiles therefore come out
//! bit for bit as from a stable sort of the values, signed zeros included.

use crate::job::JobOutcome;
use serde::{Deserialize, Serialize};

/// Summary statistics of a sample of values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Standard deviation (population, 0 for fewer than two values).
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Compute a [`Summary`] of a slice of values. Non-finite values are ignored.
pub fn summarize(values: &[f64]) -> Summary {
    summarize_iter(values.iter().copied())
}

/// [`summarize`] over a sequence that can be walked more than once, such as a
/// mapped slice iterator, without collecting it into a slice first.
pub fn summarize_iter<I>(values: I) -> Summary
where
    I: Iterator<Item = f64> + Clone,
{
    let mut keys = Vec::with_capacity(values.clone().count());
    summarize_into(values, &mut keys)
}

const SIGN: u64 = 1 << 63;

/// The order key of a finite value: keys compare as unsigned integers in the
/// values' numeric order (−0.0 below +0.0), and [`key_value`] inverts it.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// The value whose [`order_key`] is `key`.
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key & SIGN != 0 { key & !SIGN } else { !key })
}

/// Summarize `values` in ascending order, sorting their order keys in `keys`
/// (cleared first, so one buffer serves any number of summaries; callers
/// size it for the longest sequence once).
fn summarize_into<I>(values: I, keys: &mut Vec<u64>) -> Summary
where
    I: Iterator<Item = f64> + Clone,
{
    keys.clear();
    let mut negative_zero = false;
    for v in values.clone().filter(|v| v.is_finite()) {
        negative_zero |= v.to_bits() == (-0.0f64).to_bits();
        // Both zeros sort as +0.0; a −0.0 gets its sign back below.
        keys.push(order_key(if v == 0.0 { 0.0 } else { v }));
    }
    if keys.is_empty() {
        return Summary::default();
    }
    keys.sort_unstable();
    if negative_zero {
        // A stable sort leaves the zeros in input order: rewrite them so.
        let zero = order_key(0.0);
        let run = keys.partition_point(|&k| k < zero)..keys.partition_point(|&k| k <= zero);
        for (slot, v) in keys[run].iter_mut().zip(values.filter(|&v| v == 0.0)) {
            *slot = order_key(v);
        }
    }
    let at = |i: usize| key_value(keys[i]);
    let ascending = || keys.iter().map(|&k| key_value(k));
    let count = keys.len();
    let mean = ascending().sum::<f64>() / count as f64;
    let var = ascending().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
    Summary {
        count,
        mean,
        std_dev: var.sqrt(),
        min: at(0),
        max: at(count - 1),
        median: percentile_at(count, 50.0, at),
        p90: percentile_at(count, 90.0, at),
        p99: percentile_at(count, 99.0, at),
    }
}

/// Percentile of a **sorted** slice using linear interpolation between closest ranks.
/// `p` is in percent (0–100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    percentile_at(sorted.len(), p, |i| sorted[i])
}

/// [`percentile_sorted`] of the ascending sequence of `len` values `at(0..len)`.
fn percentile_at(len: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    if len == 1 {
        return at(0);
    }
    let clamped = p.clamp(0.0, 100.0);
    let rank = clamped / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = rank - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Geometric mean of a slice of positive values (values ≤ 0 or non-finite are ignored).
pub fn geometric_mean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Weighted arithmetic mean; pairs with non-finite values or non-positive weights are
/// ignored. Returns 0 if no valid pairs remain.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(values.len(), weights.len(), "values and weights must align");
    weighted_mean_pairs(values.iter().copied().zip(weights.iter().copied()))
}

/// [`weighted_mean`] over `(value, weight)` pairs.
fn weighted_mean_pairs(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (v, w) in pairs {
        if v.is_finite() && w.is_finite() && w > 0.0 {
            num += v * w;
            den += w;
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A confidence interval around a mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The point estimate (mean of batch means).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Number of batches used.
    pub batches: usize,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }
    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }
    /// True if `other`'s interval overlaps this one (the rankings are then not
    /// statistically distinguishable at the chosen confidence).
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.low() <= other.high() && other.low() <= self.high()
    }
}

/// Approximate two-sided 95% Student-t critical values indexed by degrees of freedom.
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Batch-means 95% confidence interval: the sample is split into `batches` contiguous
/// batches, and the interval is computed over the batch means. This is the customary
/// way to handle the autocorrelation of simulation output.
pub fn batch_means_ci(values: &[f64], batches: usize) -> ConfidenceInterval {
    let clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.is_empty() || batches == 0 {
        return ConfidenceInterval {
            mean: 0.0,
            half_width: 0.0,
            batches: 0,
        };
    }
    let b = batches.min(clean.len());
    let batch_size = clean.len() / b;
    let mut means = Vec::with_capacity(b);
    for i in 0..b {
        let start = i * batch_size;
        let end = if i == b - 1 {
            clean.len()
        } else {
            start + batch_size
        };
        let slice = &clean[start..end];
        means.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let grand = means.iter().sum::<f64>() / means.len() as f64;
    if means.len() < 2 {
        return ConfidenceInterval {
            mean: grand,
            half_width: 0.0,
            batches: means.len(),
        };
    }
    let var =
        means.iter().map(|m| (m - grand) * (m - grand)).sum::<f64>() / (means.len() - 1) as f64;
    let half = t_critical_95(means.len() - 1) * (var / means.len() as f64).sqrt();
    ConfidenceInterval {
        mean: grand,
        half_width: half,
        batches: means.len(),
    }
}

/// The standard per-workload aggregate report: mean/percentile summaries of the four
/// customary per-job metrics over a set of job outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AggregateMetrics {
    /// Number of jobs included.
    pub jobs: usize,
    /// Summary of wait times (seconds).
    pub wait_time: Summary,
    /// Summary of response times (seconds).
    pub response_time: Summary,
    /// Summary of slowdowns.
    pub slowdown: Summary,
    /// Summary of bounded slowdowns.
    pub bounded_slowdown: Summary,
    /// Area-weighted mean wait time (seconds), weighting each job by processors ×
    /// runtime as advocated for fairness toward large jobs.
    pub area_weighted_wait: f64,
}

impl AggregateMetrics {
    /// Compute aggregates over a set of job outcomes. Only completed jobs are
    /// included (killed jobs distort response-time statistics).
    pub fn from_outcomes(outcomes: &[JobOutcome]) -> Self {
        Self::from_outcomes_iter(outcomes.iter().copied())
    }

    /// [`from_outcomes`](Self::from_outcomes) over a sequence that can be
    /// walked more than once, without collecting it into a slice first. Each
    /// summary walks the outcomes once more, and all four sort their keys in
    /// one reused buffer.
    pub fn from_outcomes_iter<I>(outcomes: I) -> Self
    where
        I: Iterator<Item = JobOutcome> + Clone,
    {
        let done = outcomes.filter(|o| o.completed);
        let jobs = done.clone().count();
        let mut keys = Vec::with_capacity(jobs);
        AggregateMetrics {
            jobs,
            wait_time: summarize_into(done.clone().map(|o| o.wait_time()), &mut keys),
            response_time: summarize_into(done.clone().map(|o| o.response_time()), &mut keys),
            slowdown: summarize_into(done.clone().map(|o| o.slowdown()), &mut keys),
            bounded_slowdown: summarize_into(done.clone().map(|o| o.bounded_slowdown()), &mut keys),
            area_weighted_wait: weighted_mean_pairs(done.map(|o| (o.wait_time(), o.area()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stable-sort implementation the key sort replaced, kept as the
    /// oracle it must match bit for bit.
    mod reference {
        use super::super::{percentile_sorted, weighted_mean, AggregateMetrics, Summary};
        use crate::job::JobOutcome;

        pub fn summarize(values: &[f64]) -> Summary {
            let mut clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            if clean.is_empty() {
                return Summary::default();
            }
            clean.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let count = clean.len();
            let mean = clean.iter().sum::<f64>() / count as f64;
            let var = clean.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
            Summary {
                count,
                mean,
                std_dev: var.sqrt(),
                min: clean[0],
                max: clean[count - 1],
                median: percentile_sorted(&clean, 50.0),
                p90: percentile_sorted(&clean, 90.0),
                p99: percentile_sorted(&clean, 99.0),
            }
        }

        pub fn from_outcomes(outcomes: &[JobOutcome]) -> AggregateMetrics {
            let done: Vec<&JobOutcome> = outcomes.iter().filter(|o| o.completed).collect();
            let waits: Vec<f64> = done.iter().map(|o| o.wait_time()).collect();
            let resp: Vec<f64> = done.iter().map(|o| o.response_time()).collect();
            let slow: Vec<f64> = done.iter().map(|o| o.slowdown()).collect();
            let bslow: Vec<f64> = done.iter().map(|o| o.bounded_slowdown()).collect();
            let areas: Vec<f64> = done.iter().map(|o| o.area()).collect();
            AggregateMetrics {
                jobs: done.len(),
                wait_time: summarize(&waits),
                response_time: summarize(&resp),
                slowdown: summarize(&slow),
                bounded_slowdown: summarize(&bslow),
                area_weighted_wait: weighted_mean(&waits, &areas),
            }
        }
    }

    /// Every field of a summary as exact bits (`==` would let ±0 and NaN
    /// through).
    fn summary_bits(s: &Summary) -> [u64; 8] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.std_dev.to_bits(),
            s.min.to_bits(),
            s.max.to_bits(),
            s.median.to_bits(),
            s.p90.to_bits(),
            s.p99.to_bits(),
        ]
    }

    fn aggregate_bits(a: &AggregateMetrics) -> Vec<u64> {
        let mut bits = vec![a.jobs as u64, a.area_weighted_wait.to_bits()];
        for s in [
            &a.wait_time,
            &a.response_time,
            &a.slowdown,
            &a.bounded_slowdown,
        ] {
            bits.extend(summary_bits(s));
        }
        bits
    }

    /// Values that stress the key order: both zeros, infinities, NaN
    /// payloads, subnormals, negatives, and a small pool that repeats.
    fn value() -> impl Strategy<Value = f64> {
        (0u8..10, 0u64..=u64::MAX, -1.0e6f64..1.0e6).prop_map(|(kind, bits, x)| {
            let sign = bits & (1 << 63);
            match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(sign | f64::INFINITY.to_bits()),
                // A NaN with a non-zero payload.
                3 => f64::from_bits(sign | 0x7ff0_0000_0000_0001 | (bits & 0x000f_ffff_ffff_ffff)),
                // A subnormal (or zero) of either sign.
                4 => f64::from_bits(sign | (bits & 0x000f_ffff_ffff_ffff)),
                5 | 6 => [-3.0, -1.5, 0.0, 1.0, 2.5, 10.0][(bits % 6) as usize],
                _ => x,
            }
        })
    }

    fn values() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            proptest::collection::vec(value(), 0..=3),
            proptest::collection::vec(value(), 0..3000),
        ]
    }

    prop_compose! {
        fn any_outcome()(
            submit in value(),
            start in value(),
            end in value(),
            zero_runtime in 0u8..4,
            procs in 0u32..300,
            completed in 0u8..5,
        ) -> JobOutcome {
            JobOutcome {
                job_id: 0,
                submit_time: submit,
                start_time: start,
                end_time: if zero_runtime == 0 { start } else { end },
                procs,
                completed: completed != 0,
            }
        }
    }

    proptest! {
        #[test]
        fn summarize_matches_the_stable_sort_bit_for_bit(values in values()) {
            let want = summary_bits(&reference::summarize(&values));
            prop_assert_eq!(summary_bits(&summarize(&values)), want);
            prop_assert_eq!(summary_bits(&summarize_iter(values.iter().copied())), want);
        }

        #[test]
        fn aggregate_matches_the_stable_sort_bit_for_bit(
            outcomes in prop_oneof![
                proptest::collection::vec(any_outcome(), 0..=3),
                proptest::collection::vec(any_outcome(), 0..2000),
            ]
        ) {
            let want = aggregate_bits(&reference::from_outcomes(&outcomes));
            prop_assert_eq!(aggregate_bits(&AggregateMetrics::from_outcomes(&outcomes)), want);
        }
    }

    #[test]
    fn signed_zeros_keep_their_input_order() {
        // A stable sort keeps +0.0 before −0.0 here, so the minimum is +0.0
        // and the sum starts from it; the other order flips both.
        for values in [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0]] {
            assert_eq!(
                summary_bits(&summarize(&values)),
                summary_bits(&reference::summarize(&values)),
                "{values:?}"
            );
        }
        assert_eq!(summarize(&[0.0, -0.0]).min.to_bits(), 0.0f64.to_bits());
        assert_eq!(summarize(&[-0.0, 0.0]).min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(summarize(&[-0.0, -0.0]).mean.to_bits(), (-0.0f64).to_bits());
    }

    fn outcome(submit: f64, start: f64, end: f64, procs: u32) -> JobOutcome {
        JobOutcome {
            job_id: 0,
            submit_time: submit,
            start_time: start,
            end_time: end,
            procs,
            completed: true,
        }
    }

    #[test]
    fn summarize_basic() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std_dev - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summarize_ignores_nonfinite_and_handles_empty() {
        let s = summarize(&[1.0, f64::INFINITY, f64::NAN, 3.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
        let empty = summarize(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 40.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 25.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0, 16.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[-1.0, 0.0]), 0.0);
    }

    #[test]
    fn weighted_mean_weights_properly() {
        let m = weighted_mean(&[1.0, 10.0], &[9.0, 1.0]);
        assert!((m - 1.9).abs() < 1e-12);
        assert_eq!(weighted_mean(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn weighted_mean_length_mismatch_panics() {
        weighted_mean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn batch_means_ci_contains_true_mean_for_constant_data() {
        let data = vec![5.0; 100];
        let ci = batch_means_ci(&data, 10);
        assert_eq!(ci.mean, 5.0);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.batches, 10);
        assert!(ci.overlaps(&ci));
    }

    #[test]
    fn batch_means_ci_wider_for_noisier_data() {
        let calm: Vec<f64> = (0..200).map(|i| 10.0 + (i % 2) as f64 * 0.1).collect();
        let noisy: Vec<f64> = (0..200).map(|i| 10.0 + ((i % 20) as f64 - 10.0)).collect();
        let ci_calm = batch_means_ci(&calm, 10);
        let ci_noisy = batch_means_ci(&noisy, 10);
        assert!(ci_noisy.half_width >= ci_calm.half_width);
    }

    #[test]
    fn batch_means_ci_edge_cases() {
        let ci = batch_means_ci(&[], 5);
        assert_eq!(ci.batches, 0);
        let ci1 = batch_means_ci(&[3.0], 5);
        assert_eq!(ci1.mean, 3.0);
        assert_eq!(ci1.half_width, 0.0);
    }

    #[test]
    fn confidence_interval_overlap() {
        let a = ConfidenceInterval {
            mean: 10.0,
            half_width: 2.0,
            batches: 5,
        };
        let b = ConfidenceInterval {
            mean: 13.0,
            half_width: 2.0,
            batches: 5,
        };
        let c = ConfidenceInterval {
            mean: 20.0,
            half_width: 1.0,
            batches: 5,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.low(), 8.0);
        assert_eq!(a.high(), 12.0);
    }

    #[test]
    fn aggregate_metrics_from_outcomes() {
        let outcomes = vec![
            outcome(0.0, 0.0, 100.0, 10),   // wait 0, resp 100, slowdown 1
            outcome(0.0, 100.0, 200.0, 10), // wait 100, resp 200, slowdown 2
            JobOutcome {
                completed: false,
                ..outcome(0.0, 0.0, 1000.0, 1)
            },
        ];
        let agg = AggregateMetrics::from_outcomes(&outcomes);
        assert_eq!(agg.jobs, 2);
        assert_eq!(agg.wait_time.mean, 50.0);
        assert_eq!(agg.response_time.mean, 150.0);
        assert_eq!(agg.slowdown.mean, 1.5);
        // both jobs have area 1000, so area weighting doesn't change the mean here
        assert_eq!(agg.area_weighted_wait, 50.0);
    }

    #[test]
    fn aggregate_metrics_empty() {
        let agg = AggregateMetrics::from_outcomes(&[]);
        assert_eq!(agg.jobs, 0);
        assert_eq!(agg.wait_time.count, 0);
        assert_eq!(agg.area_weighted_wait, 0.0);
        assert_eq!(agg, AggregateMetrics::default());
    }

    #[test]
    fn aggregate_metrics_single_job() {
        // With one job every summary collapses onto that job's value.
        let agg = AggregateMetrics::from_outcomes(&[outcome(0.0, 30.0, 90.0, 8)]);
        assert_eq!(agg.jobs, 1);
        assert_eq!(agg.wait_time.mean, 30.0);
        assert_eq!(agg.wait_time.min, 30.0);
        assert_eq!(agg.wait_time.max, 30.0);
        assert_eq!(agg.wait_time.median, 30.0);
        assert_eq!(agg.wait_time.p99, 30.0);
        assert_eq!(agg.wait_time.std_dev, 0.0);
        assert_eq!(agg.response_time.mean, 90.0);
        assert_eq!(agg.slowdown.mean, 1.5);
        assert_eq!(agg.area_weighted_wait, 30.0);
    }

    #[test]
    fn aggregate_metrics_zero_runtime_job() {
        // Zero runtime: raw slowdown is infinite and must be excluded from its
        // summary; bounded slowdown stays finite via the threshold; zero area
        // means the job cannot contribute to the area-weighted wait.
        let zero = outcome(0.0, 50.0, 50.0, 4);
        assert_eq!(zero.slowdown(), f64::INFINITY);
        let agg = AggregateMetrics::from_outcomes(&[zero]);
        assert_eq!(agg.jobs, 1);
        assert_eq!(agg.slowdown.count, 0);
        assert_eq!(agg.bounded_slowdown.count, 1);
        assert_eq!(agg.bounded_slowdown.mean, 5.0); // response 50 / threshold 10
        assert_eq!(agg.area_weighted_wait, 0.0);
    }

    #[test]
    fn bounded_slowdown_threshold_behaviour() {
        // Below the 10 s threshold the denominator clamps to the threshold…
        let short = outcome(0.0, 10.0, 11.0, 1); // wait 10, run 1, response 11
        assert_eq!(short.slowdown(), 11.0);
        assert_eq!(short.bounded_slowdown(), 1.1); // 11 / max(1, 10)
                                                   // …exactly at the threshold bounded and raw slowdown agree…
        let at = outcome(0.0, 10.0, 20.0, 1); // run 10, response 20
        assert_eq!(at.bounded_slowdown(), at.slowdown());
        // …and above it the bound has no effect.
        let long = outcome(0.0, 100.0, 1100.0, 1); // run 1000, response 1100
        assert!((long.bounded_slowdown() - long.slowdown()).abs() < 1e-12);
        // The metric is floored at 1 even when response < threshold.
        let instant = outcome(0.0, 0.0, 5.0, 1); // response 5 → 5/10 < 1
        assert_eq!(instant.bounded_slowdown(), 1.0);
        // An explicit threshold reproduces the raw slowdown.
        assert_eq!(short.bounded_slowdown_with(1.0), 11.0);
    }
}
