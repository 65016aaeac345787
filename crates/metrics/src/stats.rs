//! Distribution statistics used to compare workloads and models.
//!
//! Section 2.1 of the paper cites a statistical comparison of workload models and
//! logs ("comparing logs and models ... using the co-plot method" \[58\]) and the
//! model-selection question ("Lublin is relatively representative"). This module
//! provides the machinery experiment E3 needs: moments, correlations, and a
//! normalized multi-workload comparison matrix in the spirit of co-plot.
//! Distribution distances (Kolmogorov–Smirnov and friends) live in
//! `psbench_analyze::distance`, over the mergeable sketches that `psbench
//! compare` and experiment E10 build.

use serde::{Deserialize, Serialize};

/// First four standardized moments of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Moments {
    /// Sample size.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Coefficient of variation (std dev / mean; 0 when the mean is 0).
    pub cv: f64,
    /// Skewness (third standardized moment; 0 for fewer than 3 points).
    pub skewness: f64,
}

/// Compute the [`Moments`] of a sample; non-finite values are ignored.
pub fn moments(values: &[f64]) -> Moments {
    let clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let n = clean.len();
    if n == 0 {
        return Moments::default();
    }
    let mean = clean.iter().sum::<f64>() / n as f64;
    let var = clean.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    let cv = if mean.abs() > 1e-300 { sd / mean } else { 0.0 };
    let skew = if n >= 3 && sd > 1e-300 {
        clean.iter().map(|v| ((v - mean) / sd).powi(3)).sum::<f64>() / n as f64
    } else {
        0.0
    };
    Moments {
        count: n,
        mean,
        cv,
        skewness: skew,
    }
}

/// Pearson correlation coefficient between two equal-length samples; 0 if either
/// sample is degenerate.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs equal-length samples");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// The per-workload feature vector used in the co-plot-style comparison: a handful
/// of dimensionless characteristics that together locate a workload in "workload
/// space".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkloadFeatures {
    /// Name of the workload (log or model).
    pub name: String,
    /// Mean job size in processors.
    pub mean_procs: f64,
    /// Fraction of jobs whose size is a power of two.
    pub power_of_two_fraction: f64,
    /// Fraction of serial (1-processor) jobs.
    pub serial_fraction: f64,
    /// Mean runtime in seconds.
    pub mean_runtime: f64,
    /// Coefficient of variation of runtimes.
    pub runtime_cv: f64,
    /// Mean interarrival time in seconds.
    pub mean_interarrival: f64,
    /// Coefficient of variation of interarrival times.
    pub interarrival_cv: f64,
    /// Correlation between job size and runtime.
    pub size_runtime_correlation: f64,
}

/// Extract [`WorkloadFeatures`] from an SWF log.
pub fn workload_features(name: &str, log: &psbench_swf::SwfLog) -> WorkloadFeatures {
    let sizes: Vec<f64> = log
        .summaries()
        .filter_map(|j| j.procs())
        .map(|p| p as f64)
        .collect();
    let runtimes: Vec<f64> = log
        .summaries()
        .filter_map(|j| j.run_time)
        .map(|r| r as f64)
        .collect();
    let mut submits: Vec<f64> = log.summaries().map(|j| j.submit_time as f64).collect();
    submits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let interarrivals: Vec<f64> = submits.windows(2).map(|w| w[1] - w[0]).collect();

    let pow2 = if sizes.is_empty() {
        0.0
    } else {
        sizes
            .iter()
            .filter(|&&s| {
                let p = s as u64;
                p > 0 && (p & (p - 1)) == 0
            })
            .count() as f64
            / sizes.len() as f64
    };
    let serial = if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().filter(|&&s| s == 1.0).count() as f64 / sizes.len() as f64
    };

    // size-runtime correlation needs paired samples
    let pairs: Vec<(f64, f64)> = log
        .summaries()
        .filter_map(|j| match (j.procs(), j.run_time) {
            (Some(p), Some(r)) => Some((p as f64, r as f64)),
            _ => None,
        })
        .collect();
    let (ps, rs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();

    let size_m = moments(&sizes);
    let run_m = moments(&runtimes);
    let ia_m = moments(&interarrivals);

    WorkloadFeatures {
        name: name.to_string(),
        mean_procs: size_m.mean,
        power_of_two_fraction: pow2,
        serial_fraction: serial,
        mean_runtime: run_m.mean,
        runtime_cv: run_m.cv,
        mean_interarrival: ia_m.mean,
        interarrival_cv: ia_m.cv,
        size_runtime_correlation: pearson_correlation(&ps, &rs),
    }
}

impl WorkloadFeatures {
    /// The raw feature vector (excluding the name), in a fixed order.
    pub fn vector(&self) -> [f64; 8] {
        [
            self.mean_procs,
            self.power_of_two_fraction,
            self.serial_fraction,
            self.mean_runtime,
            self.runtime_cv,
            self.mean_interarrival,
            self.interarrival_cv,
            self.size_runtime_correlation,
        ]
    }

    /// Names of the feature dimensions, aligned with [`vector`](Self::vector).
    pub fn dimension_names() -> [&'static str; 8] {
        [
            "mean procs",
            "power-of-two fraction",
            "serial fraction",
            "mean runtime",
            "runtime CV",
            "mean interarrival",
            "interarrival CV",
            "size-runtime correlation",
        ]
    }
}

/// A co-plot-style comparison of several workloads: every feature dimension is
/// normalized to `[0,1]` across the workloads, and pairwise Euclidean distances in
/// the normalized space measure how similar the workloads are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ComparisonMatrix {
    /// Workload names in row/column order.
    pub names: Vec<String>,
    /// Normalized feature vectors, one per workload.
    pub normalized: Vec<[f64; 8]>,
    /// Pairwise distances `distance[i][j]` between workloads i and j.
    pub distance: Vec<Vec<f64>>,
}

/// Build a [`ComparisonMatrix`] from per-workload features.
pub fn compare_workloads(features: &[WorkloadFeatures]) -> ComparisonMatrix {
    let n = features.len();
    if n == 0 {
        return ComparisonMatrix::default();
    }
    let vectors: Vec<[f64; 8]> = features.iter().map(|f| f.vector()).collect();
    // Normalize each dimension to [0,1] across workloads.
    let mut normalized = vectors.clone();
    for d in 0..8 {
        let min = vectors.iter().map(|v| v[d]).fold(f64::INFINITY, f64::min);
        let max = vectors
            .iter()
            .map(|v| v[d])
            .fold(f64::NEG_INFINITY, f64::max);
        let range = max - min;
        for (i, v) in vectors.iter().enumerate() {
            normalized[i][d] = if range > 1e-300 {
                (v[d] - min) / range
            } else {
                0.0
            };
        }
    }
    let mut distance = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let d: f64 = (0..8)
                .map(|k| (normalized[i][k] - normalized[j][k]).powi(2))
                .sum::<f64>()
                .sqrt();
            distance[i][j] = d;
        }
    }
    ComparisonMatrix {
        names: features.iter().map(|f| f.name.clone()).collect(),
        normalized,
        distance,
    }
}

impl ComparisonMatrix {
    /// The workload most similar (smallest distance) to the workload at `index`,
    /// excluding itself. Returns `None` for a singleton matrix.
    pub fn nearest(&self, index: usize) -> Option<(usize, f64)> {
        let row = self.distance.get(index)?;
        row.iter()
            .enumerate()
            .filter(|(j, _)| *j != index)
            .map(|(j, &d)| (j, d))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_swf::{SwfHeader, SwfLog, SwfRecord};

    #[test]
    fn moments_of_known_sample() {
        let m = moments(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count, 8);
        assert_eq!(m.mean, 5.0);
        assert!((m.cv - 2.0 / 5.0).abs() < 1e-12);
        assert!(m.skewness > 0.0); // right-skewed sample
        assert_eq!(moments(&[]).count, 0);
    }

    #[test]
    fn correlation_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&xs, &zs) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson_correlation(&xs, &flat), 0.0);
        assert_eq!(pearson_correlation(&[1.0], &[2.0]), 0.0);
    }

    fn tiny_log(sizes: &[u32], runtimes: &[i64]) -> SwfLog {
        let jobs: Vec<SwfRecord> = sizes
            .iter()
            .zip(runtimes)
            .enumerate()
            .map(|(i, (&p, &r))| SwfRecord::rigid(i as u64 + 1, i as i64 * 10, r, p))
            .collect();
        SwfLog::new(SwfHeader::default(), jobs)
    }

    #[test]
    fn workload_features_empty_log() {
        let f = workload_features("empty", &SwfLog::default());
        assert_eq!(f.mean_procs, 0.0);
        assert_eq!(f.power_of_two_fraction, 0.0);
        assert_eq!(f.serial_fraction, 0.0);
        for v in f.vector() {
            assert!(
                v.is_finite(),
                "feature vector must stay finite on an empty log"
            );
        }
    }

    #[test]
    fn workload_features_single_job() {
        // One job: means collapse to the job, spreads and correlations to zero.
        let f = workload_features("one", &tiny_log(&[4], &[100]));
        assert_eq!(f.mean_procs, 4.0);
        assert_eq!(f.mean_runtime, 100.0);
        assert_eq!(f.runtime_cv, 0.0);
        assert_eq!(f.mean_interarrival, 0.0);
        assert_eq!(f.size_runtime_correlation, 0.0);
        for v in f.vector() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn workload_features_from_log() {
        let log = tiny_log(&[1, 2, 4, 3], &[10, 20, 40, 30]);
        let f = workload_features("tiny", &log);
        assert_eq!(f.name, "tiny");
        assert_eq!(f.mean_procs, 2.5);
        assert_eq!(f.serial_fraction, 0.25);
        assert_eq!(f.power_of_two_fraction, 0.75);
        assert_eq!(f.mean_runtime, 25.0);
        assert_eq!(f.mean_interarrival, 10.0);
        assert!((f.size_runtime_correlation - 1.0).abs() < 1e-12);
        assert_eq!(WorkloadFeatures::dimension_names().len(), f.vector().len());
    }

    #[test]
    fn comparison_matrix_identifies_similar_workloads() {
        let a = workload_features("a", &tiny_log(&[1, 2, 4, 8], &[10, 20, 40, 80]));
        let b = workload_features("b", &tiny_log(&[1, 2, 4, 8], &[11, 21, 41, 81]));
        let c = workload_features(
            "c",
            &tiny_log(&[128, 256, 512, 300], &[50_000, 60_000, 70_000, 1_000]),
        );
        let m = compare_workloads(&[a, b, c]);
        assert_eq!(m.names, vec!["a", "b", "c"]);
        // a is closer to b than to c
        assert!(m.distance[0][1] < m.distance[0][2]);
        assert_eq!(m.nearest(0).unwrap().0, 1);
        // distances are symmetric with zero diagonal
        for i in 0..3 {
            assert_eq!(m.distance[i][i], 0.0);
            for j in 0..3 {
                assert!((m.distance[i][j] - m.distance[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn comparison_matrix_edge_cases() {
        assert_eq!(compare_workloads(&[]), ComparisonMatrix::default());
        let single = compare_workloads(&[workload_features("x", &tiny_log(&[1], &[10]))]);
        assert_eq!(single.nearest(0), None);
    }
}
