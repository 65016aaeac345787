//! The common interface of rigid-job workload models.
//!
//! "Rigid job models create a sequence of jobs with given arrival time, number of
//! processors, and runtime" (Section 2.1). Every model in this crate implements
//! [`WorkloadModel`]: given a job count and a seed it produces a conforming SWF log,
//! so models, converted raw logs, and archive-style logs are interchangeable inputs
//! to the simulator and the benchmark suite.

use psbench_swf::{clean, SwfHeader, SwfLog, SwfRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A generator of rigid-job workloads in the standard format.
pub trait WorkloadModel: Send + Sync {
    /// A short, stable name used in reports and benchmark suites.
    fn name(&self) -> &'static str;

    /// The machine size (in processors) the model is parameterized for.
    fn machine_size(&self) -> u32;

    /// Generate a workload of `n_jobs` jobs using the given seed. The returned log
    /// is conforming: sorted by submit time, numbered 1..n, first submit at zero.
    fn generate(&self, n_jobs: usize, seed: u64) -> SwfLog;
}

/// How user runtime estimates (SWF field 9, "requested time") are produced from the
/// actual runtimes. Production logs show users overestimate heavily, and backfilling
/// schedulers depend on those estimates, so the model is explicit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimateModel {
    /// No estimates at all (field left unknown).
    None,
    /// Estimates exactly equal to the runtime (perfect information).
    Exact,
    /// Estimate = runtime multiplied by a factor drawn uniformly from `[1, max_over]`,
    /// clipped to `max_runtime` when given. This reproduces the heavy overestimation
    /// seen in practice.
    UniformOverestimate {
        /// Largest overestimation factor.
        max_over: f64,
    },
}

impl Default for EstimateModel {
    fn default() -> Self {
        EstimateModel::UniformOverestimate { max_over: 5.0 }
    }
}

impl EstimateModel {
    /// Produce an estimate for a job of the given runtime.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        runtime: i64,
        max_runtime: Option<i64>,
    ) -> Option<i64> {
        let est = match self {
            EstimateModel::None => return None,
            EstimateModel::Exact => runtime,
            EstimateModel::UniformOverestimate { max_over } => {
                let f: f64 = rng.gen_range(1.0..max_over.max(1.0 + f64::EPSILON));
                (runtime as f64 * f).ceil() as i64
            }
        };
        Some(match max_runtime {
            Some(m) => est.min(m).max(runtime.min(m)),
            None => est,
        })
    }
}

/// Parameters shared by all models: the machine, the user population, and how
/// estimates are produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommonParams {
    /// Machine size in processors.
    pub machine_size: u32,
    /// Maximum runtime the system allows (jobs are truncated to this), seconds.
    pub max_runtime: i64,
    /// Number of distinct users to attribute jobs to.
    pub users: u32,
    /// Number of distinct applications (executables).
    pub executables: u32,
    /// Runtime-estimate model.
    pub estimates: EstimateModel,
}

impl Default for CommonParams {
    fn default() -> Self {
        CommonParams {
            machine_size: 128,
            max_runtime: 18 * 3600,
            users: 64,
            executables: 32,
            estimates: EstimateModel::default(),
        }
    }
}

impl CommonParams {
    /// A copy with a different machine size.
    pub fn with_machine_size(mut self, machine_size: u32) -> Self {
        self.machine_size = machine_size;
        self
    }
}

/// A not-yet-numbered job produced by a model: everything except identity fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedJob {
    /// Arrival time in seconds (not necessarily rebased to zero yet).
    pub submit_time: i64,
    /// Runtime in seconds.
    pub run_time: i64,
    /// Number of processors.
    pub procs: u32,
    /// True if the job is interactive (queue 0), false for batch.
    pub interactive: bool,
}

/// Assemble generated jobs into a conforming SWF log: assign ids, users,
/// executables and estimates, build the header, and [`clean`] it. The ids
/// ascend in generation order, so `clean` sorts by submit as a stable sort
/// would, rebases, and renumbers the jobs 1..n in submit order.
pub fn assemble_log<R: Rng + ?Sized>(
    rng: &mut R,
    model_name: &str,
    common: &CommonParams,
    jobs: Vec<GeneratedJob>,
) -> SwfLog {
    let users = ZipfTable::new(common.users.max(1));
    let executables = ZipfTable::new(common.executables.max(1));
    let mut records: Vec<SwfRecord> = Vec::with_capacity(jobs.len());
    for (i, j) in jobs.into_iter().enumerate() {
        let runtime = j.run_time.clamp(1, common.max_runtime);
        let procs = j.procs.clamp(1, common.machine_size);
        let mut rec = SwfRecord::rigid(i as u64 + 1, j.submit_time, runtime, procs);
        rec.requested_time = common
            .estimates
            .estimate(rng, runtime, Some(common.max_runtime));
        // Users follow a skewed (zipf-ish) popularity: a few users submit most jobs.
        let u = users.draw(rng);
        rec.user_id = Some(u);
        rec.group_id = Some((u - 1) / 8 + 1);
        rec.executable_id = Some(executables.draw(rng));
        rec.queue_id = Some(if j.interactive { 0 } else { 1 });
        rec.partition_id = Some(1);
        rec.status = psbench_swf::CompletionStatus::Completed;
        records.push(rec);
    }
    let mut header = SwfHeader::synthetic(model_name, common.machine_size);
    header.max_runtime = Some(common.max_runtime);
    header.queues = Some("queue 0 = interactive, queue 1 = batch".to_string());
    let mut log = SwfLog::new(header, records);
    clean(&mut log);
    log
}

/// Draw a user / executable index from 1..=n with a skewed, roughly Zipf-like
/// popularity (index 1 is the most popular).
pub fn zipf_like<R: Rng + ?Sized>(rng: &mut R, n: u32) -> u32 {
    ZipfTable::new(n).draw(rng)
}

/// The Zipf-like popularity weights `1/k` of indices 1..=n and their sum,
/// built once so that a log's many draws do not re-sum them.
struct ZipfTable {
    weights: Vec<f64>,
    total: f64,
}

impl ZipfTable {
    fn new(n: u32) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total = weights.iter().sum();
        ZipfTable { weights, total }
    }

    /// Draw an index by inverse transform on the weights. A table of at most
    /// one index returns 1 without touching `rng`.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if self.weights.len() <= 1 {
            return 1;
        }
        let mut x = rng.gen_range(0.0..self.total);
        for (k, &w) in (1..).zip(&self.weights) {
            if x < w {
                return k;
            }
            x -= w;
        }
        self.weights.len() as u32
    }
}

/// Convenience wrapper: seed a [`StdRng`] for a model run.
pub fn model_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_swf::validate;
    use rand::RngCore;

    #[test]
    fn estimate_models() {
        let mut rng = model_rng(1);
        assert_eq!(EstimateModel::None.estimate(&mut rng, 100, None), None);
        assert_eq!(
            EstimateModel::Exact.estimate(&mut rng, 100, None),
            Some(100)
        );
        for _ in 0..200 {
            let e = EstimateModel::UniformOverestimate { max_over: 4.0 }
                .estimate(&mut rng, 100, Some(1000))
                .unwrap();
            assert!((100..=400).contains(&e), "estimate {e}");
        }
        // clipping to max runtime
        let e = EstimateModel::UniformOverestimate { max_over: 100.0 }
            .estimate(&mut rng, 900, Some(1000))
            .unwrap();
        assert!(e <= 1000);
    }

    #[test]
    fn zipf_like_is_skewed_and_bounded() {
        let mut rng = model_rng(2);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            let k = zipf_like(&mut rng, 16);
            assert!((1..=16).contains(&k));
            counts[(k - 1) as usize] += 1;
        }
        assert!(counts[0] > counts[7]);
        assert!(counts[0] > counts[15] * 3);
        assert_eq!(zipf_like(&mut rng, 1), 1);
    }

    /// Reference draw: the same inverse transform, re-summing the weights on
    /// every call.
    fn summing_zipf_like<R: Rng + ?Sized>(rng: &mut R, n: u32) -> u32 {
        if n <= 1 {
            return 1;
        }
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut x = rng.gen_range(0.0..h);
        for k in 1..=n {
            let w = 1.0 / k as f64;
            if x < w {
                return k;
            }
            x -= w;
        }
        n
    }

    #[test]
    fn zipf_table_draws_what_the_summing_draw_did() {
        // Two copies of one stream, advanced in lockstep across every n: the
        // draws must agree, and so must the number of values each consumed.
        let (mut a, mut b) = (model_rng(26), model_rng(26));
        for n in 1..=200u32 {
            let table = ZipfTable::new(n);
            for _ in 0..64 {
                assert_eq!(table.draw(&mut a), summing_zipf_like(&mut b, n), "n = {n}");
            }
            assert_eq!(
                zipf_like(&mut a, n),
                summing_zipf_like(&mut b, n),
                "n = {n}"
            );
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn assemble_log_produces_conforming_swf() {
        let mut rng = model_rng(3);
        let jobs: Vec<GeneratedJob> = (0..200)
            .map(|i| GeneratedJob {
                submit_time: 1000 + i * 37,
                run_time: 60 + (i % 50) * 10,
                procs: 1 + (i % 64) as u32,
                interactive: i % 5 == 0,
            })
            .collect();
        let common = CommonParams::default();
        let log = assemble_log(&mut rng, "test-model", &common, jobs);
        assert_eq!(log.len(), 200);
        assert!(validate(&log).is_clean());
        assert_eq!(log.first_submit(), 0);
        assert!(log
            .jobs
            .iter()
            .all(|j| j.procs().unwrap() <= common.machine_size));
        assert!(log
            .jobs
            .iter()
            .all(|j| j.run_time.unwrap() <= common.max_runtime));
        assert!(log.jobs.iter().all(|j| j.user_id.unwrap() <= common.users));
        assert!(log.jobs.iter().any(|j| j.queue_id == Some(0)));
        assert!(log.jobs.iter().any(|j| j.queue_id == Some(1)));
        assert!(log.header.notes[0].contains("test-model"));
    }

    #[test]
    fn assemble_log_clamps_out_of_range_jobs() {
        let mut rng = model_rng(4);
        let jobs = vec![GeneratedJob {
            submit_time: 0,
            run_time: 10_000_000,
            procs: 100_000,
            interactive: false,
        }];
        let common = CommonParams::default();
        let log = assemble_log(&mut rng, "clamp", &common, jobs);
        assert_eq!(log.jobs[0].procs(), Some(common.machine_size));
        assert_eq!(log.jobs[0].run_time, Some(common.max_runtime));
    }

    #[test]
    fn common_params_builder() {
        let p = CommonParams::default().with_machine_size(512);
        assert_eq!(p.machine_size, 512);
    }
}
