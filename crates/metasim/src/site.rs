//! Sites: machine schedulers wrapped for the metasystem.
//!
//! Section 4.2 of the paper prescribes exactly the simplification implemented here:
//! "meta schedulers can be evaluated using simple models of local schedulers ...
//! A simple model of a local scheduler would just model the wait time of
//! applications submitted to it, the error of wait time predictions, when
//! reservations can be made, etc." A [`Site`] therefore models a parallel machine
//! by its size, its background load, a queue-wait model, a wait-time predictor with
//! a configurable error, an advance-reservation book, and a price.

use psbench_sched::{StepFn, StepVec};
use psbench_workload::dist::exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Heterogeneity knobs of a site (Section 4.1's three flavours).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Site identifier.
    pub id: u32,
    /// Number of processors.
    pub procs: u32,
    /// Relative processor speed (architectural/configuration heterogeneity); 1.0 is
    /// the reference speed. Runtimes scale by `1 / speed`.
    pub speed: f64,
    /// Background utilization in `[0,1)` from locally submitted jobs (load
    /// heterogeneity). Higher load means longer queue waits.
    pub background_load: f64,
    /// Price charged per processor-second (the economic model of Section 4.2).
    pub cost_per_proc_second: f64,
    /// Mean wait time (seconds) of a job that asks for the whole machine when the
    /// background load is 0.5; scales with load and request size.
    pub base_wait: f64,
    /// Relative error of the site's queue-wait predictions (0 = clairvoyant).
    pub prediction_error: f64,
    /// Whether the local scheduler supports advance reservations.
    pub supports_reservations: bool,
}

impl SiteSpec {
    /// A reasonable default site of the given size.
    pub fn new(id: u32, procs: u32) -> Self {
        SiteSpec {
            id,
            procs,
            speed: 1.0,
            background_load: 0.6,
            cost_per_proc_second: 1.0,
            base_wait: 4.0 * 3600.0,
            prediction_error: 0.3,
            supports_reservations: true,
        }
    }
}

/// A site: the spec plus mutable state (reservation book, queue backlog, RNG).
#[derive(Debug, Clone)]
pub struct Site {
    /// The static description of the site.
    pub spec: SiteSpec,
    /// The advance-reservation book: free processors over time, the same
    /// step function the engine shards book into.
    pub calendar: StepVec,
    /// Earliest time at which the site's queue is expected to drain for a
    /// full-machine request (advances as meta-jobs are accepted).
    backlog_until: f64,
    rng: StdRng,
}

/// The outcome of submitting a request to a site's queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SitePlacement {
    /// Site the request ran on.
    pub site: u32,
    /// Time the request was handed to the site.
    pub submitted: f64,
    /// Time the request started.
    pub start: f64,
    /// Time the request finished.
    pub end: f64,
    /// Processors used.
    pub procs: u32,
    /// What the user paid.
    pub cost: f64,
}

impl Site {
    /// Create a site from its spec with a deterministic per-site RNG.
    pub fn new(spec: SiteSpec, seed: u64) -> Self {
        Site {
            calendar: StepVec::anchored(0.0, spec.procs as f64),
            backlog_until: 0.0,
            rng: StdRng::seed_from_u64(seed ^ (spec.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            spec,
        }
    }

    /// The runtime of `work` reference-seconds of computation on this site, on
    /// `procs` processors with ideal scaling (heterogeneous speed applied).
    pub fn runtime_of(&self, work_proc_seconds: f64, procs: u32) -> f64 {
        work_proc_seconds / (procs.max(1) as f64 * self.spec.speed.max(1e-9))
    }

    /// The *actual* queue wait a request of `procs` processors experiences if
    /// submitted at `now` (drawn from the site's wait model).
    pub fn sample_wait(&mut self, now: f64, procs: u32) -> f64 {
        let fraction = procs.min(self.spec.procs) as f64 / self.spec.procs as f64;
        let load_factor = 1.0 / (1.0 - self.spec.background_load.clamp(0.0, 0.95));
        let mean = self.spec.base_wait * fraction * load_factor * 0.5;
        let queue_wait = exponential(&mut self.rng, mean.max(1.0));
        let backlog_wait = (self.backlog_until - now).max(0.0);
        queue_wait + backlog_wait
    }

    /// The site's *prediction* of the wait a request of `procs` processors would
    /// experience if submitted at `now` (the true expectation perturbed by the
    /// site's prediction error, as in the queue-time-prediction literature).
    ///
    /// Prediction is a pure query: the noise is a deterministic hash of
    /// `(site, now, procs)`, not a draw from the site's RNG, so asking for a
    /// prediction never perturbs subsequent [`Self::sample_wait`] draws —
    /// predict-then-submit places a job exactly where submit alone would.
    pub fn predict_wait(&self, now: f64, procs: u32) -> f64 {
        let fraction = procs.min(self.spec.procs) as f64 / self.spec.procs as f64;
        let load_factor = 1.0 / (1.0 - self.spec.background_load.clamp(0.0, 0.95));
        let mean = self.spec.base_wait * fraction * load_factor * 0.5;
        let backlog_wait = (self.backlog_until - now).max(0.0);
        let err = self.spec.prediction_error.max(0.0);
        let noise: f64 = if err > 0.0 {
            // splitmix64 over the query coordinates → uniform in [-err, err).
            let mut h = (self.spec.id as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(now.to_bits())
                .wrapping_add((procs as u64) << 32);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            err * (2.0 * unit - 1.0)
        } else {
            0.0
        };
        ((mean + backlog_wait) * (1.0 + noise)).max(0.0)
    }

    /// Submit a request through the batch queue: `work_proc_seconds` of computation
    /// on `procs` processors at time `now`. Returns where and when it ran.
    pub fn submit(&mut self, now: f64, work_proc_seconds: f64, procs: u32) -> SitePlacement {
        let procs = procs.min(self.spec.procs).max(1);
        let wait = self.sample_wait(now, procs);
        let start = now + wait;
        let runtime = self.runtime_of(work_proc_seconds, procs);
        let end = start + runtime;
        // Wide requests push the site's backlog out (they occupy the machine).
        let fraction = procs as f64 / self.spec.procs as f64;
        self.backlog_until = self.backlog_until.max(now) + runtime * fraction;
        SitePlacement {
            site: self.spec.id,
            submitted: now,
            start,
            end,
            procs,
            cost: work_proc_seconds / self.spec.speed * self.spec.cost_per_proc_second,
        }
    }

    /// Try to book an advance reservation for `procs` processors during
    /// `[start, start+duration)`; returns whether it was booked. Fails if the
    /// site does not support reservations, the request is malformed
    /// (`duration ≤ 0`, `procs` outside `1..=spec.procs`), or the window does
    /// not [`fit`](StepVec::fits) the book.
    pub fn try_reserve(&mut self, start: f64, duration: f64, procs: u32) -> bool {
        self.spec.supports_reservations
            && book(
                &mut self.calendar,
                self.spec.procs,
                start,
                start + duration,
                procs,
            )
    }

    /// Run a request inside a previously booked reservation: it starts exactly at
    /// the reservation start (no queue wait).
    pub fn run_reserved(
        &mut self,
        start: f64,
        work_proc_seconds: f64,
        procs: u32,
    ) -> SitePlacement {
        let procs = procs.min(self.spec.procs).max(1);
        let runtime = self.runtime_of(work_proc_seconds, procs);
        SitePlacement {
            site: self.spec.id,
            submitted: start,
            start,
            end: start + runtime,
            procs,
            cost: work_proc_seconds / self.spec.speed * self.spec.cost_per_proc_second,
        }
    }
}

/// Book `procs` processors over `[start, end)` in the advance-reservation book
/// of a `machine`-processor site — the one booking rule behind
/// [`Site::try_reserve`] and reserve dispatch. The promise is made against
/// nominal capacity (outages are not predictable): it is booked when the
/// request is well formed (`end > start`, `1 ≤ procs ≤ machine`) and the
/// book [`fits`](StepVec::fits) it. Returns whether it was booked.
pub(crate) fn book(calendar: &mut StepVec, machine: u32, start: f64, end: f64, procs: u32) -> bool {
    let ok =
        end > start && (1..=machine).contains(&procs) && calendar.fits(start, end, procs as f64);
    if ok {
        calendar.add_range(start, end, -(procs as f64));
    }
    ok
}

/// Build a heterogeneous metasystem of `n` sites with varied sizes, speeds, loads
/// and prices (the three heterogeneity axes of Section 4.1).
pub fn standard_metasystem(n: usize, seed: u64) -> Vec<Site> {
    let sizes = [128u32, 256, 64, 512, 96, 384];
    let speeds = [1.0, 1.4, 0.8, 2.0, 1.1, 0.9];
    let loads = [0.5, 0.7, 0.4, 0.8, 0.6, 0.55];
    let prices = [1.0, 1.8, 0.6, 2.5, 1.2, 0.9];
    (0..n)
        .map(|i| {
            let mut spec = SiteSpec::new(i as u32, sizes[i % sizes.len()]);
            spec.speed = speeds[i % speeds.len()];
            spec.background_load = loads[i % loads.len()];
            spec.cost_per_proc_second = prices[i % prices.len()];
            Site::new(spec, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_scales_with_procs_and_speed() {
        let mut spec = SiteSpec::new(1, 128);
        spec.speed = 2.0;
        let site = Site::new(spec, 1);
        assert_eq!(site.runtime_of(6400.0, 32), 100.0);
        assert_eq!(site.runtime_of(6400.0, 64), 50.0);
        let slow = Site::new(SiteSpec { speed: 0.5, ..spec }, 1);
        assert_eq!(slow.runtime_of(6400.0, 32), 400.0);
    }

    #[test]
    fn heavier_load_means_longer_expected_waits() {
        let mut light_spec = SiteSpec::new(1, 128);
        light_spec.background_load = 0.2;
        let mut heavy_spec = SiteSpec::new(2, 128);
        heavy_spec.background_load = 0.9;
        let mut light = Site::new(light_spec, 7);
        let mut heavy = Site::new(heavy_spec, 7);
        let n = 300;
        let mean = |s: &mut Site| (0..n).map(|_| s.sample_wait(0.0, 64)).sum::<f64>() / n as f64;
        assert!(mean(&mut heavy) > mean(&mut light) * 2.0);
    }

    #[test]
    fn wider_requests_wait_longer_on_average() {
        let mut site = Site::new(SiteSpec::new(1, 128), 3);
        let n = 300;
        let narrow: f64 = (0..n).map(|_| site.sample_wait(0.0, 1)).sum::<f64>() / n as f64;
        let wide: f64 = (0..n).map(|_| site.sample_wait(0.0, 128)).sum::<f64>() / n as f64;
        assert!(wide > narrow);
    }

    #[test]
    fn submit_accumulates_backlog() {
        let mut site = Site::new(SiteSpec::new(1, 128), 5);
        let p1 = site.submit(0.0, 128.0 * 3600.0, 128);
        assert!(p1.start >= 0.0);
        assert!(p1.end > p1.start);
        assert!(p1.cost > 0.0);
        // A second full-machine submission sees the backlog of the first.
        let w_before = site.backlog_until;
        let p2 = site.submit(0.0, 128.0 * 3600.0, 128);
        assert!(w_before > 0.0);
        assert!(p2.start >= w_before - 1e-6);
    }

    #[test]
    fn predictions_are_within_the_configured_error() {
        let mut spec = SiteSpec::new(1, 128);
        spec.prediction_error = 0.0;
        let clairvoyant = Site::new(spec, 9);
        let p = clairvoyant.predict_wait(0.0, 64);
        let expected = spec.base_wait * 0.5 * (1.0 / (1.0 - spec.background_load)) * 0.5;
        assert!((p - expected).abs() < 1e-6);
        spec.prediction_error = 0.5;
        let noisy = Site::new(spec, 9);
        // Distinct query points draw distinct (but bounded) noise.
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..100 {
            let p = noisy.predict_wait(i as f64, 64);
            assert!(
                p >= expected * 0.49 && p <= expected * 1.51,
                "prediction {p}"
            );
            distinct.insert(p.to_bits());
        }
        assert!(distinct.len() > 50, "noise should vary across query points");
    }

    #[test]
    fn predicting_never_perturbs_subsequent_submissions() {
        // Regression test: predict_wait used to advance the site RNG, so a
        // what-if query changed where the next submission landed. Prediction
        // must be a pure read: predict-then-submit == submit alone.
        let mut queried = Site::new(SiteSpec::new(3, 256), 21);
        let mut untouched = queried.clone();
        for i in 0..50 {
            let now = i as f64 * 60.0;
            // Hammer the predictor on one twin only.
            for procs in [1u32, 16, 64, 256] {
                let _ = queried.predict_wait(now, procs);
            }
            let procs = 32 + (i % 5) as u32 * 16;
            let a = queried.submit(now, 1e6, procs);
            let b = untouched.submit(now, 1e6, procs);
            assert_eq!(a, b, "submission {i} diverged after predictions");
        }
        // And repeated predictions at one query point are self-consistent.
        let p1 = queried.predict_wait(0.0, 64);
        let p2 = queried.predict_wait(0.0, 64);
        assert_eq!(p1.to_bits(), p2.to_bits());
    }

    #[test]
    fn reservations_start_on_time_and_respect_capacity() {
        let mut site = Site::new(SiteSpec::new(1, 64), 11);
        assert!(site.try_reserve(1000.0, 3600.0, 48));
        // A second overlapping reservation that exceeds the machine fails...
        assert!(!site.try_reserve(1500.0, 3600.0, 32));
        // ...but one that fits beside it, or starts as it ends, succeeds.
        assert!(site.try_reserve(1500.0, 3600.0, 16));
        assert!(site.try_reserve(4600.0, 3600.0, 48));
        assert_eq!(site.calendar.capacity_at(1500.0), 0.0);
        assert_eq!(site.calendar.capacity_at(4600.0), 0.0);
        assert_eq!(site.calendar.capacity_at(5100.0), 16.0);
        let placement = site.run_reserved(1000.0, 48.0 * 100.0, 48);
        assert_eq!(placement.start, 1000.0);
        assert_eq!(placement.end, 1100.0);
        // Malformed requests are refused.
        assert!(!site.try_reserve(0.0, 0.0, 8));
        assert!(!site.try_reserve(100.0, -50.0, 8));
        assert!(!site.try_reserve(0.0, 100.0, 0));
        assert!(!site.try_reserve(0.0, 100.0, 65));
        // a site without reservation support refuses
        let mut no_res_spec = SiteSpec::new(2, 64);
        no_res_spec.supports_reservations = false;
        let mut no_res = Site::new(no_res_spec, 1);
        assert!(!no_res.try_reserve(0.0, 10.0, 1));
    }

    #[test]
    fn standard_metasystem_is_heterogeneous() {
        let sites = standard_metasystem(4, 42);
        assert_eq!(sites.len(), 4);
        let sizes: Vec<u32> = sites.iter().map(|s| s.spec.procs).collect();
        let speeds: Vec<f64> = sites.iter().map(|s| s.spec.speed).collect();
        assert!(sizes.windows(2).any(|w| w[0] != w[1]));
        assert!(speeds.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }
}
