//! Engine shards: each metasystem site wraps an independent [`LiveSim`], an
//! online engine that owns its local scheduling policy from the zoo.
//!
//! Where [`crate::site`] models a site analytically (the paper's "simple
//! models of local schedulers"), a [`Shard`] *is* a local scheduler: a real
//! O(log n) calendar engine advanced online epoch by epoch, so cross-site
//! dispatch decisions are evaluated against real queues, real backfilling,
//! and real completions. Shards never interact mid-epoch — every cross-shard
//! decision happens at epoch boundaries on the driving thread (see
//! [`crate::epoch`]) — which is what makes the fleet embarrassingly parallel.

use psbench_sched::{LiveSim, UnknownScheduler};
use psbench_sim::{Cluster, FinishedJob, JobQueue, OnlineError, SimJob, SimulationResult};
use serde::{Deserialize, Serialize};

/// The static description of an engine shard: one site of the metasystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Site identifier (also the shard's position in the fleet).
    pub id: u32,
    /// Number of processors.
    pub procs: u32,
    /// Relative processor speed; 1.0 is the reference speed. Runtimes scale
    /// by `1 / speed`.
    pub speed: f64,
    /// Local scheduling policy, by registry name (`fcfs`, `easy`,
    /// `conservative`, ...).
    pub scheduler: String,
}

impl ShardSpec {
    /// A reference-speed shard of the given size under the given policy.
    pub fn new(id: u32, procs: u32, scheduler: &str) -> Self {
        ShardSpec {
            id,
            procs: procs.max(1),
            speed: 1.0,
            scheduler: scheduler.to_string(),
        }
    }
}

/// Build a heterogeneous fleet of `n` shard specs, cycling the same size and
/// speed palette as [`crate::site::standard_metasystem`] so the analytic and
/// engine-backed metasystems describe comparable hardware.
pub fn standard_shard_fleet(n: usize, scheduler: &str) -> Vec<ShardSpec> {
    let sizes = [128u32, 256, 64, 512, 96, 384];
    let speeds = [1.0, 1.4, 0.8, 2.0, 1.1, 0.9];
    (0..n)
        .map(|i| {
            let mut spec = ShardSpec::new(i as u32, sizes[i % sizes.len()], scheduler);
            spec.speed = speeds[i % speeds.len()];
            spec
        })
        .collect()
}

/// One site of the sharded metasystem: an online engine under its local
/// policy, and the bookkeeping the epoch loop needs.
pub struct Shard {
    /// The static description of this shard.
    pub spec: ShardSpec,
    live: LiveSim,
    /// Advisory reservation calendar for co-allocating dispatch policies.
    /// Separate from the engine (local policies keep full control of their
    /// machine); bookings model the negotiation of Section 3.1 and steer
    /// [`crate::dispatch::DispatchPolicy::Reserve`] away from booked sites.
    pub calendar: Cluster,
    /// Processors demanded by jobs dispatched this epoch whose arrival events
    /// have not fired yet — they are in the engine but not in its queue, so
    /// queue aggregates alone would undercount pressure mid-dispatch. Reset
    /// by [`Shard::advance_to`].
    pub inflight: u64,
    harvested: usize,
}

impl Shard {
    /// Build a shard: a fresh online engine of `spec.procs` processors under
    /// a newly constructed local policy.
    pub fn new(spec: ShardSpec) -> Result<Self, UnknownScheduler> {
        Ok(Shard {
            calendar: Cluster::new(spec.procs.max(1)),
            live: LiveSim::new(&spec.scheduler, spec.procs)?,
            inflight: 0,
            harvested: 0,
            spec,
        })
    }

    /// The runtime of `reference_runtime` seconds of computation on this
    /// shard's processors (heterogeneous speed applied).
    pub fn scaled_runtime(&self, reference_runtime: f64) -> f64 {
        reference_runtime / self.spec.speed.max(1e-9)
    }

    /// Submit a (rigid) metasystem job to this shard under `engine_id`,
    /// arriving at time `at`: the runtime and estimate are scaled by the
    /// shard's speed and the processor request is clamped to the machine.
    pub fn submit(&mut self, job: &SimJob, engine_id: u64, at: f64) -> Result<(), OnlineError> {
        let procs = job.procs.min(self.spec.procs).max(1);
        let scaled = SimJob {
            id: engine_id,
            submit: at,
            work: self.scaled_runtime(job.work),
            estimate: self.scaled_runtime(job.estimate.max(job.work)),
            procs,
            user: job.user,
            preceding: None,
            think_time: 0.0,
            speedup: None,
        };
        self.live.submit(scaled)?;
        self.inflight += procs as u64;
        Ok(())
    }

    /// Advance the shard's engine to the epoch boundary `frontier`,
    /// processing every local event strictly below it. Pure shard-local work:
    /// this is the call the epoch loop fans out across threads.
    pub fn advance_to(&mut self, frontier: f64) {
        self.live.advance(frontier);
        self.inflight = 0;
    }

    /// The completions this shard produced since the last harvest, in the
    /// engine's completion order. Called on the driving thread in site-id
    /// order, which is what makes the merged stream deterministic.
    pub fn harvest(&mut self) -> &[FinishedJob] {
        let all = self.live.sim().finished_jobs();
        let from = self.harvested;
        self.harvested = all.len();
        &all[from..]
    }

    /// Cancel a queued or pending job (used when an outage migrates the
    /// shard's backlog elsewhere).
    pub fn cancel(&mut self, engine_id: u64) -> Result<(), OnlineError> {
        self.live.cancel(engine_id)
    }

    /// Engine ids of the queued jobs, in arrival order.
    pub fn queued_engine_ids(&self) -> Vec<u64> {
        self.queue().iter().map(|q| q.job.id).collect()
    }

    /// The shard's load pressure: demanded-but-unserved processor work
    /// relative to the machine's delivery rate. Combines the backlog index's
    /// O(1) demanded-procs aggregate, the capacity in use, and the demand
    /// dispatched this epoch but not yet arrived — all O(1) reads, which is
    /// what lets least-pressure dispatch consult a thousand shards per epoch.
    pub fn pressure(&self) -> f64 {
        let demanded = self.queue().demanded_procs() as f64
            + self.live.sim().used_capacity()
            + self.inflight as f64;
        demanded / (self.spec.procs as f64 * self.spec.speed.max(1e-9))
    }

    /// [`Shard::pressure`] as total-order bits, for heap keys. Pressure is
    /// never negative, so the IEEE bit pattern orders correctly.
    pub fn pressure_bits(&self) -> u64 {
        self.pressure().to_bits()
    }

    /// The wait queue of the underlying engine (backlog aggregates included).
    pub fn queue(&self) -> &JobQueue {
        self.live.sim().queue()
    }

    /// Jobs waiting in the shard's queue.
    pub fn queue_len(&self) -> usize {
        self.live.sim().queue_len()
    }

    /// Jobs currently holding processors on this shard.
    pub fn running_len(&self) -> usize {
        self.live.sim().running_len()
    }

    /// Drain the shard to completion and return the engine's result (site
    /// times, engine ids).
    pub fn finish(self) -> SimulationResult {
        self.live.finish()
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("spec", &self.spec)
            .field("queued", &self.queue_len())
            .field("running", &self.running_len())
            .field("inflight", &self.inflight)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_runs_jobs_through_a_real_engine() {
        let mut shard = Shard::new(ShardSpec::new(0, 64, "easy")).unwrap();
        for i in 0..10u64 {
            let job = SimJob::rigid(i + 1, i as f64 * 10.0, 100.0, 32);
            shard.submit(&job, i + 1, job.submit).unwrap();
        }
        assert_eq!(
            shard.queue_len() + shard.running_len(),
            0,
            "nothing arrived yet"
        );
        shard.advance_to(55.0);
        assert!(shard.running_len() > 0 || shard.queue_len() > 0);
        let result = shard.finish();
        assert_eq!(result.finished.len(), 10);
    }

    #[test]
    fn speed_scales_runtimes() {
        let mut spec = ShardSpec::new(0, 64, "fcfs");
        spec.speed = 2.0;
        let mut fast = Shard::new(spec).unwrap();
        let job = SimJob::rigid(1, 0.0, 100.0, 64);
        fast.submit(&job, 1, 0.0).unwrap();
        let result = fast.finish();
        assert_eq!(result.finished.len(), 1);
        assert!((result.finished[0].end - 50.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_tracks_queue_running_and_inflight_demand() {
        let mut shard = Shard::new(ShardSpec::new(0, 100, "fcfs")).unwrap();
        assert_eq!(shard.pressure(), 0.0);
        // Dispatched but not yet arrived: counted as inflight.
        shard
            .submit(&SimJob::rigid(1, 10.0, 1000.0, 60), 1, 10.0)
            .unwrap();
        shard
            .submit(&SimJob::rigid(2, 10.0, 1000.0, 60), 2, 10.0)
            .unwrap();
        assert!((shard.pressure() - 1.2).abs() < 1e-9, "inflight demand");
        // After the advance both arrived: one runs (used capacity), one queues
        // (backlog demanded procs); inflight resets.
        shard.advance_to(20.0);
        assert_eq!(shard.inflight, 0);
        assert_eq!(shard.running_len(), 1);
        assert_eq!(shard.queue_len(), 1);
        assert!((shard.pressure() - 1.2).abs() < 1e-9, "arrived demand");
        assert_eq!(shard.queue().demanded_procs(), 60);
    }

    #[test]
    fn harvest_returns_each_completion_exactly_once() {
        let mut shard = Shard::new(ShardSpec::new(0, 64, "easy")).unwrap();
        for i in 0..6u64 {
            let job = SimJob::rigid(i + 1, 0.0, (i + 1) as f64 * 10.0, 64);
            shard.submit(&job, i + 1, 0.0).unwrap();
        }
        let mut seen = Vec::new();
        let mut t = 0.0;
        while seen.len() < 6 {
            t += 25.0;
            shard.advance_to(t);
            seen.extend(shard.harvest().iter().map(|f| f.id));
            assert!(t < 1e6, "runaway");
        }
        assert!(shard.harvest().is_empty(), "harvest is a suffix cursor");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn standard_fleet_cycles_the_palette() {
        let fleet = standard_shard_fleet(8, "easy");
        assert_eq!(fleet.len(), 8);
        assert_eq!(fleet[0].procs, 128);
        assert_eq!(fleet[6].procs, 128, "palette cycles");
        assert!(fleet.iter().all(|s| s.scheduler == "easy"));
        assert!(fleet.windows(2).any(|w| w[0].speed != w[1].speed));
    }
}
