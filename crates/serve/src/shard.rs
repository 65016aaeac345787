//! Engine shards: one live simulation per client session.
//!
//! A [`Shard`] wraps a [`LiveSim`] (an online engine that owns its live
//! policy) together with the session clock and the canonical SWF record of
//! everything submitted so far. All mutation goes through the shard, which
//! maintains the invariants the online engine needs (monotone release
//! frontier, integer submit instants so the exported trace round-trips
//! exactly) and keeps the exported trace in lockstep with the engine.
//!
//! The shard's mutating surface is split in two layers so sessions can be
//! write-ahead journaled:
//!
//! * **resolve** — [`Shard::resolve_time`] / [`Shard::wall_now`] turn a
//!   client request into the exact instant it lands at (folding in the wall
//!   clock, the session frontier, and the engine's released frontier);
//! * **apply** — [`Shard::submit_at`], [`Shard::cancel_at`] and
//!   [`Shard::advance_to`] take only resolved values, so replaying a journal
//!   of resolved commands rebuilds the engine deterministically, independent
//!   of wall time.
//!
//! [`crate::session::Session`] composes the two: it resolves a request,
//! journals the resolved command, then applies it through
//! [`crate::session::Session::apply_logged`], the one path live commands and
//! journal replay share.

use std::path::PathBuf;

use psbench_core::trace_cell_key;
use psbench_sched::{probe_start, LiveSim, Prediction, ProbeError, UnknownScheduler};
use psbench_sim::{JobState, SimJob, Simulation, SimulationResult};
use psbench_store::{key_hex, ArtifactStore};
use psbench_swf::{write_string, SwfHeader, SwfLog, SwfRecord, SwfRecordBuilder, FORMAT_VERSION};

use crate::clock::{ClockMode, SessionClock};

/// Configuration a new shard is built from (one per session, derived from the
/// server-wide [`crate::server::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Registry name of the live policy.
    pub scheduler: String,
    /// Machine size in processors.
    pub machine: u32,
    /// Clock mode of the session.
    pub mode: ClockMode,
    /// Artifact store root to publish drained sessions into, if any.
    pub store_dir: Option<PathBuf>,
}

/// Where a shard's engine is in its life cycle.
enum Engine {
    /// Taking submissions, cancellations and advances.
    Live(Box<LiveSim>),
    /// Run to completion, but publishing to the store failed: the result is
    /// kept so `drain` is retryable instead of silently losing the run.
    Finished(SimulationResult),
    /// Drained and, when a store is configured, published.
    Drained,
}

/// A live per-session scheduling engine.
pub struct Shard {
    engine: Engine,
    scheduler_name: String,
    machine: u32,
    clock: SessionClock,
    records: Vec<SwfRecord>,
    /// Largest submit/advance instant seen so far: the session's released
    /// frontier in integer seconds.
    session_time: i64,
    store_dir: Option<PathBuf>,
    session_name: String,
}

/// The outcome of draining a shard: the completed run plus, when a store was
/// configured, the hex cell key the result was published under.
pub struct Drained {
    /// The completed simulation result.
    pub result: SimulationResult,
    /// Hex cell key in the artifact store, if publishing was configured.
    pub stored: Option<String>,
}

impl Shard {
    /// Build a fresh shard: a new online engine under a new policy instance.
    pub fn new(config: &ShardConfig, session_name: String) -> Result<Shard, UnknownScheduler> {
        Ok(Shard {
            engine: Engine::Live(Box::new(LiveSim::new(&config.scheduler, config.machine)?)),
            scheduler_name: config.scheduler.clone(),
            machine: config.machine,
            clock: SessionClock::new(config.mode),
            records: Vec::new(),
            session_time: 0,
            store_dir: config.store_dir.clone(),
            session_name,
        })
    }

    /// Registry name of the live policy.
    pub fn scheduler_name(&self) -> &str {
        &self.scheduler_name
    }

    /// Machine size in processors.
    pub fn machine(&self) -> u32 {
        self.machine
    }

    /// Clock mode of the session.
    pub fn mode(&self) -> ClockMode {
        self.clock.mode()
    }

    /// True once the session has been fully drained (result produced and,
    /// when configured, published).
    pub fn drained(&self) -> bool {
        matches!(self.engine, Engine::Drained)
    }

    /// Restart the wall-clock anchor in `mode`. Called after journal replay:
    /// the engine state replays deterministically, and the wall clock —
    /// which is *not* state — re-anchors at the recovery instant.
    pub fn reanchor_clock(&mut self, mode: ClockMode) {
        self.clock = SessionClock::new(mode);
    }

    fn engine(&self) -> Result<&Simulation, String> {
        match &self.engine {
            Engine::Live(live) => Ok(live.sim()),
            Engine::Finished(_) | Engine::Drained => Err("session already drained".into()),
        }
    }

    fn live_mut(&mut self) -> Result<&mut LiveSim, String> {
        match &mut self.engine {
            Engine::Live(live) => Ok(live),
            Engine::Finished(_) | Engine::Drained => Err("session already drained".into()),
        }
    }

    /// The wall-clock instant in session seconds, or `None` in
    /// as-fast-as-possible mode. This is the resolved `at=` a journaled
    /// cancel carries.
    pub fn wall_now(&self) -> Option<f64> {
        self.clock.wall_seconds()
    }

    /// The instant a command lands at: the requested time (if any) clamped so
    /// session time never runs backwards, never behind the wall clock in
    /// `real`/`scaled` modes, and never inside the engine's already-released
    /// timeline (which queries may have pushed to the wall clock).
    pub fn resolve_time(&self, requested: Option<i64>) -> i64 {
        let wall = self
            .clock
            .wall_seconds()
            .map(|w| w.floor() as i64)
            .unwrap_or(0);
        let released = self
            .engine()
            .map(|e| e.released().ceil() as i64)
            .unwrap_or(0);
        requested
            .unwrap_or(0)
            .max(wall)
            .max(self.session_time)
            .max(released)
    }

    /// In wall-driven modes, let the engine catch up to the wall clock before
    /// answering a query — otherwise the answer would be stale by however long
    /// the client was silent. No-op in as-fast-as-possible mode. Query-time
    /// catch-up is never journaled: any state it creates is subsumed by the
    /// next mutating command's resolved instant (the wall clock is monotone),
    /// so replay converges on the same engine.
    fn catch_up(&mut self) {
        if let (Some(wall), Engine::Live(live)) = (self.clock.wall_seconds(), &mut self.engine) {
            live.advance(wall);
        }
    }

    /// Validate the client-supplied submit fields (the checks that do not
    /// need the engine). Kept separate so sessions can refuse bad input
    /// before journaling anything.
    pub fn validate_submit(
        submit: Option<i64>,
        runtime: i64,
        procs: u32,
        estimate: Option<i64>,
    ) -> Result<(), String> {
        if runtime < 0 {
            return Err(format!("runtime must be >= 0, got {runtime}"));
        }
        if procs == 0 {
            return Err("procs must be >= 1".into());
        }
        if let Some(est) = estimate {
            if est < 0 {
                return Err(format!("estimate must be >= 0, got {est}"));
            }
        }
        if let Some(req) = submit {
            if req < 0 {
                return Err(format!("submit must be >= 0, got {req}"));
            }
        }
        Ok(())
    }

    /// Submit one job at the exact, already-resolved instant `t` with the
    /// already-resolved estimate. It consults nothing but its arguments and
    /// the engine. Returns `t`.
    pub fn submit_at(
        &mut self,
        id: u64,
        t: i64,
        runtime: i64,
        procs: u32,
        estimate: i64,
        user: Option<u32>,
    ) -> Result<i64, String> {
        if runtime < 0 || t < 0 || estimate < 0 || procs == 0 {
            return Err("invalid resolved submit".into());
        }
        let mut builder = SwfRecordBuilder::new(id, t)
            .run_time(runtime)
            .allocated_procs(procs)
            .requested_time(estimate);
        if let Some(user) = user {
            builder = builder.user_id(user);
        }
        let record = builder.build();
        let job = SimJob::from_swf(&record).ok_or("record does not describe a runnable job")?;
        let live = self.live_mut()?;
        live.advance(t as f64);
        live.submit(job).map_err(|e| e.to_string())?;
        self.records.push(record);
        self.session_time = t;
        Ok(t)
    }

    /// Cancel `id` (which must not have started) at the already-resolved
    /// wall instant `at` (`None` in as-fast-as-possible mode).
    pub fn cancel_at(&mut self, id: u64, at: Option<f64>) -> Result<(), String> {
        let live = self.live_mut()?;
        if let Some(at) = at {
            live.advance(at);
        }
        live.cancel(id).map_err(|e| e.to_string())
    }

    /// Release session time up to the exact, already-resolved instant `t`.
    /// Returns the engine's resulting clock.
    pub fn advance_to(&mut self, t: i64) -> Result<f64, String> {
        if t < 0 {
            return Err(format!("advance target must be >= 0, got {t}"));
        }
        let live = self.live_mut()?;
        live.advance(t as f64);
        let now = live.sim().now();
        self.session_time = self.session_time.max(t);
        Ok(now)
    }

    /// Live counters: (now, released, queued, running, finished, used procs).
    pub fn queue_stats(&mut self) -> Result<(f64, f64, usize, usize, usize, f64), String> {
        self.catch_up();
        let engine = self.engine()?;
        Ok((
            engine.now(),
            engine.released(),
            engine.queue_len(),
            engine.running_len(),
            engine.finished_len(),
            engine.used_capacity(),
        ))
    }

    /// State of one job, if the session knows it.
    pub fn job_state(&mut self, id: u64) -> Result<Option<JobState>, String> {
        self.catch_up();
        Ok(self.engine()?.job_state(id))
    }

    /// Predicted start of `id` under `scheduler`, answered from a fork of
    /// the engine's live state — the live engine and policy are not
    /// perturbed.
    pub fn whatif(
        &mut self,
        id: u64,
        scheduler: &str,
    ) -> Result<Result<Prediction, ProbeError>, String> {
        self.catch_up();
        Ok(probe_start(self.engine()?, id, scheduler))
    }

    /// The canonical SWF log of everything submitted so far. `MaxNodes` is
    /// set to the session machine size so an offline `psbench simulate` of
    /// this trace runs on the same machine.
    pub fn log(&self) -> SwfLog {
        let header = SwfHeader {
            computer: Some("psbench-serve".into()),
            version: Some(FORMAT_VERSION),
            max_nodes: Some(self.machine),
            ..SwfHeader::default()
        };
        SwfLog {
            header,
            jobs: self.records.clone(),
        }
    }

    /// Canonical SWF text of [`Shard::log`].
    pub fn trace_text(&self) -> String {
        write_string(&self.log())
    }

    /// Number of records submitted so far.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Run the engine to completion and return the result. When a store was
    /// configured, the session trace is ingested and the result published
    /// under the same cell key the offline memoized path uses, so a later
    /// `psbench simulate --store` of the exported trace is a cache hit.
    ///
    /// If publication fails the finished result is retained and the next
    /// `drain` retries the publish with the identical result — a flaky disk
    /// can delay the reply but never lose or change the run.
    pub fn drain(&mut self) -> Result<Drained, String> {
        let result = match std::mem::replace(&mut self.engine, Engine::Drained) {
            Engine::Live(live) => live.finish(),
            Engine::Finished(result) => result,
            Engine::Drained => return Err("session already drained".into()),
        };
        match self.publish(&result) {
            Ok(stored) => Ok(Drained { result, stored }),
            Err(msg) => {
                self.engine = Engine::Finished(result);
                Err(msg)
            }
        }
    }

    fn publish(&self, result: &SimulationResult) -> Result<Option<String>, String> {
        let Some(dir) = &self.store_dir else {
            return Ok(None);
        };
        let store = ArtifactStore::open(dir).map_err(|e| format!("store: {e}"))?;
        let outcome = store
            .ingest(self.log().as_source(self.session_name.clone()))
            .map_err(|e| format!("store ingest: {e}"))?;
        let key = trace_cell_key(outcome.key, &self.scheduler_name, self.machine, false);
        store
            .put_result(key, result)
            .map_err(|e| format!("store publish: {e}"))?;
        Ok(Some(key_hex(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn afap_shard() -> Shard {
        let config = ShardConfig {
            scheduler: "fcfs".into(),
            machine: 64,
            mode: ClockMode::Afap,
            store_dir: None,
        };
        Shard::new(&config, "test-session".into()).unwrap()
    }

    #[test]
    fn shard_rejects_unknown_scheduler_at_build_time() {
        let config = ShardConfig {
            scheduler: "nope".into(),
            machine: 64,
            mode: ClockMode::Afap,
            store_dir: None,
        };
        let err = match Shard::new(&config, "s".into()) {
            Err(e) => e,
            Ok(_) => panic!("unknown scheduler should be rejected"),
        };
        assert_eq!(err.name, "nope");
    }

    /// Submit at the instant the request resolves to, as a session does.
    fn submit(shard: &mut Shard, id: u64, at: Option<i64>, runtime: i64) -> Result<i64, String> {
        let t = shard.resolve_time(at);
        shard.submit_at(id, t, runtime, 4, runtime, None)
    }

    #[test]
    fn submit_clamps_time_monotonically() {
        let mut shard = afap_shard();
        assert_eq!(submit(&mut shard, 1, Some(100), 50).unwrap(), 100);
        // An earlier requested instant is clamped to the session frontier.
        assert_eq!(submit(&mut shard, 2, Some(40), 50).unwrap(), 100);
        // Omitted submit means "now" (the frontier in afap mode).
        assert_eq!(submit(&mut shard, 3, None, 50).unwrap(), 100);
    }

    #[test]
    fn submit_validates_inputs() {
        assert!(Shard::validate_submit(None, -5, 4, None).is_err());
        assert!(Shard::validate_submit(None, 5, 0, None).is_err());
        assert!(Shard::validate_submit(Some(-1), 5, 4, None).is_err());
        assert!(Shard::validate_submit(None, 5, 4, Some(-2)).is_err());
        let mut shard = afap_shard();
        assert!(shard.submit_at(1, 0, -5, 4, 5, None).is_err());
        assert!(shard.submit_at(1, 0, 5, 0, 5, None).is_err());
        shard.submit_at(1, 0, 5, 4, 5, None).unwrap();
        let err = shard.submit_at(1, 0, 5, 4, 5, None).unwrap_err();
        assert!(err.contains("already submitted"), "{err}");
    }

    #[test]
    fn trace_round_trips_through_the_parser() {
        let mut shard = afap_shard();
        shard.submit_at(1, 0, 100, 8, 120, Some(3)).unwrap();
        shard.submit_at(2, 30, 60, 64, 60, None).unwrap();
        let text = shard.trace_text();
        let log = psbench_swf::parse_str(&text, &psbench_swf::ParseOptions::default()).unwrap();
        assert_eq!(log.jobs.len(), 2);
        assert_eq!(log.header.max_nodes, Some(64));
        assert_eq!(write_string(&log), text);
    }

    #[test]
    fn drain_is_final() {
        let mut shard = afap_shard();
        submit(&mut shard, 1, Some(0), 10).unwrap();
        let drained = shard.drain().unwrap();
        assert_eq!(drained.result.finished.len(), 1);
        assert!(drained.stored.is_none());
        assert!(shard.drained());
        assert!(shard.drain().is_err());
        assert!(submit(&mut shard, 2, None, 5).is_err());
        assert!(shard.advance_to(50).is_err());
        assert!(shard.cancel_at(1, None).is_err());
        // The trace is still readable after draining.
        assert_eq!(shard.record_count(), 1);
    }

    #[test]
    fn drain_retries_after_a_failed_store_publish() {
        let dir =
            std::env::temp_dir().join(format!("psbench-shard-drainretry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A store root that cannot be created: a plain file in the way.
        std::fs::create_dir_all(&dir).unwrap();
        let blocked = dir.join("store");
        std::fs::write(&blocked, b"not a directory").unwrap();
        let config = ShardConfig {
            scheduler: "fcfs".into(),
            machine: 64,
            mode: ClockMode::Afap,
            store_dir: Some(blocked.clone()),
        };
        let mut shard = Shard::new(&config, "retry".into()).unwrap();
        submit(&mut shard, 1, Some(0), 10).unwrap();
        let err = match shard.drain() {
            Err(e) => e,
            Ok(_) => panic!("drain must fail while the store root is blocked"),
        };
        assert!(err.starts_with("store"), "{err}");
        assert!(!shard.drained(), "failed publish must not count as drained");
        // Unblock the store; the retry publishes the identical result.
        std::fs::remove_file(&blocked).unwrap();
        let drained = shard.drain().unwrap();
        assert_eq!(drained.result.finished.len(), 1);
        assert!(drained.stored.is_some());
        assert!(shard.drained());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
