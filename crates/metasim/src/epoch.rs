//! The bulk-synchronous epoch loop: fleet-scale metasystem simulation over
//! engine shards.
//!
//! # The loop
//!
//! Time is cut into epochs of `epoch_len` seconds. Each iteration works on a
//! quiescent fleet at boundary `t0 = k·epoch_len` and runs four strictly
//! ordered phases:
//!
//! 1. **Outage transitions** (driving thread): sites whose outage ended come
//!    back up; sites whose outage started go down — their queued jobs are
//!    cancelled and handed back to the metascheduler as migrations. Running
//!    jobs ride out the outage (the site drains but accepts nothing new).
//! 2. **Routing** (driving thread): parked and migrated jobs are re-routed
//!    at `t0`, then every arrival with submit time in `[t0, t1)` is routed
//!    under the configured [`DispatchPolicy`]. Routing only decides: each
//!    job is appended to its shard's batch with its engine id and the submit
//!    time the engine will see (`t0` for a re-routed job, the original
//!    submit time for an arrival). No engine is touched.
//! 3. **Submit and advance** (parallel): every shard submits its batch in
//!    order, then advances its engine to `t1` — shards share nothing
//!    mid-epoch, so this fans out over [`parallel_map_mut`] with zero
//!    synchronization beyond the barrier.
//! 4. **Merge** (driving thread): completions are harvested in ascending
//!    site-id order and appended to the global stream.
//!
//! The loop stops after the routing phase of the last epoch that routes
//! anything; the final drain then submits those batches and runs every
//! shard dry.
//!
//! # Engine ids
//!
//! Jobs are sorted by id once. A job's engine id is its *rank* in that order
//! plus `attempt · MIGRATION_BAND`, so the harvest finds a completion's job
//! and migration count with vector reads. Ranks are an order-preserving
//! image of the ids, and an engine breaks ties by id wherever it orders
//! jobs (the wait queue orders by `(queued_at, id)`, and clamped negative
//! submits, arrivals within one engine batch and boundary re-dispatches all
//! share instants), so every tie-break comes out as it would under the
//! original ids. Ids only need to be unique.
//!
//! # Determinism invariants
//!
//! The merged result is **bit-identical for any thread count**:
//!
//! * every routing decision happens on the driving thread against quiescent
//!   shard state — the parallel phase never influences *which* site a job
//!   lands on within an epoch;
//! * each shard's submits reach its engine in routing order, after the
//!   boundary's cancellations and before its advance — only calls to
//!   *different* shards are reordered, and shards share nothing;
//! * shard advances are pure per-shard functions of the shard's own inputs;
//! * the merge order is `(epoch, site id, engine completion order)` — fixed
//!   by the harvest loop, not by thread scheduling;
//! * reports derived from a [`MetaResult`] contain no wall-clock or
//!   thread-count-dependent values.
//!
//! The serial twin (`threads == 1`) runs the very same code path with the
//! parallel section degraded to a `for` loop; the proptests in
//! `tests/proptest_epoch.rs` enforce equality against it, and
//! `tests/epoch_oracle.rs` checks the loop against a reference copy that
//! submits every job the moment it is routed.
//!
//! # Epoch-boundary semantics
//!
//! Arrivals are routed at the *start* of the epoch containing their submit
//! time, with the metascheduler seeing fleet pressure as of `t0` (dispatch
//! decisions within an epoch are blind to each other's completions — the
//! price of parallelism, bounded by `epoch_len`). Outage transitions are
//! quantized to the first boundary at or after their scheduled instant.
//! Events within the engine's `EPS` fuzz of a boundary defer to the next
//! epoch on every shard identically.

use crate::dispatch::{DispatchPolicy, Dispatcher};
use crate::shard::{Shard, ShardSpec};
use psbench_harness::parallel_map_mut;
use psbench_sched::{StepFn, UnknownScheduler};
use psbench_sim::{FinishedJob, SimJob, SimulationResult};
use psbench_store::{result_fingerprint, Fnv128, MetaSummary};
use serde::{Deserialize, Serialize};

/// Version of the epoch loop's observable semantics. Folded into store keys
/// so cached metasystem results are invalidated when the loop changes.
/// Version 2: reserve dispatch's window search accepts a window whose
/// floating-point end lands exactly on an overloaded breakpoint, as its
/// booking always did.
pub const META_VERSION: u32 = 2;

/// Engine ids are id ranks with the migration attempt in a high band:
/// `engine_id = rank + attempt · MIGRATION_BAND`, where `rank` is the job's
/// position among the stream's ids in ascending order. A job re-entering a
/// site it already visited never collides with its cancelled first attempt,
/// and the harvest maps an engine id back to its job and attempt with two
/// vector reads.
const MIGRATION_BAND: u64 = 1 << 40;

/// One job routed to a shard this epoch, waiting in the shard's batch.
#[derive(Debug, Clone, Copy)]
struct Routed {
    /// Index of the job in the arrival stream.
    job: u32,
    /// The id the shard's engine knows the job by.
    engine_id: u64,
    /// The submit time the engine sees.
    at: f64,
}

/// A scheduled outage of one site, in metasystem time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteOutage {
    /// The site that goes down.
    pub site: u32,
    /// When the outage begins.
    pub start: f64,
    /// When the site comes back up.
    pub end: f64,
}

/// Configuration of a metasystem run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaConfig {
    /// Epoch length in seconds (the granularity of cross-site decisions).
    pub epoch_len: f64,
    /// Worker threads for the parallel advance phase. Affects wall-clock
    /// only — results are bit-identical for any value.
    pub threads: usize,
    /// The cross-site dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Scheduled site outages.
    pub outages: Vec<SiteOutage>,
}

impl MetaConfig {
    /// A one-hour-epoch, single-threaded configuration under `dispatch`.
    pub fn new(dispatch: DispatchPolicy) -> Self {
        MetaConfig {
            epoch_len: 3600.0,
            threads: 1,
            dispatch,
            outages: Vec::new(),
        }
    }

    /// Set the epoch length.
    pub fn with_epoch_len(mut self, epoch_len: f64) -> Self {
        self.epoch_len = epoch_len;
        self
    }

    /// Set the advance-phase thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attach scheduled outages.
    pub fn with_outages(mut self, outages: Vec<SiteOutage>) -> Self {
        self.outages = outages;
        self
    }
}

/// Everything a metasystem run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaResult {
    /// The merged fleet-wide result: finished jobs carry their **original**
    /// ids and submit times, `restarts` counts outage-induced migrations, and
    /// the aggregate counters are summed across shards.
    pub result: SimulationResult,
    /// Number of sites simulated.
    pub sites: usize,
    /// Dispatch policy name.
    pub dispatch: String,
    /// Epochs the loop executed.
    pub epochs: u64,
    /// Total jobs dispatched (first placements; migrations not included).
    pub dispatched: u64,
    /// Outage-induced migrations performed.
    pub migrations: u64,
    /// Completed jobs per site, in site-id order.
    pub per_site_finished: Vec<u64>,
}

impl MetaResult {
    /// A 64-bit fingerprint of the merged result, via the store codec's
    /// canonical encoding — byte-stable across platforms and thread counts.
    pub fn fingerprint(&self) -> u64 {
        result_fingerprint(&self.result)
    }

    /// The canonical store key of a metasystem cell: the (workload, fleet,
    /// dispatch, config) coordinates under [`META_VERSION`] and the scheduler
    /// zoo's version. Two runs share a key iff the epoch loop guarantees them
    /// byte-identical results.
    pub fn cell_key(
        workload: &str,
        jobs: usize,
        seed: u64,
        specs: &[ShardSpec],
        cfg: &MetaConfig,
    ) -> u128 {
        let mut h = Fnv128::new();
        h.write_str("metasim-cell");
        h.write_u32(META_VERSION);
        h.write_u32(psbench_sched::SCHED_VERSION);
        h.write_str(workload);
        h.write_u64(jobs as u64);
        h.write_u64(seed);
        h.write_f64(cfg.epoch_len);
        h.write_str(cfg.dispatch.name());
        h.write_u64(specs.len() as u64);
        for s in specs {
            h.write_u32(s.id);
            h.write_u32(s.procs);
            h.write_f64(s.speed);
            h.write_str(&s.scheduler);
        }
        h.write_u64(cfg.outages.len() as u64);
        for o in &cfg.outages {
            h.write_u32(o.site);
            h.write_f64(o.start);
            h.write_f64(o.end);
        }
        h.finish()
    }

    /// The store-codec form of this result, for memoization under
    /// [`MetaResult::cell_key`]. [`MetaResult::from_summary`] restores a
    /// value `==` this one, so cached reports re-render byte-identically.
    pub fn to_summary(&self) -> MetaSummary {
        MetaSummary {
            sites: self.sites as u64,
            dispatch: self.dispatch.clone(),
            epochs: self.epochs,
            dispatched: self.dispatched,
            migrations: self.migrations,
            per_site_finished: self.per_site_finished.clone(),
            result: self.result.clone(),
        }
    }

    /// Exact inverse of [`MetaResult::to_summary`].
    pub fn from_summary(s: MetaSummary) -> MetaResult {
        MetaResult {
            result: s.result,
            sites: s.sites as usize,
            dispatch: s.dispatch,
            epochs: s.epochs,
            dispatched: s.dispatched,
            migrations: s.migrations,
            per_site_finished: s.per_site_finished,
        }
    }

    /// Render the deterministic run report: identical bytes for any thread
    /// count (timing never goes here — the CLI prints it to stderr). Of the
    /// standard metrics it summarizes only the three it prints.
    pub fn render_report(&self) -> String {
        let sys = self.result.system();
        let (min_fin, max_fin) = self
            .per_site_finished
            .iter()
            .fold((u64::MAX, 0u64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let mean_fin = if self.per_site_finished.is_empty() {
            0.0
        } else {
            self.per_site_finished.iter().sum::<u64>() as f64 / self.per_site_finished.len() as f64
        };
        let mut out = String::new();
        out.push_str("# metasim report\n\n");
        out.push_str(&format!("sites: {}\n", self.sites));
        out.push_str(&format!("dispatch: {}\n", self.dispatch));
        out.push_str(&format!("epochs: {}\n", self.epochs));
        out.push_str(&format!("dispatched: {}\n", self.dispatched));
        out.push_str(&format!("migrations: {}\n", self.migrations));
        out.push_str(&format!("finished: {}\n", self.result.finished.len()));
        out.push_str(&format!("unfinished: {}\n", self.result.unfinished));
        out.push_str(&format!(
            "events processed: {}\n",
            self.result.events_processed
        ));
        out.push_str(&format!("end time: {:.3}\n", self.result.end_time));
        out.push_str(&format!(
            "mean wait [s]: {:.6}\n",
            self.result.mean_wait_time()
        ));
        out.push_str(&format!(
            "mean response [s]: {:.6}\n",
            self.result.mean_response_time()
        ));
        out.push_str(&format!(
            "mean bounded slowdown: {:.6}\n",
            self.result.mean_bounded_slowdown()
        ));
        out.push_str(&format!("utilization: {:.6}\n", sys.utilization));
        out.push_str(&format!(
            "per-site finished: min {} / mean {:.1} / max {}\n",
            if min_fin == u64::MAX { 0 } else { min_fin },
            mean_fin,
            max_fin
        ));
        out.push_str(&format!("fingerprint: {:016x}\n", self.fingerprint()));
        out
    }
}

/// Run a metasystem of `specs` over the global arrival stream `jobs` under
/// `cfg`. Jobs are routed by `(submit, id)` order; every job id must be
/// unique.
///
/// See the [module docs](self) for the loop structure and the determinism
/// invariants the result satisfies.
///
/// # Panics
///
/// If `cfg.epoch_len` is not positive and finite, `specs` is empty, an
/// outage in `cfg.outages` names a site outside the fleet, or two jobs share
/// an id.
pub fn run_metasystem(
    specs: &[ShardSpec],
    jobs: &[SimJob],
    cfg: &MetaConfig,
) -> Result<MetaResult, UnknownScheduler> {
    assert!(
        cfg.epoch_len.is_finite() && cfg.epoch_len > 0.0,
        "epoch length must be positive and finite"
    );
    assert!(!specs.is_empty(), "metasystem has no sites");
    if let Some(o) = cfg.outages.iter().find(|o| o.site as usize >= specs.len()) {
        panic!(
            "outage names site {}, but the fleet has {} sites",
            o.site,
            specs.len()
        );
    }
    let mut shards = specs
        .iter()
        .cloned()
        .map(Shard::new)
        .collect::<Result<Vec<_>, _>>()?;
    let n = shards.len();
    let threads = cfg.threads.max(1);

    // Id ranks: `by_rank[r]` is the index of the job with the r-th smallest
    // id. Engine ids are ranks (plus the attempt band), an order-preserving
    // image of the original ids, so every engine tie-break on ids is kept.
    let mut by_rank: Vec<u32> = (0..jobs.len() as u32).collect();
    by_rank.sort_unstable_by_key(|&i| jobs[i as usize].id);
    if let Some(w) = by_rank
        .windows(2)
        .find(|w| jobs[w[0] as usize].id == jobs[w[1] as usize].id)
    {
        panic!(
            "job id {} appears more than once in the arrival stream",
            jobs[w[0] as usize].id
        );
    }
    // The stream index of the job a rank or an engine id names.
    let index_of = |engine_id: u64| by_rank[(engine_id % MIGRATION_BAND) as usize];
    // Global arrival order (submit, id), as ranks.
    let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ja, jb) = (
            &jobs[index_of(a as u64) as usize],
            &jobs[index_of(b as u64) as usize],
        );
        ja.submit.total_cmp(&jb.submit).then(a.cmp(&b))
    });

    // Outage transition schedules, each consumed by a cursor at boundaries.
    let mut starts: Vec<(f64, u32)> = cfg.outages.iter().map(|o| (o.start, o.site)).collect();
    starts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ends: Vec<(f64, u32)> = cfg.outages.iter().map(|o| (o.end, o.site)).collect();
    ends.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut si, mut ei) = (0usize, 0usize);
    let mut down_count = vec![0u32; n];
    let mut down = vec![false; n];

    let mut dispatcher = Dispatcher::new(cfg.dispatch);
    // Each shard's routed jobs this epoch, in routing order.
    let mut batches: Vec<Vec<Routed>> = vec![Vec::new(); n];
    let mut cursor = 0usize;
    // Engine ids of the last attempt of jobs waiting for an up site.
    let mut parked: Vec<u64> = Vec::new();
    let mut merged: Vec<FinishedJob> = Vec::with_capacity(jobs.len());
    let mut epochs = 0u64;
    let mut dispatched = 0u64;
    let mut migrations = 0u64;
    let mut k = 0u64;

    // Phase 3: each shard submits its batch, then advances — shard-local,
    // zero cross-talk.
    let advance = |shards: &mut [Shard], batches: &[Vec<Routed>], frontier: f64| {
        parallel_map_mut(shards, threads, |i, s| {
            for r in &batches[i] {
                s.submit(&jobs[r.job as usize], r.engine_id, r.at)
                    .expect("routed jobs are never in the released past");
            }
            s.advance_to(frontier)
        });
    };
    // Phase 4: deterministic merge in site-id order; empties the batches.
    let harvest_into =
        |shards: &mut [Shard], batches: &mut [Vec<Routed>], merged: &mut Vec<FinishedJob>| {
            for (shard, batch) in shards.iter_mut().zip(batches.iter_mut()) {
                batch.clear();
                for f in shard.harvest() {
                    let job = &jobs[index_of(f.id) as usize];
                    merged.push(FinishedJob {
                        id: job.id,
                        submit: job.submit.max(0.0),
                        restarts: f.restarts + (f.id / MIGRATION_BAND) as u32,
                        ..*f
                    });
                }
            }
        };

    loop {
        let t0 = k as f64 * cfg.epoch_len;
        let t1 = (k + 1) as f64 * cfg.epoch_len;

        // Phase 1a: sites coming back up by t0.
        while ei < ends.len() && ends[ei].0 <= t0 {
            let site = ends[ei].1 as usize;
            ei += 1;
            if down_count[site] > 0 {
                down_count[site] -= 1;
                if down_count[site] == 0 {
                    down[site] = false;
                }
            }
        }
        // Phase 1b: sites going down by t0 — cancel their backlogs for
        // re-dispatch. Transition order is (time, site id): deterministic.
        let mut freshly_migrated: Vec<u64> = Vec::new();
        while si < starts.len() && starts[si].0 <= t0 {
            let site = starts[si].1 as usize;
            si += 1;
            down_count[site] += 1;
            if down_count[site] == 1 {
                down[site] = true;
                // Withdraw the backlog in arrival order. Each cancellation
                // consults the local policy, which may react by *starting*
                // a later queued job at this very instant — the local
                // scheduler keeps running its machine and wins that race;
                // such jobs ride out the outage like any running job.
                for engine_id in shards[site].queued_engine_ids() {
                    match shards[site].cancel(engine_id) {
                        Ok(()) => freshly_migrated.push(engine_id),
                        Err(psbench_sim::OnlineError::JobRunning(_)) => {}
                        Err(e) => panic!("withdrawing queued job {engine_id}: {e:?}"),
                    }
                }
            }
        }

        // Phase 2: routing. Routing state reflects the quiescent fleet at
        // t0; the routed jobs reach their shards in phase 3.
        dispatcher.begin_epoch(&shards, &down);
        let mut redispatch = std::mem::take(&mut parked);
        redispatch.extend(freshly_migrated);
        for last in redispatch {
            let idx = index_of(last);
            match dispatcher.pick(&mut shards, &down, &jobs[idx as usize], t0) {
                Some(i) => {
                    migrations += 1;
                    batches[i].push(Routed {
                        job: idx,
                        engine_id: last + MIGRATION_BAND,
                        at: t0,
                    });
                }
                None => parked.push(last),
            }
        }
        while cursor < order.len() {
            let rank = order[cursor];
            let idx = index_of(rank as u64);
            let job = &jobs[idx as usize];
            let at = job.submit.max(0.0);
            if at >= t1 {
                break;
            }
            cursor += 1;
            dispatched += 1;
            match dispatcher.pick(&mut shards, &down, job, t0) {
                Some(i) => batches[i].push(Routed {
                    job: idx,
                    engine_id: rank as u64,
                    at,
                }),
                None => parked.push(rank as u64),
            }
        }

        // Phase 2½: stop once no dispatch decision can ever be needed again.
        // The final drain below submits this epoch's batches.
        if cursor >= order.len() && si >= starts.len() {
            if parked.is_empty() {
                break;
            }
            if ei >= ends.len() {
                // Every site is down forever; parked jobs can never run.
                break;
            }
        }

        advance(&mut shards, &batches, t1);
        harvest_into(&mut shards, &mut batches, &mut merged);
        for shard in shards.iter_mut() {
            shard.calendar.advance_to(t1);
        }
        epochs += 1;

        // Next boundary, jumping stretches where nothing is due.
        k += 1;
        let mut next_due = f64::INFINITY;
        if cursor < order.len() {
            next_due = next_due.min(
                jobs[index_of(order[cursor] as u64) as usize]
                    .submit
                    .max(0.0),
            );
        }
        if si < starts.len() {
            next_due = next_due.min(starts[si].0);
        }
        if ei < ends.len() && (!parked.is_empty() || cursor < order.len()) {
            next_due = next_due.min(ends[ei].0);
        }
        if next_due.is_finite() {
            let due_k = (next_due.max(0.0) / cfg.epoch_len).floor() as u64;
            k = k.max(due_k);
        }
    }

    // Final drain: all routing decisions are made; submit the last batches
    // and run every shard dry.
    advance(&mut shards, &batches, f64::INFINITY);
    harvest_into(&mut shards, &mut batches, &mut merged);

    let mut result = SimulationResult {
        scheduler: format!("metasim/{}", cfg.dispatch.name()),
        machine_size: specs.iter().fold(0u32, |a, s| a.saturating_add(s.procs)),
        finished: Vec::new(),
        unfinished: parked.len(),
        discarded: 0,
        idle_while_queued: 0.0,
        busy_integral: 0.0,
        lost_node_seconds: 0.0,
        kills: 0,
        rejected_decisions: 0,
        coalesced_wakeups: 0,
        events_processed: 0,
        end_time: 0.0,
    };
    let mut per_site_finished = Vec::with_capacity(n);
    for shard in shards {
        let r = shard.finish();
        per_site_finished.push(r.finished.len() as u64);
        result.unfinished += r.unfinished;
        result.discarded += r.discarded;
        result.idle_while_queued += r.idle_while_queued;
        result.busy_integral += r.busy_integral;
        result.lost_node_seconds += r.lost_node_seconds;
        result.kills += r.kills;
        result.rejected_decisions += r.rejected_decisions;
        result.coalesced_wakeups += r.coalesced_wakeups;
        result.events_processed += r.events_processed;
        result.end_time = result.end_time.max(r.end_time);
    }
    result.finished = merged;

    Ok(MetaResult {
        result,
        sites: n,
        dispatch: cfg.dispatch.name().to_string(),
        epochs,
        dispatched,
        migrations,
        per_site_finished,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::standard_shard_fleet;

    fn stream(n: u64, seed: u64) -> Vec<SimJob> {
        // A deterministic synthetic stream: staggered submits, mixed widths
        // and runtimes, a few users.
        (0..n)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
                let submit = (i as f64) * 30.0 + (h % 1000) as f64 / 10.0;
                let procs = 1 + (h % 96) as u32;
                let runtime = 60.0 + (h % 7919) as f64;
                SimJob::rigid(i + 1, submit, runtime, procs).with_user((h % 13) as u32)
            })
            .collect()
    }

    #[test]
    fn every_job_finishes_and_keeps_its_identity() {
        let specs = standard_shard_fleet(6, "easy");
        let jobs = stream(200, 1);
        let cfg = MetaConfig::new(DispatchPolicy::RoundRobin).with_epoch_len(600.0);
        let res = run_metasystem(&specs, &jobs, &cfg).unwrap();
        assert_eq!(res.result.finished.len(), 200);
        assert_eq!(res.result.unfinished, 0);
        assert_eq!(res.dispatched, 200);
        let mut ids: Vec<u64> = res.result.finished.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=200).collect::<Vec<u64>>());
        // Original submit times are preserved in the merged stream.
        for f in &res.result.finished {
            let job = jobs.iter().find(|j| j.id == f.id).unwrap();
            assert_eq!(f.submit.to_bits(), job.submit.max(0.0).to_bits());
            assert!(f.start >= f.submit - 1e-9);
        }
        assert_eq!(res.per_site_finished.iter().sum::<u64>(), 200);
    }

    #[test]
    fn parallel_advance_is_bit_identical_to_the_serial_twin() {
        let specs = standard_shard_fleet(8, "easy");
        let jobs = stream(300, 7);
        for dispatch in DispatchPolicy::all() {
            let cfg = MetaConfig::new(*dispatch).with_epoch_len(900.0);
            let serial = run_metasystem(&specs, &jobs, &cfg).unwrap();
            for threads in [2usize, 8] {
                let par =
                    run_metasystem(&specs, &jobs, &cfg.clone().with_threads(threads)).unwrap();
                assert_eq!(
                    par.result,
                    serial.result,
                    "{} t={}",
                    dispatch.name(),
                    threads
                );
                assert_eq!(par.fingerprint(), serial.fingerprint());
                assert_eq!(par.render_report(), serial.render_report());
            }
        }
    }

    #[test]
    fn outages_migrate_queued_jobs_and_count_restarts() {
        let specs = standard_shard_fleet(4, "fcfs");
        // Saturate site backlog, then take sites down mid-run.
        let jobs = stream(120, 3);
        let outages = vec![
            SiteOutage {
                site: 0,
                start: 500.0,
                end: 4000.0,
            },
            SiteOutage {
                site: 2,
                start: 1000.0,
                end: 3000.0,
            },
        ];
        let cfg = MetaConfig::new(DispatchPolicy::RoundRobin)
            .with_epoch_len(300.0)
            .with_outages(outages);
        let res = run_metasystem(&specs, &jobs, &cfg).unwrap();
        assert_eq!(res.result.finished.len(), 120, "outages lose no jobs");
        assert!(res.migrations > 0, "down sites must shed their backlogs");
        // Migration counts surface as restarts in the merged result.
        let restarted: u64 = res.result.finished.iter().map(|f| f.restarts as u64).sum();
        assert_eq!(restarted, res.migrations);
        // The outage windows keep their sites from finishing *new* work
        // mid-window, so the loaded sites' shares shift measurably.
        assert!(res.per_site_finished[1] > 0);
    }

    #[test]
    fn least_pressure_beats_round_robin_under_imbalanced_load() {
        // An imbalanced fleet: one big fast site, several small slow ones.
        let mut specs = standard_shard_fleet(5, "easy");
        specs[0].procs = 1024;
        specs[0].speed = 2.0;
        for s in specs.iter_mut().skip(1) {
            s.procs = 64;
            s.speed = 0.8;
        }
        let jobs = stream(400, 11);
        let rr = run_metasystem(
            &specs,
            &jobs,
            &MetaConfig::new(DispatchPolicy::RoundRobin).with_epoch_len(600.0),
        )
        .unwrap();
        let lp = run_metasystem(
            &specs,
            &jobs,
            &MetaConfig::new(DispatchPolicy::LeastPressure).with_epoch_len(600.0),
        )
        .unwrap();
        assert!(
            lp.result.mean_response_time() < rr.result.mean_response_time(),
            "least-pressure {} vs round-robin {}",
            lp.result.mean_response_time(),
            rr.result.mean_response_time()
        );
    }

    #[test]
    fn cell_keys_separate_every_coordinate() {
        let specs = standard_shard_fleet(4, "easy");
        let cfg = MetaConfig::new(DispatchPolicy::RoundRobin);
        let base = MetaResult::cell_key("lublin99", 100, 1, &specs, &cfg);
        assert_ne!(
            base,
            MetaResult::cell_key("lublin99", 100, 2, &specs, &cfg),
            "seed"
        );
        assert_ne!(
            base,
            MetaResult::cell_key("lublin99", 101, 1, &specs, &cfg),
            "jobs"
        );
        assert_ne!(
            base,
            MetaResult::cell_key("jann97", 100, 1, &specs, &cfg),
            "workload"
        );
        let other_fleet = standard_shard_fleet(5, "easy");
        assert_ne!(
            base,
            MetaResult::cell_key("lublin99", 100, 1, &other_fleet, &cfg),
            "fleet"
        );
        assert_ne!(
            base,
            MetaResult::cell_key(
                "lublin99",
                100,
                1,
                &specs,
                &MetaConfig::new(DispatchPolicy::LeastPressure)
            ),
            "dispatch"
        );
    }

    #[test]
    fn report_is_deterministic_and_carries_the_fingerprint() {
        let specs = standard_shard_fleet(3, "fcfs");
        let jobs = stream(50, 5);
        let cfg = MetaConfig::new(DispatchPolicy::Affinity).with_epoch_len(600.0);
        let a = run_metasystem(&specs, &jobs, &cfg).unwrap();
        let b = run_metasystem(&specs, &jobs, &cfg).unwrap();
        assert_eq!(a.render_report(), b.render_report());
        assert!(a
            .render_report()
            .contains(&format!("{:016x}", a.fingerprint())));
        assert!(a.render_report().contains("dispatch: affinity"));
    }

    /// Two jobs sharing id 7: submits 0 and 50, 100 s each, 4 processors.
    fn duplicate_id_stream() -> Vec<SimJob> {
        vec![
            SimJob::rigid(7, 0.0, 100.0, 4),
            SimJob::rigid(7, 50.0, 100.0, 4),
        ]
    }

    #[test]
    #[should_panic(expected = "job id 7 appears more than once")]
    fn duplicate_ids_panic_across_sites() {
        let specs = standard_shard_fleet(2, "fcfs");
        let cfg = MetaConfig::new(DispatchPolicy::RoundRobin);
        let _ = run_metasystem(&specs, &duplicate_id_stream(), &cfg);
    }

    #[test]
    #[should_panic(expected = "job id 7 appears more than once")]
    fn duplicate_ids_panic_on_one_site() {
        let specs = standard_shard_fleet(1, "fcfs");
        let cfg = MetaConfig::new(DispatchPolicy::RoundRobin);
        let _ = run_metasystem(&specs, &duplicate_id_stream(), &cfg);
    }

    #[test]
    #[should_panic(expected = "outage names site 2, but the fleet has 2 sites")]
    fn an_outage_outside_the_fleet_panics() {
        let specs = standard_shard_fleet(2, "fcfs");
        let cfg = MetaConfig::new(DispatchPolicy::RoundRobin).with_outages(vec![SiteOutage {
            site: 2,
            start: 100.0,
            end: 1000.0,
        }]);
        let _ = run_metasystem(&specs, &stream(10, 1), &cfg);
    }

    #[test]
    fn summary_round_trip_preserves_the_report_byte_for_byte() {
        let specs = standard_shard_fleet(4, "easy");
        let jobs = stream(80, 9);
        let cfg = MetaConfig::new(DispatchPolicy::LeastPressure).with_epoch_len(900.0);
        let meta = run_metasystem(&specs, &jobs, &cfg).unwrap();
        let back = MetaResult::from_summary(meta.to_summary());
        assert_eq!(back, meta);
        assert_eq!(back.render_report(), meta.render_report());
    }
}
