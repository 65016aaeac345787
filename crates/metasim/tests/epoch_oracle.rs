//! The epoch loop against a reference copy of its earlier form.
//!
//! [`reference_metasystem`] is the loop as it stood before routing moved to
//! per-shard batches: every routed job is submitted to its shard at once,
//! engine ids are the original ids plus the attempt band, an `origin` map
//! finds each finished job's arrival record, and least-pressure dispatch
//! reads each shard's pressure from its engine plus the demand submitted to
//! it this epoch. [`run_metasystem`] must produce the identical
//! [`MetaResult`] at any thread count, on streams built to break any engine
//! id scheme that is not an order-preserving image of the ids: scrambled
//! ids with gaps, negative submits and near-simultaneous arrivals whose ids
//! run against their submit order, and outages that withdraw several queued
//! jobs at one boundary.

mod common;

use common::{fleet, mixed_workload, permutation, policy_strategy, scale_outages, splitmix64};
use proptest::prelude::*;
use psbench_harness::parallel_map_mut;
use psbench_metasim::{
    run_metasystem, DispatchPolicy, Dispatcher, MetaConfig, MetaResult, Shard, ShardSpec,
    SiteOutage,
};
use psbench_sched::StepFn;
use psbench_sim::{FinishedJob, OnlineError, SimJob, SimulationResult};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The reference's id band: `engine_id = original_id + attempt · BAND`, so
/// original ids must stay below it.
const BAND: u64 = 1 << 40;

/// A shard's pressure as the reference computes it: queued, running and
/// submitted-this-epoch processors over the delivery rate, as heap-key bits.
fn pressure_bits(shard: &Shard, inflight: u64) -> u64 {
    let demanded = shard.queue().demanded_procs() as f64 + shard.used_capacity() + inflight as f64;
    (demanded / (shard.spec.procs as f64 * shard.spec.speed.max(1e-9))).to_bits()
}

/// The reference's routing: least-pressure over shard-side pressure in a
/// lazy heap validated on pop, every other policy through the production
/// [`Dispatcher`], whose routing for them reads no pressure.
enum Router {
    LeastPressure {
        heap: BinaryHeap<Reverse<(u64, u32)>>,
        /// Processors submitted to each shard this epoch.
        inflight: Vec<u64>,
    },
    Other(Dispatcher),
}

impl Router {
    fn new(policy: DispatchPolicy, sites: usize) -> Router {
        match policy {
            DispatchPolicy::LeastPressure => Router::LeastPressure {
                heap: BinaryHeap::new(),
                inflight: vec![0; sites],
            },
            other => Router::Other(Dispatcher::new(other)),
        }
    }

    fn begin_epoch(&mut self, shards: &[Shard], down: &[bool]) {
        match self {
            Router::LeastPressure { heap, inflight } => {
                inflight.iter_mut().for_each(|d| *d = 0);
                heap.clear();
                for (i, shard) in shards.iter().enumerate() {
                    if !down[i] {
                        heap.push(Reverse((pressure_bits(shard, 0), i as u32)));
                    }
                }
            }
            Router::Other(d) => d.begin_epoch(shards, down),
        }
    }

    fn pick(
        &mut self,
        shards: &mut [Shard],
        down: &[bool],
        job: &SimJob,
        now: f64,
    ) -> Option<usize> {
        let (heap, inflight) = match self {
            Router::LeastPressure { heap, inflight } => (heap, inflight),
            Router::Other(d) => return d.pick(shards, down, job, now),
        };
        if down.iter().all(|&d| d) {
            return None;
        }
        while let Some(Reverse((bits, site))) = heap.pop() {
            let i = site as usize;
            if down[i] {
                continue;
            }
            let current = pressure_bits(&shards[i], inflight[i]);
            if current == bits {
                return Some(i);
            }
            heap.push(Reverse((current, site)));
        }
        (0..shards.len())
            .filter(|&i| !down[i])
            .min_by_key(|&i| (pressure_bits(&shards[i], inflight[i]), i))
    }

    /// Record that `job` was just submitted to shard `i`.
    fn submitted(&mut self, shards: &[Shard], i: usize, job: &SimJob) {
        if let Router::LeastPressure { heap, inflight } = self {
            inflight[i] += job.procs.min(shards[i].spec.procs).max(1) as u64;
            heap.push(Reverse((pressure_bits(&shards[i], inflight[i]), i as u32)));
        }
    }
}

/// The epoch loop before per-shard batches and id ranks (see the module
/// docs). Ids must be unique and below [`BAND`].
fn reference_metasystem(specs: &[ShardSpec], jobs: &[SimJob], cfg: &MetaConfig) -> MetaResult {
    let mut shards: Vec<Shard> = specs
        .iter()
        .cloned()
        .map(|s| Shard::new(s).unwrap())
        .collect();
    let n = shards.len();
    let threads = cfg.threads.max(1);
    let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (ja, jb) = (&jobs[a as usize], &jobs[b as usize]);
        ja.submit.total_cmp(&jb.submit).then(ja.id.cmp(&jb.id))
    });
    let mut starts: Vec<(f64, u32)> = cfg.outages.iter().map(|o| (o.start, o.site)).collect();
    starts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ends: Vec<(f64, u32)> = cfg.outages.iter().map(|o| (o.end, o.site)).collect();
    ends.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut si, mut ei) = (0usize, 0usize);
    let mut down_count = vec![0u32; n];
    let mut down = vec![false; n];
    let mut router = Router::new(cfg.dispatch, n);
    // original id → (index into `jobs`, migrations so far).
    let mut origin: HashMap<u64, (u32, u32)> = HashMap::new();
    let mut cursor = 0usize;
    let mut parked: Vec<u64> = Vec::new();
    let mut merged: Vec<FinishedJob> = Vec::new();
    let (mut epochs, mut dispatched, mut migrations, mut k) = (0u64, 0u64, 0u64, 0u64);

    let harvest =
        |shards: &mut [Shard], merged: &mut Vec<FinishedJob>, origin: &HashMap<u64, (u32, u32)>| {
            for shard in shards.iter_mut() {
                for f in shard.harvest() {
                    let orig = f.id % BAND;
                    let (idx, migs) = origin[&orig];
                    merged.push(FinishedJob {
                        id: orig,
                        submit: jobs[idx as usize].submit.max(0.0),
                        restarts: f.restarts + migs,
                        ..*f
                    });
                }
            }
        };

    loop {
        let t0 = k as f64 * cfg.epoch_len;
        let t1 = (k + 1) as f64 * cfg.epoch_len;
        while ei < ends.len() && ends[ei].0 <= t0 {
            let site = ends[ei].1 as usize;
            ei += 1;
            if site < n && down_count[site] > 0 {
                down_count[site] -= 1;
                down[site] = down_count[site] > 0;
            }
        }
        let mut freshly_migrated = Vec::new();
        while si < starts.len() && starts[si].0 <= t0 {
            let site = starts[si].1 as usize;
            si += 1;
            if site >= n {
                continue;
            }
            down_count[site] += 1;
            if down_count[site] == 1 {
                down[site] = true;
                for engine_id in shards[site].queued_engine_ids() {
                    match shards[site].cancel(engine_id) {
                        Ok(()) => freshly_migrated.push(engine_id % BAND),
                        Err(OnlineError::JobRunning(_)) => {}
                        Err(e) => panic!("withdrawing queued job {engine_id}: {e:?}"),
                    }
                }
            }
        }

        router.begin_epoch(&shards, &down);
        let mut redispatch = std::mem::take(&mut parked);
        redispatch.extend(freshly_migrated);
        for orig in redispatch {
            let entry = origin.get_mut(&orig).expect("migrated job has an origin");
            let job = &jobs[entry.0 as usize];
            match router.pick(&mut shards, &down, job, t0) {
                Some(i) => {
                    entry.1 += 1;
                    migrations += 1;
                    let engine_id = orig + entry.1 as u64 * BAND;
                    shards[i].submit(job, engine_id, t0).unwrap();
                    router.submitted(&shards, i, job);
                }
                None => parked.push(orig),
            }
        }
        while cursor < order.len() {
            let idx = order[cursor] as usize;
            let job = &jobs[idx];
            let at = job.submit.max(0.0);
            if at >= t1 {
                break;
            }
            cursor += 1;
            assert!(job.id < BAND, "reference ids stay below the band");
            origin.insert(job.id, (idx as u32, 0));
            dispatched += 1;
            match router.pick(&mut shards, &down, job, t0) {
                Some(i) => {
                    shards[i].submit(job, job.id, at).unwrap();
                    router.submitted(&shards, i, job);
                }
                None => parked.push(job.id),
            }
        }

        if cursor >= order.len() && si >= starts.len() && (parked.is_empty() || ei >= ends.len()) {
            break;
        }

        parallel_map_mut(&mut shards, threads, |_, s| s.advance_to(t1));
        harvest(&mut shards, &mut merged, &origin);
        for shard in shards.iter_mut() {
            shard.calendar.advance_to(t1);
        }
        epochs += 1;

        k += 1;
        let mut next_due = f64::INFINITY;
        if cursor < order.len() {
            next_due = next_due.min(jobs[order[cursor] as usize].submit.max(0.0));
        }
        if si < starts.len() {
            next_due = next_due.min(starts[si].0);
        }
        if ei < ends.len() && (!parked.is_empty() || cursor < order.len()) {
            next_due = next_due.min(ends[ei].0);
        }
        if next_due.is_finite() {
            k = k.max((next_due.max(0.0) / cfg.epoch_len).floor() as u64);
        }
    }

    parallel_map_mut(&mut shards, threads, |_, s| s.advance_to(f64::INFINITY));
    harvest(&mut shards, &mut merged, &origin);

    let mut result = SimulationResult {
        scheduler: format!("metasim/{}", cfg.dispatch.name()),
        machine_size: specs.iter().fold(0u32, |a, s| a.saturating_add(s.procs)),
        finished: merged,
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
    MetaResult {
        result,
        sites: n,
        dispatch: cfg.dispatch.name().to_string(),
        epochs,
        dispatched,
        migrations,
        per_site_finished,
    }
}

/// `jobs` made hostile to any engine id scheme but an order-preserving image
/// of the ids, plus a burst that loads every site's queue early:
///
/// * the stream's ids are scrambled against submit order, unique and
///   gapped (the job at permuted position `p` gets an id in `5p + 2 ..= 5p + 4`);
/// * four negative submits, all clamped to 0, whose ids fall as their
///   submits rise;
/// * three arrivals 3·10⁻⁸ s apart (one engine batch) whose ids fall as
///   their submits rise;
/// * a burst of wide, long jobs in the first minutes, so an outage a few
///   epochs in withdraws several queued jobs at one boundary.
///
/// The added jobs take ids `≡ 0` or `1 (mod 5)`, which the stream never uses.
fn hostile_stream(mut jobs: Vec<SimJob>, sites: usize, seed: u64) -> Vec<SimJob> {
    let n = jobs.len() as u64;
    let positions = permutation(jobs.len(), seed);
    for (job, p) in jobs.iter_mut().zip(positions) {
        let p = p as u64;
        job.id = 5 * p + 2 + splitmix64(seed ^ p) % 3;
    }
    for j in 0..4u64 {
        let submit = -400.0 + 100.0 * j as f64;
        let job = SimJob::rigid(5 * (n + 8 - j), submit, 600.0 + 300.0 * j as f64, 8 << j);
        jobs.push(job.with_user(1));
    }
    let t = jobs[(n / 2) as usize].submit.max(0.0) + 0.5;
    for j in 0..3u64 {
        let submit = t + 3e-8 * j as f64;
        let job = SimJob::rigid(
            5 * (n + 3 - j) + 1,
            submit,
            900.0 - 200.0 * j as f64,
            16 << j,
        );
        jobs.push(job.with_user(2));
    }
    for j in 0..4 * sites as u64 {
        let submit = 60.0 + (splitmix64(seed ^ j) % 600) as f64;
        let job = SimJob::rigid(5 * (n + 20 + j) + 1, submit, 20_000.0, 96);
        jobs.push(job.with_user(3 + j as u32));
    }
    jobs
}

/// Assert `run_metasystem` equals the reference at 1, 2 and 8 threads, and
/// return the result.
fn assert_matches_reference(specs: &[ShardSpec], jobs: &[SimJob], cfg: &MetaConfig) -> MetaResult {
    let want = reference_metasystem(specs, jobs, cfg);
    for threads in [1usize, 2, 8] {
        let got = run_metasystem(specs, jobs, &cfg.clone().with_threads(threads)).unwrap();
        assert_eq!(got, want, "{} at {threads} threads", cfg.dispatch.name());
    }
    want
}

/// The pinned case: 5 mixed-policy sites, a 240-job Lublin '99 stream made
/// hostile, 30-minute epochs, and two sites down at one boundary.
fn pinned_case(dispatch: DispatchPolicy) -> (Vec<ShardSpec>, Vec<SimJob>, MetaConfig) {
    let specs = fleet(5, 11);
    let jobs = hostile_stream(mixed_workload(0, 240, 7), specs.len(), 7);
    let outages = vec![
        SiteOutage {
            site: 0,
            start: 3600.0,
            end: 14_400.0,
        },
        SiteOutage {
            site: 3,
            start: 3600.0,
            end: 36_000.0,
        },
    ];
    let cfg = MetaConfig::new(dispatch)
        .with_epoch_len(1800.0)
        .with_outages(outages);
    (specs, jobs, cfg)
}

/// The pinned case's fingerprints, as the loop before per-shard batches and
/// id ranks computed them.
const PINNED: [(DispatchPolicy, u64); 4] = [
    (DispatchPolicy::RoundRobin, 0xed79_8c7b_6896_bd8a),
    (DispatchPolicy::LeastPressure, 0x76ec_bb0b_240a_612c),
    (DispatchPolicy::Affinity, 0x0b2f_7d86_d80d_db1d),
    (DispatchPolicy::Reserve, 0x30d5_d65f_8d82_f218),
];

#[test]
fn pinned_fleet_matches_the_reference_and_its_recorded_fingerprints() {
    for (dispatch, fingerprint) in PINNED {
        let (specs, jobs, cfg) = pinned_case(dispatch);
        let got = assert_matches_reference(&specs, &jobs, &cfg);
        assert!(
            got.migrations >= 3,
            "{}: only {} migrations",
            dispatch.name(),
            got.migrations
        );
        assert_eq!(
            got.fingerprint(),
            fingerprint,
            "{}: {:016x}",
            dispatch.name(),
            got.fingerprint()
        );
    }
}

proptest! {
    /// Over random fleets, workload models, epoch lengths, dispatch
    /// policies and outages (one of them always a few epochs in, after the
    /// burst has queued), the batched loop equals the reference loop at 1,
    /// 2 and 8 threads.
    #[test]
    fn batched_epoch_loop_equals_the_reference_loop(
        n_sites in 1usize..6,
        policy_seed in 0u64..1_000,
        kind in 0u8..4,
        n_jobs in 8usize..48,
        seed in 0u64..10_000,
        epoch in 0usize..3,
        raw_outages in prop::collection::vec((0u8..8, 0u16..1000, 0u16..6), 0..3),
        dispatch in policy_strategy(),
    ) {
        let specs = fleet(n_sites, policy_seed);
        let jobs = hostile_stream(mixed_workload(kind, n_jobs, seed), n_sites, seed);
        let epoch_len = [600.0, 1800.0, 7200.0][epoch];
        let mut outages = scale_outages(&raw_outages, n_sites, &jobs, epoch_len);
        outages.push(SiteOutage {
            site: (seed % n_sites as u64) as u32,
            start: 2.0 * epoch_len,
            end: 6.0 * epoch_len,
        });
        let cfg = MetaConfig::new(dispatch)
            .with_epoch_len(epoch_len)
            .with_outages(outages);
        assert_matches_reference(&specs, &jobs, &cfg);
    }
}
