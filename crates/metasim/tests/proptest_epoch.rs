//! Property tests for the sharded metasystem's epoch loop.
//!
//! The headline property is the determinism contract of [`run_metasystem`]:
//! over randomized fleets, mixed workload models, outages (and the migrations
//! they induce), the parallel epoch advance is **bit-identical** to the
//! serial twin for any thread count, and the result does not depend on the
//! order jobs are handed over or on the order shard completions are
//! harvested within an epoch.

mod common;

use common::{fleet, mixed_workload, permutation, policy_strategy, scale_outages};
use proptest::prelude::*;
use psbench_metasim::{run_metasystem, Dispatcher, MetaConfig, Shard};
use psbench_sim::SimJob;

proptest! {
    /// The headline property: over randomized fleets, mixed workload models,
    /// dispatch policies, and outages (which force cancellations and
    /// migrations), the parallel advance at 2 and 8 threads is bit-identical
    /// to the single-threaded serial twin — results, fingerprints, and
    /// rendered reports all `==`.
    #[test]
    fn parallel_epoch_advance_is_bit_identical_to_the_serial_twin(
        n_sites in 2usize..6,
        policy_seed in 0u64..1_000,
        kind in 0u8..4,
        n_jobs in 8usize..40,
        seed in 0u64..10_000,
        raw_outages in prop::collection::vec((0u8..8, 0u16..1000, 0u16..6), 0..3),
        dispatch in policy_strategy(),
    ) {
        let specs = fleet(n_sites, policy_seed);
        let jobs = mixed_workload(kind, n_jobs, seed);
        let epoch_len = 1800.0;
        let outages = scale_outages(&raw_outages, n_sites, &jobs, epoch_len);
        let cfg = MetaConfig::new(dispatch)
            .with_epoch_len(epoch_len)
            .with_outages(outages);

        let serial = run_metasystem(&specs, &jobs, &cfg.clone().with_threads(1)).unwrap();
        for threads in [2usize, 8] {
            let par = run_metasystem(&specs, &jobs, &cfg.clone().with_threads(threads)).unwrap();
            prop_assert_eq!(&par.result, &serial.result);
            prop_assert_eq!(par.fingerprint(), serial.fingerprint());
            prop_assert_eq!(par.render_report(), serial.render_report());
        }

        // Identity survives migrations: every finished job carries its
        // original id exactly once, with its original submit time.
        let mut ids: Vec<u64> = serial.result.finished.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), serial.result.finished.len());
        prop_assert_eq!(
            serial.result.finished.len() + serial.result.unfinished,
            jobs.len()
        );
        for f in &serial.result.finished {
            let original = &jobs[(f.id - 1) as usize];
            prop_assert_eq!(f.submit.to_bits(), original.submit.to_bits());
        }
    }

    /// Dispatch is a pure function of the canonical `(submit, id)` stream:
    /// permuting the order the job vector is handed over changes nothing,
    /// bit for bit.
    #[test]
    fn results_are_invariant_under_permutation_of_the_job_vector(
        n_sites in 2usize..6,
        kind in 0u8..4,
        n_jobs in 8usize..32,
        seed in 0u64..10_000,
        perm_seed in 0u64..1_000,
        dispatch in policy_strategy(),
    ) {
        let specs = fleet(n_sites, seed);
        let jobs = mixed_workload(kind, n_jobs, seed);
        let cfg = MetaConfig::new(dispatch).with_epoch_len(1800.0);

        let baseline = run_metasystem(&specs, &jobs, &cfg).unwrap();
        let shuffled: Vec<SimJob> = permutation(jobs.len(), perm_seed)
            .into_iter()
            .map(|i| jobs[i].clone())
            .collect();
        let permuted = run_metasystem(&specs, &shuffled, &cfg).unwrap();
        prop_assert_eq!(baseline.result, permuted.result);
        prop_assert_eq!(baseline.render_report(), permuted.render_report());
    }

    /// Dispatch-policy determinism under permuted shard completion arrival:
    /// within an epoch, shards complete work in whatever order the worker
    /// threads reach them. Advancing and harvesting the shards in a permuted
    /// order must leave every shard in an identical state, so the dispatcher
    /// makes the identical pick sequence for the next epoch's arrivals.
    #[test]
    fn dispatcher_picks_are_invariant_under_permuted_completion_arrival(
        n_sites in 2usize..8,
        policy_seed in 0u64..1_000,
        n_jobs in 4usize..24,
        seed in 0u64..10_000,
        perm_seed in 0u64..1_000,
        dispatch in policy_strategy(),
    ) {
        let specs = fleet(n_sites, policy_seed);
        let warmup = mixed_workload(0, 16, seed);
        let arrivals = mixed_workload(1, n_jobs, seed ^ 0xBEEF);

        // Two identical fleets; only the order of shard-local advance and
        // harvest calls differs between them.
        let build = |order: &[usize]| -> (Vec<Vec<u64>>, Vec<usize>) {
            let mut shards: Vec<Shard> = specs
                .iter()
                .cloned()
                .map(|s| Shard::new(s).unwrap())
                .collect();
            let down = vec![false; shards.len()];
            // Seed every shard with the warmup stream (round-robin) so the
            // frontier advance below produces real completions and queues.
            for (i, job) in warmup.iter().enumerate() {
                let s = i % shards.len();
                shards[s].submit(job, job.id, job.submit.max(0.0)).unwrap();
            }
            let frontier = warmup.iter().map(|j| j.submit).fold(0.0f64, f64::max) + 3600.0;
            let mut harvests: Vec<Vec<u64>> = vec![Vec::new(); shards.len()];
            for &s in order {
                shards[s].advance_to(frontier);
                harvests[s] = shards[s].harvest().iter().map(|f| f.id).collect();
            }
            // Next epoch: the dispatcher routes fresh arrivals against the
            // post-completion shard states.
            let mut dispatcher = Dispatcher::new(dispatch);
            dispatcher.begin_epoch(&shards, &down);
            let mut picks = Vec::new();
            for job in &arrivals {
                let s = dispatcher.pick(&mut shards, &down, job, frontier).unwrap();
                shards[s].submit(job, 1_000_000 + job.id, frontier).unwrap();
                picks.push(s);
            }
            (harvests, picks)
        };

        let identity: Vec<usize> = (0..n_sites).collect();
        let (harvest_a, picks_a) = build(&identity);
        let (harvest_b, picks_b) = build(&permutation(n_sites, perm_seed));
        prop_assert_eq!(harvest_a, harvest_b);
        prop_assert_eq!(picks_a, picks_b);
    }
}
