//! Helpers shared by the metasim integration tests: randomized fleets,
//! mixed-model arrival streams, outages scaled onto a stream, and seeded
//! permutations.

#![allow(dead_code)]

use proptest::prelude::*;
use psbench_metasim::{standard_shard_fleet, DispatchPolicy, ShardSpec, SiteOutage};
use psbench_sim::SimJob;
use psbench_workload::{Downey97, Feitelson96, Jann97, Lublin99, WorkloadModel};

/// Local schedulers drawn for randomized fleets: a spread of the zoo
/// (greedy, backfilling, sorted-order) rather than every registry entry, to
/// keep the 128-case budget fast while still mixing policies across sites.
pub const ZOO: &[&str] = &["fcfs", "easy", "sjf", "greedy-fcfs"];

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized heterogeneous fleet: palette sizes/speeds from
/// [`standard_shard_fleet`], local policy per site drawn from [`ZOO`].
pub fn fleet(n_sites: usize, policy_seed: u64) -> Vec<ShardSpec> {
    let mut specs = standard_shard_fleet(n_sites, "fcfs");
    for (i, spec) in specs.iter_mut().enumerate() {
        spec.scheduler =
            ZOO[(splitmix64(policy_seed ^ i as u64) % ZOO.len() as u64) as usize].to_string();
    }
    specs
}

/// A mixed-model global arrival stream: jobs from one of the four rigid
/// workload models, renumbered 1..=n (distinct ids below the migration band).
pub fn mixed_workload(kind: u8, n_jobs: usize, seed: u64) -> Vec<SimJob> {
    let model: Box<dyn WorkloadModel> = match kind % 4 {
        0 => Box::new(Lublin99::with_machine_size(256)),
        1 => Box::new(Jann97::with_machine_size(256)),
        2 => Box::new(Feitelson96::with_machine_size(256)),
        _ => Box::new(Downey97::with_machine_size(256)),
    };
    let mut jobs = SimJob::from_log(&model.generate(n_jobs, seed));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64 + 1;
        job.preceding = None;
        job.think_time = 0.0;
    }
    jobs
}

/// Scale raw outage draws onto the workload's actual time span so outages
/// really overlap arrivals (and so migrations actually happen).
pub fn scale_outages(
    raw: &[(u8, u16, u16)],
    n_sites: usize,
    jobs: &[SimJob],
    epoch_len: f64,
) -> Vec<SiteOutage> {
    let span = jobs.iter().map(|j| j.submit).fold(0.0f64, f64::max) + epoch_len;
    raw.iter()
        .map(|&(site, start, len)| SiteOutage {
            site: site as u32 % n_sites as u32,
            start: span * start as f64 / 1000.0,
            end: span * start as f64 / 1000.0 + (1 + len as u64) as f64 * epoch_len / 3.0,
        })
        .collect()
}

pub fn policy_strategy() -> impl Strategy<Value = DispatchPolicy> {
    prop_oneof![
        Just(DispatchPolicy::RoundRobin),
        Just(DispatchPolicy::LeastPressure),
        Just(DispatchPolicy::Affinity),
        Just(DispatchPolicy::Reserve),
    ]
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(seed ^ (i as u64) << 17) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}
