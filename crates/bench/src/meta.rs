//! The metasystem suite: fleets of EASY shards (sites × jobs × dispatch
//! policy) through [`run_metasystem`] on one worker thread. Fingerprints do
//! not depend on the thread count, so the baseline holds under any.

use crate::{best_of, per_sec, Row, Scale};
use psbench_core::{WorkloadDef, WorkloadKind};
use psbench_metasim::{run_metasystem, standard_shard_fleet, DispatchPolicy, MetaConfig};
use psbench_sim::SimJob;

type Cell = (usize, usize, DispatchPolicy);

fn cells(scale: Scale) -> Vec<Cell> {
    // Every dispatch policy over a small fleet guards policy semantics; the
    // growing least-pressure fleets guard throughput.
    let mut cells: Vec<Cell> = (DispatchPolicy::all().iter())
        .map(|&dispatch| (16, 20_000, dispatch))
        .collect();
    cells.push((64, 50_000, DispatchPolicy::LeastPressure));
    if scale == Scale::Full {
        cells.push((256, 250_000, DispatchPolicy::LeastPressure));
        cells.push((1000, 1_000_000, DispatchPolicy::LeastPressure));
    }
    cells
}

fn cell_id((sites, jobs, dispatch): Cell) -> String {
    format!("s{sites}-j{jobs}-{}", dispatch.name())
}

/// The same stream `psbench metasim` routes: the Lublin '99 model on a
/// 128-proc reference machine, interarrivals compressed by `1/sites`,
/// renumbered onto unique ids below the migration band.
fn stream(sites: usize, jobs: usize) -> Vec<SimJob> {
    let def = WorkloadDef {
        interarrival_scale: 1.0 / sites as f64,
        ..WorkloadDef::new(WorkloadKind::Lublin99, 128, jobs, 1)
    };
    let mut jobs = SimJob::from_log(&def.generate());
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64 + 1;
        job.preceding = None;
        job.think_time = 0.0;
    }
    jobs
}

pub(crate) fn ids(scale: Scale) -> Vec<String> {
    cells(scale).into_iter().map(cell_id).collect()
}

pub(crate) fn measure(id: &str, scale: Scale, repeat: usize) -> Row {
    let (sites, jobs, dispatch) = (cells(scale).into_iter())
        .find(|&c| cell_id(c) == id)
        .expect("id listed by ids()");
    let specs = standard_shard_fleet(sites, "easy");
    let jobs = stream(sites, jobs);
    let cfg = MetaConfig::new(dispatch);
    let (meta, wall_ms) = best_of(
        repeat,
        || (),
        |()| run_metasystem(&specs, &jobs, &cfg).expect("known scheduler"),
    );
    Row {
        id: id.to_string(),
        fingerprint: format!("{:016x}", meta.fingerprint()),
        wall_ms,
        info: vec![
            ("finished", meta.result.finished.len().to_string()),
            (
                "events_per_sec",
                per_sec(meta.result.events_processed, wall_ms),
            ),
        ],
    }
}
