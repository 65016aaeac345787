//! Resumable, memoized scenario sweeps over an artifact store.
//!
//! A sweep is a *cell ledger*: the full scenario grid is enumerated up front,
//! every cell gets a canonical 128-bit key, cells whose results are already in
//! the [`ArtifactStore`] are decoded instead of recomputed, and the rest fan
//! out across the same work-stealing pool `run_all_parallel` uses. Each
//! completed cell is published to the store **and then** journaled durably in
//! the sweep's [`SweepLedger`], so a sweep killed at any instant resumes with
//! zero recomputation of completed cells and — because cached results decode
//! `==` to the originals — renders **byte-identical** reports.
//!
//! Cell keys are input fingerprints: every field of the scenario that can
//! change the simulation outcome (model, machine size, job count, seed, load
//! scaling, scheduler, loop mode) plus [`psbench_sched::SCHED_VERSION`], so a
//! semantics change retires every memoized result at once. Nothing about a
//! key depends on grid position — two sweeps sharing cells share their cache.

use crate::harness::parallel_map;
use crate::suite::{Scenario, WorkloadDef, WorkloadKind};
use psbench_sim::SimulationResult;
use psbench_store::{result_fingerprint, ArtifactKind, ArtifactStore, Fnv128, SweepLedger};
use std::io;

/// A rectangular sweep grid: the cross product of models, machine sizes,
/// offered-load points, seeds, and schedulers, with a fixed per-cell job
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Workload models to sweep.
    pub models: Vec<WorkloadKind>,
    /// Scheduler registry names to sweep.
    pub schedulers: Vec<String>,
    /// Interarrival scales (load points): < 1 compresses arrivals and raises
    /// the offered load.
    pub loads: Vec<f64>,
    /// Machine sizes in processors.
    pub machine_sizes: Vec<u32>,
    /// Workload RNG seeds.
    pub seeds: Vec<u64>,
    /// Jobs generated per cell.
    pub jobs: usize,
}

impl GridSpec {
    /// Enumerate every cell of the grid, in canonical order (models outermost,
    /// schedulers innermost). The order — and therefore any report rendered
    /// from a sweep of it — is a pure function of the spec.
    pub fn enumerate(&self) -> Vec<Scenario> {
        let mut cells = Vec::with_capacity(
            self.models.len()
                * self.machine_sizes.len()
                * self.loads.len()
                * self.seeds.len()
                * self.schedulers.len(),
        );
        for &kind in &self.models {
            for &machine_size in &self.machine_sizes {
                for &load in &self.loads {
                    for &seed in &self.seeds {
                        for scheduler in &self.schedulers {
                            let workload = WorkloadDef {
                                kind,
                                machine_size,
                                jobs: self.jobs,
                                seed,
                                interarrival_scale: load,
                            };
                            let name = format!("{}-m{machine_size}-l{load}-s{seed}", kind.name());
                            cells.push(Scenario::new(name, workload, scheduler));
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The canonical memoization key of one sweep cell: a fingerprint of every
/// input that determines the cell's [`SimulationResult`], bound to the
/// current [`psbench_sched::SCHED_VERSION`]. Scenario *names* are display
/// strings and deliberately excluded.
pub fn cell_key(scenario: &Scenario) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("cell");
    h.write_u32(psbench_sched::SCHED_VERSION);
    h.write_str(scenario.workload.kind.name());
    h.write_u32(scenario.workload.machine_size);
    h.write_u64(scenario.workload.jobs as u64);
    h.write_u64(scenario.workload.seed);
    h.write_f64(scenario.workload.interarrival_scale);
    h.write_str(&scenario.scheduler);
    h.write_u64(scenario.closed_loop as u64);
    h.finish()
}

/// The memoization key of simulating a stored *trace* (rather than a model
/// cell) under a scheduler — the key `psbench simulate --store` uses.
pub fn trace_cell_key(
    trace_fp: u128,
    scheduler: &str,
    machine_size: u32,
    closed_loop: bool,
) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("trace-cell");
    h.write_u32(psbench_sched::SCHED_VERSION);
    h.write(&trace_fp.to_le_bytes());
    h.write_str(scheduler);
    h.write_u32(machine_size);
    h.write_u64(closed_loop as u64);
    h.finish()
}

/// The identity of a whole sweep — its ledger key: the sweep name plus every
/// cell key in order. Re-running the same grid resumes the same ledger;
/// changing the grid (or any cell input) starts a fresh one.
pub fn sweep_key(name: &str, cell_keys: &[u128]) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("sweep");
    h.write_str(name);
    h.write_u64(cell_keys.len() as u64);
    for &key in cell_keys {
        h.write(&key.to_le_bytes());
    }
    h.finish()
}

/// What a resumable sweep run did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Completed cells in grid order — every cached cell followed by every
    /// cell computed this run, interleaved exactly as the grid enumerates
    /// them. When [`SweepOutcome::pending`] is zero this is the full grid.
    pub results: Vec<(Scenario, SimulationResult)>,
    /// Cells simulated by this run.
    pub computed: usize,
    /// Cells served from the store without recomputation.
    pub cached: usize,
    /// Cells left unrun by a `limit` (zero on an unlimited run).
    pub pending: usize,
}

/// Run (or resume) a sweep against a store.
///
/// All cells are enumerated and keyed up front; cells whose results are in
/// the store are decoded, the rest are simulated on `threads` work-stealing
/// workers. Each worker publishes its result artifact first and journals the
/// cell in the sweep ledger second, so the ledger never references a missing
/// result no matter where the process dies.
///
/// `limit` caps how many cells this run may *compute* (cached cells are
/// free): `Some(n)` stops after the first `n` uncached cells in grid order,
/// leaving the rest [`SweepOutcome::pending`]. That is the deterministic
/// twin of `SIGKILL` — the store and ledger are left in exactly the state an
/// interrupted unlimited run would leave after completing those cells — and
/// is how the integration tests (and `psbench sweep grid --max-cells`)
/// exercise interrupt/resume.
///
/// On resume, any cell the ledger already journals is cross-checked: the
/// stored artifact must fingerprint to the journaled value, so a corrupted
/// store surfaces as [`io::ErrorKind::InvalidData`] instead of a silently
/// different report.
pub fn run_sweep_resumable(
    name: &str,
    scenarios: &[Scenario],
    store: &ArtifactStore,
    threads: usize,
    limit: Option<usize>,
) -> io::Result<SweepOutcome> {
    let keys: Vec<u128> = scenarios.iter().map(cell_key).collect();
    let (ledger, journaled) = SweepLedger::open(store, sweep_key(name, &keys))?;

    let todo: Vec<usize> = (0..scenarios.len())
        .filter(|&i| !store.has(ArtifactKind::Result, keys[i]))
        .collect();
    let cached = scenarios.len() - todo.len();
    let run_now = &todo[..limit.unwrap_or(todo.len()).min(todo.len())];
    let pending = todo.len() - run_now.len();

    // Fan the uncached cells across the pool. Publish-then-journal inside the
    // worker, so progress is durable cell by cell, not batch by batch.
    let computed: Vec<io::Result<(usize, SimulationResult)>> =
        parallel_map(run_now.len(), threads, |j| {
            let i = run_now[j];
            let result = scenarios[i].run();
            store.put_result(keys[i], &result)?;
            ledger.record(keys[i], result_fingerprint(&result))?;
            Ok((i, result))
        });

    // Load the cached cells on the same pool: a fully-warm sweep is decode
    // bound, and decoding is as parallel as simulating. Slot assembly is by
    // grid index, so thread count still never affects output order.
    let mut todo_mask = vec![false; scenarios.len()];
    for &i in &todo {
        todo_mask[i] = true;
    }
    let to_load: Vec<usize> = (0..scenarios.len()).filter(|&i| !todo_mask[i]).collect();
    let loaded: Vec<io::Result<(usize, SimulationResult)>> = parallel_map(
        to_load.len(),
        threads,
        |j| {
            let i = to_load[j];
            let (result, actual) =
                store.get_result_with_fingerprint(keys[i])?.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        format!(
                            "cell {} vanished from the store mid-sweep",
                            scenarios[i].name
                        ),
                    )
                })?;
            if let Some(&fp) = journaled.get(&keys[i]) {
                if actual != fp {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "cell {}: stored result fingerprint {actual:016x} != journaled {fp:016x}",
                            scenarios[i].name
                        ),
                    ));
                }
            }
            Ok((i, result))
        },
    );

    let mut slots: Vec<Option<SimulationResult>> = vec![None; scenarios.len()];
    for done in computed.into_iter().chain(loaded) {
        let (i, result) = done?;
        slots[i] = Some(result);
    }

    let results = scenarios
        .iter()
        .zip(slots)
        .filter_map(|(s, r)| r.map(|r| (s.clone(), r)))
        .collect();
    Ok(SweepOutcome {
        results,
        computed: run_now.len(),
        cached,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{results_table, run_all_parallel, Format};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("psbench-sweep-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_grid() -> GridSpec {
        GridSpec {
            models: vec![WorkloadKind::Lublin99, WorkloadKind::Feitelson96],
            schedulers: vec!["fcfs".into(), "easy".into()],
            loads: vec![1.0, 0.5],
            machine_sizes: vec![64],
            seeds: vec![1, 2],
            jobs: 40,
        }
    }

    #[test]
    fn grid_enumeration_is_deterministic_and_complete() {
        let grid = small_grid();
        let a = grid.enumerate();
        let b = grid.enumerate();
        assert_eq!(a.len(), 2 * 2 * 2 * 2);
        assert_eq!(
            a.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            b.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
        // Keys are unique across the grid.
        let mut keys: Vec<u128> = a.iter().map(cell_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), a.len());
    }

    #[test]
    fn cell_keys_ignore_display_names_but_not_inputs() {
        let grid = small_grid();
        let cells = grid.enumerate();
        let mut renamed = cells[0].clone();
        renamed.name = "something else".into();
        assert_eq!(cell_key(&cells[0]), cell_key(&renamed));
        let mut reseeded = cells[0].clone();
        reseeded.workload.seed += 1;
        assert_ne!(cell_key(&cells[0]), cell_key(&reseeded));
    }

    #[test]
    fn sweep_matches_direct_run_and_resumes_without_recomputation() {
        let dir = scratch("resume");
        let store = ArtifactStore::open(&dir).unwrap();
        let cells = small_grid().enumerate();
        let direct = results_table("t", &run_all_parallel(&cells, 1));

        // Interrupted run: compute only 5 of the 16 cells, then "die".
        let partial = run_sweep_resumable("demo", &cells, &store, 4, Some(5)).unwrap();
        assert_eq!(partial.computed, 5);
        assert_eq!(partial.cached, 0);
        assert_eq!(partial.pending, 11);
        assert_eq!(partial.results.len(), 5);

        // Resume: the 5 completed cells are served from the store.
        let resumed = run_sweep_resumable("demo", &cells, &store, 4, None).unwrap();
        assert_eq!(resumed.cached, 5);
        assert_eq!(resumed.computed, 11);
        assert_eq!(resumed.pending, 0);
        let table = results_table("t", &resumed.results);
        let csv = |t: &crate::harness::Table| t.render(Format::Csv);
        assert_eq!(csv(&table), csv(&direct), "byte-identical report");

        // Fully warm: zero computation, still byte-identical.
        let warm = run_sweep_resumable("demo", &cells, &store, 4, None).unwrap();
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.cached, cells.len());
        assert_eq!(csv(&results_table("t", &warm.results)), csv(&direct));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_cached_cell_is_detected_on_resume() {
        let dir = scratch("tamper");
        let store = ArtifactStore::open(&dir).unwrap();
        let cells = small_grid().enumerate();
        run_sweep_resumable("demo", &cells, &store, 2, Some(1)).unwrap();
        // Swap the completed cell's artifact for a different (valid) result.
        let key = cell_key(&cells[0]);
        let mut other = store.get_result(key).unwrap().unwrap();
        other.events_processed += 1;
        std::fs::remove_file(store.path(ArtifactKind::Result, key)).unwrap();
        store.put_result(key, &other).unwrap();
        let err = run_sweep_resumable("demo", &cells, &store, 2, Some(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
