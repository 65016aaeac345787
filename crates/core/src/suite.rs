//! The canonical benchmark suite and scenario definitions.
//!
//! The paper's central plea is that "a representative set of workloads be canonized
//! as a benchmark, and used by all subsequent studies", fixing both data and format.
//! This module is that canon for psbench: named workloads with pinned models,
//! machine sizes, job counts and seeds, plus the [`Scenario`] type that binds a
//! workload to a scheduler so a study is fully described by data.

use psbench_sched::by_name;
use psbench_sim::{SimConfig, SimJob, Simulation, SimulationResult};
use psbench_swf::SwfLog;
use psbench_workload::{Downey97, Feitelson96, Jann97, Lublin99, SessionModel, WorkloadModel};
use serde::{Deserialize, Serialize};

/// Which workload model a scenario draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The Feitelson '96 model.
    Feitelson96,
    /// The Jann et al. '97 model.
    Jann97,
    /// The Downey '97 model.
    Downey97,
    /// The Lublin '99 model (the paper's "relatively representative" choice).
    Lublin99,
    /// The closed-loop user-session model (SWF feedback fields).
    Sessions,
}

impl WorkloadKind {
    /// All kinds, in canonical order.
    pub fn all() -> &'static [WorkloadKind] {
        &[
            WorkloadKind::Feitelson96,
            WorkloadKind::Jann97,
            WorkloadKind::Downey97,
            WorkloadKind::Lublin99,
            WorkloadKind::Sessions,
        ]
    }

    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Feitelson96 => "feitelson96",
            WorkloadKind::Jann97 => "jann97",
            WorkloadKind::Downey97 => "downey97",
            WorkloadKind::Lublin99 => "lublin99",
            WorkloadKind::Sessions => "sessions",
        }
    }

    /// Look up a kind by its short [`Self::name`].
    pub fn by_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::all()
            .iter()
            .copied()
            .find(|k| k.name() == name)
    }

    /// Build the model for a given machine size.
    pub fn model(&self, machine_size: u32) -> Box<dyn WorkloadModel> {
        match self {
            WorkloadKind::Feitelson96 => Box::new(Feitelson96::with_machine_size(machine_size)),
            WorkloadKind::Jann97 => Box::new(Jann97::with_machine_size(machine_size)),
            WorkloadKind::Downey97 => Box::new(Downey97::with_machine_size(machine_size)),
            WorkloadKind::Lublin99 => Box::new(Lublin99::with_machine_size(machine_size)),
            WorkloadKind::Sessions => Box::new(SessionModel {
                common: psbench_workload::CommonParams::default().with_machine_size(machine_size),
                ..SessionModel::default()
            }),
        }
    }
}

/// A workload definition: model, machine, size, seed, and optional load scaling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDef {
    /// Which model generates the jobs.
    pub kind: WorkloadKind,
    /// Machine size in processors.
    pub machine_size: u32,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// RNG seed (fixed, so the canonical workloads are reproducible bit for bit).
    pub seed: u64,
    /// Interarrival scaling applied after generation: < 1 compresses the trace and
    /// raises the offered load, > 1 stretches it. 1.0 leaves the model's own load.
    pub interarrival_scale: f64,
}

impl WorkloadDef {
    /// A workload with no load rescaling.
    pub fn new(kind: WorkloadKind, machine_size: u32, jobs: usize, seed: u64) -> Self {
        WorkloadDef {
            kind,
            machine_size,
            jobs,
            seed,
            interarrival_scale: 1.0,
        }
    }

    /// Generate the SWF log this definition describes.
    pub fn generate(&self) -> SwfLog {
        let mut log = self
            .kind
            .model(self.machine_size)
            .generate(self.jobs, self.seed);
        if (self.interarrival_scale - 1.0).abs() > 1e-12 {
            log.scale_interarrivals(self.interarrival_scale);
        }
        log
    }
}

/// A complete, reproducible experiment unit: a workload, a scheduler (by registry
/// name), and the simulation options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Display name of the scenario.
    pub name: String,
    /// The workload definition.
    pub workload: WorkloadDef,
    /// Scheduler registry name (see `psbench_sched::by_name`).
    pub scheduler: String,
    /// Honour feedback dependencies (closed loop) during simulation.
    pub closed_loop: bool,
}

impl Scenario {
    /// Build a scenario.
    pub fn new(name: impl Into<String>, workload: WorkloadDef, scheduler: &str) -> Self {
        Scenario {
            name: name.into(),
            workload,
            scheduler: scheduler.to_string(),
            closed_loop: false,
        }
    }

    /// Run the scenario and return the simulation result.
    pub fn run(&self) -> SimulationResult {
        let log = self.workload.generate();
        let jobs = SimJob::from_log(&log);
        let mut config = SimConfig::new(self.workload.machine_size);
        config.closed_loop = self.closed_loop;
        let mut scheduler =
            by_name(&self.scheduler, self.workload.machine_size).unwrap_or_else(|e| panic!("{e}"));
        Simulation::new(config, jobs).run(scheduler.as_mut())
    }
}

/// The canonical benchmark suite: five workloads (one per model plus the session
/// workload) on a 128-node machine, with pinned seeds.
pub fn canonical_suite(jobs: usize) -> Vec<WorkloadDef> {
    WorkloadKind::all()
        .iter()
        .enumerate()
        .map(|(i, &kind)| WorkloadDef::new(kind, 128, jobs, 19_990_401 + i as u64))
        .collect()
}

/// The canonical scheduler line-up (registry names).
pub fn canonical_schedulers() -> &'static [&'static str] {
    &["fcfs", "sjf", "greedy-fcfs", "easy", "conservative", "gang"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_swf::validate;

    #[test]
    fn workload_kinds_build_their_models() {
        for &kind in WorkloadKind::all() {
            let model = kind.model(64);
            assert_eq!(model.machine_size(), 64);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(WorkloadKind::all().len(), 5);
    }

    #[test]
    fn workload_def_generates_reproducible_logs() {
        let def = WorkloadDef::new(WorkloadKind::Lublin99, 64, 150, 7);
        let a = def.generate();
        let b = def.generate();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.len(), 150);
        assert!(validate(&a).is_clean());
    }

    #[test]
    fn interarrival_scale_raises_load() {
        let base = WorkloadDef::new(WorkloadKind::Jann97, 64, 200, 9);
        let compressed = WorkloadDef {
            interarrival_scale: 0.25,
            ..base
        };
        let l0 = base.generate().offered_load().unwrap();
        let l1 = compressed.generate().offered_load().unwrap();
        assert!(l1 > l0);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let def = WorkloadDef::new(WorkloadKind::Feitelson96, 64, 120, 3);
        let scenario = Scenario::new("smoke", def, "easy");
        let result = scenario.run();
        assert_eq!(result.finished.len(), 120);
        assert_eq!(result.scheduler, "easy");
    }

    #[test]
    #[should_panic]
    fn unknown_scheduler_panics() {
        let def = WorkloadDef::new(WorkloadKind::Feitelson96, 64, 10, 3);
        Scenario::new("bad", def, "no-such-policy").run();
    }

    #[test]
    fn canonical_suite_is_stable() {
        let suite = canonical_suite(50);
        assert_eq!(suite.len(), 5);
        let names: Vec<&str> = suite.iter().map(|d| d.kind.name()).collect();
        assert_eq!(
            names,
            vec!["feitelson96", "jann97", "downey97", "lublin99", "sessions"]
        );
        assert!(suite.iter().all(|d| d.machine_size == 128));
        assert_eq!(canonical_schedulers().len(), 6);
    }
}
