//! The simulation suite: schedulers × workload scales × loop modes ×
//! outages, on both the calendar and the reference engine. A row's
//! fingerprint is [`result_fingerprint`], which covers the event count,
//! every finished job and every counter.

use crate::{best_of, json_str, per_sec, Row, Scale};
use psbench_analyze::report::json_num;
use psbench_sched::by_name;
use psbench_sim::{EngineKind, SimConfig, SimJob, Simulation};
use psbench_store::result_fingerprint;
use psbench_workload::feedback::{infer_dependencies, InferenceParams};
use psbench_workload::outagegen::OutageGenerator;
use psbench_workload::{Lublin99, WorkloadModel};

const MACHINE: u32 = 128;

/// The workload a scenario runs; its jobs are built only when it is measured.
#[derive(Clone, Copy)]
enum Load {
    /// A Lublin99 trace, open loop.
    Open,
    /// The same trace with inferred closed-loop dependencies.
    Closed,
    /// The open trace under generated machine outages.
    Outages,
    /// Submit times compressed 8× with closed-loop dependencies.
    Saturated,
    /// Dense narrow jobs on an 8192-processor machine.
    Wide,
}

/// `(id, scheduler, engine, load, jobs)`.
struct Scenario(String, &'static str, EngineKind, Load, usize);

fn scenarios(scale: Scale) -> Vec<Scenario> {
    use EngineKind::{Calendar, Reference};
    let (sizes, wide_sizes): (&[_], &[_]) = match scale {
        Scale::Quick => (&[(10_000, "10k")], &[20_000]),
        Scale::Full => (
            &[(10_000, "10k"), (100_000, "100k"), (1_000_000, "1m")],
            &[20_000, 60_000],
        ),
    };
    let mut out = Vec::new();
    for &(n, tag) in sizes {
        for s in ["fcfs", "easy", "gang"] {
            let id = format!("{s}_{tag}_open");
            out.push(Scenario(id, s, Calendar, Load::Open, n));
        }
        let id = format!("easy_{tag}_closed");
        out.push(Scenario(id, "easy", Calendar, Load::Closed, n));
        let id = format!("easy_{tag}_outages");
        out.push(Scenario(id, "easy", Calendar, Load::Outages, n));
        // `conservative` here is the persistent-calendar backfiller: one
        // reservation per queued job, held across reacts — the regime that
        // used to be cubic.
        for s in ["easy", "gang", "fcfs", "conservative"] {
            let id = format!("{s}_{tag}_saturated_closed");
            out.push(Scenario(id, s, Calendar, Load::Saturated, n));
        }
        // Reference-engine baselines; skipped at 1M, where its linear
        // rescans take impractically long.
        if n <= 100_000 {
            for s in ["fcfs", "easy"] {
                let id = format!("reference_{s}_{tag}_open");
                out.push(Scenario(id, s, Reference, Load::Open, n));
            }
        }
    }
    // The running-set scaling probe: ~1 800 concurrent jobs on a wide machine.
    for &n in wide_sizes {
        for engine in [Calendar, Reference] {
            let id = format!("widemachine_{}_{}k", engine_name(engine), n / 1000);
            out.push(Scenario(id, "greedy-fcfs", engine, Load::Wide, n));
        }
    }
    out
}

fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Calendar => "calendar",
        EngineKind::Reference => "reference",
    }
}

fn inputs(load: Load, n: usize) -> (SimConfig, Vec<SimJob>) {
    let lublin = || Lublin99::default().generate(n, 42);
    match load {
        Load::Open => (SimConfig::new(MACHINE), SimJob::from_log(&lublin())),
        Load::Closed | Load::Saturated => {
            let mut log = lublin();
            if let Load::Saturated = load {
                // Offered load far beyond the machine: the backlog grows to
                // archive depth, so every completion replan runs against it.
                for j in &mut log.jobs {
                    j.submit_time /= 8;
                }
            }
            infer_dependencies(&mut log, &InferenceParams::default());
            (
                SimConfig::new(MACHINE).closed_loop(),
                SimJob::from_log(&log),
            )
        }
        Load::Outages => {
            let jobs = SimJob::from_log(&lublin());
            let horizon = jobs.iter().map(|j| j.submit as i64).max().unwrap_or(0) + 86_400;
            let outages = OutageGenerator::for_machine(MACHINE).generate(horizon, 4242);
            (SimConfig::new(MACHINE).with_outages(outages), jobs)
        }
        Load::Wide => {
            let jobs = (0..n).map(|i| {
                SimJob::rigid(
                    i as u64 + 1,
                    i as f64 * 0.5,                 // one arrival every 500 ms
                    900.0 + (i % 7) as f64 * 120.0, // ~15-30 min runtimes
                    1 + (i % 4) as u32,             // 1-4 processors
                )
            });
            (SimConfig::new(8192), jobs.collect())
        }
    }
}

pub(crate) fn ids(scale: Scale) -> Vec<String> {
    scenarios(scale).into_iter().map(|s| s.0).collect()
}

pub(crate) fn measure(id: &str, scale: Scale, repeat: usize) -> Row {
    let Scenario(id, scheduler, engine, load, n) = (scenarios(scale).into_iter())
        .find(|s| s.0 == id)
        .expect("id listed by ids()");
    let (config, jobs) = inputs(load, n);
    let (result, wall_ms) = best_of(
        repeat,
        || {
            let policy = by_name(scheduler, config.machine_size).expect("known scheduler");
            let sim = Simulation::with_engine(config.clone(), jobs.clone(), engine);
            (policy, sim)
        },
        |(mut policy, sim)| sim.run(policy.as_mut()),
    );
    Row {
        id,
        fingerprint: format!("{:016x}", result_fingerprint(&result)),
        wall_ms,
        info: vec![
            ("scheduler", json_str(scheduler)),
            ("engine", json_str(engine_name(engine))),
            ("jobs", jobs.len().to_string()),
            ("events", result.events_processed.to_string()),
            ("finished", result.finished.len().to_string()),
            ("mean_response", json_num(result.mean_response_time())),
            ("events_per_sec", per_sec(result.events_processed, wall_ms)),
        ],
    }
}
