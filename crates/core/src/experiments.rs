//! The experiment catalogue: one function per experiment, E1..E10.
//!
//! The paper is a standards paper — it has no numeric result tables of its own —
//! so its "evaluation" is the set of claims and proposals in Sections 1–4. Every
//! function here regenerates one of them as a concrete table. The same functions
//! back `psbench sweep`, which prints the tables, and `bench sweep`, which
//! fingerprints them into `BENCH_sweep.json` (see the README's
//! experiment-harness section).

use crate::harness::{default_threads, fmt, parallel_map, run_all_parallel, Table};
use crate::suite::{canonical_schedulers, canonical_suite, Scenario, WorkloadDef, WorkloadKind};
use psbench_analyze::{FidelityReport, WorkloadProfile};
use psbench_metasim::{
    coallocate_via_queues, coallocate_via_reservations, standard_metasystem, CoallocationRequest,
};
use psbench_metrics::{
    compare_workloads, rank_by, workload_features, Objective, WeightedObjective,
};
use psbench_sched::by_name;
use psbench_sim::{SimConfig, SimJob, Simulation};
use psbench_swf::convert::{ConvertOptions, Dialect, RawStream};
use psbench_swf::{validate, JobSource};
use psbench_workload::{
    generate_raw_log, strip_dependencies, Downey97, OutageGenerator, RawLogProfile, SessionModel,
    WorkloadModel,
};

/// How large the experiments run: job counts and sweep densities. `quick()` keeps
/// everything small enough for tests and benches; `full()` is the scale of
/// `psbench sweep --scale full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Jobs per simulated workload.
    pub jobs: usize,
    /// Number of points in parameter sweeps (loads, weights).
    pub sweep_points: usize,
    /// Number of co-allocation requests in E7.
    pub requests: usize,
}

impl Scale {
    /// A fast configuration for tests and continuous benchmarking.
    pub fn quick() -> Self {
        Scale {
            jobs: 300,
            sweep_points: 3,
            requests: 20,
        }
    }

    /// The full configuration (`psbench sweep --scale full`).
    pub fn full() -> Self {
        Scale {
            jobs: 3000,
            sweep_points: 6,
            requests: 200,
        }
    }
}

/// Build the scenario for one (workload, scheduler) cell. Experiments that
/// sweep many independent cells collect batches of these and hand them to
/// [`run_all_parallel`], which preserves input order and bit-identical results.
fn scenario_for(def: WorkloadDef, scheduler: &str, closed_loop: bool) -> Scenario {
    let mut scenario = Scenario::new(format!("{}-{}", def.kind.name(), scheduler), def, scheduler);
    scenario.closed_loop = closed_loop;
    scenario
}

/// E1 — metric disagreement (Section 1.2, \[30\]): the ranking of two schedulers can
/// flip between mean response time and mean bounded slowdown as the load varies.
pub fn e1_metric_disagreement(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1 — scheduler ranking under response time vs slowdown",
        &[
            "interarrival scale",
            "easy: mean response [s]",
            "sjf: mean response [s]",
            "easy: bounded slowdown",
            "sjf: bounded slowdown",
            "winner (response)",
            "winner (slowdown)",
            "metrics disagree?",
        ],
    );
    let scales = [1.0, 0.6, 0.4, 0.3, 0.25, 0.2];
    let points: Vec<f64> = scales
        .iter()
        .take(scale.sweep_points.max(2))
        .copied()
        .collect();
    let scenarios: Vec<Scenario> = points
        .iter()
        .flat_map(|&s| {
            let def = WorkloadDef {
                interarrival_scale: s,
                ..WorkloadDef::new(WorkloadKind::Lublin99, 128, scale.jobs, 1999)
            };
            ["easy", "sjf"].map(|sched| scenario_for(def, sched, false))
        })
        .collect();
    let runs = run_all_parallel(&scenarios, default_threads());
    for (i, &s) in points.iter().enumerate() {
        let (easy, sjf) = (&runs[2 * i].1, &runs[2 * i + 1].1);
        let results = vec![easy.scheduler_result(), sjf.scheduler_result()];
        let by_resp = psbench_metrics::rank_by_objective(&results, Objective::MeanResponseTime);
        let by_slow = psbench_metrics::rank_by_objective(&results, Objective::MeanBoundedSlowdown);
        table.push_row(vec![
            fmt(s),
            fmt(easy.mean_response_time()),
            fmt(sjf.mean_response_time()),
            fmt(easy.mean_bounded_slowdown()),
            fmt(sjf.mean_bounded_slowdown()),
            by_resp[0].clone(),
            by_slow[0].clone(),
            (by_resp != by_slow).to_string(),
        ]);
    }
    table
}

/// E2 — owner-weighted objective functions (Section 1.2, \[41\]): the best scheduler
/// changes as the weight between the user-centric and system-centric terms moves.
pub fn e2_objective_weights(scale: Scale) -> Table {
    let def = WorkloadDef {
        interarrival_scale: 0.35,
        ..WorkloadDef::new(WorkloadKind::Jann97, 128, scale.jobs, 1997)
    };
    let schedulers = ["fcfs", "sjf", "easy", "conservative"];
    let scenarios: Vec<Scenario> = schedulers
        .iter()
        .map(|s| scenario_for(def, s, false))
        .collect();
    let results: Vec<psbench_metrics::SchedulerResult> =
        run_all_parallel(&scenarios, default_threads())
            .iter()
            .map(|(_, r)| r.scheduler_result())
            .collect();
    let mut table = Table::new(
        "E2 — winner of the weighted objective as the user weight varies",
        &["user weight", "winner", "second"],
    );
    let n = scale.sweep_points.max(3);
    for i in 0..=n {
        let w = i as f64 / n as f64;
        let objective = WeightedObjective::with_user_weight(w);
        let ranking = rank_by(&results, |agg, sys| objective.badness(agg, sys));
        table.push_row(vec![fmt(w), ranking[0].clone(), ranking[1].clone()]);
    }
    table
}

/// E3 — workload-model comparison (Section 2.1, \[58\]): co-plot-style feature
/// distances between the four rigid-job models.
pub fn e3_model_comparison(scale: Scale) -> Table {
    let models = psbench_workload::standard_models(128);
    let features: Vec<_> = parallel_map(models.len(), default_threads(), |i| {
        let m = &models[i];
        workload_features(m.name(), &m.generate(scale.jobs, 58))
    });
    let matrix = compare_workloads(&features);
    let mut table = Table::new(
        "E3 — workload model features and pairwise distances",
        &[
            "model",
            "mean procs",
            "pow2 frac",
            "serial frac",
            "mean runtime [s]",
            "runtime CV",
            "nearest other model",
            "distance",
        ],
    );
    for (i, f) in features.iter().enumerate() {
        let (nearest, dist) = matrix.nearest(i).unwrap();
        table.push_row(vec![
            f.name.clone(),
            fmt(f.mean_procs),
            fmt(f.power_of_two_fraction),
            fmt(f.serial_fraction),
            fmt(f.mean_runtime),
            fmt(f.runtime_cv),
            matrix.names[nearest].clone(),
            fmt(dist),
        ]);
    }
    table
}

/// E4 — feedback (Section 2.2): the same session workload replayed open-loop versus
/// closed-loop. Under the closed loop the arrival process throttles itself when the
/// system is slow, so the measured degradation at high load is milder.
pub fn e4_feedback(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4 — open versus closed (feedback) replay of a session workload",
        &[
            "interarrival scale",
            "open: mean response [s]",
            "closed: mean response [s]",
            "open / closed ratio",
        ],
    );
    let scales = [1.0, 0.5, 0.25, 0.15, 0.1];
    let points: Vec<f64> = scales
        .iter()
        .take(scale.sweep_points.max(2))
        .copied()
        .collect();
    let rows = parallel_map(points.len(), default_threads(), |i| {
        let s = points[i];
        let model = SessionModel::default();
        let mut log = model.generate(scale.jobs, 1998);
        log.scale_interarrivals(s);
        let jobs = SimJob::from_log(&log);
        // Open loop: strip the dependencies and replay recorded submit times.
        let mut open_log = log.clone();
        strip_dependencies(&mut open_log);
        let open_jobs = SimJob::from_log(&open_log);
        let mut easy = by_name("easy", 128).unwrap();
        let open = Simulation::new(SimConfig::new(128), open_jobs).run(easy.as_mut());
        let mut easy2 = by_name("easy", 128).unwrap();
        let closed = Simulation::new(SimConfig::new(128).closed_loop(), jobs).run(easy2.as_mut());
        let ratio = if closed.mean_response_time() > 0.0 {
            open.mean_response_time() / closed.mean_response_time()
        } else {
            0.0
        };
        vec![
            fmt(s),
            fmt(open.mean_response_time()),
            fmt(closed.mean_response_time()),
            fmt(ratio),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// E5 — outages (Section 2.2): scheduler performance without outages, with
/// unannounced failures, and with announced maintenance handled by a draining
/// scheduler.
pub fn e5_outages(scale: Scale) -> Table {
    let def = WorkloadDef {
        interarrival_scale: 0.8,
        ..WorkloadDef::new(WorkloadKind::Lublin99, 128, scale.jobs, 2000)
    };
    let log = def.generate();
    let horizon = log.duration() + 86_400;
    let jobs = SimJob::from_log(&log);
    let outages = OutageGenerator::for_machine(128).generate(horizon, 2000);
    let mut table = Table::new(
        "E5 — the cost of ignoring outage information",
        &[
            "configuration",
            "scheduler",
            "jobs killed",
            "mean response [s]",
            "utilization",
        ],
    );
    let cases = [
        ("no outages", "easy", false),
        ("outages, outage-blind scheduler", "easy", true),
        ("outages, draining scheduler", "draining-easy", true),
    ];
    let rows = parallel_map(cases.len(), default_threads(), |i| {
        let (name, sched, with_outages) = cases[i];
        let mut config = SimConfig::new(128);
        if with_outages {
            config = config.with_outages(outages.clone());
        }
        let mut s = by_name(sched, 128).unwrap();
        let r = Simulation::new(config, jobs.clone()).run(s.as_mut());
        vec![
            name.to_string(),
            sched.to_string(),
            r.kills.to_string(),
            fmt(r.mean_response_time()),
            fmt(r.system().utilization),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// E6 — the SWF pipeline (Section 2.3): four raw accounting-log dialects converted
/// to the standard format, validated, and round-tripped.
pub fn e6_swf_pipeline(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6 — raw accounting logs through the SWF standard pipeline",
        &[
            "dialect",
            "raw jobs",
            "converted jobs",
            "skipped lines",
            "violations after cleaning",
            "round-trip identical?",
        ],
    );
    let dialects = Dialect::all();
    let rows = parallel_map(dialects.len(), default_threads(), |i| {
        let dialect = dialects[i];
        let profile = RawLogProfile::canonical(dialect);
        let raw = generate_raw_log(&profile, scale.jobs, 6);
        let mut stream = RawStream::new(
            dialect.name(),
            raw.as_bytes(),
            dialect,
            profile.machine_size,
            &ConvertOptions::default(),
        );
        let log = (&mut stream).collect_log().expect("conversion succeeds");
        let report = validate(&log);
        let text = psbench_swf::write_string(&log);
        let back = psbench_swf::parse(&text).expect("writer output parses");
        vec![
            dialect.name().to_string(),
            scale.jobs.to_string(),
            log.len().to_string(),
            stream.report().skipped.to_string(),
            report.violations.len().to_string(),
            (back.jobs == log.jobs).to_string(),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// E7 — co-allocation (Sections 3.1–3.2): queue-based versus reservation-based
/// simultaneous access to several sites.
pub fn e7_coallocation(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7 — co-allocation across sites: queues versus advance reservations",
        &[
            "mechanism",
            "requests",
            "synchronized fraction",
            "mean start delay [s]",
            "mean wasted node-seconds",
        ],
    );
    let req = CoallocationRequest {
        parts: 3,
        procs: 64,
        duration: 3600.0,
    };
    for mechanism in ["queues", "reservations"] {
        let mut sites = standard_metasystem(4, 7);
        let mut synced = 0usize;
        let mut delay = 0.0;
        let mut wasted = 0.0;
        let mut count = 0usize;
        for i in 0..scale.requests {
            let now = i as f64 * 1800.0;
            let outcome = match mechanism {
                "queues" => Some(coallocate_via_queues(&req, &mut sites, now, 300.0)),
                _ => coallocate_via_reservations(&req, &mut sites, now, 3600.0),
            };
            if let Some(o) = outcome {
                count += 1;
                if o.synchronized {
                    synced += 1;
                }
                delay += o.start - now;
                wasted += o.wasted_node_seconds;
            }
        }
        let denom = count.max(1) as f64;
        table.push_row(vec![
            mechanism.to_string(),
            count.to_string(),
            fmt(synced as f64 / denom),
            fmt(delay / denom),
            fmt(wasted / denom),
        ]);
    }
    table
}

/// E8 — the WARMstones-style "apples-to-apples" table (Section 4.3): every
/// canonical workload crossed with every canonical scheduler.
pub fn e8_warmstones(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8 — canonical suite × canonical schedulers (mean bounded slowdown | utilization)",
        &{
            let mut headers = vec!["workload"];
            headers.extend(canonical_schedulers());
            headers
        },
    );
    let suite = canonical_suite(scale.jobs);
    let scheds = canonical_schedulers();
    let scenarios: Vec<Scenario> = suite
        .iter()
        .flat_map(|def| scheds.iter().map(|sched| scenario_for(*def, sched, false)))
        .collect();
    let runs = run_all_parallel(&scenarios, default_threads());
    for (w, def) in suite.iter().enumerate() {
        let mut row = vec![def.kind.name().to_string()];
        for i in 0..scheds.len() {
            let r = &runs[w * scheds.len() + i].1;
            row.push(format!(
                "{} | {}",
                fmt(r.mean_bounded_slowdown()),
                fmt(r.system().utilization)
            ));
        }
        table.push_row(row);
    }
    table
}

/// E9 — flexible jobs (Sections 1.2, 2.2): moldable jobs under adaptive
/// partitioning versus the same jobs submitted rigidly at their maximum useful size
/// under EASY backfilling.
pub fn e9_flexible(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9 — moldable jobs: adaptive partitioning versus rigid submission",
        &[
            "policy",
            "jobs",
            "mean response [s]",
            "mean bounded slowdown",
            "utilization",
        ],
    );
    // Build a moldable workload from the Downey model: arrivals and total work from
    // the model, speedup profiles attached to every job.
    let model = Downey97::with_machine_size(128);
    let log = model.generate(scale.jobs, 97);
    let mut rng = psbench_workload::model_rng(97);
    let moldable_jobs: Vec<SimJob> = log
        .summaries()
        .filter_map(SimJob::from_swf)
        .map(|mut j| {
            let (_, speedup) = model.sample_application(&mut rng);
            // The SWF runtime was generated at the job's recorded size; recover the
            // sequential work from the recorded allocation so the comparison is fair.
            let seq_work = j.work * {
                use psbench_workload::flexible::SpeedupModel;
                speedup.speedup(j.procs)
            };
            j.work = seq_work;
            j.estimate = seq_work;
            j.moldable(speedup)
        })
        .collect();
    let rigid_jobs: Vec<SimJob> = log.summaries().filter_map(SimJob::from_swf).collect();

    let mut adaptive = by_name("adaptive", 128).unwrap();
    let r_adaptive = Simulation::new(SimConfig::new(128), moldable_jobs).run(adaptive.as_mut());
    let mut easy = by_name("easy", 128).unwrap();
    let r_rigid = Simulation::new(SimConfig::new(128), rigid_jobs).run(easy.as_mut());
    for (name, r) in [
        ("adaptive (moldable)", &r_adaptive),
        ("easy (rigid)", &r_rigid),
    ] {
        table.push_row(vec![
            name.to_string(),
            r.finished.len().to_string(),
            fmt(r.mean_response_time()),
            fmt(r.mean_bounded_slowdown()),
            fmt(r.system().utilization),
        ]);
    }
    table
}

/// E10 — model fidelity (Section 2.1): every rigid-job workload model scored
/// against a reference trace by the KS and EMD distances of its marginal
/// distributions (interarrival, runtime, size, estimate accuracy, diurnal
/// cycle). The reference is a pinned Lublin99 workload standing in for an
/// archive log, so the Lublin99 model itself (at a different seed) should
/// score best — the "relatively representative" claim as a measurement.
pub fn e10_model_fidelity(scale: Scale) -> Table {
    let reference_def = WorkloadDef::new(WorkloadKind::Lublin99, 128, scale.jobs, 424_242);
    let reference = WorkloadProfile::of_log("reference(lublin99)", &reference_def.generate());
    let models = psbench_workload::standard_models(128);
    let reports: Vec<FidelityReport> = parallel_map(models.len(), default_threads(), |i| {
        let m = &models[i];
        let profile = WorkloadProfile::of_log(m.name(), &m.generate(scale.jobs, 58));
        FidelityReport::compare(&reference, &profile)
    });
    let mut table = Table::new(
        "E10 — model fidelity against a reference trace (KS per marginal, EMD for runtime, chi2 for the joint size-runtime histogram)",
        &[
            "model",
            "KS interarrival",
            "KS runtime",
            "KS size",
            "KS accuracy",
            "KS diurnal",
            "EMD runtime [s]",
            "chi2 size-runtime",
            "mean KS",
        ],
    );
    for r in &reports {
        let ks = |name: &str| {
            r.marginals
                .iter()
                .find(|m| m.marginal == name)
                .map(|m| m.ks)
                .unwrap_or(1.0)
        };
        let emd_runtime = r
            .marginals
            .iter()
            .find(|m| m.marginal == "runtime")
            .map(|m| m.emd)
            .unwrap_or(0.0);
        table.push_row(vec![
            r.candidate.clone(),
            fmt(ks("interarrival")),
            fmt(ks("runtime")),
            fmt(ks("size")),
            fmt(ks("accuracy")),
            fmt(ks("diurnal")),
            fmt(emd_runtime),
            fmt(r.joint_size_runtime),
            fmt(r.mean_ks()),
        ]);
    }
    table
}

/// Identifiers of all experiments, in the order `psbench sweep all` runs them.
pub fn experiment_ids() -> &'static [&'static str] {
    &["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"]
}

/// Run one experiment by id at the given scale.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Table> {
    match id {
        "E1" => Some(e1_metric_disagreement(scale)),
        "E2" => Some(e2_objective_weights(scale)),
        "E3" => Some(e3_model_comparison(scale)),
        "E4" => Some(e4_feedback(scale)),
        "E5" => Some(e5_outages(scale)),
        "E6" => Some(e6_swf_pipeline(scale)),
        "E7" => Some(e7_coallocation(scale)),
        "E8" => Some(e8_warmstones(scale)),
        "E9" => Some(e9_flexible(scale)),
        "E10" => Some(e10_model_fidelity(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            jobs: 120,
            sweep_points: 2,
            requests: 8,
        }
    }

    #[test]
    fn e1_produces_a_row_per_load_point() {
        let t = e1_metric_disagreement(tiny());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), 8);
    }

    #[test]
    fn e2_covers_the_weight_range() {
        let t = e2_objective_weights(tiny());
        assert!(t.rows.len() >= 4);
        assert_eq!(t.rows.first().unwrap()[0], fmt(0.0));
        assert_eq!(t.rows.last().unwrap()[0], fmt(1.0));
    }

    #[test]
    fn e3_compares_all_four_models() {
        let t = e3_model_comparison(tiny());
        assert_eq!(t.rows.len(), 4);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(names.contains(&"lublin99"));
    }

    #[test]
    fn e4_reports_open_and_closed_loop() {
        let t = e4_feedback(tiny());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let open: f64 = row[1].parse().unwrap();
            let closed: f64 = row[2].parse().unwrap();
            assert!(open > 0.0 && closed > 0.0);
        }
    }

    #[test]
    fn e5_shows_three_configurations() {
        let t = e5_outages(tiny());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][2], "0"); // no outages -> no kills
    }

    #[test]
    fn e6_converts_every_dialect_cleanly() {
        let t = e6_swf_pipeline(tiny());
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row[4], "0", "dialect {} not clean", row[0]);
            assert_eq!(row[5], "true");
        }
    }

    #[test]
    fn e7_reservations_always_synchronize() {
        let t = e7_coallocation(tiny());
        assert_eq!(t.rows.len(), 2);
        let res_row = t.rows.iter().find(|r| r[0] == "reservations").unwrap();
        assert_eq!(res_row[2], fmt(1.0));
        assert_eq!(res_row[4], fmt(0.0));
    }

    #[test]
    fn e9_compares_adaptive_and_rigid() {
        let t = e9_flexible(tiny());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e10_ranks_the_reference_model_first() {
        let t = e10_model_fidelity(tiny());
        assert_eq!(t.rows.len(), 4); // the four rigid-job models
        assert_eq!(t.headers.len(), 9);
        let mean_ks = |row: &Vec<String>| row[8].parse::<f64>().unwrap();
        let lublin = t.rows.iter().find(|r| r[0] == "lublin99").unwrap();
        for row in t.rows.iter().filter(|r| r[0] != "lublin99") {
            assert!(
                mean_ks(lublin) <= mean_ks(row),
                "lublin99 ({}) should score no worse than {} ({})",
                lublin[8],
                row[0],
                row[8],
            );
        }
        // The joint size-runtime chi-square column stays in [0, 1].
        for row in &t.rows {
            let joint: f64 = row[7].parse().unwrap();
            assert!((0.0..=1.0).contains(&joint), "{} joint = {joint}", row[0]);
        }
        // KS columns stay in [0, 1]
        for row in &t.rows {
            for col in 1..=5 {
                let v: f64 = row[col].parse().unwrap();
                assert!((0.0..=1.0).contains(&v), "{}[{col}] = {v}", row[0]);
            }
        }
    }

    #[test]
    fn run_experiment_dispatches_every_id() {
        for id in experiment_ids() {
            if *id == "E8" {
                continue; // E8 is the full cross product; exercised in integration tests
            }
            assert!(run_experiment(id, tiny()).is_some(), "experiment {id}");
        }
        assert!(run_experiment("E99", tiny()).is_none());
    }
}
