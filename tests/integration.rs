//! Integration tests spanning the whole workspace: model → SWF → simulator →
//! metrics → experiment harness, exercised through the public facade crate.

use psbench::core::{run_experiment, Format, Scale, Scenario, WorkloadDef, WorkloadKind};
use psbench::metrics::{outcomes_from_log, AggregateMetrics};
use psbench::sched::{by_name, standard_schedulers};
use psbench::sim::{SimConfig, SimJob, Simulation};
use psbench::swf::{parse, validate, write_string};
use psbench::workload::{
    infer_dependencies, standard_models, InferenceParams, OutageGenerator, WorkloadModel,
};

fn tiny_scale() -> Scale {
    Scale {
        jobs: 100,
        sweep_points: 2,
        requests: 6,
    }
}

#[test]
fn full_pipeline_model_to_metrics() {
    // Generate → serialize → parse → simulate → analyze, for every standard model.
    for model in standard_models(64) {
        let log = model.generate(250, 4242);
        assert!(validate(&log).is_clean(), "model {}", model.name());
        let text = write_string(&log);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.jobs, log.jobs);

        let jobs = SimJob::from_log(&parsed);
        assert_eq!(jobs.len(), 250);
        let mut sched = by_name("easy", 64).unwrap();
        let result = Simulation::new(SimConfig::new(64), jobs).run(sched.as_mut());
        assert_eq!(result.finished.len(), 250, "model {}", model.name());

        let agg = result.aggregate();
        assert_eq!(agg.jobs, 250);
        assert!(agg.response_time.mean > 0.0);
        let sys = result.system();
        assert!(sys.utilization > 0.0 && sys.utilization <= 1.0);
    }
}

#[test]
fn simulated_schedule_exports_back_to_valid_swf() {
    let def = WorkloadDef::new(WorkloadKind::Jann97, 64, 200, 99);
    let result = Scenario::new("export", def, "conservative").run();
    let exported = result.to_swf();
    assert_eq!(exported.len(), 200);
    assert!(validate(&exported).is_clean());
    // The exported trace can itself feed the metrics pipeline.
    let outcomes = outcomes_from_log(&exported);
    let agg = AggregateMetrics::from_outcomes(&outcomes);
    assert_eq!(agg.jobs, 200);
}

#[test]
fn every_standard_scheduler_conserves_jobs_on_every_model() {
    for model in standard_models(64) {
        let log = model.generate(150, 7);
        let jobs = SimJob::from_log(&log);
        for sched in standard_schedulers(64).iter_mut() {
            let result = Simulation::new(SimConfig::new(64), jobs.clone()).run(sched.as_mut());
            assert_eq!(
                result.finished.len() + result.unfinished + result.discarded,
                jobs.len(),
                "model {} scheduler {}",
                model.name(),
                sched.name()
            );
            assert_eq!(
                result.unfinished,
                0,
                "model {} scheduler {}",
                model.name(),
                sched.name()
            );
        }
    }
}

#[test]
fn closed_loop_feedback_run_end_to_end() {
    let def = WorkloadDef::new(WorkloadKind::Sessions, 128, 300, 5);
    let mut closed = Scenario::new("closed", def, "easy");
    closed.closed_loop = true;
    let open = Scenario::new("open", def, "easy");
    let closed_result = closed.run();
    let open_result = open.run();
    assert_eq!(closed_result.finished.len(), 300);
    assert_eq!(open_result.finished.len(), 300);
    // The closed loop defers dependent submissions, so its trace ends no earlier.
    assert!(closed_result.end_time >= open_result.end_time * 0.5);
}

#[test]
fn dependency_inference_then_closed_loop_replay() {
    let model = psbench::workload::Lublin99::with_machine_size(64);
    let mut log = model.generate(300, 11);
    let report = infer_dependencies(&mut log, &InferenceParams::default());
    assert!(report.dependent_jobs > 0);
    assert!(validate(&log).is_clean());
    let jobs = SimJob::from_log(&log);
    let mut sched = by_name("easy", 64).unwrap();
    let result = Simulation::new(SimConfig::new(64).closed_loop(), jobs).run(sched.as_mut());
    assert_eq!(result.finished.len(), 300);
}

#[test]
fn outage_run_conserves_jobs_and_counts_lost_capacity() {
    let def = WorkloadDef::new(WorkloadKind::Lublin99, 128, 300, 13);
    let log = def.generate();
    let outages = OutageGenerator::for_machine(128).generate(log.duration() + 86_400, 13);
    let jobs = SimJob::from_log(&log);
    let mut sched = by_name("draining-easy", 128).unwrap();
    let config = SimConfig::new(128).with_outages(outages);
    let result = Simulation::new(config, jobs).run(sched.as_mut());
    assert_eq!(result.finished.len() + result.unfinished, 300);
    assert!(result.lost_node_seconds > 0.0);
}

#[test]
fn experiment_catalogue_smoke() {
    // Every experiment except the full cross-product (E8) runs at tiny scale and
    // produces a non-empty table.
    for id in psbench::core::experiment_ids() {
        if *id == "E8" {
            continue;
        }
        let table = run_experiment(id, tiny_scale()).unwrap();
        assert!(!table.rows.is_empty(), "experiment {id}");
        assert!(!table.headers.is_empty(), "experiment {id}");
        assert!(table.render(Format::Markdown).contains(&table.title));
    }
}

#[test]
fn e8_cross_product_at_reduced_scale() {
    let table = run_experiment("E8", tiny_scale()).unwrap();
    // 5 canonical workloads x 6 canonical schedulers.
    assert_eq!(table.rows.len(), 5);
    assert_eq!(table.headers.len(), 7);
    for row in &table.rows {
        assert_eq!(row.len(), 7);
    }
}

#[test]
fn fixed_seed_runs_are_byte_identical_for_every_standard_scheduler() {
    // Same seed + same workload model → byte-identical SimulationResult, run twice.
    // SimulationResult derives PartialEq over every field, so this compares the
    // full result (per-job outcomes, integrals, counters), not a summary.
    let def = WorkloadDef::new(WorkloadKind::Lublin99, 64, 150, 777);
    for sched in standard_schedulers(64) {
        let name = sched.name();
        let run = || {
            let jobs = SimJob::from_log(&def.generate());
            let mut s = by_name(name, 64).unwrap();
            Simulation::new(SimConfig::new(64), jobs).run(s.as_mut())
        };
        assert_eq!(run(), run(), "scheduler {name} is not deterministic");
    }
}

#[test]
fn sequential_and_parallel_harness_paths_agree() {
    // The work-stealing pool must return bit-identical results in input order,
    // whatever the thread count. One scenario per standard scheduler, twice over
    // (so there are more tasks than threads and stealing actually happens).
    use psbench::core::{run_all, run_all_parallel};
    let mut scenarios = Vec::new();
    for round in 0..2u64 {
        for sched in standard_schedulers(64) {
            let def = WorkloadDef::new(WorkloadKind::Jann97, 64, 120, 31 + round);
            scenarios.push(Scenario::new(
                format!("{}-{round}", sched.name()),
                def,
                sched.name(),
            ));
        }
    }
    let seq = run_all(&scenarios);
    for threads in [1, 3, 8] {
        let par = run_all_parallel(&scenarios, threads);
        assert_eq!(seq.len(), par.len());
        for ((s_a, r_a), (s_b, r_b)) in seq.iter().zip(par.iter()) {
            assert_eq!(s_a.name, s_b.name, "order changed at {threads} threads");
            assert_eq!(
                r_a, r_b,
                "scenario {} differs at {threads} threads",
                s_a.name
            );
        }
    }
}

#[test]
fn backfilling_beats_fcfs_on_the_canonical_workload() {
    // The qualitative result that motivates the whole benchmark exercise.
    let def = WorkloadDef {
        interarrival_scale: 0.5,
        ..WorkloadDef::new(WorkloadKind::Lublin99, 128, 500, 1999)
    };
    let fcfs = Scenario::new("fcfs", def, "fcfs").run();
    let easy = Scenario::new("easy", def, "easy").run();
    assert!(easy.mean_response_time() <= fcfs.mean_response_time());
    assert!(easy.system().loss_of_capacity <= fcfs.system().loss_of_capacity + 1e-9);
}

/// The standard metrics of one canonical EASY run as exact bits. How they are
/// computed may change; not one of these bits may.
fn canonical_easy_metric_bits() -> String {
    let def = WorkloadDef::new(WorkloadKind::Lublin99, 128, 2000, 7);
    let jobs = SimJob::from_log(&def.generate());
    let mut easy = by_name("easy", 128).unwrap();
    let r = Simulation::new(SimConfig::new(128), jobs).run(easy.as_mut());
    let (agg, sys) = (r.aggregate(), r.system());
    let mut out = format!(
        "jobs {}\narea_weighted_wait {:016x}\n",
        agg.jobs,
        agg.area_weighted_wait.to_bits()
    );
    for (name, s) in [
        ("wait_time", &agg.wait_time),
        ("response_time", &agg.response_time),
        ("slowdown", &agg.slowdown),
        ("bounded_slowdown", &agg.bounded_slowdown),
    ] {
        out += &format!("{name} {}", s.count);
        for v in [s.mean, s.std_dev, s.min, s.max, s.median, s.p90, s.p99] {
            out += &format!(" {:016x}", v.to_bits());
        }
        out.push('\n');
    }
    out += &format!("system {}", sys.jobs_finished);
    for v in [
        sys.makespan,
        sys.utilization,
        sys.throughput_per_hour,
        sys.loss_of_capacity,
    ] {
        out += &format!(" {:016x}", v.to_bits());
    }
    out.push('\n');
    out
}

#[test]
fn canonical_easy_run_metrics_are_pinned_bit_for_bit() {
    assert_eq!(
        canonical_easy_metric_bits(),
        "jobs 2000\n\
         area_weighted_wait 41134039ab2747d1\n\
         wait_time 2000 40f2400ce5604189 410202348551a1fd 0000000000000000 \
         4126621a00000000 40c22fc000000000 410e804000000006 41249eb4b3333333\n\
         response_time 2000 40f447b6b4395810 4102bc1574865f31 4008000000000000 \
         41278fe800000000 40cd92c000000000 4110da42ccccccd1 4125615bae147ae2\n\
         slowdown 2000 404c510da2dc36c8 406bad5990764014 3ff0000000000000 \
         40b4f62aaaaaaaab 4015c4e351d21f2e 405d0a530d55784f 408a80d82846c5e2\n\
         bounded_slowdown 2000 404a50904c6f42a8 40655e9e4cde7ec6 3ff0000000000000 \
         40a9276666666666 4015c4e351d21f2e 405d0a530d55784f 408836d8a2050197\n\
         system 2000 4140e8cb00000000 3fee202b2fa900c5 4009fd1ff518a4ff 3fa6991d412bd954\n"
    );
}

/// `fnv1a_64` of the canonical SWF text of every workload kind's log, one
/// line each, for seeds 1 and 2 and once more with interarrivals compressed
/// 1000-fold (which reorders the log and moves many submits together).
fn model_log_digests() -> String {
    use psbench::store::fnv1a_64;
    let mut out = String::new();
    for &kind in WorkloadKind::all() {
        for (seed, scale) in [(1, 1.0), (2, 1.0), (1, 0.001)] {
            let def = WorkloadDef {
                interarrival_scale: scale,
                ..WorkloadDef::new(kind, 128, 10_000, seed)
            };
            let digest = fnv1a_64(write_string(&def.generate()).as_bytes());
            out += &format!("{} {seed} {scale} {digest:016x}\n", kind.name());
        }
    }
    out
}

#[test]
fn every_model_log_is_pinned_byte_for_byte() {
    assert_eq!(
        model_log_digests(),
        "feitelson96 1 1 579d67da975c78b6\n\
         feitelson96 2 1 e9dfd8ef73afceb2\n\
         feitelson96 1 0.001 9c7fdd8f2ea5a02e\n\
         jann97 1 1 ac8bc24d4d57f1ea\n\
         jann97 2 1 7a501c9fb334acd4\n\
         jann97 1 0.001 b0ccb3961c3c4a8a\n\
         downey97 1 1 4c7951e231ba530d\n\
         downey97 2 1 8a26e170051275fc\n\
         downey97 1 0.001 550a830df753db2d\n\
         lublin99 1 1 7539fcd02eb07e61\n\
         lublin99 2 1 19489472483b9331\n\
         lublin99 1 0.001 a4431219243269d9\n\
         sessions 1 1 cb2ccde82efda84f\n\
         sessions 2 1 61566efb882fe78a\n\
         sessions 1 0.001 2b9be8c6fbf41990\n"
    );
}
