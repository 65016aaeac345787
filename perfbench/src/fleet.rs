//! `fleet_1000`: a 1,000-site metasystem fed one 100k-job Lublin '99 stream. Each
//! site is an EASY shard; least-pressure dispatch routes the stream; the
//! epoch loop runs on the harness pool at one worker per CPU the process may
//! use (one in the untraced run, which `run.py` pins to a CPU; every CPU in
//! the traced run, which times the pool against its serial twin). Set-up
//! generates the stream; the timed phase is `run_metasystem` plus
//! `render_report`.
//!
//! The epoch loop and the pool do most of the work and nothing is requeued,
//! so a queue fix must leave this workload unchanged while an epoch-loop fix
//! must show here.

use std::time::Instant;

use psbench_core::{WorkloadDef, WorkloadKind};
use psbench_harness::default_threads;
use psbench_metasim::{run_metasystem, standard_shard_fleet, DispatchPolicy, MetaConfig};
use psbench_sim::SimJob;

use crate::spans::Spans;
use crate::{secs, Iterations, Outcome, RunArgs};

const SITES: usize = 1000;
const JOBS: usize = 100_000;

/// The set-up: the stream `psbench metasim` routes. The Lublin '99 model on
/// a 128-processor reference machine, interarrivals compressed by the site
/// count, renumbered onto unique ids.
fn stream(seed: u64) -> Vec<SimJob> {
    let def = WorkloadDef {
        interarrival_scale: 1.0 / SITES as f64,
        ..WorkloadDef::new(WorkloadKind::Lublin99, 128, JOBS, seed)
    };
    let mut jobs = SimJob::from_log(&def.generate());
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64 + 1;
        job.preceding = None;
        job.think_time = 0.0;
    }
    jobs
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let mut iters = Iterations::new(args);
    let specs = standard_shard_fleet(SITES, "easy");
    let threads = default_threads();
    let cfg = MetaConfig::new(DispatchPolicy::LeastPressure).with_threads(threads);
    let mut jobs = Vec::new();
    let mut first_fp = None;
    while let Some(i) = iters.next(&mut spans)? {
        // The last iteration's stream goes first, so two streams never count
        // toward peak RSS together.
        drop(std::mem::take(&mut jobs));
        let t = Instant::now();
        jobs = spans.span("workload.generate", |_| stream(args.seed));
        let setup_s = secs(t);
        let t = Instant::now();
        let meta = spans.span("metasim.run", |_| run_metasystem(&specs, &jobs, &cfg));
        let meta = meta.map_err(|e| e.to_string())?;
        let report = spans.span("metrics.report", |_| meta.render_report());
        iters.record(&spans, setup_s, jobs.len(), secs(t))?;

        let fp = meta.fingerprint();
        let want = args.expected.or(first_fp).unwrap_or(fp);
        out.check(fp == want, || {
            format!("iteration {i}: fleet fingerprint {fp:016x}, expected {want:016x}")
        });
        out.check(
            meta.result.unfinished == 0 && meta.result.finished.len() == jobs.len(),
            || format!("iteration {i}: not every job finished"),
        );
        out.check(
            report.contains(&format!("fingerprint: {fp:016x}\n")),
            || format!("iteration {i}: report does not carry the fingerprint"),
        );
        first_fp.get_or_insert(fp);
        if spans.enabled() {
            let r = &meta.result;
            out.set("metasim.epochs", meta.epochs as f64);
            out.set("metasim.dispatched", meta.dispatched as f64);
            out.set("metasim.migrations", meta.migrations as f64);
            out.set("sim.events", r.events_processed as f64);
            out.set("sim.requeues", r.kills as f64);
            out.set("sim.rejected_decisions", r.rejected_decisions as f64);
        }
    }
    let fp = first_fp.expect("a run has at least one iteration");

    // The serial twin must match the parallel run byte for byte. The traced
    // run always times it; an untraced run needs it only as the oracle of a
    // seed with no recorded fingerprint.
    if args.trace || args.expected.is_none() {
        let serial_cfg = cfg.clone().with_threads(1);
        let twin = spans.span("metasim.serial", |_| {
            run_metasystem(&specs, &jobs, &serial_cfg)
        });
        let twin = twin.map_err(|e| e.to_string())?.fingerprint();
        out.check(twin == fp, || {
            format!("serial twin {twin:016x} differs from {threads}-thread run {fp:016x}")
        });
    }
    eprintln!(
        "fleet_1000 seed {}: fingerprint {fp:016x}, {threads} threads",
        args.seed
    );

    if args.trace {
        let run_ms = spans.median_ms("metasim.run");
        let serial_ms = spans.median_ms("metasim.serial");
        out.set("workload.generate_ms", spans.median_ms("workload.generate"));
        out.set("metasim.run_ms", run_ms);
        out.set("metasim.serial_ms", serial_ms);
        out.set("harness.threads", threads as f64);
        out.set("harness.speedup", serial_ms / run_ms);
        out.set("metrics.report_ms", spans.median_ms("metrics.report"));
    }
    iters.finish(&mut out, &spans, &args.dir)?;
    Ok(out)
}
