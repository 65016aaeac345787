//! `trace_outages`: the paper's core use, one standard trace through one
//! scheduler. A Lublin '99 SWF trace and its synthetic outage log run under
//! EASY on a 128-processor machine. Set-up parses both; the timed phase is
//! the simulation plus the standard metrics (`aggregate()` and `system()`).
//!
//! The outage log kills thousands of running jobs, and each kill requeues
//! into a deep backlog, so the engine's wait queue does most of the work.
//! This is the workload a fix of the requeue path should speed up.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use psbench_sched::by_name;
use psbench_sim::{EngineKind, SimConfig, SimJob, Simulation};
use psbench_store::result_fingerprint;
use psbench_swf::{write_to, OutageLog, ParseOptions, RecordIter};
use psbench_workload::{Lublin99, OutageGenerator, WorkloadModel};

use crate::spans::Spans;
use crate::{secs, simulate, EngineLayers, Iterations, Outcome, RunArgs};

const MACHINE: u32 = 128;
const JOBS: usize = 100_000;
const SCHEDULER: &str = "easy";
const TRACE: &str = "trace.swf";
const OUTAGES: &str = "outages.log";
/// Mixed into the seed of the outage log so it is not drawn from the same
/// random stream as the trace.
const OUTAGE_SEED_SALT: u64 = 0x6f75_7461_6765;

/// Write the trace and its outage log into `dir`.
pub fn generate(seed: u64, dir: &Path) -> io::Result<()> {
    let log = Lublin99::with_machine_size(MACHINE).generate(JOBS, seed);
    let mut out = BufWriter::new(File::create(dir.join(TRACE))?);
    write_to(&log, &mut out)?;
    out.flush()?;
    let horizon = log.jobs.iter().map(|j| j.submit_time).max().unwrap_or(0) + 86_400;
    let outages = OutageGenerator::for_machine(MACHINE).generate(horizon, seed ^ OUTAGE_SEED_SALT);
    fs::write(dir.join(OUTAGES), outages.write_string())
}

/// The set-up: parse the trace and its outage log.
fn load(dir: &Path) -> Result<(Vec<SimJob>, OutageLog), String> {
    let file = File::open(dir.join(TRACE)).map_err(|e| format!("{TRACE}: {e}"))?;
    let jobs = SimJob::from_source(RecordIter::new(
        BufReader::new(file),
        ParseOptions::default(),
    ))
    .map_err(|e| format!("{TRACE}: {e}"))?;
    let text = fs::read_to_string(dir.join(OUTAGES)).map_err(|e| format!("{OUTAGES}: {e}"))?;
    let outages = OutageLog::parse(&text).map_err(|e| format!("{OUTAGES}: {e}"))?;
    Ok((jobs, outages))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let mut iters = Iterations::new(args);
    let mut layers = EngineLayers::default();
    let mut first_fp = None;
    let mut kills = 0;
    let mut records = 0;
    while let Some(i) = iters.next(&mut spans)? {
        let t = Instant::now();
        let (jobs, outages) = spans.span("swf.parse", |_| load(&args.dir))?;
        let setup_s = secs(t);
        let n = jobs.len();
        records = n + outages.len();
        let mut policy = by_name(SCHEDULER, MACHINE).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let sim = Simulation::new(SimConfig::new(MACHINE).with_outages(outages), jobs);
        let result = simulate(sim, policy.as_mut(), &mut spans, &mut layers);
        let system = spans.span("metrics.aggregate", |_| {
            std::hint::black_box(result.aggregate());
            result.system()
        });
        iters.record(&spans, setup_s, n, secs(t))?;

        let fp = result_fingerprint(&result);
        let want = args.expected.or(first_fp).unwrap_or(fp);
        out.check(fp == want, || {
            format!("iteration {i}: result fingerprint {fp:016x}, expected {want:016x}")
        });
        out.check(
            result.unfinished == 0 && result.finished.len() + result.discarded == n,
            || format!("iteration {i}: not every job finished"),
        );
        out.check(
            system.utilization > 0.0 && system.utilization <= 1.0,
            || format!("iteration {i}: utilization {}", system.utilization),
        );
        first_fp.get_or_insert(fp);
        kills = result.kills;
    }
    let fp = first_fp.expect("a run has at least one iteration");

    // A seed with no recorded fingerprint is checked against the reference
    // engine, which the calendar engine must match bit for bit.
    if args.expected.is_none() {
        let (jobs, outages) = load(&args.dir)?;
        let mut policy = by_name(SCHEDULER, MACHINE).map_err(|e| e.to_string())?;
        let config = SimConfig::new(MACHINE).with_outages(outages);
        let reference =
            Simulation::with_engine(config, jobs, EngineKind::Reference).run(policy.as_mut());
        let want = result_fingerprint(&reference);
        out.check(fp == want, || {
            format!("calendar engine {fp:016x} differs from reference engine {want:016x}")
        });
    }
    eprintln!(
        "trace_outages seed {}: fingerprint {fp:016x}, {kills} kills",
        args.seed
    );

    if args.trace {
        out.set("swf.parse_ms", spans.median_ms("swf.parse"));
        out.set("swf.records", records as f64);
        out.set("metrics.aggregate_ms", spans.median_ms("metrics.aggregate"));
        layers.report(&mut out);
    }
    iters.finish(&mut out, &spans, &args.dir)?;
    Ok(out)
}
