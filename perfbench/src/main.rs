//! `perfbench` — the end-to-end and per-layer benchmark of psbench.
//!
//! Each workload runs in two processes. `gen` writes the workload's inputs
//! (trace files, outage logs, seeded session journals) from the seed; `run`
//! is the measured process: it repeats set-up and the timed phase until the
//! given number of seconds have passed, checks every output, and prints one
//! JSON result line. Generating inputs in a process of its own keeps that
//! work out of both `setup_s` and `peak_rss_mb`.
//!
//! ```text
//! perfbench gen --workload <name> --seed <n> --dir <work dir>
//! perfbench run --workload <name> --seed <n> --dir <work dir> --seconds <s> --trace <0|1>
//!               [--expected <fingerprints file>]
//! ```
//!
//! The result line gives each metric as a name and a value: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of the
//! traced run. `BENCHMARK.json` is the one list of metrics and their units;
//! `run.py` checks the names against it and adds the units.

mod calibrate;
mod fleet;
mod serve_journaled;
mod spans;
mod trace_outages;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use psbench_sim::{
    Decision, Scheduler, SchedulerContext, SchedulerEvent, Simulation, SimulationResult,
};

use spans::Spans;

/// What the measured process was asked to do.
pub struct RunArgs {
    pub seed: u64,
    pub dir: PathBuf,
    pub seconds: f64,
    pub trace: bool,
    /// The recorded result fingerprint for this workload and seed, if any.
    pub expected: Option<u64>,
}

/// Iterations per run at least, however short `--seconds` is.
const MIN_ITERS: usize = 2;

/// The iterations of one run. Each iteration sets up and then runs the timed
/// phase, so `setup_s`, `jobs_per_s` and `peak_rss_mb` are medians over the
/// same stretch of the run. The calibration kernel runs before the first
/// iteration and after each one; an iteration's times are divided by
/// the mean slowdown the kernel measured on either side of it (see
/// `calibrate`). The traced run alternates untraced and traced iterations,
/// so the tracing overhead is measured within one process.
pub struct Iterations {
    seconds: f64,
    trace: bool,
    started: Instant,
    done: usize,
    /// The kernel's slowdown measured just before the next iteration.
    slowdown_before: f64,
    slowdowns: Vec<f64>,
    setup_s: Vec<f64>,
    rates: Vec<f64>,
    wall_rates: Vec<f64>,
    traced_rates: Vec<f64>,
    peak_rss_mb: Vec<f64>,
}

impl Iterations {
    pub fn new(args: &RunArgs) -> Iterations {
        Iterations {
            seconds: args.seconds,
            trace: args.trace,
            started: Instant::now(),
            done: 0,
            slowdown_before: calibrate::slowdown(),
            slowdowns: Vec::new(),
            setup_s: Vec::new(),
            rates: Vec::new(),
            wall_rates: Vec::new(),
            traced_rates: Vec::new(),
            peak_rss_mb: Vec::new(),
        }
    }

    /// The index of the next iteration, or `None` once the run's time is up.
    /// Turns `spans` on for a traced iteration and off for an untraced one;
    /// after the last iteration a traced run keeps them on. Resets the
    /// process's peak RSS, so each iteration reads its own.
    pub fn next(&mut self, spans: &mut Spans) -> Result<Option<usize>, String> {
        if self.done >= MIN_ITERS && secs(self.started) >= self.seconds {
            spans.set_enabled(self.trace);
            return Ok(None);
        }
        spans.set_enabled(self.trace && self.done % 2 == 1);
        reset_peak_rss()?;
        Ok(Some(self.done))
    }

    /// Record the iteration just run: `setup_s` wall seconds of set-up, then
    /// `jobs` jobs through a timed phase of `phase_s` wall seconds.
    pub fn record(
        &mut self,
        spans: &Spans,
        setup_s: f64,
        jobs: usize,
        phase_s: f64,
    ) -> Result<(), String> {
        let peak = peak_rss_mb()?;
        let after = calibrate::slowdown();
        let slowdown = (self.slowdown_before + after) / 2.0;
        self.slowdown_before = after;
        let rate = jobs as f64 * slowdown / phase_s;
        if spans.enabled() {
            self.traced_rates.push(rate);
        } else {
            self.slowdowns.push(slowdown);
            self.setup_s.push(setup_s / slowdown);
            self.rates.push(rate);
            self.wall_rates.push(jobs as f64 / phase_s);
            self.peak_rss_mb.push(peak);
        }
        self.done += 1;
        Ok(())
    }

    /// Set the end-to-end metrics or, in the traced run, the tracing and host
    /// metrics, and write the spans.
    pub fn finish(self, out: &mut Outcome, spans: &Spans, dir: &Path) -> Result<(), String> {
        eprintln!(
            "perfbench: {} untraced iterations, median slowdown {:.3}, wall jobs/s {:.0}",
            self.rates.len(),
            median(self.slowdowns.clone()),
            median(self.wall_rates.clone()),
        );
        let plain = median(self.rates);
        if !self.trace {
            out.set("setup_s", median(self.setup_s));
            out.set("jobs_per_s", plain);
            out.set("peak_rss_mb", median(self.peak_rss_mb));
            return Ok(());
        }
        let traced = median(self.traced_rates);
        out.set("trace.jobs_per_s", traced);
        out.set("trace.overhead_pct", (plain / traced - 1.0) * 100.0);
        out.set("trace.spans", spans.len() as f64);
        out.set("host.slowdown", median(self.slowdowns));
        out.set("host.wall_jobs_per_s", median(self.wall_rates));
        spans
            .write(&dir.join("spans.jsonl"))
            .map_err(|e| format!("writing spans: {e}"))
    }
}

/// Operations attempted and failed, plus the metrics of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation; a failed check is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line, with every metric as `"name": value`.
    fn render(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!("\"{name}\": {value}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Median of `values` (0 for none).
pub fn median(values: Vec<f64>) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in [0, 1] of `values` (0 for none).
pub fn percentile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set size.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS through /proc/self/clear_refs: {e}"))
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// A policy wrapper that times every `react` of the policy it wraps. The
/// wrapped policy's name is passed through, so results are unchanged.
struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    busy: Duration,
    calls: u64,
    decisions: u64,
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        let t = Instant::now();
        let decisions = self.inner.react(ctx, event);
        self.busy += t.elapsed();
        self.calls += 1;
        self.decisions += decisions.len() as u64;
        decisions
    }
}

/// Totals over the traced `Simulation::run` calls of a run.
#[derive(Default)]
pub struct EngineLayers {
    runs: u32,
    run: Duration,
    react: Duration,
    react_calls: u64,
    decisions: u64,
    events: u64,
    requeues: u64,
    rejected: u64,
}

impl EngineLayers {
    /// Set the `sched.*` and `sim.*` metrics, each per simulation run.
    pub fn report(&self, out: &mut Outcome) {
        let per_run = |x: f64| x / f64::from(self.runs.max(1));
        let ms = |d: Duration| per_run(d.as_secs_f64() * 1e3);
        out.set("sched.react_ms", ms(self.react));
        out.set("sched.react_calls", per_run(self.react_calls as f64));
        out.set("sched.decisions", per_run(self.decisions as f64));
        out.set(
            "sim.engine_self_ms",
            ms(self.run.saturating_sub(self.react)),
        );
        out.set("sim.events", per_run(self.events as f64));
        out.set("sim.requeues", per_run(self.requeues as f64));
        out.set("sim.rejected_decisions", per_run(self.rejected as f64));
    }
}

/// Run `sim` under `policy`. While `spans` is on, the run gets a `sim.run`
/// span, every `react` of the policy is timed, and the run's totals are
/// added to `layers`.
pub fn simulate(
    sim: Simulation,
    policy: &mut dyn Scheduler,
    spans: &mut Spans,
    layers: &mut EngineLayers,
) -> SimulationResult {
    if !spans.enabled() {
        return sim.run(policy);
    }
    let mut timed = TimedScheduler {
        inner: policy,
        busy: Duration::ZERO,
        calls: 0,
        decisions: 0,
    };
    let t = Instant::now();
    let result = spans.span("sim.run", |_| sim.run(&mut timed));
    layers.runs += 1;
    layers.run += t.elapsed();
    layers.react += timed.busy;
    layers.react_calls += timed.calls;
    layers.decisions += timed.decisions;
    layers.events += result.events_processed;
    layers.requeues += result.kills as u64;
    layers.rejected += result.rejected_decisions as u64;
    result
}

/// Look up the recorded fingerprint of `workload` at `seed`. Lines read
/// `<workload> <seed> <16 hex digits>`; `#` starts a comment.
fn expected_fingerprint(path: &Path, workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || format!("bad line in {}: {line:?}", path.display());
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, s, fp] = fields.as_slice() else {
            return Err(bad());
        };
        if *w == workload && s.parse::<u64>().map_err(|_| bad())? == seed {
            return u64::from_str_radix(fp, 16).map(Some).map_err(|_| bad());
        }
    }
    Ok(None)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let workload = required(&args, "--workload")?;
    let seed: u64 = required(&args, "--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let dir = PathBuf::from(required(&args, "--dir")?);
    match mode {
        "gen" => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let generated = match workload {
                "trace_outages" => trace_outages::generate(seed, &dir),
                "fleet_1000" => Ok(()),
                "serve_journaled" => serve_journaled::generate(seed, &dir),
                other => return Err(format!("unknown workload {other:?}")),
            };
            generated.map_err(|e| format!("generating {workload} inputs: {e}"))
        }
        "run" => {
            let seconds: f64 = required(&args, "--seconds")?
                .parse()
                .map_err(|e| format!("bad --seconds: {e}"))?;
            let trace = match flag(&args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace {other:?} (expected 0 or 1)")),
            };
            let expected = match flag(&args, "--expected") {
                Some(path) => expected_fingerprint(Path::new(path), workload, seed)?,
                None => None,
            };
            let run = RunArgs {
                seed,
                dir,
                seconds,
                trace,
                expected,
            };
            let outcome = match workload {
                "trace_outages" => trace_outages::run(&run)?,
                "fleet_1000" => fleet::run(&run)?,
                "serve_journaled" => serve_journaled::run(&run)?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            println!("{}", outcome.render()?);
            Ok(())
        }
        other => Err(format!("unknown mode {other:?} (expected gen or run)")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
