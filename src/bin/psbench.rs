//! `psbench` — the command-line front-end of the workspace.
//!
//! Wires the full swf → workload → sim → sched → metrics → analyze pipeline
//! end to end:
//!
//! ```text
//! psbench stats    <INPUT>                  characterize a workload trace
//! psbench compare  <REFERENCE> <CANDIDATE>  score a workload against a reference (KS/EMD)
//! psbench validate <INPUT>                  check SWF conformance
//! psbench convert  --dialect <D> <RAWFILE>  convert a raw accounting log to SWF
//! psbench simulate <INPUT> [--scheduler S]  run a trace through a scheduler
//! psbench metasim  [INPUT]                  sharded multi-site metasystem simulation
//! psbench sweep    [ID...|all]              run experiments E1..E10
//! psbench sweep    grid --store <DIR>       resumable, memoized grid sweep
//! psbench store    <ls|gc|verify>           inspect / maintain an artifact store
//! psbench serve    [--addr A]               online scheduling service over TCP
//! psbench client   <ADDR> [SCRIPT]          replay a protocol script against a server
//! ```
//!
//! An `<INPUT>` is either a path to an SWF file or a model spec
//! `model:<name>` (`feitelson96`, `jann97`, `downey97`, `lublin99`,
//! `sessions`), generated with `--jobs`, `--seed` and `--machine`. Every
//! input is consumed through the streaming `JobSource` API: files parse
//! incrementally and `stats`/`compare` profile them in bounded memory, so a
//! multi-million-job archive log needs O(chunk) rather than O(log) space.
//! Reports are rendered deterministically: the same inputs produce
//! byte-identical output for any `--threads` value.
//!
//! Each subcommand takes only the flags it reads ([`COMMANDS`] lists them);
//! any other flag is a usage error.
//!
//! With `--store <DIR>`, expensive artifacts are content-addressed on disk:
//! `stats` caches workload profiles by trace fingerprint, `simulate` and
//! `sweep grid` memoize simulation results by canonical input fingerprint,
//! and `convert` ingests the converted trace. Cached artifacts decode to
//! values `==` the originals, so warm reruns render byte-identical reports.

use psbench::analyze::{render_fidelity, render_profile, FidelityReport, Format};
use psbench::core::{
    canonical_schedulers, cell_key, default_threads, fmt, profile_source_parallel, results_table,
    run_experiment, run_sweep_resumable, trace_cell_key, GridSpec, Scale, Scenario, Table,
    WorkloadDef, WorkloadKind,
};
use psbench::metasim::{
    run_metasystem, standard_shard_fleet, DispatchPolicy, MetaConfig, MetaResult, SiteOutage,
};
use psbench::sched::{by_name, scheduler_names};
use psbench::serve::{run_script_with, serve, ClockMode, ServeConfig};
use psbench::sim::{SimConfig, SimJob, Simulation, SimulationResult};
use psbench::store::{fingerprint_source, key_hex, profile_key, ArtifactKind, ArtifactStore};
use psbench::swf::{
    record_line, validate_source, ConvertOptions, Dialect, JobSource, ParseError, ParseOptions,
    RawStream, RecordIter, SourceMeta, SwfRecord,
};
use psbench::workload::GeneratedStream;
use std::cmp::Ordering;
use std::io::{BufReader, Write as _};
use std::process::ExitCode;

/// A subcommand's entry point.
type Command = fn(&Opts) -> Result<ExitCode, String>;

/// Every subcommand, its entry point, and the flags it reads (`sweep grid` is
/// a subcommand of its own). A flag outside a subcommand's list is a usage
/// error rather than silently ignored.
#[rustfmt::skip]
const COMMANDS: [(&str, Command, &str); 11] = [
    ("stats",      cmd_stats,      "--jobs --seed --machine --strict --threads --store --format --out"),
    ("compare",    cmd_compare,    "--jobs --seed --machine --strict --threads --format --out"),
    ("validate",   cmd_validate,   "--jobs --seed --machine --strict --format --out"),
    ("convert",    cmd_convert,    "--dialect --machine --strict --store --out"),
    ("simulate",   cmd_simulate,   "--jobs --seed --machine --strict --scheduler --store --format --out --result-out"),
    ("metasim",    cmd_metasim,    "--jobs --seed --machine --scheduler --sites --dispatch --epoch-len --outages --threads --store --out"),
    ("sweep",      cmd_sweep,      "--scale --format --out"),
    ("sweep grid", cmd_sweep_grid, "--models --schedulers --loads --sizes --seeds --jobs --machine --max-cells --threads --store --format --out"),
    ("store",      cmd_store,      "--store --format --out"),
    ("serve",      cmd_serve,      "--addr --mode --max-sessions --state-dir --fsync --idle-timeout --scheduler --machine --store"),
    ("client",     cmd_client,     "--retries --trace-out --report-out"),
];

/// The usage text, with the live scheduler registry, each subcommand's flags
/// and the parser's defaults folded in.
fn usage() -> String {
    let d = Opts::default();
    let flags: String = COMMANDS
        .iter()
        .map(|(name, _, flags)| format!("    {name:<11} {flags}\n"))
        .collect();
    format!(
        "\
psbench — benchmarks and standards for the evaluation of parallel job schedulers

USAGE:
    psbench <SUBCOMMAND> [ARGS] [OPTIONS]

SUBCOMMANDS:
    stats    <INPUT>                   characterize a workload (marginals, cycles, users);
                                       file inputs stream in bounded memory
    compare  <REFERENCE> <CANDIDATE>   KS/EMD/chi2/AD fidelity of a workload vs a reference trace
    validate <INPUT>                   check conformance to the SWF standard,
                                       streaming; keeps an id and a runtime per job
    convert  --dialect <D> <RAWFILE>   convert a raw accounting log to SWF, streaming
                                       (dialects: nasa-ipsc860, sdsc-paragon, ctc-sp2, lanl-cm5)
    simulate <INPUT>                   run a trace through a scheduler, report metrics
    metasim  [INPUT]                   sharded metacomputing: route one global arrival
                                       stream across --sites real engine shards under a
                                       --dispatch policy; parallel epoch advance, reports
                                       byte-identical for any --threads
    sweep    [ID ... | all]            run experiments E1..E10 (default: all)
    sweep    grid                      resumable model x scheduler x load x size x seed
                                       sweep, memoized cell by cell (requires --store)
    store    <ls | gc | verify>        list, garbage-collect, or check an artifact
                                       store (requires --store)
    serve                              run the online scheduling service: clients
                                       submit jobs, query the queue, and ask what-if
                                       questions over a newline-framed TCP protocol
    client   <ADDR> [SCRIPT]           replay a protocol script (file, or stdin when
                                       omitted) against a running server, in lockstep

INPUTS:
    Either a path to an SWF file, or `model:<name>` with <name> one of
    feitelson96, jann97, downey97, lublin99, sessions — generated on the fly
    from --jobs / --seed / --machine. Both are consumed through the streaming
    JobSource API; archive files are never materialized whole.

FLAGS EACH SUBCOMMAND TAKES (any other flag is a usage error):
{flags}
OPTIONS:
    --jobs <N>        jobs to generate for model inputs        [default: {jobs}]
    --seed <N>        RNG seed for model inputs                [default: {seed}]
    --machine <N>     machine size in processors               [default: {machine}]
    --format <F>      output format: md, csv, json             [default: {format}]
    --threads <N>     worker threads, one per hardware thread  [default: {threads}]
    --scheduler <S>   scheduler                                [default: {scheduler}]
                      one of: {schedulers}
    --dialect <D>     raw-log dialect for `convert`
    --scale <S>       experiment scale for `sweep`: quick|full [default: {scale}]
    --store <DIR>     content-addressed artifact store: caches profiles (stats),
                      memoizes results (simulate, sweep grid, metasim), ingests
                      traces (convert)
    --sites <N>       metasim: number of sites in the fleet    [default: {sites}]
    --dispatch <P>    metasim: cross-site dispatch policy      [default: {dispatch}]
                      one of: round-robin, least-pressure, affinity, reserve
    --epoch-len <S>   metasim: epoch length in seconds         [default: {epoch_len}]
    --outages <LIST>  metasim: scheduled site outages, comma-separated
                      site:start:end triples (seconds; sites count from 0)
    --models <LIST>   models for `sweep grid`, comma-separated [default: {models}]
    --schedulers <L>  schedulers for `sweep grid`              [default: {grid_schedulers}]
    --loads <LIST>    interarrival scales for `sweep grid`     [default: {loads}]
    --sizes <LIST>    machine sizes for `sweep grid`; the --machine size when omitted
    --seeds <LIST>    workload seeds for `sweep grid`          [default: {seeds}]
    --max-cells <N>   compute at most N uncached cells this run, journal them,
                      and leave the rest pending for a resume
    --out <FILE>      write the report to FILE instead of stdout
    --result-out <F>  simulate: also write the canonical encoded SimulationResult
                      to F (byte-comparable with a served session's drain payload)
    --addr <A>        serve: listen address                     [default: {addr}]
    --mode <M>        serve: session clock mode afap|real|scale:<f> [default: {mode}]
    --max-sessions <N> serve: concurrent session cap            [default: {max_sessions}]
    --state-dir <DIR> serve: write-ahead journal every session under DIR so a
                      killed server recovers them by replay on restart
    --fsync <P>       serve: journal fsync policy always|off    [default: {fsync}]
    --idle-timeout <S> serve: seconds an idle connection (or detached session)
                      is kept before timing out; 0 disables     [default: {idle_timeout}]
    --retries <N>     client: retry connect failures and busy servers N times
                      with exponential backoff                  [default: {retries}]
    --trace-out <F>   client: write the last `trace` payload to F
    --report-out <F>  client: write the last `drain` payload to F
    --strict          strict parsing / conversion
    -h, --help        print this help
",
        jobs = d.jobs,
        seed = d.seed,
        machine = d.machine,
        format = d.format.name(),
        threads = d.threads,
        scheduler = d.scheduler,
        schedulers = scheduler_names().join(", "),
        scale = d.scale,
        sites = d.sites,
        dispatch = d.dispatch,
        epoch_len = d.epoch_len,
        models = d.models,
        grid_schedulers = d.grid_schedulers,
        loads = d.loads,
        seeds = d.seeds,
        addr = d.addr,
        mode = d.mode,
        max_sessions = d.max_sessions,
        fsync = d.fsync,
        idle_timeout = d.idle_timeout,
        retries = d.retries,
    )
}

/// Parsed command-line options. Each subcommand reads the fields of the
/// flags [`COMMANDS`] lists for it; the rest keep their defaults.
struct Opts {
    positional: Vec<String>,
    jobs: usize,
    seed: u64,
    machine: u32,
    format: Format,
    threads: usize,
    scheduler: String,
    dialect: Option<String>,
    scale: String,
    store: Option<String>,
    models: String,
    grid_schedulers: String,
    loads: String,
    sizes: Option<String>,
    seeds: String,
    max_cells: Option<usize>,
    sites: usize,
    dispatch: String,
    epoch_len: f64,
    outages: Option<String>,
    out: Option<String>,
    strict: bool,
    result_out: Option<String>,
    addr: String,
    mode: String,
    max_sessions: usize,
    state_dir: Option<String>,
    fsync: String,
    idle_timeout: u64,
    retries: u32,
    trace_out: Option<String>,
    report_out: Option<String>,
}

/// The defaults: the one place each is written, which `usage` renders.
impl Default for Opts {
    fn default() -> Opts {
        Opts {
            positional: Vec::new(),
            jobs: 1000,
            seed: 1,
            machine: 128,
            format: Format::Markdown,
            threads: default_threads(),
            scheduler: "easy".to_string(),
            dialect: None,
            scale: "quick".to_string(),
            store: None,
            models: "lublin99".to_string(),
            grid_schedulers: canonical_schedulers().join(","),
            loads: "1.0".to_string(),
            sizes: None,
            seeds: "1".to_string(),
            max_cells: None,
            sites: 16,
            dispatch: "least-pressure".to_string(),
            epoch_len: 3600.0,
            outages: None,
            out: None,
            strict: false,
            result_out: None,
            addr: "127.0.0.1:7077".to_string(),
            mode: "afap".to_string(),
            max_sessions: 256,
            state_dir: None,
            fsync: "always".to_string(),
            idle_timeout: 300,
            retries: 0,
            trace_out: None,
            report_out: None,
        }
    }
}

/// Parse the arguments after subcommand `sub`, accepting only the flags that
/// subcommand reads. Returns its entry point and options.
fn parse_opts(sub: &str, args: &[String]) -> Result<(Command, Opts), String> {
    let mut opts = Opts::default();
    // Flags are told from positionals first: `sweep grid` is known by its
    // first positional, wherever the flags sit.
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strict" => flags.push((arg, None)),
            flag if flag.starts_with('-') => flags.push((arg, it.next())),
            _ => opts.positional.push(arg.clone()),
        }
    }
    let name = match (sub, opts.positional.first()) {
        ("sweep", Some(first)) if first == "grid" => "sweep grid",
        _ => sub,
    };
    let &(_, command, accepted) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| format!("unknown subcommand {sub:?}"))?;
    for (flag, value) in flags {
        if !accepted.split(' ').any(|f| f == flag) {
            return Err(format!(
                "`{name}` does not take {flag}; it takes {accepted}"
            ));
        }
        let value = || {
            value
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--jobs" => opts.jobs = num(&value()?)?,
            "--seed" => opts.seed = num(&value()?)?,
            "--machine" => opts.machine = num(&value()?)?,
            "--threads" => opts.threads = num::<usize>(&value()?)?.max(1),
            "--format" => {
                let v = value()?;
                opts.format = Format::parse(&v).ok_or_else(|| format!("unknown format {v:?}"))?;
            }
            "--scheduler" => opts.scheduler = value()?,
            "--dialect" => opts.dialect = Some(value()?),
            "--scale" => opts.scale = value()?,
            "--store" => opts.store = Some(value()?),
            "--models" => opts.models = value()?,
            "--schedulers" => opts.grid_schedulers = value()?,
            "--loads" => opts.loads = value()?,
            "--sizes" => opts.sizes = Some(value()?),
            "--seeds" => opts.seeds = value()?,
            "--max-cells" => opts.max_cells = Some(num(&value()?)?),
            "--sites" => opts.sites = num(&value()?)?,
            "--dispatch" => opts.dispatch = value()?,
            "--epoch-len" => opts.epoch_len = num(&value()?)?,
            "--outages" => opts.outages = Some(value()?),
            "--out" => opts.out = Some(value()?),
            "--result-out" => opts.result_out = Some(value()?),
            "--addr" => opts.addr = value()?,
            "--mode" => opts.mode = value()?,
            "--max-sessions" => opts.max_sessions = num::<usize>(&value()?)?.max(1),
            "--state-dir" => opts.state_dir = Some(value()?),
            "--fsync" => opts.fsync = value()?,
            "--idle-timeout" => opts.idle_timeout = num(&value()?)?,
            "--retries" => opts.retries = num(&value()?)?,
            "--trace-out" => opts.trace_out = Some(value()?),
            "--report-out" => opts.report_out = Some(value()?),
            "--strict" => opts.strict = true,
            other => unreachable!("{other} is listed in COMMANDS but never parsed"),
        }
    }
    if opts.machine == 0 {
        return Err("--machine must be at least 1 processor".to_string());
    }
    if opts.sites == 0 {
        return Err("--sites must be at least 1 site".to_string());
    }
    Ok((command, opts))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

/// Parse one comma-separated list flag, rejecting blank entries and empty lists.
fn parse_list<T>(list: &str, f: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items: Vec<T> = list
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(f)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(format!("empty list {list:?}"));
    }
    Ok(items)
}

/// The display name an input spec resolves to (model specs keep the spec,
/// files use their stem) — computable without opening the input, which the
/// store-backed paths need when they serve a cached artifact.
fn input_name(spec: &str) -> String {
    if spec.starts_with("model:") {
        spec.to_string()
    } else {
        std::path::Path::new(spec)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(spec)
            .to_string()
    }
}

/// The error for an unknown `what` called `name`, listing the `known` names.
fn unknown<'a>(what: &str, name: &str, known: impl Iterator<Item = &'a str>) -> String {
    let known: Vec<&str> = known.collect();
    format!(
        "unknown {what} {name:?}; expected one of {}",
        known.join(", ")
    )
}

/// The workload model called `name`.
fn model_kind(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::by_name(name)
        .ok_or_else(|| unknown("model", name, WorkloadKind::all().iter().map(|k| k.name())))
}

/// Resolve an input spec — `model:<name>` or a file path — into a streaming
/// [`JobSource`]: the one ingestion path every subcommand shares. Model specs
/// become lazy [`GeneratedStream`]s; files are parsed incrementally by
/// [`RecordIter`], so archive logs are never read or materialized whole.
fn open_source(spec: &str, opts: &Opts) -> Result<Box<dyn JobSource>, String> {
    if let Some(name) = spec.strip_prefix("model:") {
        let model = model_kind(name)?.model(opts.machine);
        let stream = GeneratedStream::new(model, opts.jobs, opts.seed).with_name(spec);
        return Ok(Box::new(stream));
    }
    let file = std::fs::File::open(spec).map_err(|e| format!("cannot read {spec:?}: {e}"))?;
    let parse_opts = if opts.strict {
        ParseOptions::strict()
    } else {
        ParseOptions::default()
    };
    Ok(Box::new(
        RecordIter::new(BufReader::new(file), parse_opts).with_name(input_name(spec)),
    ))
}

/// Open the artifact store named by `--store`, if any.
fn open_store(opts: &Opts) -> Result<Option<ArtifactStore>, String> {
    match &opts.store {
        Some(dir) => ArtifactStore::open(dir)
            .map(Some)
            .map_err(|e| format!("cannot open store {dir:?}: {e}")),
        None => Ok(None),
    }
}

/// Render a store I/O failure as a CLI error.
fn store_err(e: std::io::Error) -> String {
    format!("artifact store error: {e}")
}

/// Render a mid-stream parse failure of input `spec` as a CLI error.
fn stream_err(spec: &str) -> impl Fn(ParseError) -> String + '_ {
    move |e| format!("cannot parse {spec:?}: {e}")
}

/// A pass-through [`JobSource`] adapter that records the largest processor
/// count seen, so `simulate` can size the machine from a drained stream the
/// way `SwfLog::machine_size` does from a materialized log.
struct MaxProcsTap<S> {
    inner: S,
    max_procs: u32,
}

impl<S: JobSource> JobSource for MaxProcsTap<S> {
    fn meta(&self) -> &SourceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Option<Result<SwfRecord, ParseError>> {
        let rec = self.inner.next_record();
        if let Some(Ok(r)) = &rec {
            if let Some(p) = r.procs() {
                self.max_procs = self.max_procs.max(p);
            }
        }
        rec
    }
}

fn emit(opts: &Opts, content: &str) -> Result<(), String> {
    match &opts.out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path:?}: {e}"))
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

/// Profile one input through the streaming path, in bounded memory.
fn profile_input(spec: &str, opts: &Opts) -> Result<psbench::analyze::WorkloadProfile, String> {
    profile_source_parallel(open_source(spec, opts)?, opts.threads).map_err(stream_err(spec))
}

fn cmd_stats(opts: &Opts) -> Result<ExitCode, String> {
    let spec = opts
        .positional
        .first()
        .ok_or("stats expects an <INPUT> (file path or model:<name>)")?;
    // With a store, the profile is content-addressed: a first pass fingerprints
    // the input in bounded memory, then the profile is either decoded from the
    // store or computed once and published. A cached profile carries the name
    // of whatever input first produced it, so the display name is rewritten to
    // this invocation's before rendering — the rest of the profile is a pure
    // function of the trace content.
    let profile = match open_store(opts)? {
        Some(store) => {
            let fp = fingerprint_source(open_source(spec, opts)?).map_err(stream_err(spec))?;
            let key = profile_key(fp);
            match store.get_profile(key).map_err(store_err)? {
                Some(mut cached) => {
                    eprintln!("profile cache hit ({})", key_hex(key));
                    cached.name = input_name(spec);
                    cached
                }
                None => {
                    let profile = profile_input(spec, opts)?;
                    store.put_profile(key, &profile).map_err(store_err)?;
                    profile
                }
            }
        }
        None => profile_input(spec, opts)?,
    };
    emit(opts, &render_profile(&profile, opts.format))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(opts: &Opts) -> Result<ExitCode, String> {
    let [reference, candidate] = opts.positional.as_slice() else {
        return Err("compare expects exactly <REFERENCE> and <CANDIDATE> inputs".to_string());
    };
    let ref_profile = profile_input(reference, opts)?;
    let cand_profile = profile_input(candidate, opts)?;
    let report = FidelityReport::compare(&ref_profile, &cand_profile);
    emit(opts, &render_fidelity(&report, opts.format))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(opts: &Opts) -> Result<ExitCode, String> {
    let spec = opts
        .positional
        .first()
        .ok_or("validate expects an <INPUT> (file path or model:<name>)")?;
    let source = open_source(spec, opts)?;
    let name = source.meta().name.clone();
    // The per-record rules run incrementally over the stream; only the
    // minimal cross-record state (summary ids and runtimes, partial sums,
    // unresolved dependency references) is retained, so memory grows by an
    // id and a runtime per summary job, never by whole records.
    let report = validate_source(source).map_err(stream_err(spec))?;
    let mut table = Table::new(
        format!("SWF conformance — {name}"),
        &["records", "violations", "clean?"],
    );
    table.push_row(vec![
        report.records.to_string(),
        report.violations.len().to_string(),
        report.is_clean().to_string(),
    ]);
    let mut out = table.render(opts.format);
    if !report.is_clean() && opts.format != Format::Json {
        out.push('\n');
        for v in report.violations.iter().take(20) {
            out.push_str(&format!("violation: {v:?}\n"));
        }
        if report.violations.len() > 20 {
            out.push_str(&format!("... and {} more\n", report.violations.len() - 20));
        }
    }
    emit(opts, &out)?;
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn warn_skipped(skipped: usize) {
    if skipped > 0 {
        eprintln!("warning: skipped {skipped} unparseable lines");
    }
}

/// Announce an ingested trace on stderr, keeping stdout clean for the log.
fn report_ingest(outcome: &psbench::store::IngestOutcome) {
    eprintln!(
        "stored trace {} ({} records{})",
        key_hex(outcome.key),
        outcome.records,
        if outcome.deduplicated {
            ", deduplicated"
        } else {
            ""
        }
    );
}

fn cmd_convert(opts: &Opts) -> Result<ExitCode, String> {
    let spec = opts
        .positional
        .first()
        .ok_or("convert expects a <RAWFILE> path")?;
    let dialect_name = opts
        .dialect
        .as_deref()
        .ok_or("convert requires --dialect <D>")?;
    let dialect = Dialect::all()
        .iter()
        .find(|d| d.name() == dialect_name)
        .copied()
        .ok_or_else(|| {
            unknown(
                "dialect",
                dialect_name,
                Dialect::all().iter().map(|d| d.name()),
            )
        })?;
    let convert_opts = ConvertOptions {
        strict: opts.strict,
    };
    let store = open_store(opts)?;
    // Streaming conversion: the header is known up front, so raw lines flow
    // straight to clean SWF lines in bounded memory — the log is never
    // materialized, whatever its size.
    let file = std::fs::File::open(spec).map_err(|e| format!("cannot read {spec:?}: {e}"))?;
    let mut stream = RawStream::new(
        input_name(spec),
        BufReader::new(file),
        dialect,
        opts.machine,
        &convert_opts,
    );
    if let Some(store) = &store {
        // Ingest drains the stream into the store, fingerprinting as it goes;
        // the output sink is then fed from the stored artifact instead of
        // converting a second time.
        let outcome = store
            .ingest(&mut stream)
            .map_err(|e| format!("conversion failed: {e}"))?;
        warn_skipped(stream.report().skipped);
        report_ingest(&outcome);
        let stored = store.path(ArtifactKind::Trace, outcome.key);
        match &opts.out {
            Some(path) => {
                std::fs::copy(&stored, path).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            }
            None => {
                let mut file = std::fs::File::open(&stored)
                    .map_err(|e| format!("cannot reopen stored trace: {e}"))?;
                let stdout = std::io::stdout();
                std::io::copy(&mut file, &mut stdout.lock())
                    .map_err(|e| format!("cannot write to stdout: {e}"))?;
            }
        }
        return Ok(ExitCode::SUCCESS);
    }
    let header_lines = stream.meta().header.render();
    let sink: Box<dyn std::io::Write> = match &opts.out {
        Some(path) => Box::new(
            std::fs::File::create(path).map_err(|e| format!("cannot write {path:?}: {e}"))?,
        ),
        None => Box::new(std::io::stdout()),
    };
    let mut sink = std::io::BufWriter::new(sink);
    let write_err = |e: std::io::Error| format!("cannot write converted log: {e}");
    for line in header_lines {
        writeln!(sink, "{line}").map_err(write_err)?;
    }
    while let Some(rec) = stream.next_record() {
        let rec = rec.map_err(|e| format!("conversion failed: {e}"))?;
        writeln!(sink, "{}", record_line(&rec)).map_err(write_err)?;
    }
    sink.flush().map_err(write_err)?;
    warn_skipped(stream.report().skipped);
    Ok(ExitCode::SUCCESS)
}

/// Stream `spec` into the simulator with no store: jobs flow straight from
/// the source, the SWF record vector is never materialized. Returns the
/// display name, the machine size used, and the result.
fn simulate_streaming(spec: &str, opts: &Opts) -> Result<(String, u32, SimulationResult), String> {
    // The tap records the largest processor count so file inputs without a
    // MaxNodes header still get a machine size.
    let mut tap = MaxProcsTap {
        inner: open_source(spec, opts)?,
        max_procs: 0,
    };
    // Duplicate job ids in dirty archive logs are handled by
    // SimJob::from_source itself (first record kept), matching from_log.
    let jobs = SimJob::from_source(&mut tap).map_err(stream_err(spec))?;
    let name = tap.meta().name.clone();
    let machine = if spec.starts_with("model:") {
        opts.machine
    } else {
        tap.meta().header.max_nodes.unwrap_or(tap.max_procs).max(1)
    };
    let mut scheduler = by_name(&opts.scheduler, machine).map_err(|e| e.to_string())?;
    let result = Simulation::new(SimConfig::new(machine), jobs).run(scheduler.as_mut());
    Ok((name, machine, result))
}

/// Memoized simulate: key the run by its canonical input fingerprint — the
/// sweep cell key for model specs (so `sweep grid` and `simulate` share a
/// cache) or trace fingerprint × scheduler × machine for files — and serve a
/// stored result when one exists. Cache misses run the identical streaming
/// path and publish the result.
fn simulate_memoized(
    spec: &str,
    opts: &Opts,
    store: &ArtifactStore,
) -> Result<(String, u32, SimulationResult), String> {
    let (key, machine) = if spec.starts_with("model:") {
        let workload = WorkloadDef {
            kind: model_kind(spec.trim_start_matches("model:"))?,
            machine_size: opts.machine,
            jobs: opts.jobs,
            seed: opts.seed,
            interarrival_scale: 1.0,
        };
        let scenario = Scenario::new(spec, workload, &opts.scheduler);
        (cell_key(&scenario), opts.machine)
    } else {
        // Fingerprint pass: drains the file once to learn its content key and
        // machine size, sized exactly as the uncached path sizes it.
        let mut tap = MaxProcsTap {
            inner: open_source(spec, opts)?,
            max_procs: 0,
        };
        let fp = fingerprint_source(&mut tap).map_err(stream_err(spec))?;
        let machine = tap.meta().header.max_nodes.unwrap_or(tap.max_procs).max(1);
        (trace_cell_key(fp, &opts.scheduler, machine, false), machine)
    };
    by_name(&opts.scheduler, machine).map_err(|e| e.to_string())?;
    if let Some(result) = store.get_result(key).map_err(store_err)? {
        eprintln!("result cache hit ({})", key_hex(key));
        return Ok((input_name(spec), machine, result));
    }
    let (name, machine, result) = simulate_streaming(spec, opts)?;
    store.put_result(key, &result).map_err(store_err)?;
    Ok((name, machine, result))
}

fn cmd_simulate(opts: &Opts) -> Result<ExitCode, String> {
    let spec = opts
        .positional
        .first()
        .ok_or("simulate expects an <INPUT> (file path or model:<name>)")?;
    let (name, machine, result) = match open_store(opts)? {
        Some(store) => simulate_memoized(spec, opts, &store)?,
        None => simulate_streaming(spec, opts)?,
    };
    let agg = result.aggregate();
    let sys = result.system();
    let mut table = Table::new(
        format!(
            "Simulation — {name} under {} on {machine} procs",
            opts.scheduler
        ),
        &[
            "jobs",
            "mean wait [s]",
            "mean response [s]",
            "mean bounded slowdown",
            "utilization",
            "loss of capacity",
        ],
    );
    table.push_row(vec![
        agg.jobs.to_string(),
        fmt(agg.wait_time.mean),
        fmt(agg.response_time.mean),
        fmt(agg.bounded_slowdown.mean),
        fmt(sys.utilization),
        fmt(sys.loss_of_capacity),
    ]);
    emit(opts, &table.render(opts.format))?;
    if let Some(path) = &opts.result_out {
        std::fs::write(path, psbench::store::encode_result(&result))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Parse the `--outages` list: comma-separated `site:start:end` triples, each
/// naming one of the fleet's `sites` sites.
fn parse_outage_list(list: &str, sites: usize) -> Result<Vec<SiteOutage>, String> {
    parse_list(list, |item| {
        let parts: Vec<&str> = item.split(':').collect();
        let [site, start, end] = parts.as_slice() else {
            return Err(format!("bad outage {item:?}; expected site:start:end"));
        };
        let outage = SiteOutage {
            site: num(site)?,
            start: num(start)?,
            end: num(end)?,
        };
        let well_ordered = outage.end.partial_cmp(&outage.start) == Some(Ordering::Greater);
        if !well_ordered {
            return Err(format!("outage {item:?} must end after it starts"));
        }
        if outage.site as usize >= sites {
            return Err(format!(
                "--outages names site {}, but the fleet has {sites} sites (0 to {})",
                outage.site,
                sites - 1
            ));
        }
        Ok(outage)
    })
}

/// `psbench metasim`: route one global arrival stream across a fleet of
/// engine shards under a cross-site dispatch policy. The input must be a
/// model spec (`model:<name>`, default `model:lublin99`); its interarrivals
/// are compressed by `1/--sites` so the offered load scales with the fleet.
/// With `--store`, runs are memoized under the canonical
/// (workload, fleet, dispatch, config) cell key and warm reruns render
/// byte-identical reports. Timing (the stream's generation and the run
/// itself) goes to stderr, never into the report.
fn cmd_metasim(opts: &Opts) -> Result<ExitCode, String> {
    let default_spec = "model:lublin99".to_string();
    let spec = opts.positional.first().unwrap_or(&default_spec);
    let name = spec
        .strip_prefix("model:")
        .ok_or("metasim expects a model input (model:<name>)")?;
    let kind = model_kind(name)?;
    let dispatch = DispatchPolicy::parse(&opts.dispatch).ok_or_else(|| {
        let known = DispatchPolicy::all().iter().map(|p| p.name());
        unknown("dispatch policy", &opts.dispatch, known)
    })?;
    if !opts.epoch_len.is_finite() || opts.epoch_len <= 0.0 {
        return Err("--epoch-len must be positive and finite".to_string());
    }
    let specs = standard_shard_fleet(opts.sites, &opts.scheduler);
    by_name(&opts.scheduler, opts.machine).map_err(|e| e.to_string())?;
    let outages = match &opts.outages {
        Some(list) => parse_outage_list(list, specs.len())?,
        None => Vec::new(),
    };
    let cfg = MetaConfig::new(dispatch)
        .with_epoch_len(opts.epoch_len)
        .with_threads(opts.threads)
        .with_outages(outages);

    // One global arrival stream, compressed so offered load tracks fleet
    // size: a 16-site metasystem sees 16x the arrival rate of one machine.
    let workload = WorkloadDef {
        kind,
        machine_size: opts.machine,
        jobs: opts.jobs,
        seed: opts.seed,
        interarrival_scale: 1.0 / opts.sites as f64,
    };
    let run = || -> Result<MetaResult, String> {
        let started = std::time::Instant::now();
        let mut jobs = SimJob::from_log(&workload.generate());
        let generated = started.elapsed().as_secs_f64();
        // The metasystem routes an open-loop stream of unique ids below the
        // migration band; model streams satisfy this after renumbering.
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = i as u64 + 1;
            job.preceding = None;
            job.think_time = 0.0;
        }
        let started = std::time::Instant::now();
        let meta = run_metasystem(&specs, &jobs, &cfg).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed().as_secs_f64();
        eprintln!(
            "metasim: {} sites x {} jobs under {} in {elapsed:.3}s ({:.0} events/sec, {} threads); \
             stream generated in {generated:.3}s",
            specs.len(),
            jobs.len(),
            cfg.dispatch.name(),
            meta.result.events_processed as f64 / elapsed.max(1e-9),
            cfg.threads,
        );
        Ok(meta)
    };
    // The workload coordinate also pins the generator's machine size; the
    // interarrival scale is derived from the fleet size, which the specs
    // already key.
    let workload_name = format!("{spec}:m{}", opts.machine);
    let key = MetaResult::cell_key(&workload_name, opts.jobs, opts.seed, &specs, &cfg);
    let meta = match open_store(opts)? {
        Some(store) => match store.get_meta(key).map_err(store_err)? {
            Some(summary) => {
                eprintln!("metasim cache hit ({})", key_hex(key));
                MetaResult::from_summary(summary)
            }
            None => {
                let meta = run()?;
                store.put_meta(key, &meta.to_summary()).map_err(store_err)?;
                meta
            }
        },
        None => run()?,
    };
    emit(opts, &meta.render_report())?;
    Ok(ExitCode::SUCCESS)
}

/// SIGTERM observation for `psbench serve`: a handler flips a flag; the
/// serve loop polls it and shuts down cleanly (checkpoint + stop). Declared
/// by hand to keep the workspace dependency-free.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Install the SIGTERM handler. Safe to call once at serve startup.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    /// True once SIGTERM has been received.
    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term_signal {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

/// `psbench serve`: run the online scheduling service until killed. SIGTERM
/// triggers a clean shutdown: every session journal is checkpointed (fsynced)
/// before the process exits, so `--state-dir` sessions resume seamlessly.
fn cmd_serve(opts: &Opts) -> Result<ExitCode, String> {
    let mode = ClockMode::parse(&opts.mode).ok_or_else(|| {
        format!(
            "unknown mode {:?}; expected afap, real, or scale:<f>",
            opts.mode
        )
    })?;
    // Validate the scheduler up front with the standard registry error.
    by_name(&opts.scheduler, opts.machine).map_err(|e| e.to_string())?;
    if let Some(dir) = &opts.store {
        // Fail fast on an unusable store rather than on the first drain.
        ArtifactStore::open(dir).map_err(store_err)?;
    }
    let fsync = psbench::store::FsyncPolicy::parse(&opts.fsync).ok_or_else(|| {
        format!(
            "unknown --fsync policy {:?}; expected always|off",
            opts.fsync
        )
    })?;
    let config = ServeConfig {
        scheduler: opts.scheduler.clone(),
        machine: opts.machine,
        mode,
        store_dir: opts.store.as_ref().map(std::path::PathBuf::from),
        max_sessions: opts.max_sessions,
        state_dir: opts.state_dir.as_ref().map(std::path::PathBuf::from),
        fsync,
        idle_timeout: match opts.idle_timeout {
            0 => None,
            secs => Some(std::time::Duration::from_secs(secs)),
        },
    };
    let addr = opts.addr.as_str();
    term_signal::install();
    let handle = serve(addr, config).map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    if handle.poisoned_sessions() > 0 {
        eprintln!(
            "warning: {} session journal(s) failed recovery; attaching to them reports the error",
            handle.poisoned_sessions()
        );
    }
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    // Serve until killed; on SIGTERM, checkpoint journals and exit cleanly.
    while !term_signal::received() {
        std::thread::park_timeout(std::time::Duration::from_millis(200));
    }
    let synced = handle
        .checkpoint()
        .map_err(|e| format!("checkpoint on shutdown: {e}"))?;
    handle.stop();
    println!("sigterm: checkpointed {synced} session journal(s), exiting");
    Ok(ExitCode::SUCCESS)
}

/// `psbench client`: replay a protocol script in lockstep and echo replies.
fn cmd_client(opts: &Opts) -> Result<ExitCode, String> {
    let addr = opts
        .positional
        .first()
        .ok_or("client expects an <ADDR> (host:port)")?;
    let script = match opts.positional.get(1) {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read script {path:?}: {e}"))?,
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read script from stdin: {e}"))?;
            buf
        }
    };
    let lines: Vec<&str> = script.lines().collect();
    let transcript = run_script_with(addr.as_str(), &lines, opts.retries)
        .map_err(|e| format!("client {addr}: {e}"))?;
    for reply in &transcript.replies {
        println!("{reply}");
    }
    if let Some(path) = &opts.trace_out {
        let payload = transcript
            .payload("trace")
            .ok_or("--trace-out given but the script never ran `trace`")?;
        std::fs::write(path, &payload.body).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    if let Some(path) = &opts.report_out {
        let payload = transcript
            .payload("drain")
            .ok_or("--report-out given but the script never ran `drain`")?;
        std::fs::write(path, &payload.body).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(if transcript.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `psbench sweep grid`: a resumable model × scheduler × load × size × seed
/// sweep, memoized cell by cell in the artifact store. Cells whose results
/// are already stored are decoded instead of recomputed; every completed
/// cell is journaled durably, so a killed sweep (or one capped with
/// `--max-cells`) resumes with zero recomputation and renders byte-identical
/// reports.
fn cmd_sweep_grid(opts: &Opts) -> Result<ExitCode, String> {
    let store = open_store(opts)?
        .ok_or("sweep grid requires --store <DIR> for its memoized results and journal")?;
    let models = parse_list(&opts.models, |t| {
        WorkloadKind::by_name(t).ok_or_else(|| format!("unknown model {t:?}"))
    })?;
    let schedulers = parse_list(&opts.grid_schedulers, |t| Ok(t.to_string()))?;
    let loads = parse_list(&opts.loads, num::<f64>)?;
    if loads.iter().any(|l| !l.is_finite() || *l <= 0.0) {
        return Err("--loads entries must be positive and finite".to_string());
    }
    let machine_sizes = match &opts.sizes {
        Some(list) => parse_list(list, num::<u32>)?,
        None => vec![opts.machine],
    };
    if machine_sizes.contains(&0) {
        return Err("--sizes entries must be at least 1 processor".to_string());
    }
    let seeds = parse_list(&opts.seeds, num::<u64>)?;
    // Scenario::run panics on unknown schedulers (it runs on pool workers),
    // so the whole line-up is validated up front.
    for s in &schedulers {
        by_name(s, machine_sizes[0]).map_err(|e| e.to_string())?;
    }
    let grid = GridSpec {
        models,
        schedulers,
        loads,
        machine_sizes,
        seeds,
        jobs: opts.jobs,
    };
    let cells = grid.enumerate();
    let outcome = run_sweep_resumable("grid", &cells, &store, opts.threads, opts.max_cells)
        .map_err(store_err)?;
    eprintln!(
        "sweep grid: {} cells, {} cached, {} computed, {} pending",
        cells.len(),
        outcome.cached,
        outcome.computed,
        outcome.pending
    );
    emit(
        opts,
        &results_table("Grid sweep", &outcome.results).render(opts.format),
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(opts: &Opts) -> Result<ExitCode, String> {
    let scale = match opts.scale.as_str() {
        "quick" => Scale::quick(),
        "full" => Scale::full(),
        other => return Err(format!("unknown scale {other:?}; expected quick or full")),
    };
    let ids: Vec<String> =
        if opts.positional.is_empty() || opts.positional.iter().any(|p| p == "all") {
            psbench::core::experiment_ids()
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            opts.positional.clone()
        };
    // JSON output is one document: an array with one object per experiment.
    let mut out = String::new();
    if opts.format == Format::Json {
        out.push('[');
    }
    for (i, id) in ids.iter().enumerate() {
        let table =
            run_experiment(id, scale).ok_or_else(|| format!("unknown experiment {id:?}"))?;
        if i > 0 {
            out.push(if opts.format == Format::Json {
                ','
            } else {
                '\n'
            });
        }
        out.push_str(&table.render(opts.format));
        if opts.format != Format::Json {
            out.push('\n');
        }
    }
    if opts.format == Format::Json {
        out.push(']');
    }
    emit(opts, &out)?;
    Ok(ExitCode::SUCCESS)
}

/// `psbench store <ls|gc|verify>`: inspect or maintain an artifact store.
fn cmd_store(opts: &Opts) -> Result<ExitCode, String> {
    let action = opts
        .positional
        .first()
        .ok_or("store expects an action: ls, gc, or verify")?;
    let store = open_store(opts)?.ok_or("store commands require --store <DIR>")?;
    match action.as_str() {
        "ls" => {
            let entries = store.ls().map_err(store_err)?;
            let mut table = Table::new(
                format!("Artifact store — {}", store.root().display()),
                &["kind", "key", "bytes"],
            );
            for e in &entries {
                table.push_row(vec![
                    e.kind.to_string(),
                    key_hex(e.key),
                    e.bytes.to_string(),
                ]);
            }
            emit(opts, &table.render(opts.format))?;
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let report = store.gc().map_err(store_err)?;
            emit(
                opts,
                &format!(
                    "gc: removed {} files ({} bytes), kept {} artifacts\n",
                    report.removed, report.reclaimed_bytes, report.kept
                ),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let report = store.verify().map_err(store_err)?;
            let mut out = format!(
                "verify: {} artifacts ok, {} problems\n",
                report.ok,
                report.problems.len()
            );
            for p in &report.problems {
                out.push_str(&format!("problem: {p}\n"));
            }
            emit(opts, &out)?;
            Ok(if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!(
            "unknown store action {other:?}; expected ls, gc, or verify"
        )),
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else {
        return Err(String::new());
    };
    if args.iter().any(|a| a == "-h" || a == "--help") || sub == "help" {
        print!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let (command, opts) = parse_opts(sub, &args[1..])?;
    command(&opts)
}

fn main() -> ExitCode {
    // Seeded fault injection (PSBENCH_FAULTS=seed=…,err=…,short=…,kill=…)
    // threads deterministic I/O faults through store and journal writes —
    // the test harness for crash-safety. A bad spec is a startup error, not
    // a silent no-op.
    match psbench::store::fault::install_from_env() {
        Ok(None) => {}
        Ok(Some(_)) => eprintln!(
            "warning: fault injection active ({} is set); expect injected I/O errors",
            psbench::store::fault::FAULTS_ENV
        ),
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    match run() {
        Ok(code) => code,
        Err(msg) => {
            if msg.is_empty() {
                eprint!("{}", usage());
            } else {
                eprintln!("error: {msg}");
                eprintln!("run `psbench --help` for usage");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_flag_is_parsed() {
        // A flag listed in COMMANDS but missing from the parser's match
        // would panic here instead of reaching its subcommand.
        for (name, _, flags) in COMMANDS {
            let mut words = name.split(' ');
            let sub = words.next().unwrap();
            for flag in flags.split(' ') {
                let args: Vec<String> =
                    words.clone().chain([flag, "1"]).map(String::from).collect();
                let parsed = parse_opts(sub, &args).map(|_| ());
                // `--format 1` names no format; every other value parses.
                assert!(
                    parsed.is_ok() || flag == "--format",
                    "{name} {flag}: {parsed:?}"
                );
            }
        }
        let foreign = parse_opts("sweep", &["grid".into(), "--scale".into(), "full".into()]);
        assert!(foreign.is_err_and(|e| e.starts_with("`sweep grid` does not take --scale")));
    }
}
