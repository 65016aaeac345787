//! End-to-end tests of the `psbench` binary: every subcommand, plus the
//! acceptance property that reports are byte-identical between sequential
//! (`--threads 1`) and parallel analysis runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn psbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psbench"))
        .args(args)
        .output()
        .expect("psbench binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = psbench(args);
    assert!(
        out.status.success(),
        "psbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// A scratch file path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("psbench-cli-{}-{name}", std::process::id()));
    p
}

/// Write a reference trace to disk through the library, for file-input tests.
fn write_reference_trace(name: &str, jobs: usize, seed: u64) -> PathBuf {
    use psbench::workload::{Lublin99, WorkloadModel};
    let log = Lublin99::default().generate(jobs, seed);
    let path = scratch(name);
    std::fs::write(&path, psbench::swf::write_string(&log)).unwrap();
    path
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = psbench(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "stats", "compare", "validate", "convert", "simulate", "sweep",
    ] {
        assert!(text.contains(sub), "usage should mention {sub}");
    }
}

#[test]
fn no_args_is_a_usage_error() {
    let out = psbench(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = psbench(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn zero_machine_size_is_a_usage_error_not_a_panic() {
    let out = psbench(&["stats", "model:lublin99", "--machine", "0", "--jobs", "50"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machine"));
}

#[test]
fn non_finite_epoch_length_is_a_usage_error_not_a_panic() {
    for len in ["NaN", "inf"] {
        let out = psbench(&[
            "metasim",
            "model:lublin99",
            "--sites",
            "2",
            "--jobs",
            "200",
            "--epoch-len",
            len,
        ]);
        assert_eq!(out.status.code(), Some(2), "--epoch-len {len}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--epoch-len"));
    }
}

#[test]
fn metasim_outages_and_sites_outside_the_fleet_are_usage_errors() {
    let base = ["metasim", "--sites", "2", "--jobs", "2000"];
    for site in ["5", "2"] {
        let outage = format!("{site}:100:100000");
        let out = psbench(&[&base[..], &["--outages", &outage]].concat());
        assert_eq!(out.status.code(), Some(2), "--outages {outage}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("--outages names site {site}, but the fleet has 2 sites");
        assert!(stderr.contains(&message), "{stderr}");
        assert!(out.stdout.is_empty(), "--outages {outage} ran anyway");
    }
    let out = psbench(&["metasim", "--sites", "0", "--jobs", "2000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sites"));
    assert!(out.stdout.is_empty(), "--sites 0 ran anyway");
    // An outage of a site in the fleet still takes effect.
    let report = stdout_of(&[&base[..], &["--outages", "1:100:100000"]].concat());
    assert!(
        report.lines().any(|l| l == "fingerprint: 94e3b0cfa79f3fd9"),
        "{report}"
    );
}

#[test]
fn stats_is_deterministic_across_runs_and_thread_counts() {
    let base = ["stats", "model:lublin99", "--jobs", "800", "--seed", "7"];
    let a = stdout_of(&base);
    let b = stdout_of(&base);
    assert_eq!(a, b, "two identical runs must match byte for byte");
    let seq = stdout_of(&[&base[..], &["--threads", "1"]].concat());
    let par = stdout_of(&[&base[..], &["--threads", "8"]].concat());
    assert_eq!(seq, par, "sequential and parallel analysis must match");
    assert!(a.contains("Workload profile — model:lublin99"));
    assert!(a.contains("| interarrival |"));
}

#[test]
fn stats_reads_swf_files_and_all_formats_render() {
    let path = write_reference_trace("stats.swf", 300, 42);
    let p = path.to_str().unwrap();
    let md = stdout_of(&["stats", p]);
    assert!(md.contains("| runtime | s | 300 |"));
    let csv = stdout_of(&["stats", p, "--format", "csv"]);
    assert!(csv.contains("marginal,unit,count"));
    let json = stdout_of(&["stats", p, "--format", "json"]);
    assert!(json.contains("\"jobs\":300"));
    std::fs::remove_file(path).ok();
}

#[test]
fn compare_scores_lublin99_against_a_reference_trace() {
    // The acceptance scenario: a Lublin99-generated workload scored against a
    // reference trace, KS/EMD per marginal, byte-identical seq vs par.
    let path = write_reference_trace("ref.swf", 600, 424_242);
    let p = path.to_str().unwrap();
    let base = [
        "compare",
        p,
        "model:lublin99",
        "--jobs",
        "600",
        "--seed",
        "58",
    ];
    let seq = stdout_of(&[&base[..], &["--threads", "1"]].concat());
    let par = stdout_of(&[&base[..], &["--threads", "8"]].concat());
    assert_eq!(
        seq, par,
        "fidelity report must be byte-identical between sequential and parallel runs"
    );
    for marginal in ["interarrival", "runtime", "size", "accuracy", "diurnal"] {
        assert!(
            seq.contains(&format!("| {marginal} |")),
            "missing {marginal}"
        );
    }
    // Same model, different seed: the fidelity score should be small.
    let json = stdout_of(&[&base[..], &["--format", "json"]].concat());
    let mean_ks: f64 = json
        .split("\"mean_ks\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (0.0..0.25).contains(&mean_ks),
        "same-model mean KS should be small, got {mean_ks}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn stats_streaming_and_materialized_paths_are_byte_identical() {
    // The acceptance property of the JobSource redesign: the CLI's
    // bounded-memory streaming pipeline can never disagree with the
    // sequential profile of the materialized log, for file and model inputs,
    // in every format, at any thread count.
    use psbench::analyze::{render_profile, Format, WorkloadProfile};
    use psbench::swf::JobSource;
    let path = write_reference_trace("stream-vs-mat.swf", 700, 99);
    let p = path.to_str().unwrap();
    let file_log = psbench::swf::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let stem = path.file_stem().unwrap().to_str().unwrap();
    let model = psbench::core::WorkloadKind::Lublin99.model(128);
    let model_log = psbench::workload::GeneratedStream::new(model, 700, 99)
        .collect_log()
        .unwrap();
    for (input, name, log) in [
        (p, stem, &file_log),
        ("model:lublin99", "model:lublin99", &model_log),
    ] {
        let materialized = WorkloadProfile::of_log(name, log);
        for format in ["md", "csv", "json"] {
            let expected = render_profile(&materialized, Format::parse(format).unwrap());
            for threads in ["1", "6"] {
                let base = [
                    "stats",
                    input,
                    "--jobs",
                    "700",
                    "--seed",
                    "99",
                    "--format",
                    format,
                    "--threads",
                    threads,
                ];
                assert_eq!(
                    stdout_of(&base),
                    expected,
                    "paths diverge for {input} / {format} / {threads} threads"
                );
            }
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_a_usage_error() {
    let store = scratch("unused-store");
    let store = store.to_str().unwrap();
    // Each case: the arguments, and the one flag its subcommand does not read.
    let cases: [(&[&str], &str); 8] = [
        (&["simulate", "model:lublin99", "--sites", "9"], "--sites"),
        (
            &["metasim", "model:lublin99", "--format", "json"],
            "--format",
        ),
        (&["sweep", "E3", "--threads", "3"], "--threads"),
        (
            &[
                "compare",
                "model:lublin99",
                "model:jann97",
                "--store",
                store,
            ],
            "--store",
        ),
        (&["client", "127.0.0.1:9", "--jobs", "5"], "--jobs"),
        (
            &["stats", "model:lublin99", "--materialize"],
            "--materialize",
        ),
        (
            &["validate", "model:lublin99", "--materialize"],
            "--materialize",
        ),
        (
            &[
                "convert",
                "--dialect",
                "nasa-ipsc860",
                "raw.log",
                "--materialize",
            ],
            "--materialize",
        ),
    ];
    for (args, flag) in cases {
        let out = psbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("`{}` does not take {flag}", args[0]);
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    assert!(
        !std::path::Path::new(store).exists(),
        "compare must not create the store"
    );
    // `sweep grid` is its own subcommand, with its own flags.
    let grid = psbench(&["sweep", "grid", "--scale", "full"]);
    assert_eq!(grid.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&grid.stderr);
    assert!(
        stderr.contains("`sweep grid` does not take --scale"),
        "{stderr}"
    );
}

#[test]
fn unknown_scheduler_error_lists_valid_names() {
    let out = psbench(&[
        "simulate",
        "model:lublin99",
        "--jobs",
        "20",
        "--scheduler",
        "bogus",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scheduler \"bogus\""), "{stderr}");
    for name in ["fcfs", "easy", "conservative", "gang", "draining-easy"] {
        assert!(stderr.contains(name), "error should list {name}: {stderr}");
    }
    // --help surfaces the same registry.
    let help = stdout_of(&["--help"]);
    assert!(help.contains("draining-easy"));
}

#[test]
fn compare_reports_chi2_and_ad_columns() {
    let md = stdout_of(&["compare", "model:lublin99", "model:jann97", "--jobs", "400"]);
    assert!(
        md.contains("| marginal | unit | KS | EMD | chi2 | AD |"),
        "{md}"
    );
    let json = stdout_of(&[
        "compare",
        "model:lublin99",
        "model:jann97",
        "--jobs",
        "400",
        "--format",
        "json",
    ]);
    assert!(json.contains("\"chi2\":"));
    assert!(json.contains("\"mean_ad\":"));
}

#[test]
fn validate_passes_clean_logs_and_fails_broken_ones() {
    let ok = psbench(&["validate", "model:jann97", "--jobs", "120"]);
    assert!(ok.status.success());

    // A log violating the standard: first submit nonzero, ids not 1..n.
    let path = scratch("broken.swf");
    std::fs::write(
        &path,
        ";MaxNodes: 64\n7 100 0 50 4 -1 -1 4 60 -1 1 1 1 1 1 1 -1 -1\n",
    )
    .unwrap();
    let bad = psbench(&["validate", path.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("violation:"));
    std::fs::remove_file(path).ok();
}

#[test]
fn validate_names_the_line_that_is_not_utf8() {
    let path = scratch("not-utf8.swf");
    std::fs::write(
        &path,
        b"1 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n\xff\n",
    )
    .unwrap();
    let out = psbench(&["validate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{}\": line 2: invalid UTF-8", path.display())),
        "{stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn validate_names_a_line_too_long_to_read() {
    // ~100 KB and no newline: the reader stops at its line cap.
    let path = scratch("no-newline.swf");
    std::fs::write(&path, "1 ".repeat(50_000)).unwrap();
    let out = psbench(&["validate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "{}\": line 1: longer than 65536 bytes",
            path.display()
        )),
        "{stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn convert_emits_swf_that_validates() {
    let raw = scratch("raw.log");
    std::fs::write(
        &raw,
        "1 alice cfd 32 1000 1010 600 ok\n2 bob qcd 64 1100 1200 1200 ok\n",
    )
    .unwrap();
    let swf_out = scratch("converted.swf");
    let out = psbench(&[
        "convert",
        "--dialect",
        "nasa-ipsc860",
        raw.to_str().unwrap(),
        "--machine",
        "128",
        "--out",
        swf_out.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let ok = psbench(&["validate", swf_out.to_str().unwrap()]);
    assert!(ok.status.success(), "converted output should be clean SWF");
    let unknown = psbench(&["convert", "--dialect", "vax", raw.to_str().unwrap()]);
    assert_eq!(unknown.status.code(), Some(2));
    std::fs::remove_file(raw).ok();
    std::fs::remove_file(swf_out).ok();
}

#[test]
fn simulate_reports_scheduler_metrics() {
    let md = stdout_of(&[
        "simulate",
        "model:lublin99",
        "--jobs",
        "150",
        "--scheduler",
        "easy",
    ]);
    assert!(md.contains("Simulation — model:lublin99 under easy"));
    assert!(md.contains("| 150 |"));
    let bad = psbench(&["simulate", "model:lublin99", "--scheduler", "no-such"]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn sweep_runs_the_fidelity_experiment() {
    // Uses quick scale; E10 alone keeps the test fast.
    let md = stdout_of(&["sweep", "E10"]);
    assert!(md.contains("E10 — model fidelity"));
    for model in ["feitelson96", "jann97", "downey97", "lublin99"] {
        assert!(md.contains(model), "sweep output should mention {model}");
    }
    let bad = psbench(&["sweep", "E99"]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn sweep_json_is_one_document() {
    // Multiple experiments in JSON format must form a single parseable array,
    // not concatenated objects.
    let json = stdout_of(&["sweep", "E3", "E10", "--format", "json"]);
    assert!(json.starts_with('[') && json.ends_with(']'), "not an array");
    assert_eq!(json.matches("\"title\":").count(), 2);
    assert!(json.contains("},{"), "objects must be comma-separated");
    assert_eq!(json.matches('"').count() % 2, 0);
}

/// Spawn `psbench serve` on an ephemeral port and return (child, addr).
/// The child is killed by the caller.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_psbench"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn psbench serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_session_drain_matches_offline_simulate_byte_for_byte() {
    let store = scratch("serve-store");
    std::fs::create_dir_all(&store).unwrap();
    let (mut child, addr) = spawn_serve(&[
        "--scheduler",
        "easy",
        "--machine",
        "64",
        "--store",
        store.to_str().unwrap(),
    ]);

    // A scripted session, including interleaved what-if queries.
    let script_path = scratch("serve-script.txt");
    let mut script = String::from("hello psbench-serve/1\n");
    let mut t = 0;
    for id in 1..=40 {
        t += (id * 7) % 23;
        let runtime = 30 + (id * 13) % 400;
        let procs = 1 + (id * 5) % 64;
        script.push_str(&format!(
            "submit id={id} submit={t} runtime={runtime} procs={procs}\n"
        ));
        if id % 11 == 4 {
            script.push_str(&format!("whatif {id} under conservative\n"));
        }
    }
    script.push_str("trace\ndrain\nbye\n");
    std::fs::write(&script_path, script).unwrap();

    let trace_path = scratch("serve-trace.swf");
    let report_path = scratch("serve-report.txt");
    let out = psbench(&[
        "client",
        &addr,
        script_path.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--report-out",
        report_path.to_str().unwrap(),
    ]);
    child.kill().ok();
    child.wait().ok();
    assert!(
        out.status.success(),
        "client failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = String::from_utf8_lossy(&out.stdout);
    assert!(replies.contains("ok whatif"), "{replies}");

    // Offline leg: simulate the exported trace and compare encoded results
    // byte for byte.
    let offline_path = scratch("serve-offline.txt");
    stdout_of(&[
        "simulate",
        trace_path.to_str().unwrap(),
        "--scheduler",
        "easy",
        "--result-out",
        offline_path.to_str().unwrap(),
    ]);
    let online = std::fs::read(&report_path).unwrap();
    let offline = std::fs::read(&offline_path).unwrap();
    assert!(!online.is_empty());
    assert_eq!(online, offline, "online drain != offline simulate");

    // The drained session was published under the offline cell key, so a
    // store-backed simulate of the exported trace is a cache hit...
    let warm = psbench(&[
        "simulate",
        trace_path.to_str().unwrap(),
        "--scheduler",
        "easy",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(warm.status.success());
    assert!(
        String::from_utf8_lossy(&warm.stderr).contains("result cache hit"),
        "expected a cache hit from the published session"
    );
    // ...and the store passes verification.
    let verify = stdout_of(&["store", "verify", "--store", store.to_str().unwrap()]);
    assert!(verify.contains("0 problems"), "{verify}");

    std::fs::remove_dir_all(&store).ok();
    for p in [&script_path, &trace_path, &report_path, &offline_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn client_surfaces_protocol_errors_in_exit_code() {
    let (mut child, addr) = spawn_serve(&["--scheduler", "fcfs", "--machine", "8"]);
    let script_path = scratch("serve-bad-script.txt");
    std::fs::write(
        &script_path,
        "hello psbench-serve/1\nsubmit id=1 runtime=oops procs=2\nbye\n",
    )
    .unwrap();
    let out = psbench(&["client", &addr, script_path.to_str().unwrap()]);
    child.kill().ok();
    child.wait().ok();
    assert_eq!(
        out.status.code(),
        Some(1),
        "err replies should fail the client"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("err "));
    std::fs::remove_file(&script_path).ok();
}
