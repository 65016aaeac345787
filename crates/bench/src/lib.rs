//! The `bench` snapshot harness.
//!
//! `bench sim|meta|sweep` measures one suite of deterministic rows and
//! writes a machine-readable snapshot; the committed `BENCH_sim.json`,
//! `BENCH_meta.json` and `BENCH_sweep.json` are such snapshots, and CI
//! re-measures each at the quick scale and diffs it against its baseline.
//! Every suite shares one row schema and one drift rule:
//!
//! * a changed **fingerprint**, or a measured row missing from the baseline,
//!   is an error (exit 1) — results are machine-independent, so a mismatch
//!   is a behavior change that must be acknowledged by regenerating the
//!   baseline;
//! * **wall time** more than 20% above the baseline only warns — absolute
//!   speed varies across machines;
//! * a baseline row the run did not measure warns, but only when the
//!   baseline was taken at the run's scale: a quick run measures a subset of
//!   a full baseline by design.
//!
//! A suite supplies only its row ids for a scale and a function measuring
//! one id into a row; it builds a row's inputs only when that row is
//! measured, so one row's workload is in memory at a time.
//!
//! ```text
//! bench sim|meta|sweep [--scale quick|full] [--repeat N] [--out FILE] [--baseline FILE]
//! ```

use psbench_analyze::report::{json_escape, json_num};
use std::time::Instant;

mod meta;
mod sim;
mod sweep;
#[cfg(test)]
mod tests;

const USAGE: &str =
    "usage: bench sim|meta|sweep [--scale quick|full] [--repeat N] [--out FILE] [--baseline FILE]";

/// One measured row of a snapshot.
#[derive(Debug, PartialEq)]
struct Row {
    /// Stable row name; the key baselines are compared on.
    id: String,
    /// Machine-independent digest of the row's result.
    fingerprint: String,
    /// Best wall time over the repeats, in milliseconds.
    wall_ms: f64,
    /// Informational columns, never compared: `(name, value as JSON text)`.
    info: Vec<(&'static str, String)>,
}

/// How much of a suite to measure; quick rows are a subset of full rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Quick,
    Full,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// A snapshot suite: its row ids at a scale, and how to measure one id
/// (`id, scale, repeat`) into a row.
struct Suite {
    name: &'static str,
    ids: fn(Scale) -> Vec<String>,
    measure: fn(&str, Scale, usize) -> Row,
}

const SUITES: [Suite; 3] = [
    Suite {
        name: "sim",
        ids: sim::ids,
        measure: sim::measure,
    },
    Suite {
        name: "meta",
        ids: meta::ids,
        measure: meta::measure,
    },
    Suite {
        name: "sweep",
        ids: sweep::ids,
        measure: sweep::measure,
    },
];

/// Run `setup` and then time `run` on its output, `repeat` times; returns the
/// last result and the best wall time in milliseconds.
fn best_of<I, T>(
    repeat: usize,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> T,
) -> (T, f64) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeat {
        // Free the previous result first: one run's output in memory at a time.
        drop(last.take());
        let input = setup();
        let t0 = Instant::now();
        last = Some(run(input));
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("the parser rejects --repeat 0"), best_ms)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

fn per_sec(count: u64, wall_ms: f64) -> String {
    json_num((count as f64 / (wall_ms / 1e3).max(1e-9)).round())
}

struct Args {
    suite: &'static Suite,
    scale: Scale,
    repeat: usize,
    out: Option<String>,
    baseline: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let suite = it.next().ok_or("missing suite")?;
    let suite = (SUITES.iter())
        .find(|s| s.name == suite)
        .ok_or(format!("unknown suite `{suite}`"))?;
    let mut parsed = Args {
        suite,
        scale: Scale::Quick,
        repeat: 1,
        out: None,
        baseline: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                parsed.scale = [Scale::Quick, Scale::Full]
                    .into_iter()
                    .find(|s| s.name() == v)
                    .ok_or(format!("unknown scale `{v}`"))?;
            }
            "--repeat" => {
                let v = value()?;
                parsed.repeat = (v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or(format!("--repeat needs a positive integer, not `{v}`"))?;
            }
            "--out" => parsed.out = Some(value()?),
            "--baseline" => parsed.baseline = Some(value()?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

/// Render a snapshot: one row per line, `id`, `fingerprint` and `wall_ms`
/// first, so [`read`] can stay line-oriented.
fn render(suite: &Suite, scale: Scale, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\n  \"version\": 2,\n  \"suite\": \"{}\",\n  \"scale\": \"{}\",\n  \"rows\": [\n",
        suite.name,
        scale.name()
    );
    for (i, r) in rows.iter().enumerate() {
        out += &format!(
            "    {{\"id\": {}, \"fingerprint\": {}, \"wall_ms\": {}",
            json_str(&r.id),
            json_str(&r.fingerprint),
            json_num((r.wall_ms * 1000.0).round() / 1000.0)
        );
        for (k, v) in &r.info {
            out += &format!(", \"{k}\": {v}");
        }
        out += if i + 1 == rows.len() { "}\n" } else { "},\n" };
    }
    out + "  ]\n}\n"
}

/// The text of `"key": value` on one snapshot line, up to the next `,` or
/// `}`, unquoted. Ids, fingerprints and scales hold neither character, and
/// a row line leads with its compared fields, so an informational string
/// column cannot shadow them.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let value = &line[start..];
    let end = value.find([',', '}']).unwrap_or(value.len());
    Some(value[..end].trim().trim_matches('"'))
}

/// Read a baseline back: its scale and its rows, without their
/// informational columns.
fn read(text: &str) -> (String, Vec<Row>) {
    let (mut scale, mut rows) = (String::new(), Vec::new());
    for line in text.lines() {
        if let Some(id) = field(line, "id") {
            rows.push(Row {
                id: id.to_string(),
                fingerprint: field(line, "fingerprint").unwrap_or_default().to_string(),
                wall_ms: (field(line, "wall_ms").and_then(|v| v.parse().ok())).unwrap_or(0.0),
                info: Vec::new(),
            });
        } else if let Some(s) = field(line, "scale") {
            scale = s.to_string();
        }
    }
    (scale, rows)
}

/// The drift rule: the `(errors, warnings)` of a run at `scale` against a
/// baseline taken at `base_scale`.
fn compare(
    base_scale: &str,
    base: &[Row],
    scale: Scale,
    rows: &[Row],
) -> (Vec<String>, Vec<String>) {
    let (mut errors, mut warnings) = (Vec::new(), Vec::new());
    for r in rows {
        match base.iter().find(|b| b.id == r.id) {
            None => errors.push(format!(
                "`{}` is measured but missing from the baseline; regenerate it",
                r.id
            )),
            Some(b) if b.fingerprint != r.fingerprint => errors.push(format!(
                "`{}` result drift: fingerprint {} -> {}",
                r.id, b.fingerprint, r.fingerprint
            )),
            Some(b) if b.wall_ms > 0.0 && r.wall_ms > 1.2 * b.wall_ms => warnings.push(format!(
                "`{}` wall time grew >20%: {:.1} ms (baseline {:.1} ms)",
                r.id, r.wall_ms, b.wall_ms
            )),
            Some(_) => {}
        }
    }
    if base_scale == scale.name() {
        for b in base {
            if !rows.iter().any(|r| r.id == b.id) {
                warnings.push(format!("baseline row `{}` no longer measured", b.id));
            }
        }
    }
    (errors, warnings)
}

/// Run the `bench` command line (arguments after the program name). Returns
/// the exit code: 0 clean, 1 result drift or an unreadable/unwritable file,
/// 2 bad arguments.
pub fn run(args: &[String]) -> u8 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return 2;
        }
    };
    // Read the baseline before measuring, so `--out` may overwrite it.
    let baseline = match &args.baseline {
        None => None,
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => Some((p, read(&text))),
            Err(e) => {
                eprintln!("bench: cannot read baseline {p}: {e}");
                return 1;
            }
        },
    };
    let (suite, scale) = (args.suite, args.scale);
    let rows: Vec<Row> = ((suite.ids)(scale).iter())
        .map(|id| {
            let row = (suite.measure)(id, scale, args.repeat);
            println!(
                "{:<36} {} {:>10.1} ms",
                row.id, row.fingerprint, row.wall_ms
            );
            row
        })
        .collect();
    let json = render(suite, scale, &rows);
    match &args.out {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &json) {
                eprintln!("bench: cannot write {p}: {e}");
                return 1;
            }
            println!("wrote {p}");
        }
        None => print!("{json}"),
    }
    let Some((p, (base_scale, base))) = baseline else {
        return 0;
    };
    let (errors, warnings) = compare(&base_scale, &base, scale, &rows);
    for e in &errors {
        println!("::error::bench {}: {e}", suite.name);
    }
    for w in &warnings {
        println!("::warning::bench {}: {w}", suite.name);
    }
    let (e, w) = (errors.len(), warnings.len());
    println!("baseline {p}: {e} result drift(s), {w} warning(s)");
    u8::from(e > 0)
}
