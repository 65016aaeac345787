//! Deterministic rendering of profiles, fidelity reports and report tables.
//!
//! Markdown for humans, CSV for spreadsheets, JSON for tooling. All numbers
//! are formatted with fixed rules from the exact accumulator state, so two
//! runs over the same trace — sequential or parallel, any thread count —
//! produce byte-identical output.

use crate::distance::FidelityReport;
use crate::profile::WorkloadProfile;
use crate::sketch::MarginalSketch;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Output format of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// GitHub-flavoured markdown tables.
    #[default]
    Markdown,
    /// Comma-separated values, one table per section separated by blank lines.
    Csv,
    /// A single JSON object.
    Json,
}

impl Format {
    /// Parse a format name (`md` / `markdown`, `csv`, `json`).
    pub fn parse(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "md" | "markdown" => Some(Format::Markdown),
            "csv" => Some(Format::Csv),
            "json" => Some(Format::Json),
            _ => None,
        }
    }

    /// The short name [`Format::parse`] reads back: `md`, `csv` or `json`.
    pub fn name(self) -> &'static str {
        match self {
            Format::Markdown => "md",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

/// Format a float for tables: more fractional digits for smaller magnitudes.
/// This is the workspace's single table-number rule — the experiment
/// harness's `fmt` delegates here.
pub fn fmt_num(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// A report table: a title, column headers, and string rows. Every table the
/// workspace prints renders through it: the sections of a profile or
/// fidelity report, the experiment tables `psbench sweep` prints and
/// `bench sweep` fingerprints, and the CLI's own tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Table {
    /// Table title (experiment id and description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Render as a GitHub-flavoured markdown table under a `###` title, as
    /// CSV (headers first, no title), or as one JSON object
    /// `{"title":…,"headers":[…],"rows":[[…],…]}` of strings.
    pub fn render(&self, format: Format) -> String {
        let mut out = String::new();
        match format {
            Format::Markdown => {
                let _ = writeln!(out, "### {}\n", self.title);
                let _ = writeln!(out, "| {} |", self.headers.join(" | "));
                let _ = writeln!(out, "|{}|", vec!["---"; self.headers.len()].join("|"));
                for row in &self.rows {
                    let _ = writeln!(out, "| {} |", row.join(" | "));
                }
            }
            Format::Csv => {
                let _ = writeln!(out, "{}", self.headers.join(","));
                for row in &self.rows {
                    let _ = writeln!(out, "{}", row.join(","));
                }
            }
            Format::Json => {
                let strings = |cells: &[String]| {
                    let quoted: Vec<String> = cells
                        .iter()
                        .map(|c| format!("\"{}\"", json_escape(c)))
                        .collect();
                    quoted.join(",")
                };
                let rows: Vec<String> = self
                    .rows
                    .iter()
                    .map(|r| format!("[{}]", strings(r)))
                    .collect();
                let _ = write!(
                    out,
                    "{{\"title\":\"{}\",\"headers\":[{}],\"rows\":[{}]}}",
                    json_escape(&self.title),
                    strings(&self.headers),
                    rows.join(",")
                );
            }
        }
        out
    }
}

/// The markdown or CSV form of a multi-table report: each table followed by
/// a blank line.
fn render_sections(tables: &[Table], format: Format) -> String {
    tables.iter().map(|t| t.render(format) + "\n").collect()
}

/// Escape a string for inclusion in a JSON document (quotes, backslashes,
/// and all control characters per RFC 8259).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite float as a JSON number (six fractional digits, trailing
/// zeros trimmed), falling back to 0 for non-finite values.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

fn marginal_row(name: &str, unit: &str, m: &MarginalSketch) -> Vec<String> {
    if m.count() == 0 {
        return vec![
            name.to_string(),
            unit.to_string(),
            "0".to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ];
    }
    vec![
        name.to_string(),
        unit.to_string(),
        m.count().to_string(),
        fmt_num(m.moments.mean()),
        fmt_num(m.moments.cv()),
        m.moments.min.to_string(),
        fmt_num(m.histogram.quantile(0.5)),
        fmt_num(m.histogram.quantile(0.95)),
        m.moments.max.to_string(),
    ]
}

fn marginals_of(p: &WorkloadProfile) -> [(&'static str, &'static str, &MarginalSketch); 4] {
    [
        ("interarrival", "s", &p.interarrival),
        ("runtime", "s", &p.runtime),
        ("size", "procs", &p.size),
        ("accuracy", "per-mille", &p.accuracy),
    ]
}

/// Arrival-cycle counts joined by `sep`.
fn joined(counts: &[u64], sep: &str) -> String {
    let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
    counts.join(sep)
}

fn profile_tables(p: &WorkloadProfile) -> Vec<Table> {
    let overview = Table {
        rows: vec![
            vec!["jobs".into(), p.jobs.to_string()],
            vec!["submit span [s]".into(), p.submit_span().to_string()],
            vec!["users".into(), p.users().to_string()],
            vec!["groups".into(), p.groups().to_string()],
            vec![
                "size-runtime correlation".into(),
                fmt_num(p.size_runtime.pearson()),
            ],
        ],
        ..Table::new(
            format!("Workload profile — {}", p.name),
            &["property", "value"],
        )
    };
    let marginals = Table {
        rows: marginals_of(p)
            .iter()
            .map(|(n, u, m)| marginal_row(n, u, m))
            .collect(),
        ..Table::new(
            "Marginal distributions",
            &[
                "marginal", "unit", "count", "mean", "cv", "min", "p50", "p95", "max",
            ],
        )
    };
    let cycles = Table {
        rows: vec![
            vec!["hour-of-day".into(), joined(&p.diurnal, " ")],
            vec!["day-of-week".into(), joined(&p.weekly, " ")],
        ],
        ..Table::new("Arrival cycles (submit counts)", &["cycle", "counts"])
    };
    let top = Table {
        rows: p
            .top_users(10)
            .iter()
            .map(|(u, s)| {
                vec![
                    u.to_string(),
                    s.jobs.to_string(),
                    s.area.to_string(),
                    fmt_num(s.runtime.mean()),
                ]
            })
            .collect(),
        ..Table::new(
            "Heaviest users",
            &["user", "jobs", "area [proc-s]", "mean runtime [s]"],
        )
    };
    vec![overview, marginals, cycles, top]
}

fn profile_json(p: &WorkloadProfile) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"jobs\":{},\"submit_span_s\":{},\"users\":{},\"groups\":{},\"size_runtime_correlation\":{},\"marginals\":{{",
        json_escape(&p.name),
        p.jobs,
        p.submit_span(),
        p.users(),
        p.groups(),
        json_num(p.size_runtime.pearson()),
    );
    for (i, (name, unit, m)) in marginals_of(p).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"unit\":\"{}\",\"count\":{},\"mean\":{},\"cv\":{},\"min\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
            name,
            unit,
            m.count(),
            json_num(m.moments.mean()),
            json_num(m.moments.cv()),
            if m.count() == 0 { 0 } else { m.moments.min },
            json_num(m.histogram.quantile(0.5)),
            json_num(m.histogram.quantile(0.95)),
            if m.count() == 0 { 0 } else { m.moments.max },
        );
    }
    let _ = write!(
        out,
        "}},\"diurnal\":[{}],\"weekly\":[{}],\"top_users\":[",
        joined(&p.diurnal, ","),
        joined(&p.weekly, ",")
    );
    for (i, (u, s)) in p.top_users(10).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"user\":{},\"jobs\":{},\"area\":{},\"mean_runtime\":{}}}",
            u,
            s.jobs,
            s.area,
            json_num(s.runtime.mean())
        );
    }
    out.push_str("]}");
    out
}

/// Render a workload profile in the requested format.
pub fn render_profile(p: &WorkloadProfile, format: Format) -> String {
    match format {
        Format::Json => profile_json(p),
        _ => render_sections(&profile_tables(p), format),
    }
}

fn fidelity_table(r: &FidelityReport) -> Table {
    let mut rows: Vec<Vec<String>> = r
        .marginals
        .iter()
        .map(|m| {
            vec![
                m.marginal.clone(),
                m.unit.to_string(),
                fmt_num(m.ks),
                fmt_num(m.emd),
                fmt_num(m.chi2),
                fmt_num(m.ad),
            ]
        })
        .collect();
    // The joint size × runtime view: only the chi-square column applies (it
    // is a 2-D distribution), and it stays out of the per-marginal means.
    rows.push(vec![
        "size-runtime (joint)".into(),
        "procs x s".into(),
        "-".into(),
        "-".into(),
        fmt_num(r.joint_size_runtime),
        "-".into(),
    ]);
    rows.push(vec![
        "mean".into(),
        "-".into(),
        fmt_num(r.mean_ks()),
        "-".into(),
        fmt_num(r.mean_chi2()),
        fmt_num(r.mean_ad()),
    ]);
    Table {
        rows,
        ..Table::new(
            format!(
                "Model fidelity — {} vs {} ({} / {} jobs)",
                r.candidate, r.reference, r.jobs.1, r.jobs.0
            ),
            &["marginal", "unit", "KS", "EMD", "chi2", "AD"],
        )
    }
}

fn fidelity_json(r: &FidelityReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"reference\":\"{}\",\"candidate\":\"{}\",\"jobs\":[{},{}],\"marginals\":[",
        json_escape(&r.reference),
        json_escape(&r.candidate),
        r.jobs.0,
        r.jobs.1
    );
    for (i, m) in r.marginals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"marginal\":\"{}\",\"unit\":\"{}\",\"ks\":{},\"emd\":{},\"chi2\":{},\"ad\":{}}}",
            json_escape(&m.marginal),
            m.unit,
            json_num(m.ks),
            json_num(m.emd),
            json_num(m.chi2),
            json_num(m.ad)
        );
    }
    let _ = write!(
        out,
        "],\"joint_size_runtime_chi2\":{},\"mean_ks\":{},\"max_ks\":{},\"mean_chi2\":{},\"mean_ad\":{}}}",
        json_num(r.joint_size_runtime),
        json_num(r.mean_ks()),
        json_num(r.max_ks()),
        json_num(r.mean_chi2()),
        json_num(r.mean_ad())
    );
    out
}

/// Render a fidelity report in the requested format.
pub fn render_fidelity(r: &FidelityReport, format: Format) -> String {
    match format {
        Format::Json => fidelity_json(r),
        _ => render_sections(&[fidelity_table(r)], format),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::FidelityReport;
    use psbench_workload::{Lublin99, WorkloadModel};

    fn profile() -> WorkloadProfile {
        WorkloadProfile::of_log("lublin99", &Lublin99::default().generate(300, 5))
    }

    #[test]
    fn table_renders_markdown_csv_and_json() {
        let mut t = Table::new("demo \"t\"", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["3".into(), "4".into()]);
        assert_eq!(
            t.render(Format::Markdown),
            "### demo \"t\"\n\n| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n"
        );
        assert_eq!(t.render(Format::Csv), "a,b\n1,2\n3,4\n");
        assert_eq!(
            t.render(Format::Json),
            r#"{"title":"demo \"t\"","headers":["a","b"],"rows":[["1","2"],["3","4"]]}"#
        );
        let empty = Table::new("e", &[]);
        assert_eq!(
            empty.render(Format::Json),
            r#"{"title":"e","headers":[],"rows":[]}"#
        );
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("md"), Some(Format::Markdown));
        assert_eq!(Format::parse("Markdown"), Some(Format::Markdown));
        assert_eq!(Format::parse("CSV"), Some(Format::Csv));
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("yaml"), None);
        for f in [Format::Markdown, Format::Csv, Format::Json] {
            assert_eq!(Format::parse(f.name()), Some(f));
        }
    }

    #[test]
    fn markdown_profile_has_all_sections() {
        let md = render_profile(&profile(), Format::Markdown);
        assert!(md.contains("Workload profile — lublin99"));
        assert!(md.contains("| interarrival |"));
        assert!(md.contains("hour-of-day"));
        assert!(md.contains("Heaviest users"));
    }

    #[test]
    fn csv_profile_is_tabular() {
        let csv = render_profile(&profile(), Format::Csv);
        assert!(csv.contains("marginal,unit,count,mean,cv,min,p50,p95,max"));
        assert!(csv.lines().any(|l| l.starts_with("runtime,s,300,")));
    }

    #[test]
    fn json_profile_is_well_formed_enough() {
        let json = render_profile(&profile(), Format::Json);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"jobs\":300"));
        assert!(json.contains("\"diurnal\":["));
        // every quote is balanced; crude but catches broken escaping
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn fidelity_rendering_round_trip() {
        let p = profile();
        let q = WorkloadProfile::of_log("other", &Lublin99::default().generate(300, 6));
        let r = FidelityReport::compare(&p, &q);
        let md = render_fidelity(&r, Format::Markdown);
        assert!(md.contains("Model fidelity — other vs lublin99"));
        assert!(md.contains("| interarrival |"));
        assert!(md.contains("| mean |"));
        let json = render_fidelity(&r, Format::Json);
        assert!(json.contains("\"mean_ks\":"));
        let csv = render_fidelity(&r, Format::Csv);
        assert!(csv.starts_with("marginal,unit,KS,EMD"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let p = profile();
        for f in [Format::Markdown, Format::Csv, Format::Json] {
            assert_eq!(render_profile(&p, f), render_profile(&p, f));
        }
    }

    #[test]
    fn json_num_trims_and_handles_specials() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(2.0), "2");
        assert_eq!(json_num(0.0), "0");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(-0.25), "-0.25");
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
