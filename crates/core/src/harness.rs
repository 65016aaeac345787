//! The experiment harness: run scenario sweeps (optionally in parallel) and render
//! result tables.

use crate::suite::Scenario;
use psbench_analyze::WorkloadProfile;
use psbench_sim::SimulationResult;
use psbench_swf::{JobSource, ParseError, SwfRecord};

// Every experiment renders into the report `Table`, so `psbench sweep` and
// `bench sweep` print and fingerprint the same thing. It lives beside its
// formats in the analyze crate; re-exported here so existing callers keep
// their import paths.
pub use psbench_analyze::{Format, Table};

/// Format a float for tables: more fractional digits for smaller magnitudes.
/// One rule for the whole workspace — this delegates to the analyze crate's
/// formatter so experiment tables and trace reports can never drift apart.
pub fn fmt(v: f64) -> String {
    psbench_analyze::fmt_num(v)
}

// The pool itself lives in the `psbench-harness` leaf crate so the metasystem
// shard loop (`psbench_metasim::epoch`) can share it without a dependency
// cycle; re-exported here so existing callers keep their import paths.
pub use psbench_harness::{default_threads, parallel_map, parallel_map_mut};

/// Run a batch of scenarios on a work-stealing pool of `threads` scoped
/// threads (one runs them in turn on the caller's thread); results come back
/// in input order.
///
/// Every scenario carries its own workload seed, so a run is a pure function
/// of the scenario and the results are bit-identical for any thread count.
pub fn run_all_parallel(
    scenarios: &[Scenario],
    threads: usize,
) -> Vec<(Scenario, SimulationResult)> {
    parallel_map(scenarios.len(), threads, |i| {
        (scenarios[i].clone(), scenarios[i].run())
    })
}

/// Number of records buffered per streamed block by
/// [`profile_source_parallel`]: the peak record storage of a streaming
/// analysis, regardless of trace length.
pub const PROFILE_BLOCK_LEN: usize = 65_536;

/// Characterize a streaming [`JobSource`] on `threads` worker threads with
/// peak record storage bounded by [`PROFILE_BLOCK_LEN`].
///
/// Records are pulled from the source into a reused block buffer; each block
/// is cut into contiguous chunks (a few per thread, so long chunks balance),
/// the chunks are profiled independently on the [`parallel_map`] pool, and
/// the chunk profiles are folded in input order. A multi-million-job archive
/// log therefore profiles in O([`PROFILE_BLOCK_LEN`]) memory instead of
/// O(log).
///
/// The analyze sketches keep integer-exact, associatively-mergeable state and
/// the merge re-adds the interarrival gap at every block and chunk boundary,
/// so the result — and any report rendered from it — is **bit-identical** to
/// the sequential single pass `WorkloadProfile::of_source` for any thread
/// count and any block length.
pub fn profile_source_parallel<S: JobSource>(
    mut source: S,
    threads: usize,
) -> Result<WorkloadProfile, ParseError> {
    let threads = threads.max(1);
    if threads == 1 {
        return WorkloadProfile::of_source(source);
    }
    let name = source.meta().name.clone();
    let mut whole = WorkloadProfile::named(&name);
    let mut block: Vec<SwfRecord> = Vec::with_capacity(PROFILE_BLOCK_LEN.min(4096));
    loop {
        block.clear();
        while block.len() < PROFILE_BLOCK_LEN {
            match source.next_record() {
                Some(Ok(rec)) => block.push(rec),
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        if block.is_empty() {
            break;
        }
        let n = block.len();
        let chunks = (threads * 4).min(n);
        let bounds: Vec<(usize, usize)> = (0..chunks)
            .map(|c| (c * n / chunks, (c + 1) * n / chunks))
            .collect();
        let block_ref = &block;
        let parts = parallel_map(chunks, threads, |c| {
            let (start, end) = bounds[c];
            WorkloadProfile::of_records(&name, &block_ref[start..end])
        });
        for part in &parts {
            whole.merge(part);
        }
        if n < PROFILE_BLOCK_LEN {
            break;
        }
    }
    Ok(whole)
}

/// Build a comparison table (one row per scenario) from a set of results.
pub fn results_table(title: &str, results: &[(Scenario, SimulationResult)]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "scenario",
            "scheduler",
            "jobs",
            "mean wait [s]",
            "mean response [s]",
            "mean bounded slowdown",
            "utilization",
            "loss of capacity",
        ],
    );
    for (scenario, result) in results {
        let agg = result.aggregate();
        let sys = result.system();
        table.push_row(vec![
            scenario.name.clone(),
            result.scheduler.clone(),
            agg.jobs.to_string(),
            fmt(agg.wait_time.mean),
            fmt(agg.response_time.mean),
            fmt(agg.bounded_slowdown.mean),
            fmt(sys.utilization),
            fmt(sys.loss_of_capacity),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{WorkloadDef, WorkloadKind};
    use psbench_analyze::render_profile;

    fn small_scenarios() -> Vec<Scenario> {
        let def = WorkloadDef::new(WorkloadKind::Lublin99, 64, 80, 5);
        vec![
            Scenario::new("fcfs", def, "fcfs"),
            Scenario::new("easy", def, "easy"),
            Scenario::new("conservative", def, "conservative"),
        ]
    }

    #[test]
    fn table_rendering() {
        // The report table callers reach through this module's re-export.
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["3".into(), "4".into()]);
        let md = t.render(Format::Markdown);
        assert!(md.contains("### demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        let csv = t.render(Format::Csv);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,b"));
    }

    #[test]
    fn fmt_scales_precision() {
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.25), "42.2");
        assert_eq!(fmt(1.23456), "1.235");
    }

    #[test]
    fn sequential_and_parallel_runs_agree() {
        let scenarios = small_scenarios();
        let seq = run_all_parallel(&scenarios, 1);
        let par = run_all_parallel(&scenarios, 3);
        assert_eq!(seq.len(), par.len());
        for ((s_a, r_a), (s_b, r_b)) in seq.iter().zip(par.iter()) {
            assert_eq!(s_a.name, s_b.name);
            // Determinism: identical seeds and jobs, so identical outcomes.
            assert_eq!(r_a.finished, r_b.finished);
        }
    }

    #[test]
    fn parallel_profile_is_bit_identical_to_sequential() {
        let def = WorkloadDef::new(WorkloadKind::Lublin99, 64, 300, 77);
        let log = def.generate();
        let seq = profile_source_parallel(log.as_source("w"), 1).unwrap();
        for threads in [2, 3, 8, 64] {
            let par = profile_source_parallel(log.as_source("w"), threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
        // ... and the rendered report is byte-identical, too.
        let par = profile_source_parallel(log.as_source("w"), 4).unwrap();
        assert_eq!(
            render_profile(&par, Format::Markdown),
            render_profile(&seq, Format::Markdown),
        );
    }

    #[test]
    fn streamed_profile_is_bit_identical_to_materialized() {
        use psbench_workload::GeneratedStream;
        let def = WorkloadDef::new(WorkloadKind::Lublin99, 64, 500, 123);
        let log = def.generate();
        let seq = WorkloadProfile::of_log("w", &log);
        for threads in [1usize, 2, 5, 16] {
            // Streaming from the in-memory log...
            let streamed = profile_source_parallel(log.as_source("w"), threads).unwrap();
            assert_eq!(streamed, seq, "log source, threads = {threads}");
            // ... and from a lazily generated model stream.
            let model = WorkloadKind::Lublin99.model(64);
            let gen = GeneratedStream::new(model, 500, 123).with_name("w");
            let from_model = profile_source_parallel(gen, threads).unwrap();
            assert_eq!(from_model, seq, "generated stream, threads = {threads}");
        }
    }

    #[test]
    fn results_table_has_a_row_per_scenario() {
        let results = run_all_parallel(&small_scenarios(), 1);
        let table = results_table("smoke", &results);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.headers.len(), 8);
        assert!(table.render(Format::Markdown).contains("easy"));
    }
}
