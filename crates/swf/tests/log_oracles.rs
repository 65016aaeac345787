//! Differential oracles for the log operations that model assembly leans on:
//! `SwfLog::{sort_by_submit, renumber, scale_interarrivals}` and `clean`.
//! Each reference below is the straightforward version (a stable sort of the
//! records, std `HashMap`/`HashSet` id maps, sets built unconditionally); the
//! library versions sort keys and permute in place, hash ids with the keyed
//! `IdHash`, and skip id sets no record needs. On random logs with repeated
//! ids, tied submit times, checkpointed jobs' partial lines, dependencies
//! that point backward, forward or nowhere, negative submits and unsorted
//! records, both must leave the same log (and `clean` the same report).

use proptest::prelude::*;
use psbench_swf::prelude::*;
use std::collections::{HashMap, HashSet};

/// Reference `SwfLog::sort_by_submit`: a stable sort by `(submit, id)`.
fn reference_sort_by_submit(log: &mut SwfLog) {
    log.jobs.sort_by_key(|j| (j.submit_time, j.job_id));
}

/// Reference `SwfLog::renumber`.
fn reference_renumber(log: &mut SwfLog) {
    let mut mapping: HashMap<u64, u64> = HashMap::new();
    let mut next = 1u64;
    for j in &mut log.jobs {
        let new_id = *mapping.entry(j.job_id).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        j.job_id = new_id;
    }
    for j in &mut log.jobs {
        if let Some(p) = j.preceding_job {
            j.preceding_job = mapping.get(&p).copied();
            if j.preceding_job.is_none() {
                j.think_time = None;
            }
        }
    }
}

/// Reference `SwfLog::scale_interarrivals`: visits records in the order of a
/// stable index sort by `(submit, id)`.
fn reference_scale_interarrivals(log: &mut SwfLog, factor: f64) {
    assert!(factor > 0.0, "interarrival scale factor must be positive");
    if log.jobs.is_empty() {
        return;
    }
    let mut sorted_idx: Vec<usize> = (0..log.jobs.len()).collect();
    sorted_idx.sort_by_key(|&i| (log.jobs[i].submit_time, log.jobs[i].job_id));
    let base = log.jobs[sorted_idx[0]].submit_time;
    let mut prev_orig = base;
    let mut prev_new = base as f64;
    for &i in &sorted_idx {
        let orig = log.jobs[i].submit_time;
        let gap = (orig - prev_orig) as f64;
        let new = prev_new + gap * factor;
        prev_orig = orig;
        prev_new = new;
        log.jobs[i].submit_time = new.round() as i64;
    }
}

/// Reference `clean`.
fn reference_clean(log: &mut SwfLog) -> CleaningReport {
    let mut report = CleaningReport::default();

    let before = log.jobs.len();
    log.jobs
        .retain(|j| !(j.is_summary() && j.procs().is_none()));
    let ids: HashSet<u64> = log
        .jobs
        .iter()
        .filter(|j| j.is_summary())
        .map(|j| j.job_id)
        .collect();
    log.jobs
        .retain(|j| j.is_summary() || ids.contains(&j.job_id));
    report.dropped = before - log.jobs.len();

    let was_sorted = log
        .jobs
        .windows(2)
        .all(|w| w[0].submit_time <= w[1].submit_time);
    if !was_sorted {
        reference_sort_by_submit(log);
        report.resorted = true;
    }
    if log.first_submit() != 0 {
        log.rebase_times();
        report.rebased = true;
    }

    let needs_renumber = log
        .jobs
        .iter()
        .filter(|j| j.is_summary())
        .zip(1u64..)
        .any(|(j, expected)| j.job_id != expected);
    if needs_renumber {
        let mut next = 1u64;
        let mut old_to_new: HashMap<u64, u64> = HashMap::new();
        let mut new_ids = vec![0u64; log.jobs.len()];
        for (i, j) in log.jobs.iter().enumerate() {
            if j.is_summary() {
                let id = next;
                next += 1;
                old_to_new.insert(j.job_id, id);
                new_ids[i] = id;
            }
        }
        for (i, j) in log.jobs.iter().enumerate() {
            if !j.is_summary() {
                new_ids[i] = old_to_new.get(&j.job_id).copied().unwrap_or(0);
            }
        }
        for (i, j) in log.jobs.iter_mut().enumerate() {
            if let Some(p) = j.preceding_job {
                j.preceding_job = old_to_new.get(&p).copied();
                if j.preceding_job.is_none() {
                    j.think_time = None;
                    report.dropped_dependencies += 1;
                }
            }
            j.job_id = new_ids[i];
        }
        report.renumbered = true;
    }

    let max_nodes = log.header.max_nodes;
    for j in &mut log.jobs {
        if let Some(mn) = max_nodes {
            if let Some(p) = j.requested_procs {
                if p > mn {
                    j.requested_procs = Some(mn);
                    report.clamped_procs += 1;
                }
            }
            if let Some(p) = j.allocated_procs {
                if p > mn {
                    j.allocated_procs = Some(mn);
                    report.clamped_procs += 1;
                }
            }
        }
        if let (Some(c), Some(r)) = (j.avg_cpu_time, j.run_time) {
            if c > r {
                j.avg_cpu_time = Some(r);
                report.clamped_cpu += 1;
            }
        }
        if j.think_time.is_some() && j.preceding_job.is_none() {
            j.think_time = None;
            report.dropped_dependencies += 1;
        }
        if j.is_summary()
            && j.run_time.is_none()
            && j.status != CompletionStatus::Cancelled
            && j.status != CompletionStatus::Unknown
        {
            j.run_time = Some(j.avg_cpu_time.unwrap_or(0));
            report.filled_runtimes += 1;
        }
    }

    let summary_ids: HashSet<u64> = log
        .jobs
        .iter()
        .filter(|j| j.is_summary())
        .map(|j| j.job_id)
        .collect();
    for j in &mut log.jobs {
        if let Some(p) = j.preceding_job {
            let bad = !summary_ids.contains(&p) || (j.is_summary() && p >= j.job_id);
            if bad {
                j.preceding_job = None;
                j.think_time = None;
                report.dropped_dependencies += 1;
            }
        }
    }

    if log.header.max_nodes.is_none() {
        let max = log.max_job_procs();
        if max > 0 {
            log.header.max_nodes = Some(max);
        }
    }
    if log.header.version.is_none() {
        log.header.version = Some(FORMAT_VERSION);
    }
    report
}

fn opt<T: Clone + 'static>(
    values: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), values.prop_map(Some)]
}

/// The raw draws for one line of a random log; [`build_log`] resolves the
/// references to earlier lines.
#[derive(Debug, Clone)]
struct Line {
    id: u64,
    submit: i64,
    /// 0-2: a partial line (code 2, 3 or 4) of an earlier line, sharing its
    /// id and submit time; 3: a partial line with its own id (maybe an
    /// orphan); otherwise a summary line.
    kind: u8,
    /// Which earlier line a partial line or a backward dependency names.
    earlier: usize,
    /// 0: none; 1: an earlier line's id; 2: a later id; 3: an id no line has.
    dependency: u8,
    think: Option<i64>,
    run: Option<i64>,
    cpu: Option<i64>,
    procs: Option<u32>,
    requested_procs: Option<u32>,
    status: u8,
}

prop_compose! {
    fn arb_line()(
        id in 1u64..16,
        submit in -8i64..12,
        kind in 0u8..9,
        earlier in 0usize..1000,
        dependency in 0u8..6,
        think in opt(0i64..100),
        run in opt(0i64..500),
        cpu in opt(0i64..600),
        procs in opt(1u32..80),
        requested_procs in opt(1u32..80),
        status in 0u8..4,
    ) -> Line {
        Line { id, submit, kind, earlier, dependency, think, run, cpu, procs, requested_procs, status }
    }
}

fn build_log(lines: &[Line], max_nodes: Option<u32>) -> SwfLog {
    let mut jobs: Vec<SwfRecord> = Vec::with_capacity(lines.len());
    for (i, l) in lines.iter().enumerate() {
        let mut rec = SwfRecordBuilder::new(l.id, l.submit).build();
        rec.run_time = l.run;
        rec.avg_cpu_time = l.cpu;
        rec.allocated_procs = l.procs;
        rec.requested_procs = l.requested_procs;
        rec.status = [
            CompletionStatus::Completed,
            CompletionStatus::Failed,
            CompletionStatus::Cancelled,
            CompletionStatus::Unknown,
        ][l.status as usize];
        let earlier = (i > 0).then(|| &jobs[l.earlier % i]);
        if l.kind < 3 {
            if let Some(e) = earlier {
                rec.job_id = e.job_id;
                rec.submit_time = e.submit_time;
                rec.status = [
                    CompletionStatus::PartialContinued,
                    CompletionStatus::PartialCompleted,
                    CompletionStatus::PartialFailed,
                ][l.kind as usize];
            }
        } else if l.kind == 3 {
            rec.status = CompletionStatus::PartialContinued;
        }
        rec.preceding_job = match l.dependency {
            1 => earlier.map(|e| e.job_id),
            2 => Some(rec.job_id + 1 + (l.earlier % 5) as u64),
            3 => Some(1000 + l.earlier as u64),
            _ => None,
        };
        rec.think_time = l.think;
        jobs.push(rec);
    }
    let header = SwfHeader {
        max_nodes,
        ..SwfHeader::default()
    };
    SwfLog::new(header, jobs)
}

/// Logs of up to 150 lines: long enough that an unstable sort really
/// reorders ties (short slices are insertion-sorted, which is stable).
fn arb_log() -> impl Strategy<Value = SwfLog> {
    (
        prop::collection::vec(arb_line(), 0..150),
        opt(20u32..80),
        0u8..3,
    )
        .prop_map(|(lines, max_nodes, presort)| {
            let mut log = build_log(&lines, max_nodes);
            if presort == 0 {
                reference_sort_by_submit(&mut log);
            }
            log
        })
}

proptest! {
    #[test]
    fn sort_by_submit_matches_the_stable_sort(log in arb_log()) {
        let mut expected = log.clone();
        reference_sort_by_submit(&mut expected);
        let mut got = log;
        got.sort_by_submit();
        prop_assert_eq!(&got, &expected);
        got.sort_by_submit();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn renumber_matches_the_reference(log in arb_log(), sort_first in 0u8..2) {
        let mut expected = log.clone();
        let mut got = log;
        if sort_first == 0 {
            reference_sort_by_submit(&mut expected);
            got.sort_by_submit();
        }
        reference_renumber(&mut expected);
        got.renumber();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn scale_interarrivals_matches_the_reference(
        log in arb_log(),
        factor in prop_oneof![0.001f64..0.01, 0.1f64..10.0, 500.0f64..2000.0],
    ) {
        let mut expected = log.clone();
        reference_scale_interarrivals(&mut expected, factor);
        let mut got = log;
        got.scale_interarrivals(factor);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn clean_matches_the_reference(log in arb_log()) {
        let mut expected = log.clone();
        let expected_report = reference_clean(&mut expected);
        let mut got = log;
        let report = clean(&mut got);
        prop_assert_eq!(report, expected_report);
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn sort_by_submit_keeps_partial_lines_in_order_among_many_ties() {
    // 64 lines of one job at one instant, then the reverse: every key ties on
    // (submit, id), so only the index can keep the lines in input order.
    let mut lines: Vec<SwfRecord> = (0..64i64)
        .map(|k| SwfRecordBuilder::new(7, 100).run_time(k).build())
        .collect();
    lines.extend((0..64i64).map(|k| {
        SwfRecordBuilder::new(7 - k as u64 % 2, 100 - k)
            .run_time(k)
            .build()
    }));
    let mut log = SwfLog::new(SwfHeader::default(), lines);
    let mut expected = log.clone();
    reference_sort_by_submit(&mut expected);
    log.sort_by_submit();
    assert_eq!(log, expected);
}
