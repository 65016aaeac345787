//! Property-based tests for the SWF format: round-trip fidelity, validator/cleaner
//! behaviour, and outage format invariants on arbitrary inputs.

use proptest::prelude::*;
use psbench_swf::prelude::*;

/// Strategy for an arbitrary optional non-negative i64 within a sane range.
fn opt_secs() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), (0i64..2_000_000).prop_map(Some)]
}

fn opt_procs() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (1u32..2048).prop_map(Some)]
}

fn opt_small() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (1u32..100).prop_map(Some)]
}

prop_compose! {
    /// An arbitrary (summary) SWF record with a given job id and submit time.
    fn arb_record(job_id: u64, submit: i64)(
        wait in opt_secs(),
        run in opt_secs(),
        procs in opt_procs(),
        cpu in opt_secs(),
        mem in opt_secs(),
        req_procs in opt_procs(),
        req_time in opt_secs(),
        req_mem in opt_secs(),
        status in prop_oneof![
            Just(CompletionStatus::Completed),
            Just(CompletionStatus::Failed),
            Just(CompletionStatus::Cancelled),
            Just(CompletionStatus::Unknown)
        ],
        user in opt_small(),
        group in opt_small(),
        exe in opt_small(),
        queue in prop_oneof![Just(None), (0u32..10).prop_map(Some)],
        partition in opt_small(),
    ) -> SwfRecord {
        SwfRecord {
            job_id,
            submit_time: submit,
            wait_time: wait,
            run_time: run,
            allocated_procs: procs,
            avg_cpu_time: cpu,
            used_memory_kb: mem,
            requested_procs: req_procs,
            requested_time: req_time,
            requested_memory_kb: req_mem,
            status,
            user_id: user,
            group_id: group,
            executable_id: exe,
            queue_id: queue,
            partition_id: partition,
            preceding_job: None,
            think_time: None,
        }
    }
}

/// A log with sorted submit times, consecutive job ids, and first submit at zero.
fn arb_log(max_jobs: usize) -> impl Strategy<Value = SwfLog> {
    prop::collection::vec(0i64..3600, 1..max_jobs).prop_flat_map(|gaps| {
        let mut submits = Vec::with_capacity(gaps.len());
        let mut t = 0i64;
        for (i, g) in gaps.iter().enumerate() {
            if i > 0 {
                t += g;
            }
            submits.push(t);
        }
        let records: Vec<_> = submits
            .into_iter()
            .enumerate()
            .map(|(i, s)| arb_record(i as u64 + 1, s))
            .collect();
        records.prop_map(|jobs| {
            let header = SwfHeader {
                version: Some(FORMAT_VERSION),
                max_nodes: Some(4096),
                ..SwfHeader::default()
            };
            SwfLog::new(header, jobs)
        })
    })
}

/// Characters safe inside header values, notes, and free comments: no newlines
/// (line structure), no `:` (a free comment containing `word: text` would
/// reparse as a labelled line), no `;`, and no leading/trailing whitespace
/// issues (values are trimmed by the parser).
const HEADER_ALPHABET: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', 'A', 'M', 'Z', '0', '1', '9', '.', '_', '-', '/', '(', ')', '#',
];

fn arb_header_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..HEADER_ALPHABET.len(), 1..16)
        .prop_map(|ix| ix.into_iter().map(|i| HEADER_ALPHABET[i]).collect())
}

fn opt_text() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), arb_header_text().prop_map(Some)]
}

prop_compose! {
    /// A header exercising typed labels, notes, unknown labelled lines, and
    /// free comments — everything the writer has to carry through a round trip.
    fn arb_header()(
        computer in opt_text(),
        installation in opt_text(),
        version in prop_oneof![Just(None), (1u32..10).prop_map(Some)],
        max_nodes in opt_procs(),
        max_runtime in opt_secs(),
        allow_overuse in prop_oneof![Just(None), Just(Some(true)), Just(Some(false))],
        queues in opt_text(),
        notes in prop::collection::vec(arb_header_text(), 0..4),
        unknown_values in prop::collection::vec(arb_header_text(), 0..3),
        comments in prop::collection::vec(arb_header_text(), 0..4),
    ) -> SwfHeader {
        let mut header = SwfHeader {
            computer,
            installation,
            version,
            max_nodes,
            max_runtime,
            allow_overuse,
            queues,
            notes,
            ..SwfHeader::default()
        };
        for (i, value) in unknown_values.into_iter().enumerate() {
            // Unknown labels are preserved verbatim in raw_lines.
            header.apply(&format!("X-Custom{i}"), &value);
        }
        for text in comments {
            header.add_free_comment(&text);
        }
        header
    }
}

/// A log combining an arbitrary rich header with arbitrary records.
fn arb_rich_log() -> impl Strategy<Value = SwfLog> {
    (arb_header(), arb_log(20)).prop_map(|(header, log)| SwfLog::new(header, log.jobs))
}

/// One arbitrary input line for the streaming-equivalence property: valid
/// record lines, dirty near-records (floats, wrong field counts, junk
/// tokens), header comments, free comments, and blanks — the mix found in
/// real archive logs.
fn arb_swf_line() -> impl Strategy<Value = String> {
    prop_oneof![
        // A well-formed record line.
        (1u64..1000, 0i64..100_000)
            .prop_flat_map(|(id, submit)| arb_record(id, submit))
            .prop_map(|r| record_line(&r)),
        // A record line with a fractional runtime (lenient-tolerated).
        (1u64..1000, 0i64..100_000, 0u32..1000).prop_map(|(id, s, frac)| format!(
            "{id} {s} -1 100.{frac} 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1"
        )),
        // Too few / too many fields.
        (1u64..1000).prop_map(|id| format!("{id} 0 1 2 3")),
        (1u64..1000).prop_map(|id| format!("{id} 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1 99 98")),
        // Junk tokens.
        Just("what even is this line".to_string()),
        // Header labels (known and unknown), free comments, blanks.
        arb_header_text().prop_map(|v| format!(";MaxNodes: {v}")),
        arb_header_text().prop_map(|v| format!(";Weather: {v}")),
        arb_header_text().prop_map(|v| format!("; {v}")),
        Just(String::new()),
    ]
}

proptest! {
    /// The streaming parser and the one-shot parser are a single code path in
    /// two shapes: on ANY input — valid or dirty, lenient or strict — they
    /// agree record for record, header for header, error for error.
    #[test]
    fn record_iter_matches_parse_str_on_arbitrary_input(
        lines in prop::collection::vec(arb_swf_line(), 0..40),
        strict in prop_oneof![Just(false), Just(true)],
    ) {
        let text = lines.join("\n");
        let opts = ParseOptions { strict };
        let oneshot = parse_str(&text, &opts);
        // Record-for-record comparison against the one-shot job list.
        let mut iter = RecordIter::new(text.as_bytes(), opts);
        let mut streamed: Vec<SwfRecord> = Vec::new();
        let mut stream_err = None;
        for item in &mut iter {
            match item {
                Ok(rec) => streamed.push(rec),
                Err(e) => {
                    stream_err = Some(e);
                    break;
                }
            }
        }
        match oneshot {
            Ok(log) => {
                prop_assert_eq!(stream_err, None);
                prop_assert_eq!(&streamed, &log.jobs);
                prop_assert_eq!(&iter.meta().header, &log.header);
            }
            Err(e) => {
                prop_assert_eq!(stream_err, Some(e));
                // Everything before the failure point still streamed out.
                prop_assert!(streamed.len() <= lines.len());
            }
        }
    }

    /// Collecting the stream is exactly `parse_str` — `SwfLog` is just one
    /// sink for the record stream.
    #[test]
    fn collect_log_is_parse_str(log in arb_rich_log()) {
        let text = write_string(&log);
        let collected = RecordIter::new(text.as_bytes(), ParseOptions::default())
            .collect_log()
            .unwrap();
        prop_assert_eq!(collected, parse(&text).unwrap());
    }

    #[test]
    fn parse_write_parse_is_idempotent(log in arb_rich_log()) {
        // One write→parse pass normalizes a log; after that, parse∘write must be
        // the identity on both the text and the parsed structure — records,
        // typed header fields, notes, unknown labels, and free comments alike.
        let text1 = write_string(&log);
        let once = parse(&text1).unwrap();
        let text2 = write_string(&once);
        prop_assert_eq!(&text2, &text1, "writer not stable under reparse");
        let twice = parse(&text2).unwrap();
        prop_assert_eq!(&twice, &once, "parse∘write not idempotent");
        // The first trip already preserves the data exactly.
        prop_assert_eq!(&once.jobs, &log.jobs);
        prop_assert_eq!(&once.header.computer, &log.header.computer);
        prop_assert_eq!(&once.header.notes, &log.header.notes);
        prop_assert_eq!(&once.header.version, &log.header.version);
        prop_assert_eq!(&once.header.allow_overuse, &log.header.allow_overuse);
    }

    #[test]
    fn record_raw_round_trip(rec in arb_record(7, 123)) {
        let raw = rec.to_raw();
        let back = SwfRecord::from_raw(&raw);
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn log_text_round_trip(log in arb_log(40)) {
        let text = write_string(&log);
        let parsed = parse(&text).unwrap();
        prop_assert_eq!(&parsed.jobs, &log.jobs);
        prop_assert_eq!(parsed.header.max_nodes, log.header.max_nodes);
        // And the writer output always parses strictly.
        parse_str(&text, &ParseOptions::strict()).unwrap();
    }

    #[test]
    fn clean_always_produces_valid_log(log in arb_log(40)) {
        let mut log = log;
        // Perturb the log arbitrarily badly: shift times, scramble ids.
        for (i, j) in log.jobs.iter_mut().enumerate() {
            j.submit_time += 10_000;
            if i % 3 == 0 {
                j.job_id = j.job_id * 7 + 5;
            }
        }
        let (_cleaning, report) = clean_and_validate(&mut log);
        prop_assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn clean_never_increases_job_count(log in arb_log(30)) {
        let mut log = log;
        let before = log.len();
        clean(&mut log);
        prop_assert!(log.len() <= before);
    }

    #[test]
    fn clean_is_idempotent(log in arb_log(30)) {
        let mut log = log;
        clean(&mut log);
        let snapshot = log.clone();
        let second = clean(&mut log);
        prop_assert_eq!(second, CleaningReport::default());
        prop_assert_eq!(log, snapshot);
    }

    #[test]
    fn offered_load_nonnegative(log in arb_log(30)) {
        if let Some(load) = log.offered_load() {
            prop_assert!(load >= 0.0);
        }
    }

    #[test]
    fn scale_interarrivals_preserves_job_count_and_order(log in arb_log(30), factor in 0.1f64..10.0) {
        let mut scaled = log.clone();
        scaled.scale_interarrivals(factor);
        prop_assert_eq!(scaled.len(), log.len());
        prop_assert!(scaled.jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
        prop_assert_eq!(scaled.first_submit(), log.first_submit());
    }

    #[test]
    fn densify_produces_dense_ids(log in arb_log(40)) {
        let mut log = log;
        let key = densify_ids(&mut log);
        let users: Vec<u32> = log.jobs.iter().filter_map(|j| j.user_id).collect();
        if !users.is_empty() {
            let max = *users.iter().max().unwrap();
            prop_assert_eq!(max as usize, key.users.len());
            for u in users {
                prop_assert!(u >= 1 && u as usize <= key.users.len());
            }
        }
    }

    #[test]
    fn outage_line_round_trip(
        announced in prop_oneof![Just(-1i64), 0i64..10_000],
        start in 0i64..100_000,
        dur in 0i64..50_000,
        kind_code in -1i64..6,
        nodes in prop_oneof![Just(-1i64), 0i64..512],
        comps in prop::collection::vec(0u32..512, 0..8),
    ) {
        let rec = OutageRecord {
            outage_id: 1,
            announced_time: if announced < 0 { None } else { Some(announced) },
            start_time: start,
            end_time: start + dur,
            kind: OutageKind::from_code(kind_code),
            nodes_affected: if nodes < 0 { None } else { Some(nodes as u32) },
            components: comps,
        };
        let line = rec.to_line();
        let back = OutageRecord::from_line(&line, 1).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn outage_log_lost_capacity_monotone_in_horizon(
        starts in prop::collection::vec(0i64..10_000, 1..10),
        dur in 1i64..1000,
    ) {
        let records: Vec<OutageRecord> = starts.iter().map(|&s| OutageRecord {
            outage_id: 0,
            announced_time: None,
            start_time: s,
            end_time: s + dur,
            kind: OutageKind::CpuFailure,
            nodes_affected: Some(1),
            components: vec![],
        }).collect();
        let log = OutageLog::from_records(records);
        let a = log.lost_node_seconds(5_000);
        let b = log.lost_node_seconds(20_000);
        prop_assert!(b >= a);
    }

    #[test]
    fn checkpoint_assemble_expand_round_trip(
        n_bursts in 1usize..5,
        burst_len in 1i64..500,
        waits in prop::collection::vec(0i64..100, 5),
    ) {
        let mut bursts = Vec::new();
        for i in 0..n_bursts {
            bursts.push(Burst {
                wait_time: waits[i % waits.len()],
                run_time: burst_len + i as i64,
                outcome: if i + 1 == n_bursts { BurstOutcome::Completed } else { BurstOutcome::Continued },
            });
        }
        let template = SwfRecordBuilder::new(1, 0).allocated_procs(8).build();
        let summary = psbench_swf::checkpoint::summarize_bursts(&template, &bursts);
        let job = CheckpointedJob { summary, bursts };
        let flat = expand(std::slice::from_ref(&job));
        let log = SwfLog::new(SwfHeader::default(), flat);
        let again = assemble(&log).unwrap();
        prop_assert_eq!(again.len(), 1);
        prop_assert_eq!(&again[0], &job);
        prop_assert_eq!(again[0].total_burst_runtime(), job.summary.run_time.unwrap());
    }
}
