//! A differential oracle for [`RecordIter`]: the reader it replaced, kept as a
//! test-only reference. The reference reads each line with `read_line` (a copy
//! and a UTF-8 check of every line), classifies it with [`classify`], and
//! splits a data line with `split_ascii_whitespace` and `str::parse`.
//!
//! On generated logs read through buffers of 1, 7, 64 and 8192 bytes, and on
//! seeded byte mutations of the sample logs, both readers must yield the same
//! records, the same error (variant, line, field and token), the same header
//! and comments, the same line count, and nothing after an error. The one
//! expected difference is invalid UTF-8: the reference reports it as an I/O
//! error without a line number and counts one line fewer.

use super::tests::SAMPLE;
use super::{classify, validate_raw, Line, ParseOptions, RecordIter};
use crate::error::ParseError;
use crate::record::{SwfRecord, FIELD_COUNT, UNKNOWN};
use crate::source::{JobSource, SourceMeta};
use proptest::prelude::*;
use std::io::{self, BufRead, BufReader, Read};

/// The reader [`RecordIter`] replaced, line for line.
struct ReferenceIter<R> {
    reader: R,
    opts: ParseOptions,
    meta: SourceMeta,
    data_lines: usize,
    line_no: usize,
    buf: String,
    done: bool,
}

impl<R: BufRead> ReferenceIter<R> {
    fn new(reader: R, opts: ParseOptions) -> Self {
        ReferenceIter {
            reader,
            opts,
            meta: SourceMeta::named("swf"),
            data_lines: 0,
            line_no: 0,
            buf: String::new(),
            done: false,
        }
    }

    fn feed(&mut self) -> Result<Option<SwfRecord>, ParseError> {
        let line_no = self.line_no;
        match classify(&self.buf) {
            Line::Blank => Ok(None),
            Line::HeaderLabel { label, value } => {
                let known = self.meta.header.apply(label, value);
                if !known && self.opts.strict && self.data_lines == 0 {
                    return Err(ParseError::UnknownHeaderLabel {
                        line: line_no,
                        label: label.to_string(),
                    });
                }
                Ok(None)
            }
            Line::Comment(text) => {
                self.meta.header.add_free_comment(text);
                Ok(None)
            }
            Line::Data(text) => {
                self.data_lines += 1;
                let mut rec = reference_record_line(text, line_no, &self.opts)?;
                if rec.job_id == 0 && !self.opts.strict {
                    rec.job_id = self.data_lines as u64;
                }
                Ok(Some(rec))
            }
        }
    }
}

impl<R: BufRead> JobSource for ReferenceIter<R> {
    fn meta(&self) -> &SourceMeta {
        &self.meta
    }

    fn next_record(&mut self) -> Option<Result<SwfRecord, ParseError>> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            let n = match self.reader.read_line(&mut self.buf) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            if n == 0 {
                self.done = true;
                return None;
            }
            self.line_no += 1;
            match self.feed() {
                Ok(Some(rec)) => return Some(Ok(rec)),
                Ok(None) => continue,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// The data-line parser [`RecordIter`] replaced.
fn reference_record_line(
    line: &str,
    line_no: usize,
    opts: &ParseOptions,
) -> Result<SwfRecord, ParseError> {
    let mut raw = [UNKNOWN; FIELD_COUNT];
    let mut count = 0usize;
    for (idx, tok) in line.split_ascii_whitespace().enumerate() {
        if idx >= FIELD_COUNT {
            count = idx + 1;
            continue;
        }
        let value = match tok.parse::<i64>() {
            Ok(v) => v,
            Err(_) => match tok.parse::<f64>() {
                Ok(f) if !opts.strict && f.is_finite() => f.trunc() as i64,
                _ => {
                    return Err(ParseError::InvalidInteger {
                        line: line_no,
                        field: idx,
                        token: tok.to_string(),
                    })
                }
            },
        };
        raw[idx] = value;
        count = idx + 1;
    }
    if count != FIELD_COUNT {
        return Err(ParseError::WrongFieldCount {
            line: line_no,
            found: count,
            expected: FIELD_COUNT,
        });
    }
    validate_raw(&raw, line_no, opts)?;
    Ok(SwfRecord::from_raw(&raw))
}

/// A reader over `bytes` whose read fails once with
/// [`io::ErrorKind::Interrupted`] when it reaches byte `at`, as a read
/// interrupted by a signal does.
struct Interrupting<'a> {
    bytes: &'a [u8],
    pos: usize,
    at: Option<usize>,
}

impl Read for Interrupting<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut end = self.bytes.len().min(self.pos + out.len());
        if let Some(at) = self.at {
            if self.pos == at {
                self.at = None;
                return Err(io::ErrorKind::Interrupted.into());
            }
            if at > self.pos {
                end = end.min(at);
            }
        }
        let n = end - self.pos;
        out[..n].copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(n)
    }
}

/// Everything a reader made of one input.
#[derive(Debug, PartialEq)]
struct Outcome {
    records: Vec<SwfRecord>,
    error: Option<ParseError>,
    /// Items yielded by three more pulls after the end or the error.
    after_end: usize,
    meta: SourceMeta,
    line_no: usize,
}

fn outcome<S: JobSource>(mut source: S, line_no: impl Fn(&S) -> usize) -> Outcome {
    let mut records = Vec::new();
    let mut error = None;
    while let Some(item) = source.next_record() {
        match item {
            Ok(rec) => records.push(rec),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let after_end = (0..3).filter(|_| source.next_record().is_some()).count();
    Outcome {
        records,
        error,
        after_end,
        meta: source.meta().clone(),
        line_no: line_no(&source),
    }
}

/// The message of the I/O error `read_line` returns for invalid UTF-8.
fn invalid_utf8_message() -> String {
    let mut line = String::new();
    (&b"\xff"[..])
        .read_line(&mut line)
        .expect_err("0xff is not UTF-8")
        .to_string()
}

/// Read `input` through both readers with a buffer of `capacity` bytes and
/// an interruption at byte `interrupt`, and require the same outcome.
fn check(input: &[u8], capacity: usize, interrupt: Option<usize>, opts: ParseOptions) {
    let reader = || {
        let source = Interrupting {
            bytes: input,
            pos: 0,
            at: interrupt,
        };
        BufReader::with_capacity(capacity, source)
    };
    let got = outcome(RecordIter::new(reader(), opts), RecordIter::line_no);
    let mut want = outcome(ReferenceIter::new(reader(), opts), |r| r.line_no);
    if want.error == Some(ParseError::Io(invalid_utf8_message())) {
        want.line_no += 1;
        want.error = Some(ParseError::InvalidUtf8 { line: want.line_no });
    }
    assert_eq!(
        got,
        want,
        "capacity {capacity}, interrupt {interrupt:?}, {opts:?}, input {:?}",
        String::from_utf8_lossy(input)
    );
}

const CAPACITIES: [usize; 4] = [1, 7, 64, 8192];

fn arb_opts() -> impl Strategy<Value = ParseOptions> {
    (0u8..2).prop_map(|strict| ParseOptions {
        strict: strict == 1,
    })
}

fn strings(items: &[&'static str]) -> impl Strategy<Value = String> {
    let items: Vec<&'static str> = items.to_vec();
    (0..items.len()).prop_map(move |i| items[i].to_string())
}

/// The 18 fields of a record strict mode accepts: a positive job id, a
/// non-negative submit time, `-1` or non-negative values, and a completion
/// code in `-1..=5`.
fn legal_tokens() -> impl Strategy<Value = Vec<String>> {
    let value = || prop_oneof![Just(-1i64), 0i64..100_000, 0i64..100_000_000];
    (
        1i64..1_000_000,
        0i64..100_000_000,
        prop::collection::vec(value(), FIELD_COUNT - 2),
        -1i64..=5,
    )
        .prop_map(|(id, submit, mut rest, status)| {
            rest[8] = status;
            [id, submit]
                .iter()
                .chain(&rest)
                .map(i64::to_string)
                .collect()
        })
}

/// A token every reader parses in lenient mode: plain integers, and integers
/// that only `str::parse` reads (zero-padded, `+`-signed, 19 digits).
fn clean_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("-1".to_string()),
        Just("-1".to_string()),
        (0i64..100_000).prop_map(|v| v.to_string()),
        (0i64..100_000_000).prop_map(|v| v.to_string()),
        (0u32..1000).prop_map(|v| format!("{v:06}")),
        (0u32..1000).prop_map(|v| format!("+{v}")),
        strings(&["-0", "-000000000000000000001", "0000000000000000000000007"]),
        (100_000_000_000_000_000i64..1_000_000_000_000_000_000).prop_map(|v| v.to_string()),
        (1_000_000_000_000_000_000i64..i64::MAX).prop_map(|v| v.to_string()),
        // Negative values, which strict mode rejects.
        prop_oneof![
            (-1000i64..-1).prop_map(|v| v.to_string()),
            (100_000_000_000_000_000i64..1_000_000_000_000_000_000).prop_map(|v| format!("-{v}")),
            Just("-9223372036854775808".to_string()),
        ],
    ]
}

/// A token no reader takes for an integer: floats in strict mode, integers
/// too long for an `i64` in strict mode, and junk.
fn junk_token() -> impl Strategy<Value = String> {
    strings(&[
        "9999999999999999999",
        "12345678901234567890",
        "-99999999999999999999",
        "5-",
        "-",
        "+",
        "--1",
        "0x10",
        "1\u{b}2",
        "\u{b}7",
        "é",
        "５",
        "1\u{a0}",
        "\u{a0}1",
    ])
}

/// Any token: clean ones, floats (read in lenient mode only), integers too
/// long for an `i64` (read as floats), and junk.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        clean_token(),
        clean_token(),
        strings(&["1.5", "-0.5", "1e3", "100.0", "1E3", ".5", "-inf", "nan", "inf", "NaN"]),
        junk_token(),
    ]
}

/// `tokens` joined into a data line by ASCII whitespace; a dirty line may
/// also be led or split by U+000B or U+00A0, which `split_ascii_whitespace`
/// does not split at.
fn data_line(
    tokens: impl Strategy<Value = Vec<String>>,
    dirty: bool,
) -> impl Strategy<Value = String> {
    let mut separators = vec![" ", " ", " ", "\t", "  ", "\r", "\x0C", " \t "];
    let mut leads = vec!["", "", "", " ", "\t", "\r", "\x0C"];
    if dirty {
        separators.push("\x0B");
        leads.extend(["\x0B", "\u{a0}"]);
    }
    (tokens, strings(&leads))
        .prop_flat_map(move |(tokens, lead)| {
            let n = tokens.len();
            (
                Just(tokens),
                Just(lead),
                prop::collection::vec(strings(&separators), n),
            )
        })
        .prop_map(|(tokens, mut line, separators)| {
            for (token, sep) in tokens.iter().zip(&separators) {
                line.push_str(token);
                line.push_str(sep);
            }
            line
        })
}

/// One line, without its terminator.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    let clean = || prop::collection::vec(clean_token(), FIELD_COUNT);
    let fields = prop_oneof![
        Just(FIELD_COUNT),
        0..FIELD_COUNT,
        FIELD_COUNT + 1..FIELD_COUNT + 3
    ];
    let text = prop_oneof![
        data_line(legal_tokens(), false),
        data_line(legal_tokens(), false),
        data_line(legal_tokens(), false),
        data_line(legal_tokens(), false),
        data_line(clean(), false),
        data_line(clean(), false),
        data_line(clean(), false),
        data_line(
            fields.prop_flat_map(|n| prop::collection::vec(token(), n)),
            true
        ),
        // A bad token after the last field: counted, never parsed.
        (data_line(legal_tokens(), false), junk_token())
            .prop_map(|(line, junk)| format!("{line} {junk}")),
        // Header labels, known and unknown, with and without leading space.
        strings(&[
            ";MaxNodes: 64",
            ";MaxNodes:128",
            ";Computer: Ünïcode cluster",
            " ;Version: 2",
            "\u{b};MaxProcs: 32",
            "\u{a0};Note: led by a no-break space",
            ";Note: a: b",
            ";Weather: sunny",
            ";MaxJobs: many",
        ]),
        // Free comments and blank lines, including ones led by U+000B.
        strings(&[
            "; free comment",
            ";",
            "; é ü comment",
            "\u{b}; comment led by a vertical tab",
            ";a b: c",
            "\t;tabbed",
            "",
            " ",
            "\t",
            "\u{b}",
            "\u{b}\u{b}",
            "\u{c}",
            "\r",
            "\u{a0}",
            "\u{3000}",
        ]),
    ];
    text.prop_map(String::into_bytes)
}

/// A line that is not UTF-8.
fn invalid_line() -> impl Strategy<Value = Vec<u8>> {
    let lines: [&[u8]; 6] = [
        b"\xff",
        b"1 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 \xc3",
        b"; comment \xfe",
        b"\xe2\x82",
        b"\xc0\x80 1",
        b"x \xa0",
    ];
    (0..lines.len()).prop_map(move |i| lines[i].to_vec())
}

prop_compose! {
    /// A log: lines ending in `\n` or `\r\n`, the last one perhaps in
    /// neither, and now and then one line that is not UTF-8.
    fn arb_log()(
        lines in prop::collection::vec(arb_line(), 0..25),
        endings in prop::collection::vec(0u8..4, 25),
        invalid in prop_oneof![Just(None), Just(None), Just(None), invalid_line().prop_map(Some)],
        invalid_at in 0usize..25,
        last_open in 0u8..3,
    ) -> Vec<u8> {
        let mut lines = lines;
        if let Some(bad) = invalid {
            let at = invalid_at.min(lines.len());
            lines.insert(at, bad);
        }
        let mut log = Vec::new();
        let count = lines.len();
        for (i, (line, ending)) in lines.iter().zip(endings.iter().cycle()).enumerate() {
            log.extend_from_slice(line);
            if i + 1 < count || last_open != 0 {
                log.extend_from_slice(if *ending == 0 { b"\r\n" } else { b"\n" });
            }
        }
        log
    }
}

/// The sample logs the mutations start from.
fn corpus() -> Vec<Vec<u8>> {
    let doc = ";MaxNodes: 64\n1 0 5 100 16 -1 -1 16 200 -1 1 1 1 1 1 1 -1 -1\n\
               2 30 0 50 8 -1 -1 8 60 -1 1 2 1 2 1 1 -1 -1\n";
    vec![
        SAMPLE.as_bytes().to_vec(),
        SAMPLE.replace('\n', "\r\n").into_bytes(),
        doc.as_bytes().to_vec(),
    ]
}

/// One byte edit: replace, insert, delete, or duplicate the following run.
fn mutate(bytes: &mut Vec<u8>, (at, byte, kind): (usize, u8, u8)) {
    let at = at % (bytes.len() + 1);
    match kind {
        0 if at < bytes.len() => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => {
            let run: Vec<u8> = bytes[at..]
                .iter()
                .take(usize::from(byte % 16))
                .copied()
                .collect();
            bytes.splice(at..at, run);
        }
    }
}

fn edit_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        0u8..=255,
        b'0'..=b'9',
        (0usize..12).prop_map(|i| b"\n \t\r\x0B\x0C;:-+.e"[i]),
        (0usize..4).prop_map(|i| [0xC3, 0xA9, 0xFF, 0x80][i]),
    ]
}

proptest! {
    #[test]
    fn record_iter_matches_the_reference_reader(
        log in arb_log(),
        opts in arb_opts(),
        interrupt in prop_oneof![Just(None), (0usize..1200).prop_map(Some)],
    ) {
        for capacity in CAPACITIES {
            check(&log, capacity, interrupt, opts);
        }
    }

    #[test]
    fn byte_mutations_of_the_sample_logs_match_the_reference_reader(
        sample in 0usize..3,
        edits in prop::collection::vec((0usize..4096, edit_byte(), 0u8..4), 1..6),
        opts in arb_opts(),
    ) {
        let mut bytes = corpus().swap_remove(sample);
        for edit in edits {
            mutate(&mut bytes, edit);
        }
        for capacity in CAPACITIES {
            check(&bytes, capacity, None, opts);
        }
    }
}

#[test]
fn interrupted_reads_are_retried() {
    let input = SAMPLE.as_bytes();
    for at in [0, 1, 40, input.len() - 1] {
        for capacity in CAPACITIES {
            let source = Interrupting {
                bytes: input,
                pos: 0,
                at: Some(at),
            };
            let got = RecordIter::new(
                BufReader::with_capacity(capacity, source),
                Default::default(),
            )
            .collect_log()
            .unwrap();
            assert_eq!(got, super::parse(SAMPLE).unwrap());
        }
    }
}
