//! Parsing of standard workload files.
//!
//! The textual format is deliberately simple (Section 2.3): comment lines start with
//! `;`, header comments use `;Label: value`, and every data line holds exactly 18
//! space separated integers with `-1` for unknown values. The parser offers a strict
//! mode that enforces the format exactly, and a lenient mode that tolerates common
//! deviations found in archive logs (extra whitespace, floating point tokens which
//! are truncated, unknown completion codes).
//!
//! Files are read by [`RecordIter`], one line at a time into a buffer it
//! reuses: its memory is the reader's buffer plus one line of at most
//! [`MAX_LINE_BYTES`] (a longer one is [`ParseError::LineTooLong`] naming it).
//! Each line is checked for UTF-8 (an invalid one is
//! [`ParseError::InvalidUtf8`] naming it). A data line is tokenized over its
//! bytes: a plain integer token (`-?[0-9]{1,18}`) is accumulated directly and
//! any other token goes through `str::parse`, so values and errors are those
//! of the standard library's parsers.

use crate::error::ParseError;
use crate::log::SwfLog;
use crate::record::{CompletionStatus, SwfRecord, FIELD_COUNT, UNKNOWN};
use crate::source::{JobSource, SourceMeta};
use std::io::{BufRead, Read};

/// Options controlling parser behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseOptions {
    /// In strict mode any deviation from the format is an error. In lenient mode the
    /// parser truncates fractional tokens, accepts unknown completion codes (mapping
    /// them to unknown), clamps other illegal negatives to unknown, and numbers a
    /// line whose job id is 0 or negative by its position among the data lines.
    pub strict: bool,
}

impl ParseOptions {
    /// Strict parsing: enforce the standard exactly.
    pub fn strict() -> Self {
        ParseOptions { strict: true }
    }
}

/// The longest line the trace readers ([`RecordIter`] and
/// [`RawStream`](crate::convert::RawStream)) accept, its `\n` included. An
/// 18-field SWF line needs under 1 KB; a longer line is
/// [`ParseError::LineTooLong`], so an input without newlines fails after this
/// many bytes instead of being read whole.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Append the next line of `reader`, through its `\n`, to `buf`, reading at
/// most [`MAX_LINE_BYTES`] + 1 bytes: a return value above [`MAX_LINE_BYTES`]
/// means the line is too long. 0 means the end of the input.
pub(crate) fn read_line_capped<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<usize> {
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)
}

/// Split a line into exactly `N` separator-delimited fields without touching
/// the heap: the hot path of every per-line parser in this crate iterates
/// borrowed `&str` slices into a fixed-size array instead of collecting a
/// vector. Returns `Err(found)` with the actual field count on mismatch.
pub(crate) fn split_exact<'a, const N: usize>(
    mut tokens: impl Iterator<Item = &'a str>,
) -> Result<[&'a str; N], usize> {
    let mut out = [""; N];
    let mut count = 0usize;
    for tok in tokens.by_ref() {
        if count == N {
            return Err(N + 1 + tokens.count());
        }
        out[count] = tok;
        count += 1;
    }
    if count == N {
        Ok(out)
    } else {
        Err(count)
    }
}

/// Parse a single data line (without comments) into a record.
///
/// `line_no` is used only for error reporting. In lenient mode fractional values are
/// truncated towards zero and out-of-range values map to unknown.
///
/// Fields are separated by ASCII whitespace. This is the tokenizer of every
/// data line [`RecordIter`] and [`parse_str`] read, and it allocates nothing
/// unless a line fails.
pub fn parse_record_line(
    line: &str,
    line_no: usize,
    opts: &ParseOptions,
) -> Result<SwfRecord, ParseError> {
    let mut raw = [UNKNOWN; FIELD_COUNT];
    let mut count = 0usize;
    let mut rest = line.as_bytes();
    while let [first, tail @ ..] = rest {
        if first.is_ascii_whitespace() {
            rest = tail;
            continue;
        }
        let field = count;
        count += 1;
        rest = match plain_integer(rest) {
            Some((value, after)) if field < FIELD_COUNT => {
                raw[field] = value;
                after
            }
            _ => {
                // The token is cut at ASCII bytes, so it is a str slice.
                let start = line.len() - rest.len();
                let len = rest
                    .iter()
                    .position(u8::is_ascii_whitespace)
                    .unwrap_or(rest.len());
                // A token after the last field is counted, never parsed.
                if field < FIELD_COUNT {
                    raw[field] = parse_token(&line[start..start + len], field, line_no, opts)?;
                }
                &rest[len..]
            }
        };
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

/// The most digits a plain integer token may have: any 18 digits fit an `i64`.
const PLAIN_DIGITS: usize = 18;

/// The plain integer token at the start of `bytes`, `-?[0-9]{1,18}` ending at
/// ASCII whitespace or the end of `bytes`: its value (the one
/// `str::parse::<i64>` gives) and the bytes after the token and its
/// terminator, or `None` for any other token.
#[inline]
fn plain_integer(bytes: &[u8]) -> Option<(i64, &[u8])> {
    let mut rest = bytes.iter();
    let mut b = *rest.next()?;
    let negative = b == b'-';
    if negative {
        b = *rest.next()?;
    }
    let mut digit = b.wrapping_sub(b'0');
    if digit > 9 {
        return None;
    }
    // Wrapping, so that a long token cannot overflow before it is counted;
    // up to PLAIN_DIGITS digits the value is exact.
    let mut value = 0u64;
    let mut digits = 0usize;
    loop {
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
        digits += 1;
        let Some(&b) = rest.next() else { break };
        digit = b.wrapping_sub(b'0');
        if digit > 9 {
            if !b.is_ascii_whitespace() {
                return None;
            }
            break;
        }
    }
    if digits > PLAIN_DIGITS {
        return None;
    }
    let value = value as i64;
    Some((if negative { -value } else { value }, rest.as_slice()))
}

/// Parse a token that is not a plain integer: `str::parse::<i64>`, then, in
/// lenient mode, a finite `f64` truncated towards zero.
fn parse_token(
    token: &str,
    field: usize,
    line_no: usize,
    opts: &ParseOptions,
) -> Result<i64, ParseError> {
    if let Ok(value) = token.parse::<i64>() {
        return Ok(value);
    }
    // Archive logs occasionally contain floating point seconds.
    match token.parse::<f64>() {
        Ok(f) if !opts.strict && f.is_finite() => Ok(f.trunc() as i64),
        _ => Err(ParseError::InvalidInteger {
            line: line_no,
            field,
            token: token.to_string(),
        }),
    }
}

fn validate_raw(
    raw: &[i64; FIELD_COUNT],
    line_no: usize,
    opts: &ParseOptions,
) -> Result<(), ParseError> {
    // Field 1 (job id) must be positive in strict mode.
    if opts.strict && raw[0] < 1 {
        return Err(ParseError::OutOfRange {
            line: line_no,
            field: 0,
            value: raw[0],
            legal: "job number >= 1",
        });
    }
    // Field 2 (submit time) must be non-negative in strict mode (the first submit is 0).
    if opts.strict && raw[1] < 0 {
        return Err(ParseError::OutOfRange {
            line: line_no,
            field: 1,
            value: raw[1],
            legal: "submit time >= 0",
        });
    }
    // Other fields: -1 or non-negative. In strict mode, other negatives are errors.
    if opts.strict {
        for (i, &v) in raw.iter().enumerate().skip(2) {
            if v < -1 {
                return Err(ParseError::OutOfRange {
                    line: line_no,
                    field: i,
                    value: v,
                    legal: ">= -1",
                });
            }
        }
        if CompletionStatus::from_code(raw[10]).is_none() {
            return Err(ParseError::OutOfRange {
                line: line_no,
                field: 10,
                value: raw[10],
                legal: "completion code in {-1,0,1,2,3,4,5}",
            });
        }
    }
    Ok(())
}

/// Classify a line of an SWF file.
enum Line<'a> {
    Blank,
    HeaderLabel { label: &'a str, value: &'a str },
    Comment(&'a str),
    Data(&'a str),
}

fn classify(line: &str) -> Line<'_> {
    let trimmed = line.trim_start();
    if trimmed.is_empty() {
        return Line::Blank;
    }
    if let Some(rest) = trimmed.strip_prefix(';') {
        // `;Label: value` header comment?
        if let Some(colon) = rest.find(':') {
            let label = rest[..colon].trim();
            let value = rest[colon + 1..].trim();
            if !label.is_empty() && !label.contains(char::is_whitespace) {
                return Line::HeaderLabel { label, value };
            }
        }
        return Line::Comment(rest.trim());
    }
    Line::Data(line)
}

/// The line-by-line parsing state machine behind [`RecordIter`]: classifies
/// each line, folds header comments into the [`crate::header::SwfHeader`]
/// carried by a [`SourceMeta`], and turns data lines into records.
struct LineParser {
    opts: ParseOptions,
    meta: SourceMeta,
    data_lines: usize,
}

impl LineParser {
    fn new(opts: ParseOptions) -> Self {
        LineParser {
            opts,
            meta: SourceMeta::named("swf"),
            data_lines: 0,
        }
    }

    /// Feed one input line; `Ok(Some(record))` for data lines, `Ok(None)` for
    /// header/comment/blank lines, and [`ParseError::InvalidUtf8`] for a line
    /// that is not UTF-8.
    fn feed(&mut self, line: &[u8], line_no: usize) -> Result<Option<SwfRecord>, ParseError> {
        let Ok(line) = std::str::from_utf8(line) else {
            return Err(ParseError::InvalidUtf8 { line: line_no });
        };
        match classify(line) {
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
                let mut rec = parse_record_line(text, line_no, &self.opts)?;
                // Only lenient mode gets here with id 0: strict mode rejects
                // a job id below 1.
                if rec.job_id == 0 {
                    rec.job_id = self.data_lines as u64;
                }
                Ok(Some(rec))
            }
        }
    }
}

/// A bounded-memory incremental SWF parser: reads one line at a time from any
/// [`BufRead`] and yields records as they are parsed, never holding more than
/// the current line, of at most [`MAX_LINE_BYTES`], in memory.
///
/// A longer line is [`ParseError::LineTooLong`] naming it, a line that is not
/// valid UTF-8 is [`ParseError::InvalidUtf8`] naming it, and a failed read is
/// [`ParseError::Io`].
///
/// `RecordIter` is the streaming half of the parser ([`parse_str`] and
/// [`parse_reader`] are thin collecting wrappers over it) and the file-backed
/// implementation of [`JobSource`]: `psbench stats` profiles multi-million-job
/// archive logs through it in O(chunk) memory. Header comments are folded into
/// [`JobSource::meta`] as they are encountered, so the header is complete once
/// the stream is drained. After the first error the iterator is fused and
/// yields nothing further.
///
/// ```
/// use psbench_swf::prelude::*;
///
/// let text = ";MaxNodes: 64\n1 0 5 100 16 -1 -1 16 200 -1 1 1 1 1 1 1 -1 -1\n";
/// let mut records = RecordIter::new(text.as_bytes(), ParseOptions::default());
/// let first = records.next_record().unwrap().unwrap();
/// assert_eq!(first.job_id, 1);
/// assert_eq!(records.meta().header.max_nodes, Some(64));
/// assert!(records.next_record().is_none());
/// ```
pub struct RecordIter<R> {
    reader: R,
    parser: LineParser,
    line_no: usize,
    buf: Vec<u8>,
    done: bool,
}

impl<R: BufRead> RecordIter<R> {
    /// Incrementally parse `reader` with the given options.
    pub fn new(reader: R, opts: ParseOptions) -> Self {
        RecordIter {
            reader,
            parser: LineParser::new(opts),
            line_no: 0,
            buf: Vec::new(),
            done: false,
        }
    }

    /// Set the display name carried in the stream's [`SourceMeta`].
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.parser.meta.name = name.into();
        self
    }

    /// 1-based number of the last line read (0 before the first read), for
    /// progress reporting on long streams. After an error it is the line the
    /// error names, if it names one.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    fn pull(&mut self) -> Option<Result<SwfRecord, ParseError>> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            let n = match read_line_capped(&mut self.reader, &mut self.buf) {
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
            let fed = if n > MAX_LINE_BYTES {
                Err(ParseError::LineTooLong { line: self.line_no })
            } else {
                self.parser.feed(&self.buf, self.line_no)
            };
            match fed {
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

impl<R: BufRead> JobSource for RecordIter<R> {
    fn meta(&self) -> &SourceMeta {
        &self.parser.meta
    }

    fn next_record(&mut self) -> Option<Result<SwfRecord, ParseError>> {
        self.pull()
    }
}

impl<R: BufRead> Iterator for RecordIter<R> {
    type Item = Result<SwfRecord, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.pull()
    }
}

/// Parse a complete SWF file from a string.
///
/// A thin collecting wrapper over [`RecordIter`]; the resulting [`SwfLog`] is
/// simply the materialized sink of the record stream.
pub fn parse_str(input: &str, opts: &ParseOptions) -> Result<SwfLog, ParseError> {
    RecordIter::new(input.as_bytes(), *opts).collect_log()
}

/// Parse a complete SWF file from any buffered reader, streaming line by line
/// through [`RecordIter`] (the input is never buffered whole).
pub fn parse_reader<R: BufRead>(reader: R, opts: &ParseOptions) -> Result<SwfLog, ParseError> {
    RecordIter::new(reader, *opts).collect_log()
}

/// Convenience: parse with default (lenient) options.
pub fn parse(input: &str) -> Result<SwfLog, ParseError> {
    parse_str(input, &ParseOptions::default())
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) const SAMPLE: &str = "\
;Computer: iPSC/860
;MaxNodes: 128
;Version: 2
;Note: runtimes are wallclock
; free-form comment
1 0 10 100 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1
2 30 -1 50 8 -1 -1 8 60 -1 0 2 1 2 0 1 -1 -1
3 60 5 200 32 -1 -1 32 300 -1 1 1 1 1 1 1 1 25
";

    #[test]
    fn parses_sample_log() {
        let log = parse(SAMPLE).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.header.computer.as_deref(), Some("iPSC/860"));
        assert_eq!(log.header.max_nodes, Some(128));
        assert_eq!(log.header.version, Some(2));
        assert_eq!(log.header.notes.len(), 1);
        assert_eq!(log.jobs[0].job_id, 1);
        assert_eq!(log.jobs[0].wait_time, Some(10));
        assert_eq!(log.jobs[0].run_time, Some(100));
        assert_eq!(log.jobs[0].allocated_procs, Some(16));
        assert_eq!(log.jobs[1].wait_time, None);
        assert_eq!(log.jobs[1].queue_id, Some(0));
        assert_eq!(log.jobs[2].preceding_job, Some(1));
        assert_eq!(log.jobs[2].think_time, Some(25));
    }

    #[test]
    fn strict_rejects_wrong_field_count() {
        let bad = "1 0 10 100 16 95 -1 16\n";
        let err = parse_str(bad, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::WrongFieldCount { found: 8, .. }));
    }

    #[test]
    fn strict_rejects_non_integer() {
        let bad = "1 0 10 1e2 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1\n";
        let err = parse_str(bad, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::InvalidInteger { field: 3, .. }));
    }

    #[test]
    fn lenient_truncates_floats() {
        let line = "1 0 10 100.7 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1";
        let rec = parse_record_line(line, 1, &ParseOptions::default()).unwrap();
        assert_eq!(rec.run_time, Some(100));
    }

    #[test]
    fn strict_rejects_bad_completion_code() {
        let bad = "1 0 10 100 16 95 -1 16 120 -1 9 1 1 1 1 1 -1 -1\n";
        let err = parse_str(bad, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::OutOfRange { field: 10, .. }));
        // lenient maps to unknown
        let log = parse(bad).unwrap();
        assert_eq!(log.jobs[0].status, CompletionStatus::Unknown);
    }

    #[test]
    fn strict_rejects_negative_submit() {
        let bad = "1 -5 10 100 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1\n";
        let err = parse_str(bad, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::OutOfRange { field: 1, .. }));
    }

    #[test]
    fn strict_rejects_zero_job_id() {
        let bad = "0 5 10 100 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1\n";
        let err = parse_str(bad, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::OutOfRange { field: 0, .. }));
    }

    #[test]
    fn lenient_assigns_missing_ids() {
        let input = "0 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n0 5 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";
        let log = parse(input).unwrap();
        assert_eq!(log.jobs[0].job_id, 1);
        assert_eq!(log.jobs[1].job_id, 2);
    }

    #[test]
    fn strict_rejects_extra_fields() {
        let bad = "1 0 10 100 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1 99\n";
        let err = parse_str(bad, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::WrongFieldCount { found: 19, .. }));
    }

    #[test]
    fn unknown_header_label_lenient_vs_strict() {
        let input = ";Weather: sunny\n1 0 10 100 16 95 -1 16 120 -1 1 1 1 1 1 1 -1 -1\n";
        let log = parse(input).unwrap();
        assert!(log
            .header
            .raw_lines
            .iter()
            .any(|l| l.label.as_deref() == Some("Weather")));
        let err = parse_str(input, &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, ParseError::UnknownHeaderLabel { .. }));
    }

    #[test]
    fn blank_lines_and_comments_ignored() {
        let input = "\n; a comment\n\n1 0 -1 10 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n\n";
        let log = parse(input).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn parse_reader_matches_parse_str() {
        let from_str = parse(SAMPLE).unwrap();
        let from_reader =
            parse_reader(std::io::Cursor::new(SAMPLE), &ParseOptions::default()).unwrap();
        assert_eq!(from_str, from_reader);
    }

    #[test]
    fn unknown_sentinel_maps_to_none_everywhere() {
        let line = "5 9 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1";
        let rec = parse_record_line(line, 1, &ParseOptions::strict()).unwrap();
        assert_eq!(rec.job_id, 5);
        assert_eq!(rec.submit_time, 9);
        assert_eq!(rec.to_raw()[2..], [UNKNOWN; 16]);
    }

    #[test]
    fn split_exact_counts_fields_without_allocating() {
        assert_eq!(
            split_exact::<3>("a b c".split_ascii_whitespace()),
            Ok(["a", "b", "c"])
        );
        assert_eq!(split_exact::<3>("a b".split_ascii_whitespace()), Err(2));
        assert_eq!(split_exact::<2>("a b c d".split_ascii_whitespace()), Err(4));
        assert_eq!(split_exact::<2>("x|y".split('|')), Ok(["x", "y"]));
    }

    #[test]
    fn record_iter_streams_the_sample_identically_to_parse_str() {
        let log = parse(SAMPLE).unwrap();
        let mut iter = RecordIter::new(SAMPLE.as_bytes(), ParseOptions::default());
        for expected in &log.jobs {
            let got = iter.next_record().unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert!(iter.next_record().is_none());
        // The header is complete once the stream is drained.
        assert_eq!(iter.meta().header, log.header);
        assert_eq!(iter.line_no(), SAMPLE.lines().count());
    }

    #[test]
    fn record_iter_collects_into_the_same_log() {
        let collected = RecordIter::new(SAMPLE.as_bytes(), ParseOptions::default())
            .with_name("sample")
            .collect_log()
            .unwrap();
        assert_eq!(collected, parse(SAMPLE).unwrap());
    }

    #[test]
    fn record_iter_is_fused_after_an_error() {
        let bad = "1 0 10 100 16 95 -1 16\n2 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";
        let mut iter = RecordIter::new(bad.as_bytes(), ParseOptions::strict());
        let err = iter.next_record().unwrap().unwrap_err();
        assert!(matches!(err, ParseError::WrongFieldCount { line: 1, .. }));
        assert!(iter.next_record().is_none());
        assert!(iter.next_record().is_none());
    }

    #[test]
    fn an_overlong_line_is_an_error_naming_it() {
        // An input without newlines fails once the cap is passed.
        let endless = std::io::BufReader::new(std::io::repeat(b'1'));
        let mut iter = RecordIter::new(endless, ParseOptions::default());
        let err = iter.next_record().unwrap().unwrap_err();
        assert_eq!(err, ParseError::LineTooLong { line: 1 });
        assert_eq!(err.to_string(), "line 1: longer than 65536 bytes");
        assert_eq!(iter.line_no(), 1);
        assert!(iter.next_record().is_none());
        // A line of exactly MAX_LINE_BYTES, its newline included, is read;
        // one byte more is not.
        let data = "1 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";
        let blank = |len: usize| format!("{}\n", " ".repeat(len - 1));
        let input = [
            data,
            &blank(MAX_LINE_BYTES),
            &blank(MAX_LINE_BYTES + 1),
            data,
        ]
        .concat();
        for capacity in [7, 8192] {
            let reader = std::io::BufReader::with_capacity(capacity, input.as_bytes());
            let mut iter = RecordIter::new(reader, ParseOptions::default());
            assert_eq!(iter.next_record().unwrap().unwrap().job_id, 1);
            assert_eq!(
                iter.next_record().unwrap().unwrap_err(),
                ParseError::LineTooLong { line: 3 }
            );
            assert!(iter.next_record().is_none());
        }
    }

    #[test]
    fn record_iter_handles_crlf_line_endings() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        let a = RecordIter::new(crlf.as_bytes(), ParseOptions::default())
            .collect_log()
            .unwrap();
        let b = parse(SAMPLE).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.header.max_nodes, b.header.max_nodes);
    }

    #[test]
    fn record_iter_assigns_missing_ids_like_parse_str() {
        let input = "0 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n0 5 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";
        let ids: Vec<u64> = RecordIter::new(input.as_bytes(), ParseOptions::default())
            .map(|r| r.unwrap().job_id)
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn invalid_utf8_names_its_line() {
        let input = b"1 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n\xff\n";
        for capacity in [1, 8192] {
            let reader = std::io::BufReader::with_capacity(capacity, &input[..]);
            let mut iter = RecordIter::new(reader, ParseOptions::default());
            assert_eq!(iter.next_record().unwrap().unwrap().job_id, 1);
            let err = iter.next_record().unwrap().unwrap_err();
            assert_eq!(err, ParseError::InvalidUtf8 { line: 2 });
            assert_eq!(err.to_string(), "line 2: invalid UTF-8");
            assert_eq!(iter.line_no(), 2);
            assert!(iter.next_record().is_none());
        }
        // A comment is checked too, and a valid non-ASCII line is not an error.
        let mut iter = RecordIter::new(&b"; caf\xc3\xa9\n; caf\xc3\n"[..], ParseOptions::default());
        assert_eq!(
            iter.next_record().unwrap().unwrap_err(),
            ParseError::InvalidUtf8 { line: 2 }
        );
        assert_eq!(iter.meta().header.raw_lines[0].text, "café");
    }

    #[test]
    fn plain_integer_tokens_read_as_str_parse_reads_them() {
        for token in [
            "0",
            "-0",
            "007",
            "-1",
            "123456789012345678",
            "-999999999999999999",
        ] {
            let (value, rest) = plain_integer(token.as_bytes()).unwrap();
            assert_eq!(value, token.parse::<i64>().unwrap(), "{token}");
            assert!(rest.is_empty());
        }
        // Anything else is left to `str::parse`.
        for token in [
            "",
            "-",
            "+1",
            "1234567890123456789",
            "1.5",
            "5-",
            "1\u{b}",
            "--1",
        ] {
            assert_eq!(plain_integer(token.as_bytes()), None, "{token:?}");
        }
        assert_eq!(plain_integer(b"42\t7"), Some((42, &b"7"[..])));
    }

    #[test]
    fn header_comment_without_space_after_colon() {
        let input = ";MaxNodes:64\n1 0 -1 10 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        let log = parse(input).unwrap();
        assert_eq!(log.header.max_nodes, Some(64));
    }
}
