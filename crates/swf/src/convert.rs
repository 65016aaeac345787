//! Conversion of raw accounting-log dialects into the standard workload format.
//!
//! Section 2.1 of the paper observes that "most parallel supercomputers maintain
//! accounting logs" whose fields "appear in different orders and formats", and the
//! standard format exists exactly so such logs can be used interchangeably. This
//! module implements converters for four raw dialects modelled on the systems the
//! paper cites (NASA Ames iPSC/860, SDSC Paragon, CTC SP2, LANL CM-5). The dialects
//! themselves are synthetic — we do not ship archive data — but they exercise the
//! conversion pipeline the standard requires: heterogeneous field orders, separators
//! and units in, one clean anonymized SWF out.

use crate::anonymize::AnonymizationKey;
use crate::error::{ConvertError, ParseError};
use crate::header::{SwfHeader, FORMAT_VERSION};
use crate::parse::{read_line_capped, MAX_LINE_BYTES};
use crate::record::{CompletionStatus, SwfRecord};
use serde::{Deserialize, Serialize};

/// The raw accounting-log dialects understood by the converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dialect {
    /// NASA Ames iPSC/860 style: whitespace separated
    /// `jobid user exe nodes submit_epoch start_epoch runtime status`.
    NasaIpsc,
    /// SDSC Paragon style: pipe separated
    /// `jobid|user|group|queue|partition|submit|start|end|nodes|cpu_secs|mem_kb|status`.
    SdscParagon,
    /// CTC SP2 / LoadLeveler style: `key=value` pairs, one job per line, e.g.
    /// `job=12 user=u4 group=g1 class=batch submit=100 start=160 end=400 procs=16 wall_req=3600 mem_req=65536 completion=ok`.
    CtcSp2,
    /// LANL CM-5 style: comma separated
    /// `jobid,user,group,exe,partition_size,submit,start,end,avg_cpu,mem_kb,outcome`.
    LanlCm5,
}

impl Dialect {
    /// All dialects, for iteration in tests and benchmarks.
    pub fn all() -> &'static [Dialect] {
        &[
            Dialect::NasaIpsc,
            Dialect::SdscParagon,
            Dialect::CtcSp2,
            Dialect::LanlCm5,
        ]
    }

    /// A short human readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Dialect::NasaIpsc => "nasa-ipsc860",
            Dialect::SdscParagon => "sdsc-paragon",
            Dialect::CtcSp2 => "ctc-sp2",
            Dialect::LanlCm5 => "lanl-cm5",
        }
    }

    /// The machine description recorded in the converted header.
    pub fn computer(&self) -> &'static str {
        match self {
            Dialect::NasaIpsc => "Intel iPSC/860",
            Dialect::SdscParagon => "Intel Paragon",
            Dialect::CtcSp2 => "IBM SP2",
            Dialect::LanlCm5 => "Thinking Machines CM-5",
        }
    }
}

/// Options for conversion.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvertOptions {
    /// If true, any malformed raw record aborts conversion; otherwise it is skipped
    /// and counted.
    pub strict: bool,
}

/// An intermediate, dialect-independent raw job used internally by the converters.
#[derive(Debug, Clone, Default)]
struct RawJob {
    user: Option<String>,
    group: Option<String>,
    executable: Option<String>,
    queue: Option<String>,
    partition: Option<String>,
    submit: i64,
    start: Option<i64>,
    end: Option<i64>,
    runtime: Option<i64>,
    procs: Option<u32>,
    cpu_secs: Option<i64>,
    mem_kb: Option<i64>,
    req_procs: Option<u32>,
    req_time: Option<i64>,
    req_mem_kb: Option<i64>,
    completed: Option<bool>,
    interactive: bool,
}

impl RawJob {
    fn into_record(self, job_id: u64) -> SwfRecord {
        let wait = match (self.start, Some(self.submit)) {
            (Some(s), Some(sub)) if s >= sub => Some(s - sub),
            _ => None,
        };
        let run = match (self.runtime, self.start, self.end) {
            (Some(r), _, _) => Some(r),
            (None, Some(s), Some(e)) if e >= s => Some(e - s),
            _ => None,
        };
        SwfRecord {
            job_id,
            submit_time: self.submit,
            wait_time: wait,
            run_time: run,
            allocated_procs: self.procs,
            avg_cpu_time: self.cpu_secs,
            used_memory_kb: self.mem_kb,
            requested_procs: self.req_procs.or(self.procs),
            requested_time: self.req_time,
            requested_memory_kb: self.req_mem_kb,
            status: match self.completed {
                Some(true) => CompletionStatus::Completed,
                Some(false) => CompletionStatus::Failed,
                None => CompletionStatus::Unknown,
            },
            // Identifier fields stay None here; the caller maps them through
            // its AnonymizationKey.
            user_id: None,
            group_id: None,
            executable_id: None,
            queue_id: if self.interactive { Some(0) } else { None },
            partition_id: None,
            preceding_job: None,
            think_time: None,
        }
    }
}

fn parse_i64(tok: &str, line: usize) -> Result<i64, ConvertError> {
    tok.trim()
        .parse::<i64>()
        .or_else(|_| tok.trim().parse::<f64>().map(|f| f.trunc() as i64))
        .map_err(|_| ConvertError::BadTimestamp {
            line,
            token: tok.to_string(),
        })
}

fn parse_u32(tok: &str, line: usize) -> Result<u32, ConvertError> {
    parse_i64(tok, line).map(|v| v.max(0) as u32)
}

fn parse_nasa(line: &str, line_no: usize) -> Result<RawJob, ConvertError> {
    // jobid user exe nodes submit_epoch start_epoch runtime status
    let f = crate::parse::split_exact::<8>(line.split_ascii_whitespace()).map_err(|found| {
        ConvertError::MalformedRecord {
            line: line_no,
            reason: format!("expected 8 fields, found {found}"),
        }
    })?;
    Ok(RawJob {
        user: Some(f[1].to_string()),
        executable: Some(f[2].to_string()),
        procs: Some(parse_u32(f[3], line_no)?),
        submit: parse_i64(f[4], line_no)?,
        start: Some(parse_i64(f[5], line_no)?),
        runtime: Some(parse_i64(f[6], line_no)?),
        completed: Some(f[7] == "ok" || f[7] == "0"),
        ..RawJob::default()
    })
}

fn parse_paragon(line: &str, line_no: usize) -> Result<RawJob, ConvertError> {
    // jobid|user|group|queue|partition|submit|start|end|nodes|cpu_secs|mem_kb|status
    let f = crate::parse::split_exact::<12>(line.split('|')).map_err(|found| {
        ConvertError::MalformedRecord {
            line: line_no,
            reason: format!("expected 12 pipe-separated fields, found {found}"),
        }
    })?;
    let queue = f[3].trim().to_string();
    Ok(RawJob {
        user: Some(f[1].trim().to_string()),
        group: Some(f[2].trim().to_string()),
        interactive: queue.eq_ignore_ascii_case("interactive"),
        queue: Some(queue),
        partition: Some(f[4].trim().to_string()),
        submit: parse_i64(f[5], line_no)?,
        start: Some(parse_i64(f[6], line_no)?),
        end: Some(parse_i64(f[7], line_no)?),
        procs: Some(parse_u32(f[8], line_no)?),
        cpu_secs: Some(parse_i64(f[9], line_no)?),
        mem_kb: Some(parse_i64(f[10], line_no)?),
        completed: Some(f[11].trim() == "C"),
        ..RawJob::default()
    })
}

fn parse_sp2(line: &str, line_no: usize) -> Result<RawJob, ConvertError> {
    // key=value pairs
    let mut job = RawJob::default();
    let mut saw_submit = false;
    for pair in line.split_whitespace() {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| ConvertError::MalformedRecord {
                line: line_no,
                reason: format!("token {pair:?} is not key=value"),
            })?;
        match key {
            "job" => {}
            "user" => job.user = Some(value.to_string()),
            "group" => job.group = Some(value.to_string()),
            "class" => {
                job.interactive = value.eq_ignore_ascii_case("interactive");
                job.queue = Some(value.to_string());
            }
            "submit" => {
                job.submit = parse_i64(value, line_no)?;
                saw_submit = true;
            }
            "start" => job.start = Some(parse_i64(value, line_no)?),
            "end" => job.end = Some(parse_i64(value, line_no)?),
            "procs" => job.procs = Some(parse_u32(value, line_no)?),
            "req_procs" => job.req_procs = Some(parse_u32(value, line_no)?),
            "wall_req" => job.req_time = Some(parse_i64(value, line_no)?),
            "mem_req" => job.req_mem_kb = Some(parse_i64(value, line_no)?),
            "mem_used" => job.mem_kb = Some(parse_i64(value, line_no)?),
            "cpu" => job.cpu_secs = Some(parse_i64(value, line_no)?),
            "completion" => job.completed = Some(value == "ok"),
            "exe" => job.executable = Some(value.to_string()),
            _ => {
                // Unknown keys are tolerated: raw logs have "other less-standard fields".
            }
        }
    }
    if !saw_submit {
        return Err(ConvertError::MalformedRecord {
            line: line_no,
            reason: "missing submit= field".to_string(),
        });
    }
    Ok(job)
}

fn parse_cm5(line: &str, line_no: usize) -> Result<RawJob, ConvertError> {
    // jobid,user,group,exe,partition_size,submit,start,end,avg_cpu,mem_kb,outcome
    let f = crate::parse::split_exact::<11>(line.split(',')).map_err(|found| {
        ConvertError::MalformedRecord {
            line: line_no,
            reason: format!("expected 11 comma-separated fields, found {found}"),
        }
    })?;
    // The CM-5 allocated fixed power-of-two partitions; the partition size doubles as
    // the processor count and the partition identity.
    let psize = parse_u32(f[4], line_no)?;
    Ok(RawJob {
        user: Some(f[1].trim().to_string()),
        group: Some(f[2].trim().to_string()),
        executable: Some(f[3].trim().to_string()),
        partition: Some(format!("p{psize}")),
        procs: Some(psize),
        submit: parse_i64(f[5], line_no)?,
        start: Some(parse_i64(f[6], line_no)?),
        end: Some(parse_i64(f[7], line_no)?),
        cpu_secs: Some(parse_i64(f[8], line_no)?),
        mem_kb: Some(parse_i64(f[9], line_no)?),
        completed: Some(f[10].trim() == "success"),
        ..RawJob::default()
    })
}

/// Parse one (trimmed, non-comment) raw line in the given dialect.
fn parse_raw_line(line: &str, dialect: Dialect, line_no: usize) -> Result<RawJob, ConvertError> {
    match dialect {
        Dialect::NasaIpsc => parse_nasa(line, line_no),
        Dialect::SdscParagon => parse_paragon(line, line_no),
        Dialect::CtcSp2 => parse_sp2(line, line_no),
        Dialect::LanlCm5 => parse_cm5(line, line_no),
    }
}

/// True for lines the converter ignores entirely: blanks and comments.
fn is_raw_comment(trimmed: &str) -> bool {
    trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with(';')
}

/// Build the converted log's header, known in full before any record.
fn converted_header(dialect: Dialect, max_nodes: u32) -> SwfHeader {
    let mut header = SwfHeader {
        computer: Some(dialect.computer().to_string()),
        conversion: Some("psbench raw-log converter".to_string()),
        version: Some(FORMAT_VERSION),
        max_nodes: Some(max_nodes),
        ..SwfHeader::default()
    };
    header.notes.push(format!(
        "Converted from synthetic {} dialect",
        dialect.name()
    ));
    header
}

/// Default reorder window of [`RawStream`]: how many records of submit-time
/// disorder the streaming converter absorbs (raw logs are commonly in
/// end-time order, where local disorder is bounded by queue depth).
pub const DEFAULT_REORDER_WINDOW: usize = 8_192;

/// Per-record queued entry of the reorder window, min-ordered by
/// `(submit, input sequence)` — exactly the order a stable
/// `sort_by_key(submit)` of the whole log gives.
struct Pending {
    submit: i64,
    seq: u64,
    job: RawJob,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.submit, self.seq) == (other.submit, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.submit, self.seq).cmp(&(other.submit, other.seq))
    }
}

/// Cleaning counters of a streaming conversion — the subset of
/// [`CleaningReport`](crate::validate::CleaningReport) a record-at-a-time
/// pass can observe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Raw lines skipped as unparseable (lenient mode only).
    pub skipped: usize,
    /// Hopeless records dropped (no processor count at all).
    pub dropped: usize,
    /// Processor fields clamped to `MaxNodes`.
    pub clamped_procs: usize,
    /// CPU times clamped to the wall-clock runtime.
    pub clamped_cpu: usize,
    /// Missing runtimes filled in from CPU time.
    pub filled_runtimes: usize,
}

/// A streaming raw-dialect converter: a [`JobSource`](crate::source::JobSource)
/// that reads raw accounting-log lines from any [`BufRead`](std::io::BufRead)
/// and yields clean, anonymized,
/// renumbered SWF records in bounded memory.
///
/// Memory is bounded by the reorder window (a min-heap of at most
/// `window` + 1 raw jobs) plus one line of at most
/// [`MAX_LINE_BYTES`] — never the whole log. A
/// longer line is [`ParseError::LineTooLong`] naming it, and a line that is
/// not UTF-8 is [`ParseError::InvalidUtf8`] naming it. Within
/// that window the stream is **record-for-record identical** to converting
/// the whole log at once (stable sort by submit, rebase to the first kept
/// submit, anonymization ids assigned in sorted order over *all* records
/// including later-dropped ones, job ids `1..m` over kept records, then
/// [`clean`](crate::validate::clean)): the tests hold it to such a
/// materialized reference converter, per dialect. Input more disordered than
/// the window fails with [`ConvertError::WindowExceeded`] rather than
/// yielding an unsorted log.
///
/// The header must be fully known up front (the whole point is emitting it
/// before the records), so `max_nodes` is required.
pub struct RawStream<R: std::io::BufRead> {
    reader: Option<R>,
    dialect: Dialect,
    strict: bool,
    window: usize,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<Pending>>,
    meta: crate::source::SourceMeta,
    key: AnonymizationKey,
    report: StreamReport,
    max_nodes: u32,
    /// 1-based raw line number, for error messages.
    line_no: usize,
    /// Input-order tiebreak counter.
    seq: u64,
    /// Raw records successfully parsed (incl. later-dropped ones).
    parsed: u64,
    /// Submit time of the first *kept* record: the rebase origin.
    base: Option<i64>,
    /// Next SWF job id (kept records only, so ids are 1..m).
    next_id: u64,
    /// Submit of the previously emitted record, to detect window overflow.
    last_submit: Option<i64>,
    /// Set after a terminal error or the EmptyLog report.
    failed: bool,
    line: Vec<u8>,
}

impl<R: std::io::BufRead> RawStream<R> {
    /// Stream-convert `reader` with the [`DEFAULT_REORDER_WINDOW`].
    pub fn new(
        name: impl Into<String>,
        reader: R,
        dialect: Dialect,
        max_nodes: u32,
        opts: &ConvertOptions,
    ) -> Self {
        Self::with_window(
            name,
            reader,
            dialect,
            max_nodes,
            opts,
            DEFAULT_REORDER_WINDOW,
        )
    }

    /// Stream-convert with an explicit reorder window (in records).
    pub fn with_window(
        name: impl Into<String>,
        reader: R,
        dialect: Dialect,
        max_nodes: u32,
        opts: &ConvertOptions,
        window: usize,
    ) -> Self {
        RawStream {
            reader: Some(reader),
            dialect,
            strict: opts.strict,
            window: window.max(1),
            heap: std::collections::BinaryHeap::new(),
            meta: crate::source::SourceMeta {
                name: name.into(),
                header: converted_header(dialect, max_nodes),
            },
            key: AnonymizationKey::default(),
            report: StreamReport::default(),
            max_nodes,
            line_no: 0,
            seq: 0,
            parsed: 0,
            base: None,
            next_id: 1,
            last_submit: None,
            failed: false,
            line: Vec::new(),
        }
    }

    /// The anonymization key accumulated so far (complete once the stream is
    /// drained).
    pub fn key(&self) -> &AnonymizationKey {
        &self.key
    }

    /// Cleaning counters so far (complete once the stream is drained).
    pub fn report(&self) -> StreamReport {
        self.report
    }

    /// Pull raw lines until the reorder window is full or input is exhausted.
    fn fill(&mut self) -> Result<(), ParseError> {
        while self.heap.len() < self.window {
            let Some(reader) = self.reader.as_mut() else {
                return Ok(());
            };
            self.line.clear();
            let n = read_line_capped(reader, &mut self.line).map_err(|e| {
                ConvertError::MalformedRecord {
                    line: self.line_no + 1,
                    reason: format!("i/o error: {e}"),
                }
            })?;
            if n == 0 {
                self.reader = None;
                return Ok(());
            }
            self.line_no += 1;
            if n > MAX_LINE_BYTES {
                return Err(ParseError::LineTooLong { line: self.line_no });
            }
            let Ok(text) = std::str::from_utf8(&self.line) else {
                return Err(ParseError::InvalidUtf8 { line: self.line_no });
            };
            let trimmed = text.trim();
            if is_raw_comment(trimmed) {
                continue;
            }
            match parse_raw_line(trimmed, self.dialect, self.line_no) {
                Ok(job) => {
                    self.parsed += 1;
                    self.heap.push(std::cmp::Reverse(Pending {
                        submit: job.submit,
                        seq: self.seq,
                        job,
                    }));
                    self.seq += 1;
                }
                Err(e) => {
                    if self.strict {
                        return Err(e.into());
                    }
                    self.report.skipped += 1;
                }
            }
        }
        Ok(())
    }

    /// Turn the next pending raw job into a clean SWF record; `None` when it
    /// is dropped as hopeless.
    fn emit(&mut self, mut rj: RawJob) -> Result<Option<SwfRecord>, ConvertError> {
        // Anonymize *before* the hopeless check: converting the whole log
        // maps identifiers over every sorted record and only then cleans, so
        // skipping dropped records here would shift every later id.
        let user = rj.user.take().map(|u| self.key.users.map(&u));
        let group = rj.group.take().map(|g| self.key.groups.map(&g));
        let exe = rj.executable.take().map(|e| self.key.executables.map(&e));
        let interactive = rj.interactive;
        let queue = if interactive {
            rj.queue = None;
            Some(0)
        } else {
            rj.queue.take().map(|q| self.key.queues.map(&q))
        };
        let partition = rj.partition.take().map(|p| self.key.partitions.map(&p));

        if rj.procs.is_none() && rj.req_procs.is_none() {
            // A summary record with no processor count: clean() drops these.
            self.report.dropped += 1;
            return Ok(None);
        }
        if self.last_submit.is_some_and(|prev| rj.submit < prev) {
            return Err(ConvertError::WindowExceeded {
                window: self.window,
            });
        }
        self.last_submit = Some(rj.submit);
        let base = *self.base.get_or_insert(rj.submit);
        rj.submit -= base;
        if let Some(s) = rj.start.as_mut() {
            *s -= base;
        }
        if let Some(e) = rj.end.as_mut() {
            *e -= base;
        }
        let mut rec = rj.into_record(self.next_id);
        self.next_id += 1;
        rec.user_id = user;
        rec.group_id = group;
        rec.executable_id = exe;
        rec.queue_id = queue;
        rec.partition_id = partition;

        // The per-record half of validate::clean(), verbatim.
        if let Some(p) = rec.requested_procs {
            if p > self.max_nodes {
                rec.requested_procs = Some(self.max_nodes);
                self.report.clamped_procs += 1;
            }
        }
        if let Some(p) = rec.allocated_procs {
            if p > self.max_nodes {
                rec.allocated_procs = Some(self.max_nodes);
                self.report.clamped_procs += 1;
            }
        }
        if let (Some(c), Some(r)) = (rec.avg_cpu_time, rec.run_time) {
            if c > r {
                rec.avg_cpu_time = Some(r);
                self.report.clamped_cpu += 1;
            }
        }
        if rec.run_time.is_none()
            && rec.status != CompletionStatus::Cancelled
            && rec.status != CompletionStatus::Unknown
        {
            rec.run_time = Some(rec.avg_cpu_time.unwrap_or(0));
            self.report.filled_runtimes += 1;
        }
        Ok(Some(rec))
    }
}

impl<R: std::io::BufRead> crate::source::JobSource for RawStream<R> {
    fn meta(&self) -> &crate::source::SourceMeta {
        &self.meta
    }

    fn next_record(&mut self) -> Option<Result<SwfRecord, ParseError>> {
        if self.failed {
            return None;
        }
        loop {
            if let Err(e) = self.fill() {
                self.failed = true;
                return Some(Err(e));
            }
            let Some(std::cmp::Reverse(pending)) = self.heap.pop() else {
                if self.parsed == 0 {
                    // An input with no parseable record is an error,
                    // reported once.
                    self.failed = true;
                    return Some(Err(ConvertError::EmptyLog.into()));
                }
                return None;
            };
            match self.emit(pending.job) {
                Ok(Some(rec)) => return Some(Ok(rec)),
                Ok(None) => continue,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::SwfLog;
    use crate::validate::{clean, validate};

    /// What [`convert`] produces: the clean log, its anonymization key and
    /// the number of raw lines skipped as unparseable.
    #[derive(Debug)]
    struct Conversion {
        log: SwfLog,
        key: AnonymizationKey,
        skipped: usize,
    }

    /// The materialized converter [`RawStream`] is checked against: parse
    /// every raw line, stable-sort by submit, rebase to the first submit,
    /// anonymize in sorted order, then [`clean`] the whole log.
    fn convert(
        raw: &str,
        dialect: Dialect,
        max_nodes: u32,
        opts: &ConvertOptions,
    ) -> Result<Conversion, ConvertError> {
        let mut raw_jobs: Vec<RawJob> = Vec::new();
        let mut skipped = 0usize;
        for (i, line) in raw.lines().enumerate() {
            let trimmed = line.trim();
            if is_raw_comment(trimmed) {
                continue;
            }
            match parse_raw_line(trimmed, dialect, i + 1) {
                Ok(j) => raw_jobs.push(j),
                Err(e) if opts.strict => return Err(e),
                Err(_) => skipped += 1,
            }
        }
        if raw_jobs.is_empty() {
            return Err(ConvertError::EmptyLog);
        }
        raw_jobs.sort_by_key(|j| j.submit);
        let base = raw_jobs[0].submit;
        let mut key = AnonymizationKey::default();
        let mut jobs: Vec<SwfRecord> = Vec::with_capacity(raw_jobs.len());
        for (idx, mut rj) in raw_jobs.into_iter().enumerate() {
            rj.submit -= base;
            if let Some(s) = rj.start.as_mut() {
                *s -= base;
            }
            if let Some(e) = rj.end.as_mut() {
                *e -= base;
            }
            let user = rj.user.clone();
            let group = rj.group.clone();
            let exe = rj.executable.clone();
            let queue = rj.queue.clone();
            let partition = rj.partition.clone();
            let interactive = rj.interactive;
            let mut rec = rj.into_record(idx as u64 + 1);
            rec.user_id = user.map(|u| key.users.map(&u));
            rec.group_id = group.map(|g| key.groups.map(&g));
            rec.executable_id = exe.map(|e| key.executables.map(&e));
            rec.queue_id = if interactive {
                Some(0)
            } else {
                queue.map(|q| key.queues.map(&q))
            };
            rec.partition_id = partition.map(|p| key.partitions.map(&p));
            jobs.push(rec);
        }
        let mut log = SwfLog::new(converted_header(dialect, max_nodes), jobs);
        clean(&mut log);
        Ok(Conversion { log, key, skipped })
    }

    const NASA: &str = "\
# jobid user exe nodes submit start runtime status
1 alice cfd_solver 32 1000 1010 600 ok
2 bob qcd 64 1100 1200 1200 ok
3 alice cfd_solver 32 1300 2410 30 failed
";

    const PARAGON: &str = "\
101|u12|g3|batch|main|5000|5100|5700|16|550|32768|C
102|u13|g3|interactive|main|5050|5055|5075|1|18|4096|C
103|u12|g4|batch|io|5200|5900|6900|64|980|65536|F
";

    const SP2: &str = "\
job=1 user=u1 group=g1 class=batch submit=100 start=160 end=400 procs=16 req_procs=16 wall_req=3600 mem_req=65536 completion=ok
job=2 user=u2 group=g1 class=interactive submit=150 start=152 end=200 procs=1 wall_req=600 completion=ok
job=3 user=u1 group=g2 class=batch submit=300 start=500 end=5500 procs=128 wall_req=7200 completion=removed
";

    const CM5: &str = "\
1,u_a,grp1,shallow_water,32,0,5,905,880,120000,success
2,u_b,grp1,qcd,512,60,1000,5000,3900,800000,success
3,u_a,grp2,shallow_water,32,100,905,1000,90,100000,failure
";

    #[test]
    fn converts_nasa_dialect() {
        let c = convert(NASA, Dialect::NasaIpsc, 128, &ConvertOptions::default()).unwrap();
        assert_eq!(c.log.len(), 3);
        assert_eq!(c.skipped, 0);
        assert!(validate(&c.log).is_clean());
        assert_eq!(c.log.jobs[0].submit_time, 0);
        assert_eq!(c.log.jobs[0].wait_time, Some(10));
        assert_eq!(c.log.jobs[0].run_time, Some(600));
        assert_eq!(c.log.jobs[0].allocated_procs, Some(32));
        assert_eq!(c.log.jobs[0].status, CompletionStatus::Completed);
        assert_eq!(c.log.jobs[2].status, CompletionStatus::Failed);
        // alice and bob are two users, in order of first appearance
        assert_eq!(c.key.users.len(), 2);
        assert_eq!(c.key.users.original(1), Some("alice"));
        assert_eq!(c.log.jobs[0].user_id, Some(1));
        assert_eq!(c.log.jobs[1].user_id, Some(2));
        assert_eq!(c.log.header.computer.as_deref(), Some("Intel iPSC/860"));
    }

    #[test]
    fn converts_paragon_dialect() {
        let c = convert(
            PARAGON,
            Dialect::SdscParagon,
            416,
            &ConvertOptions::default(),
        )
        .unwrap();
        assert_eq!(c.log.len(), 3);
        assert!(validate(&c.log).is_clean());
        // interactive job mapped to queue 0
        assert_eq!(c.log.jobs[1].queue_id, Some(0));
        assert_eq!(c.log.jobs[0].queue_id, Some(1));
        // runtime derived from end-start
        assert_eq!(c.log.jobs[0].run_time, Some(600));
        assert_eq!(c.log.jobs[0].used_memory_kb, Some(32768));
        assert_eq!(c.log.jobs[2].status, CompletionStatus::Failed);
        assert_eq!(c.key.partitions.len(), 2);
    }

    #[test]
    fn converts_sp2_dialect() {
        let c = convert(SP2, Dialect::CtcSp2, 430, &ConvertOptions::default()).unwrap();
        assert_eq!(c.log.len(), 3);
        assert!(validate(&c.log).is_clean());
        assert_eq!(c.log.jobs[0].requested_time, Some(3600));
        assert_eq!(c.log.jobs[0].requested_memory_kb, Some(65536));
        assert_eq!(c.log.jobs[1].queue_id, Some(0));
        assert_eq!(c.log.jobs[2].status, CompletionStatus::Failed);
    }

    #[test]
    fn converts_cm5_dialect() {
        let c = convert(CM5, Dialect::LanlCm5, 1024, &ConvertOptions::default()).unwrap();
        assert_eq!(c.log.len(), 3);
        assert!(validate(&c.log).is_clean());
        assert_eq!(c.log.jobs[0].allocated_procs, Some(32));
        assert_eq!(c.log.jobs[1].allocated_procs, Some(512));
        // cpu time clamped to runtime by the cleaner when necessary; here 880 <= 900
        assert_eq!(c.log.jobs[0].avg_cpu_time, Some(880));
        assert_eq!(c.key.executables.len(), 2);
        // partitions named after their size
        assert_eq!(c.key.partitions.original(1), Some("p32"));
    }

    #[test]
    fn lenient_skips_garbage_strict_rejects() {
        let noisy = format!("{NASA}\nthis line is garbage\n");
        let c = convert(&noisy, Dialect::NasaIpsc, 128, &ConvertOptions::default()).unwrap();
        assert_eq!(c.log.len(), 3);
        assert_eq!(c.skipped, 1);
        let err = convert(
            &noisy,
            Dialect::NasaIpsc,
            128,
            &ConvertOptions { strict: true },
        )
        .unwrap_err();
        assert!(matches!(err, ConvertError::MalformedRecord { .. }));
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = convert(
            "# nothing\n",
            Dialect::NasaIpsc,
            128,
            &ConvertOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, ConvertError::EmptyLog);
    }

    #[test]
    fn conversion_output_round_trips_through_swf_text() {
        let c = convert(
            PARAGON,
            Dialect::SdscParagon,
            416,
            &ConvertOptions::default(),
        )
        .unwrap();
        let text = crate::write::write_string(&c.log);
        let back = crate::parse::parse(&text).unwrap();
        assert_eq!(back.jobs, c.log.jobs);
    }

    #[test]
    fn unsorted_raw_logs_are_sorted_by_submit() {
        let shuffled = "\
2 bob qcd 64 1100 1200 1200 ok
1 alice cfd 32 1000 1010 600 ok
";
        let c = convert(shuffled, Dialect::NasaIpsc, 128, &ConvertOptions::default()).unwrap();
        assert!(c
            .log
            .jobs
            .windows(2)
            .all(|w| w[0].submit_time <= w[1].submit_time));
        assert_eq!(c.log.jobs[0].job_id, 1);
    }

    #[test]
    fn streaming_matches_materialized_for_every_dialect() {
        use crate::source::JobSource;
        let fixtures: &[(&str, Dialect, u32)] = &[
            (NASA, Dialect::NasaIpsc, 128),
            (PARAGON, Dialect::SdscParagon, 416),
            (SP2, Dialect::CtcSp2, 430),
            (CM5, Dialect::LanlCm5, 1024),
        ];
        for &(raw, dialect, max_nodes) in fixtures {
            let materialized =
                convert(raw, dialect, max_nodes, &ConvertOptions::default()).unwrap();
            let stream = RawStream::new(
                "s",
                raw.as_bytes(),
                dialect,
                max_nodes,
                &ConvertOptions::default(),
            );
            let streamed = stream.collect_log().unwrap();
            assert_eq!(streamed.jobs, materialized.log.jobs, "{}", dialect.name());
            assert_eq!(
                streamed.header.render(),
                materialized.log.header.render(),
                "{}",
                dialect.name()
            );
            assert_eq!(
                crate::write::write_string(&streamed),
                crate::write::write_string(&materialized.log),
                "byte-identical output for {}",
                dialect.name()
            );
        }
    }

    #[test]
    fn streaming_replicates_anonymization_and_skip_counts() {
        use crate::source::JobSource;
        let noisy = format!("{NASA}\nthis line is garbage\n");
        let materialized =
            convert(&noisy, Dialect::NasaIpsc, 128, &ConvertOptions::default()).unwrap();
        let mut stream = RawStream::new(
            "s",
            noisy.as_bytes(),
            Dialect::NasaIpsc,
            128,
            &ConvertOptions::default(),
        );
        let mut jobs = Vec::new();
        while let Some(r) = stream.next_record() {
            jobs.push(r.unwrap());
        }
        assert_eq!(jobs, materialized.log.jobs);
        assert_eq!(stream.report().skipped, materialized.skipped);
        assert_eq!(stream.key().users.len(), materialized.key.users.len());
        assert_eq!(stream.key().users.original(1), Some("alice"));
        // Strict mode surfaces the garbage line as an error instead.
        let mut strict = RawStream::new(
            "s",
            noisy.as_bytes(),
            Dialect::NasaIpsc,
            128,
            &ConvertOptions { strict: true },
        );
        let err = loop {
            match strict.next_record() {
                Some(Ok(_)) => continue,
                Some(Err(e)) => break e,
                None => panic!("strict stream should fail"),
            }
        };
        assert!(matches!(
            err,
            ParseError::Convert(ConvertError::MalformedRecord { .. })
        ));
        assert!(strict.next_record().is_none(), "errors are terminal");
    }

    #[test]
    fn streaming_handles_unsorted_input_within_window() {
        use crate::source::JobSource;
        let shuffled = "\
2 bob qcd 64 1100 1200 1200 ok
1 alice cfd 32 1000 1010 600 ok
";
        let materialized =
            convert(shuffled, Dialect::NasaIpsc, 128, &ConvertOptions::default()).unwrap();
        let streamed = RawStream::with_window(
            "s",
            shuffled.as_bytes(),
            Dialect::NasaIpsc,
            128,
            &ConvertOptions::default(),
            4,
        )
        .collect_log()
        .unwrap();
        assert_eq!(streamed.jobs, materialized.log.jobs);

        // A window of 1 cannot absorb the swap: hard error, not silent disorder.
        let err = RawStream::with_window(
            "s",
            shuffled.as_bytes(),
            Dialect::NasaIpsc,
            128,
            &ConvertOptions::default(),
            1,
        )
        .collect_log()
        .unwrap_err();
        assert!(matches!(
            err,
            ParseError::Convert(ConvertError::WindowExceeded { window: 1 })
        ));
    }

    #[test]
    fn streaming_drops_hopeless_records_like_clean() {
        use crate::source::JobSource;
        // Middle SP2 job has no procs at all: clean() drops it and renumbers.
        let raw = "\
job=1 user=u1 group=g1 class=batch submit=100 start=160 end=400 procs=16 completion=ok
job=2 user=u2 group=g1 class=batch submit=150 start=152 end=200 completion=ok
job=3 user=u3 group=g2 class=batch submit=300 start=500 end=5500 procs=128 completion=ok
";
        let materialized = convert(raw, Dialect::CtcSp2, 430, &ConvertOptions::default()).unwrap();
        assert_eq!(materialized.log.len(), 2);
        let mut stream = RawStream::new(
            "s",
            raw.as_bytes(),
            Dialect::CtcSp2,
            430,
            &ConvertOptions::default(),
        );
        let mut jobs = Vec::new();
        while let Some(r) = stream.next_record() {
            jobs.push(r.unwrap());
        }
        assert_eq!(jobs, materialized.log.jobs);
        assert_eq!(stream.report().dropped, 1);
        // The dropped record's user u2 still consumed an anonymization id,
        // exactly like the materialized pipeline.
        assert_eq!(stream.key().users.original(2), Some("u2"));
        assert_eq!(jobs[1].user_id, Some(3));
        assert_eq!(jobs[0].job_id, 1);
        assert_eq!(jobs[1].job_id, 2);
    }

    #[test]
    fn streaming_rejects_empty_input() {
        use crate::source::JobSource;
        let mut stream = RawStream::new(
            "s",
            "# nothing\n".as_bytes(),
            Dialect::NasaIpsc,
            128,
            &ConvertOptions::default(),
        );
        assert!(matches!(
            stream.next_record(),
            Some(Err(ParseError::Convert(ConvertError::EmptyLog)))
        ));
        assert!(stream.next_record().is_none());
    }

    #[test]
    fn streaming_names_an_overlong_or_non_utf8_line() {
        use crate::source::JobSource;
        let endless = std::io::BufReader::new(std::io::repeat(b'x'));
        let opts = ConvertOptions::default();
        let mut stream = RawStream::new("s", endless, Dialect::NasaIpsc, 128, &opts);
        let err = stream.next_record().unwrap().unwrap_err();
        assert_eq!(err, ParseError::LineTooLong { line: 1 });
        assert!(stream.next_record().is_none());
        let raw = [NASA.as_bytes(), b"\xff\n"].concat();
        let mut stream = RawStream::new("s", &raw[..], Dialect::NasaIpsc, 128, &opts);
        let err = stream.next_record().unwrap().unwrap_err();
        assert_eq!(err, ParseError::InvalidUtf8 { line: 5 });
    }

    #[test]
    fn dialect_metadata() {
        assert_eq!(Dialect::all().len(), 4);
        for d in Dialect::all() {
            assert!(!d.name().is_empty());
            assert!(!d.computer().is_empty());
        }
    }
}
