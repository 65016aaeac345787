//! Exact, deterministic (de)serialization of cached artifacts.
//!
//! The artifact store must hand back artifacts **bit-identical** to the
//! values that were put in — a resumed sweep's report is only byte-identical
//! to an uninterrupted run if a decoded `SimulationResult` compares `==` to
//! the one the simulator produced, and a cached `WorkloadProfile` must merge
//! and render exactly like a freshly computed one. The codec therefore never
//! formats a float as decimal text:
//!
//! * every integer accumulator (counts, `i128` power sums, histogram bins) is
//!   written as exact decimal integers — sketch state is integral by design,
//!   so this is lossless;
//! * every `f64` is written as the 16-digit hex of [`f64::to_bits`] and
//!   restored with [`f64::from_bits`], preserving the exact bit pattern
//!   (including signed zeros and subnormals);
//! * map-valued state (per-user / per-group aggregates) is written in
//!   ascending key order, and histograms sparsely as `bin:count` pairs, so
//!   encoding is deterministic: equal values encode to equal bytes, which is
//!   what makes encoded artifacts themselves fingerprintable.
//!
//! The format is line-oriented ASCII with a versioned magic first line;
//! [`decode_profile`] / [`decode_result`] reject anything whose magic or
//! shape they do not understand (a store written by a future format version
//! reads as corrupt, never as wrong data).

use crate::fnv::Fnv64;
use psbench_analyze::profile::GroupStats;
use psbench_analyze::{
    Correlation, Histogram, Histogram2, MarginalSketch, Moments, WorkloadProfile, ANALYZE_VERSION,
};
use psbench_sched::SCHED_VERSION;
use psbench_sim::{FinishedJob, SimulationResult};
use std::fmt;

/// Magic first line of an encoded [`WorkloadProfile`].
pub const PROFILE_MAGIC: &str = "psbench-profile v1";
/// Magic first line of an encoded [`SimulationResult`].
pub const RESULT_MAGIC: &str = "psbench-result v1";
/// Magic first line of an encoded [`MetaSummary`].
pub const META_MAGIC: &str = "psbench-meta v1";

/// A decoding failure: the artifact bytes do not describe a well-formed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line number of the offending line (0 when the input ended early).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(line: usize, reason: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError {
        line,
        reason: reason.into(),
    })
}

/// Escape a display name onto one line: backslashes and line breaks only,
/// everything else passes through.
fn escape_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// `HEX_PAIRS[b]` is the two lower-case hex digits of byte `b`.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
        b += 1;
    }
    table
};

/// `DEC_PAIRS[n]` is the two decimal digits of `n < 100`.
const DEC_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[0u8; 2]; 100];
    let mut n = 0;
    while n < 100 {
        table[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    table
};

/// The longest `f` line: `f`, a 20-digit id, four 16-digit floats, three
/// 10-digit `u32`s, eight separators and the newline.
const JOB_LINE_MAX: usize = 1 + 20 + 4 * 16 + 3 * 10 + 8 + 1;

/// A buffer holding one `f` line of a result encoding, written in place
/// from the digit tables.
struct JobLine {
    bytes: [u8; JOB_LINE_MAX],
    len: usize,
}

impl JobLine {
    /// Replace the buffer's line with the line of `f` and hand it to `emit`
    /// in five pieces, each as soon as it is written: up to and including
    /// each of the four floats, then the rest with the newline. A hasher's
    /// byte-serial chain over one piece thus overlaps the writing of the
    /// next.
    fn write(&mut self, f: &FinishedJob, emit: &mut impl FnMut(&[u8])) {
        self.len = 0;
        self.push(b"f ");
        self.push_decimal(f.id);
        let mut from = 0;
        for v in [f.submit, f.start, f.first_start, f.end] {
            self.push(b" ");
            self.push_hex(v);
            emit(&self.bytes[from..self.len]);
            from = self.len;
        }
        self.push(b" ");
        self.push_decimal(f.procs.into());
        self.push(b" ");
        self.push_decimal(f.restarts.into());
        match f.user {
            Some(u) => {
                self.push(b" ");
                self.push_decimal(u.into());
                self.push(b"\n");
            }
            None => self.push(b" -\n"),
        }
        emit(&self.bytes[from..self.len]);
    }

    fn push<const N: usize>(&mut self, bytes: &[u8; N]) {
        self.bytes[self.len..self.len + N].copy_from_slice(bytes);
        self.len += N;
    }

    /// The 16 lower-case hex digits of `v`'s bit pattern (`{:016x}` of
    /// [`f64::to_bits`]), one table read per byte.
    fn push_hex(&mut self, v: f64) {
        let digits = &mut self.bytes[self.len..self.len + 16];
        for (pair, b) in digits.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
            pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
        }
        self.len += 16;
    }

    /// `v` in decimal (`{}`), written backwards from its last digit, two
    /// digits per table read.
    fn push_decimal(&mut self, mut v: u64) {
        let end = self.len + v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut at = end;
        while v >= 10 {
            at -= 2;
            self.bytes[at..at + 2].copy_from_slice(&DEC_PAIRS[(v % 100) as usize]);
            v /= 100;
        }
        if at > self.len {
            self.bytes[self.len] = b'0' + v as u8;
        }
        self.len = end;
    }
}

/// A line cursor over an encoded artifact.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            iter: text.lines(),
            line: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, CodecError> {
        self.line += 1;
        match self.iter.next() {
            Some(l) => Ok(l),
            None => err(0, "unexpected end of artifact"),
        }
    }

    /// Next line, which must start with `tag ` (or equal `tag`); returns the rest.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, CodecError> {
        let l = self.next()?;
        if l == tag {
            return Ok("");
        }
        match l.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')) {
            Some(rest) => Ok(rest),
            None => err(self.line, format!("expected `{tag} ...`, found {l:?}")),
        }
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, line: usize, what: &str) -> Result<T, CodecError> {
    tok.parse().map_err(|_| CodecError {
        line,
        reason: format!("bad {what}: {tok:?}"),
    })
}

fn parse_f64_bits(tok: &str, line: usize) -> Result<f64, CodecError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| CodecError {
            line,
            reason: format!("bad f64 bits: {tok:?}"),
        })
}

fn split_n<const N: usize>(rest: &str, line: usize) -> Result<[&str; N], CodecError> {
    let mut out = [""; N];
    let mut it = rest.split_ascii_whitespace();
    for slot in out.iter_mut() {
        match it.next() {
            Some(t) => *slot = t,
            None => return err(line, format!("expected {N} fields, found fewer")),
        }
    }
    if it.next().is_some() {
        return err(line, format!("expected exactly {N} fields"));
    }
    Ok(out)
}

fn push_moments(out: &mut String, tag: &str, m: &Moments) {
    out.push_str(&format!(
        "{tag} {} {} {} {} {}\n",
        m.count, m.sum, m.sum_sq, m.min, m.max
    ));
}

fn parse_moments(rest: &str, line: usize) -> Result<Moments, CodecError> {
    let [count, sum, sum_sq, min, max] = split_n::<5>(rest, line)?;
    Ok(Moments {
        count: parse_num(count, line, "count")?,
        sum: parse_num(sum, line, "sum")?,
        sum_sq: parse_num(sum_sq, line, "sum_sq")?,
        min: parse_num(min, line, "min")?,
        max: parse_num(max, line, "max")?,
    })
}

/// Sparse `bin:count` rendering of histogram counts (deterministic: ascending
/// bin order, zero bins omitted).
fn push_sparse(out: &mut String, counts: &[u64]) {
    for (bin, &c) in counts.iter().enumerate() {
        if c != 0 {
            out.push_str(&format!(" {bin}:{c}"));
        }
    }
    out.push('\n');
}

fn parse_sparse(rest: &str, len: usize, line: usize) -> Result<Vec<u64>, CodecError> {
    let mut counts = vec![0u64; len];
    for pair in rest.split_ascii_whitespace() {
        let Some((bin, c)) = pair.split_once(':') else {
            return err(line, format!("expected bin:count, found {pair:?}"));
        };
        let bin: usize = parse_num(bin, line, "bin index")?;
        if bin >= len {
            return err(line, format!("bin index {bin} out of range (< {len})"));
        }
        counts[bin] = parse_num(c, line, "bin count")?;
    }
    Ok(counts)
}

fn push_marginal(out: &mut String, tag: &str, m: &MarginalSketch) {
    push_moments(out, &format!("moments {tag}"), &m.moments);
    out.push_str(&format!("hist {tag}"));
    push_sparse(out, m.histogram.counts());
}

fn parse_marginal(lines: &mut Lines<'_>, tag: &str) -> Result<MarginalSketch, CodecError> {
    let rest = lines.tagged(&format!("moments {tag}"))?;
    let moments = parse_moments(rest, lines.line)?;
    let rest = lines.tagged(&format!("hist {tag}"))?;
    let counts = parse_sparse(rest, psbench_analyze::HISTOGRAM_BINS, lines.line)?;
    Ok(MarginalSketch {
        moments,
        histogram: Histogram::from_counts(counts),
    })
}

/// Encode a [`WorkloadProfile`] into the exact, deterministic artifact text.
pub fn encode_profile(p: &WorkloadProfile) -> String {
    let mut out = String::new();
    out.push_str(PROFILE_MAGIC);
    out.push('\n');
    out.push_str(&format!("analyze_version {ANALYZE_VERSION}\n"));
    out.push_str(&format!("name {}\n", escape_name(&p.name)));
    out.push_str(&format!("jobs {}\n", p.jobs));
    let opt = |v: Option<i64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
    out.push_str(&format!(
        "submits {} {}\n",
        opt(p.first_submit),
        opt(p.last_submit)
    ));
    push_marginal(&mut out, "interarrival", &p.interarrival);
    push_marginal(&mut out, "runtime", &p.runtime);
    push_marginal(&mut out, "size", &p.size);
    push_marginal(&mut out, "accuracy", &p.accuracy);
    out.push_str("diurnal");
    for v in &p.diurnal {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
    out.push_str("weekly");
    for v in &p.weekly {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
    let sums = p.size_runtime.sums();
    out.push_str(&format!(
        "corr {} {} {} {} {} {}\n",
        p.size_runtime.count, sums[0], sums[1], sums[2], sums[3], sums[4]
    ));
    out.push_str(&format!(
        "hist2 {}",
        if p.size_runtime_hist.counts().is_empty() {
            0
        } else {
            1
        }
    ));
    push_sparse(&mut out, p.size_runtime_hist.counts());
    out.push_str(&format!("users {}\n", p.per_user.len()));
    for (id, g) in &p.per_user {
        push_group(&mut out, "user", *id, g);
    }
    out.push_str(&format!("groups {}\n", p.per_group.len()));
    for (id, g) in &p.per_group {
        push_group(&mut out, "group", *id, g);
    }
    out.push_str("end\n");
    out
}

fn push_group(out: &mut String, tag: &str, id: u32, g: &GroupStats) {
    out.push_str(&format!(
        "{tag} {id} {} {} {} {} {} {} {}\n",
        g.jobs,
        g.area,
        g.runtime.count,
        g.runtime.sum,
        g.runtime.sum_sq,
        g.runtime.min,
        g.runtime.max
    ));
}

fn parse_group(rest: &str, line: usize) -> Result<(u32, GroupStats), CodecError> {
    let [id, jobs, area, count, sum, sum_sq, min, max] = split_n::<8>(rest, line)?;
    Ok((
        parse_num(id, line, "id")?,
        GroupStats {
            jobs: parse_num(jobs, line, "jobs")?,
            area: parse_num(area, line, "area")?,
            runtime: Moments {
                count: parse_num(count, line, "count")?,
                sum: parse_num(sum, line, "sum")?,
                sum_sq: parse_num(sum_sq, line, "sum_sq")?,
                min: parse_num(min, line, "min")?,
                max: parse_num(max, line, "max")?,
            },
        },
    ))
}

/// Decode a [`WorkloadProfile`] from artifact text produced by
/// [`encode_profile`]; the decoded value compares `==` to the original.
pub fn decode_profile(text: &str) -> Result<WorkloadProfile, CodecError> {
    let mut lines = Lines::new(text);
    let magic = lines.next()?;
    if magic != PROFILE_MAGIC {
        return err(lines.line, format!("bad profile magic {magic:?}"));
    }
    let version: u32 = parse_num(
        lines.tagged("analyze_version")?,
        lines.line,
        "analyze version",
    )?;
    if version != ANALYZE_VERSION {
        return err(
            lines.line,
            format!("stale analyze_version {version} (current {ANALYZE_VERSION})"),
        );
    }
    let name = unescape_name(lines.tagged("name")?);
    let jobs: u64 = parse_num(lines.tagged("jobs")?, lines.line, "jobs")?;
    let rest = lines.tagged("submits")?;
    let [first, last] = split_n::<2>(rest, lines.line)?;
    let opt = |tok: &str, line: usize| -> Result<Option<i64>, CodecError> {
        if tok == "-" {
            Ok(None)
        } else {
            parse_num(tok, line, "submit").map(Some)
        }
    };
    let first_submit = opt(first, lines.line)?;
    let last_submit = opt(last, lines.line)?;
    let interarrival = parse_marginal(&mut lines, "interarrival")?;
    let runtime = parse_marginal(&mut lines, "runtime")?;
    let size = parse_marginal(&mut lines, "size")?;
    let accuracy = parse_marginal(&mut lines, "accuracy")?;
    let rest = lines.tagged("diurnal")?;
    let d = split_n::<24>(rest, lines.line)?;
    let mut diurnal = [0u64; 24];
    for (slot, tok) in diurnal.iter_mut().zip(d.iter()) {
        *slot = parse_num(tok, lines.line, "diurnal count")?;
    }
    let rest = lines.tagged("weekly")?;
    let w = split_n::<7>(rest, lines.line)?;
    let mut weekly = [0u64; 7];
    for (slot, tok) in weekly.iter_mut().zip(w.iter()) {
        *slot = parse_num(tok, lines.line, "weekly count")?;
    }
    let rest = lines.tagged("corr")?;
    let [count, sx, sy, sxx, syy, sxy] = split_n::<6>(rest, lines.line)?;
    let size_runtime = Correlation::from_sums(
        parse_num(count, lines.line, "count")?,
        [
            parse_num(sx, lines.line, "sum")?,
            parse_num(sy, lines.line, "sum")?,
            parse_num(sxx, lines.line, "sum")?,
            parse_num(syy, lines.line, "sum")?,
            parse_num(sxy, lines.line, "sum")?,
        ],
    );
    let rest = lines.tagged("hist2")?;
    let (alloc, cells) = match rest.split_once(' ') {
        Some((a, rest)) => (a, rest),
        None => (rest, ""),
    };
    let size_runtime_hist = match alloc {
        "0" => {
            if !cells.trim().is_empty() {
                return err(lines.line, "unallocated hist2 carries cells");
            }
            Histogram2::new()
        }
        "1" => Histogram2::from_counts(parse_sparse(
            cells,
            psbench_analyze::JOINT_BINS * psbench_analyze::JOINT_BINS,
            lines.line,
        )?),
        other => return err(lines.line, format!("bad hist2 alloc flag {other:?}")),
    };
    let n_users: usize = parse_num(lines.tagged("users")?, lines.line, "user count")?;
    let mut per_user = std::collections::BTreeMap::new();
    for _ in 0..n_users {
        let rest = lines.tagged("user")?;
        let (id, g) = parse_group(rest, lines.line)?;
        per_user.insert(id, g);
    }
    let n_groups: usize = parse_num(lines.tagged("groups")?, lines.line, "group count")?;
    let mut per_group = std::collections::BTreeMap::new();
    for _ in 0..n_groups {
        let rest = lines.tagged("group")?;
        let (id, g) = parse_group(rest, lines.line)?;
        per_group.insert(id, g);
    }
    lines.tagged("end")?;
    Ok(WorkloadProfile {
        name,
        jobs,
        interarrival,
        runtime,
        size,
        accuracy,
        diurnal,
        weekly,
        per_user,
        per_group,
        size_runtime,
        size_runtime_hist,
        first_submit,
        last_submit,
    })
}

/// Encode a [`SimulationResult`] into the exact, deterministic artifact text.
/// Every float travels as its bit pattern, so `decode(encode(r)) == r` holds
/// with `==` — the property the byte-identical-resume guarantee rests on.
pub fn encode_result(r: &SimulationResult) -> String {
    // A typical `f` line is ~83 bytes (8.26 MB for 100k jobs), so 96 per job
    // plus the header lines is one allocation that rarely regrows.
    let mut out = Vec::with_capacity(256 + 96 * r.finished.len());
    write_result(r, |bytes| out.extend_from_slice(bytes));
    String::from_utf8(out).expect("the scheduler name is UTF-8 and every other byte ASCII")
}

/// Hand the encoding of `r` to `emit` in order, in pieces: the header lines
/// at once, each `f` line in the five pieces of [`JobLine::write`], then
/// `end`. [`encode_result`] appends every piece, [`result_fingerprint`]
/// hashes and drops each one.
///
/// The header is formatted once per result. Each `f` line, the whole cost
/// of a large result, is written into one fixed [`JobLine`] buffer (at most
/// 124 bytes) without `core::fmt`: integers two decimal digits per read of
/// a 200-byte table, floats one byte per read of a 512-byte byte-to-hex
/// table.
fn write_result(r: &SimulationResult, mut emit: impl FnMut(&[u8])) {
    let header = format!(
        "{RESULT_MAGIC}\n\
         sched_version {SCHED_VERSION}\n\
         scheduler {}\n\
         machine_size {}\n\
         counters {} {} {} {} {} {}\n\
         integrals {:016x} {:016x} {:016x} {:016x}\n\
         finished {}\n",
        escape_name(&r.scheduler),
        r.machine_size,
        r.unfinished,
        r.discarded,
        r.kills,
        r.rejected_decisions,
        r.coalesced_wakeups,
        r.events_processed,
        r.idle_while_queued.to_bits(),
        r.busy_integral.to_bits(),
        r.lost_node_seconds.to_bits(),
        r.end_time.to_bits(),
        r.finished.len()
    );
    emit(header.as_bytes());
    let mut line = JobLine {
        bytes: [0; JOB_LINE_MAX],
        len: 0,
    };
    for f in &r.finished {
        line.write(f, &mut emit);
    }
    emit(b"end\n");
}

/// Decode a [`SimulationResult`] from artifact text produced by
/// [`encode_result`].
pub fn decode_result(text: &str) -> Result<SimulationResult, CodecError> {
    let mut lines = Lines::new(text);
    let magic = lines.next()?;
    if magic != RESULT_MAGIC {
        return err(lines.line, format!("bad result magic {magic:?}"));
    }
    let version: u32 = parse_num(lines.tagged("sched_version")?, lines.line, "sched version")?;
    if version != SCHED_VERSION {
        return err(
            lines.line,
            format!("stale sched_version {version} (current {SCHED_VERSION})"),
        );
    }
    let scheduler = unescape_name(lines.tagged("scheduler")?);
    let machine_size: u32 = parse_num(lines.tagged("machine_size")?, lines.line, "machine size")?;
    let rest = lines.tagged("counters")?;
    let [unfinished, discarded, kills, rejected, coalesced, events] =
        split_n::<6>(rest, lines.line)?;
    let line = lines.line;
    let unfinished = parse_num(unfinished, line, "unfinished")?;
    let discarded = parse_num(discarded, line, "discarded")?;
    let kills = parse_num(kills, line, "kills")?;
    let rejected_decisions = parse_num(rejected, line, "rejected")?;
    let coalesced_wakeups = parse_num(coalesced, line, "coalesced")?;
    let events_processed = parse_num(events, line, "events")?;
    let rest = lines.tagged("integrals")?;
    let [idle, busy, lost, end_time] = split_n::<4>(rest, lines.line)?;
    let line = lines.line;
    let idle_while_queued = parse_f64_bits(idle, line)?;
    let busy_integral = parse_f64_bits(busy, line)?;
    let lost_node_seconds = parse_f64_bits(lost, line)?;
    let end_time = parse_f64_bits(end_time, line)?;
    let n: usize = parse_num(lines.tagged("finished")?, lines.line, "finished count")?;
    let mut finished = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let rest = lines.tagged("f")?;
        let [id, submit, start, first_start, end, procs, restarts, user] =
            split_n::<8>(rest, lines.line)?;
        finished.push(FinishedJob {
            id: parse_num(id, lines.line, "job id")?,
            submit: parse_f64_bits(submit, lines.line)?,
            start: parse_f64_bits(start, lines.line)?,
            first_start: parse_f64_bits(first_start, lines.line)?,
            end: parse_f64_bits(end, lines.line)?,
            procs: parse_num(procs, lines.line, "procs")?,
            restarts: parse_num(restarts, lines.line, "restarts")?,
            user: if user == "-" {
                None
            } else {
                Some(parse_num(user, lines.line, "user")?)
            },
        });
    }
    lines.tagged("end")?;
    Ok(SimulationResult {
        scheduler,
        machine_size,
        finished,
        unfinished,
        discarded,
        idle_while_queued,
        busy_integral,
        lost_node_seconds,
        kills,
        rejected_decisions,
        coalesced_wakeups,
        events_processed,
        end_time,
    })
}

/// The canonical 64-bit fingerprint of a simulation result: FNV-1a over its
/// exact encoding. This is the per-cell fingerprint journaled by sweep
/// ledgers, and the row fingerprint of the `bench sim` and `bench meta`
/// snapshots (`BENCH_sim.json`, `BENCH_meta.json`).
///
/// The encoding is streamed, never built: each line is fed to the hasher
/// as it is written, so the digest equals
/// `fnv1a_64(encode_result(r).as_bytes())` without the whole-result string.
pub fn result_fingerprint(r: &SimulationResult) -> u64 {
    let mut hash = Fnv64::new();
    write_result(r, |bytes| hash.write(bytes));
    hash.finish()
}

/// A memoized metasystem run: the merged fleet-wide [`SimulationResult`]
/// plus the epoch-loop counters a metasystem report needs — they are not
/// recoverable from the merged result (site identity is erased by the
/// merge), so they travel alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaSummary {
    /// Number of sites simulated.
    pub sites: u64,
    /// Cross-site dispatch policy name.
    pub dispatch: String,
    /// Epochs the loop executed.
    pub epochs: u64,
    /// Jobs dispatched (first placements).
    pub dispatched: u64,
    /// Outage-induced migrations performed.
    pub migrations: u64,
    /// Completed jobs per site, in site-id order.
    pub per_site_finished: Vec<u64>,
    /// The merged fleet-wide result.
    pub result: SimulationResult,
}

/// Encode a [`MetaSummary`]: a short counter header followed by the embedded
/// result in its own exact encoding, so `decode_meta(encode_meta(m)) == m`
/// holds with `==` like every other artifact.
pub fn encode_meta(m: &MetaSummary) -> String {
    let mut out = String::new();
    out.push_str(META_MAGIC);
    out.push('\n');
    out.push_str(&format!("sites {}\n", m.sites));
    out.push_str(&format!("dispatch {}\n", escape_name(&m.dispatch)));
    out.push_str(&format!(
        "loop {} {} {}\n",
        m.epochs, m.dispatched, m.migrations
    ));
    out.push_str(&format!("per_site {}", m.per_site_finished.len()));
    for c in &m.per_site_finished {
        out.push_str(&format!(" {c}"));
    }
    out.push('\n');
    out.push_str(&encode_result(&m.result));
    out
}

/// Exact inverse of [`encode_meta`]. Scheduler-semantics staleness is caught
/// by the embedded result's own `sched_version` stamp.
pub fn decode_meta(text: &str) -> Result<MetaSummary, CodecError> {
    // The header is exactly five lines; everything after it is the embedded
    // result's encoding, handed to `decode_result` verbatim.
    const HEADER_LINES: usize = 5;
    let mut offset = 0usize;
    for _ in 0..HEADER_LINES {
        match text[offset..].find('\n') {
            Some(line_end) => offset += line_end + 1,
            None => return err(0, "unexpected end of artifact"),
        }
    }
    let mut lines = Lines::new(text);
    let magic = lines.next()?;
    if magic != META_MAGIC {
        return err(lines.line, format!("bad meta magic {magic:?}"));
    }
    let sites: u64 = parse_num(lines.tagged("sites")?, lines.line, "sites")?;
    let dispatch = unescape_name(lines.tagged("dispatch")?);
    let rest = lines.tagged("loop")?;
    let [epochs, dispatched, migrations] = split_n::<3>(rest, lines.line)?;
    let epochs = parse_num(epochs, lines.line, "epochs")?;
    let dispatched = parse_num(dispatched, lines.line, "dispatched")?;
    let migrations = parse_num(migrations, lines.line, "migrations")?;
    let rest = lines.tagged("per_site")?;
    let mut toks = rest.split_ascii_whitespace();
    let n: usize = parse_num(toks.next().unwrap_or(""), lines.line, "per-site count")?;
    let mut per_site_finished = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let tok = match toks.next() {
            Some(t) => t,
            None => return err(lines.line, "missing per-site counts"),
        };
        per_site_finished.push(parse_num(tok, lines.line, "per-site count")?);
    }
    if toks.next().is_some() {
        return err(lines.line, "trailing per-site counts");
    }
    // Errors inside the embedded result name its lines in the artifact;
    // line 0 still means the artifact ended early.
    let result = decode_result(&text[offset..]).map_err(|e| CodecError {
        line: if e.line == 0 {
            0
        } else {
            e.line + HEADER_LINES
        },
        ..e
    })?;
    Ok(MetaSummary {
        sites,
        dispatch,
        epochs,
        dispatched,
        migrations,
        per_site_finished,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_result() -> SimulationResult {
        SimulationResult {
            scheduler: "easy".into(),
            machine_size: 64,
            finished: vec![
                FinishedJob {
                    id: 1,
                    submit: 0.0,
                    start: 0.5,
                    first_start: 0.25,
                    end: 100.125,
                    procs: 32,
                    restarts: 1,
                    user: Some(7),
                },
                FinishedJob {
                    id: 2,
                    submit: -0.0,
                    start: 1.0e-9,
                    first_start: 1.0e-9,
                    end: 1.0e12,
                    procs: 1,
                    restarts: 0,
                    user: None,
                },
            ],
            unfinished: 3,
            discarded: 1,
            idle_while_queued: 320.0625,
            busy_integral: 1.0 / 3.0,
            lost_node_seconds: 0.1 + 0.2,
            kills: 2,
            rejected_decisions: 4,
            coalesced_wakeups: 5,
            events_processed: 999,
            end_time: 12345.6789,
        }
    }

    /// The original `format!`-per-field encoder, kept as the byte-level
    /// reference the streaming writer is checked against.
    fn reference_encode_result(r: &SimulationResult) -> String {
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let mut out = String::new();
        out.push_str(RESULT_MAGIC);
        out.push('\n');
        out.push_str(&format!("sched_version {SCHED_VERSION}\n"));
        out.push_str(&format!("scheduler {}\n", escape_name(&r.scheduler)));
        out.push_str(&format!("machine_size {}\n", r.machine_size));
        out.push_str(&format!(
            "counters {} {} {} {} {} {}\n",
            r.unfinished,
            r.discarded,
            r.kills,
            r.rejected_decisions,
            r.coalesced_wakeups,
            r.events_processed
        ));
        out.push_str(&format!(
            "integrals {} {} {} {}\n",
            hex(r.idle_while_queued),
            hex(r.busy_integral),
            hex(r.lost_node_seconds),
            hex(r.end_time)
        ));
        out.push_str(&format!("finished {}\n", r.finished.len()));
        for f in &r.finished {
            out.push_str(&format!(
                "f {} {} {} {} {} {} {} {}\n",
                f.id,
                hex(f.submit),
                hex(f.start),
                hex(f.first_start),
                hex(f.end),
                f.procs,
                f.restarts,
                f.user.map(|u| u.to_string()).unwrap_or_else(|| "-".into())
            ));
        }
        out.push_str("end\n");
        out
    }

    #[test]
    fn result_round_trips_bit_for_bit() {
        let r = sample_result();
        let text = encode_result(&r);
        // The encoding is a stable on-disk format: pin its exact bytes and
        // fingerprint, not just the round trip.
        assert_eq!(
            text,
            "psbench-result v1\n\
             sched_version 1\n\
             scheduler easy\n\
             machine_size 64\n\
             counters 3 1 2 4 5 999\n\
             integrals 4074010000000000 3fd5555555555555 3fd3333333333334 40c81cd6e631f8a1\n\
             finished 2\n\
             f 1 0000000000000000 3fe0000000000000 3fd0000000000000 4059080000000000 32 1 7\n\
             f 2 8000000000000000 3e112e0be826d695 3e112e0be826d695 426d1a94a2000000 1 0 -\n\
             end\n"
        );
        assert_eq!(result_fingerprint(&r), 0xf0ac_f727_ab7f_b205);
        let back = decode_result(&text).unwrap();
        assert_eq!(back, r);
        // Determinism: equal values, equal bytes, equal fingerprints.
        assert_eq!(encode_result(&back), text);
        assert_eq!(result_fingerprint(&back), result_fingerprint(&r));
    }

    #[test]
    fn streaming_encoder_matches_reference_bytes_on_edge_values() {
        let nan_payload = f64::from_bits(0x7ff8_0000_dead_beef);
        let neg_nan = f64::from_bits(0xfff0_0000_0000_0001);
        let subnormal = f64::from_bits(1);
        let neg_subnormal = -f64::from_bits(0x000f_ffff_ffff_ffff);
        let job = |id, user, restarts, [submit, start, first_start, end]: [f64; 4]| FinishedJob {
            id,
            submit,
            start,
            first_start,
            end,
            procs: u32::MAX,
            restarts,
            user,
        };
        let edge = SimulationResult {
            scheduler: "odd \\ name\nwith breaks\r".into(),
            finished: vec![
                job(
                    u64::MAX,
                    None,
                    3,
                    [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY],
                ),
                job(
                    0,
                    Some(u32::MAX),
                    0,
                    [f64::NAN, nan_payload, neg_nan, subnormal],
                ),
                job(
                    7,
                    Some(0),
                    u32::MAX,
                    [neg_subnormal, f64::MIN_POSITIVE, f64::MAX, -1.5],
                ),
            ],
            idle_while_queued: nan_payload,
            busy_integral: -0.0,
            lost_node_seconds: f64::NEG_INFINITY,
            end_time: subnormal,
            events_processed: u64::MAX,
            ..sample_result()
        };
        // Every decimal digit-length boundary: 9, 10, 99, 100, ...
        let boundaries = |max: u64| {
            let mut v = vec![0, max];
            let mut p = 10u64;
            while let Some(next) = p.checked_mul(10) {
                v.extend([p - 1, p]);
                p = next;
            }
            v.extend([p - 1, p]);
            v.retain(|&x| x <= max);
            v
        };
        let small = boundaries(u32::MAX.into());
        let digits = SimulationResult {
            finished: boundaries(u64::MAX)
                .into_iter()
                .enumerate()
                .map(|(i, id)| {
                    let pick = |k: usize| small[(i + k) % small.len()] as u32;
                    FinishedJob {
                        id,
                        procs: pick(0),
                        restarts: pick(7),
                        user: (i % 5 != 0).then(|| pick(13)),
                        ..job(id, None, 0, [1.0, 2.0, 2.0, 3.0])
                    }
                })
                .collect(),
            ..sample_result()
        };
        assert!(encode_result(&digits).contains("f 10000000000000000000 "));
        assert!(encode_result(&digits).contains(" 4294967295"));
        let empty = SimulationResult {
            finished: Vec::new(),
            ..sample_result()
        };
        for r in [sample_result(), edge, digits, empty] {
            let text = encode_result(&r);
            // Bytes, not values: NaN payloads make `==` useless here.
            assert_eq!(text.as_bytes(), reference_encode_result(&r).as_bytes());
            assert_eq!(
                result_fingerprint(&r),
                crate::fnv::fnv1a_64(text.as_bytes())
            );
            assert_eq!(encode_result(&decode_result(&text).unwrap()), text);
        }
    }

    /// Any `u64` (or `u32`) shifted right by a random amount, so that every
    /// decimal length turns up.
    fn any_u64() -> impl Strategy<Value = u64> {
        (0u64..=u64::MAX, 0u32..64).prop_map(|(bits, shift)| bits >> shift)
    }

    fn any_u32() -> impl Strategy<Value = u32> {
        (0u32..=u32::MAX, 0u32..32).prop_map(|(bits, shift)| bits >> shift)
    }

    prop_compose! {
        fn any_job()(
            id in any_u64(),
            floats in proptest::collection::vec(0u64..=u64::MAX, 4),
            procs in any_u32(),
            restarts in any_u32(),
            user in (0u8..4, any_u32()),
        ) -> FinishedJob {
            let f = |i: usize| f64::from_bits(floats[i]);
            FinishedJob {
                id,
                submit: f(0),
                start: f(1),
                first_start: f(2),
                end: f(3),
                procs,
                restarts,
                user: (user.0 != 0).then_some(user.1),
            }
        }
    }

    proptest! {
        #[test]
        fn random_jobs_encode_to_the_reference_bytes(
            jobs in proptest::collection::vec(any_job(), 0..64),
        ) {
            let r = SimulationResult {
                finished: jobs,
                ..sample_result()
            };
            let want = reference_encode_result(&r);
            let text = encode_result(&r);
            prop_assert_eq!(text.as_bytes(), want.as_bytes());
            prop_assert_eq!(result_fingerprint(&r), crate::fnv::fnv1a_64(want.as_bytes()));
            prop_assert_eq!(encode_result(&decode_result(&text).unwrap()), text);
        }
    }

    /// `text` with its 1-based line `line` replaced by `with`.
    fn replace_line(text: &str, line: usize, with: &str) -> String {
        let mut lines: Vec<&str> = text.lines().collect();
        lines[line - 1] = with;
        lines.join("\n") + "\n"
    }

    #[test]
    fn decode_errors_name_the_line_of_the_bad_field() {
        let r = SimulationResult {
            finished: vec![sample_result().finished[0]],
            ..sample_result()
        };
        let text = encode_result(&r);
        let job = text.lines().nth(7).unwrap().to_string();
        // One bad field on each line of a one-job result artifact.
        let bad_result: [(usize, String); 10] = [
            (1, "psbench-result v0".into()),
            (2, "sched_version one".into()),
            (3, "schedulr easy".into()),
            (4, "machine_size sixty-four".into()),
            (5, "counters x 1 2 4 5 999".into()),
            (5, "counters 3 1 2 4 5 x".into()),
            (6, text.lines().nth(5).unwrap().replace(" 4074", " z074")),
            (7, "finished one".into()),
            (8, job.replace(" 32 1 7", " 32 x 7")),
            (9, "ends".into()),
        ];
        for (line, with) in &bad_result {
            let e = decode_result(&replace_line(&text, *line, with)).unwrap_err();
            assert_eq!(e.line, *line, "{with:?}: {e}");
        }
        let m = MetaSummary {
            sites: 2,
            dispatch: "round-robin".into(),
            epochs: 1,
            dispatched: 2,
            migrations: 0,
            per_site_finished: vec![1, 0],
            result: r,
        };
        let meta = encode_meta(&m);
        let bad_meta = [
            (1, "psbench-meta v0".to_string()),
            (2, "sites two".into()),
            (3, "dispatc round-robin".into()),
            (4, "loop 1 2 x".into()),
            (5, "per_site 2 1 x".into()),
        ];
        for (line, with) in &bad_meta {
            let e = decode_meta(&replace_line(&meta, *line, with)).unwrap_err();
            assert_eq!(e.line, *line, "{with:?}: {e}");
        }
        // The embedded result's lines follow the five header lines.
        for (line, with) in &bad_result {
            let e = decode_meta(&replace_line(&meta, line + 5, with)).unwrap_err();
            assert_eq!(e.line, line + 5, "{with:?}: {e}");
        }
        // An artifact that ends early still says line 0.
        let cut = &meta[..meta.find("\nend").unwrap() + 1];
        assert_eq!(decode_meta(cut).unwrap_err().line, 0);
        assert_eq!(decode_result(&text[..text.len() - 4]).unwrap_err().line, 0);
    }

    #[test]
    fn meta_round_trips_bit_for_bit() {
        let m = MetaSummary {
            sites: 12,
            dispatch: "least-pressure".into(),
            epochs: 480,
            dispatched: 10_000,
            migrations: 37,
            per_site_finished: (0..12).map(|i| 800 + i).collect(),
            result: sample_result(),
        };
        let text = encode_meta(&m);
        let back = decode_meta(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(encode_meta(&back), text);
        // Degenerate corner: no per-site counts at all still round-trips.
        let empty = MetaSummary {
            per_site_finished: Vec::new(),
            ..m
        };
        assert_eq!(decode_meta(&encode_meta(&empty)).unwrap(), empty);
    }

    #[test]
    fn meta_rejects_mangled_headers() {
        let m = MetaSummary {
            sites: 2,
            dispatch: "round-robin".into(),
            epochs: 1,
            dispatched: 2,
            migrations: 0,
            per_site_finished: vec![1, 1],
            result: sample_result(),
        };
        let text = encode_meta(&m);
        assert!(decode_meta(&text.replace(META_MAGIC, "psbench-meta v0")).is_err());
        assert!(decode_meta(&text.replace("per_site 2 1 1", "per_site 3 1 1")).is_err());
        assert!(decode_meta(&text.replace("per_site 2 1 1", "per_site 2 1 1 9")).is_err());
        assert!(decode_meta(text.split("psbench-result").next().unwrap()).is_err());
    }

    #[test]
    fn profile_round_trips_bit_for_bit() {
        use psbench_workload::{Lublin99, WorkloadModel};
        let log = Lublin99::default().generate(300, 11);
        let p = WorkloadProfile::of_log("lublin99 roundtrip", &log);
        let text = encode_profile(&p);
        let back = decode_profile(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(encode_profile(&back), text);
    }

    #[test]
    fn empty_profile_round_trips_including_lazy_hist2() {
        let p = WorkloadProfile::named("empty");
        let back = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(back, p);
        assert!(
            back.size_runtime_hist.counts().is_empty(),
            "stays unallocated"
        );
    }

    #[test]
    fn names_with_escapes_survive() {
        let mut p = WorkloadProfile::named("weird \\ name\nwith newline\r");
        p.jobs = 0;
        let back = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(back.name, p.name);
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        assert!(decode_profile("nonsense").is_err());
        assert!(decode_result("psbench-result v999\n").is_err());
        let good = encode_result(&sample_result());
        // Truncation is detected.
        let truncated = &good[..good.len() - 5];
        assert!(decode_result(truncated).is_err());
        // A tampered field is detected as malformed (non-hex float).
        let tampered = good.replace("machine_size 64", "machine_size sixty-four");
        assert!(decode_result(&tampered).is_err());
    }
}
