//! Append-only, torn-tail-tolerant write-ahead journals.
//!
//! This is the durability primitive behind both the sweep ledger
//! ([`crate::ledger`]) and the serve crate's per-session command logs: an
//! append-only text file of `\n`-terminated records, flushed per append, that
//! a `SIGKILL` (or an injected fault — see [`crate::fault`]) can tear only at
//! the tail.
//!
//! The contract a [`Journal`] maintains:
//!
//! * **Appends are all-or-nothing at recovery time.** Each append is a single
//!   `write` of `line + "\n"`. If the write fails partway (short write, kill),
//!   the journal rolls the file back to its pre-append length, so torn bytes
//!   can never silently merge with a later record. If even the rollback fails,
//!   the journal poisons itself and refuses further appends — the torn bytes
//!   are then guaranteed to be the *last* thing in the file.
//! * **Recovery truncates, never guesses.** [`Journal::recover`] keeps the
//!   longest prefix of complete lines the caller's parser accepts. An
//!   unterminated tail, or a final complete line the parser rejects, is a
//!   torn append: it is cut off (and the file physically truncated) so the
//!   journal is clean for new appends. A rejected line *followed by another
//!   complete one* cannot be torn-append damage — that is real corruption and
//!   recovery fails loudly with [`io::ErrorKind::InvalidData`].
//! * **Fsync is policy.** [`FsyncPolicy::Always`] pays one `fdatasync` per
//!   append for power-loss durability; [`FsyncPolicy::Never`] flushes to the
//!   OS only (survives process death, not power loss).
//!
//! For journals that need per-record integrity (the serve session logs),
//! [`frame_record`]/[`parse_record`] add a sequence number and an FNV-1a
//! checksum to each line, so recovery can tell a torn half-record from a
//! complete one even when the tear lands on a newline boundary.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::fault;
use crate::fnv::Fnv64;

/// When a journal forces appended bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: survives power loss.
    #[default]
    Always,
    /// Flush to the OS only: survives process death, not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parse a policy name: `always` or `off`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "off",
        })
    }
}

struct Inner {
    file: File,
    /// Length of the journal's valid prefix: everything up to here is
    /// complete, appended records. Rollback truncates to this.
    len: u64,
    /// Set when a failed append could not be rolled back: the file may end in
    /// torn bytes, and appending more would merge garbage into a record.
    poisoned: bool,
}

/// An append-only journal of `\n`-terminated records.
///
/// Single-writer by design: one process (one `Journal` value) owns the file.
/// `&self` methods are thread-safe within that process.
pub struct Journal {
    path: PathBuf,
    policy: FsyncPolicy,
    inner: Mutex<Inner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Journal {
    /// Open `path` for appending, creating it if needed, without reading or
    /// validating existing content. Use [`Journal::recover`] when the file
    /// may hold prior records.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> io::Result<Journal> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(Journal {
            path,
            policy,
            inner: Mutex::new(Inner {
                file,
                len,
                poisoned: false,
            }),
        })
    }

    /// Recover the journal at `path`: read it, keep the longest valid prefix
    /// of complete lines, truncate anything torn, and reopen for appending.
    ///
    /// `parse` is handed each complete line once, in file order, without its
    /// `\n` and borrowed from the file's bytes (invalid UTF-8 reads as
    /// U+FFFD, the only case that copies). It returns the line's parsed value
    /// to accept it or `None` to reject it, and may be stateful (e.g. enforce
    /// increasing sequence numbers). A rejected line is tolerated only as the
    /// *final* complete line — that is what a torn append looks like — and is
    /// truncated away together with any trailing unterminated bytes; `parse`
    /// is not called again after a rejection. A rejected line with complete
    /// lines after it means the file is corrupt mid-stream, and recovery
    /// fails with [`io::ErrorKind::InvalidData`].
    ///
    /// Returns the journal plus the accepted lines' parsed values, in order;
    /// a caller that only needs the torn tail cut returns `Some(())`. A
    /// missing file recovers to an empty journal.
    pub fn recover<T>(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        mut parse: impl FnMut(&str) -> Option<T>,
    ) -> io::Result<(Journal, Vec<T>)> {
        let path = path.into();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut lines = Vec::new();
        let mut valid_len = 0usize;
        let mut cursor = 0usize;
        let mut rejected_at: Option<usize> = None;
        while let Some(nl) = bytes[cursor..].iter().position(|&b| b == b'\n') {
            let end = cursor + nl;
            let parsed = parse(&String::from_utf8_lossy(&bytes[cursor..end]));
            cursor = end + 1;
            let Some(value) = parsed else {
                rejected_at = Some(lines.len());
                break;
            };
            lines.push(value);
            valid_len = cursor;
        }
        if let Some(at) = rejected_at {
            // A rejected line is only torn-append damage if nothing valid
            // (indeed nothing complete at all) follows it.
            if bytes[cursor..].contains(&b'\n') {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: corrupt record {} is not at the journal tail",
                        path.display(),
                        at
                    ),
                ));
            }
        }
        if valid_len as u64 != bytes.len() as u64 {
            // Physically drop the torn tail so new appends start clean.
            let f = OpenOptions::new()
                .write(true)
                .truncate(false)
                .create(true)
                .open(&path)?;
            f.set_len(valid_len as u64)?;
            f.sync_data()?;
        }
        let journal = Journal::open(&path, policy)?;
        journal.inner.lock().len = valid_len as u64;
        Ok((journal, lines))
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length in bytes of the journal's valid (fully appended) prefix.
    pub fn len(&self) -> u64 {
        self.inner.lock().len
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durably append one record (`line` must not contain `\n`). The line and
    /// its terminator go down in a single write; on failure the file is
    /// rolled back to its pre-append length so no torn bytes survive.
    pub fn append_line(&self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal records are single lines");
        let mut inner = self.inner.lock();
        if inner.poisoned {
            return Err(io::Error::other(
                "journal poisoned by an earlier failed append",
            ));
        }
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let before = inner.len;
        match fault::write_all(&mut inner.file, &buf).and_then(|()| inner.file.flush()) {
            Ok(()) => {}
            Err(e) => {
                // Roll back whatever prefix landed; if that also fails the
                // journal is poisoned and the torn bytes stay at the tail,
                // where recovery knows how to cut them off.
                if inner.file.set_len(before).is_err() {
                    inner.poisoned = true;
                }
                return Err(e);
            }
        }
        inner.len = before + buf.len() as u64;
        if self.policy == FsyncPolicy::Always {
            inner.file.sync_data()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage (a checkpoint
    /// barrier for [`FsyncPolicy::Never`] journals; a no-op amount of extra
    /// durability under [`FsyncPolicy::Always`]).
    pub fn sync(&self) -> io::Result<()> {
        self.inner.lock().file.sync_data()
    }
}

/// Frame a checksummed journal record: `c <seq> <checksum> <payload>`.
///
/// The checksum is the low 32 bits of the FNV-1a hash of `"<seq> <payload>"`,
/// so a record torn mid-line (or bit-flipped) fails [`parse_record`] and is
/// treated as a torn tail by recovery rather than replayed as a half-command.
pub fn frame_record(seq: u64, payload: &str) -> String {
    format!("c {seq} {:08x} {payload}", record_sum(seq, payload))
}

/// Parse and verify a framed record; `None` when the frame or checksum is
/// bad. Returns the sequence number and the payload, borrowed from `line`.
pub fn parse_record(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("c ")?;
    let (seq, rest) = rest.split_once(' ')?;
    let (sum, payload) = rest.split_once(' ')?;
    let seq: u64 = seq.parse().ok()?;
    let sum = u32::from_str_radix(sum, 16).ok()?;
    (sum == record_sum(seq, payload)).then_some((seq, payload))
}

/// The low 32 bits of FNV-1a over `"<seq> <payload>"`, hashed in pieces
/// rather than formatted into a string first.
fn record_sum(seq: u64, payload: &str) -> u32 {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = seq;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let mut h = Fnv64::new();
    h.write(&digits[at..]);
    h.write(b" ");
    h.write(payload.as_bytes());
    h.finish() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("psbench-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    /// Every line the parser sees, accepting all of them.
    fn keep_all(seen: &mut Vec<String>) -> impl FnMut(&str) -> Option<String> + '_ {
        |line| {
            seen.push(line.to_string());
            Some(line.to_string())
        }
    }

    #[test]
    fn append_then_recover_round_trips() {
        let path = scratch("roundtrip");
        let journal = Journal::open(&path, FsyncPolicy::Never).unwrap();
        journal.append_line("alpha").unwrap();
        journal.append_line("beta").unwrap();
        drop(journal);
        let mut seen = Vec::new();
        let (journal, lines) =
            Journal::recover(&path, FsyncPolicy::Never, keep_all(&mut seen)).unwrap();
        assert_eq!(lines, ["alpha", "beta"]);
        // The parser sees each complete line once, in order, without `\n`.
        assert_eq!(seen, ["alpha", "beta"]);
        journal.append_line("gamma").unwrap();
        let (_, lens) = Journal::recover(&path, FsyncPolicy::Never, |l| Some(l.len())).unwrap();
        assert_eq!(lens, [5, 4, 5]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_recovers_empty() {
        let path = scratch("missing");
        let (journal, lines) = Journal::recover(&path, FsyncPolicy::Never, |_| Some(())).unwrap();
        assert!(lines.is_empty());
        assert!(journal.is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_tail_is_truncated() {
        let path = scratch("torn");
        let journal = Journal::open(&path, FsyncPolicy::Never).unwrap();
        journal.append_line("whole").unwrap();
        drop(journal);
        // A kill mid-write: bytes with no newline at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"half-a-rec").unwrap();
        drop(f);
        let mut seen = Vec::new();
        let (journal, lines) =
            Journal::recover(&path, FsyncPolicy::Never, keep_all(&mut seen)).unwrap();
        assert_eq!(lines, ["whole"]);
        // The unterminated tail is not a line: the parser never sees it.
        assert_eq!(seen, ["whole"]);
        // The torn bytes are physically gone: a fresh append lands clean.
        journal.append_line("next").unwrap();
        let (_, lines) =
            Journal::recover(&path, FsyncPolicy::Never, |l| Some(l.to_string())).unwrap();
        assert_eq!(lines, ["whole", "next"]);
        fs::remove_file(&path).unwrap();
    }

    /// Accept lines reading `good <n>` as their number, noting every line
    /// the parser is handed.
    fn good(seen: &mut Vec<String>) -> impl FnMut(&str) -> Option<u32> + '_ {
        |line| {
            seen.push(line.to_string());
            line.strip_prefix("good ")?.parse().ok()
        }
    }

    #[test]
    fn rejected_final_line_is_treated_as_torn() {
        let path = scratch("rejected-tail");
        fs::write(&path, "good 1\ngood 2\nbad\n").unwrap();
        let mut seen = Vec::new();
        let (journal, values) =
            Journal::recover(&path, FsyncPolicy::Never, good(&mut seen)).unwrap();
        assert_eq!(values, [1, 2]);
        assert_eq!(seen, ["good 1", "good 2", "bad"]);
        // The rejected line is cut from the file, not only from the result.
        assert_eq!(journal.len(), "good 1\ngood 2\n".len() as u64);
        assert_eq!(fs::read_to_string(&path).unwrap(), "good 1\ngood 2\n");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejected_line_mid_file_is_a_hard_error() {
        let path = scratch("mid-corrupt");
        fs::write(&path, "good 1\nbad\ngood 2\n").unwrap();
        let mut seen = Vec::new();
        let err = Journal::recover(&path, FsyncPolicy::Never, good(&mut seen))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Parsing stops at the rejection; the file is left as it was.
        assert_eq!(seen, ["good 1", "bad"]);
        assert_eq!(fs::read_to_string(&path).unwrap(), "good 1\nbad\ngood 2\n");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stateful_validator_sees_lines_in_order() {
        let path = scratch("stateful");
        fs::write(&path, "1\n2\n3\n2\n").unwrap();
        let mut last = 0u64;
        let (_, values) = Journal::recover(&path, FsyncPolicy::Never, |l| match l.parse::<u64>() {
            Ok(n) if n > last => {
                last = n;
                Some(n)
            }
            _ => None,
        })
        .unwrap();
        // The out-of-order final line reads as a torn append and is dropped.
        assert_eq!(values, [1, 2, 3]);
        fs::remove_file(&path).unwrap();
    }

    // Rollback-on-failed-append is exercised with injected faults in
    // `tests/fault_injection.rs` (the fault plan is process-global and must
    // not be installed from unit tests that share this process).

    #[test]
    fn framed_records_detect_tearing() {
        let framed = frame_record(7, "submit id=1 time=0");
        assert_eq!(parse_record(&framed), Some((7, "submit id=1 time=0")));
        // The checksum is FNV-1a of "<seq> <payload>", whatever the digits.
        for seq in [0, 9, 10, 12345, u64::MAX] {
            let sum = crate::fnv::fnv1a_64(format!("{seq} drain").as_bytes()) as u32;
            assert_eq!(
                frame_record(seq, "drain"),
                format!("c {seq} {sum:08x} drain")
            );
        }
        // Any strict prefix of the line fails the checksum (or the frame).
        for cut in 0..framed.len() {
            assert_eq!(parse_record(&framed[..cut]), None, "prefix {cut} parsed");
        }
        // So does a corrupted payload.
        let tampered = framed.replace("id=1", "id=2");
        assert_eq!(parse_record(&tampered), None);
    }
}
