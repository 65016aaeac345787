//! Durable sweep progress journals.
//!
//! A resumable sweep writes one ledger per sweep key. The ledger is an
//! append-only text file of `cell <cell-key> <result-fingerprint>` lines, one
//! per completed cell, flushed after every append — after a `SIGKILL` the
//! ledger holds every cell whose line made it into the `write` syscall, plus
//! at most one torn final line, which opening the ledger truncates away.
//! [`SweepLedger::open`] reads the file once and returns the journaled cells.
//!
//! The file handling is the shared [`crate::journal`] machinery (the same
//! code serve session logs recover through), so a failed append rolls back
//! its torn prefix and reopening cuts any unterminated tail. The line format
//! is unchanged from when the ledger carried its own file code: ledgers
//! written by older builds replay byte-identically.
//!
//! The ledger is a *progress log*, not the source of truth: cell results live
//! in the store under their own keys, and the sweep driver always writes the
//! result artifact **before** journaling the cell, so a journaled cell's
//! result is guaranteed present. Resume correctness therefore never depends
//! on the ledger — a missing or truncated ledger only costs the driver a
//! per-cell `has()` probe — but the replayed fingerprints let a resumed sweep
//! assert it is reading back exactly the bytes the interrupted run produced.

use crate::fnv::{key_hex, parse_key_hex};
use crate::journal::{FsyncPolicy, Journal};
use crate::store::{ArtifactKind, ArtifactStore};
use std::collections::BTreeMap;
use std::io;

/// The append-only journal of one sweep's completed cells.
#[derive(Debug)]
pub struct SweepLedger {
    journal: Journal,
}

impl SweepLedger {
    /// Open (creating if needed) the ledger for `sweep_key` in `store`, and
    /// return it with every journaled cell and its result fingerprint, from
    /// one read of the file. An unterminated torn tail left by a kill is
    /// truncated here. A complete line that does not parse (bitrot, say) is
    /// skipped, never an error: the ledger is a hint, not the source of
    /// truth. A later line for the same cell wins.
    pub fn open(
        store: &ArtifactStore,
        sweep_key: u128,
    ) -> io::Result<(SweepLedger, BTreeMap<u128, u64>)> {
        let path = store.path(ArtifactKind::Ledger, sweep_key);
        // Recovery accepts every complete line (a malformed one as `None`),
        // so only the unterminated tail is cut; flush-only durability
        // matches the ledger's contract (survive process death, not power
        // loss).
        let (journal, lines) =
            Journal::recover(path, FsyncPolicy::Never, |line| Some(parse_cell(line)))?;
        let cells = lines.into_iter().flatten().collect();
        Ok((SweepLedger { journal }, cells))
    }

    /// The ledger's on-disk path.
    pub fn path(&self) -> &std::path::Path {
        self.journal.path()
    }

    /// Durably journal a completed cell: one line, flushed before returning.
    /// Callers must have already published the cell's result artifact.
    pub fn record(&self, cell_key: u128, result_fingerprint: u64) -> io::Result<()> {
        self.journal.append_line(&format!(
            "cell {} {result_fingerprint:016x}",
            key_hex(cell_key)
        ))
    }
}

/// The cell key and result fingerprint of a `cell <key> <fingerprint>` line.
fn parse_cell(line: &str) -> Option<(u128, u64)> {
    let mut parts = line.split_ascii_whitespace();
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("cell"), Some(key), Some(fp), None) => {
            parse_key_hex(key).zip(u64::from_str_radix(fp, 16).ok())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psbench-ledger-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The cells a fresh open of the ledger replays.
    fn replay(store: &ArtifactStore, sweep_key: u128) -> BTreeMap<u128, u64> {
        SweepLedger::open(store, sweep_key).unwrap().1
    }

    #[test]
    fn record_then_replay_round_trips() {
        let dir = scratch("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        let (ledger, cells) = SweepLedger::open(&store, 7).unwrap();
        assert!(cells.is_empty());
        ledger.record(10, 0xaaaa).unwrap();
        ledger.record(11, 0xbbbb).unwrap();
        drop(ledger);
        let (ledger, cells) = SweepLedger::open(&store, 7).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[&10], 0xaaaa);
        assert_eq!(cells[&11], 0xbbbb);

        // Reopening appends rather than truncating, and a later line for the
        // same cell wins.
        ledger.record(12, 0xcccc).unwrap();
        ledger.record(10, 0xdddd).unwrap();
        drop(ledger);
        let cells = replay(&store, 7);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[&10], 0xdddd);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_lines_keep_the_historic_byte_format() {
        let dir = scratch("format");
        let store = ArtifactStore::open(&dir).unwrap();
        let (ledger, _) = SweepLedger::open(&store, 3).unwrap();
        ledger.record(0xabc, 0x1234).unwrap();
        let text = fs::read_to_string(ledger.path()).unwrap();
        assert_eq!(
            text,
            "cell 00000000000000000000000000000abc 0000000000001234\n"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open_not_fatal() {
        let dir = scratch("torn");
        let store = ArtifactStore::open(&dir).unwrap();
        let (ledger, _) = SweepLedger::open(&store, 9).unwrap();
        ledger.record(1, 0x1111).unwrap();
        let path = ledger.path().to_path_buf();
        drop(ledger);
        // Simulate a kill mid-append: a truncated final line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "cell 00000000000000000000000000").unwrap();
        }
        // Reopening cuts the torn tail and returns exactly the completed
        // cells, so the next record lands clean.
        let (ledger, cells) = SweepLedger::open(&store, 9).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[&1], 0x1111);
        ledger.record(2, 0x2222).unwrap();
        drop(ledger);
        let cells = replay(&store, 9);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[&2], 0x2222);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_complete_lines_are_skipped_by_replay() {
        let dir = scratch("malformed");
        let store = ArtifactStore::open(&dir).unwrap();
        let (ledger, _) = SweepLedger::open(&store, 5).unwrap();
        ledger.record(1, 0x1111).unwrap();
        let path = ledger.path().to_path_buf();
        drop(ledger);
        // A complete-but-garbled line mid-file (e.g. filesystem bitrot):
        // opening skips it; the ledger is a hint, not the source of truth.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "cell not-a-key junk").unwrap();
        }
        let (ledger, cells) = SweepLedger::open(&store, 5).unwrap();
        assert_eq!(cells.len(), 1);
        ledger.record(2, 0x2222).unwrap();
        drop(ledger);
        assert_eq!(replay(&store, 5).len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_ledger_replays_empty() {
        let dir = scratch("missing");
        let store = ArtifactStore::open(&dir).unwrap();
        let (ledger, _) = SweepLedger::open(&store, 1).unwrap();
        fs::remove_file(ledger.path()).unwrap();
        drop(ledger);
        assert!(replay(&store, 1).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
