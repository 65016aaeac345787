//! The content-addressed on-disk artifact store.
//!
//! One store is one directory tree:
//!
//! ```text
//! <root>/traces/<key>.swf        ingested traces, canonical SWF text
//! <root>/profiles/<key>.profile  cached WorkloadProfiles (codec text)
//! <root>/results/<key>.result    memoized SimulationResults (codec text)
//! <root>/meta/<key>.meta         memoized metasystem run summaries (codec text)
//! <root>/ledgers/<key>.ledger    durable sweep progress journals
//! ```
//!
//! Every artifact file is named by the 32-hex-digit rendering of its 128-bit
//! FNV-1a key and written **atomically**: bytes go to a dot-prefixed temp file
//! in the same directory, which is then renamed over the final name. A reader
//! (or a concurrently resumed sweep) therefore only ever observes absent or
//! complete artifacts — never a torn write — and a killed writer leaves at
//! worst a temp file that [`ArtifactStore::gc`] reclaims.
//!
//! Keys are *input* fingerprints, not output hashes: a profile is keyed by
//! (trace fingerprint, analyze version), a result by (trace fingerprint,
//! scheduler, simulation config, scheduler-semantics version). Bumping
//! [`psbench_analyze::ANALYZE_VERSION`] or [`psbench_sched::SCHED_VERSION`]
//! changes every key, so stale artifacts are simply never addressed again;
//! `gc` removes them because their embedded version stamp no longer decodes.
//! Trace keys *are* content-derived — the fingerprint of the parse-canonical
//! record lines plus header — so re-ingesting an already-stored trace (or any
//! byte-different file that parses to the same canonical log) dedupes onto
//! the same artifact.

use crate::codec::{self, CodecError};
use crate::fault::{self, FaultyWriter};
use crate::fnv::{key_hex, parse_key_hex, Fnv128};
use psbench_analyze::{WorkloadProfile, ANALYZE_VERSION};
use psbench_sim::SimulationResult;
use psbench_swf::{record_line, JobSource, ParseError, ParseOptions, RecordIter};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The kinds of artifact a store holds, each in its own subdirectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// An ingested trace in canonical SWF text.
    Trace,
    /// A cached [`WorkloadProfile`].
    Profile,
    /// A memoized [`SimulationResult`].
    Result,
    /// A memoized metasystem run summary (see [`crate::codec::MetaSummary`]).
    Meta,
    /// A durable sweep progress ledger (see [`crate::ledger::SweepLedger`]).
    Ledger,
}

impl ArtifactKind {
    /// Every kind, in the order store listings report them.
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::Trace,
        ArtifactKind::Profile,
        ArtifactKind::Result,
        ArtifactKind::Meta,
        ArtifactKind::Ledger,
    ];

    /// The subdirectory this kind lives in.
    pub fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "traces",
            ArtifactKind::Profile => "profiles",
            ArtifactKind::Result => "results",
            ArtifactKind::Meta => "meta",
            ArtifactKind::Ledger => "ledgers",
        }
    }

    /// The file extension of this kind's artifacts.
    pub fn ext(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "swf",
            ArtifactKind::Profile => "profile",
            ArtifactKind::Result => "result",
            ArtifactKind::Meta => "meta",
            ArtifactKind::Ledger => "ledger",
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactKind::Trace => "trace",
            ArtifactKind::Profile => "profile",
            ArtifactKind::Result => "result",
            ArtifactKind::Meta => "meta",
            ArtifactKind::Ledger => "ledger",
        })
    }
}

/// One artifact in a store listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// What kind of artifact this is.
    pub kind: ArtifactKind,
    /// Its 128-bit key.
    pub key: u128,
    /// On-disk size in bytes.
    pub bytes: u64,
}

/// What [`ArtifactStore::ingest`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The trace's content fingerprint — its key under [`ArtifactKind::Trace`].
    pub key: u128,
    /// Number of job records in the trace.
    pub records: u64,
    /// `true` when the trace was already present and no bytes were written.
    pub deduplicated: bool,
}

/// What [`ArtifactStore::gc`] reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files removed (stale-version artifacts, corrupt artifacts, temp litter).
    pub removed: usize,
    /// Total bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Artifacts that decoded cleanly and were kept.
    pub kept: usize,
}

/// What [`ArtifactStore::verify`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Artifacts that passed every check.
    pub ok: usize,
    /// Human-readable descriptions of every problem found.
    pub problems: Vec<String>,
}

/// Removes a temp file on drop unless defused — keeps error paths from
/// littering the store with partial writes.
struct TmpGuard {
    path: PathBuf,
    keep: bool,
}

impl TmpGuard {
    fn new(path: PathBuf) -> Self {
        TmpGuard { path, keep: false }
    }

    fn defuse(mut self) {
        self.keep = true;
    }
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if !self.keep {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// A content-addressed artifact store rooted at one directory.
///
/// All methods take `&self`; concurrent use from sweep workers is safe because
/// every write is an atomic rename and every key names immutable content.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
}

/// Temp-name sequence shared by every [`ArtifactStore`] handle in the
/// process, so handles opened on one root (a serve shard opens one per drain)
/// never write through the same temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh dot-prefixed temp path in `dir`, unique within this process.
fn tmp_path(dir: &Path) -> PathBuf {
    // Relaxed: the counter publishes no other data; `fetch_add` alone makes
    // every value unique.
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(".tmp-{}-{seq}", std::process::id()))
}

impl ArtifactStore {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root = root.into();
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join(kind.dir()))?;
        }
        Ok(ArtifactStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of an artifact (whether or not it exists).
    pub fn path(&self, kind: ArtifactKind, key: u128) -> PathBuf {
        self.root
            .join(kind.dir())
            .join(format!("{}.{}", key_hex(key), kind.ext()))
    }

    /// Whether an artifact is present.
    pub fn has(&self, kind: ArtifactKind, key: u128) -> bool {
        self.path(kind, key).is_file()
    }

    /// Atomically publish `bytes` as the artifact `(kind, key)`. A no-op if
    /// the artifact already exists (content under one key is immutable, so
    /// first-writer-wins is correct).
    fn put_bytes(&self, kind: ArtifactKind, key: u128, bytes: &[u8]) -> io::Result<()> {
        let final_path = self.path(kind, key);
        if final_path.is_file() {
            return Ok(());
        }
        let tmp = tmp_path(&self.root.join(kind.dir()));
        let guard = TmpGuard::new(tmp.clone());
        {
            let mut f = File::create(&tmp)?;
            fault::write_all(&mut f, bytes)?;
            f.flush()?;
        }
        fs::rename(&tmp, &final_path)?;
        guard.defuse();
        Ok(())
    }

    fn get_string(&self, kind: ArtifactKind, key: u128) -> io::Result<Option<String>> {
        match fs::read_to_string(self.path(kind, key)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Cache a profile under `key` (see [`profile_key`] for the canonical key
    /// derivation).
    pub fn put_profile(&self, key: u128, profile: &WorkloadProfile) -> io::Result<()> {
        self.put_bytes(
            ArtifactKind::Profile,
            key,
            codec::encode_profile(profile).as_bytes(),
        )
    }

    /// Fetch a cached profile; `Ok(None)` when absent, `Err` with
    /// [`io::ErrorKind::InvalidData`] when present but corrupt or stale.
    pub fn get_profile(&self, key: u128) -> io::Result<Option<WorkloadProfile>> {
        match self.get_string(ArtifactKind::Profile, key)? {
            None => Ok(None),
            Some(text) => codec::decode_profile(&text).map(Some).map_err(invalid_data),
        }
    }

    /// Memoize a simulation result under `key`.
    pub fn put_result(&self, key: u128, result: &SimulationResult) -> io::Result<()> {
        self.put_encoded_result(key, &codec::encode_result(result))
    }

    /// Memoize a result the caller has already encoded with
    /// [`encode_result`](crate::codec::encode_result), so a caller that
    /// also sends those bytes elsewhere (a serve drain's reply) encodes once.
    /// `encoded` must be that function's output: it is stored as it is.
    pub fn put_encoded_result(&self, key: u128, encoded: &str) -> io::Result<()> {
        self.put_bytes(ArtifactKind::Result, key, encoded.as_bytes())
    }

    /// Fetch a memoized result; `Ok(None)` when absent, `Err` with
    /// [`io::ErrorKind::InvalidData`] when present but corrupt or stale.
    pub fn get_result(&self, key: u128) -> io::Result<Option<SimulationResult>> {
        Ok(self.get_result_with_fingerprint(key)?.map(|(r, _)| r))
    }

    /// Fetch a memoized result together with the FNV-1a fingerprint of its
    /// stored encoding — the same value [`result_fingerprint`] computes,
    /// without re-encoding: stored bytes *are* the canonical encoding
    /// (`encode(decode(text)) == text`, property-tested), so hashing them is
    /// equivalent and additionally pins the actual on-disk bytes.
    ///
    /// [`result_fingerprint`]: crate::codec::result_fingerprint
    pub fn get_result_with_fingerprint(
        &self,
        key: u128,
    ) -> io::Result<Option<(SimulationResult, u64)>> {
        match self.get_string(ArtifactKind::Result, key)? {
            None => Ok(None),
            Some(text) => {
                let fp = crate::fnv::fnv1a_64(text.as_bytes());
                codec::decode_result(&text)
                    .map(|r| Some((r, fp)))
                    .map_err(invalid_data)
            }
        }
    }

    /// Memoize a metasystem run summary under `key`.
    pub fn put_meta(&self, key: u128, meta: &codec::MetaSummary) -> io::Result<()> {
        self.put_bytes(ArtifactKind::Meta, key, codec::encode_meta(meta).as_bytes())
    }

    /// Fetch a memoized metasystem summary; `Ok(None)` when absent, `Err`
    /// with [`io::ErrorKind::InvalidData`] when present but corrupt or stale.
    pub fn get_meta(&self, key: u128) -> io::Result<Option<codec::MetaSummary>> {
        match self.get_string(ArtifactKind::Meta, key)? {
            None => Ok(None),
            Some(text) => codec::decode_meta(&text).map(Some).map_err(invalid_data),
        }
    }

    /// Ingest a job stream as a stored trace, in bounded memory.
    ///
    /// Records are fingerprinted and spilled to a temp body file one at a
    /// time — the stream is never materialized — and the header (complete
    /// once the stream is drained, per the [`JobSource`] contract) is
    /// fingerprinted last and written first. If a trace with the same
    /// fingerprint is already stored, nothing is written
    /// ([`IngestOutcome::deduplicated`]); re-ingesting a stored trace always
    /// dedupes because stored traces are parse-canonical.
    ///
    /// I/O failures surface as [`ParseError::Io`], like any other source
    /// failure.
    pub fn ingest<S: JobSource>(&self, mut source: S) -> Result<IngestOutcome, ParseError> {
        let trace_dir = self.root.join(ArtifactKind::Trace.dir());
        let body_path = tmp_path(&trace_dir);
        let _body_guard = TmpGuard::new(body_path.clone());
        let mut body = BufWriter::new(FaultyWriter::new(
            File::create(&body_path).map_err(io_parse)?,
        ));
        let mut hasher = trace_hasher();
        let mut records = 0u64;
        while let Some(rec) = source.next_record() {
            let line = record_line(&rec?);
            hasher.write(line.as_bytes());
            hasher.write(b"\n");
            body.write_all(line.as_bytes()).map_err(io_parse)?;
            body.write_all(b"\n").map_err(io_parse)?;
            records += 1;
        }
        body.flush().map_err(io_parse)?;
        drop(body);
        let header_lines = source.meta().header.render();
        for line in &header_lines {
            hasher.write(line.as_bytes());
            hasher.write(b"\n");
        }
        let key = hasher.finish();
        let final_path = self.path(ArtifactKind::Trace, key);
        if final_path.is_file() {
            return Ok(IngestOutcome {
                key,
                records,
                deduplicated: true,
            });
        }
        // Assemble header + body into the final artifact, atomically.
        let assembled = tmp_path(&trace_dir);
        let guard = TmpGuard::new(assembled.clone());
        {
            let mut out = BufWriter::new(FaultyWriter::new(
                File::create(&assembled).map_err(io_parse)?,
            ));
            for line in &header_lines {
                out.write_all(line.as_bytes()).map_err(io_parse)?;
                out.write_all(b"\n").map_err(io_parse)?;
            }
            let mut body_in = File::open(&body_path).map_err(io_parse)?;
            io::copy(&mut body_in, &mut out).map_err(io_parse)?;
            out.flush().map_err(io_parse)?;
        }
        fs::rename(&assembled, &final_path).map_err(io_parse)?;
        guard.defuse();
        Ok(IngestOutcome {
            key,
            records,
            deduplicated: false,
        })
    }

    /// Open a stored trace as a streaming [`JobSource`]; `Ok(None)` when the
    /// trace is absent.
    pub fn open_trace(&self, key: u128) -> io::Result<Option<RecordIter<BufReader<File>>>> {
        match File::open(self.path(ArtifactKind::Trace, key)) {
            Ok(f) => Ok(Some(RecordIter::new(
                BufReader::new(f),
                ParseOptions::default(),
            ))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// List every artifact, sorted by kind then key. Files that are not
    /// well-formed artifacts (temp litter) are skipped here; [`Self::verify`]
    /// and [`Self::gc`] report and reclaim them.
    pub fn ls(&self) -> io::Result<Vec<StoreEntry>> {
        let mut out = Vec::new();
        for kind in ArtifactKind::ALL {
            for (path, key) in self.dir_files(kind)? {
                if let Some(key) = key {
                    out.push(StoreEntry {
                        kind,
                        key,
                        bytes: fs::metadata(&path)?.len(),
                    });
                }
            }
        }
        out.sort_by_key(|e| (e.kind, e.key));
        Ok(out)
    }

    /// Every file in a kind's directory, with its parsed key (`None` for
    /// files whose name is not `<32-hex>.<ext>`).
    fn dir_files(&self, kind: ArtifactKind) -> io::Result<Vec<(PathBuf, Option<u128>)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join(kind.dir()))? {
            let path = entry?.path();
            if !path.is_file() {
                continue;
            }
            let key = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(&format!(".{}", kind.ext())))
                .and_then(parse_key_hex);
            out.push((path, key));
        }
        out.sort();
        Ok(out)
    }

    /// Reclaim everything no longer useful: temp litter from killed writers,
    /// corrupt artifacts, and artifacts whose embedded version stamp is stale
    /// (their keys are unreachable under the current
    /// [`ANALYZE_VERSION`] / [`psbench_sched::SCHED_VERSION`], so they can
    /// never be served again). Traces and ledgers are content-stable and only
    /// lose litter.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for kind in ArtifactKind::ALL {
            for (path, key) in self.dir_files(kind)? {
                let stale = match (kind, key) {
                    (_, None) => true, // temp litter / foreign file
                    (ArtifactKind::Profile, Some(key)) => {
                        matches!(self.get_profile(key), Err(_) | Ok(None))
                    }
                    (ArtifactKind::Result, Some(key)) => {
                        matches!(self.get_result(key), Err(_) | Ok(None))
                    }
                    (ArtifactKind::Meta, Some(key)) => {
                        matches!(self.get_meta(key), Err(_) | Ok(None))
                    }
                    (ArtifactKind::Trace | ArtifactKind::Ledger, Some(_)) => false,
                };
                if stale {
                    report.reclaimed_bytes += fs::metadata(&path)?.len();
                    fs::remove_file(&path)?;
                    report.removed += 1;
                } else {
                    report.kept += 1;
                }
            }
        }
        Ok(report)
    }

    /// Check every artifact: names must be well-formed keys, profiles and
    /// results must decode, and each trace's content must re-fingerprint to
    /// its own key (the content-addressing invariant).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for kind in ArtifactKind::ALL {
            for (path, key) in self.dir_files(kind)? {
                let Some(key) = key else {
                    report
                        .problems
                        .push(format!("{}: not a store artifact", path.display()));
                    continue;
                };
                let problem = match kind {
                    ArtifactKind::Profile => self.get_profile(key).err().map(|e| e.to_string()),
                    ArtifactKind::Result => self.get_result(key).err().map(|e| e.to_string()),
                    ArtifactKind::Meta => self.get_meta(key).err().map(|e| e.to_string()),
                    ArtifactKind::Trace => match self.open_trace(key) {
                        Err(e) => Some(e.to_string()),
                        Ok(None) => Some("vanished during verify".into()),
                        Ok(Some(src)) => match fingerprint_source(src) {
                            Err(e) => Some(e.to_string()),
                            Ok(fp) if fp != key => {
                                Some(format!("content fingerprints to {}", key_hex(fp)))
                            }
                            Ok(_) => None,
                        },
                    },
                    // Ledgers are tolerant-by-design append logs; presence of
                    // a well-formed name is all verify asserts.
                    ArtifactKind::Ledger => None,
                };
                match problem {
                    Some(p) => report
                        .problems
                        .push(format!("{kind} {}: {p}", key_hex(key))),
                    None => report.ok += 1,
                }
            }
        }
        Ok(report)
    }
}

fn invalid_data(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn io_parse(e: io::Error) -> ParseError {
    ParseError::Io(e.to_string())
}

fn trace_hasher() -> Fnv128 {
    let mut h = Fnv128::new();
    h.write_str("trace");
    h
}

/// The content fingerprint of a job stream — the key [`ArtifactStore::ingest`]
/// would store it under — computed by draining the stream without writing
/// anything. Hash-only twin of `ingest`: canonical record lines first, header
/// (complete only after the drain) last.
pub fn fingerprint_source<S: JobSource>(mut source: S) -> Result<u128, ParseError> {
    let mut hasher = trace_hasher();
    while let Some(rec) = source.next_record() {
        let line = record_line(&rec?);
        hasher.write(line.as_bytes());
        hasher.write(b"\n");
    }
    for line in source.meta().header.render() {
        hasher.write(line.as_bytes());
        hasher.write(b"\n");
    }
    Ok(hasher.finish())
}

/// The canonical key of a cached profile: the trace fingerprint bound to the
/// current [`ANALYZE_VERSION`]. Bumping the version retires every cached
/// profile at once.
pub fn profile_key(trace_fp: u128) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("profile");
    h.write_u32(ANALYZE_VERSION);
    h.write(&trace_fp.to_le_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_workload::{Lublin99, WorkloadModel};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psbench-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_log() -> psbench_swf::SwfLog {
        Lublin99::default().generate(50, 3)
    }

    fn sample_result() -> SimulationResult {
        SimulationResult {
            scheduler: "fcfs".into(),
            machine_size: 8,
            finished: vec![],
            unfinished: 0,
            discarded: 0,
            idle_while_queued: 0.25,
            busy_integral: 1.5,
            lost_node_seconds: 0.0,
            kills: 0,
            rejected_decisions: 0,
            coalesced_wakeups: 0,
            events_processed: 17,
            end_time: 9.5,
        }
    }

    #[test]
    fn ingest_then_reingest_deduplicates() {
        let dir = scratch("ingest");
        let store = ArtifactStore::open(&dir).unwrap();
        let log = sample_log();
        let first = store.ingest(log.as_source("trace")).unwrap();
        assert!(!first.deduplicated);
        assert_eq!(first.records, 50);
        assert!(store.has(ArtifactKind::Trace, first.key));

        // Same content again: same key, nothing written.
        let again = store.ingest(log.as_source("trace")).unwrap();
        assert!(again.deduplicated);
        assert_eq!(again.key, first.key);

        // Re-ingesting the *stored* trace (parse-canonical) also dedupes.
        let stored = store.open_trace(first.key).unwrap().unwrap();
        let third = store.ingest(stored).unwrap();
        assert!(third.deduplicated);
        assert_eq!(third.key, first.key);

        // And the hash-only pass agrees with ingest.
        let fp = fingerprint_source(log.as_source("trace")).unwrap();
        assert_eq!(fp, first.key);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_and_result_round_trip_through_disk() {
        let dir = scratch("artifacts");
        let store = ArtifactStore::open(&dir).unwrap();
        let log = sample_log();
        let profile = psbench_analyze::WorkloadProfile::of_log("p", &log);
        let key = profile_key(0xfeed);
        assert_eq!(store.get_profile(key).unwrap(), None);
        store.put_profile(key, &profile).unwrap();
        assert_eq!(store.get_profile(key).unwrap().unwrap(), profile);

        let result = sample_result();
        store.put_result(42, &result).unwrap();
        assert_eq!(store.get_result(42).unwrap().unwrap(), result);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_reclaims_litter_and_corruption_and_keeps_good_artifacts() {
        let dir = scratch("gc");
        let store = ArtifactStore::open(&dir).unwrap();
        let log = sample_log();
        let ingested = store.ingest(log.as_source("t")).unwrap();
        let profile = psbench_analyze::WorkloadProfile::of_log("p", &log);
        store
            .put_profile(profile_key(ingested.key), &profile)
            .unwrap();
        // Simulated kill mid-write: temp litter in two directories.
        fs::write(dir.join("traces/.tmp-999-0"), b"partial").unwrap();
        fs::write(dir.join("results/.tmp-999-1"), b"partial").unwrap();
        // A corrupt (e.g. stale-version) result under a well-formed key.
        fs::write(
            dir.join("results")
                .join("00000000000000000000000000000abc.result"),
            b"junk",
        )
        .unwrap();

        let report = store.gc().unwrap();
        assert_eq!(report.removed, 3);
        assert_eq!(report.kept, 2);
        assert!(report.reclaimed_bytes > 0);
        assert!(store.has(ArtifactKind::Trace, ingested.key));
        assert!(store
            .get_profile(profile_key(ingested.key))
            .unwrap()
            .is_some());
        // gc is idempotent.
        assert_eq!(store.gc().unwrap().removed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_tampered_trace_content() {
        let dir = scratch("verify");
        let store = ArtifactStore::open(&dir).unwrap();
        let log = sample_log();
        let ingested = store.ingest(log.as_source("t")).unwrap();
        assert!(store.verify().unwrap().problems.is_empty());

        // Flip a byte of the stored trace: the key no longer matches content.
        let path = store.path(ArtifactKind::Trace, ingested.key);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("9999 1 -1 -1 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
        fs::write(&path, text).unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.problems.len(), 1);
        assert!(report.problems[0].contains("fingerprints to"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log's records, meeting `barrier` once the first is out: by then
    /// `ingest` has created its temp body file, so two rendezvousing ingests
    /// are both mid-write at once.
    struct Rendezvous<'a> {
        records: psbench_swf::LogSource<'a>,
        barrier: &'a std::sync::Barrier,
        yielded: usize,
    }

    impl JobSource for Rendezvous<'_> {
        fn meta(&self) -> &psbench_swf::SourceMeta {
            self.records.meta()
        }

        fn next_record(&mut self) -> Option<Result<psbench_swf::SwfRecord, ParseError>> {
            if self.yielded == 1 {
                self.barrier.wait();
            }
            self.yielded += 1;
            self.records.next_record()
        }
    }

    #[test]
    fn concurrent_handles_on_one_root_ingest_and_publish_cleanly() {
        let dir = scratch("concurrent");
        let logs = [
            Lublin99::default().generate(400, 3),
            Lublin99::default().generate(400, 4),
        ];
        let barrier = std::sync::Barrier::new(logs.len());
        let outcomes: Vec<Result<(), String>> = std::thread::scope(|s| {
            let threads: Vec<_> = logs
                .iter()
                .enumerate()
                .map(|(i, log)| {
                    let (dir, barrier) = (&dir, &barrier);
                    s.spawn(move || {
                        // One handle per thread, as a serve shard opens one
                        // per drain.
                        let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
                        let source = Rendezvous {
                            records: log.as_source(format!("t{i}")),
                            barrier,
                            yielded: 0,
                        };
                        let trace = store.ingest(source).map_err(|e| e.to_string())?;
                        store
                            .put_result(trace.key, &sample_result())
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("ingest thread panicked"))
                .collect()
        });
        assert_eq!(outcomes, vec![Ok(()), Ok(())]);
        let report = ArtifactStore::open(&dir).unwrap().verify().unwrap();
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert_eq!(report.ok, 4, "two traces and two results");
        fs::remove_dir_all(&dir).unwrap();
    }
}
