//! # psbench-store — content-addressed artifacts and resumable sweeps
//!
//! Fleet-scale evaluation re-runs the same expensive work constantly: the
//! same archived trace is re-parsed for every experiment, the same workload
//! profile recomputed for every report, the same (trace, scheduler, config)
//! simulation re-run whenever a sweep is restarted. This crate makes all of
//! that work *content-addressed and durable*:
//!
//! * [`fnv`] — the canonical FNV-1a hashing module for the whole workspace:
//!   the 64-bit table/result fingerprints the `bench` snapshots carry, and the
//!   128-bit keys that name store artifacts.
//! * [`codec`] — exact, deterministic (de)serialization of
//!   [`psbench_analyze::WorkloadProfile`]s and
//!   [`psbench_sim::SimulationResult`]s. Integer accumulators travel as
//!   decimal, floats as bit patterns; `decode(encode(x)) == x` holds with
//!   `==`, which is what makes cached artifacts indistinguishable from
//!   freshly computed values — byte for byte, report for report.
//! * [`store`] — the [`ArtifactStore`] directory tree: ingested traces
//!   (fingerprinted while streaming in bounded memory), cached profiles
//!   keyed by trace fingerprint + [`psbench_analyze::ANALYZE_VERSION`], and
//!   memoized results keyed by canonical (trace, scheduler, config)
//!   fingerprints + [`psbench_sched::SCHED_VERSION`]. All writes are
//!   atomic temp-file renames; `gc` reclaims litter and stale versions;
//!   `verify` re-checks the content-addressing invariant.
//! * [`journal`] — the shared append-only write-ahead-log primitive:
//!   flushed-per-append files with rollback on failed appends, torn-tail
//!   truncation on recovery, checksummed record framing, and a configurable
//!   fsync policy. Both the sweep ledger and `psbench-serve`'s crash-safe
//!   session logs are built on it.
//! * [`ledger`] — append-only, flushed-per-cell sweep journals. Together
//!   with the store they make sweeps resumable: a killed sweep restarts,
//!   recomputes **zero** completed cells, and renders byte-identical
//!   reports (driven by `psbench_core::sweep`).
//! * [`fault`] — a seeded, deterministic fault-injection plan (transient
//!   errors, short writes, kill-points) threaded through the journal and
//!   store write paths, so crash-safety claims are tested against simulated
//!   disk misbehavior, not just happy-path kills.
//!
//! ## Invariants
//!
//! 1. **Keys name immutable content.** A key is only ever associated with one
//!    artifact value; writers publish by atomic rename and first-writer-wins.
//! 2. **Exactness.** Decoding returns a value `==` to the encoded one — no
//!    float rounds through decimal, no map reorders, no histogram forgets
//!    whether it was ever allocated.
//! 3. **Version stamps gate reuse.** Analysis/scheduler semantics versions
//!    are folded into keys (stale artifacts become unreachable) *and*
//!    embedded in artifact bodies (so `gc` can reclaim them).
//! 4. **Journal after publish.** A sweep cell is journaled only after its
//!    result artifact is durably in the store, so a replayed ledger never
//!    points at missing data.

#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod fnv;
pub mod journal;
pub mod ledger;
pub mod store;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::codec::{
        decode_meta, decode_profile, decode_result, encode_meta, encode_profile, encode_result,
        result_fingerprint, CodecError, MetaSummary,
    };
    pub use crate::fault::FaultPlan;
    pub use crate::fnv::{fnv1a_64, fnv1a_64_hex, key_hex, parse_key_hex, Fnv128, Fnv64};
    pub use crate::journal::{frame_record, parse_record, FsyncPolicy, Journal};
    pub use crate::ledger::SweepLedger;
    pub use crate::store::{
        fingerprint_source, profile_key, ArtifactKind, ArtifactStore, GcReport, IngestOutcome,
        StoreEntry, VerifyReport,
    };
}

pub use prelude::*;
