//! # psbench-swf — the Standard Workload Format
//!
//! This crate implements the workload-trace standard proposed in *"Benchmarks and
//! Standards for the Evaluation of Parallel Job Schedulers"* (Chapin et al., JSSPP
//! 1999): the Standard Workload Format (SWF) version 2 for parallel job traces, and
//! the companion standard outage format.
//!
//! The format is a plain text file with `;` comment lines (some of which are typed
//! header comments such as `;MaxNodes: 128`) and one line per job holding 18 space
//! separated integers, with `-1` marking unknown values. See [`record::SwfRecord`]
//! for the field-by-field definition.
//!
//! ## What this crate provides
//!
//! * [`record`] — the typed job record and completion codes.
//! * [`header`] — typed header comments.
//! * [`log`] — a whole workload (header + records) and workload-level utilities.
//! * [`source`] — the streaming [`source::JobSource`] abstraction unifying traces,
//!   in-memory logs, and generated workloads behind one record-stream interface.
//! * [`mod@parse`] / [`mod@write`] — lenient and strict parsing (one-shot or
//!   incremental via [`parse::RecordIter`]), canonical serialization.
//! * [`mod@validate`] — the standard's consistency rules, plus a cleaner that repairs logs.
//! * [`anonymize`] — densification of user/group/executable identifiers.
//! * [`idhash`] — the keyed hasher of every job-id map and set, here and in
//!   the simulator.
//! * [`checkpoint`] — multi-line records for checkpointed / swapped jobs.
//! * [`mod@convert`] — converters from raw accounting-log dialects to SWF.
//! * [`outage`] — the standard outage format (announced/start/end, type, nodes).
//!
//! ## Quick example
//!
//! ```
//! use psbench_swf::prelude::*;
//!
//! let text = "\
//! ;MaxNodes: 64
//! 1 0 5 100 16 -1 -1 16 200 -1 1 1 1 1 1 1 -1 -1
//! 2 30 0 50 8 -1 -1 8 60 -1 1 2 1 2 1 1 -1 -1
//! ";
//! let log = parse(text).unwrap();
//! assert_eq!(log.len(), 2);
//! assert!(validate(&log).is_clean());
//! let round = write_string(&log);
//! assert_eq!(parse(&round).unwrap().jobs, log.jobs);
//! ```

#![warn(missing_docs)]

pub mod anonymize;
pub mod checkpoint;
pub mod convert;
pub mod error;
pub mod header;
pub mod idhash;
pub mod log;
pub mod outage;
pub mod parse;
pub mod record;
pub mod source;
pub mod validate;
pub mod write;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::anonymize::{densify_ids, AnonymizationKey, IdMap};
    pub use crate::checkpoint::{assemble, expand, Burst, BurstOutcome, CheckpointedJob};
    pub use crate::convert::{
        ConvertOptions, Dialect, RawStream, StreamReport, DEFAULT_REORDER_WINDOW,
    };
    pub use crate::error::{ConvertError, OutageParseError, ParseError};
    pub use crate::header::{RequestedTimeKind, SwfHeader, FORMAT_VERSION};
    pub use crate::log::SwfLog;
    pub use crate::outage::{OutageKind, OutageLog, OutageRecord};
    pub use crate::parse::{parse, parse_reader, parse_str, ParseOptions, RecordIter};
    pub use crate::record::{CompletionStatus, SwfRecord, SwfRecordBuilder, FIELD_COUNT, UNKNOWN};
    pub use crate::source::{JobSource, LogSource, SourceMeta};
    pub use crate::validate::{
        clean, clean_and_validate, validate, validate_source, CleaningReport, StreamingValidator,
        ValidationReport, Violation,
    };
    pub use crate::write::{record_line, write_string, write_to};
}

pub use prelude::*;
