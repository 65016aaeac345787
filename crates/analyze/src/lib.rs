//! # psbench-analyze — workload characterization and model validation
//!
//! The source paper's standards only matter if a workload can be *measured*
//! and a synthetic model can be *validated* against a real log. This crate
//! provides both halves:
//!
//! * [`sketch`] — mergeable streaming accumulators with **integer-exact**
//!   state: moments, fixed-shape logarithmic histograms, and correlation
//!   sums. Merging chunk sketches is associative bit for bit, so an analysis
//!   pass can run chunked in parallel (e.g. via
//!   `psbench_core::harness::parallel_map`) and still produce byte-identical
//!   reports to a sequential single pass.
//! * [`profile`] — the single-pass [`profile::WorkloadProfile`] over an SWF
//!   job stream: marginal distributions of interarrival time, runtime, job
//!   size and runtime-estimate accuracy; diurnal and weekly arrival cycles;
//!   per-user / per-group aggregates; the size–runtime correlation.
//! * [`distance`] — Kolmogorov–Smirnov and earth-mover's distances between
//!   marginal histograms, rolled up into a [`distance::FidelityReport`] that
//!   scores how closely a generated workload matches a reference trace.
//! * [`report`] — deterministic markdown / CSV / JSON rendering: the one
//!   [`report::Table`] renderer, and the profile and fidelity reports.
//!
//! ## Example
//!
//! ```
//! use psbench_analyze::prelude::*;
//! use psbench_workload::{Lublin99, WorkloadModel};
//!
//! let reference = Lublin99::default().generate(1000, 1);
//! let candidate = Lublin99::default().generate(1000, 2);
//! let ref_profile = WorkloadProfile::of_log("reference", &reference);
//! let cand_profile = WorkloadProfile::of_log("candidate", &candidate);
//!
//! // Same model, different seed: the marginals should match closely.
//! let fidelity = FidelityReport::compare(&ref_profile, &cand_profile);
//! assert!(fidelity.mean_ks() < 0.2);
//! println!("{}", render_fidelity(&fidelity, Format::Markdown));
//! ```

#![warn(missing_docs)]

/// Version stamp of the analysis pass.
///
/// Folded into every cached-profile key of the artifact store
/// (`psbench-store`): bump it whenever [`profile::WorkloadProfile`] gains,
/// loses, or re-defines an accumulator, so stale cached profiles are never
/// returned — they simply stop being addressable and are reclaimed by
/// `store gc`.
pub const ANALYZE_VERSION: u32 = 1;

pub mod distance;
pub mod profile;
pub mod report;
pub mod sketch;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::distance::{
        ad_counts, ad_distance, chi_square, chi_square_counts, emd, joint_chi_square, ks_distance,
        FidelityReport, MarginalDistance,
    };
    pub use crate::profile::{GroupStats, WorkloadProfile, ACCURACY_SCALE};
    pub use crate::report::{
        fmt_num, json_escape, json_num, render_fidelity, render_profile, Format, Table,
    };
    pub use crate::sketch::{
        Correlation, Histogram, Histogram2, MarginalSketch, Moments, HISTOGRAM_BINS, JOINT_BINS,
    };
}

pub use prelude::*;
