//! # psbench-metasim — a WARMstones-style metacomputing evaluation environment
//!
//! Sections 3 and 4 of the paper extend the benchmarking question from single
//! parallel machines to metasystems ("computational grids"), and sketch the
//! WARMstones evaluation environment: a benchmark suite of annotated application
//! graphs, a canonical representation of the metasystem, and a simulation engine.
//! Two tiers of fidelity implement Sections 3–4:
//!
//! **Analytic sites** — the paper's own prescription ("meta schedulers can be
//! evaluated using simple models of local schedulers"): queue-wait /
//! reservation models for fast strategy studies.
//!
//! * [`site`] — sites (machine schedulers wrapped for the metasystem): size, speed,
//!   background load, price, queue-wait model, wait predictions, and an
//!   advance-reservation book. Sites and engine shards book reservations
//!   through one booking rule into the same step function,
//!   [`psbench_sched::StepVec`].
//! * [`appmodel`] — annotated application graphs, the three micro-benchmark classes
//!   of Section 3.2, mixed-mode workloads, and the inter-site network model.
//! * [`metasched`] — placement strategies, the application scheduler (list
//!   scheduling of graphs onto sites), queue- versus reservation-based
//!   co-allocation, and the Figure-1 entity hierarchy.
//!
//! **Engine shards** — fleet-scale simulation over *real* local schedulers:
//! every site wraps an independent online calendar engine, advanced in
//! parallel by a bulk-synchronous epoch loop with deterministic cross-site
//! dispatch.
//!
//! * [`shard`] — one site as an online engine + zoo policy + advisory
//!   advance-reservation book; it exposes its engine's raw load and carries
//!   no routing state.
//! * [`dispatch`] — the pluggable cross-site [`dispatch::DispatchPolicy`]s
//!   (round-robin, least-pressure over the backlog index's O(1) aggregates,
//!   data-affinity, reservation-based co-allocation); the dispatcher owns
//!   the pressure state, including the demand routed since the boundary.
//! * [`epoch`] — the epoch loop itself: routing into per-shard batches,
//!   parallel submit-and-advance, outage migration, and a merge that is
//!   bit-identical for any thread count.

#![warn(missing_docs)]

pub mod appmodel;
pub mod dispatch;
pub mod epoch;
pub mod metasched;
pub mod shard;
pub mod site;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::appmodel::{
        mixed_workload, AppGraph, Device, Edge, MicroBenchmark, Module, Network,
    };
    pub use crate::dispatch::{DispatchPolicy, Dispatcher};
    pub use crate::epoch::{run_metasystem, MetaConfig, MetaResult, SiteOutage, META_VERSION};
    pub use crate::metasched::{
        build_hierarchy, coallocate_via_queues, coallocate_via_reservations, AppSchedule,
        AppScheduler, CoallocationOutcome, CoallocationRequest, DeviceMap, Entity, EntityKind,
        PlacementStrategy,
    };
    pub use crate::shard::{standard_shard_fleet, Shard, ShardSpec};
    pub use crate::site::{standard_metasystem, Site, SitePlacement, SiteSpec};
}

pub use prelude::*;
