//! The discrete-event simulation engine.
//!
//! The engine owns the clock, the event queue, the job queue, the running set and
//! the cluster. Running jobs progress at a *rate* (time share × speedup), so both
//! space sharing (dedicated processors) and time sharing (gang scheduling) are
//! simulated by the same loop: the next event is either the earliest external event
//! (arrival, outage, timer) or the earliest completion at current rates.
//!
//! The engine also realizes the paper's two workload-realism extensions:
//!
//! * **feedback** (Section 2.2): jobs with a preceding-job dependency are released
//!   into the queue only after their predecessor terminates plus the think time;
//! * **outages** (Section 2.2): the standard outage log drives capacity changes;
//!   announced outages generate advance-notice events, surprise failures kill the
//!   most recently started jobs, which restart from scratch.
//!
//! # The hot path: rate-epoch virtual time and the completion calendar
//!
//! Archive-scale traces put millions of events through this loop, so the engine
//! must not do O(running) work per event. Instead of decrementing every running
//! job's remaining work at every event, each job's execution state is anchored to
//! its current *rate epoch* ([`RunningJob::anchor_time`] / `remaining_work`), and
//! its completion instant — exact while the rate is constant, which is the common
//! case for every space-sharing scheduler — is cached as
//! [`RunningJob::predicted_end`] and tracked in a *completion calendar*: a min-heap
//! of `(predicted_end, start_seq)` entries. The per-event cost of finding the next
//! completion is then O(log running) amortized, independent of the running-set
//! size; jobs are re-materialized only when their rate actually changes (a
//! `SetShare`, a gang repack, a preemption, an outage kill).
//!
//! ## Invariants the calendar relies on
//!
//! * **Lazy invalidation.** Calendar entries are never deleted in place. Every
//!   entry records the `(slot, start_seq, epoch)` of the dispatch and rate epoch
//!   that produced it. A dispatch holds its *slot* (a reusable index into the
//!   engine's dispatch metadata) from start to removal; a rate change bumps the
//!   slot's epoch and pushes a fresh entry, and a completion/kill/preemption
//!   clears the slot. An entry is *stale* — and silently discarded when it
//!   reaches the top of the heap — unless its slot still holds a dispatch whose
//!   `start_seq` **and** `epoch` both match. A reused slot holds a later
//!   `start_seq`, so it never revives an old entry. Consequently every running
//!   job has exactly one live entry, and the heap top (after discarding stale
//!   entries) is exactly `min(predicted_end)` over the running set; checking an
//!   entry is one vector read, with no hashing.
//! * **The clock never passes an entry.** `predicted_end` is clamped to the push
//!   instant, and the main loop advances to `min(next external event, calendar
//!   top)`, so a live entry's time is never in the past: the due set at any
//!   instant is exactly the entries whose time equals `now`.
//! * **Deterministic tie-break.** Completions due at the same instant fire in
//!   `start_seq` order (a per-dispatch monotonic counter) — the order the jobs
//!   started — regardless of heap internals or the swap-removal layout of the
//!   running vector. Together with the structurally ordered wait queue, this
//!   makes results independent of container layout.
//!
//! Capacity accounting is incremental for the same reason: the engine maintains
//! `used_procs` (Σ procs·share over running jobs) as a ledger updated at
//! start/completion/share changes, plus an id→index map for the running set, so
//! validating and applying a decision (which names its job by id) is O(1)
//! instead of a linear rescan.
//! Integrals (busy, idle-while-queued, lost node-seconds) are advanced from the
//! ledger in O(1) per event. The wait queue is a [`JobQueue`]: structurally
//! ordered by `(queued_at, id)` with O(log n) insert/remove and a secondary
//! **backlog index** over `(procs, estimate)`, so policies consume it in
//! arrival order without sorting — head-of-queue policies do sublinear work
//! per react, and backfilling replans enumerate only the jobs that can
//! possibly fit the freed capacity even when thousands are waiting.
//! Completions are consulted in **batches**: every job due at one instant is
//! finished before the scheduler reacts once (a single
//! [`SchedulerEvent::JobCompleted`], or one
//! [`SchedulerEvent::CompletionBatch`] for a simultaneous group), so a mass
//! completion costs one replan instead of one per job.
//!
//! ## Two event sources
//!
//! External events come from two places. The **seeded arrivals** — every
//! offline job without a closed-loop predecessor — are known when the
//! simulation is built, so they are not heap events: they are one vector of
//! job indices, sorted once by `(arrival time, index)` and read through a
//! cursor, 4 bytes a job where a heap entry took 32 and every pop sifted
//! through all of them. The **event heap** holds the rest: outage announce,
//! start and end instants, scheduler timers, closed-loop releases and online
//! submissions, ordered by `(time, seq)`.
//!
//! The next event is the earlier of the cursor's arrival and the heap's top,
//! and at an equal time the arrival comes first. That is exactly the order
//! one heap holding both used to pop: the seeded arrivals took sequence
//! numbers `0..k` in index order before anything else was pushed (the engine
//! still reserves that band), so among themselves they pop by `(time,
//! index)` — the cursor's sort order — and at an equal time they precede
//! every other event. Online sessions seed nothing: their arrivals are heap
//! events numbered by job index, below the `ONLINE_EVENT_BAND` every other
//! event draws from. A test-only path that pushes every seeded arrival back
//! through the heap is the oracle the merge is checked against.
//!
//! ## The reference engine
//!
//! [`Simulation::new_reference`] builds the same simulation with the calendar
//! replaced by the seed implementation's linear rescans (O(running) per event):
//! the next completion is found by scanning every running job and the due set by
//! filtering the running set. Both engines share every other code path — the
//! ledger, the decision application, the event loop — and all completion times
//! are reads of the same cached `predicted_end` values, so their results are
//! **bit-identical**; the property tests in `tests/proptest_engine.rs` assert
//! exactly that over randomized workloads, and the `bench sim` suite's
//! `reference_*` rows time the reference engine as the per-event-linear
//! baseline the calendar is measured against.

use crate::cluster::Cluster;
use crate::idhash::{IdMap, IdSet};
use crate::job::{FinishedJob, QueuedJob, RunningJob, SimJob};
use crate::queue::JobQueue;
use crate::result::SimulationResult;
use crate::scheduler::{Decision, Scheduler, SchedulerContext, SchedulerEvent};
use psbench_swf::outage::OutageLog;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// What to do with jobs killed by an outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OutagePolicy {
    /// Requeue the killed job; it restarts from the beginning (the paper: "any job
    /// running on that node would have to be restarted").
    #[default]
    KillAndRequeue,
    /// The killed job is lost (counted, not requeued).
    KillAndDiscard,
}

/// Which completion-tracking implementation the engine runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// The O(log n) completion calendar (the default production engine).
    #[default]
    Calendar,
    /// The seed engine's O(running)-per-event linear rescans, kept as a
    /// differential-testing oracle and performance baseline. Produces
    /// bit-identical [`SimulationResult`]s to [`EngineKind::Calendar`].
    Reference,
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Machine size in processors.
    pub machine_size: u32,
    /// Outage log driving capacity changes, if any.
    pub outages: Option<OutageLog>,
    /// Policy for jobs killed by outages.
    pub outage_policy: OutagePolicy,
    /// If true, preceding-job / think-time dependencies are honoured (closed loop);
    /// if false they are ignored and the recorded submit times are replayed (open loop).
    pub closed_loop: bool,
    /// Hard stop: events after this time are not processed (None = run to completion).
    pub max_time: Option<f64>,
}

impl SimConfig {
    /// A simple configuration: the given machine, no outages, open loop.
    pub fn new(machine_size: u32) -> Self {
        SimConfig {
            machine_size,
            outages: None,
            outage_policy: OutagePolicy::default(),
            closed_loop: false,
            max_time: None,
        }
    }

    /// Enable closed-loop (feedback) submission.
    pub fn closed_loop(mut self) -> Self {
        self.closed_loop = true;
        self
    }

    /// Attach an outage log.
    pub fn with_outages(mut self, outages: OutageLog) -> Self {
        self.outages = Some(outages);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival(usize),
    OutageAnnounce(usize),
    OutageStart(usize),
    OutageEnd(usize),
    Wakeup,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for the max-heap: earliest time (then lowest seq) pops first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A completion-calendar entry: "the dispatch `start_seq`, held in metadata
/// slot `slot`, completes at `eta`, assuming its rate epoch is still `epoch`".
/// The entry is live only while `slot` still records that dispatch and epoch.
#[derive(Debug, Clone, Copy)]
struct CalEntry {
    eta: f64,
    start_seq: u64,
    epoch: u64,
    slot: u32,
}

impl PartialEq for CalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.eta == other.eta && self.start_seq == other.start_seq
    }
}
impl Eq for CalEntry {}
impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CalEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for the max-heap: earliest (eta, start_seq) pops first.
        other
            .eta
            .total_cmp(&self.eta)
            .then(other.start_seq.cmp(&self.start_seq))
    }
}

/// Engine-private per-dispatch metadata, held in a slot that stays put while
/// the job runs (the running vector itself is reordered by swap-removal).
/// Calendar entries name their dispatch by slot; a slot is taken from a free
/// list at start and cleared at removal, so the slots in use never outnumber
/// the running set's high-water mark.
#[derive(Debug, Clone, Copy)]
struct RunMeta {
    /// Monotonic dispatch counter: the deterministic tie-break for simultaneous
    /// completions and outage-kill victim selection. [`RunMeta::FREE`] in a
    /// cleared slot, which no calendar entry carries.
    start_seq: u64,
    /// Rate-epoch counter; bumped whenever the job is re-anchored, invalidating
    /// all previously pushed calendar entries for this dispatch.
    epoch: u64,
    /// The dispatch's current index in the running vector.
    idx: usize,
}

impl RunMeta {
    /// The `start_seq` of a cleared slot.
    const FREE: u64 = u64::MAX;
}

/// Capacity slack used when validating decisions against the machine size.
const EPS: f64 = 1e-6;

/// Sequence band for non-arrival events in an online simulation.
///
/// Offline, `seed_events` numbers the arrival events `0..n-1` in job-vector
/// order before any runtime event (a wakeup) can be pushed, so at equal times
/// arrivals always pop before wakeups. An online session interleaves
/// submissions with runtime wakeups, so arrivals take their sequence numbers
/// from the job index (`0, 1, 2, …`, exactly the offline numbering) while
/// every other event draws from a counter starting in this band — far above
/// any realistic job count — preserving the offline tie-break bit for bit.
const ONLINE_EVENT_BAND: u64 = 1 << 40;

/// Completion time implied by a rate epoch starting at `anchor` with `remaining`
/// work at `rate`: the engine's exact completion instant for the epoch.
fn eta_for(anchor: f64, remaining: f64, rate: f64) -> f64 {
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let eta = anchor + remaining / rate;
    // Clamp: never in the past (negative remaining after a re-anchor, NaN from
    // degenerate inputs). The main loop relies on live calendar times being ≥ the
    // clock.
    if eta.is_nan() || eta < anchor {
        anchor
    } else {
        eta
    }
}

/// Why an online submission, cancellation or query was refused.
///
/// Returned by the online session API ([`Simulation::submit`],
/// [`Simulation::cancel`]); the offline `run` path never produces one.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// The simulation was not built with [`Simulation::new_online`].
    NotOnline,
    /// A job with this id was already submitted.
    DuplicateId(u64),
    /// The submit time is not a finite, non-negative number.
    BadSubmitTime(f64),
    /// The submit time lies before the released frontier: that part of the
    /// timeline has already been simulated and cannot accept new arrivals.
    PastSubmit {
        /// The offending submit time.
        submitted: f64,
        /// The frontier up to which the session has been released.
        released: f64,
    },
    /// No job with this id was ever submitted.
    UnknownJob(u64),
    /// The job is running; the online API only cancels jobs that have not
    /// started (queued or pending arrival).
    JobRunning(u64),
    /// The job already finished, was discarded, or was already cancelled.
    JobDone(u64),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::NotOnline => write!(f, "not an online simulation"),
            OnlineError::DuplicateId(id) => write!(f, "job {id} already submitted"),
            OnlineError::BadSubmitTime(t) => write!(f, "bad submit time {t}"),
            OnlineError::PastSubmit {
                submitted,
                released,
            } => write!(
                f,
                "submit time {submitted} lies before the released frontier {released}"
            ),
            OnlineError::UnknownJob(id) => write!(f, "unknown job {id}"),
            OnlineError::JobRunning(id) => write!(f, "job {id} is running"),
            OnlineError::JobDone(id) => {
                write!(f, "job {id} already finished or was cancelled")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Where one job currently is in its life cycle, as reported by
/// [`Simulation::job_state`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, but its arrival time has not been reached yet.
    Pending {
        /// The submit time the arrival is scheduled for.
        submit: f64,
    },
    /// Waiting in the scheduler's queue.
    Queued {
        /// When the job entered the queue.
        queued_at: f64,
    },
    /// Holding processors.
    Running {
        /// When this dispatch started.
        started_at: f64,
        /// Completion time implied by the current rate epoch.
        predicted_end: f64,
        /// Processors allocated.
        procs: u32,
    },
    /// Completed.
    Finished {
        /// When the final dispatch started.
        start: f64,
        /// Completion time.
        end: f64,
    },
    /// Cancelled through the online API before it started.
    Cancelled,
    /// Killed by an outage under [`OutagePolicy::KillAndDiscard`].
    Discarded,
}

/// The simulator.
pub struct Simulation {
    config: SimConfig,
    /// Every job ever handed to the simulation, indexed by arrival events.
    /// Append-only, so a [`Fork`] shares it instead of copying it.
    jobs: Arc<Vec<SimJob>>,
    cluster: Cluster,
    /// The offline arrivals seeded at construction, as job indices sorted by
    /// `(arrival time, index)`; `arrivals[next_arrival..]` have not popped
    /// yet. Everything else that happens at a set instant goes through
    /// `events` (see the module docs on the two event sources).
    arrivals: Vec<u32>,
    next_arrival: usize,
    /// Outages, timers, closed-loop releases and online submissions.
    events: BinaryHeap<Event>,
    seq: u64,
    now: f64,
    queue: JobQueue,
    running: Vec<RunningJob>,
    running_index: IdMap<usize>,
    /// The metadata slot of each running job, parallel to `running`.
    running_slot: Vec<u32>,
    /// Dispatch metadata by slot; see [`RunMeta`].
    rmeta: Vec<RunMeta>,
    /// Cleared slots, reused before `rmeta` grows.
    free_slots: Vec<u32>,
    calendar: BinaryHeap<CalEntry>,
    next_start_seq: u64,
    /// Incremental ledger: Σ procs·share over the running set.
    used_procs: f64,
    /// Exact times (as bits) of wakeup events already in the heap, for coalescing.
    pending_wakeups: IdSet,
    finished: Vec<FinishedJob>,
    discarded: Vec<u64>,
    /// The ids completing at the current instant; empty between instants,
    /// kept only so its allocation is reused.
    completed: Vec<u64>,
    dependents: IdMap<Vec<usize>>,
    idle_while_queued: f64,
    busy_integral: f64,
    lost_node_seconds: f64,
    kills: usize,
    rejected_decisions: usize,
    coalesced_wakeups: usize,
    events_processed: u64,
    outage_down: Vec<u32>,
    kind: EngineKind,
    /// True for sessions built with [`Simulation::new_online`]: jobs arrive
    /// through [`Simulation::submit`] instead of being seeded up front.
    online: bool,
    /// Ids of every job ever handed to an online session (duplicate check).
    online_ids: IdSet,
    /// Jobs cancelled before their arrival event popped (tombstones), plus
    /// jobs cancelled out of the queue — consulted by `job_state`.
    cancelled: IdSet,
    /// The online released frontier: every instant strictly below
    /// `released - EPS` has been simulated; submissions must not land there.
    released: f64,
}

impl Simulation {
    /// Create a simulation of the given jobs under the given configuration, using
    /// the default O(log n) calendar engine. Job ids must be unique.
    pub fn new(config: SimConfig, jobs: Vec<SimJob>) -> Self {
        Simulation::with_engine(config, jobs, EngineKind::default())
    }

    /// Create a simulation running the seed-style reference engine (linear
    /// rescans per event). Same results as [`Simulation::new`], bit for bit;
    /// O(events × running) time. Useful as a differential-testing oracle and as
    /// the baseline in performance comparisons.
    pub fn new_reference(config: SimConfig, jobs: Vec<SimJob>) -> Self {
        Simulation::with_engine(config, jobs, EngineKind::Reference)
    }

    /// Create a simulation with an explicit engine kind.
    pub fn with_engine(config: SimConfig, jobs: Vec<SimJob>, kind: EngineKind) -> Self {
        let cluster = Cluster::new(config.machine_size);
        let mut sim = Simulation {
            cluster,
            arrivals: Vec::new(),
            next_arrival: 0,
            events: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            queue: JobQueue::new(),
            running: Vec::new(),
            running_index: IdMap::default(),
            running_slot: Vec::new(),
            rmeta: Vec::new(),
            free_slots: Vec::new(),
            calendar: BinaryHeap::new(),
            next_start_seq: 0,
            used_procs: 0.0,
            pending_wakeups: IdSet::default(),
            finished: Vec::with_capacity(jobs.len()),
            discarded: Vec::new(),
            completed: Vec::new(),
            dependents: IdMap::default(),
            idle_while_queued: 0.0,
            busy_integral: 0.0,
            lost_node_seconds: 0.0,
            kills: 0,
            rejected_decisions: 0,
            coalesced_wakeups: 0,
            events_processed: 0,
            outage_down: Vec::new(),
            kind,
            online: false,
            online_ids: IdSet::default(),
            cancelled: IdSet::default(),
            released: 0.0,
            config,
            jobs: Arc::new(jobs),
        };
        sim.seed_events();
        sim
    }

    /// Create an empty **online** simulation: jobs arrive incrementally via
    /// [`Simulation::submit`] while the clock is advanced with
    /// [`Simulation::advance_released`] / [`Simulation::step`].
    ///
    /// An online session driven by monotone submissions is bit-identical to
    /// the offline [`Simulation::run`] over the same jobs: the clock only
    /// ever advances to event/completion instants (so the float integrals
    /// accrue over the same partition of the timeline), and arrivals keep
    /// the offline sequence numbering (see `ONLINE_EVENT_BAND`).
    ///
    /// Outage logs and closed-loop feedback are offline-only features; the
    /// configuration must not request them.
    ///
    /// Services drive online sessions through `psbench_sched::LiveSim`,
    /// which builds one of these together with its live policy and routes
    /// every call through that policy.
    pub fn new_online(config: SimConfig) -> Self {
        assert!(
            config.outages.is_none(),
            "online simulations do not support outage logs"
        );
        assert!(
            !config.closed_loop,
            "online simulations do not support closed-loop feedback"
        );
        let mut sim = Simulation::with_engine(config, Vec::new(), EngineKind::default());
        sim.online = true;
        sim.seq = ONLINE_EVENT_BAND;
        sim
    }

    /// Convenience: build the job list from an SWF log and simulate it.
    pub fn from_log(config: SimConfig, log: &psbench_swf::SwfLog) -> Self {
        Simulation::new(config, SimJob::from_log(log))
    }

    /// Build the job list by draining a streaming [`psbench_swf::JobSource`]
    /// — an incrementally parsed archive trace, a lazily generated model
    /// workload, or an in-memory log — and simulate it. Equivalent to
    /// [`Simulation::from_log`] over the collected log, but the full SWF
    /// record vector is never materialized.
    pub fn from_source<S: psbench_swf::JobSource>(
        config: SimConfig,
        source: S,
    ) -> Result<Self, psbench_swf::ParseError> {
        Ok(Simulation::new(config, SimJob::from_source(source)?))
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { time, seq, kind });
    }

    /// The instant the arrival of job `idx` is scheduled for.
    fn arrival_time(&self, idx: usize) -> f64 {
        self.jobs[idx].submit.max(0.0)
    }

    fn seed_events(&mut self) {
        // Allocated before the transient id set below, so freeing the set
        // leaves no hole under a block that lives for the whole run.
        let mut arrivals = Vec::with_capacity(self.jobs.len());
        let ids: IdSet = self.jobs.iter().map(|j| j.id).collect();
        // The id->index maps (and the queue's id keys) require unique ids; a
        // duplicate would silently drop one of the jobs, so fail loudly.
        assert!(
            ids.len() == self.jobs.len(),
            "simulation job ids must be unique ({} duplicates)",
            self.jobs.len() - ids.len()
        );
        assert!(
            self.jobs.len() <= u32::MAX as usize,
            "at most 2^32 - 1 jobs per simulation"
        );
        for i in 0..self.jobs.len() {
            let job = &self.jobs[i];
            let dependent = self.config.closed_loop
                && job
                    .preceding
                    .map(|p| ids.contains(&p) && p != job.id)
                    .unwrap_or(false);
            if dependent {
                let pred = job.preceding.unwrap();
                self.dependents.entry(pred).or_default().push(i);
            } else {
                arrivals.push(i as u32);
            }
        }
        // By (time, index): the (time, seq) order the arrivals had when they
        // were heap events numbered 0, 1, 2, ... in index order. In place,
        // and one pass over a trace already sorted by submit time.
        arrivals.sort_unstable_by(|&a, &b| {
            self.arrival_time(a as usize)
                .total_cmp(&self.arrival_time(b as usize))
                .then(a.cmp(&b))
        });
        // The seeded arrivals keep their sequence numbers: every heap event
        // is numbered after them, as when they were heap events themselves.
        self.seq = arrivals.len() as u64;
        self.arrivals = arrivals;
        if let Some(outages) = self.config.outages.clone() {
            self.outage_down = vec![0; outages.outages.len()];
            for (i, o) in outages.outages.iter().enumerate() {
                if let Some(a) = o.announced_time {
                    if (a as f64) < o.start_time as f64 {
                        self.push_event(a as f64, EventKind::OutageAnnounce(i));
                    }
                }
                self.push_event(o.start_time as f64, EventKind::OutageStart(i));
                self.push_event(o.end_time as f64, EventKind::OutageEnd(i));
            }
        }
    }

    /// The seeded arrivals pushed back through the event heap with the
    /// sequence numbers `0..k` in index order: the single event source the
    /// arrival cursor replaced, kept as the oracle the two-source merge is
    /// tested against. Call before the first step.
    #[cfg(test)]
    fn arrivals_through_heap(mut self) -> Self {
        let mut seeded = std::mem::take(&mut self.arrivals);
        seeded.sort_unstable();
        for (seq, idx) in seeded.into_iter().enumerate() {
            let idx = idx as usize;
            self.events.push(Event {
                time: self.arrival_time(idx),
                seq: seq as u64,
                kind: EventKind::Arrival(idx),
            });
        }
        self
    }

    /// Is this calendar entry still the live entry of a running dispatch?
    fn entry_live(&self, e: &CalEntry) -> bool {
        let m = &self.rmeta[e.slot as usize];
        m.start_seq == e.start_seq && m.epoch == e.epoch
    }

    /// Earliest completion time over the running set. Calendar: amortized
    /// O(log n) (stale entries are discarded as they surface). Reference: a
    /// linear scan of the cached per-job `predicted_end` values — the same
    /// multiset the calendar holds, hence the same minimum, bit for bit.
    fn next_completion_time(&mut self) -> f64 {
        match self.kind {
            EngineKind::Calendar => {
                while let Some(top) = self.calendar.peek() {
                    if self.entry_live(top) {
                        return top.eta;
                    }
                    self.calendar.pop();
                }
                f64::INFINITY
            }
            EngineKind::Reference => self
                .running
                .iter()
                .map(|r| r.predicted_end)
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Advance the clock to `t`, accruing the busy/idle/lost integrals from the
    /// incremental ledger in O(1).
    fn advance_to(&mut self, t: f64) {
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            let used = self.used_procs;
            self.busy_integral += used * dt;
            self.lost_node_seconds += self.cluster.down_procs as f64 * dt;
            if !self.queue.is_empty() {
                let idle = (self.cluster.available_procs() as f64 - used).max(0.0);
                self.idle_while_queued += idle * dt;
            }
        }
        self.now = t;
    }

    /// Remove the running job at `idx` (swap-removal; O(1)), keeping the index
    /// map, the slots and the used-capacity ledger consistent. Clearing the
    /// removed dispatch's slot makes its calendar entries stale.
    fn remove_running(&mut self, idx: usize) -> RunningJob {
        let r = self.running.swap_remove(idx);
        let slot = self.running_slot.swap_remove(idx);
        self.rmeta[slot as usize].start_seq = RunMeta::FREE;
        self.free_slots.push(slot);
        self.running_index.remove(&r.job.id);
        if idx < self.running.len() {
            self.running_index.insert(self.running[idx].job.id, idx);
            self.rmeta[self.running_slot[idx] as usize].idx = idx;
        }
        self.used_procs -= r.proc_share();
        if self.running.is_empty() {
            // Exact resync: the ledger cannot drift while nothing runs.
            self.used_procs = 0.0;
        }
        r
    }

    /// Dispatch a queued job onto `procs` processors at `share`, opening its
    /// first rate epoch and registering it in the calendar.
    fn start_job(&mut self, q: QueuedJob, procs: u32, share: f64) {
        let mut r = RunningJob {
            remaining_work: q.job.work,
            anchor_time: self.now,
            predicted_end: 0.0,
            queued_at: q.queued_at,
            procs,
            share,
            started_at: self.now,
            first_started_at: q.first_started_at.unwrap_or(self.now),
            restarts: q.restarts,
            job: q.job,
        };
        r.predicted_end = eta_for(self.now, r.remaining_work, r.progress_rate());
        let start_seq = self.next_start_seq;
        self.next_start_seq += 1;
        let meta = RunMeta {
            start_seq,
            epoch: 0,
            idx: self.running.len(),
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.rmeta[slot as usize] = meta;
                slot
            }
            None => {
                self.rmeta.push(meta);
                (self.rmeta.len() - 1) as u32
            }
        };
        let entry = CalEntry {
            eta: r.predicted_end,
            start_seq,
            epoch: 0,
            slot,
        };
        self.used_procs += r.proc_share();
        self.running_index.insert(r.job.id, self.running.len());
        self.running.push(r);
        self.running_slot.push(slot);
        if self.kind == EngineKind::Calendar {
            self.calendar.push(entry);
        }
    }

    /// Re-anchor the running job at `idx` to the current instant with a new
    /// share: materialize its remaining work, update the ledger, open a new rate
    /// epoch and push the fresh calendar entry.
    fn set_share(&mut self, idx: usize, share: f64) {
        let now = self.now;
        let r = &mut self.running[idx];
        r.remaining_work = r.remaining_at(now);
        r.anchor_time = now;
        self.used_procs -= r.proc_share();
        r.share = share;
        self.used_procs += r.proc_share();
        r.predicted_end = eta_for(now, r.remaining_work, r.progress_rate());
        let slot = self.running_slot[idx];
        let m = &mut self.rmeta[slot as usize];
        m.epoch += 1;
        let entry = CalEntry {
            eta: self.running[idx].predicted_end,
            start_seq: m.start_seq,
            epoch: m.epoch,
            slot,
        };
        if self.kind == EngineKind::Calendar {
            self.calendar.push(entry);
        }
    }

    /// Finish the running job at `idx` now, releasing dependents (closed loop).
    fn finish_running(&mut self, idx: usize, completed: &mut Vec<u64>) {
        let r = self.remove_running(idx);
        let finished = FinishedJob {
            id: r.job.id,
            submit: r.queued_at,
            start: r.started_at,
            first_start: r.first_started_at,
            end: self.now,
            procs: r.procs,
            restarts: r.restarts,
            user: r.job.user,
        };
        completed.push(r.job.id);
        // Open-loop and online runs never have dependents: skip the hash.
        let deps = if self.dependents.is_empty() {
            None
        } else {
            self.dependents.remove(&r.job.id)
        };
        if let Some(deps) = deps {
            for idx in deps {
                let think = self.jobs[idx].think_time.max(0.0);
                self.push_event(self.now + think, EventKind::Arrival(idx));
            }
        }
        self.finished.push(finished);
    }

    /// Complete every job due at the current instant, in `start_seq` order,
    /// appending their ids to `completed`.
    fn collect_completions(&mut self, completed: &mut Vec<u64>) {
        match self.kind {
            EngineKind::Calendar => {
                // Entries surface in (eta, start_seq) order; live entries are
                // never in the past, so the due set is exactly eta == now and the
                // pops already come out in start order.
                while let Some(top) = self.calendar.peek() {
                    if !self.entry_live(top) {
                        self.calendar.pop();
                        continue;
                    }
                    if top.eta > self.now {
                        break;
                    }
                    let e = self.calendar.pop().unwrap();
                    let idx = self.rmeta[e.slot as usize].idx;
                    self.finish_running(idx, completed);
                }
            }
            EngineKind::Reference => {
                let mut due: Vec<(u64, u64)> = (0..self.running.len())
                    .filter(|&i| self.running[i].predicted_end <= self.now)
                    .map(|i| (self.start_seq(i), self.running[i].job.id))
                    .collect();
                due.sort_unstable();
                for (_, id) in due {
                    let idx = self.running_index[&id];
                    self.finish_running(idx, completed);
                }
            }
        }
        self.events_processed += completed.len() as u64;
    }

    /// The dispatch counter of the running job at `idx`.
    fn start_seq(&self, idx: usize) -> u64 {
        self.rmeta[self.running_slot[idx] as usize].start_seq
    }

    /// Kill running jobs (most recently started first; ties by start order)
    /// until the survivors fit the post-outage capacity.
    fn kill_excess_jobs(&mut self) -> usize {
        let mut killed = 0;
        loop {
            if self.used_procs <= self.cluster.available_procs() as f64 + EPS {
                break;
            }
            let victim_idx = (0..self.running.len()).max_by(|&a, &b| {
                self.running[a]
                    .started_at
                    .total_cmp(&self.running[b].started_at)
                    .then(self.start_seq(a).cmp(&self.start_seq(b)))
            });
            match victim_idx {
                Some(i) => {
                    let r = self.remove_running(i);
                    killed += 1;
                    self.kills += 1;
                    match self.config.outage_policy {
                        OutagePolicy::KillAndRequeue => {
                            self.queue.push(QueuedJob {
                                queued_at: r.queued_at,
                                restarts: r.restarts + 1,
                                first_started_at: Some(r.first_started_at),
                                job: r.job,
                            });
                        }
                        OutagePolicy::KillAndDiscard => {
                            self.discarded.push(r.job.id);
                        }
                    }
                }
                None => break,
            }
        }
        killed
    }

    fn context<'a>(&'a self, completed: &'a [u64]) -> SchedulerContext<'a> {
        SchedulerContext {
            now: self.now,
            cluster: &self.cluster,
            queue: &self.queue,
            running: &self.running,
            used_procs: self.used_procs,
            completed,
        }
    }

    fn apply_decisions(&mut self, decisions: Vec<Decision>) {
        for d in decisions {
            match d {
                Decision::Start {
                    job_id,
                    procs,
                    share,
                } => {
                    let share = if share.is_finite() {
                        share.clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let ok = match self.queue.get(job_id) {
                        Some(q) => {
                            let procs = procs.unwrap_or(q.job.procs).max(1);
                            let free = self.cluster.available_procs() as f64 - self.used_procs;
                            let fits = share > 0.0 && procs as f64 * share <= free + EPS;
                            fits.then_some(procs)
                        }
                        None => None,
                    };
                    match ok {
                        Some(procs) => {
                            let q = self.queue.remove(job_id).unwrap();
                            self.start_job(q, procs, share);
                        }
                        None => self.rejected_decisions += 1,
                    }
                }
                Decision::SetShare { job_id, share } => {
                    let share = if share.is_finite() {
                        share.clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let ok = match self.running_index.get(&job_id).copied() {
                        Some(idx) => {
                            let r = &self.running[idx];
                            let used_others = self.used_procs - r.proc_share();
                            let fits = share > 0.0
                                && used_others + r.procs as f64 * share
                                    <= self.cluster.available_procs() as f64 + EPS;
                            fits.then_some(idx)
                        }
                        None => None,
                    };
                    match ok {
                        Some(idx) => self.set_share(idx, share),
                        None => self.rejected_decisions += 1,
                    }
                }
                Decision::Preempt { job_id } => {
                    match self.running_index.get(&job_id).copied() {
                        Some(idx) => {
                            // Remaining work is preserved (preemption, not a kill).
                            let now = self.now;
                            let remaining = self.running[idx].remaining_at(now).max(0.0);
                            let mut r = self.remove_running(idx);
                            r.job.work = remaining;
                            self.queue.push(QueuedJob {
                                queued_at: r.queued_at,
                                restarts: r.restarts,
                                first_started_at: Some(r.first_started_at),
                                job: r.job,
                            });
                        }
                        None => self.rejected_decisions += 1,
                    }
                }
                Decision::Wakeup { at } => {
                    if at.is_finite() && at >= self.now {
                        // Coalesce: a timer is already scheduled for this exact
                        // instant, so a second heap entry would only produce a
                        // redundant consult. Quantum-based policies re-request
                        // the same expiry from every react, which used to grow
                        // the event heap without bound.
                        if self.pending_wakeups.insert(at.to_bits()) {
                            self.push_event(at, EventKind::Wakeup);
                        } else {
                            self.coalesced_wakeups += 1;
                        }
                    } else {
                        self.rejected_decisions += 1;
                    }
                }
            }
        }
    }

    fn consult(&mut self, scheduler: &mut dyn Scheduler, event: SchedulerEvent) {
        self.consult_completed(scheduler, event, &[]);
    }

    /// Consult with the ids of the jobs the event reports as completed.
    fn consult_completed(
        &mut self,
        scheduler: &mut dyn Scheduler,
        event: SchedulerEvent,
        completed: &[u64],
    ) {
        let decisions = scheduler.react(&self.context(completed), event);
        self.apply_decisions(decisions);
    }

    /// Debug-build paranoia: the incremental structures must agree with a fresh
    /// linear recomputation. Kept cheap enough to run inside the test suite.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        debug_assert_eq!(self.running.len(), self.running_slot.len());
        debug_assert_eq!(self.running.len(), self.running_index.len());
        debug_assert_eq!(
            self.running.len() + self.free_slots.len(),
            self.rmeta.len(),
            "every slot is either held by a running job or free"
        );
        if self.running.len() + self.queue.len() <= 512 {
            self.queue.check_invariants();
            let scan: f64 = self.running.iter().map(|r| r.proc_share()).sum();
            debug_assert!(
                (scan - self.used_procs).abs() <= 1e-6 * scan.abs().max(1.0),
                "used_procs ledger drifted: ledger {} vs scan {}",
                self.used_procs,
                scan
            );
            for (i, r) in self.running.iter().enumerate() {
                debug_assert_eq!(self.running_index[&r.job.id], i);
                let slot = self.running_slot[i] as usize;
                debug_assert_eq!(self.rmeta[slot].idx, i, "slot points astray");
            }
            for &slot in &self.free_slots {
                debug_assert_eq!(self.rmeta[slot as usize].start_seq, RunMeta::FREE);
            }
        }
    }

    /// The next instant anything can happen: the earlier of the next external
    /// event and the next completion at current rates.
    fn next_instant(&mut self) -> f64 {
        let next_event = self.peek_event().map_or(f64::INFINITY, |(t, _)| t);
        next_event.min(self.next_completion_time())
    }

    /// The time of the next external event, and whether it is the next
    /// seeded arrival (`true`) or the heap's top (`false`). The two sources
    /// merge by `(time, seq)`: every heap event is numbered after every
    /// seeded arrival, so at an equal time the arrival comes first.
    fn peek_event(&self) -> Option<(f64, bool)> {
        let arrival = self
            .arrivals
            .get(self.next_arrival)
            .map(|&i| self.arrival_time(i as usize));
        let heap = self.events.peek().map(|e| e.time);
        match (arrival, heap) {
            (Some(a), Some(h)) if a.total_cmp(&h).is_gt() => Some((h, false)),
            (Some(a), _) => Some((a, true)),
            (None, h) => h.map(|h| (h, false)),
        }
    }

    /// One iteration of the event loop, bounded by `bound`: advance to the next
    /// instant **strictly below** `bound` and process everything due there.
    /// Returns `false` (without advancing) when no such instant exists or the
    /// configured `max_time` was reached.
    fn step_bounded(&mut self, scheduler: &mut dyn Scheduler, bound: f64) -> bool {
        if let Some(limit) = self.config.max_time {
            if self.now >= limit {
                return false;
            }
        }
        let t = self.next_instant();
        if !t.is_finite() || t >= bound {
            return false;
        }
        let t = match self.config.max_time {
            Some(limit) => t.min(limit),
            None => t,
        };
        self.step_at(t, scheduler);
        true
    }

    /// Process everything due at instant `t`: advance the clock, complete due
    /// jobs (batched consult), then pop and handle all external events within
    /// the EPS fuzz of `t`.
    fn step_at(&mut self, t: f64, scheduler: &mut dyn Scheduler) {
        self.advance_to(t);

        // Completions first (they free capacity for decisions triggered
        // below). All completions due at this instant are collected before
        // the scheduler sees any of them, so the consult is batched: one
        // `JobCompleted` for a lone completion, one `CompletionBatch` for
        // a simultaneous group — a mass completion under saturation costs
        // a single replan instead of N. The consult's context carries the
        // completed ids either way, from the engine's reused buffer.
        let mut completed = std::mem::take(&mut self.completed);
        self.collect_completions(&mut completed);
        let event = match completed.as_slice() {
            [] => None,
            [job_id] => Some(SchedulerEvent::JobCompleted { job_id: *job_id }),
            batch => Some(SchedulerEvent::CompletionBatch { count: batch.len() }),
        };
        if let Some(event) = event {
            self.consult_completed(scheduler, event, &completed);
        }
        completed.clear();
        self.completed = completed;

        // External events due now.
        while let Some((time, seeded)) = self.peek_event() {
            if time > self.now + EPS {
                break;
            }
            let kind = if seeded {
                let idx = self.arrivals[self.next_arrival] as usize;
                self.next_arrival += 1;
                EventKind::Arrival(idx)
            } else {
                self.events.pop().expect("peeked").kind
            };
            self.events_processed += 1;
            match kind {
                EventKind::Arrival(idx) => {
                    let job = self.jobs[idx].clone();
                    let id = job.id;
                    if self.cancelled.contains(&id) {
                        // Cancelled before release (online API): the arrival
                        // is consumed without ever entering the queue.
                        continue;
                    }
                    // The effective submission time is "now" (for dependent
                    // jobs it is the release time).
                    self.queue.push(QueuedJob {
                        queued_at: self.now,
                        job,
                        restarts: 0,
                        first_started_at: None,
                    });
                    self.consult(scheduler, SchedulerEvent::JobArrived { job_id: id });
                }
                EventKind::OutageAnnounce(i) => {
                    let (start, end, procs) = {
                        let o = &self.config.outages.as_ref().unwrap().outages[i];
                        (
                            o.start_time as f64,
                            o.end_time as f64,
                            o.effective_nodes_affected(),
                        )
                    };
                    self.consult(
                        scheduler,
                        SchedulerEvent::OutageAnnounced { start, end, procs },
                    );
                }
                EventKind::OutageStart(i) => {
                    let procs =
                        self.config.outages.as_ref().unwrap().outages[i].effective_nodes_affected();
                    let taken = self.cluster.take_down(procs);
                    self.outage_down[i] = taken;
                    let killed = self.kill_excess_jobs();
                    if killed > 0 {
                        self.consult(scheduler, SchedulerEvent::JobsKilled { count: killed });
                    }
                    self.consult(scheduler, SchedulerEvent::OutageStarted { procs: taken });
                }
                EventKind::OutageEnd(i) => {
                    let taken = self.outage_down[i];
                    let restored = self.cluster.bring_up(taken);
                    self.outage_down[i] = 0;
                    self.consult(scheduler, SchedulerEvent::OutageEnded { procs: restored });
                }
                EventKind::Wakeup => {
                    self.pending_wakeups.remove(&time.to_bits());
                    // A timer armed for a strictly future instant must not
                    // consult the scheduler early. The instant-batch pop
                    // above fuzzes by EPS, so a wakeup armed within EPS of
                    // `now` (schedulers tracking sub-EPS reservation times
                    // arm such timers) would otherwise fire with the clock
                    // still behind it — the scheduler sees nothing due,
                    // re-arms the same instant, and the batch loop re-pops
                    // it forever. Advancing to the requested time keeps
                    // the consult exact and the re-arm cycle convergent.
                    self.advance_to(time);
                    self.consult(scheduler, SchedulerEvent::Timer);
                }
            }
        }

        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Consume the simulation state into its result.
    fn into_result(self, scheduler_name: &str) -> SimulationResult {
        SimulationResult {
            scheduler: scheduler_name.to_string(),
            machine_size: self.config.machine_size,
            finished: self.finished,
            unfinished: self.queue.len() + self.running.len(),
            discarded: self.discarded.len(),
            idle_while_queued: self.idle_while_queued,
            busy_integral: self.busy_integral,
            lost_node_seconds: self.lost_node_seconds,
            kills: self.kills,
            rejected_decisions: self.rejected_decisions,
            coalesced_wakeups: self.coalesced_wakeups,
            events_processed: self.events_processed,
            end_time: self.now,
        }
    }

    /// Run the simulation to completion under the given scheduler and return the
    /// results.
    pub fn run(mut self, scheduler: &mut dyn Scheduler) -> SimulationResult {
        self.consult(scheduler, SchedulerEvent::Start);
        while self.step(scheduler) {}
        self.into_result(scheduler.name())
    }

    // ------------------------------------------------------------------
    // The online session API.
    //
    // `run` above is exactly `begin` + `step`-until-exhausted + the result
    // conversion, so an online session that performs the same step sequence
    // (interleaved with monotone submissions that never land inside the
    // already-released timeline) reproduces the offline result bit for bit.
    // ------------------------------------------------------------------

    /// Consult the scheduler with the initial [`SchedulerEvent::Start`].
    /// Call once, before the first [`Simulation::step`] /
    /// [`Simulation::advance_released`] of an online session; the offline
    /// [`Simulation::run`] does the equivalent consult itself.
    pub fn begin(&mut self, scheduler: &mut dyn Scheduler) {
        self.consult(scheduler, SchedulerEvent::Start);
    }

    /// One iteration of the event loop: advance to the next event/completion
    /// instant and process everything due there. Returns `false` (leaving the
    /// clock untouched) once nothing is left to happen or `max_time` was hit.
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        self.step_bounded(scheduler, f64::INFINITY)
    }

    /// Advance through every instant **strictly below** `frontier − EPS` and
    /// mark the timeline up to `frontier` as released.
    ///
    /// The EPS margin keeps the batch-pop exact: a step anchored at `t`
    /// consumes every event within `t + EPS`, so stopping before
    /// `frontier − EPS` guarantees no event within the fuzz radius of a
    /// yet-to-be-submitted arrival at `frontier` is consumed early — the
    /// arrival joins its same-instant batch exactly as it would offline.
    pub fn advance_released(&mut self, scheduler: &mut dyn Scheduler, frontier: f64) {
        if frontier > self.released {
            self.released = frontier;
        }
        let bound = frontier - EPS;
        while self.step_bounded(scheduler, bound) {}
    }

    /// Submit a job into an online session. The arrival fires once the clock
    /// reaches `job.submit`; until then the job is [`JobState::Pending`].
    ///
    /// Fails if the session was not built with [`Simulation::new_online`],
    /// the id was already used, or the submit time lies inside the released
    /// timeline (before the largest `frontier` passed to
    /// [`Simulation::advance_released`]).
    pub fn submit(&mut self, job: SimJob) -> Result<(), OnlineError> {
        if !self.online {
            return Err(OnlineError::NotOnline);
        }
        if !job.submit.is_finite() {
            return Err(OnlineError::BadSubmitTime(job.submit));
        }
        let t = job.submit.max(0.0);
        if t < self.released {
            return Err(OnlineError::PastSubmit {
                submitted: t,
                released: self.released,
            });
        }
        if !self.online_ids.insert(job.id) {
            return Err(OnlineError::DuplicateId(job.id));
        }
        // Arrivals use the job index as their sequence number — the exact
        // numbering `seed_events` gives an offline run over the same vector —
        // while wakeups draw from the high [`ONLINE_EVENT_BAND`] counter, so
        // equal-time ties break identically online and offline.
        let idx = self.jobs.len();
        Arc::make_mut(&mut self.jobs).push(job);
        self.events.push(Event {
            time: t,
            seq: idx as u64,
            kind: EventKind::Arrival(idx),
        });
        Ok(())
    }

    /// Cancel a job that has not started yet: a queued job leaves the queue
    /// (the scheduler is consulted with [`SchedulerEvent::JobCancelled`]), a
    /// pending arrival is tombstoned and never enters the queue. Running or
    /// finished jobs cannot be cancelled.
    ///
    /// Cancellation is an online-only operation with no offline counterpart:
    /// a session that cancels jobs no longer replays as an offline trace.
    pub fn cancel(
        &mut self,
        scheduler: &mut dyn Scheduler,
        job_id: u64,
    ) -> Result<(), OnlineError> {
        if !self.online {
            return Err(OnlineError::NotOnline);
        }
        if !self.online_ids.contains(&job_id) {
            return Err(OnlineError::UnknownJob(job_id));
        }
        match self.job_state(job_id) {
            Some(JobState::Running { .. }) => Err(OnlineError::JobRunning(job_id)),
            Some(JobState::Queued { .. }) => {
                self.queue.remove(job_id);
                self.cancelled.insert(job_id);
                self.consult(scheduler, SchedulerEvent::JobCancelled { job_id });
                Ok(())
            }
            Some(JobState::Pending { .. }) => {
                // Tombstone the arrival; it is consumed silently when it pops.
                self.cancelled.insert(job_id);
                Ok(())
            }
            Some(JobState::Cancelled | JobState::Finished { .. } | JobState::Discarded) => {
                Err(OnlineError::JobDone(job_id))
            }
            None => Err(OnlineError::UnknownJob(job_id)),
        }
    }

    /// Run the remaining timeline to completion and return the results — the
    /// online session's equivalent of the tail of [`Simulation::run`].
    pub fn finish(mut self, scheduler: &mut dyn Scheduler) -> SimulationResult {
        while self.step(scheduler) {}
        self.into_result(scheduler.name())
    }

    /// Consult the scheduler with a bare [`SchedulerEvent::Timer`] at the
    /// current instant. A freshly built policy knows nothing about the
    /// inherited backlog until it is consulted once, so a what-if probe pokes
    /// its policy before stepping ([`Fork::poke`]).
    pub fn poke(&mut self, scheduler: &mut dyn Scheduler) {
        self.consult(scheduler, SchedulerEvent::Timer);
    }

    /// The current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The released frontier of an online session (0 until the first
    /// [`Simulation::advance_released`]).
    pub fn released(&self) -> f64 {
        self.released
    }

    /// Number of jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The wait queue itself, exposing the backlog index's O(1)
    /// [`JobQueue::demanded_procs`] aggregate that load-adaptive
    /// metaschedulers route by.
    pub fn queue(&self) -> &crate::queue::JobQueue {
        &self.queue
    }

    /// The jobs completed so far, in completion order. An online shard
    /// harvests the suffix it has not yet seen after each `advance`.
    pub fn finished_jobs(&self) -> &[FinishedJob] {
        &self.finished
    }

    /// Number of jobs currently holding processors.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Number of jobs that have completed.
    pub fn finished_len(&self) -> usize {
        self.finished.len()
    }

    /// Processor·share capacity currently in use.
    pub fn used_capacity(&self) -> f64 {
        self.used_procs
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Where `job_id` currently is in its life cycle, or `None` if the id was
    /// never handed to this simulation.
    ///
    /// The states are exclusive and are checked in this order, each at the
    /// cost given: running, O(1); queued, O(log queued); cancelled, O(1); a
    /// pending arrival, O(pending arrivals + events); finished, O(finished);
    /// discarded, O(discarded); an unreleased closed-loop dependent,
    /// O(unreleased dependents). A job that has not started is therefore
    /// found in time that grows with the live state only; finished,
    /// discarded and unknown ids also scan the history.
    pub fn job_state(&self, job_id: u64) -> Option<JobState> {
        if let Some(&idx) = self.running_index.get(&job_id) {
            let r = &self.running[idx];
            return Some(JobState::Running {
                started_at: r.started_at,
                predicted_end: r.predicted_end,
                procs: r.procs,
            });
        }
        if let Some(q) = self.queue.get(job_id) {
            return Some(JobState::Queued {
                queued_at: q.queued_at,
            });
        }
        if self.cancelled.contains(&job_id) {
            return Some(JobState::Cancelled);
        }
        let pending = |idx: usize| {
            let job = &self.jobs[idx];
            (job.id == job_id).then(|| JobState::Pending {
                submit: job.submit.max(0.0),
            })
        };
        let seeded = self.arrivals[self.next_arrival..]
            .iter()
            .find_map(|&idx| pending(idx as usize));
        let arrival = seeded.or_else(|| {
            self.events.iter().find_map(|e| match e.kind {
                EventKind::Arrival(idx) => pending(idx),
                _ => None,
            })
        });
        if arrival.is_some() {
            return arrival;
        }
        if let Some(f) = self.finished.iter().find(|f| f.id == job_id) {
            return Some(JobState::Finished {
                start: f.start,
                end: f.end,
            });
        }
        if self.discarded.contains(&job_id) {
            return Some(JobState::Discarded);
        }
        self.dependents
            .values()
            .flatten()
            .find_map(|&idx| pending(idx))
    }

    /// Copy the live state into a [`Fork`] for a what-if probe.
    ///
    /// The fork copies what stepping reads: the queue, the running set with
    /// its index and dispatch slots, the seeded arrivals not yet popped, the
    /// event heap, the completion calendar, the cluster, the pending wakeups, the unreleased
    /// dependents, the cancelled set and the counters. It shares the
    /// append-only job vector and leaves out the finished and discarded
    /// jobs and the online id set: stepping only appends to the first two
    /// and never consults the third, and policies see only
    /// [`SchedulerContext`]. Its cost therefore grows with the queued,
    /// running and pending jobs, not with the session's history.
    pub fn fork(&self) -> Fork {
        // A struct literal naming every field: a field added later must be
        // placed on one side or the other here.
        Fork(Simulation {
            config: self.config.clone(),
            jobs: Arc::clone(&self.jobs),
            cluster: self.cluster.clone(),
            arrivals: self.arrivals[self.next_arrival..].to_vec(),
            next_arrival: 0,
            events: self.events.clone(),
            seq: self.seq,
            now: self.now,
            queue: self.queue.clone(),
            running: self.running.clone(),
            running_index: self.running_index.clone(),
            running_slot: self.running_slot.clone(),
            rmeta: self.rmeta.clone(),
            free_slots: self.free_slots.clone(),
            calendar: self.calendar.clone(),
            next_start_seq: self.next_start_seq,
            used_procs: self.used_procs,
            pending_wakeups: self.pending_wakeups.clone(),
            finished: Vec::new(),
            discarded: Vec::new(),
            completed: Vec::new(),
            dependents: self.dependents.clone(),
            idle_while_queued: self.idle_while_queued,
            busy_integral: self.busy_integral,
            lost_node_seconds: self.lost_node_seconds,
            kills: self.kills,
            rejected_decisions: self.rejected_decisions,
            coalesced_wakeups: self.coalesced_wakeups,
            events_processed: self.events_processed,
            outage_down: self.outage_down.clone(),
            kind: self.kind,
            online: self.online,
            online_ids: IdSet::default(),
            cancelled: self.cancelled.clone(),
            released: self.released,
        })
    }
}

/// A copy of a simulation's live state that a what-if probe steps forward
/// under a policy of its own ([`Simulation::fork`]).
///
/// A fork holds no history, so it can only be poked, stepped and asked when
/// a job started: it cannot take submissions or cancellations, answer
/// [`Simulation::job_state`], or produce a [`SimulationResult`]. Dropping it
/// leaves the simulation it was taken from untouched.
pub struct Fork(Simulation);

impl Fork {
    /// Poke the policy at the fork's current instant, as [`Simulation::poke`].
    pub fn poke(&mut self, scheduler: &mut dyn Scheduler) {
        self.0.poke(scheduler);
    }

    /// One iteration of the event loop, as [`Simulation::step`].
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        self.0.step(scheduler)
    }

    /// When `job_id`'s current dispatch started, if it is running. A job
    /// that starts in the fork is running at the end of that step (the
    /// step's completions are collected before anything starts), so
    /// checking after each step sees every start.
    pub fn started_at(&self, job_id: u64) -> Option<f64> {
        let sim = &self.0;
        sim.running_index
            .get(&job_id)
            .map(|&idx| sim.running[idx].started_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_swf::outage::{OutageKind, OutageRecord};

    /// A minimal first-come-first-served policy used to exercise the engine.
    /// The queue view is already in `(queued_at, id)` order, so FCFS is a plain
    /// prefix walk.
    struct TestFcfs;
    impl Scheduler for TestFcfs {
        fn name(&self) -> &str {
            "test-fcfs"
        }
        fn react(&mut self, ctx: &SchedulerContext<'_>, _event: SchedulerEvent) -> Vec<Decision> {
            let mut free = ctx.free_capacity();
            let mut out = Vec::new();
            for q in ctx.queue.iter() {
                if (q.job.procs as f64) <= free + 1e-9 {
                    free -= q.job.procs as f64;
                    out.push(Decision::start(q.job.id));
                } else {
                    break;
                }
            }
            out
        }
    }

    /// [`TestFcfs`] that checks every consult's completed ids against its
    /// own record of what runs: the jobs it saw running or started last
    /// time, less those running now, in start order.
    #[derive(Default)]
    struct CheckCompleted {
        running: Vec<u64>,
        batches: usize,
    }
    impl Scheduler for CheckCompleted {
        fn name(&self) -> &str {
            "check-completed"
        }
        fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
            let gone: Vec<u64> = self
                .running
                .iter()
                .copied()
                .filter(|id| ctx.running.iter().all(|r| r.job.id != *id))
                .collect();
            assert_eq!(ctx.completed, gone, "at {} on {event:?}", ctx.now);
            match event {
                SchedulerEvent::JobCompleted { job_id } => assert_eq!(gone, [job_id]),
                SchedulerEvent::CompletionBatch { count } => {
                    assert!(count >= 2 && gone.len() == count);
                    self.batches += 1;
                }
                _ => {}
            }
            let out = TestFcfs.react(ctx, event);
            self.running.retain(|id| !gone.contains(id));
            for d in &out {
                if let Decision::Start { job_id, .. } = d {
                    self.running.push(*job_id);
                }
            }
            out
        }
    }

    #[test]
    fn consults_carry_exactly_the_completed_ids() {
        // Equal runtimes on a coarse grid: many jobs finish together.
        let jobs: Vec<SimJob> = (1..=300)
            .map(|i| {
                SimJob::rigid(
                    i,
                    (i / 4 * 10) as f64,
                    (10 + i % 3 * 10) as f64,
                    1 + (i % 5) as u32 * 4,
                )
            })
            .collect();
        for reference in [false, true] {
            let mut policy = CheckCompleted::default();
            let sim = if reference {
                Simulation::new_reference(SimConfig::new(32), jobs.clone())
            } else {
                Simulation::new(SimConfig::new(32), jobs.clone())
            };
            let result = sim.run(&mut policy);
            assert_eq!(result.finished.len(), jobs.len());
            assert!(policy.batches > 10, "{} batches", policy.batches);
        }
    }

    fn rigid_jobs(specs: &[(u64, f64, f64, u32)]) -> Vec<SimJob> {
        specs
            .iter()
            .map(|&(id, submit, runtime, procs)| SimJob::rigid(id, submit, runtime, procs))
            .collect()
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 16)]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        assert_eq!(result.finished.len(), 1);
        let f = &result.finished[0];
        assert_eq!(f.submit, 0.0);
        assert_eq!(f.start, 0.0);
        assert_eq!(f.end, 100.0);
        assert_eq!(result.unfinished, 0);
        assert_eq!(result.kills, 0);
        assert_eq!(result.rejected_decisions, 0);
    }

    #[test]
    fn jobs_queue_when_machine_full() {
        // Two 64-proc jobs on a 64-proc machine: the second waits for the first.
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 64), (2, 10.0, 50.0, 64)]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        assert_eq!(result.finished.len(), 2);
        let second = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(second.start, 100.0);
        assert_eq!(second.end, 150.0);
        assert!((second.wait() - 90.0).abs() < 1e-9);
        // While job 2 waited (10..100), the whole machine was busy: no idle-while-queued.
        assert!(result.idle_while_queued.abs() < 1e-6);
    }

    #[test]
    fn fcfs_blocks_small_jobs_behind_wide_job() {
        // A wide job at the head blocks a narrow one even though it would fit: the
        // engine leaves that choice to the policy, so FCFS shows loss of capacity.
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 48), (2, 1.0, 100.0, 32), (3, 2.0, 10.0, 8)]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        let third = result.finished.iter().find(|f| f.id == 3).unwrap();
        assert!(third.start >= 100.0);
        assert!(result.idle_while_queued > 0.0);
    }

    #[test]
    fn parallel_execution_when_capacity_allows() {
        let jobs = rigid_jobs(&[
            (1, 0.0, 100.0, 16),
            (2, 0.0, 100.0, 16),
            (3, 0.0, 100.0, 16),
        ]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        assert!(result.finished.iter().all(|f| f.start == 0.0));
        assert!(result.finished.iter().all(|f| f.end == 100.0));
        assert_eq!(result.end_time, 100.0);
    }

    #[test]
    fn simultaneous_completions_fire_in_start_order() {
        // Three identical jobs complete at the same instant; the completion
        // events (and hence the finished order) must follow dispatch order even
        // though the running set uses swap-removal internally.
        let jobs = rigid_jobs(&[
            (3, 0.0, 100.0, 16),
            (1, 0.0, 100.0, 16),
            (2, 0.0, 100.0, 16),
        ]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        let order: Vec<u64> = result.finished.iter().map(|f| f.id).collect();
        // Each job is dispatched from its own arrival consult, so dispatch order
        // is the arrival-event order (the jobs-vector order for equal submit
        // times), and simultaneous completions must replay exactly it.
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn results_invariant_under_job_permutation() {
        // Distinct submit times: the same workload handed to the engine in a
        // different vector order must produce the identical result, including
        // the completion order (swap-removal layout must not leak).
        let jobs: Vec<SimJob> = (0..60)
            .map(|i| {
                SimJob::rigid(
                    i as u64 + 1,
                    (i * 37 % 113) as f64 + i as f64 * 1e-3,
                    30.0 + (i % 5) as f64 * 90.0,
                    1 + (i % 48) as u32,
                )
            })
            .collect();
        let mut permuted = jobs.clone();
        permuted.reverse();
        permuted.swap(0, 30);
        let a = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        let b = Simulation::new(SimConfig::new(64), permuted).run(&mut TestFcfs);
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_releases_dependents_after_completion() {
        let mut jobs = rigid_jobs(&[(1, 0.0, 100.0, 8)]);
        let mut dependent = SimJob::rigid(2, 5.0, 50.0, 8);
        dependent.preceding = Some(1);
        dependent.think_time = 30.0;
        jobs.push(dependent);
        let result =
            Simulation::new(SimConfig::new(64).closed_loop(), jobs.clone()).run(&mut TestFcfs);
        let dep = result.finished.iter().find(|f| f.id == 2).unwrap();
        // released at 100 + 30 = 130, starts immediately
        assert_eq!(dep.submit, 130.0);
        assert_eq!(dep.start, 130.0);
        // Open loop ignores the dependency and uses the recorded submit time.
        let open = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        let dep_open = open.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(dep_open.submit, 5.0);
    }

    #[test]
    fn dependency_on_missing_job_is_ignored() {
        let mut job = SimJob::rigid(1, 10.0, 20.0, 4);
        job.preceding = Some(999);
        let result = Simulation::new(SimConfig::new(8).closed_loop(), vec![job]).run(&mut TestFcfs);
        assert_eq!(result.finished.len(), 1);
        assert_eq!(result.finished[0].submit, 10.0);
    }

    #[test]
    fn outage_kills_and_requeues_running_job() {
        let outages = OutageLog::from_records(vec![OutageRecord {
            outage_id: 0,
            announced_time: None,
            start_time: 50,
            end_time: 150,
            kind: OutageKind::CpuFailure,
            nodes_affected: Some(64),
            components: vec![],
        }]);
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 64)]);
        let config = SimConfig::new(64).with_outages(outages);
        let result = Simulation::new(config, jobs).run(&mut TestFcfs);
        assert_eq!(result.kills, 1);
        assert_eq!(result.finished.len(), 1);
        let f = &result.finished[0];
        // Job restarted after the outage ended and ran its full 100 s again.
        assert_eq!(f.start, 150.0);
        assert_eq!(f.end, 250.0);
        assert_eq!(f.restarts, 1);
        // The first start survives the requeue: restart statistics are intact.
        assert_eq!(f.first_start, 0.0);
        assert!(result.lost_node_seconds >= 64.0 * 100.0 - 1.0);
    }

    #[test]
    fn first_start_survives_repeated_outage_restarts() {
        // Two surprise failures in a row: the job is killed twice, restarts
        // twice, and the eventual record still points at the very first start.
        let outages = OutageLog::from_records(vec![
            OutageRecord {
                outage_id: 0,
                announced_time: None,
                start_time: 40,
                end_time: 60,
                kind: OutageKind::CpuFailure,
                nodes_affected: Some(64),
                components: vec![],
            },
            OutageRecord {
                outage_id: 1,
                announced_time: None,
                start_time: 100,
                end_time: 120,
                kind: OutageKind::CpuFailure,
                nodes_affected: Some(64),
                components: vec![],
            },
        ]);
        let jobs = rigid_jobs(&[(1, 10.0, 80.0, 64)]);
        let config = SimConfig::new(64).with_outages(outages);
        let result = Simulation::new(config, jobs).run(&mut TestFcfs);
        assert_eq!(result.kills, 2);
        let f = &result.finished[0];
        assert_eq!(f.restarts, 2);
        assert_eq!(f.first_start, 10.0);
        assert_eq!(f.start, 120.0);
        assert_eq!(f.end, 200.0);
    }

    #[test]
    fn outage_discard_policy_drops_jobs() {
        let outages = OutageLog::from_records(vec![OutageRecord {
            outage_id: 0,
            announced_time: None,
            start_time: 50,
            end_time: 60,
            kind: OutageKind::CpuFailure,
            nodes_affected: Some(64),
            components: vec![],
        }]);
        let mut config = SimConfig::new(64).with_outages(outages);
        config.outage_policy = OutagePolicy::KillAndDiscard;
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 64)]);
        let result = Simulation::new(config, jobs).run(&mut TestFcfs);
        assert_eq!(result.finished.len(), 0);
        assert_eq!(result.discarded, 1);
    }

    #[test]
    fn partial_outage_only_kills_what_does_not_fit() {
        let outages = OutageLog::from_records(vec![OutageRecord {
            outage_id: 0,
            announced_time: Some(0),
            start_time: 50,
            end_time: 1000,
            kind: OutageKind::Maintenance,
            nodes_affected: Some(32),
            components: vec![],
        }]);
        // Two 16-proc jobs: after losing 32 of 64 processors both still fit.
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 16), (2, 0.0, 100.0, 16)]);
        let config = SimConfig::new(64).with_outages(outages);
        let result = Simulation::new(config, jobs).run(&mut TestFcfs);
        assert_eq!(result.kills, 0);
        assert!(result.finished.iter().all(|f| f.end == 100.0));
    }

    #[test]
    fn oversubscribing_decision_is_rejected() {
        struct Greedy;
        impl Scheduler for Greedy {
            fn name(&self) -> &str {
                "greedy"
            }
            fn react(&mut self, ctx: &SchedulerContext<'_>, _e: SchedulerEvent) -> Vec<Decision> {
                // Try to start everything regardless of capacity.
                ctx.queue
                    .iter()
                    .map(|q| Decision::start(q.job.id))
                    .collect()
            }
        }
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 64), (2, 0.0, 100.0, 64)]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut Greedy);
        assert_eq!(result.finished.len(), 2);
        assert!(result.rejected_decisions > 0);
        // The engine still made progress correctly: second job ran after the first.
        let ends: Vec<f64> = result.finished.iter().map(|f| f.end).collect();
        assert!(ends.contains(&100.0) && ends.contains(&200.0));
    }

    #[test]
    fn time_sharing_two_jobs_on_same_processors() {
        struct TimeShare;
        impl Scheduler for TimeShare {
            fn name(&self) -> &str {
                "timeshare"
            }
            fn react(&mut self, ctx: &SchedulerContext<'_>, _e: SchedulerEvent) -> Vec<Decision> {
                // Give every queued job the whole machine at share 1/(k+1).
                let total = ctx.queue.len() + ctx.running.len();
                if total == 0 {
                    return Vec::new();
                }
                let share = 1.0 / total as f64;
                let mut running: Vec<u64> = ctx.running.iter().map(|r| r.job.id).collect();
                running.sort_unstable();
                let mut out: Vec<Decision> = running
                    .into_iter()
                    .map(|job_id| Decision::SetShare { job_id, share })
                    .collect();
                let mut queued: Vec<u64> = ctx.queue.iter().map(|q| q.job.id).collect();
                queued.sort_unstable();
                for job_id in queued {
                    out.push(Decision::Start {
                        job_id,
                        procs: None,
                        share,
                    });
                }
                out
            }
        }
        // Two identical 100-second full-machine jobs, time shared: both finish at ~200.
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 64), (2, 0.0, 100.0, 64)]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TimeShare);
        assert_eq!(result.finished.len(), 2);
        for f in &result.finished {
            assert!((f.end - 200.0).abs() < 1.0, "end {}", f.end);
            assert_eq!(f.start, 0.0);
        }
    }

    #[test]
    fn preemption_preserves_remaining_work() {
        struct PreemptOnce {
            preempted: bool,
        }
        impl Scheduler for PreemptOnce {
            fn name(&self) -> &str {
                "preempt-once"
            }
            fn react(
                &mut self,
                ctx: &SchedulerContext<'_>,
                event: SchedulerEvent,
            ) -> Vec<Decision> {
                match event {
                    SchedulerEvent::Timer if !self.preempted => {
                        self.preempted = true;
                        let id = ctx.running[0].job.id;
                        vec![
                            Decision::Preempt { job_id: id },
                            Decision::Wakeup { at: ctx.now + 50.0 },
                        ]
                    }
                    SchedulerEvent::Timer => {
                        // restart whatever is queued
                        ctx.queue
                            .iter()
                            .map(|q| Decision::start(q.job.id))
                            .collect()
                    }
                    SchedulerEvent::JobArrived { job_id } => {
                        vec![
                            Decision::start(job_id),
                            Decision::Wakeup { at: ctx.now + 40.0 },
                        ]
                    }
                    _ => Vec::new(),
                }
            }
        }
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 32)]);
        let result =
            Simulation::new(SimConfig::new(64), jobs).run(&mut PreemptOnce { preempted: false });
        assert_eq!(result.finished.len(), 1);
        let f = &result.finished[0];
        // Ran 0..40 (40 s of work), preempted 40..90, resumed at 90 for the remaining 60 s.
        assert!((f.end - 150.0).abs() < 1.0, "end {}", f.end);
        // A preemption is not a restart, but the first start is still the original.
        assert_eq!(f.first_start, 0.0);
        assert_eq!(f.start, 90.0);
    }

    #[test]
    fn duplicate_wakeups_are_coalesced() {
        // A policy that re-requests the same quantum expiry from every react, the
        // way a quantum-based gang scheduler would: without coalescing the event
        // heap grows by one timer per react; with it, one timer per distinct
        // instant fires exactly once.
        struct SpamWakeups {
            timers_seen: usize,
        }
        impl Scheduler for SpamWakeups {
            fn name(&self) -> &str {
                "spam-wakeups"
            }
            fn react(
                &mut self,
                ctx: &SchedulerContext<'_>,
                event: SchedulerEvent,
            ) -> Vec<Decision> {
                if matches!(event, SchedulerEvent::Timer) {
                    self.timers_seen += 1;
                }
                let mut out: Vec<Decision> = ctx
                    .queue
                    .iter()
                    .map(|q| Decision::start(q.job.id))
                    .collect();
                // Same absolute expiry requested many times over (but only while
                // it is still in the future — re-requesting the current instant
                // from inside its own timer would loop forever, in any engine).
                if ctx.now < 500.0 {
                    for _ in 0..10 {
                        out.push(Decision::Wakeup { at: 500.0 });
                    }
                }
                out
            }
        }
        let jobs = rigid_jobs(&[(1, 0.0, 100.0, 8), (2, 10.0, 100.0, 8)]);
        let mut sched = SpamWakeups { timers_seen: 0 };
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut sched);
        assert_eq!(result.finished.len(), 2);
        // Every react requested the same instant 10 times; exactly one fired.
        assert_eq!(sched.timers_seen, 1);
        assert!(result.coalesced_wakeups > 0);
        assert_eq!(result.rejected_decisions, 0);
    }

    #[test]
    fn moldable_job_speedup_respected() {
        use psbench_workload::flexible::DowneySpeedup;
        struct GiveAll;
        impl Scheduler for GiveAll {
            fn name(&self) -> &str {
                "give-all"
            }
            fn react(&mut self, ctx: &SchedulerContext<'_>, _e: SchedulerEvent) -> Vec<Decision> {
                ctx.queue
                    .iter()
                    .map(|q| Decision::start_on(q.job.id, 32))
                    .collect()
            }
        }
        let job = SimJob::rigid(1, 0.0, 3200.0, 1).moldable(DowneySpeedup {
            a: 64.0,
            sigma: 0.0,
        });
        let result = Simulation::new(SimConfig::new(64), vec![job]).run(&mut GiveAll);
        // 3200 s of sequential work on 32 ideal processors -> 100 s.
        assert!((result.finished[0].end - 100.0).abs() < 1e-6);
    }

    #[test]
    fn max_time_stops_the_simulation() {
        let jobs = rigid_jobs(&[(1, 0.0, 1000.0, 8), (2, 5000.0, 10.0, 8)]);
        let mut config = SimConfig::new(64);
        config.max_time = Some(500.0);
        let result = Simulation::new(config, jobs).run(&mut TestFcfs);
        assert_eq!(result.finished.len(), 0);
        assert!(result.unfinished >= 1);
        assert!(result.end_time <= 500.0 + 1e-9);
    }

    #[test]
    fn deterministic_results() {
        let jobs: Vec<SimJob> = (0..200)
            .map(|i| {
                SimJob::rigid(
                    i as u64 + 1,
                    (i * 13 % 997) as f64,
                    50.0 + (i % 7) as f64 * 100.0,
                    1 + (i % 32) as u32,
                )
            })
            .collect();
        let a = Simulation::new(SimConfig::new(64), jobs.clone()).run(&mut TestFcfs);
        let b = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.idle_while_queued, b.idle_while_queued);
    }

    #[test]
    fn reference_engine_is_bit_identical() {
        // A quick inline check of the property the proptest suite verifies at
        // scale: both engines produce the same SimulationResult, bit for bit.
        let jobs: Vec<SimJob> = (0..300)
            .map(|i| {
                SimJob::rigid(
                    i as u64 + 1,
                    (i * 29 % 777) as f64 / 8.0,
                    20.0 + (i % 11) as f64 * 333.0 / 7.0,
                    1 + (i % 61) as u32,
                )
            })
            .collect();
        let calendar = Simulation::new(SimConfig::new(64), jobs.clone()).run(&mut TestFcfs);
        let reference = Simulation::new_reference(SimConfig::new(64), jobs).run(&mut TestFcfs);
        assert_eq!(calendar, reference);
        assert!(calendar.events_processed > 0);
    }

    /// Drive an online session the way a serve shard would: submit each job
    /// once the clock frontier reaches its submit time, releasing the
    /// timeline behind it, then drain.
    fn online_replay(jobs: &[SimJob], scheduler: &mut dyn Scheduler) -> SimulationResult {
        let mut sim = Simulation::new_online(SimConfig::new(64));
        sim.begin(scheduler);
        let mut sorted: Vec<SimJob> = jobs.to_vec();
        sorted.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.id.cmp(&b.id)));
        for job in sorted {
            let t = job.submit.max(0.0);
            sim.advance_released(scheduler, t);
            sim.submit(job).unwrap();
        }
        sim.finish(scheduler)
    }

    #[test]
    fn online_session_matches_offline_run_bit_for_bit() {
        // The cornerstone invariant of `psbench serve`: a scripted online
        // session in as-fast-as-possible mode reproduces the offline run
        // exactly, including every float integral.
        let jobs: Vec<SimJob> = (0..300)
            .map(|i| {
                SimJob::rigid(
                    i as u64 + 1,
                    (i * 41 % 631) as f64,
                    15.0 + (i % 13) as f64 * 77.0,
                    1 + (i % 48) as u32,
                )
            })
            .collect();
        let mut sorted = jobs.clone();
        sorted.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.id.cmp(&b.id)));
        let offline = Simulation::new(SimConfig::new(64), sorted).run(&mut TestFcfs);
        let online = online_replay(&jobs, &mut TestFcfs);
        assert_eq!(offline, online);
    }

    #[test]
    fn online_equal_submit_times_batch_like_offline() {
        // Several jobs sharing one submit instant must enter the queue in one
        // arrival batch even though they are submitted one call at a time:
        // the strict `frontier - EPS` advance must not let the first arrival
        // (or a wakeup within the fuzz radius) fire before its siblings land.
        struct WakeupFcfs;
        impl Scheduler for WakeupFcfs {
            fn name(&self) -> &str {
                "wakeup-fcfs"
            }
            fn react(&mut self, ctx: &SchedulerContext<'_>, _e: SchedulerEvent) -> Vec<Decision> {
                let mut free = ctx.free_capacity();
                let mut out = Vec::new();
                for q in ctx.queue.iter() {
                    if (q.job.procs as f64) <= free + 1e-9 {
                        free -= q.job.procs as f64;
                        out.push(Decision::start(q.job.id));
                    } else {
                        break;
                    }
                }
                // Arm a timer at every instant an arrival could share — but
                // only while work remains, or the self-re-arming chain would
                // keep the event heap non-empty forever and the run would
                // never terminate. Both runs see identical contexts, so the
                // re-arm pattern is identical on both sides.
                if !ctx.queue.is_empty() || ctx.used_procs > 0.0 {
                    out.push(Decision::Wakeup { at: ctx.now + 10.0 });
                }
                out
            }
        }
        let jobs = rigid_jobs(&[
            (1, 0.0, 100.0, 40),
            (2, 10.0, 50.0, 40),
            (3, 10.0, 50.0, 40),
            (4, 10.0, 25.0, 8),
            (5, 20.0, 25.0, 8),
        ]);
        let offline = Simulation::new(SimConfig::new(64), jobs.clone()).run(&mut WakeupFcfs);
        let online = online_replay(&jobs, &mut WakeupFcfs);
        assert_eq!(offline, online);
    }

    #[test]
    fn online_submit_validation() {
        let mut sim = Simulation::new_online(SimConfig::new(64));
        sim.begin(&mut TestFcfs);
        sim.submit(SimJob::rigid(1, 5.0, 10.0, 4)).unwrap();
        assert_eq!(
            sim.submit(SimJob::rigid(1, 6.0, 10.0, 4)),
            Err(OnlineError::DuplicateId(1))
        );
        assert!(matches!(
            sim.submit(SimJob::rigid(2, f64::NAN, 10.0, 4)),
            Err(OnlineError::BadSubmitTime(_))
        ));
        sim.advance_released(&mut TestFcfs, 100.0);
        assert_eq!(
            sim.submit(SimJob::rigid(3, 50.0, 10.0, 4)),
            Err(OnlineError::PastSubmit {
                submitted: 50.0,
                released: 100.0
            })
        );
        // Offline simulations refuse the online API outright.
        let mut offline = Simulation::new(SimConfig::new(64), Vec::new());
        assert_eq!(
            offline.submit(SimJob::rigid(9, 0.0, 1.0, 1)),
            Err(OnlineError::NotOnline)
        );
    }

    #[test]
    fn online_cancel_queued_and_pending_jobs() {
        let mut sim = Simulation::new_online(SimConfig::new(64));
        let s = &mut TestFcfs;
        sim.begin(s);
        // Fill the machine so later jobs queue rather than start.
        sim.submit(SimJob::rigid(1, 0.0, 100.0, 64)).unwrap();
        sim.submit(SimJob::rigid(2, 10.0, 50.0, 32)).unwrap();
        sim.submit(SimJob::rigid(3, 500.0, 50.0, 32)).unwrap();
        sim.advance_released(s, 20.0);
        assert!(matches!(sim.job_state(2), Some(JobState::Queued { .. })));
        assert!(matches!(sim.job_state(3), Some(JobState::Pending { .. })));
        // Cancel one queued job and one pending arrival.
        sim.cancel(s, 2).unwrap();
        sim.cancel(s, 3).unwrap();
        assert_eq!(sim.job_state(2), Some(JobState::Cancelled));
        assert_eq!(sim.job_state(3), Some(JobState::Cancelled));
        // Running and unknown jobs are refused; double-cancel is refused.
        assert_eq!(sim.cancel(s, 1), Err(OnlineError::JobRunning(1)));
        assert_eq!(sim.cancel(s, 99), Err(OnlineError::UnknownJob(99)));
        assert_eq!(sim.cancel(s, 2), Err(OnlineError::JobDone(2)));
        let result = sim.finish(s);
        // Only job 1 ever ran; the cancelled jobs left no residue.
        assert_eq!(result.finished.len(), 1);
        assert_eq!(result.finished[0].id, 1);
        assert_eq!(result.unfinished, 0);
    }

    #[test]
    fn fork_does_not_perturb_the_live_session() {
        let mut sim = Simulation::new_online(SimConfig::new(64));
        let s = &mut TestFcfs;
        sim.begin(s);
        sim.submit(SimJob::rigid(1, 0.0, 100.0, 64)).unwrap();
        sim.submit(SimJob::rigid(2, 5.0, 30.0, 16)).unwrap();
        sim.advance_released(s, 10.0);
        let before_now = sim.now();
        let before_queue = sim.queue_len();
        // A what-if probe: fork, step the fork until job 2 starts.
        let mut fork = sim.fork();
        fork.poke(&mut TestFcfs);
        while fork.started_at(2).is_none() {
            assert!(fork.step(&mut TestFcfs), "job 2 never started");
        }
        assert_eq!(fork.started_at(2), Some(100.0));
        while fork.step(&mut TestFcfs) {}
        drop(fork);
        // The live session is untouched, and still takes submissions.
        assert_eq!(sim.now(), before_now);
        assert_eq!(sim.queue_len(), before_queue);
        sim.submit(SimJob::rigid(3, 20.0, 10.0, 8)).unwrap();
        let live = sim.finish(s);
        assert_eq!(live.finished.len(), 3);
    }

    /// `job_state` as it was before the lookup was reordered: the finished
    /// and discarded jobs, then every submitted job, by linear scan. The
    /// reference the reordered lookup must agree with.
    fn job_state_by_scan(sim: &Simulation, job_id: u64) -> Option<JobState> {
        if let Some(&idx) = sim.running_index.get(&job_id) {
            let r = &sim.running[idx];
            return Some(JobState::Running {
                started_at: r.started_at,
                predicted_end: r.predicted_end,
                procs: r.procs,
            });
        }
        if let Some(q) = sim.queue.get(job_id) {
            return Some(JobState::Queued {
                queued_at: q.queued_at,
            });
        }
        if sim.cancelled.contains(&job_id) {
            return Some(JobState::Cancelled);
        }
        if let Some(f) = sim.finished.iter().find(|f| f.id == job_id) {
            return Some(JobState::Finished {
                start: f.start,
                end: f.end,
            });
        }
        if sim.discarded.contains(&job_id) {
            return Some(JobState::Discarded);
        }
        sim.jobs
            .iter()
            .find(|j| j.id == job_id)
            .map(|j| JobState::Pending {
                submit: j.submit.max(0.0),
            })
    }

    /// Every id up to `max_id` plus two unknown ones: `job_state` equals the
    /// linear-scan reference.
    fn assert_job_states_match_scan(sim: &Simulation, max_id: u64) {
        for id in 0..=max_id + 2 {
            assert_eq!(sim.job_state(id), job_state_by_scan(sim, id), "job {id}");
        }
    }

    /// Starts every queued job that fits, in queue order (no head blocking),
    /// so queued, running and finished jobs interleave in more ways than
    /// under FCFS.
    struct TestGreedy;
    impl Scheduler for TestGreedy {
        fn name(&self) -> &str {
            "test-greedy"
        }
        fn react(&mut self, ctx: &SchedulerContext<'_>, _event: SchedulerEvent) -> Vec<Decision> {
            let mut free = ctx.free_capacity();
            let mut out = Vec::new();
            for q in ctx.queue.iter() {
                if (q.job.procs as f64) <= free + 1e-9 {
                    free -= q.job.procs as f64;
                    out.push(Decision::start(q.job.id));
                }
            }
            out
        }
    }

    /// One operation of a random online session: a submit (optionally
    /// releasing the timeline up to it first, as `psbench serve` does), an
    /// advance, or a cancel of an id counted back from the two unknown ids
    /// past the last submit.
    #[derive(Debug, Clone)]
    enum SessionOp {
        Submit {
            gap: u32,
            runtime: u32,
            procs: u32,
            estimate_extra: u32,
            user: u32,
            release: bool,
        },
        Advance(u32),
        Cancel(usize),
    }

    /// Submits twice as often as advances or cancels, so the machine fills
    /// and jobs queue.
    fn session_op() -> impl proptest::strategy::Strategy<Value = SessionOp> {
        use proptest::prelude::*;
        let submit = || {
            (0u32..60, 0u32..400, 1u32..=64, 0u32..300, 0u32..4, 0u32..3).prop_map(
                |(gap, runtime, procs, estimate_extra, user, release)| SessionOp::Submit {
                    gap,
                    runtime,
                    procs,
                    estimate_extra,
                    user,
                    release: release > 0,
                },
            )
        };
        prop_oneof![
            submit(),
            submit(),
            (0u32..300).prop_map(SessionOp::Advance),
            (0usize..12).prop_map(SessionOp::Cancel),
        ]
    }

    proptest::proptest! {
        #[test]
        fn job_state_matches_the_linear_scan_over_online_sessions(
            ops in proptest::collection::vec(session_op(), 1..48),
            greedy in 0u32..2,
        ) {
            let mut policy: Box<dyn Scheduler> = if greedy == 1 {
                Box::new(TestGreedy)
            } else {
                Box::new(TestFcfs)
            };
            let mut sim = Simulation::new_online(SimConfig::new(64));
            sim.begin(policy.as_mut());
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    SessionOp::Submit { gap, runtime, procs, estimate_extra, user, release } => {
                        next_id += 1;
                        let t = sim.released().ceil() + gap as f64;
                        if release {
                            sim.advance_released(policy.as_mut(), t);
                        }
                        let job = SimJob::rigid(next_id, t, runtime as f64, procs)
                            .with_estimate((runtime + estimate_extra) as f64)
                            .with_user(user);
                        sim.submit(job).unwrap();
                    }
                    SessionOp::Advance(dt) => {
                        let t = sim.released() + dt as f64;
                        sim.advance_released(policy.as_mut(), t);
                    }
                    SessionOp::Cancel(back) => {
                        // One of the latest ids, or one of the two unknown
                        // ids past the last submit.
                        let id = (next_id + 2).saturating_sub(back as u64);
                        let before = job_state_by_scan(&sim, id);
                        let result = sim.cancel(policy.as_mut(), id);
                        let want = match before {
                            None => Err(OnlineError::UnknownJob(id)),
                            Some(JobState::Running { .. }) => Err(OnlineError::JobRunning(id)),
                            Some(JobState::Queued { .. } | JobState::Pending { .. }) => Ok(()),
                            Some(_) => Err(OnlineError::JobDone(id)),
                        };
                        assert_eq!(result, want, "cancel {id} from {before:?}");
                    }
                }
                assert_job_states_match_scan(&sim, next_id);
            }
            while sim.step(policy.as_mut()) {
                assert_job_states_match_scan(&sim, next_id);
            }
        }
    }

    #[test]
    fn job_state_matches_the_linear_scan_with_unreleased_dependents() {
        // A closed-loop chain: 2 and 3 wait on 1, 4 waits on 3, 5 waits on
        // an unknown job (so it arrives at once), and 6 waits on 7, which
        // the outage kills and discards, so 6 is never released.
        let mut jobs = rigid_jobs(&[
            (1, 0.0, 100.0, 32),
            (2, 0.0, 50.0, 16),
            (3, 0.0, 50.0, 16),
            (4, 0.0, 10.0, 8),
            (5, 0.0, 10.0, 8),
            (6, 0.0, 10.0, 8),
            (7, 0.0, 500.0, 32),
        ]);
        let preceding = [None, Some(1), Some(1), Some(3), Some(99), Some(7), None];
        for (job, preceding) in jobs.iter_mut().zip(preceding) {
            job.preceding = preceding;
            job.think_time = 20.0;
        }
        let outages = OutageLog::from_records(vec![OutageRecord {
            outage_id: 1,
            announced_time: None,
            start_time: 400,
            end_time: 450,
            kind: OutageKind::CpuFailure,
            nodes_affected: Some(48),
            components: vec![],
        }]);
        let mut config = SimConfig::new(64).closed_loop().with_outages(outages);
        config.outage_policy = OutagePolicy::KillAndDiscard;
        let mut sim = Simulation::new(config, jobs);
        let mut policy = TestFcfs;
        sim.begin(&mut policy);
        assert_job_states_match_scan(&sim, 7);
        assert!(matches!(sim.job_state(4), Some(JobState::Pending { .. })));
        while sim.step(&mut policy) {
            assert_job_states_match_scan(&sim, 7);
        }
        assert_eq!(sim.job_state(7), Some(JobState::Discarded));
        assert!(matches!(sim.job_state(6), Some(JobState::Pending { .. })));
    }

    /// [`TestFcfs`] that logs every consult it sees — instant, event and
    /// queue length — so two runs can be compared consult by consult.
    #[derive(Default)]
    struct ConsultLog(Vec<String>);
    impl Scheduler for ConsultLog {
        fn name(&self) -> &str {
            "consult-log"
        }
        fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
            self.0.push(format!(
                "{:?} {event:?} q={} r={}",
                ctx.now,
                ctx.queue.len(),
                ctx.running.len()
            ));
            TestFcfs.react(ctx, event)
        }
    }

    /// An offline run whose arrivals collide with everything else at equal
    /// instants: submits on a coarse grid (ties), at zero and below zero
    /// (both clamp to 0), outages whose announce, start and end instants
    /// sit on the same grid, and closed-loop dependents whose releases land
    /// there too.
    fn colliding_run(
        specs: &[(i8, u8, u8, u8)],
        outages: &[(u8, u8, u8, u8, u8)],
        closed: bool,
    ) -> (SimConfig, Vec<SimJob>) {
        let jobs: Vec<SimJob> = specs
            .iter()
            .enumerate()
            .map(|(i, &(submit, runtime, procs, dep))| {
                let id = i as u64 + 1;
                let mut job = SimJob::rigid(
                    id,
                    submit as f64 * 10.0,
                    runtime as f64 * 10.0,
                    procs as u32,
                );
                if dep > 0 && id > dep as u64 {
                    job.preceding = Some(id - dep as u64);
                    job.think_time = (dep % 3) as f64 * 10.0;
                }
                job
            })
            .collect();
        let records = outages
            .iter()
            .enumerate()
            .map(|(i, &(start, len, notice, nodes, announced))| {
                let start = start as i64 * 10;
                OutageRecord {
                    outage_id: i as u64,
                    announced_time: (announced == 1).then(|| start - notice as i64 * 10),
                    start_time: start,
                    end_time: start + len as i64 * 10,
                    kind: OutageKind::CpuFailure,
                    nodes_affected: Some(nodes as u32),
                    components: vec![],
                }
            })
            .collect();
        let mut config = SimConfig::new(16).with_outages(OutageLog::from_records(records));
        if closed {
            config = config.closed_loop();
        }
        (config, jobs)
    }

    proptest::proptest! {
        /// The two-source event merge (seeded-arrival cursor + heap) pops
        /// exactly what one heap holding every event popped: the same
        /// consults in the same order and a bit-identical result.
        #[test]
        fn arrival_cursor_matches_the_single_event_heap(
            specs in proptest::collection::vec((-3i8..12, 0u8..6, 1u8..12, 0u8..4), 1..60),
            outages in proptest::collection::vec((0u8..12, 1u8..5, 0u8..3, 1u8..16, 0u8..2), 0..5),
            closed in 0u8..2,
        ) {
            let (config, jobs) = colliding_run(&specs, &outages, closed == 1);
            let mut merged = ConsultLog::default();
            let got = Simulation::new(config.clone(), jobs.clone()).run(&mut merged);
            let mut heap = ConsultLog::default();
            let want = Simulation::new(config, jobs)
                .arrivals_through_heap()
                .run(&mut heap);
            proptest::prop_assert_eq!(merged.0, heap.0);
            proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn arrivals_at_an_outage_start_pop_before_it() {
        // An arrival and an outage start at t = 10: the arrival (seeded, so
        // numbered before every heap event) is consulted first and starts,
        // then the outage kills it.
        let (config, jobs) = colliding_run(&[(1, 3, 16, 0)], &[(1, 1, 0, 16, 0)], false);
        let mut log = ConsultLog::default();
        let result = Simulation::new(config, jobs).run(&mut log);
        assert!(log.0[1].starts_with("10.0 JobArrived"), "{:?}", log.0);
        assert_eq!(result.kills, 1);
    }

    #[test]
    fn zero_runtime_jobs_complete_immediately() {
        let jobs = rigid_jobs(&[(1, 5.0, 0.0, 8), (2, 5.0, 10.0, 8)]);
        let result = Simulation::new(SimConfig::new(64), jobs).run(&mut TestFcfs);
        assert_eq!(result.finished.len(), 2);
        let f = result.finished.iter().find(|f| f.id == 1).unwrap();
        assert_eq!(f.start, 5.0);
        assert_eq!(f.end, 5.0);
    }
}
