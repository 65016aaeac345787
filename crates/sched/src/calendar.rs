//! The persistent reservation calendar behind conservative backfilling.
//!
//! The seed implementation of conservative backfilling rebuilt the whole
//! reservation profile from scratch on every react, which is O(backlog ·
//! profile) per capacity-freeing event — cubic end to end on saturated
//! archive-scale traces (measured: 2 000 jobs ≈ 3 s, 10 000 ≈ 254 s). Worse,
//! the rebuilt-from-scratch semantics *moves* Θ(backlog) reservations per
//! react under early completions (92 % of candidate re-placements genuinely
//! move on a saturated Lublin trace), so no incremental implementation of
//! that exact semantics can beat Θ(events · backlog). This module therefore
//! implements **lazy compression**, the variant production schedulers ship:
//! the calendar of committed future free capacity is **durable scheduler
//! state**, reservations are promises that persist across reacts, and a
//! promise is only revisited when it is *due* — when its committed start has
//! arrived. Far-future reservations keep their slot untouched until then; a
//! window vacated far in the future is refilled by later arrivals, not by
//! sliding committed promises across it. Every job still starts no later
//! than its committed slot, so the conservative guarantee — no queued job is
//! ever delayed by a backfill — is preserved verbatim.
//!
//! * **Arrival** — the new job is placed once, at the earliest slot that does
//!   not delay any committed reservation, and the calendar is updated
//!   incrementally (no other reservation moves). Placement is
//!   **probe-budgeted** (see `PLACEMENT_PROBES`): at most that many
//!   candidate windows are tested; if the budget runs out the job is
//!   *parked* at its width's tail bound — the per-width time maintained by
//!   `Park`, past which capacity provably never dips below the width again —
//!   where the window is free by construction. Budget exhaustion implies the
//!   true earliest slot is in the future, so parking never steals `now`
//!   starts, and the parked window never collides with a commitment.
//! * **Start** — a reservation whose slot is reachable now converts into a
//!   running occupancy anchored at `now`.
//! * **Completion / timer** — the walk runs two passes, implemented
//!   identically by the incremental calendar and the exhaustive oracle:
//!
//!   1. **Due pass** — every reservation whose committed start is ≤ `now` is
//!      re-placed once, in `(start, id)` order: its occupancy is lifted and
//!      it moves to its earliest slot. Its old window is still feasible
//!      under its own lift, so the new slot is never later; a job whose new
//!      slot is `now` starts, and any other re-commit lands strictly after
//!      `now`, so the pass terminates without bookkeeping.
//!   2. **Starter pass** — a queued job can start *right now* iff its width
//!      `p` stays continuously free for its whole duration, i.e. `now + d ≤
//!      dip(p)`, the calendar's first future dip below `p` (see
//!      `StepFn::dip_times`). The dip staircase is handed to the backlog
//!      index ([`psbench_sim::JobQueue::staircase_scan`]), which streams
//!      exactly the plausible candidates in arrival order; each is re-tested
//!      against the fresh dips, and each start (which consumes capacity at
//!      `now` but releases the job's far reservation) rebinds the scan.
//!      Every queued job gets at most one arrival-order turn — the same
//!      decision sequence as the oracle's full fresh-per-candidate scan.
//!      The dip scan is clamped to `now + dur_bound` (the largest duration
//!      placed since the last rebuild): any true dip beyond that horizon
//!      passes every `now + d ≤ dip` test just like the `∞` the clamp
//!      reports, so decisions are unchanged.
//!
//!   Because due slots can fall between completions (a reservation can be
//!   committed at an instant where nothing completes), every react arms an
//!   engine **wakeup timer** for the earliest committed start
//!   ([`Decision::Wakeup`]); the timer event re-enters the same walk. The
//!   engine coalesces duplicate requests for the same instant.
//! * **Outage / kill / overdue estimate** — rare events that invalidate the
//!   committed base fall back to a full rebuild that re-reserves every queued
//!   job in arrival order (and rebases the parking bounds exactly from the
//!   running set).
//!
//! # Calendar invariants
//!
//! The calendar is a step function `(time, free_procs)` with:
//!
//! * **sortedness** — breakpoint times are strictly increasing; the first
//!   step is the `now` anchor and the last step's capacity extends to
//!   infinity;
//! * **non-negative, integer-valued capacity** — every capacity is a sum and
//!   difference of processor counts (shares are 1.0 for rigid dedicated
//!   jobs), so all arithmetic is exact in f64 and all comparisons are exact —
//!   no tolerances, which is what makes the optimized and exhaustive
//!   implementations bit-identical rather than tolerance-dependent;
//! * **redundant-step neutrality** — a step whose capacity equals its
//!   predecessor's does not change the function, and provably cannot change
//!   `StepFn::earliest_start` either: if such a step `τ'` were the earliest
//!   feasible slot, its predecessor breakpoint `τ` (same capacity, no
//!   breakpoints between, window `[τ, τ+d)` ⊆ `{τ}` ∪ `(τ, τ')` ∪ `[τ',
//!   τ'+d)`) is feasible too and comes earlier. Both implementations may
//!   therefore differ in redundant steps (the incremental calendar carries
//!   residue from released occupancies; the exhaustive one rebuilds clean)
//!   while producing identical decisions;
//! * **probe determinism** — the candidate windows tested by
//!   `StepFn::earliest_start_capped` are function-intrinsic (the first
//!   capacity-recovery crossing after each disqualifying dip can never sit
//!   on a redundant step), so both implementations probe the same sequence
//!   and exhaust the same budget at the same point;
//! * **compression semantics** — a re-placed job's old slot is always still
//!   feasible after lifting its own occupancy, so compression moves
//!   reservations monotonically earlier and never violates another job's
//!   promise.
//!
//! [`ConservativeOracle`] is the exhaustive twin: same persistent-promise
//! semantics, same probe budget and parking bounds, but it rebuilds its
//! profile from scratch every react and scans the whole queue instead of
//! consulting the backlog index. It exists to be obviously correct; the
//! equivalence suite and the adversarial proptest in
//! `tests/engine_equivalence.rs` drive both through identical event
//! sequences and require bit-identical decisions.

use psbench_sim::{Decision, Scheduler, SchedulerContext, SchedulerEvent};
use std::collections::{BTreeSet, HashMap};

/// The shared time-comparison tolerance of the *planning* layer (the EASY
/// shadow math and the replanning `Profile`), in seconds. The calendar itself
/// uses exact comparisons and does not consume this.
pub(crate) const TIME_EPS: f64 = 1e-9;

/// Are two instants equal within the planning tolerance? This is the single
/// epsilon-compare helper every tolerant time comparison in the crate goes
/// through, so insertion-dedup and range-membership tests can never disagree
/// about whether two breakpoints are "the same instant" (the asymmetry the
/// seed's `Profile::reserve` suffered from).
pub(crate) fn eps_eq(a: f64, b: f64) -> bool {
    (a - b).abs() < TIME_EPS
}

/// Is `a` at or after `b`, treating instants within the tolerance as equal?
pub(crate) fn eps_ge(a: f64, b: f64) -> bool {
    a >= b || eps_eq(a, b)
}

/// Is `a` strictly before `b`, beyond the tolerance?
pub(crate) fn eps_lt(a: f64, b: f64) -> bool {
    a < b && !eps_eq(a, b)
}

/// The operations a free-capacity step function needs to support conservative
/// planning. Implemented by the exhaustive [`StepVec`] (flat, obviously
/// correct) and the chunked [`Calendar`] (incremental, sublinear updates);
/// the two must agree exactly, which the differential unit tests below and
/// the scheduler-level proptest enforce.
pub(crate) trait StepFn {
    /// Free capacity at time `t` (the first step's capacity also applies to
    /// instants before it — it is the `now` anchor).
    fn capacity_at(&self, t: f64) -> f64;

    /// Add `delta` processors of free capacity on `[from, to)`. `to` may be
    /// `f64::INFINITY` (a release that never ends). `from` is clipped to the
    /// anchor; an empty or inverted range is a no-op. Returns the minimum
    /// capacity over `[from, to)` *after* the update (`f64::INFINITY` for a
    /// no-op) — consumers feed it to [`Park::note`]. The minimum is a
    /// property of the updated function, so both implementations return the
    /// same value bit for bit.
    fn add_range(&mut self, from: f64, to: f64, delta: f64) -> f64;

    /// Earliest time ≥ `from` at which `procs` processors are continuously
    /// free for `duration` seconds, or `f64::INFINITY` when no such time
    /// exists (the machine is never that wide). Candidates are `from` and
    /// every breakpoint after it; a candidate `c` is feasible when
    /// `capacity_at(c) ≥ procs` and no breakpoint in `(c, c + duration)`
    /// dips below `procs`. All comparisons exact.
    ///
    /// Production placement goes through [`Self::earliest_start_capped`];
    /// this unbudgeted form is the executable spec the equivalence tests
    /// exercise directly on both implementations.
    #[allow(dead_code)]
    fn earliest_start(&self, from: f64, procs: f64, duration: f64) -> f64;

    /// The **dip profile** at `from`: for each integer width `p` in
    /// `1..=⌊capacity_at(from)⌋`, `dips[p-1]` is the time of the first
    /// breakpoint after `from` whose capacity drops below `p`
    /// (`f64::INFINITY` when capacity never does). Empty when even one
    /// processor is busy at `from`.
    ///
    /// This encodes the immediate-start test in closed form: a job of width
    /// `p` and duration `d` satisfies `earliest_start(from, p, d) == from`
    /// exactly when `p ≤ dips.len()` and `from + d ≤ dips[p-1]` (the same
    /// float expression `from + d` the search compares breakpoints against,
    /// so the two agree bit for bit). Dips are non-increasing in `p`, and
    /// a single forward scan that tracks the running minimum capacity —
    /// stopping as soon as it drops below 1 — yields every level at once.
    /// Because dips are a property of the step *function*, redundant steps
    /// (equal capacity to their predecessor) never register, and the
    /// incremental and exhaustive implementations agree exactly.
    fn dip_times(&self, from: f64) -> Vec<f64>;

    /// [`StepFn::earliest_start`] with a probe budget: test at most `budget`
    /// candidate windows and return `None` when all of them failed (the
    /// caller parks the job instead — see [`Park`]). Candidates are `from`
    /// (when wide enough) followed by the successive *rise* points — the
    /// first breakpoint at or above `procs` after each failing window's
    /// first dip. Rises and dips are properties of the step function (a
    /// redundant step can never be the first breakpoint crossing a level),
    /// so both implementations probe the identical candidate sequence and
    /// give up after the identical amount of work.
    fn earliest_start_capped(
        &self,
        from: f64,
        procs: f64,
        duration: f64,
        budget: usize,
    ) -> Option<f64>;
}

/// Probe budget for one placement: how many candidate windows
/// [`StepFn::earliest_start_capped`] may test before the job is parked at
/// its width's [`Park`] bound. Semantically significant (a smaller budget
/// parks more jobs later than strict earliest-fit would), so it is part of
/// the specification both implementations share.
pub(crate) const PLACEMENT_PROBES: usize = 32;

/// Per-width parking bounds: `t[p-1]` is an exact upper bound on the last
/// instant at which fewer than `p` processors are committed free, so a
/// reservation of width `p` placed at `max(t[p-1], now)` can never collide
/// with a committed promise. Rebased exactly from the (non-decreasing) base
/// profile on rebuild; every consume afterwards widens the affected levels
/// to the consumed window's end via [`Park::note`]. Releases are ignored —
/// they only move the true bound earlier, so the stored bound stays valid
/// (merely conservative) until the next rebase.
#[derive(Debug, Clone, Default)]
pub(crate) struct Park {
    t: Vec<f64>,
}

impl Park {
    /// Exact bounds for the rebuild base: `free` processors at `now`, plus
    /// each canonical completion's release. Capacity is non-decreasing here,
    /// so level `p` is last below-`p` right before the release that lifts
    /// the running total past it.
    fn rebase(&mut self, now: f64, free: f64, completions: &[(u64, f64, f64)]) {
        let total = free + completions.iter().map(|c| c.2).sum::<f64>();
        let n = total.floor().max(0.0) as usize;
        self.t = vec![now; n];
        let mut cap = free;
        for &(_, end, procs) in completions {
            let lo = (cap.floor() as usize + 1).max(1);
            cap += procs;
            let hi = (cap.floor() as usize).min(n);
            for p in lo..=hi {
                self.t[p - 1] = end;
            }
        }
    }

    /// A consume left minimum capacity `win_min` inside a window ending at
    /// `to`: every width above that minimum may now stay scarce until `to`.
    fn note(&mut self, to: f64, win_min: f64) {
        if !to.is_finite() {
            return;
        }
        let lo = if win_min < 0.0 {
            1
        } else {
            (win_min.floor() as usize + 1).max(1)
        };
        for p in lo..=self.t.len() {
            if self.t[p - 1] < to {
                self.t[p - 1] = to;
            }
        }
    }

    /// The parking bound for a width (`None` when the machine base never
    /// reaches it).
    fn time_for(&self, procs: f64) -> Option<f64> {
        let p = (procs.floor().max(1.0)) as usize;
        self.t.get(p - 1).copied()
    }
}

/// Shared dip-profile update: capacity drops from `runmin` to `cap` at time
/// `t`, so every integer level in `(cap, runmin]` sees its first dip at `t`.
fn record_dip(dips: &mut [f64], runmin: &mut f64, t: f64, cap: f64) {
    let lo = if cap < 0.0 {
        1
    } else {
        cap.floor() as usize + 1
    };
    let hi = (runmin.floor() as usize).min(dips.len());
    for p in lo.max(1)..=hi {
        dips[p - 1] = t;
    }
    *runmin = cap;
}

/// A flat, exhaustively recomputing step function: the reference
/// implementation of [`StepFn`], kept deliberately naive (linear scans
/// everywhere) so it is easy to audit. [`ConservativeOracle`] rebuilds one of
/// these from scratch every react.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepVec {
    /// `(time, free_procs)`, strictly increasing times.
    steps: Vec<(f64, f64)>,
}

impl StepVec {
    pub(crate) fn anchored(now: f64, free: f64) -> Self {
        StepVec {
            steps: vec![(now, free)],
        }
    }
}

impl StepFn for StepVec {
    fn capacity_at(&self, t: f64) -> f64 {
        let mut cap = self.steps.first().map(|s| s.1).unwrap_or(0.0);
        for &(time, c) in &self.steps {
            if time <= t {
                cap = c;
            } else {
                break;
            }
        }
        cap
    }

    fn add_range(&mut self, from: f64, to: f64, delta: f64) -> f64 {
        let anchor = self.steps.first().map(|s| s.0).unwrap_or(from);
        let from = from.max(anchor);
        if from >= to {
            return f64::INFINITY;
        }
        for &t in &[from, to] {
            if t.is_finite() && !self.steps.iter().any(|s| s.0 == t) {
                let cap = self.capacity_at(t);
                let pos = self.steps.partition_point(|s| s.0 < t);
                self.steps.insert(pos, (t, cap));
            }
        }
        let mut win_min = f64::INFINITY;
        for s in &mut self.steps {
            if s.0 >= from && s.0 < to {
                s.1 += delta;
                win_min = win_min.min(s.1);
            }
        }
        win_min
    }

    fn earliest_start(&self, from: f64, procs: f64, duration: f64) -> f64 {
        self.earliest_start_capped(from, procs, duration, usize::MAX)
            .expect("unbounded search cannot exhaust its budget")
    }

    fn earliest_start_capped(
        &self,
        from: f64,
        procs: f64,
        duration: f64,
        budget: usize,
    ) -> Option<f64> {
        let first_bad_after = |t: f64| -> Option<f64> {
            self.steps
                .iter()
                .find(|s| s.0 > t && s.1 < procs)
                .map(|s| s.0)
        };
        let first_good_after = |t: f64| -> Option<f64> {
            self.steps
                .iter()
                .find(|s| s.0 > t && s.1 >= procs)
                .map(|s| s.0)
        };
        let mut candidate = if self.capacity_at(from) >= procs {
            Some(from)
        } else {
            first_good_after(from)
        };
        let mut probes = 0usize;
        while let Some(c) = candidate {
            probes += 1;
            if probes > budget {
                return None;
            }
            match first_bad_after(c) {
                Some(b) if b < c + duration => candidate = first_good_after(b),
                _ => return Some(c),
            }
        }
        Some(f64::INFINITY)
    }

    fn dip_times(&self, from: f64) -> Vec<f64> {
        let mut runmin = self.capacity_at(from);
        if runmin < 1.0 {
            return Vec::new();
        }
        let mut dips = vec![f64::INFINITY; runmin.floor() as usize];
        for &(t, cap) in &self.steps {
            if t <= from {
                continue;
            }
            if cap < runmin {
                record_dip(&mut dips, &mut runmin, t, cap);
                if runmin < 1.0 {
                    break;
                }
            }
        }
        dips
    }
}

/// Target steps per chunk of the incremental calendar. Splits happen at twice
/// this, so chunks hold between `CHUNK` and `2·CHUNK` steps (except the last).
const CHUNK: usize = 64;

/// One chunk of the calendar: a run of consecutive steps with a shared
/// capacity offset (so a range update covering the whole chunk is O(1)) and
/// cached min/max raw capacity (so searches can skip chunks wholesale).
#[derive(Debug, Clone)]
struct Chunk {
    /// `(time, raw_capacity)`; effective capacity is `raw + off`.
    steps: Vec<(f64, f64)>,
    /// Capacity offset applied to every step in this chunk.
    off: f64,
    /// Minimum raw capacity in the chunk.
    min: f64,
    /// Maximum raw capacity in the chunk.
    max: f64,
    /// Time of the chunk's last step (cached so skip tests during feasibility
    /// scans never have to dereference `steps`).
    end: f64,
}

impl Chunk {
    fn of(steps: Vec<(f64, f64)>) -> Chunk {
        let mut c = Chunk {
            steps,
            off: 0.0,
            min: 0.0,
            max: 0.0,
            end: f64::NEG_INFINITY,
        };
        c.refresh();
        c
    }

    fn refresh(&mut self) {
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        for &(_, cap) in &self.steps {
            self.min = self.min.min(cap);
            self.max = self.max.max(cap);
        }
        self.end = self.steps.last().map(|s| s.0).unwrap_or(f64::NEG_INFINITY);
    }

    fn first_time(&self) -> f64 {
        self.steps[0].0
    }
}

/// The incremental calendar: the same step function as [`StepVec`], stored in
/// capacity-offset chunks so occupancy inserts, releases and slides cost
/// O(steps/CHUNK + CHUNK) instead of O(steps), and feasibility searches skip
/// whole chunks via the cached min/max capacities. See the module docs for
/// the invariants; every operation here preserves them and produces exactly
/// the function the flat reference would.
#[derive(Debug, Clone, Default)]
pub(crate) struct Calendar {
    chunks: Vec<Chunk>,
}

impl Calendar {
    /// Reset to a single anchor step `(now, free)`.
    pub(crate) fn reset(&mut self, now: f64, free: f64) {
        self.chunks.clear();
        self.chunks.push(Chunk::of(vec![(now, free)]));
    }

    /// Total number of steps (for the compaction heuristic and tests).
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.steps.len()).sum()
    }

    /// Chunk index holding the last step with time ≤ `t` (or 0 if `t`
    /// precedes everything).
    fn chunk_at(&self, t: f64) -> usize {
        let ci = self.chunks.partition_point(|c| c.first_time() <= t);
        ci.saturating_sub(1)
    }

    /// Advance the anchor to `now`: drop steps strictly before `now` and make
    /// the first step exactly `(now, capacity_at(now))`. The function on
    /// `[now, ∞)` is unchanged.
    pub(crate) fn advance_to(&mut self, now: f64) {
        if self.chunks.is_empty() {
            self.reset(now, 0.0);
            return;
        }
        let cap = self.capacity_at(now);
        let ci = self.chunk_at(now);
        self.chunks.drain(..ci);
        let c = &mut self.chunks[0];
        let keep = c.steps.partition_point(|s| s.0 < now);
        c.steps.drain(..keep);
        if c.steps.first().map(|s| s.0 != now).unwrap_or(true) {
            c.steps.insert(0, (now, cap - c.off));
        }
        c.refresh();
    }

    /// Drop interior steps whose capacity equals their predecessor's
    /// (function-preserving, and decision-preserving by redundant-step
    /// neutrality), then re-chunk. Called by the scheduler when released
    /// occupancies have left enough residue behind.
    pub(crate) fn compact(&mut self) {
        let mut flat: Vec<(f64, f64)> = Vec::with_capacity(self.len());
        for c in &self.chunks {
            for &(t, cap) in &c.steps {
                let eff = cap + c.off;
                if flat
                    .last()
                    .map(|l: &(f64, f64)| l.1 == eff)
                    .unwrap_or(false)
                {
                    continue;
                }
                flat.push((t, eff));
            }
        }
        self.chunks.clear();
        for piece in flat.chunks(CHUNK.max(1)) {
            self.chunks.push(Chunk::of(piece.to_vec()));
        }
        if self.chunks.is_empty() {
            self.chunks.push(Chunk::of(vec![(0.0, 0.0)]));
        }
    }

    /// Ensure a breakpoint exists at exactly `t` (splitting its chunk when it
    /// grows past `2·CHUNK`).
    fn ensure_breakpoint(&mut self, t: f64) {
        let ci = self.chunk_at(t);
        let c = &mut self.chunks[ci];
        let pos = c.steps.partition_point(|s| s.0 < t);
        if c.steps.get(pos).map(|s| s.0 == t).unwrap_or(false) {
            return;
        }
        // Capacity just before `t` within this chunk; `t` after the chunk's
        // last step inherits the last step's capacity.
        let raw = if pos == 0 {
            c.steps[0].1
        } else {
            c.steps[pos - 1].1
        };
        c.steps.insert(pos, (t, raw));
        c.min = c.min.min(raw);
        c.max = c.max.max(raw);
        c.end = c.end.max(t);
        if c.steps.len() > 2 * CHUNK {
            let tail = c.steps.split_off(c.steps.len() / 2);
            let off = c.off;
            c.refresh();
            let mut new = Chunk::of(tail);
            new.off = off;
            // `Chunk::of` computed min/max of raw values; offsets carry over.
            self.chunks.insert(ci + 1, new);
        }
    }
}

impl Calendar {
    /// [`StepFn::dip_times`] clamped to `horizon`: dips later than `horizon`
    /// are reported as `f64::INFINITY` and the scan stops there. Safe
    /// whenever every duration subsequently tested against the profile is at
    /// most `horizon - from`: a true dip beyond the horizon and an infinite
    /// one then pass exactly the same `from + d ≤ dip` tests, so decisions
    /// are unchanged while the scan skips the (possibly long) quiet tail.
    fn dip_times_upto(&self, from: f64, horizon: f64) -> Vec<f64> {
        let mut runmin = self.capacity_at(from);
        if runmin < 1.0 || self.chunks.is_empty() {
            return Vec::new();
        }
        let mut dips = vec![f64::INFINITY; runmin.floor() as usize];
        let mut ci = self.chunk_at(from);
        'scan: while ci < self.chunks.len() {
            let c = &self.chunks[ci];
            if c.first_time() > horizon {
                break;
            }
            // A chunk whose minimum stays at or above the running minimum
            // records no dip at any level — skip it wholesale.
            if c.min + c.off < runmin {
                for &(t, raw) in &c.steps {
                    if t <= from {
                        continue;
                    }
                    if t > horizon {
                        break 'scan;
                    }
                    let cap = raw + c.off;
                    if cap < runmin {
                        record_dip(&mut dips, &mut runmin, t, cap);
                        if runmin < 1.0 {
                            break 'scan;
                        }
                    }
                }
            }
            ci += 1;
        }
        dips
    }
}

impl StepFn for Calendar {
    fn capacity_at(&self, t: f64) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        let c = &self.chunks[self.chunk_at(t)];
        let pos = c.steps.partition_point(|s| s.0 <= t);
        let raw = if pos == 0 {
            c.steps[0].1
        } else {
            c.steps[pos - 1].1
        };
        raw + c.off
    }

    fn add_range(&mut self, from: f64, to: f64, delta: f64) -> f64 {
        if self.chunks.is_empty() {
            return f64::INFINITY;
        }
        let anchor = self.chunks[0].first_time();
        let from = from.max(anchor);
        if from >= to {
            return f64::INFINITY;
        }
        self.ensure_breakpoint(from);
        if to.is_finite() {
            self.ensure_breakpoint(to);
        }
        let mut win_min = f64::INFINITY;
        let first = self.chunk_at(from);
        for c in self.chunks[first..].iter_mut() {
            if c.first_time() >= to {
                break;
            }
            let last_t = c.end;
            if c.first_time() >= from && last_t < to {
                // Fully covered: shift the whole chunk in O(1).
                c.off += delta;
                win_min = win_min.min(c.min + c.off);
                continue;
            }
            for s in c.steps.iter_mut() {
                if s.0 >= from && s.0 < to {
                    s.1 += delta;
                    win_min = win_min.min(s.1 + c.off);
                }
            }
            c.refresh();
        }
        win_min
    }

    fn earliest_start(&self, from: f64, procs: f64, duration: f64) -> f64 {
        self.earliest_start_capped(from, procs, duration, usize::MAX)
            .expect("unbounded search cannot exhaust its budget")
    }

    fn earliest_start_capped(
        &self,
        from: f64,
        procs: f64,
        duration: f64,
        budget: usize,
    ) -> Option<f64> {
        // Same candidate/probe sequence as the flat reference, computed as a
        // single forward walk over the steps at or after `from`: a (chunk,
        // step) position advances monotonically, alternating between "seek
        // the next good step" (the next candidate) and "seek the next bad
        // step" (the candidate's window check). Chunks are skipped wholesale
        // via the cached min/max capacities; every surviving step is visited
        // exactly once per call.
        if self.chunks.is_empty() {
            return Some(f64::INFINITY);
        }
        let mut ci = self.chunk_at(from);
        // First position strictly after `from`.
        let mut si = self.chunks[ci].steps.partition_point(|s| s.0 <= from);
        let mut candidate = if self.capacity_at(from) >= procs {
            Some(from)
        } else {
            None
        };
        let mut probes = 0usize;
        loop {
            match candidate {
                None => {
                    // Seek the next step with capacity ≥ procs; it becomes
                    // the next candidate. Running out of steps means the
                    // backlog never recovers to `procs` — report "never".
                    loop {
                        if ci >= self.chunks.len() {
                            return Some(f64::INFINITY);
                        }
                        let c = &self.chunks[ci];
                        if si >= c.steps.len() || c.max + c.off < procs {
                            ci += 1;
                            si = 0;
                            continue;
                        }
                        let mut found = None;
                        while si < c.steps.len() {
                            let (t, raw) = c.steps[si];
                            si += 1;
                            if raw + c.off >= procs {
                                found = Some(t);
                                break;
                            }
                        }
                        if let Some(t) = found {
                            candidate = Some(t);
                            break;
                        }
                        ci += 1;
                        si = 0;
                    }
                }
                Some(cand) => {
                    probes += 1;
                    if probes > budget {
                        return None;
                    }
                    // Seek the next step with capacity < procs. None before
                    // `cand + duration` (or none at all — the profile stays
                    // good forever) means the candidate's window is feasible.
                    // The chunk-min skip is conservative in the first chunk
                    // (its min covers steps before the position too), which
                    // only costs a scan, never correctness.
                    'window: loop {
                        if ci >= self.chunks.len() {
                            return Some(cand);
                        }
                        let c = &self.chunks[ci];
                        if si >= c.steps.len() || c.min + c.off >= procs {
                            ci += 1;
                            si = 0;
                            continue;
                        }
                        while si < c.steps.len() {
                            let (t, raw) = c.steps[si];
                            si += 1;
                            if raw + c.off < procs {
                                if t < cand + duration {
                                    // Candidate dies; resume the good-seek
                                    // from the current position.
                                    candidate = None;
                                    break 'window;
                                }
                                return Some(cand);
                            }
                        }
                        ci += 1;
                        si = 0;
                    }
                }
            }
        }
    }

    fn dip_times(&self, from: f64) -> Vec<f64> {
        self.dip_times_upto(from, f64::INFINITY)
    }
}

/// One ulp up (positive finite input): the margin unit for the staircase
/// widening below.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The backlog-index staircase for a dip profile: `(inclusive procs edge,
/// max estimate)` stairs, ascending by procs, covering every width at which
/// *some* job could still start (`now + 1 ≤ dip`, since every duration is at
/// least 1s). The estimate bound is `dip - now` widened by a few ulps of the
/// dip so the subtraction's rounding can never exclude a job the exact test
/// `now + d ≤ dip` would accept — the stream must be a superset of the true
/// starters (spurious candidates are dropped by the fresh re-test; a missing
/// one would diverge from the oracle). Widths are grouped into stairs by
/// equal bound.
fn stairs_of(dips: &[f64], now: f64) -> Vec<(u32, f64)> {
    let mut stairs: Vec<(u32, f64)> = Vec::new();
    for (i, &dip) in dips.iter().enumerate() {
        if now + 1.0 > dip {
            break;
        }
        let bound = if dip.is_finite() {
            ((dip - now) + 4.0 * (ulp_up(dip) - dip)).max(1.0)
        } else {
            f64::INFINITY
        };
        let p = (i + 1) as u32;
        match stairs.last_mut() {
            Some(s) if s.1 == bound => s.0 = p,
            _ => stairs.push((p, bound)),
        }
    }
    stairs
}

/// A committed reservation: the job will run on `procs` processors over
/// `[start, end)` unless compression slides it earlier. `start` is
/// `f64::INFINITY` (and the job holds no calendar occupancy) when the machine
/// is currently too narrow for the job at any time — a rebuild re-places it
/// when capacity returns.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: f64,
    end: f64,
    procs: f64,
}

/// Does this react invalidate a committed plan outright? Shared by both
/// conservative implementations: a plan never anchored, the start, kills,
/// outages and external reservation changes all force a rebuild, and so does
/// a running job past its estimated end (`min_running_end < now`), whose end
/// then drifts with the clock.
fn needs_rebuild(
    anchored: bool,
    min_running_end: f64,
    ctx: &SchedulerContext<'_>,
    event: SchedulerEvent,
) -> bool {
    if !anchored {
        return true;
    }
    match event {
        SchedulerEvent::Start
        | SchedulerEvent::JobsKilled { .. }
        | SchedulerEvent::OutageAnnounced { .. }
        | SchedulerEvent::OutageStarted { .. }
        | SchedulerEvent::OutageEnded { .. }
        | SchedulerEvent::ReservationsChanged => true,
        _ => min_running_end < ctx.now,
    }
}

/// Conservative backfilling with a persistent reservation calendar.
///
/// Every queued job holds a durable reservation; arrivals are placed
/// incrementally, completions release capacity and trigger a compression
/// pass that slides reservations earlier (in arrival order, never violating
/// another job's promise) and starts the ones that become feasible now. See
/// the module docs for the full semantics, and [`ConservativeOracle`] for
/// the exhaustive twin it is tested against. The pre-calendar
/// replan-per-react policy survives as
/// [`crate::backfill::ReplanConservative`] (`conservative-replan`).
#[derive(Debug, Clone, Default)]
pub struct ConservativeBackfill {
    cal: Calendar,
    /// Reservations by job id.
    slots: HashMap<u64, Slot>,
    /// Reservations by `(start bits, id)` — times are non-negative, so the
    /// bit order is the float order. This is what lets the compression walk
    /// enumerate exactly the reservations at or before the reclaim horizon
    /// instead of sweeping the whole backlog.
    slot_index: BTreeSet<(u64, u64)>,
    /// Jobs we believe are running: id → (canonical end, procs).
    running: HashMap<u64, (f64, f64)>,
    /// Minimum canonical end over `running` (∞ when empty); once `now` passes
    /// it some job has outlived its estimate and the committed base is stale.
    min_running_end: f64,
    /// Per-width parking bounds for probe-budget-exhausted placements.
    park: Park,
    /// Monotone upper bound on the duration of every job placed since the
    /// last rebuild (and therefore on every queued job's duration): the
    /// clamp horizon for the walk's dip scans.
    dur_bound: f64,
    /// Whether the calendar reflects a committed state at all.
    anchored: bool,
}

impl ConservativeBackfill {
    /// Full rebuild: recommit the base from the running set's canonical ends
    /// and re-reserve every queued job in arrival order, starting those whose
    /// earliest slot is `now`. This is the seed-style exhaustive sweep, kept
    /// for the rare events (outages, kills, overdue estimates) that
    /// invalidate the calendar wholesale — and it re-reserves displaced jobs
    /// after an outage kill in one pass.
    fn rebuild(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Decision> {
        self.slots.clear();
        self.slot_index.clear();
        self.running.clear();
        self.min_running_end = f64::INFINITY;
        self.dur_bound = 0.0;
        self.cal.reset(ctx.now, ctx.free_capacity());
        let completions = ctx.canonical_completions();
        self.park.rebase(ctx.now, ctx.free_capacity(), &completions);
        for (id, end, procs) in completions {
            self.cal.add_range(end, f64::INFINITY, procs);
            self.running.insert(id, (end, procs));
            self.min_running_end = self.min_running_end.min(end);
        }
        self.anchored = true;
        let mut out = Vec::new();
        let keys: Vec<_> = ctx.queue.iter_keys().copied().collect();
        for q in keys {
            self.place(ctx, q.id, q.procs as f64, q.estimate.max(1.0), &mut out);
        }
        out
    }

    /// Place one job at its earliest feasible slot: start it when that slot
    /// is `now`, otherwise commit a reservation.
    fn place(
        &mut self,
        ctx: &SchedulerContext<'_>,
        id: u64,
        procs: f64,
        duration: f64,
        out: &mut Vec<Decision>,
    ) {
        self.dur_bound = self.dur_bound.max(duration);
        let start = match self
            .cal
            .earliest_start_capped(ctx.now, procs, duration, PLACEMENT_PROBES)
        {
            Some(start) => start,
            // Budget exhausted: park at the width's tail bound, where the
            // window is free by the Park invariant.
            None => self
                .park
                .time_for(procs)
                .map(|t| t.max(ctx.now))
                .unwrap_or(f64::INFINITY),
        };
        if start == ctx.now {
            let m = self.cal.add_range(ctx.now, ctx.now + duration, -procs);
            self.park.note(ctx.now + duration, m);
            self.running.insert(id, (ctx.now + duration, procs));
            self.min_running_end = self.min_running_end.min(ctx.now + duration);
            out.push(Decision::start(id));
        } else if start.is_finite() {
            let m = self.cal.add_range(start, start + duration, -procs);
            self.park.note(start + duration, m);
            self.commit(
                id,
                Slot {
                    start,
                    end: start + duration,
                    procs,
                },
            );
        } else {
            // Wider than the machine currently is: no feasible slot. Hold the
            // job without occupancy; a rebuild re-places it when capacity
            // returns.
            self.commit(
                id,
                Slot {
                    start: f64::INFINITY,
                    end: f64::INFINITY,
                    procs,
                },
            );
        }
    }

    /// Record a reservation in both the by-id map and the by-start index.
    fn commit(&mut self, id: u64, slot: Slot) {
        self.slot_index.insert((slot.start.to_bits(), id));
        self.slots.insert(id, slot);
    }

    /// Drop a reservation from both views.
    fn uncommit(&mut self, id: u64, slot: &Slot) {
        self.slot_index.remove(&(slot.start.to_bits(), id));
        self.slots.remove(&id);
    }

    /// Release tracked running jobs that are no longer in the context's
    /// running set (they completed; the engine already freed their
    /// processors). Returns `false` when the running set contains a job we
    /// never tracked (state went inconsistent, rebuild).
    fn reconcile(&mut self, ctx: &SchedulerContext<'_>) -> bool {
        if ctx.running.len() != self.running.len() {
            let mut completed: Vec<u64> = self
                .running
                .keys()
                .copied()
                .filter(|id| !ctx.running.iter().any(|r| r.job.id == *id))
                .collect();
            completed.sort_unstable();
            for id in completed {
                let (end, procs) = self.running.remove(&id).expect("tracked");
                self.cal.add_range(ctx.now, end, procs);
                if end == self.min_running_end {
                    self.min_running_end = self
                        .running
                        .values()
                        .fold(f64::INFINITY, |m, &(e, _)| m.min(e));
                }
            }
        }
        ctx.running.len() == self.running.len()
            && ctx
                .running
                .iter()
                .all(|r| self.running.contains_key(&r.job.id))
    }

    /// Start a reserved job at `now`: lift its far occupancy, occupy
    /// `[now, now+d)` and emit the decision.
    fn start_reserved(
        &mut self,
        ctx: &SchedulerContext<'_>,
        id: u64,
        slot: &Slot,
        duration: f64,
        out: &mut Vec<Decision>,
    ) {
        if slot.start.is_finite() {
            self.cal
                .add_range(slot.start.max(ctx.now), slot.end, slot.procs);
        }
        let m = self.cal.add_range(ctx.now, ctx.now + duration, -slot.procs);
        self.park.note(ctx.now + duration, m);
        self.running.insert(id, (ctx.now + duration, slot.procs));
        self.min_running_end = self.min_running_end.min(ctx.now + duration);
        out.push(Decision::start(id));
    }

    /// The due pass of the compression walk: re-place, in `(start, id)`
    /// order, every reservation whose committed start has been reached. A
    /// due reservation's window is feasible by commitment (capacity is only
    /// ever promised around it, never taken from it), so lifting its own
    /// occupancy and re-placing it from `now` starts it; the re-place form
    /// is kept rather than an unconditional start so clock drift past a
    /// missed slot degrades to a later reservation instead of an overdraft.
    fn due_pass(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Decision>) {
        loop {
            let next = self
                .slot_index
                .range(..=(ctx.now.to_bits(), u64::MAX))
                .next()
                .copied();
            let Some((_, id)) = next else { break };
            let slot = self.slots.get(&id).copied().expect("indexed slot");
            self.uncommit(id, &slot);
            let Some(q) = ctx.queue.get(id) else { continue };
            if slot.start.is_finite() {
                self.cal
                    .add_range(slot.start.max(ctx.now), slot.end, slot.procs);
            }
            // The job was placed since the last rebuild, so `dur_bound`
            // already covers its duration. A re-placed slot starts now or
            // lands strictly after `now`, so the loop cannot revisit it.
            self.place(ctx, id, slot.procs, q.job.estimate.max(1.0), out);
        }
    }

    /// The compression walk run after completions and timers: due pass, then
    /// starter pass (see the module docs for the lazy-compression semantics).
    fn walk(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Decision>) {
        self.due_pass(ctx, out);
        // Starter pass: stream plausible candidates off the backlog index in
        // arrival order, re-test each against the fresh dip profile, start
        // exact fits. Each start changes the profile in both directions
        // (consumes `[now, now+d)`, releases the far slot), so the scan is
        // rebound before the next candidate is pulled.
        let horizon = ctx.now + self.dur_bound;
        let mut dips = self.cal.dip_times_upto(ctx.now, horizon);
        let mut stairs = stairs_of(&dips, ctx.now);
        if !stairs.is_empty() {
            let mut scan = ctx.queue.staircase_scan(&stairs);
            let mut dirty = false;
            loop {
                if dirty {
                    dips = self.cal.dip_times_upto(ctx.now, horizon);
                    stairs = stairs_of(&dips, ctx.now);
                    if stairs.is_empty() {
                        break;
                    }
                    scan.rebind(&stairs);
                    dirty = false;
                }
                let Some(q) = scan.next() else { break };
                if self.running.contains_key(&q.id) {
                    continue;
                }
                let Some(slot) = self.slots.get(&q.id).copied() else {
                    continue;
                };
                let p = q.procs as usize;
                let duration = q.estimate.max(1.0);
                if p > dips.len() || ctx.now + duration > dips[p - 1] {
                    continue;
                }
                self.uncommit(q.id, &slot);
                self.start_reserved(ctx, q.id, &slot, duration, out);
                dirty = true;
            }
        }
    }

    /// Arm the engine's timer for the earliest committed reservation start,
    /// so a due slot fires even when no completion coincides with it. The
    /// engine coalesces repeated requests for the same instant.
    fn arm_wakeup(&self, out: &mut Vec<Decision>) {
        if let Some(&(bits, _)) = self.slot_index.iter().next() {
            let at = f64::from_bits(bits);
            if at.is_finite() {
                out.push(Decision::Wakeup { at });
            }
        }
    }
}

impl Scheduler for ConservativeBackfill {
    fn name(&self) -> &str {
        "conservative"
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        let mut out = self.react_inner(ctx, event);
        self.arm_wakeup(&mut out);
        out
    }
}

impl ConservativeBackfill {
    fn react_inner(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        if needs_rebuild(self.anchored, self.min_running_end, ctx, event) {
            return self.rebuild(ctx);
        }
        if !self.reconcile(ctx) {
            return self.rebuild(ctx);
        }
        self.cal.advance_to(ctx.now);
        let mut out = Vec::new();
        if let SchedulerEvent::JobArrived { job_id } = event {
            // An arrival only ever consumes capacity: the new job is placed
            // once and nothing else can move, so no compression walk runs.
            if !self.slots.contains_key(&job_id) && !self.running.contains_key(&job_id) {
                if let Some(q) = ctx.queue.get(job_id) {
                    self.place(
                        ctx,
                        job_id,
                        q.job.procs as f64,
                        q.job.estimate.max(1.0),
                        &mut out,
                    );
                }
            }
        }
        // Every queued job must now hold a slot or have just started; any
        // other shape (e.g. a killed job silently requeued) means the state
        // no longer matches the queue.
        if self.slots.len() + out.len() != ctx.queue.len() {
            // The rebuild re-derives every decision, including the arrival's.
            return self.rebuild(ctx);
        }
        if matches!(
            event,
            SchedulerEvent::JobCompleted { .. }
                | SchedulerEvent::CompletionBatch { .. }
                | SchedulerEvent::Timer
        ) {
            self.walk(ctx, &mut out);
        }
        // Released occupancies leave redundant steps behind; compact once
        // the residue dominates the live breakpoints.
        let live = 2 * (self.slots.len() + self.running.len()) + 16;
        if self.cal.len() > 2 * live {
            self.cal.compact();
        }
        out
    }
}

/// The exhaustive twin of [`ConservativeBackfill`]: identical persistent
/// promise semantics, but the profile is rebuilt from scratch on every react
/// (anchor + canonical completions + every committed slot, applied in
/// arrival order) and the candidate set comes from a full queue scan instead
/// of the backlog index. It is deliberately O(backlog · profile) per react —
/// the point is to be an independently-auditable specification that the
/// incremental implementation must match bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ConservativeOracle {
    slots: HashMap<u64, Slot>,
    running: HashMap<u64, (f64, f64)>,
    min_running_end: f64,
    park: Park,
    anchored: bool,
}

impl ConservativeOracle {
    /// Rebuild the full step function from scratch: base plus every
    /// committed occupancy, clipped to `[now, ∞)`.
    fn profile(&self, ctx: &SchedulerContext<'_>) -> StepVec {
        let mut p = StepVec::anchored(ctx.now, ctx.free_capacity());
        for (_, end, procs) in ctx.canonical_completions() {
            p.add_range(end, f64::INFINITY, procs);
        }
        // The engine counts a due-but-unstarted reservation's processors as
        // free; its committed occupancy below re-subtracts them, so the
        // function matches the incremental calendar exactly.
        for q in ctx.queue.iter_keys() {
            if let Some(s) = self.slots.get(&q.id) {
                if s.start.is_finite() {
                    p.add_range(s.start.max(ctx.now), s.end, -s.procs);
                }
            }
        }
        p
    }

    fn track_start(&mut self, id: u64, now: f64, duration: f64, procs: f64) {
        self.running.insert(id, (now + duration, procs));
        self.min_running_end = self.min_running_end.min(now + duration);
    }

    fn place(
        &mut self,
        p: &mut StepVec,
        now: f64,
        id: u64,
        procs: f64,
        duration: f64,
        out: &mut Vec<Decision>,
    ) {
        let start = match p.earliest_start_capped(now, procs, duration, PLACEMENT_PROBES) {
            Some(start) => start,
            None => self
                .park
                .time_for(procs)
                .map(|t| t.max(now))
                .unwrap_or(f64::INFINITY),
        };
        if start == now {
            let m = p.add_range(now, now + duration, -procs);
            self.park.note(now + duration, m);
            self.track_start(id, now, duration, procs);
            out.push(Decision::start(id));
        } else {
            if start.is_finite() {
                let m = p.add_range(start, start + duration, -procs);
                self.park.note(start + duration, m);
            }
            self.slots.insert(
                id,
                Slot {
                    start,
                    end: start + duration,
                    procs,
                },
            );
        }
    }

    fn rebuild(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Decision> {
        self.slots.clear();
        self.running.clear();
        self.min_running_end = f64::INFINITY;
        let completions = ctx.canonical_completions();
        self.park.rebase(ctx.now, ctx.free_capacity(), &completions);
        for (id, end, procs) in completions {
            self.running.insert(id, (end, procs));
            self.min_running_end = self.min_running_end.min(end);
        }
        self.anchored = true;
        let mut p = self.profile(ctx);
        let mut out = Vec::new();
        let keys: Vec<_> = ctx.queue.iter_keys().copied().collect();
        for q in keys {
            self.place(
                &mut p,
                ctx.now,
                q.id,
                q.procs as f64,
                q.estimate.max(1.0),
                &mut out,
            );
        }
        out
    }

    /// The due pass, specified naively: repeatedly take the reservation with
    /// the smallest `(start, id)` at or before `now` (full scan of the slot
    /// map), lift it, re-place it. Rule-for-rule the same as
    /// [`ConservativeBackfill::due_pass`], which runs off its by-start index.
    fn due_pass(&mut self, ctx: &SchedulerContext<'_>, p: &mut StepVec, out: &mut Vec<Decision>) {
        loop {
            let next = self
                .slots
                .iter()
                .filter(|(_, s)| s.start <= ctx.now)
                .map(|(id, s)| (s.start.to_bits(), *id))
                .min();
            let Some((_, id)) = next else { break };
            let slot = self.slots.remove(&id).expect("scanned slot");
            let Some(q) = ctx.queue.get(id) else { continue };
            if slot.start.is_finite() {
                p.add_range(slot.start.max(ctx.now), slot.end, slot.procs);
            }
            self.place(p, ctx.now, id, slot.procs, q.job.estimate.max(1.0), out);
        }
    }

    /// The compression walk, specified naively: due pass, then one
    /// arrival-order sweep of the whole queue testing every job against a
    /// freshly recomputed dip profile (`now + d ≤ dip(p)` — exactly the
    /// incremental walk's test).
    fn walk(&mut self, ctx: &SchedulerContext<'_>, p: &mut StepVec, out: &mut Vec<Decision>) {
        self.due_pass(ctx, p, out);
        let keys: Vec<_> = ctx.queue.iter_keys().copied().collect();
        for q in keys {
            if self.running.contains_key(&q.id) {
                continue;
            }
            let Some(slot) = self.slots.get(&q.id).copied() else {
                continue;
            };
            let dips = p.dip_times(ctx.now);
            let width = q.procs as usize;
            let duration = q.estimate.max(1.0);
            if width > dips.len() || ctx.now + duration > dips[width - 1] {
                continue;
            }
            self.slots.remove(&q.id);
            if slot.start.is_finite() {
                p.add_range(slot.start.max(ctx.now), slot.end, slot.procs);
            }
            let m = p.add_range(ctx.now, ctx.now + duration, -slot.procs);
            self.park.note(ctx.now + duration, m);
            self.track_start(q.id, ctx.now, duration, slot.procs);
            out.push(Decision::start(q.id));
        }
    }

    /// Mirror of [`ConservativeBackfill::arm_wakeup`], off the slot map.
    fn arm_wakeup(&self, out: &mut Vec<Decision>) {
        if let Some(bits) = self.slots.values().map(|s| s.start.to_bits()).min() {
            let at = f64::from_bits(bits);
            if at.is_finite() {
                out.push(Decision::Wakeup { at });
            }
        }
    }
}

impl Scheduler for ConservativeOracle {
    fn name(&self) -> &str {
        "conservative-oracle"
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        let mut out = self.react_inner(ctx, event);
        self.arm_wakeup(&mut out);
        out
    }
}

impl ConservativeOracle {
    fn react_inner(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        if needs_rebuild(self.anchored, self.min_running_end, ctx, event) {
            return self.rebuild(ctx);
        }
        // Reconcile completions: forget them (the from-scratch profile below
        // reflects the release automatically).
        let mut completed: Vec<u64> = self
            .running
            .keys()
            .copied()
            .filter(|id| !ctx.running.iter().any(|r| r.job.id == *id))
            .collect();
        completed.sort_unstable();
        for id in &completed {
            self.running.remove(id);
        }
        self.min_running_end = self
            .running
            .values()
            .fold(f64::INFINITY, |m, &(e, _)| m.min(e));
        if !ctx
            .running
            .iter()
            .all(|r| self.running.contains_key(&r.job.id))
        {
            return self.rebuild(ctx);
        }
        let mut p = self.profile(ctx);
        let mut out = Vec::new();
        if let SchedulerEvent::JobArrived { job_id } = event {
            if !self.slots.contains_key(&job_id) && !self.running.contains_key(&job_id) {
                if let Some(q) = ctx.queue.get(job_id) {
                    self.place(
                        &mut p,
                        ctx.now,
                        job_id,
                        q.job.procs as f64,
                        q.job.estimate.max(1.0),
                        &mut out,
                    );
                }
            }
        }
        if self.slots.len() + out.len() != ctx.queue.len() {
            return self.rebuild(ctx);
        }
        if matches!(
            event,
            SchedulerEvent::JobCompleted { .. }
                | SchedulerEvent::CompletionBatch { .. }
                | SchedulerEvent::Timer
        ) {
            self.walk(ctx, &mut p, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_sim::{SimConfig, SimJob, Simulation};

    fn jobs(specs: &[(u64, f64, f64, u32)]) -> Vec<SimJob> {
        specs
            .iter()
            .map(|&(id, submit, rt, procs)| SimJob::rigid(id, submit, rt, procs))
            .collect()
    }

    #[test]
    fn stepvec_basics() {
        let mut p = StepVec::anchored(0.0, 16.0);
        p.add_range(100.0, f64::INFINITY, 48.0);
        assert_eq!(p.capacity_at(0.0), 16.0);
        assert_eq!(p.capacity_at(99.0), 16.0);
        assert_eq!(p.capacity_at(100.0), 64.0);
        p.add_range(10.0, 50.0, -16.0);
        assert_eq!(p.capacity_at(10.0), 0.0);
        assert_eq!(p.capacity_at(49.0), 0.0);
        assert_eq!(p.capacity_at(50.0), 16.0);
        assert_eq!(p.earliest_start(0.0, 8.0, 10.0), 0.0);
        assert_eq!(p.earliest_start(0.0, 8.0, 11.0), 50.0);
        assert_eq!(p.earliest_start(0.0, 64.0, 5.0), 100.0);
        assert_eq!(p.earliest_start(0.0, 65.0, 5.0), f64::INFINITY);
    }

    #[test]
    fn calendar_matches_stepvec_on_random_ops() {
        // Differential test: the chunked calendar and the flat reference must
        // agree exactly on capacities, earliest-start searches and dip
        // profiles (whole and clamped to a horizon) across a deterministic
        // pseudo-random op mix dense enough to force chunk splits, offsets
        // and partial-range updates.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut cal = Calendar::default();
        cal.reset(0.0, 64.0);
        let mut reference = StepVec::anchored(0.0, 64.0);
        let mut occupied: Vec<(f64, f64, f64)> = Vec::new();
        for round in 0..4000 {
            let r = rng();
            match r % 5 {
                0 | 1 => {
                    // Occupy a random feasible window.
                    let procs = (r / 7 % 16 + 1) as f64;
                    let dur = (r / 11 % 500 + 1) as f64;
                    let from = (r / 13 % 2000) as f64;
                    let s_cal = cal.earliest_start(from, procs, dur);
                    let s_ref = reference.earliest_start(from, procs, dur);
                    assert_eq!(s_cal, s_ref, "round {round} search");
                    if s_cal.is_finite() {
                        cal.add_range(s_cal, s_cal + dur, -procs);
                        reference.add_range(s_cal, s_cal + dur, -procs);
                        occupied.push((s_cal, s_cal + dur, procs));
                    }
                }
                2 => {
                    // Release a previously occupied window.
                    if !occupied.is_empty() {
                        let i = (r as usize / 3) % occupied.len();
                        let (a, b, procs) = occupied.swap_remove(i);
                        cal.add_range(a, b, procs);
                        reference.add_range(a, b, procs);
                    }
                }
                3 => {
                    let t = (r / 17 % 3000) as f64;
                    assert_eq!(
                        cal.capacity_at(t),
                        reference.capacity_at(t),
                        "round {round} cap"
                    );
                    let dips = reference.dip_times(t);
                    assert_eq!(cal.dip_times(t), dips, "round {round} dips");
                    // The clamped scan reports every dip past the horizon as
                    // never happening.
                    let horizon = t + (r / 19 % 1500) as f64;
                    let clamped: Vec<f64> = dips
                        .iter()
                        .map(|&d| if d > horizon { f64::INFINITY } else { d })
                        .collect();
                    assert_eq!(
                        cal.dip_times_upto(t, horizon),
                        clamped,
                        "round {round} dips up to {horizon}"
                    );
                }
                _ => {
                    if r % 97 == 0 {
                        cal.compact();
                    }
                    let procs = (r / 7 % 64 + 1) as f64;
                    let dur = (r / 11 % 900 + 1) as f64;
                    let s_cal = cal.earliest_start(0.0, procs, dur);
                    let s_ref = reference.earliest_start(0.0, procs, dur);
                    assert_eq!(s_cal, s_ref, "round {round} wide search");
                }
            }
        }
        assert!(cal.len() > 2 * CHUNK, "test must exercise chunk splits");
    }

    #[test]
    fn calendar_advance_preserves_function() {
        let mut cal = Calendar::default();
        cal.reset(0.0, 32.0);
        cal.add_range(10.0, 20.0, -8.0);
        cal.add_range(50.0, f64::INFINITY, 16.0);
        cal.advance_to(15.0);
        assert_eq!(cal.capacity_at(15.0), 24.0);
        assert_eq!(cal.capacity_at(20.0), 32.0);
        assert_eq!(cal.capacity_at(50.0), 48.0);
        // Anchor semantics: instants before the anchor read the anchor.
        assert_eq!(cal.capacity_at(0.0), 24.0);
    }

    #[test]
    fn conservative_backfills_when_harmless() {
        let js = jobs(&[(1, 0.0, 100.0, 48), (2, 1.0, 200.0, 64), (3, 2.0, 10.0, 8)]);
        let result =
            Simulation::new(SimConfig::new(64), js).run(&mut ConservativeBackfill::default());
        let j3 = result.finished.iter().find(|f| f.id == 3).unwrap();
        assert_eq!(j3.start, 2.0);
    }

    #[test]
    fn conservative_never_delays_earlier_job() {
        let js = jobs(&[
            (1, 0.0, 100.0, 60),
            (2, 1.0, 200.0, 64),
            (3, 2.0, 1000.0, 4),
        ]);
        let result =
            Simulation::new(SimConfig::new(64), js).run(&mut ConservativeBackfill::default());
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(j2.start, 100.0);
    }

    #[test]
    fn compression_slides_reservation_earlier_on_early_completion() {
        // Job 1 runs 40s but is estimated at 400s; job 2 needs the whole
        // machine and is reserved behind the estimate. When job 1 finishes
        // early the compression pass must start job 2 right away.
        let js = vec![
            SimJob::rigid(1, 0.0, 40.0, 32).with_estimate(400.0),
            SimJob::rigid(2, 1.0, 50.0, 64).with_estimate(50.0),
        ];
        let result =
            Simulation::new(SimConfig::new(64), js).run(&mut ConservativeBackfill::default());
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(
            j2.start, 40.0,
            "early completion must compress the calendar"
        );
    }

    #[test]
    fn oracle_and_calendar_agree_on_small_workloads() {
        for seed in 0..20u64 {
            let js: Vec<SimJob> = (0..60)
                .map(|i| {
                    let r = seed * 1_000_003 + i * 7919;
                    SimJob::rigid(
                        i + 1,
                        (r % 500) as f64,
                        10.0 + (r % 300) as f64,
                        1 + (r % 60) as u32,
                    )
                    .with_estimate(10.0 + (r % 300) as f64 + (r % 5) as f64 * 60.0)
                })
                .collect();
            let a = Simulation::new(SimConfig::new(64), js.clone())
                .run(&mut ConservativeBackfill::default());
            let b = Simulation::new(SimConfig::new(64), js).run(&mut ConservativeOracle::default());
            assert_eq!(a.finished.len(), b.finished.len(), "seed {seed}");
            for (x, y) in a.finished.iter().zip(b.finished.iter()) {
                assert_eq!(x.id, y.id, "seed {seed}");
                assert_eq!(
                    x.start.to_bits(),
                    y.start.to_bits(),
                    "seed {seed} id {}",
                    x.id
                );
                assert_eq!(x.end.to_bits(), y.end.to_bits(), "seed {seed} id {}", x.id);
            }
        }
    }

    #[test]
    fn all_jobs_complete_and_no_rejections() {
        let js: Vec<SimJob> = (0..200)
            .map(|i| {
                SimJob::rigid(
                    i + 1,
                    (i * 15) as f64,
                    60.0 + (i % 9) as f64 * 150.0,
                    1 + (i % 50) as u32,
                )
                .with_estimate(60.0 + (i % 9) as f64 * 300.0)
            })
            .collect();
        for sched in [
            &mut ConservativeBackfill::default() as &mut dyn Scheduler,
            &mut ConservativeOracle::default(),
        ] {
            let result = Simulation::new(SimConfig::new(64), js.clone()).run(sched);
            assert_eq!(result.finished.len(), 200, "{}", sched.name());
            assert_eq!(result.rejected_decisions, 0, "{}", sched.name());
        }
    }
}
