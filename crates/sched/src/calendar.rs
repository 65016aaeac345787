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
//!      [`StepVec::dip_times`]). The dip staircase is handed to the backlog
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
//! # What one react costs
//!
//! A react costs what changed since the last one, not what the calendar or
//! the machine holds:
//!
//! * **completions** — the engine hands over the ids that completed at this
//!   consult ([`SchedulerContext::completed`]), so each is released with one
//!   calendar update, and the tracked running set is checked against the
//!   engine's by its size;
//! * **anchor** — advancing drops only the steps the clock passed (the step
//!   in force moves forward when it passed none), and each chunk keeps its
//!   cached minimum, maximum and end up to date from the steps an update
//!   touches, recounting its steps only when a touched or dropped step held
//!   the extreme it moved away from;
//! * **arrival** — one probe-budgeted search plus one update; the parking
//!   note stops at the first width already bounded past the window's end;
//! * **walk** — the due pass visits only due reservations (the by-start
//!   index), and each (re)bind of the starter pass scans the calendar once,
//!   keeping only the drops of the running minimum capacity: the staircase
//!   is built from those drops and each candidate's dip is a binary search
//!   over them, in buffers the policy keeps across reacts, where a
//!   per-width dip array would cost the free width on every bind.
//!
//! Only the rebuild (outages, kills, overdue estimates) re-places the whole
//! backlog.
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

use psbench_sim::idhash::IdMap;
use psbench_sim::{Decision, Scheduler, SchedulerContext, SchedulerEvent};
use std::collections::BTreeSet;

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

/// A free-capacity step function: the one reservation step function of the
/// workspace. Conservative planning books its promises in one, and so do the
/// metasystem's advance-reservation books (`psbench_metasim`'s sites and
/// engine shards). Implemented by the flat [`StepVec`] (linear updates,
/// obviously correct) and the chunked `Calendar` behind
/// [`ConservativeBackfill`] (incremental, sublinear updates); the two must
/// agree exactly, which the differential unit tests below and the
/// scheduler-level proptest enforce.
pub trait StepFn {
    /// Free capacity at time `t` (the first step's capacity also applies to
    /// instants before it — it is the `now` anchor).
    fn capacity_at(&self, t: f64) -> f64;

    /// Add `delta` processors of free capacity on `[from, to)`. `to` may be
    /// `f64::INFINITY` (a release that never ends). `from` is clipped to the
    /// anchor; an empty or inverted range is a no-op. Returns the minimum
    /// capacity over `[from, to)` *after* the update (`f64::INFINITY` for a
    /// no-op) — the conservative planner feeds it to its parking bounds. The
    /// minimum is a property of the updated function, so both
    /// implementations return the same value bit for bit.
    fn add_range(&mut self, from: f64, to: f64, delta: f64) -> f64;

    /// Move the anchor to `now`: drop the steps strictly before `now` and
    /// make the first step exactly `(now, capacity_at(now))`. The function
    /// on `[now, ∞)` is unchanged.
    fn advance_to(&mut self, now: f64);

    /// Earliest time ≥ `from` at which `procs` processors are continuously
    /// free for `duration` seconds, or `f64::INFINITY` when no such time
    /// exists (the machine is never that wide). Candidates are `from` and
    /// every breakpoint after it; a candidate `c` is feasible when
    /// `capacity_at(c) ≥ procs` and no breakpoint in `(c, c + duration)`
    /// dips below `procs`. All comparisons exact.
    ///
    /// Conservative placement goes through [`Self::earliest_start_capped`];
    /// the metasystem's reserve dispatch searches its books with this
    /// unbudgeted form.
    fn earliest_start(&self, from: f64, procs: f64, duration: f64) -> f64;

    /// [`StepFn::earliest_start`] with a probe budget: test at most `budget`
    /// candidate windows and return `None` when all of them failed (the
    /// conservative planner then parks the job at its width's tail bound).
    /// Candidates are `from` (when wide enough) followed by the successive
    /// *rise* points — the first breakpoint at or above `procs` after each
    /// failing window's first dip. Rises and dips are properties of the step
    /// function (a redundant step can never be the first breakpoint crossing
    /// a level), so both implementations probe the identical candidate
    /// sequence and give up after the identical amount of work.
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
/// (merely conservative) until the next rebase. The bounds never decrease
/// with width (a wider job is scarce whenever a narrower one is), which is
/// what lets `note` stop early.
#[derive(Debug, Clone, Default)]
pub(crate) struct Park {
    t: Vec<f64>,
}

impl Park {
    /// Exact bounds for the rebuild base: `free` processors at `now`, plus
    /// each canonical completion's release. Capacity is non-decreasing here,
    /// so level `p` is last below-`p` right before the release that lifts
    /// the running total past it. The widths covered are those the running
    /// total reaches, summed in release order: a total summed in another
    /// order can round past it (fractional shares) and leave the top width
    /// at `now`, below its neighbours.
    fn rebase(&mut self, now: f64, free: f64, completions: &[(u64, f64, f64)]) {
        let total = completions.iter().fold(free, |cap, c| cap + c.2);
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
        self.debug_check();
    }

    /// A consume left minimum capacity `win_min` inside a window ending at
    /// `to`: every width above that minimum may now stay scarce until `to`.
    /// The widths that rise are a run starting just above `win_min`: since
    /// the bounds never decrease with width, the run ends at the first
    /// width already bounded at or past `to`, and every wider one is too.
    fn note(&mut self, to: f64, win_min: f64) {
        if !to.is_finite() {
            return;
        }
        let lo = if win_min < 0.0 {
            1
        } else {
            (win_min.floor() as usize + 1).max(1)
        };
        for t in self.t.iter_mut().skip(lo - 1) {
            if *t >= to {
                break;
            }
            *t = to;
        }
        self.debug_check();
    }

    /// Debug builds: the bounds never decrease with width.
    fn debug_check(&self) {
        debug_assert!(
            self.t.windows(2).all(|w| w[0] <= w[1]),
            "parking bounds decrease with width: {:?}",
            self.t
        );
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

/// A flat step function of free processors over time: one sorted vector of
/// `(time, free_procs)` steps, updated in place by linear moves. It is the
/// advance-reservation book of the metasystem's sites and shards, and the
/// profile [`ConservativeOracle`] rebuilds from scratch every react — kept
/// naive enough to audit, which is what makes it the reference the chunked
/// `Calendar` is tested against.
#[derive(Debug, Clone, Default)]
pub struct StepVec {
    /// `(time, free_procs)`, strictly increasing times.
    steps: Vec<(f64, f64)>,
}

impl StepVec {
    /// A step function that is `free` from `now` on (and, by the anchor rule,
    /// before it).
    pub fn anchored(now: f64, free: f64) -> Self {
        StepVec {
            steps: vec![(now, free)],
        }
    }

    /// Can `procs` processors be promised over `[from, to)`? True when the
    /// capacity at `from` and at every breakpoint in `(from, to)` is at least
    /// `procs`. A breakpoint at exactly `to` does not count: with
    /// `to = c + duration` this is the rule [`StepFn::earliest_start`] tests
    /// its candidates `c` by, so a window the search offers always fits.
    pub fn fits(&self, from: f64, to: f64, procs: f64) -> bool {
        self.window_min(from, to) >= procs
    }

    /// The least capacity over `[from, to)`: the capacity at `from` and at
    /// every breakpoint in `(from, to)` — the window [`StepVec::fits`] tests.
    pub fn window_min(&self, from: f64, to: f64) -> f64 {
        self.steps[self.after(from)..]
            .iter()
            .take_while(|s| s.0 < to)
            .fold(self.capacity_at(from), |min, s| min.min(s.1))
    }

    /// Index of the first step strictly after `t`.
    fn after(&self, t: f64) -> usize {
        self.steps.partition_point(|s| s.0 <= t)
    }

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
    /// (equal capacity to their predecessor) never register, so the
    /// chunked calendar's drop-built profile agrees with this one exactly.
    pub fn dip_times(&self, from: f64) -> Vec<f64> {
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

impl StepFn for StepVec {
    fn capacity_at(&self, t: f64) -> f64 {
        match self.after(t) {
            0 => self.steps.first().map(|s| s.1).unwrap_or(0.0),
            i => self.steps[i - 1].1,
        }
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

    fn advance_to(&mut self, now: f64) {
        let cap = self.capacity_at(now);
        let keep = self.steps.partition_point(|s| s.0 < now);
        self.steps.drain(..keep);
        if self.steps.first().is_none_or(|s| s.0 != now) {
            self.steps.insert(0, (now, cap));
        }
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
            self.steps[self.after(t)..]
                .iter()
                .find(|s| s.1 < procs)
                .map(|s| s.0)
        };
        let first_good_after = |t: f64| -> Option<f64> {
            self.steps[self.after(t)..]
                .iter()
                .find(|s| s.1 >= procs)
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
    /// The dip profile at `from` (see [`StepVec::dip_times`]) clamped to
    /// `horizon`, as the drops of the running minimum capacity: dips later
    /// than `horizon` read as `f64::INFINITY` and the scan stops there. Safe
    /// whenever every duration subsequently tested against the profile is at
    /// most `horizon - from`: a true dip beyond the horizon and an infinite
    /// one then pass exactly the same `from + d ≤ dip` tests, so decisions
    /// are unchanged while the scan skips the (possibly long) quiet tail.
    /// Chunks whose minimum stays at or above the running minimum are
    /// skipped wholesale, and `out` is refilled in place.
    fn drops_upto(&self, from: f64, horizon: f64, out: &mut Drops) {
        out.at.clear();
        out.free = self.capacity_at(from);
        let mut runmin = out.free;
        if runmin < 1.0 || self.chunks.is_empty() {
            return;
        }
        let mut ci = self.chunk_at(from);
        'scan: while ci < self.chunks.len() {
            let c = &self.chunks[ci];
            if c.first_time() > horizon {
                break;
            }
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
                        out.at.push((t, cap));
                        runmin = cap;
                        if runmin < 1.0 {
                            break 'scan;
                        }
                    }
                }
            }
            ci += 1;
        }
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
            // Partly covered: update the touched steps and fold them into
            // the cached extremes. A touched step that held the extreme it
            // moves away from (the minimum on a release, the maximum on a
            // consume) may leave the cache too loose, so only then recount.
            let lo = c.steps.partition_point(|s| s.0 < from);
            let hi = c.steps.partition_point(|s| s.0 < to);
            let mut stale = false;
            for s in &mut c.steps[lo..hi] {
                stale |= s.1 == if delta > 0.0 { c.min } else { c.max };
                s.1 += delta;
                c.min = c.min.min(s.1);
                c.max = c.max.max(s.1);
                win_min = win_min.min(s.1 + c.off);
            }
            if stale {
                c.refresh();
            }
        }
        win_min
    }

    fn advance_to(&mut self, now: f64) {
        if self.chunks.is_empty() {
            self.reset(now, 0.0);
            return;
        }
        let ci = self.chunk_at(now);
        self.chunks.drain(..ci);
        let c = &mut self.chunks[0];
        let keep = c.steps.partition_point(|s| s.0 < now);
        // The new anchor is the step at `now` if there is one, else the step
        // in force at `now` moved forward to it (so the common advance, which
        // passes no breakpoint, moves no step), else — `now` before the
        // chunk — a copy of its first step, by the anchor rule.
        let dropped = if c.steps.get(keep).is_some_and(|s| s.0 == now) {
            keep
        } else if keep > 0 {
            c.steps[keep - 1].0 = now;
            keep - 1
        } else {
            c.steps.insert(0, (now, c.steps[0].1));
            0
        };
        // Dropping a step that held the chunk's minimum or maximum can
        // leave the cache too loose, unless the anchor holds it too.
        let (mut stale_min, mut stale_max) = (false, false);
        for s in c.steps.drain(..dropped) {
            stale_min |= s.1 == c.min;
            stale_max |= s.1 == c.max;
        }
        let anchor = c.steps[0].1;
        if (stale_min && anchor > c.min) || (stale_max && anchor < c.max) {
            c.refresh();
        } else {
            c.end = c.steps[c.steps.len() - 1].0;
        }
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
}

/// A dip profile (see [`StepVec::dip_times`]) stored as the capacity drops
/// that define it. Width `p`'s dip is the first drop below `p`, so the
/// drops alone answer the starter pass's per-width test (a binary search)
/// and give its staircase, in O(drops) where the per-width array costs
/// O(free width) to fill and to walk.
#[derive(Debug, Clone, Default)]
struct Drops {
    /// Capacity at the scan's start: widths above it cannot start at all.
    free: f64,
    /// `(time, capacity)` each time the running minimum capacity dropped, in
    /// time order, so capacities strictly decrease; the scan stops once one
    /// falls below one processor.
    at: Vec<(f64, f64)>,
}

impl Drops {
    /// The widest integer width free at the start (0 below one processor).
    fn width(&self) -> usize {
        if self.free < 1.0 {
            0
        } else {
            self.free.floor() as usize
        }
    }

    /// `dip_times(..)[p-1]`: the first drop below width `p`, `f64::INFINITY`
    /// when none was met, `None` when `p` is not free at the start.
    fn dip(&self, p: usize) -> Option<f64> {
        if p == 0 || p > self.width() {
            return None;
        }
        let k = self.at.partition_point(|&(_, cap)| cap >= p as f64);
        Some(self.at.get(k).map_or(f64::INFINITY, |d| d.0))
    }

    /// The backlog-index staircase, refilled into `out`: `(inclusive procs
    /// edge, max estimate)` stairs, ascending by procs, covering every width
    /// at which *some* job could still start (`now + 1 ≤ dip`, since every
    /// duration is at least 1s). The estimate bound is `dip - now` widened by
    /// a few ulps of the dip so the subtraction's rounding can never exclude
    /// a job the exact test `now + d ≤ dip` would accept — the stream must be
    /// a superset of the true starters (spurious candidates are dropped by
    /// the fresh re-test; a missing one would diverge from the oracle).
    /// Widths are grouped into stairs by equal bound. Ascending width is
    /// descending dip, so the drops are read latest first: a drop is the
    /// dip of the widths above its capacity and at or below the previous
    /// drop's, and the widths at or below the last drop's never dip.
    fn stairs(&self, now: f64, out: &mut Vec<(u32, f64)>) {
        out.clear();
        let width = self.width();
        let level = |cap: f64| (cap.floor() as usize).min(width);
        let steady = self.at.last().map_or(width, |&(_, cap)| level(cap));
        if steady > 0 {
            out.push((steady as u32, f64::INFINITY));
        }
        for k in (0..self.at.len()).rev() {
            let (dip, cap) = self.at[k];
            let hi = if k == 0 {
                width
            } else {
                level(self.at[k - 1].1)
            };
            if level(cap) >= hi {
                continue;
            }
            if now + 1.0 > dip {
                break;
            }
            let bound = stair_bound(dip, now);
            match out.last_mut() {
                Some(s) if s.1 == bound => s.0 = hi as u32,
                _ => out.push((hi as u32, bound)),
            }
        }
    }
}

/// The estimate bound of a stair whose widths dip at the finite `dip`:
/// `dip - now` widened by four ulps of the dip (see [`Drops::stairs`]).
fn stair_bound(dip: f64, now: f64) -> f64 {
    let ulp = f64::from_bits(dip.to_bits() + 1) - dip;
    ((dip - now) + 4.0 * ulp).max(1.0)
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
/// conservative implementations: a plan never anchored, the start, kills and
/// outages all force a rebuild, and so does a running job past its estimated
/// end (`min_running_end < now`), whose end then drifts with the clock.
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
        | SchedulerEvent::OutageEnded { .. } => true,
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
    slots: IdMap<Slot>,
    /// Reservations by `(start bits, id)` — times are non-negative, so the
    /// bit order is the float order. This is what lets the compression walk
    /// enumerate exactly the reservations at or before the reclaim horizon
    /// instead of sweeping the whole backlog.
    slot_index: BTreeSet<(u64, u64)>,
    /// Jobs we believe are running: id → (canonical end, procs).
    running: IdMap<(f64, f64)>,
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
    /// The starter pass's dip profile and staircase, refilled in place on
    /// every walk and rebind.
    drops: Drops,
    stairs: Vec<(u32, f64)>,
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

    /// Release the tracked running jobs the engine reports completed at
    /// this consult (it already freed their processors), at a cost in what
    /// completed rather than in what runs. Returns `false` when a completed
    /// job was never tracked or the tracked running set no longer matches
    /// the engine's (state went inconsistent, rebuild).
    ///
    /// The match is a count: between rebuilds the engine runs only jobs
    /// this policy started (kills, outages and a first consult all
    /// rebuild), so its running set is contained in the tracked one, and
    /// equal sizes make them equal. A start the engine refused leaves the
    /// tracked set one larger. Debug builds check the members as well.
    fn reconcile(&mut self, ctx: &SchedulerContext<'_>) -> bool {
        for id in ctx.completed {
            let Some((end, procs)) = self.running.remove(id) else {
                return false;
            };
            self.cal.add_range(ctx.now, end, procs);
            if end == self.min_running_end {
                self.min_running_end = self
                    .running
                    .values()
                    .fold(f64::INFINITY, |m, &(e, _)| m.min(e));
            }
        }
        let matches = ctx.running.len() == self.running.len();
        debug_assert!(
            !matches
                || ctx
                    .running
                    .iter()
                    .all(|r| self.running.contains_key(&r.job.id)),
            "the engine runs a job this policy never started"
        );
        matches
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
        self.cal.drops_upto(ctx.now, horizon, &mut self.drops);
        self.drops.stairs(ctx.now, &mut self.stairs);
        if self.stairs.is_empty() {
            return;
        }
        let mut scan = ctx.queue.staircase_scan(&self.stairs, None);
        let mut dirty = false;
        loop {
            if dirty {
                self.cal.drops_upto(ctx.now, horizon, &mut self.drops);
                self.drops.stairs(ctx.now, &mut self.stairs);
                if self.stairs.is_empty() {
                    break;
                }
                scan.rebind(&self.stairs);
                dirty = false;
            }
            let Some(q) = scan.next() else { break };
            if self.running.contains_key(&q.id) {
                continue;
            }
            let Some(slot) = self.slots.get(&q.id).copied() else {
                continue;
            };
            let duration = q.estimate.max(1.0);
            match self.drops.dip(q.procs as usize) {
                Some(dip) if ctx.now + duration <= dip => {}
                _ => continue,
            }
            self.uncommit(q.id, &slot);
            self.start_reserved(ctx, q.id, &slot, duration, out);
            dirty = true;
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
        // Anchoring first lets each release start at the anchor instead of
        // splitting a step there.
        self.cal.advance_to(ctx.now);
        if !self.reconcile(ctx) {
            return self.rebuild(ctx);
        }
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
    slots: IdMap<Slot>,
    running: IdMap<(f64, f64)>,
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

    /// Every chunk's cached minimum, maximum and end equal a recount of its
    /// steps.
    fn check_caches(cal: &Calendar) {
        for c in &cal.chunks {
            assert!(!c.steps.is_empty(), "empty chunk");
            let fresh = Chunk::of(c.steps.clone());
            assert_eq!(
                (c.min, c.max, c.end),
                (fresh.min, fresh.max, fresh.end),
                "stale chunk cache over {:?}",
                c.steps
            );
        }
    }

    /// The drop-built profile of `cal` at `t`, clamped to `horizon`, answers
    /// every width's dip as the per-width array `dips` does and gives the
    /// staircase built from it width by width.
    fn check_drops(cal: &Calendar, t: f64, horizon: f64, dips: &[f64], round: usize) {
        let mut drops = Drops::default();
        cal.drops_upto(t, horizon, &mut drops);
        for p in 0..=dips.len() + 1 {
            assert_eq!(
                drops.dip(p),
                p.checked_sub(1).and_then(|i| dips.get(i).copied()),
                "round {round} dip of width {p} at {t} up to {horizon}"
            );
        }
        let mut stairs = vec![(7, 7.0)];
        drops.stairs(t, &mut stairs);
        assert_eq!(
            stairs,
            stairs_of(dips, t),
            "round {round} stairs at {t} up to {horizon}"
        );
    }

    /// The staircase of a per-width dip array, built width by width: the
    /// oracle [`Drops::stairs`] is tested against.
    fn stairs_of(dips: &[f64], now: f64) -> Vec<(u32, f64)> {
        let mut stairs: Vec<(u32, f64)> = Vec::new();
        for (i, &dip) in dips.iter().enumerate() {
            if now + 1.0 > dip {
                break;
            }
            let bound = if dip.is_finite() {
                stair_bound(dip, now)
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
        // A breakpoint at exactly the window's end does not count.
        assert!(p.fits(0.0, 10.0, 8.0));
        assert!(!p.fits(0.0, 10.5, 8.0));
        assert!(!p.fits(10.0, 20.0, 1.0));
    }

    #[test]
    fn calendar_matches_stepvec_on_random_ops() {
        // Differential test: the chunked calendar and the flat reference must
        // agree exactly on capacities, earliest-start searches and dip
        // profiles (whole and clamped to a horizon) across a
        // deterministic pseudo-random op mix dense enough to force chunk
        // splits, offsets and partial-range updates, with both anchors
        // advanced at random non-decreasing instants along the way.
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
        let mut now = 0.0;
        for round in 0..4000 {
            let r = rng();
            match r % 6 {
                0 | 1 => {
                    // Occupy a random feasible window.
                    let procs = (r / 7 % 16 + 1) as f64;
                    let dur = (r / 11 % 500 + 1) as f64;
                    let from = now + (r / 13 % 2000) as f64;
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
                    let t = now + (r / 17 % 3000) as f64;
                    assert_eq!(
                        cal.capacity_at(t),
                        reference.capacity_at(t),
                        "round {round} cap"
                    );
                    // The drop-built profile matches the reference's dips,
                    // whole and clamped to a horizon (past which a dip reads
                    // as never happening).
                    let dips = reference.dip_times(t);
                    let horizon = t + (r / 19 % 1500) as f64;
                    let clamped: Vec<f64> = dips
                        .iter()
                        .map(|&d| if d > horizon { f64::INFINITY } else { d })
                        .collect();
                    check_drops(&cal, t, horizon, &clamped, round);
                    check_drops(&cal, t, f64::INFINITY, &dips, round);
                    // The window test answers whether a search from `t`
                    // answers `t`.
                    let procs = (r / 7 % 64 + 1) as f64;
                    let dur = (r / 11 % 900 + 1) as f64;
                    assert_eq!(
                        reference.fits(t, t + dur, procs),
                        reference.earliest_start_capped(t, procs, dur, 1) == Some(t),
                        "round {round} fits vs search"
                    );
                }
                4 => {
                    if r % 97 == 0 {
                        cal.compact();
                    }
                    let procs = (r / 7 % 64 + 1) as f64;
                    let dur = (r / 11 % 900 + 1) as f64;
                    let s_cal = cal.earliest_start(now, procs, dur);
                    let s_ref = reference.earliest_start(now, procs, dur);
                    assert_eq!(s_cal, s_ref, "round {round} wide search");
                }
                _ => {
                    // Advance both anchors, then compare the functions at and
                    // after the new anchor. Every seventh advance is long
                    // enough to pass several breakpoints at once.
                    now += (r / 23 % 8) as f64 * if r % 7 == 0 { 60.0 } else { 1.0 };
                    cal.advance_to(now);
                    reference.advance_to(now);
                    let procs = (r / 7 % 64 + 1) as f64;
                    let dur = (r / 11 % 900 + 1) as f64;
                    for t in [now, now + (r / 29 % 600) as f64] {
                        assert_eq!(
                            cal.capacity_at(t),
                            reference.capacity_at(t),
                            "round {round} cap after advancing to {now}"
                        );
                        assert_eq!(
                            cal.earliest_start(t, procs, dur),
                            reference.earliest_start(t, procs, dur),
                            "round {round} search after advancing to {now}"
                        );
                        check_drops(&cal, t, f64::INFINITY, &reference.dip_times(t), round);
                    }
                }
            }
            check_caches(&cal);
        }
        assert!(cal.len() > 2 * CHUNK, "test must exercise chunk splits");
    }

    #[test]
    fn drop_built_stairs_merge_widths_whose_bounds_round_together() {
        // Two adjacent floating-point dips whose widened estimate bounds
        // round to the same value: the staircase holds one stair for both,
        // as the width-by-width build does.
        let now = 29.41480931862592;
        let (d1, d2) = (107.49722782555656, 107.49722782555658);
        assert_eq!(stair_bound(d1, now), stair_bound(d2, now));
        let drops = Drops {
            free: 8.0,
            at: vec![(d1, 4.0), (d2, 2.0)],
        };
        let mut stairs = Vec::new();
        drops.stairs(now, &mut stairs);
        let inf = f64::INFINITY;
        assert_eq!(stairs, stairs_of(&[inf, inf, d2, d2, d1, d1, d1, d1], now));
        assert_eq!(stairs, [(2, f64::INFINITY), (8, stair_bound(d1, now))]);
    }

    #[test]
    fn park_note_stops_early_like_the_full_sweep() {
        // The sweep over every width above the window minimum that the early
        // stop replaces.
        fn note_every_width(t: &mut [f64], to: f64, win_min: f64) {
            if !to.is_finite() {
                return;
            }
            let lo = if win_min < 0.0 {
                1
            } else {
                (win_min.floor() as usize + 1).max(1)
            };
            for p in lo..=t.len() {
                if t[p - 1] < to {
                    t[p - 1] = to;
                }
            }
        }
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..300 {
            let now = (rng() % 100) as f64;
            let free = (rng() % 24) as f64 - 4.0;
            let mut completions: Vec<(u64, f64, f64)> = (0..rng() % 7)
                .map(|id| (id, now + (rng() % 400) as f64, (rng() % 12 + 1) as f64))
                .collect();
            completions.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let mut park = Park::default();
            park.rebase(now, free, &completions);
            let mut swept = park.t.clone();
            for step in 0..40 {
                let to = match rng() % 10 {
                    0 => f64::INFINITY,
                    r => now + (r * (rng() % 200)) as f64,
                };
                let win_min = (rng() % 60) as f64 - 6.0;
                park.note(to, win_min);
                note_every_width(&mut swept, to, win_min);
                assert_eq!(park.t, swept, "case {case} step {step}");
            }
        }
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
