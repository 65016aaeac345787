//! Backfilling schedulers: EASY (aggressive) and conservative.
//!
//! Backfilling is the workhorse of production batch schedulers and the main
//! consumer of the user runtime estimates the SWF standard carries (field 9). EASY
//! makes a reservation only for the queue head and backfills any job that does not
//! delay it; conservative backfilling gives every queued job a reservation and
//! backfills only into the resulting profile.

use crate::calendar::{eps_eq, eps_ge, eps_lt};
use psbench_sim::{Decision, Scheduler, SchedulerContext, SchedulerEvent};

/// A step function of free processors over time, used to plan future starts.
#[derive(Debug, Clone)]
pub(crate) struct Profile {
    /// (time, free_procs) breakpoints, sorted by time; free_procs holds from this
    /// breakpoint to the next. The last entry extends to infinity.
    steps: Vec<(f64, f64)>,
}

impl Profile {
    /// Build the profile of free capacity from the running jobs' estimated
    /// completion times. [`SchedulerContext::completion_profile`] arrives sorted
    /// and already carries the proc·share each completion releases, so this is a
    /// single O(running) pass — no re-sort, no per-completion lookup.
    pub(crate) fn from_running(ctx: &SchedulerContext<'_>) -> Self {
        let mut steps = vec![(ctx.now, ctx.free_capacity())];
        let mut free = ctx.free_capacity();
        for (_, end, procs) in ctx.completion_profile() {
            free += procs;
            steps.push((end.max(ctx.now), free));
        }
        Profile { steps }
    }

    /// Free capacity at time `t`.
    pub(crate) fn free_at(&self, t: f64) -> f64 {
        let mut free = self.steps.first().map(|s| s.1).unwrap_or(0.0);
        for &(time, f) in &self.steps {
            if time <= t + 1e-9 {
                free = f;
            } else {
                break;
            }
        }
        free
    }

    /// The most free capacity reachable at a start time the
    /// [`Profile::earliest_start`] search would still treat as "now" — `from`
    /// itself plus any breakpoint within the start/lookup tolerances. This is
    /// the sound reachability bound behind conservative backfilling's early
    /// exit: if even this is below one processor, no job can start now.
    pub(crate) fn free_near(&self, from: f64) -> f64 {
        let mut best = self.free_at(from);
        // Steps are time-sorted: only the (from, from + 2e-9] window matters,
        // so stop at the first breakpoint past it.
        for &(t, f) in &self.steps {
            if t > from + 2e-9 {
                break;
            }
            if t > from {
                best = best.max(f);
            }
        }
        best
    }

    /// Earliest time ≥ `from` at which `procs` processors are continuously free for
    /// `duration` seconds.
    ///
    /// The candidate starts are `from` and every breakpoint after it, in
    /// order; a candidate is feasible when the capacity at it covers `procs`
    /// and no breakpoint inside its window dips below. All three cursors
    /// (candidate, capacity-at-candidate, next too-low breakpoint) move
    /// monotonically with the candidate, so the search is a single O(steps)
    /// pass — the seed implementation re-scanned the whole profile per
    /// candidate, which made a deep-backlog conservative replan cubic.
    pub(crate) fn earliest_start(&self, from: f64, procs: f64, duration: f64) -> f64 {
        // Breakpoints whose capacity cannot host `procs`, ascending.
        let bad: Vec<f64> = self
            .steps
            .iter()
            .filter(|s| s.1 + 1e-9 < procs)
            .map(|s| s.0)
            .collect();
        let mut bi = 0usize; // first bad breakpoint past the candidate
        let mut fi = 0usize; // last step at or before candidate (+ tolerance)
        let mut si = 0usize; // next step to draw a candidate from
        while si < self.steps.len() && self.steps[si].0 <= from {
            si += 1;
        }
        let mut candidate = Some(from);
        while let Some(start) = candidate {
            while bi < bad.len() && bad[bi] <= start {
                bi += 1;
            }
            while fi + 1 < self.steps.len() && self.steps[fi + 1].0 <= start + 1e-9 {
                fi += 1;
            }
            // Mirrors `free_at`: the first step's capacity applies even to
            // instants before it (it is the "now" anchor).
            let free = self.steps.get(fi).map(|s| s.1).unwrap_or(0.0);
            if free + 1e-9 >= procs && !(bi < bad.len() && bad[bi] < start + duration) {
                return start;
            }
            candidate = (si < self.steps.len()).then(|| {
                let t = self.steps[si].0;
                si += 1;
                t
            });
        }
        // The last breakpoint always has the whole (available) machine free.
        self.steps.last().map(|s| s.0).unwrap_or(from).max(from)
    }

    /// Reserve `procs` processors for `[start, start+duration)`, reducing the free
    /// capacity in that window (inserting breakpoints as needed). O(steps):
    /// the two new breakpoints are spliced at their sorted positions instead
    /// of re-sorting the whole profile.
    ///
    /// Breakpoint dedup and window membership go through the same
    /// epsilon-compare helpers: a step is inside the window exactly when it is
    /// at-or-after `start` and strictly-before `end` under [`eps_eq`]'s notion
    /// of "same instant". The seed used `s.0 + 1e-9 >= start` for membership
    /// but `|s.0 - start| < 1e-9` for dedup, so a pre-existing breakpoint at
    /// exactly `start - 1e-9` — distinct by the dedup test — still had its
    /// capacity reduced for the sliver `[start - 1e-9, start)` the reservation
    /// does not cover.
    pub(crate) fn reserve(&mut self, start: f64, duration: f64, procs: f64) {
        let end = start + duration;
        let free_at_start = self.free_at(start);
        let free_at_end = self.free_at(end);
        if !self.steps.iter().any(|s| eps_eq(s.0, start)) {
            let pos = self.steps.partition_point(|s| s.0 <= start);
            self.steps.insert(pos, (start, free_at_start));
        }
        if !self.steps.iter().any(|s| eps_eq(s.0, end)) {
            let pos = self.steps.partition_point(|s| s.0 <= end);
            self.steps.insert(pos, (end, free_at_end));
        }
        for s in &mut self.steps {
            if eps_ge(s.0, start) && eps_lt(s.0, end) {
                s.1 -= procs;
            }
        }
    }
}

/// EASY (aggressive) backfilling: jobs start in arrival order; when the head does
/// not fit it gets a reservation at the earliest time enough processors will be
/// free (based on user estimates), and later jobs may be backfilled if they fit now
/// and do not delay that reservation.
///
/// # Incremental arrivals
///
/// A full plan used to walk the whole backlog, which is O(queue) per react and
/// turns quadratic on saturated archive-scale traces. Two mechanisms remove
/// that: between two consecutive *arrival* consults nothing a full replan
/// depends on can change — free capacity is untouched, the blocked head is
/// still blocked, the running jobs' estimated completion times are fixed
/// *absolute* instants (`started_at + estimate`), and every job that failed
/// the backfill test before fails it again (the shadow test only gets harder
/// as `now` advances, and the extra budget never grows) — so after a full plan
/// the scheduler caches the blocked head and the `(shadow, extra)` pair, and a
/// pure-arrival react tests **only the arriving job** in O(1). Any other event
/// — a completion (single or batched), an outage, a kill, a backfill actually
/// starting, or a running job outliving its estimate (which makes its
/// estimated end drift) — falls back to a full replan; and the full replan's
/// backfill phase consults the queue's **backlog index**
/// ([`psbench_sim::JobQueue::backfill_scan`]) so it examines only the jobs
/// that can possibly fit the free capacity or the extra budget, instead of
/// the entire backlog.
#[derive(Debug, Clone, Copy, Default)]
pub struct EasyBackfill {
    cache: Option<EasyCache>,
}

/// The state a pure-arrival react needs from the last full plan.
#[derive(Debug, Clone, Copy)]
struct EasyCache {
    /// Id of the blocked queue head the shadow was computed for.
    head_id: u64,
    /// Width of the blocked head, processors.
    head_procs: u32,
    /// Absolute time at which enough capacity frees for the head (by estimates).
    shadow: f64,
    /// Processors still free at the shadow time after the head starts.
    extra: f64,
    /// Earliest estimated completion over the jobs running at plan time
    /// (including the plan's own starts). Once the clock passes it, some job
    /// has outlived its estimate — its estimated end starts drifting with the
    /// clock, moving the shadow — so the cache is stale.
    min_est_end: f64,
}

impl EasyBackfill {
    /// Full three-phase plan; refreshes the cache. Phase 1 consumes the
    /// fitting prefix of the arrival-ordered key array, phase 2 computes the
    /// head's shadow from the completion profile (built only when phase 1
    /// leaves a blocked head), and phase 3 backfills from
    /// the backlog index: only jobs narrow enough for the free capacity (with
    /// an estimate inside the shadow budget) or for the extra processors are
    /// ever examined, so the plan's cost scales with the viable candidates,
    /// not the backlog depth.
    fn full_plan(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Decision> {
        self.cache = None;
        let mut out = Vec::new();
        let mut free = ctx.free_capacity();

        // Phase 1: start jobs from the head while they fit.
        let mut head = None;
        for q in ctx.queue.iter_keys() {
            if (q.procs as f64) <= free + 1e-9 {
                free -= q.procs as f64;
                out.push(Decision::start(q.id));
            } else {
                head = Some(q);
                break;
            }
        }
        let Some(head) = head else {
            return out;
        };

        // Phase 2: reservation (shadow time) for the head job that did not fit.
        // Only a blocked head reads the (estimated end, procs) completions, so
        // they are built here: the running jobs' sorted profile (already
        // carrying the released proc·share), then phase 1's starts in start
        // order, re-walked off the queue's started prefix. The stable sort
        // keeps that order among equal ends, which fixes the float summation
        // order behind `extra`.
        let mut completions: Vec<(f64, f64)> = ctx
            .completion_profile()
            .into_iter()
            .map(|(_, end, procs)| (end, procs))
            .collect();
        completions.extend(
            ctx.queue
                .iter_keys()
                .take(out.len())
                .map(|q| (ctx.now + q.estimate.max(1.0), q.procs as f64)),
        );
        completions.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut avail = free;
        let mut shadow = f64::INFINITY;
        let mut extra = 0.0;
        for &(end, procs) in &completions {
            avail += procs;
            if avail + 1e-9 >= head.procs as f64 {
                shadow = end;
                extra = avail - head.procs as f64;
                break;
            }
        }

        // Phase 3: backfill later jobs that fit now and do not delay the head:
        // either they finish (by estimate) before the shadow time, or they use
        // only the processors that will still be free when the head starts.
        //
        // This phase is the hot loop of a saturated simulation. The backlog
        // index enumerates, in arrival order, exactly the jobs behind the head
        // that satisfy one of the two tests under the *initial* budgets; each
        // candidate is then re-tested against the current (shrinking) budgets
        // with the same expressions the exhaustive scan used, so the decision
        // sequence is identical — the index only removes the jobs that could
        // never pass. The capacity comparisons are hoisted to integer floors:
        // `procs` is integral, so `procs ≤ x + 1e-9  ⟺  procs ≤ ⌊x + 1e-9⌋`
        // exactly, and the floors only change when a backfill actually starts.
        let mut free_floor = (free + 1e-9).floor();
        let mut extra_floor = (extra + 1e-9).floor();
        let shadow_budget = shadow + 1e-9 - ctx.now; // estimate budget
                                                     // Phase-3 starts are not folded into `completions`, but their
                                                     // estimated ends still bound the cache's overdue horizon.
        let mut min_backfill_end = f64::INFINITY;
        if free_floor >= 1.0 {
            let head_pos = ctx.queue.get(head.id).map(|h| (h.queued_at, h.job.id));
            let wide = free_floor.min(u32::MAX as f64) as u32;
            let narrow = extra_floor.min(free_floor).clamp(0.0, u32::MAX as f64) as u32;
            let mut scan = ctx
                .queue
                .backfill_scan(wide, shadow_budget, narrow, head_pos);
            while let Some(q) = scan.next() {
                // Every job needs ≥ 1 processor (a `SimJob` invariant), so once
                // less than one is free nothing further can be backfilled.
                if free_floor < 1.0 {
                    break;
                }
                let procs = q.procs as f64;
                if procs > free_floor {
                    continue;
                }
                let fits_in_extra = procs <= extra_floor;
                let ends_before_shadow = q.estimate <= shadow_budget;
                if ends_before_shadow || fits_in_extra {
                    free -= procs;
                    free_floor = (free + 1e-9).floor();
                    if !ends_before_shadow {
                        extra -= procs;
                        extra_floor = (extra + 1e-9).floor();
                    }
                    min_backfill_end = min_backfill_end.min(ctx.now + q.estimate.max(1.0));
                    out.push(Decision::start(q.id));
                    // Tighten the scan to the new budgets: bucket streams that
                    // can no longer produce a start are dropped, so the rest
                    // of their backlog entries are never touched.
                    scan.shrink(
                        free_floor.clamp(0.0, u32::MAX as f64) as u32,
                        extra_floor.min(free_floor).clamp(0.0, u32::MAX as f64) as u32,
                    );
                }
            }
        }
        self.cache = Some(EasyCache {
            head_id: head.id,
            head_procs: head.procs,
            shadow,
            extra,
            // `completions` (sorted by end time) holds every running job plus
            // phase 1's starts; phase 3's starts are folded in separately.
            min_est_end: completions
                .first()
                .map_or(f64::INFINITY, |c| c.0)
                .min(min_backfill_end),
        });
        out
    }

    /// Is the cached plan still exactly what a full replan would produce?
    /// True only if the head is still blocked at the queue front and no
    /// running job has outlived its estimate (which would move its estimated
    /// completion, and with it the shadow). O(1): the overdue test compares
    /// the clock against the cached earliest estimated completion.
    fn cache_valid(&self, ctx: &SchedulerContext<'_>) -> Option<EasyCache> {
        let cache = self.cache?;
        let head_key = ctx.queue.iter_keys().next()?;
        if head_key.id != cache.head_id
            || (cache.head_procs as f64) <= ctx.free_capacity() + 1e-9
            || ctx.now > cache.min_est_end
        {
            return None;
        }
        Some(cache)
    }

    /// Drop the cached plan. Wrapping policies that veto this scheduler's
    /// proposed starts (e.g. [`crate::drain::DrainingEasy`]) must call this
    /// whenever they drop a decision: the cache assumes every proposed start
    /// was applied, so a veto leaves it describing a state that never
    /// happened.
    pub fn invalidate(&mut self) {
        self.cache = None;
    }
}

impl Scheduler for EasyBackfill {
    fn name(&self) -> &str {
        "easy"
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        if let SchedulerEvent::JobArrived { job_id } = event {
            if let Some(cache) = self.cache_valid(ctx) {
                // O(1) path: only the arriving job can have become startable.
                let Some(q) = ctx.queue.get(job_id) else {
                    return Vec::new();
                };
                let procs = q.job.procs as f64;
                let free = ctx.free_capacity();
                if procs > free + 1e-9 {
                    return Vec::new();
                }
                // Bit-identical to full_plan's phase-3 test: same expression
                // shape (`est <= shadow + 1e-9 - now`), same shadow value.
                let ends_before_shadow = q.job.estimate <= cache.shadow + 1e-9 - ctx.now;
                let fits_in_extra = procs <= cache.extra + 1e-9;
                if ends_before_shadow || fits_in_extra {
                    // Starting a job adds a completion the cached shadow did
                    // not see; the next arrival must replan.
                    self.cache = None;
                    return vec![Decision::start(job_id)];
                }
                return Vec::new();
            }
        }
        self.full_plan(ctx)
    }
}

/// Replan-per-react conservative backfilling: every queued job gets a
/// reservation in a profile of future free capacity rebuilt from scratch on
/// each react; a job starts now only if its reservation is now, so no job is
/// ever delayed by a later arrival (under exact estimates).
///
/// This is the pre-calendar formulation. Because the whole backlog is
/// re-planned against a fresh profile, an early completion implicitly moves
/// Θ(backlog) reservations per react, which keeps the policy super-linear on
/// saturated traces no matter how fast a single replan is — the persistent
/// [`crate::calendar::ConservativeBackfill`] replaces it as the default
/// `conservative` policy. It stays in the zoo (as `conservative-replan`)
/// because its fully-stateless replan is a useful semantic contrast and a
/// guard for the planning-profile machinery EASY shares.
///
/// The profile is rebuilt per react and only `Start` decisions leave it, which
/// yields two exact early exits for the saturated regime. Before building
/// anything, the **backlog index** is consulted: a job can only start now if
/// it fits the capacity free around `now`, so if no queued job is that narrow
/// the whole react is a no-op — reservations of the unexamined jobs cannot
/// change an empty output. And during the replan, once less than one
/// processor remains startable around `now`, the rest of the backlog can only
/// add reservations, so the scan stops. Both exits leave the emitted decision
/// sequence identical to the exhaustive replan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplanConservative;

impl Scheduler for ReplanConservative {
    fn name(&self) -> &str {
        "conservative-replan"
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, _event: SchedulerEvent) -> Vec<Decision> {
        let mut profile = Profile::from_running(ctx);
        // Index consult: the widest job that could possibly start now. Under
        // saturation this is < 1 processor (or matches no queued job) and the
        // react costs O(running), not O(backlog).
        let startable = (profile.free_near(ctx.now) + 1e-9).floor();
        if startable < 1.0 {
            return Vec::new();
        }
        let wide = startable.min(u32::MAX as f64) as u32;
        let cands: Vec<_> = ctx
            .queue
            .backfill_scan(wide, f64::INFINITY, 0, None)
            .collect();
        if cands.is_empty() {
            return Vec::new();
        }
        // Narrowest candidate at or after each candidate position: once even
        // that cannot fit the capacity still startable around `now` (which
        // only shrinks as reservations land), no remaining job can start —
        // the rest of the backlog would only add reservations, which cannot
        // affect this react's output.
        let mut suffix_min = vec![u32::MAX; cands.len() + 1];
        for i in (0..cands.len()).rev() {
            suffix_min[i] = cands[i].procs.min(suffix_min[i + 1]);
        }
        let mut ci = 0usize;
        let mut out = Vec::new();
        for q in ctx.queue.iter_keys() {
            let startable_now = (profile.free_near(ctx.now) + 1e-9).floor();
            if suffix_min[ci] as f64 > startable_now {
                break;
            }
            let procs = q.procs as f64;
            let duration = q.estimate.max(1.0);
            let start = profile.earliest_start(ctx.now, procs, duration);
            profile.reserve(start, duration, procs);
            if start <= ctx.now + 1e-9 {
                out.push(Decision::start(q.id));
            }
            if ci < cands.len() && cands[ci].id == q.id {
                ci += 1;
            }
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
    fn profile_earliest_start_and_reserve() {
        let steps = Profile {
            steps: vec![(0.0, 16.0), (100.0, 48.0), (200.0, 64.0)],
        };
        assert_eq!(steps.free_at(0.0), 16.0);
        assert_eq!(steps.free_at(150.0), 48.0);
        assert_eq!(steps.free_at(500.0), 64.0);
        // 32 procs for 50s: earliest at t=100
        assert_eq!(steps.earliest_start(0.0, 32.0, 50.0), 100.0);
        // 64 procs: only from 200
        assert_eq!(steps.earliest_start(0.0, 64.0, 10.0), 200.0);
        // 8 procs fits immediately
        assert_eq!(steps.earliest_start(0.0, 8.0, 1000.0), 0.0);
        let mut p = steps.clone();
        p.reserve(100.0, 50.0, 40.0);
        assert_eq!(p.free_at(120.0), 8.0);
        assert_eq!(p.free_at(160.0), 48.0);
    }

    #[test]
    fn reserve_merges_breakpoints_within_half_tolerance() {
        // A pre-existing breakpoint 0.5e-9 *before* the reservation start is
        // "the same instant" by the shared epsilon compare: no duplicate
        // breakpoint is inserted and the step is decremented, symmetrically
        // for a breakpoint 0.5e-9 *after* the start.
        for offset in [-0.5e-9, 0.5e-9] {
            let mut p = Profile {
                steps: vec![(0.0, 64.0), (100.0 + offset, 64.0)],
            };
            p.reserve(100.0, 50.0, 16.0);
            assert_eq!(
                p.steps.len(),
                3,
                "offset {offset:e}: no duplicate breakpoint"
            );
            assert_eq!(p.steps[1].1, 48.0, "offset {offset:e}: step decremented");
            assert_eq!(p.free_at(120.0), 48.0);
            assert_eq!(p.free_at(200.0), 64.0);
        }
    }

    #[test]
    fn reserve_does_not_bleed_into_distinct_earlier_breakpoint() {
        // A breakpoint exactly 1e-9 before the start is a *distinct* instant
        // by the dedup test, so a breakpoint is inserted at the start — and
        // the decrement loop must not touch the earlier step. The seed's
        // asymmetric membership test (`s.0 + 1e-9 >= start`) reduced it too,
        // understating capacity on the sliver before the reservation.
        // At start = 0 the offset 1e-9 is exactly representable, so the
        // boundary is hit deterministically: |before - start| == 1e-9 fails
        // the `< 1e-9` dedup, while the seed's membership test
        // (`before + 1e-9 >= start`) still matched.
        let before = -1e-9;
        let mut p = Profile {
            steps: vec![(before, 64.0)],
        };
        p.reserve(0.0, 50.0, 16.0);
        let pre = p.steps.iter().find(|s| s.0 == before).unwrap();
        assert_eq!(
            pre.1, 64.0,
            "distinct earlier breakpoint keeps its capacity"
        );
        let at = p.steps.iter().find(|s| s.0 == 0.0).unwrap();
        assert_eq!(at.1, 48.0);
        // Symmetric at the end boundary: a breakpoint 0.5e-9 before the end is
        // "the end" and must not be decremented.
        let mut q = Profile {
            steps: vec![(0.0, 64.0), (150.0 - 0.5e-9, 64.0)],
        };
        q.reserve(100.0, 50.0, 16.0);
        let tail = q.steps.iter().find(|s| s.0 == 150.0 - 0.5e-9).unwrap();
        assert_eq!(tail.1, 64.0, "near-end breakpoint is outside the window");
    }

    #[test]
    fn easy_backfills_short_narrow_job() {
        // Head job (64) blocked behind a 48-proc job; a 10s/8-proc job can backfill
        // because it finishes before the head's reservation.
        let js = jobs(&[(1, 0.0, 100.0, 48), (2, 1.0, 200.0, 64), (3, 2.0, 10.0, 8)]);
        let result =
            Simulation::new(SimConfig::new(64), js.clone()).run(&mut EasyBackfill::default());
        let j3 = result.finished.iter().find(|f| f.id == 3).unwrap();
        assert_eq!(j3.start, 2.0, "EASY should backfill job 3 immediately");
        // And the head job is not delayed: it starts when job 1 ends.
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(j2.start, 100.0);
        // Strict FCFS would have made job 3 wait.
        let fcfs = Simulation::new(SimConfig::new(64), js).run(&mut crate::queue_order::Fcfs);
        let j3_fcfs = fcfs.finished.iter().find(|f| f.id == 3).unwrap();
        assert!(j3_fcfs.start > 2.0);
    }

    #[test]
    fn easy_does_not_backfill_job_that_would_delay_head() {
        // A long 8-proc job would end after the head's shadow time and would eat the
        // processors the head needs -> must not be backfilled.
        let js = jobs(&[
            (1, 0.0, 100.0, 60),
            (2, 1.0, 200.0, 64),
            (3, 2.0, 1000.0, 8),
        ]);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut EasyBackfill::default());
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(j2.start, 100.0, "head must start at its reservation");
        let j3 = result.finished.iter().find(|f| f.id == 3).unwrap();
        assert!(
            j3.start >= 100.0,
            "backfill that delays the head must be refused"
        );
    }

    #[test]
    fn easy_backfills_into_extra_processors() {
        // Head needs 32 of 64; 16 procs remain free even when the head starts, so a
        // long 16-proc job may backfill into that "extra" space.
        let js = jobs(&[
            (1, 0.0, 100.0, 48),
            (2, 1.0, 200.0, 32),
            (3, 2.0, 5000.0, 16),
        ]);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut EasyBackfill::default());
        let j3 = result.finished.iter().find(|f| f.id == 3).unwrap();
        assert_eq!(j3.start, 2.0);
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(j2.start, 100.0);
    }

    #[test]
    fn easy_shadow_counts_jobs_started_in_the_same_plan() {
        // When job 1 ends at t=10, one plan starts job 2 and finds job 3
        // blocked. The shadow (t=110) comes from job 2's completion, so only
        // job 4 fits the 16 extra processors; job 5 would run past the shadow
        // on processors job 3 needs.
        let js = jobs(&[
            (1, 0.0, 10.0, 64),
            (2, 1.0, 100.0, 40),
            (3, 2.0, 200.0, 48),
            (4, 3.0, 5000.0, 16),
            (5, 4.0, 5000.0, 8),
        ]);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut EasyBackfill::default());
        let start = |id| result.finished.iter().find(|f| f.id == id).unwrap().start;
        assert_eq!(start(2), 10.0);
        assert_eq!(start(4), 10.0, "backfilled into the extra processors");
        assert_eq!(start(3), 110.0, "head starts at its shadow");
        assert!(
            start(5) >= 110.0,
            "backfill that delays the head is refused"
        );
    }

    #[test]
    fn conservative_never_delays_earlier_job() {
        // With conservative backfilling, job 3 (arrived later) must not push job 2
        // beyond the start it would get from the profile at its arrival.
        let js = jobs(&[
            (1, 0.0, 100.0, 60),
            (2, 1.0, 200.0, 64),
            (3, 2.0, 1000.0, 4),
        ]);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut ReplanConservative);
        let j2 = result.finished.iter().find(|f| f.id == 2).unwrap();
        assert_eq!(j2.start, 100.0);
    }

    #[test]
    fn conservative_backfills_when_harmless() {
        let js = jobs(&[(1, 0.0, 100.0, 48), (2, 1.0, 200.0, 64), (3, 2.0, 10.0, 8)]);
        let result = Simulation::new(SimConfig::new(64), js).run(&mut ReplanConservative);
        let j3 = result.finished.iter().find(|f| f.id == 3).unwrap();
        assert_eq!(j3.start, 2.0);
    }

    #[test]
    fn backfilling_reduces_response_time_versus_fcfs_on_a_real_workload() {
        use psbench_workload::{Lublin99, WorkloadModel};
        let log = Lublin99::default().generate(800, 1234);
        let js = SimJob::from_log(&log);
        let fcfs =
            Simulation::new(SimConfig::new(128), js.clone()).run(&mut crate::queue_order::Fcfs);
        let easy =
            Simulation::new(SimConfig::new(128), js.clone()).run(&mut EasyBackfill::default());
        let cons = Simulation::new(SimConfig::new(128), js).run(&mut ReplanConservative);
        assert_eq!(fcfs.finished.len(), 800);
        assert_eq!(easy.finished.len(), 800);
        assert_eq!(cons.finished.len(), 800);
        // The headline result of two decades of JSSPP papers: backfilling beats FCFS.
        assert!(
            easy.mean_response_time() <= fcfs.mean_response_time(),
            "easy {} vs fcfs {}",
            easy.mean_response_time(),
            fcfs.mean_response_time()
        );
        assert!(cons.mean_response_time() <= fcfs.mean_response_time());
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
            &mut EasyBackfill::default() as &mut dyn Scheduler,
            &mut ReplanConservative,
        ] {
            let result = Simulation::new(SimConfig::new(64), js.clone()).run(sched);
            assert_eq!(result.finished.len(), 200, "{}", sched.name());
            assert_eq!(result.rejected_decisions, 0, "{}", sched.name());
        }
    }
}
