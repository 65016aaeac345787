//! Cross-site dispatch policies for the sharded metasystem.
//!
//! The dispatcher runs **only on the driving thread**, at epoch boundaries,
//! over shard state that is quiescent (no shard advances mid-dispatch). All
//! four policies are therefore deterministic by construction: the same
//! arrival stream and fleet state produce the same placements for any thread
//! count.
//!
//! Least-pressure dispatch is the load-adaptive policy built on the backlog
//! index's O(1) aggregates. The dispatcher owns its pressure state:
//! [`Dispatcher::begin_epoch`] reads each site's queued-plus-running demand
//! and delivery rate once, and [`Dispatcher::pick`] adds every routed job's
//! processors to its site's routed demand and updates that site's key in a
//! min-heap of `(pressure, site)` — O(log sites) per dispatch instead of an
//! O(sites) argmin scan per job, which is the difference between 10⁹ and
//! ~10⁷ comparisons at 1,000 sites × 1M jobs. No `pick` reads or writes a
//! shard's engine, so the epoch loop can hand each shard its routed jobs
//! later, as one batch; there is no step that reports a submission back.

use crate::shard::Shard;
use crate::site::book;
use psbench_sched::StepFn;
use psbench_sim::SimJob;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// How the metascheduler routes each arriving job to a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle over the up sites (the naive baseline).
    RoundRobin,
    /// Route to the site with the least demanded-work pressure: queued,
    /// running and routed processors per unit of delivery rate, from the
    /// backlog index's O(1) aggregates through a min-heap.
    LeastPressure,
    /// Pin each user's jobs to a home site by hash (data-affinity: inputs
    /// staged where the user's previous jobs ran), falling over to the next
    /// up site only during outages.
    Affinity,
    /// Reservation-based co-allocation: search a deterministic power-of-k
    /// choice of candidate sites' advance-reservation books (each a
    /// `StepVec` of free processors) for the earliest window that holds the
    /// job, and book it on the site that offers the earliest one.
    Reserve,
}

impl DispatchPolicy {
    /// All policies, for sweeps and benches.
    pub fn all() -> &'static [DispatchPolicy] {
        &[
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastPressure,
            DispatchPolicy::Affinity,
            DispatchPolicy::Reserve,
        ]
    }

    /// Short name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastPressure => "least-pressure",
            DispatchPolicy::Affinity => "affinity",
            DispatchPolicy::Reserve => "reserve",
        }
    }

    /// Parse a CLI name (the inverse of [`DispatchPolicy::name`]).
    pub fn parse(name: &str) -> Option<DispatchPolicy> {
        DispatchPolicy::all()
            .iter()
            .copied()
            .find(|p| p.name() == name)
    }
}

/// How many candidate sites [`DispatchPolicy::Reserve`] probes per job.
const RESERVE_CHOICES: usize = 4;

/// How far after the dispatch instant a reserve window may start before the
/// candidate counts as unavailable (two weeks, the span of the analytic
/// co-allocation's hourly search).
const RESERVE_HORIZON: f64 = 14.0 * 24.0 * 3600.0;

fn splitmix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// One site's load as least-pressure dispatch sees it during an epoch.
#[derive(Debug, Clone, Copy)]
struct SiteLoad {
    /// Queued plus running processor demand at the epoch boundary:
    /// `demanded_procs as f64 + used capacity`.
    base: f64,
    /// Processors routed to the site since the boundary (each job's request
    /// clamped to the machine). They reach the engine only when the shard
    /// advances, so the engine's own aggregates cannot count them.
    routed: u64,
    /// Delivery rate: `procs as f64 * speed.max(1e-9)`.
    rate: f64,
    /// Machine size, for clamping routed requests.
    procs: u32,
}

impl SiteLoad {
    /// The pressure heap key: `(base + routed) / rate` as total-order bits
    /// (pressure is never negative, so the IEEE bit pattern orders).
    fn key(&self) -> u64 {
        ((self.base + self.routed as f64) / self.rate).to_bits()
    }
}

/// The metascheduler's routing state: one dispatcher drives one fleet.
#[derive(Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    rr: usize,
    /// Per-site load for [`DispatchPolicy::LeastPressure`], refreshed by
    /// [`Dispatcher::begin_epoch`] and charged by [`Dispatcher::pick`].
    load: Vec<SiteLoad>,
    /// Min-heap of `(pressure key, site)` with exactly one entry per up site,
    /// kept current by [`Dispatcher::pick`].
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Dispatcher {
    /// A dispatcher for the given policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher {
            policy,
            rr: 0,
            load: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// The policy this dispatcher routes by.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Refresh per-epoch routing state after the fleet advanced: read every
    /// site's queued-plus-running demand and delivery rate, clear the routed
    /// demand, and rebuild the pressure heap over the up sites. Call at every
    /// epoch boundary before dispatching; the shards' queues and running
    /// sets must not change again until the epoch's last pick.
    pub fn begin_epoch(&mut self, shards: &[Shard], down: &[bool]) {
        if self.policy == DispatchPolicy::LeastPressure {
            self.load.clear();
            self.load.extend(shards.iter().map(|shard| SiteLoad {
                base: shard.queue().demanded_procs() as f64 + shard.used_capacity(),
                routed: 0,
                rate: shard.spec.procs as f64 * shard.spec.speed.max(1e-9),
                procs: shard.spec.procs,
            }));
            self.heap.clear();
            for (i, load) in self.load.iter().enumerate() {
                if !down[i] {
                    self.heap.push(Reverse((load.key(), i as u32)));
                }
            }
        }
    }

    /// Route one job: pick an up site, record the routing (least-pressure
    /// charges the job's processors to the site; reserve books an advisory
    /// window), and return the chosen shard index — or `None` when every
    /// site is down (the caller parks the job until a site comes back).
    ///
    /// Routing never touches a shard's engine: the caller submits the job to
    /// the returned shard whenever it likes before that shard advances.
    pub fn pick(
        &mut self,
        shards: &mut [Shard],
        down: &[bool],
        job: &SimJob,
        now: f64,
    ) -> Option<usize> {
        let n = shards.len();
        if n == 0 || down.iter().all(|&d| d) {
            return None;
        }
        match self.policy {
            DispatchPolicy::RoundRobin => {
                for _ in 0..n {
                    let i = self.rr % n;
                    self.rr += 1;
                    if !down[i] {
                        return Some(i);
                    }
                }
                None
            }
            DispatchPolicy::LeastPressure => loop {
                let mut top = self
                    .heap
                    .peek_mut()
                    .expect("least-pressure picks follow begin_epoch at their boundary");
                let i = top.0 .1 as usize;
                if down[i] {
                    // Went down since the boundary: drop it until the next.
                    PeekMut::pop(top);
                    continue;
                }
                // Charge the job and sift the site's new key into place.
                let load = &mut self.load[i];
                load.routed += job.procs.min(load.procs).max(1) as u64;
                top.0 .0 = load.key();
                return Some(i);
            },
            DispatchPolicy::Affinity => {
                let key = job.user.map(|u| u as u64 + 1).unwrap_or(job.id << 1);
                let home = (splitmix64(key) % n as u64) as usize;
                (0..n).map(|d| (home + d) % n).find(|&i| !down[i])
            }
            DispatchPolicy::Reserve => {
                let mut best: Option<(u64, u32, usize)> = None;
                for c in 0..RESERVE_CHOICES {
                    let cand = (splitmix64(job.id ^ ((c as u64) << 48)) % n as u64) as usize;
                    if down[cand] {
                        continue;
                    }
                    let shard = &shards[cand];
                    let procs = job.procs.min(shard.spec.procs).max(1);
                    let dur = shard.scaled_runtime(job.estimate.max(job.work)).max(1.0);
                    let start = earliest_window(shard, now, dur, procs).unwrap_or(f64::MAX);
                    let key = (start.to_bits(), shard.spec.id, cand);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                let (start_bits, _, chosen) = best?;
                let shard = &mut shards[chosen];
                let procs = job.procs.min(shard.spec.procs).max(1);
                let dur = shard.scaled_runtime(job.estimate.max(job.work)).max(1.0);
                let start = f64::from_bits(start_bits);
                if start < f64::MAX {
                    // Advisory booking; a refused one just means the site
                    // absorbs the job through its queue like any other.
                    book(
                        &mut shard.calendar,
                        shard.spec.procs,
                        start,
                        start + dur,
                        procs,
                    );
                }
                Some(chosen)
            }
        }
    }
}

/// The earliest window at or after `from` where the shard's advance-
/// reservation book can hold `procs` processors for `dur` seconds, or `None`
/// when it would start more than [`RESERVE_HORIZON`] after `from`. The search
/// is the book's own [`StepFn::earliest_start`], so the booking's
/// [`fits`](psbench_sched::StepVec::fits) test accepts every window it offers.
fn earliest_window(shard: &Shard, from: f64, dur: f64, procs: u32) -> Option<f64> {
    let start = shard.calendar.earliest_start(from, procs as f64, dur);
    (start - from <= RESERVE_HORIZON).then_some(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{standard_shard_fleet, Shard, ShardSpec};

    fn fleet(n: usize) -> Vec<Shard> {
        standard_shard_fleet(n, "fcfs")
            .into_iter()
            .map(|s| Shard::new(s).unwrap())
            .collect()
    }

    #[test]
    fn policy_names_round_trip() {
        for p in DispatchPolicy::all() {
            assert_eq!(DispatchPolicy::parse(p.name()), Some(*p));
        }
        assert_eq!(DispatchPolicy::parse("nonsense"), None);
    }

    #[test]
    fn round_robin_cycles_and_skips_down_sites() {
        let mut shards = fleet(4);
        let mut down = vec![false; 4];
        down[1] = true;
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let job = SimJob::rigid(1, 0.0, 10.0, 8);
        let picks: Vec<usize> = (0..6)
            .map(|_| d.pick(&mut shards, &down, &job, 0.0).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn least_pressure_prefers_the_emptiest_site() {
        let mut shards = fleet(3);
        let down = vec![false; 3];
        // Load site 0 heavily: the jobs arrive, two run and the rest queue.
        for i in 0..20u64 {
            let job = SimJob::rigid(1000 + i, 0.0, 1e5, 64);
            shards[0].submit(&job, 1000 + i, 0.0).unwrap();
        }
        shards[0].advance_to(1.0);
        let mut d = Dispatcher::new(DispatchPolicy::LeastPressure);
        d.begin_epoch(&shards, &down);
        let job = SimJob::rigid(1, 0.0, 10.0, 8);
        let pick = d.pick(&mut shards, &down, &job, 0.0).unwrap();
        assert_ne!(pick, 0, "loaded site must lose");
    }

    /// The pressure a least-pressure dispatcher holds for `site`.
    fn pressure(d: &Dispatcher, site: usize) -> f64 {
        f64::from_bits(d.load[site].key())
    }

    #[test]
    fn pressure_tracks_queue_running_and_routed_demand() {
        let mut shards = vec![Shard::new(ShardSpec::new(0, 100, "fcfs")).unwrap()];
        let down = [false];
        let mut d = Dispatcher::new(DispatchPolicy::LeastPressure);
        d.begin_epoch(&shards, &down);
        assert_eq!(pressure(&d, 0), 0.0);
        // Routed this epoch: charged as routed demand, whether or not the
        // shard has been handed the job yet.
        for id in [1, 2] {
            let job = SimJob::rigid(id, 10.0, 1000.0, 60);
            assert_eq!(d.pick(&mut shards, &down, &job, 0.0), Some(0));
            shards[0].submit(&job, id, 10.0).unwrap();
        }
        assert!((pressure(&d, 0) - 1.2).abs() < 1e-9, "routed demand");
        // After the advance both arrived: one runs (used capacity), one
        // queues (backlog demanded procs), and the next boundary clears the
        // routed demand.
        shards[0].advance_to(20.0);
        assert_eq!(shards[0].running_len(), 1);
        assert_eq!(shards[0].queue_len(), 1);
        d.begin_epoch(&shards, &down);
        assert_eq!(d.load[0].routed, 0);
        assert!((pressure(&d, 0) - 1.2).abs() < 1e-9, "arrived demand");
        assert_eq!(shards[0].queue().demanded_procs(), 60);
        // A request wider than the machine is charged at the machine size.
        let wide = SimJob::rigid(3, 20.0, 10.0, 500);
        assert_eq!(d.pick(&mut shards, &down, &wide, 20.0), Some(0));
        assert!((pressure(&d, 0) - 2.2).abs() < 1e-9, "clamped demand");
    }

    #[test]
    fn least_pressure_heap_converges_under_staleness() {
        let mut shards = fleet(5);
        let mut down = vec![false; 5];
        let mut d = Dispatcher::new(DispatchPolicy::LeastPressure);
        d.begin_epoch(&shards, &down);
        // Dispatch many jobs, taking a site down behind the heap's back
        // halfway: every pick must still return an up site, and the routed
        // demand must account for every job.
        for i in 0..50u64 {
            if i == 25 {
                down[2] = true;
            }
            let job = SimJob::rigid(i + 1, 0.0, 100.0, 32);
            let pick = d.pick(&mut shards, &down, &job, 0.0).unwrap();
            assert!(!down[pick], "job {} routed to a down site", i + 1);
        }
        let routed: u64 = d.load.iter().map(|l| l.routed).sum();
        assert_eq!(routed, 50 * 32);
    }

    #[test]
    fn affinity_is_sticky_per_user() {
        let mut shards = fleet(8);
        let down = vec![false; 8];
        let mut d = Dispatcher::new(DispatchPolicy::Affinity);
        let job_a = SimJob::rigid(1, 0.0, 10.0, 4).with_user(7);
        let job_b = SimJob::rigid(2, 0.0, 10.0, 4).with_user(7);
        let a = d.pick(&mut shards, &down, &job_a, 0.0).unwrap();
        let b = d.pick(&mut shards, &down, &job_b, 0.0).unwrap();
        assert_eq!(a, b, "same user, same home site");
        // When the home site is down, the user fails over deterministically.
        let mut down2 = down.clone();
        down2[a] = true;
        let c = d.pick(&mut shards, &down2, &job_a, 0.0).unwrap();
        assert_eq!(c, (a + 1) % 8);
    }

    #[test]
    fn reserve_books_advisory_windows() {
        let mut shards = fleet(4);
        let down = vec![false; 4];
        let mut d = Dispatcher::new(DispatchPolicy::Reserve);
        for i in 0..12u64 {
            let job = SimJob::rigid(i + 1, 0.0, 5000.0, 64);
            let pick = d.pick(&mut shards, &down, &job, 0.0).unwrap();
            shards[pick].submit(&job, i + 1, 0.0).unwrap();
        }
        assert!(
            shards
                .iter()
                .any(|s| s.calendar.capacity_at(0.0) < s.spec.procs as f64),
            "reserve policy must book windows"
        );
    }

    #[test]
    fn reserve_accepts_a_window_ending_exactly_on_a_booked_breakpoint() {
        // `c + d == b` in floating point although `b - c < d`: the window
        // `[c, c + d)` ends exactly where the next full-machine booking
        // starts, so the booking accepts it. The search must offer it too,
        // not skip past the booking to `b + 3600`.
        let (c, d, b) = (159728.88888888888, 422.22222222222223, 160151.1111111111);
        assert_eq!(c + d, b);
        assert!(b - c < d);
        let mut shards = fleet(1);
        let cap = shards[0].spec.procs;
        let c0 = c - 1000.0;
        assert!(book(&mut shards[0].calendar, cap, c0, c, cap));
        assert!(book(&mut shards[0].calendar, cap, b, b + 3600.0, cap));
        assert_eq!(earliest_window(&shards[0], c0, d, 1), Some(c));
        let mut dispatcher = Dispatcher::new(DispatchPolicy::Reserve);
        let job = SimJob::rigid(1, c0, d, 1);
        assert_eq!(dispatcher.pick(&mut shards, &[false], &job, c0), Some(0));
        let booked = &shards[0].calendar;
        assert_eq!(booked.capacity_at(c), (cap - 1) as f64, "booked at c");
        assert_eq!(booked.capacity_at(b), 0.0);
    }

    /// The most processors a brute-force list of `(start, end, procs)`
    /// bookings holds at one instant of `[from, to)`: the load at `from` and
    /// at every booking edge inside the window.
    fn max_booked(booked: &[(f64, f64, u32)], from: f64, to: f64) -> u32 {
        let load = |t: f64| -> u32 {
            booked
                .iter()
                .filter(|b| b.0 <= t && t < b.1)
                .map(|b| b.2)
                .sum()
        };
        let edges = booked.iter().flat_map(|b| [b.0, b.1]);
        std::iter::once(from)
            .chain(edges.filter(|&t| from < t && t < to))
            .map(load)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn earliest_window_sweep_matches_the_calendar_oracle() {
        // Differential check against a brute-force list of booked intervals
        // on a deterministic pseudo-random book: every booking is accepted
        // exactly when the list has room, every search answer has room and
        // no earlier candidate start does, and expiries (the epoch loop's
        // `advance_to`) drop the list's finished bookings in between.
        let mut shard = fleet(1).pop().unwrap();
        let cap = shard.spec.procs;
        let mut booked: Vec<(f64, f64, u32)> = Vec::new();
        let mut now = 0.0;
        let mut h = 12345u64;
        for _ in 0..300 {
            h = splitmix64(h);
            match h % 5 {
                0 => {
                    now += ((h >> 8) % 5_000) as f64;
                    shard.calendar.advance_to(now);
                    booked.retain(|b| b.1 > now);
                }
                1 | 2 => {
                    let start = now + ((h >> 8) % 100_000) as f64;
                    let end = start + 600.0 + ((h >> 24) % 7) as f64 * 3600.0;
                    let procs = 1 + ((h >> 32) % (cap as u64 / 2)) as u32;
                    let room = max_booked(&booked, start, end) + procs <= cap;
                    assert_eq!(book(&mut shard.calendar, cap, start, end, procs), room);
                    if room {
                        booked.push((start, end, procs));
                    }
                }
                _ => {
                    let from = now + ((h >> 8) % 100_000) as f64;
                    let dur = 1_800.0 + ((h >> 24) % 5) as f64 * 3_600.0;
                    let procs = 1 + ((h >> 32) % cap as u64) as u32;
                    let t = earliest_window(&shard, from, dur, procs)
                        .expect("every booking ends within the horizon");
                    assert!(t >= from);
                    assert!(
                        max_booked(&booked, t, t + dur) + procs <= cap,
                        "window at {t} overbooks"
                    );
                    // Earliest: every candidate start before it — `from` and
                    // each booking end in between — is full.
                    let ends = booked.iter().map(|b| b.1).filter(|&e| from < e);
                    for s in std::iter::once(from).chain(ends).filter(|&s| s < t) {
                        assert!(
                            max_booked(&booked, s, s + dur) + procs > cap,
                            "earlier start {s} was free but the search chose {t}"
                        );
                    }
                }
            }
        }
        assert!(booked.len() > 20, "the book must stay busy");
    }

    #[test]
    fn all_sites_down_parks_the_job() {
        let mut shards = fleet(2);
        let down = vec![true; 2];
        for p in DispatchPolicy::all() {
            let mut d = Dispatcher::new(*p);
            d.begin_epoch(&shards, &down);
            let job = SimJob::rigid(1, 0.0, 10.0, 4);
            assert_eq!(d.pick(&mut shards, &down, &job, 0.0), None, "{}", p.name());
        }
    }
}
