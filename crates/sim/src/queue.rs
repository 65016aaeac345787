//! The engine's wait queue: arrival-ordered, with cheap mutation and
//! contiguous, already-sorted iteration.
//!
//! Scheduling policies overwhelmingly consume the queue in arrival order
//! (`(queued_at, job id)` — requeued jobs keep their original `queued_at`, so a
//! preempted job returns to its original position). The seed engine stored a
//! plain `Vec` and every policy re-sorted it on every react, which turns
//! quadratic on archive-scale traces with deep queues. [`JobQueue`] maintains
//! the order structurally instead, exploiting the engine's access pattern:
//!
//! * **arrivals append**: `queued_at` is the simulation clock, which never goes
//!   backwards, so a new arrival's key is almost always the largest yet and the
//!   job is pushed at the tail in O(1);
//! * **removals tombstone**: starting a job marks its slot dead in O(1) via an
//!   id→location map (slots never shift between compactions), with the dead
//!   prefix skipped eagerly;
//! * **out-of-order pushes go to the late set**: a push whose key is below the
//!   high-water key — an outage kill or preemption returning to its original
//!   `(queued_at, id)` position, or a same-instant closed-loop release whose
//!   id arrives out of order — is filed in an ordered side set keyed by that
//!   pair, in O(log n); no slot moves and no other job's location changes;
//! * **compaction absorbs the late set**: once tombstones plus late entries
//!   pass a quarter of the live jobs, one in-place pass drops the tombstones
//!   and merges the late set back into the slot vector back to front, so every
//!   push and removal costs amortized O(1) slot work;
//! * **iteration is a contiguous scan** over the slot vector, skipping
//!   tombstones, with the late entries merged in at their key positions until
//!   the late set is exhausted: policies consume the queue in sorted order at
//!   slice speed, no sort, no per-react allocation, and head-of-queue policies
//!   can stop early. A requeued job was queued before every job that arrived
//!   while it ran, so it usually sorts near the head and the merged prefix is
//!   short.
//!
//! ## Late-set invariants
//!
//! * The late set and the live slots are disjoint, and together hold exactly
//!   the indexed jobs; the id index names each job's home — a slot position,
//!   or the late set, where a side map gives the job's `queued_at` bits.
//! * Every late entry is filed under its own `(queued_at bits, id)` key, and
//!   no late key exceeds the high-water key, so appends above it keep the
//!   slot vector sorted and a compaction's merge yields one sorted vector.
//! * The late set is empty right after a compaction.
//!
//! # The backlog index
//!
//! Arrival-ordered iteration alone still leaves backfilling super-linear under
//! saturation: every completion-time replan walks the whole backlog even
//! though almost nothing in a deep queue can fit the freed capacity. The queue
//! therefore also maintains a **secondary index over the scheduling keys**:
//! one **treap per requested-`procs` value**, keyed by the arrival pair
//! `(queued_at, id)` and augmented with the **minimum estimate of every
//! subtree**, kept incrementally consistent with the arrival-ordered array by
//! every mutation (push/tombstone/requeue; compaction never touches it, the
//! index is keyed by job values, not slot positions). The augmentation is the
//! load-bearing part: "the next job of this width, in arrival order, whose
//! estimate fits a budget" is a single O(log n) descent — the estimate-
//! unfitting entries in between are pruned wholesale, never visited.
//!
//! [`JobQueue::backfill_scan`] consults the index to stream, **in arrival
//! order**, exactly the queued jobs that can possibly fit a capacity/estimate
//! budget, lazily and with mid-scan bound tightening, so a replan's cost
//! scales with the *viable candidates actually reached* — O(widths × log
//! backlog) plus the yields — instead of the backlog depth.
//! [`JobQueue::staircase_scan`] does the same under a per-width estimate
//! staircase.
//!
//! ## Index invariants
//!
//! * Every live queue entry appears in exactly one bucket treap — that of its
//!   requested `procs` — as `(queued_at bits, id, estimate bits)`, where
//!   "bits" is a [`f64::total_cmp`]-compatible unsigned encoding;
//!   tombstoned entries appear in no treap.
//! * Buckets are never empty: the last removal from a bucket removes the
//!   bucket itself, so a candidates query touches only `procs` values that
//!   are actually present in the backlog.
//! * Treaps are keyed by `(queued_at bits, id)` — the order of
//!   [`JobQueue::iter`] — so in-order traversal is arrival order and bucket
//!   streams merge into
//!   global arrival order without sorting; every node's `min_est` equals the
//!   exact minimum estimate bits of its subtree (checked, together with the
//!   heap property, by the debug invariants).
//! * Estimate bounds compare by **total order** (`total_cmp`), which agrees
//!   with `<=` for every pair of non-NaN estimates except the irrelevant
//!   `0.0 == -0.0` corner; callers that must reproduce an exact `<=`
//!   comparison (EASY's shadow test) re-test gathered candidates and rely on
//!   the index only never to *miss* a viable one.
//! * Treap priorities are a deterministic hash of the entry key, so tree
//!   shape (irrelevant to results, which depend only on the key order) is
//!   reproducible run to run.

use crate::job::QueuedJob;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// The compact per-job scheduling key carried alongside each queue slot: the
/// fields every queue-scanning policy (FCFS, backfilling, gang admission)
/// tests before deciding anything. Scanning these 24-byte entries instead of
/// full [`QueuedJob`]s keeps deep-queue reacts cache-resident; fetch the full
/// job via [`JobQueue::get`] once a key passes the cheap tests.
///
/// `procs == 0` never occurs for a live entry (`SimJob` clamps requests to
/// ≥ 1), so the key array uses it as its tombstone marker internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueKey {
    /// Job id (the handle for `get` and for decisions).
    pub id: u64,
    /// The user's runtime estimate in seconds.
    pub estimate: f64,
    /// Requested processors (≥ 1).
    pub procs: u32,
}

impl QueueKey {
    fn of(q: &QueuedJob) -> Self {
        QueueKey {
            id: q.job.id,
            estimate: q.job.estimate,
            procs: q.job.procs,
        }
    }

    const TOMBSTONE: QueueKey = QueueKey {
        id: 0,
        estimate: 0.0,
        procs: 0,
    };
}

/// Map a (non-NaN) time to bits whose unsigned order matches `f64::total_cmp`,
/// so queue keys order exactly like the float sort the policies used to do.
fn order_bits(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Exact inverse of [`order_bits`].
fn unorder_bits(b: u64) -> f64 {
    if b >> 63 == 1 {
        f64::from_bits(b & !(1 << 63))
    } else {
        f64::from_bits(!b)
    }
}

fn key_of(q: &QueuedJob) -> (u64, u64) {
    (order_bits(q.queued_at), q.job.id)
}

/// One backlog-index entry: `(queued_at bits, id, estimate bits)`. Arrival
/// key first, so every bucket iterates in arrival order and bucket streams
/// merge lazily without a sort; the estimate rides along for budget tests.
type IndexEntry = (u64, u64, u64);

/// A [`BackfillScan`] heap entry: an [`IndexEntry`] plus the bucket's `procs`
/// and its stream slot, min-ordered by the arrival key.
type ScanEntry = std::cmp::Reverse<(u64, u64, u64, u32, usize)>;

fn index_entry(q: &QueuedJob) -> IndexEntry {
    (
        order_bits(q.queued_at),
        q.job.id,
        order_bits(q.job.estimate),
    )
}

/// Deterministic mixer for treap priorities (splitmix64 finalizer). Seeded
/// from the entry's own key, so the tree shape — while irrelevant to any
/// result — is reproducible run to run.
fn prio_of(arr: u64, id: u64) -> u64 {
    let mut z = arr ^ id.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sentinel "no node" arena slot.
const NIL: u32 = u32::MAX;

/// One node of a bucket treap: keyed by the arrival pair `(arr, id)`, heap
/// ordered by `prio`, augmented with the minimum estimate bits of its subtree.
#[derive(Debug, Clone, Copy)]
struct TreapNode {
    arr: u64,
    id: u64,
    est: u64,
    /// min(est) over this node's whole subtree.
    min_est: u64,
    prio: u64,
    left: u32,
    right: u32,
}

/// Arena storage shared by all bucket treaps, with a free list so backlog
/// churn reuses slots instead of reallocating.
#[derive(Debug, Clone, Default)]
struct Arena {
    nodes: Vec<TreapNode>,
    free: Vec<u32>,
}

impl Arena {
    fn alloc(&mut self, (arr, id, est): IndexEntry) -> u32 {
        let node = TreapNode {
            arr,
            id,
            est,
            min_est: est,
            prio: prio_of(arr, id),
            left: NIL,
            right: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn key(&self, t: u32) -> (u64, u64) {
        let n = &self.nodes[t as usize];
        (n.arr, n.id)
    }

    /// Recompute a node's subtree minimum from its children.
    fn pull(&mut self, t: u32) {
        let (l, r) = {
            let n = &self.nodes[t as usize];
            (n.left, n.right)
        };
        let mut m = self.nodes[t as usize].est;
        if l != NIL {
            m = m.min(self.nodes[l as usize].min_est);
        }
        if r != NIL {
            m = m.min(self.nodes[r as usize].min_est);
        }
        self.nodes[t as usize].min_est = m;
    }

    /// Split into `(keys < key, keys >= key)`.
    fn split_lt(&mut self, t: u32, key: (u64, u64)) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.key(t) < key {
            let (a, b) = self.split_lt(self.nodes[t as usize].right, key);
            self.nodes[t as usize].right = a;
            self.pull(t);
            (t, b)
        } else {
            let (a, b) = self.split_lt(self.nodes[t as usize].left, key);
            self.nodes[t as usize].left = b;
            self.pull(t);
            (a, t)
        }
    }

    /// Merge two treaps where every key of `a` precedes every key of `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let m = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = m;
            self.pull(a);
            a
        } else {
            let m = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = m;
            self.pull(b);
            b
        }
    }

    /// Insert an entry (keys are unique) and return the new root.
    fn insert(&mut self, root: u32, entry: IndexEntry) -> u32 {
        let n = self.alloc(entry);
        let key = (entry.0, entry.1);
        let (l, r) = self.split_lt(root, key);
        let lr = self.merge(l, n);
        self.merge(lr, r)
    }

    /// Remove the entry with the given arrival key and return the new root.
    fn remove(&mut self, root: u32, key: (u64, u64)) -> u32 {
        if root == NIL {
            return NIL;
        }
        if self.key(root) == key {
            let (l, r) = {
                let n = &self.nodes[root as usize];
                (n.left, n.right)
            };
            self.free.push(root);
            return self.merge(l, r);
        }
        if key < self.key(root) {
            let nl = self.remove(self.nodes[root as usize].left, key);
            self.nodes[root as usize].left = nl;
        } else {
            let nr = self.remove(self.nodes[root as usize].right, key);
            self.nodes[root as usize].right = nr;
        }
        self.pull(root);
        root
    }

    /// The first entry in arrival order with key strictly greater than
    /// `after` (if given) and estimate bits at most `bound`. The `min_est`
    /// augmentation prunes subtrees with nothing inside the budget, so the
    /// query is O(depth) — this is what lets a backfill replan step through
    /// only viable candidates no matter how deep the backlog is.
    fn first_fitting(&self, t: u32, after: Option<(u64, u64)>, bound: u64) -> Option<IndexEntry> {
        if t == NIL || self.nodes[t as usize].min_est > bound {
            return None;
        }
        let n = self.nodes[t as usize];
        if after.is_some_and(|a| (n.arr, n.id) <= a) {
            // This node and its whole left subtree are at or before `after`.
            return self.first_fitting(n.right, after, bound);
        }
        if let Some(hit) = self.first_fitting(n.left, after, bound) {
            return Some(hit);
        }
        if n.est <= bound {
            return Some((n.arr, n.id, n.est));
        }
        self.first_fitting(n.right, after, bound)
    }

    /// In-order traversal of the entries after `after` with estimate bits at
    /// most `bound`, appending to `out` (debug helper; O(n)).
    #[cfg(debug_assertions)]
    fn gather(&self, t: u32, after: Option<(u64, u64)>, bound: u64, out: &mut Vec<IndexEntry>) {
        if t == NIL || self.nodes[t as usize].min_est > bound {
            return;
        }
        let n = self.nodes[t as usize];
        if after.is_some_and(|a| (n.arr, n.id) <= a) {
            return self.gather(n.right, after, bound, out);
        }
        self.gather(n.left, after, bound, out);
        if n.est <= bound {
            out.push((n.arr, n.id, n.est));
        }
        self.gather(n.right, after, bound, out);
    }

    /// Number of nodes in the subtree (debug helper; O(n)).
    #[cfg(debug_assertions)]
    fn count(&self, t: u32) -> usize {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        1 + self.count(n.left) + self.count(n.right)
    }

    /// Verify every node's `min_est` equals the true subtree minimum and the
    /// heap property holds (debug helper; O(n)).
    #[cfg(debug_assertions)]
    fn check_min_est(&self, t: u32) -> u64 {
        if t == NIL {
            return u64::MAX;
        }
        let n = &self.nodes[t as usize];
        for c in [n.left, n.right] {
            if c != NIL {
                debug_assert!(
                    self.nodes[c as usize].prio <= n.prio,
                    "treap heap property violated"
                );
            }
        }
        let want = n
            .est
            .min(self.check_min_est(n.left))
            .min(self.check_min_est(n.right));
        debug_assert_eq!(n.min_est, want, "min_est pull-up drifted");
        want
    }
}

/// The lazy arrival-ordered backlog scan behind [`JobQueue::backfill_scan`].
///
/// A k-way merge with one cursor per `procs` bucket, where a cursor step is a
/// treap successor query under the bucket's *current* estimate bound: a
/// narrow bucket (`procs <= narrow`) steps through everything, a wide-only
/// bucket steps directly from one estimate-fitting entry to the next — the
/// estimate-unfitting entries in between are pruned by the `min_est`
/// augmentation and never touched. [`BackfillScan::shrink`] tightens the
/// bounds mid-scan: buckets that fall out of both bounds are dropped, and a
/// bucket that falls out of the narrow bound starts applying the estimate
/// budget from its very next refill. Together this keeps a saturated replan's
/// cost at O(buckets x log backlog) plus the candidates actually yielded,
/// independent of the backlog depth.
#[derive(Debug)]
pub struct BackfillScan<'a> {
    arena: &'a Arena,
    /// The treap root of each contributing bucket (the bucket's `procs`
    /// travels in the heap entries).
    streams: Vec<u32>,
    /// Min-heap over `(queued_at bits, id, estimate bits, procs, stream)`.
    heap: BinaryHeap<ScanEntry>,
    wide: u32,
    narrow: u32,
    /// `order_bits` of the estimate budget; `None` means unbounded.
    est_bound: Option<u64>,
}

impl BackfillScan<'_> {
    /// Tighten the capacity bounds. Bounds may only shrink (a wider bound is
    /// ignored): the scan never revisits entries, so widening cannot be
    /// honoured.
    pub fn shrink(&mut self, wide: u32, narrow: u32) {
        self.wide = self.wide.min(wide);
        self.narrow = self.narrow.min(narrow);
    }

    /// The estimate-bits bound a bucket of width `procs` is currently subject
    /// to: unbounded while inside the narrow bound, the budget outside it.
    fn bound_for(&self, procs: u32) -> u64 {
        if procs <= self.narrow {
            u64::MAX
        } else {
            self.est_bound.unwrap_or(u64::MAX)
        }
    }
}

impl Iterator for BackfillScan<'_> {
    type Item = QueueKey;

    /// The next candidate under the current bounds, in arrival order.
    fn next(&mut self) -> Option<QueueKey> {
        while let Some(std::cmp::Reverse((arr, id, est, procs, si))) = self.heap.pop() {
            if procs > self.wide && procs > self.narrow {
                // The whole bucket is out of both bounds now; bounds only
                // shrink, so its remaining entries can never qualify.
                continue;
            }
            // Refill under the bucket's *current* estimate bound, so a bucket
            // that left the narrow bound steps straight to its next
            // estimate-fitting entry.
            let root = self.streams[si];
            if let Some((narr, nid, nest)) =
                self.arena
                    .first_fitting(root, Some((arr, id)), self.bound_for(procs))
            {
                self.heap
                    .push(std::cmp::Reverse((narr, nid, nest, procs, si)));
            }
            // The in-hand entry was queried under a (possibly) looser bound:
            // re-test it against the current one.
            if est > self.bound_for(procs) {
                continue;
            }
            return Some(QueueKey {
                id,
                estimate: unorder_bits(est),
                procs,
            });
        }
        None
    }
}

/// The lazy arrival-ordered scan behind [`JobQueue::staircase_scan`]: jobs
/// fitting a *per-width* estimate staircase.
///
/// Where [`BackfillScan`] knows two capacity bounds (narrow = any estimate,
/// wide = one shared estimate budget), this scan carries one estimate bound
/// per width range — the "how long does width `p` stay continuously free"
/// staircase a reservation calendar computes after a completion. Each bucket
/// cursor steps under its own bound via the `min_est` treap augmentation, so
/// backlog entries wider or longer than their stair are never touched.
///
/// Unlike [`BackfillScan::shrink`], the staircase may move *either way*
/// mid-scan (a conservative-backfill start both consumes capacity at `now`
/// and releases the job's far reservation, so some stairs tighten while
/// others loosen). [`StaircaseScan::rebind`] therefore rebuilds every bucket
/// cursor from just after the last yielded candidate under the new bounds —
/// candidates before that position already had their (arrival-order) turn
/// under the bounds that were current then, and are never revisited.
#[derive(Debug)]
pub struct StaircaseScan<'a> {
    queue: &'a JobQueue,
    /// The treap root of each contributing bucket (the bucket's `procs`
    /// travels in the heap entries).
    streams: Vec<u32>,
    /// Min-heap over `(queued_at bits, id, estimate bits, procs, stream)`.
    heap: BinaryHeap<ScanEntry>,
    /// `(inclusive procs upper edge, estimate-bits bound)`, ascending by
    /// procs. A width above the last edge is out of the staircase entirely.
    stairs: Vec<(u32, u64)>,
    /// `(queued_at bits, id)` of the last yielded candidate; a rebind resumes
    /// strictly after it.
    last: Option<(u64, u64)>,
}

impl StaircaseScan<'_> {
    /// The estimate-bits bound width `procs` is currently subject to, or
    /// `None` when the width is above the staircase's top edge.
    fn bound_for(&self, procs: u32) -> Option<u64> {
        let i = self.stairs.partition_point(|&(edge, _)| edge < procs);
        self.stairs.get(i).map(|&(_, b)| b)
    }

    /// Replace the staircase and rebuild every bucket cursor from just after
    /// the last yielded candidate. Call this whenever the capacity profile
    /// behind the staircase changed (in either direction); the scan position
    /// is preserved, so each queued job still gets exactly one arrival-order
    /// turn.
    pub fn rebind(&mut self, stairs: &[(u32, f64)]) {
        self.stairs = convert_stairs(stairs);
        self.streams.clear();
        self.heap.clear();
        let top = self.stairs.last().map(|&(edge, _)| edge).unwrap_or(0);
        for (&procs, &root) in self.queue.by_procs.range(..=top) {
            let i = self.stairs.partition_point(|&(edge, _)| edge < procs);
            let bound = self.stairs[i].1;
            if let Some((arr, id, est)) = self.queue.arena.first_fitting(root, self.last, bound) {
                let si = self.streams.len();
                self.heap.push(std::cmp::Reverse((arr, id, est, procs, si)));
                self.streams.push(root);
            }
        }
    }
}

impl Iterator for StaircaseScan<'_> {
    type Item = QueueKey;

    /// The next candidate under the current staircase, in arrival order.
    fn next(&mut self) -> Option<QueueKey> {
        while let Some(std::cmp::Reverse((arr, id, est, procs, si))) = self.heap.pop() {
            // Between rebinds the staircase is constant, so in-hand entries
            // always satisfy their bucket's bound; the guards are belt and
            // braces against misuse.
            let Some(bound) = self.bound_for(procs) else {
                continue;
            };
            // Refill under the bucket's current bound: the treap steps
            // straight to the next estimate-fitting entry.
            let root = self.streams[si];
            if let Some((narr, nid, nest)) =
                self.queue.arena.first_fitting(root, Some((arr, id)), bound)
            {
                self.heap
                    .push(std::cmp::Reverse((narr, nid, nest, procs, si)));
            }
            if est > bound {
                continue;
            }
            self.last = Some((arr, id));
            return Some(QueueKey {
                id,
                estimate: unorder_bits(est),
                procs,
            });
        }
        None
    }
}

/// `(procs edge, estimate bound)` stairs to bit-order bounds; a non-finite
/// bound (the calendar's "free forever at this width") admits any estimate,
/// NaN included.
fn convert_stairs(stairs: &[(u32, f64)]) -> Vec<(u32, u64)> {
    stairs
        .iter()
        .map(|&(edge, est)| {
            let bound = if est.is_finite() {
                order_bits(est)
            } else {
                u64::MAX
            };
            (edge, bound)
        })
        .collect()
}

/// The id index's value for a job in the late set; slot positions never
/// reach it, so the index stays one word per job.
const LATE: usize = usize::MAX;

/// A late-set entry: the job's compact key (what [`JobQueue::iter_keys`]
/// yields) and the job itself.
type LateEntry = (QueueKey, QueuedJob);

/// The wait queue, iterated in `(queued_at, job id)` order.
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    /// Jobs pushed in key order, with tombstones left by removals.
    slots: Vec<Option<QueuedJob>>,
    /// Compact scheduling keys, mirroring `slots` tombstone-for-tombstone
    /// (`procs == 0` marks a dead entry).
    keys: Vec<QueueKey>,
    /// Jobs pushed below the high-water key, by `(queued_at bits, id)`,
    /// until the next compaction merges them into `slots`.
    late: BTreeMap<(u64, u64), LateEntry>,
    /// Job id → its slot position (stable until a compaction), or [`LATE`].
    index: HashMap<u64, usize>,
    /// Late job id → its `queued_at` bits, the rest of its late-set key.
    late_at: HashMap<u64, u64>,
    /// The backlog index: per-`procs` bucket treaps (roots into `arena`),
    /// one entry per live job, keyed by arrival order and augmented with
    /// subtree minimum estimates (see the module docs for the invariants).
    /// Keyed by job values only, so slot compaction never has to touch it.
    by_procs: BTreeMap<u32, u32>,
    /// Node storage shared by all bucket treaps.
    arena: Arena,
    /// Total processors demanded by all live queued jobs — the O(1)
    /// aggregate behind load-adaptive cross-site dispatch.
    demanded: u64,
    /// First slot that may be live (everything before it is dead).
    head: usize,
    /// Largest key ever appended; new keys above it take the O(1) tail path,
    /// every other key goes to the late set.
    max_key: Option<(u64, u64)>,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        JobQueue::default()
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The queued jobs in `(queued_at, job id)` order — arrival order, with
    /// requeued (preempted / outage-killed) jobs back at their original
    /// position. Head-of-queue policies can stop iterating early.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.scan().map(|at| match at {
            Ok(i) => self.slots[i].as_ref().expect("scan yields live slots"),
            Err((_, q)) => q,
        })
    }

    /// The queued jobs' compact [`QueueKey`]s, in the same `(queued_at, id)`
    /// order as [`Self::iter`]. This is the fast path for policies that scan
    /// deep queues: ~3× less memory traffic than iterating full jobs.
    pub fn iter_keys(&self) -> impl Iterator<Item = &QueueKey> {
        self.scan().map(|at| match at {
            Ok(i) => &self.keys[i],
            Err((k, _)) => k,
        })
    }

    /// The arrival-order scan behind [`Self::iter`] and [`Self::iter_keys`]:
    /// the live slots from `head`, with the late set merged in at its key
    /// positions. Yields `Ok(slot position)` or `Err(late entry)`; once the
    /// late set is exhausted every step is a plain tombstone-skipping slice
    /// step.
    fn scan(&self) -> impl Iterator<Item = Result<usize, &LateEntry>> {
        let mut late = self.late.iter().peekable();
        let mut pos = self.head;
        std::iter::from_fn(move || {
            while self.keys.get(pos).is_some_and(|k| k.procs == 0) {
                pos += 1;
            }
            if let Some(&(&late_key, entry)) = late.peek() {
                let slot_first = self
                    .slots
                    .get(pos)
                    .and_then(Option::as_ref)
                    .is_some_and(|q| key_of(q) < late_key);
                if !slot_first {
                    late.next();
                    return Some(Err(entry));
                }
            }
            (pos < self.keys.len()).then(|| {
                pos += 1;
                Ok(pos - 1)
            })
        })
    }

    /// Look up a queued job by id: O(1) for a slot, O(log n) for a late
    /// entry.
    pub fn get(&self, id: u64) -> Option<&QueuedJob> {
        match *self.index.get(&id)? {
            LATE => {
                let arr = *self.late_at.get(&id)?;
                self.late.get(&(arr, id)).map(|(_, q)| q)
            }
            i => self.slots[i].as_ref(),
        }
    }

    /// Total processors demanded by all queued jobs, O(1). Maintained
    /// incrementally at the push/remove mutation points, this is the backlog
    /// "pressure" aggregate that load-adaptive metaschedulers route by
    /// without scanning the queue.
    pub fn demanded_procs(&self) -> u64 {
        self.demanded
    }

    /// A **lazy** arrival-ordered merge over the backlog index's bucket
    /// streams, for the backfilling hot loop: candidates with
    /// `procs <= narrow` (any estimate) or `procs <= wide` and estimate at
    /// most `wide_max_estimate` (by total order), after the exclusive
    /// `(queued_at, id)` position `after`.
    ///
    /// Nothing is collected up front: the consumer pulls candidates one at a
    /// time (the scan is an [`Iterator`]) and may tighten the capacity bounds
    /// with [`BackfillScan::shrink`] as it commits processors, which drops
    /// the bucket streams that can no longer produce a viable job. A
    /// saturated replan that starts only a few jobs therefore touches only a
    /// few index entries per width, not the whole backlog.
    pub fn backfill_scan(
        &self,
        wide_procs: u32,
        wide_max_estimate: f64,
        narrow_procs: u32,
        after: Option<(f64, u64)>,
    ) -> BackfillScan<'_> {
        let after_key = after.map(|(t, id)| (order_bits(t), id));
        let est_bound = wide_max_estimate
            .is_finite()
            .then(|| order_bits(wide_max_estimate));
        let mut streams = Vec::new();
        let mut heap = BinaryHeap::new();
        for (&procs, &root) in self.by_procs.range(..=wide_procs.max(narrow_procs)) {
            // A bucket inside the narrow bound streams whole; a wide-only
            // bucket streams only its estimate-budget subset — in both cases
            // one treap query per step, never a materialized list.
            let bound = match est_bound {
                Some(b) if procs > narrow_procs => b,
                _ => u64::MAX,
            };
            if let Some((arr, id, est)) = self.arena.first_fitting(root, after_key, bound) {
                let si = streams.len();
                heap.push(std::cmp::Reverse((arr, id, est, procs, si)));
                streams.push(root);
            }
        }
        BackfillScan {
            arena: &self.arena,
            streams,
            heap,
            wide: wide_procs,
            narrow: narrow_procs,
            est_bound,
        }
    }

    /// A lazy arrival-ordered merge over the backlog index's bucket streams
    /// under a **per-width estimate staircase**: `stairs` is a list of
    /// `(inclusive procs upper edge, max estimate)` pairs, ascending by
    /// procs, and a job with width `p` qualifies when its estimate is at most
    /// (by total order) the bound of the first stair whose edge is `>= p`.
    /// Pass a non-finite bound for "any estimate at this width". Widths above
    /// the last edge never qualify.
    ///
    /// This is the candidate query for a conservative-backfill compression
    /// pass: the staircase is the calendar's run-length profile ("width `p`
    /// stays free for `L(p)` seconds from now"), and a queued job can start
    /// immediately iff it fits its stair. Consumers re-test each candidate
    /// against the *fresh* profile as starts commit and release capacity,
    /// rebuilding the cursors via [`StaircaseScan::rebind`]; the index only
    /// guarantees that no job satisfying the current staircase and sitting
    /// after the scan position is missing. Cost is one O(log backlog) treap
    /// step per candidate yielded plus one per contributing bucket per
    /// (re)bind — entries outside their stair are pruned by the `min_est`
    /// augmentation and never touched.
    pub fn staircase_scan(&self, stairs: &[(u32, f64)]) -> StaircaseScan<'_> {
        let mut scan = StaircaseScan {
            queue: self,
            streams: Vec::new(),
            heap: BinaryHeap::new(),
            stairs: Vec::new(),
            last: None,
        };
        scan.rebind(stairs);
        scan
    }

    /// Insert a job (ids must be unique within the queue). O(log n): a key
    /// above the high-water key (arrival order, the overwhelmingly common
    /// case) appends to the slot vector in amortized O(1); any other key — a
    /// requeue returning to its original position, or an out-of-order
    /// same-instant release — is filed in the late set in O(log n), where it
    /// stays until a compaction merges it into the slots. Either way the
    /// backlog index takes its O(log n) insert.
    pub(crate) fn push(&mut self, q: QueuedJob) {
        let procs = q.job.procs;
        self.demanded += procs as u64;
        let root = self.by_procs.get(&procs).copied().unwrap_or(NIL);
        let root = self.arena.insert(root, index_entry(&q));
        self.by_procs.insert(procs, root);
        let key = key_of(&q);
        if self.max_key.is_none_or(|m| key > m) {
            self.max_key = Some(key);
            self.index.insert(q.job.id, self.slots.len());
            self.keys.push(QueueKey::of(&q));
            self.slots.push(Some(q));
        } else {
            self.index.insert(q.job.id, LATE);
            self.late_at.insert(q.job.id, key.0);
            self.late.insert(key, (QueueKey::of(&q), q));
            self.compact_if_loose();
        }
    }

    /// Remove a job by id. O(log n) amortized (tombstone or late-set removal
    /// plus backlog-index removal plus occasional compaction).
    pub(crate) fn remove(&mut self, id: u64) -> Option<QueuedJob> {
        let q = match self.index.remove(&id)? {
            LATE => {
                let arr = self.late_at.remove(&id).expect("late jobs have a late key");
                self.late.remove(&(arr, id)).map(|(_, q)| q)
            }
            i => {
                self.keys[i] = QueueKey::TOMBSTONE;
                let q = self.slots[i].take();
                while self.head < self.slots.len() && self.slots[self.head].is_none() {
                    self.head += 1;
                }
                q
            }
        };
        if let Some(job) = &q {
            let procs = job.job.procs;
            self.demanded -= procs as u64;
            if let Some(&root) = self.by_procs.get(&procs) {
                let (arr, jid, _) = index_entry(job);
                let root = self.arena.remove(root, (arr, jid));
                if root == NIL {
                    self.by_procs.remove(&procs);
                } else {
                    self.by_procs.insert(procs, root);
                }
            }
        }
        self.compact_if_loose();
        q
    }

    /// Keep scans tight: iteration cost grows with the tombstones and late
    /// entries it passes, so compact once those pass a quarter of the live
    /// population (plus a small floor, so tiny queues do not thrash).
    fn compact_if_loose(&mut self) {
        let live = self.index.len();
        let dead = self.slots.len() - self.head - (live - self.late.len());
        if dead + self.late.len() > live / 4 + 32 {
            self.compact();
        }
    }

    /// Drop tombstones, merge the late set into the slot vector, and rebuild
    /// the id→slot map. In place: the live slots slide to the front, the
    /// vector grows by the late set's size, and a back-to-front merge moves
    /// each slot at most once more — no second slot vector is built.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.keys.retain(|k| k.procs != 0);
        self.head = 0;
        let late = std::mem::take(&mut self.late);
        self.late_at.clear();
        // `unmerged` slots at the front are still in place; everything from
        // `w` up is final.
        let mut unmerged = self.slots.len();
        let mut w = unmerged + late.len();
        self.slots.resize_with(w, || None);
        self.keys.resize(w, QueueKey::TOMBSTONE);
        for (key, (k, q)) in late.into_iter().rev() {
            while unmerged > 0
                && self.slots[unmerged - 1]
                    .as_ref()
                    .is_some_and(|s| key_of(s) > key)
            {
                unmerged -= 1;
                w -= 1;
                self.slots.swap(unmerged, w);
                self.keys.swap(unmerged, w);
            }
            w -= 1;
            self.slots[w] = Some(q);
            self.keys[w] = k;
        }
        self.index.clear();
        for (i, s) in self.slots.iter().enumerate() {
            self.index.insert(s.as_ref().expect("compacted").job.id, i);
        }
    }

    #[cfg(debug_assertions)]
    pub(crate) fn check_invariants(&self) {
        debug_assert!(self.slots[..self.head].iter().all(Option::is_none));
        debug_assert_eq!(self.slots.len(), self.keys.len());
        let live: Vec<&QueuedJob> = self.iter().collect();
        debug_assert_eq!(live.len(), self.index.len());
        for w in live.windows(2) {
            debug_assert!(key_of(w[0]) < key_of(w[1]), "queue out of order");
        }
        let live_slots = self.slots.iter().flatten().count();
        debug_assert_eq!(
            live_slots + self.late.len(),
            self.index.len(),
            "late set and slots overlap or drifted from the index"
        );
        for (id, &i) in &self.index {
            let home = match i {
                LATE => self.late.get(&(self.late_at[id], *id)).map(|(_, q)| q),
                i => self.slots[i].as_ref(),
            };
            debug_assert_eq!(home.map(|q| q.job.id), Some(*id), "index points astray");
        }
        // Late-set invariants: sorted by each entry's own key, below the
        // high-water key, and every late job indexed as late.
        debug_assert_eq!(self.late_at.len(), self.late.len(), "stale late keys");
        for (&key, (k, q)) in &self.late {
            debug_assert_eq!(key, key_of(q), "late entry filed under a foreign key");
            debug_assert_eq!(*k, QueueKey::of(q), "late key out of sync with its job");
            debug_assert!(
                self.max_key.is_some_and(|m| key <= m),
                "late key above the high-water key"
            );
            debug_assert_eq!(
                (self.index.get(&q.job.id), self.late_at.get(&q.job.id)),
                (Some(&LATE), Some(&key.0)),
                "late job not indexed as late"
            );
        }
        for (s, k) in self.slots.iter().zip(self.keys.iter()) {
            debug_assert_eq!(
                s.as_ref().map(QueueKey::of).unwrap_or(QueueKey::TOMBSTONE),
                *k,
                "keys out of sync with slots"
            );
        }
        // Backlog-index invariants: one treap entry per live job in its
        // procs bucket, no stale entries, no empty buckets, exact min_est
        // pull-ups, arrival-sorted in-order traversal.
        let indexed: usize = self
            .by_procs
            .values()
            .map(|&root| self.arena.count(root))
            .sum();
        debug_assert_eq!(indexed, self.index.len(), "backlog index size drifted");
        let live_demand: u64 = live.iter().map(|q| q.job.procs as u64).sum();
        debug_assert_eq!(
            self.demanded, live_demand,
            "demanded-procs aggregate drifted"
        );
        debug_assert!(
            self.by_procs.values().all(|&root| root != NIL),
            "empty backlog-index bucket retained"
        );
        for (&procs, &root) in &self.by_procs {
            let mut entries = Vec::new();
            self.arena.gather(root, None, u64::MAX, &mut entries);
            debug_assert!(
                entries
                    .windows(2)
                    .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
                "bucket {procs} treap out of arrival order"
            );
            let min = entries.iter().map(|e| e.2).min().unwrap_or(u64::MAX);
            debug_assert_eq!(
                self.arena.nodes[root as usize].min_est, min,
                "bucket {procs} min_est drifted"
            );
            self.arena.check_min_est(root);
        }
        for q in self.iter() {
            let (arr, jid, est) = index_entry(q);
            debug_assert!(
                self.by_procs.get(&q.job.procs).is_some_and(|&root| {
                    let mut hits = Vec::new();
                    self.arena.gather(root, None, u64::MAX, &mut hits);
                    hits.contains(&(arr, jid, est))
                }),
                "job {} missing from the backlog index",
                q.job.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SimJob;

    fn queued(id: u64, queued_at: f64) -> QueuedJob {
        QueuedJob {
            job: SimJob::rigid(id, queued_at, 100.0, 4),
            queued_at,
            restarts: 0,
            first_started_at: None,
        }
    }

    fn ids(q: &JobQueue) -> Vec<u64> {
        q.iter().map(|j| j.job.id).collect()
    }

    #[test]
    fn demand_aggregates_track_push_and_remove() {
        let mut q = JobQueue::new();
        assert_eq!(q.demanded_procs(), 0);
        let widths = [4u32, 16, 4, 1, 16, 16, 64];
        for (i, &w) in widths.iter().enumerate() {
            let t = i as f64;
            q.push(QueuedJob {
                job: SimJob::rigid(i as u64 + 1, t, 100.0, w),
                queued_at: t,
                restarts: 0,
                first_started_at: None,
            });
        }
        assert_eq!(q.demanded_procs(), 4 + 16 + 4 + 1 + 16 + 16 + 64);
        q.check_invariants();
        // Removals (including a double-remove no-op) keep the aggregate exact.
        assert!(q.remove(7).is_some()); // the 64-wide job
        assert!(q.remove(7).is_none());
        assert!(q.remove(4).is_some()); // the 1-wide job
        assert_eq!(q.demanded_procs(), 4 + 16 + 4 + 16 + 16);
        q.check_invariants();
        // Drain completely: back to zero.
        for id in [1u64, 2, 3, 5, 6] {
            assert!(q.remove(id).is_some());
        }
        assert_eq!(q.demanded_procs(), 0);
        q.check_invariants();
    }

    #[test]
    fn iterates_in_queued_at_then_id_order() {
        let mut q = JobQueue::new();
        q.push(queued(5, 10.0));
        q.push(queued(2, 10.0)); // same time, lower id: goes to the late set
        q.push(queued(9, 0.5)); // earlier time: late set
        q.push(queued(1, 20.0));
        assert_eq!(ids(&q), vec![9, 2, 5, 1]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn requeued_job_returns_to_original_position() {
        let mut q = JobQueue::new();
        q.push(queued(1, 0.0));
        q.push(queued(2, 5.0));
        q.push(queued(3, 10.0));
        // Job 1 starts, runs, and is preempted: it re-enters with its original
        // queued_at and must come back to the head.
        let j1 = q.remove(1).unwrap();
        assert_eq!(q.iter().next().unwrap().job.id, 2);
        q.push(j1);
        assert_eq!(ids(&q), vec![1, 2, 3]);
    }

    #[test]
    fn get_and_remove_by_id() {
        let mut q = JobQueue::new();
        q.push(queued(7, 3.0));
        assert_eq!(q.get(7).unwrap().queued_at, 3.0);
        assert!(q.get(8).is_none());
        assert!(q.remove(8).is_none());
        let j = q.remove(7).unwrap();
        assert_eq!(j.job.id, 7);
        assert!(q.is_empty());
    }

    #[test]
    fn tombstones_compact_and_order_survives() {
        let mut q = JobQueue::new();
        for i in 0..200u64 {
            q.push(queued(i + 1, i as f64));
        }
        // Remove most of the middle, triggering compactions along the way.
        for i in (10..190u64).rev() {
            assert!(q.remove(i + 1).is_some());
        }
        q.check_invariants();
        let got = ids(&q);
        let want: Vec<u64> = (1..=10).chain(191..=200).collect();
        assert_eq!(got, want);
        // A requeue lands back in the middle of the survivors.
        q.push(queued(100, 99.0));
        assert_eq!(q.iter().nth(10).unwrap().job.id, 100);
        q.check_invariants();
    }

    #[test]
    fn order_bits_matches_total_cmp() {
        let vals = [0.0, -0.0, 0.5, 1.0, -1.0, 1e9, f64::INFINITY, -3.25];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    order_bits(a).cmp(&order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn order_bits_round_trips() {
        for v in [0.0, -0.0, 1.5, -2.25, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(unorder_bits(order_bits(v)).to_bits(), v.to_bits());
        }
        let nan_bits = unorder_bits(order_bits(f64::NAN));
        assert!(nan_bits.is_nan());
    }

    fn queued_with(id: u64, queued_at: f64, procs: u32, estimate: f64) -> QueuedJob {
        QueuedJob {
            job: SimJob::rigid(id, queued_at, 100.0, procs).with_estimate(estimate),
            queued_at,
            restarts: 0,
            first_started_at: None,
        }
    }

    /// Ids of a backfill scan that never tightens its bounds.
    fn scan_ids(
        q: &JobQueue,
        wide: u32,
        est: f64,
        narrow: u32,
        after: Option<(f64, u64)>,
    ) -> Vec<u64> {
        q.backfill_scan(wide, est, narrow, after)
            .map(|k| k.id)
            .collect()
    }

    #[test]
    fn backfill_scan_prunes_by_procs_and_estimate() {
        let mut q = JobQueue::new();
        q.push(queued_with(1, 0.0, 4, 50.0));
        q.push(queued_with(2, 1.0, 16, 10.0));
        q.push(queued_with(3, 2.0, 4, 500.0));
        q.push(queued_with(4, 3.0, 32, 10.0));
        q.push(queued_with(5, 4.0, 1, 1000.0));
        // Capacity only: everything at or under 16 procs, arrival order.
        assert_eq!(scan_ids(&q, 16, f64::INFINITY, 0, None), vec![1, 2, 3, 5]);
        // Capacity + estimate budget.
        assert_eq!(scan_ids(&q, 16, 50.0, 0, None), vec![1, 2]);
        // Keys carry the exact estimate and procs back out of the index.
        let keys: Vec<QueueKey> = q.backfill_scan(4, f64::INFINITY, 0, None).collect();
        assert_eq!(keys[0].estimate, 50.0);
        assert_eq!(keys[2].procs, 1);
    }

    #[test]
    fn backfill_scan_unions_and_skips_prefix() {
        let mut q = JobQueue::new();
        q.push(queued_with(1, 0.0, 2, 999.0)); // narrow, long
        q.push(queued_with(2, 1.0, 8, 20.0)); // wide, short
        q.push(queued_with(3, 2.0, 8, 999.0)); // wide, long: excluded
        q.push(queued_with(4, 3.0, 2, 5.0)); // narrow and short
        assert_eq!(scan_ids(&q, 8, 50.0, 2, None), vec![1, 2, 4]);
        // Skip everything at or before job 2's arrival position.
        assert_eq!(scan_ids(&q, 8, 50.0, 2, Some((1.0, 2))), vec![4]);
    }

    /// The model the index must agree with: a plain filtered scan of the
    /// arrival-ordered queue, with estimate bounds compared by total order.
    fn filtered_scan(
        q: &JobQueue,
        wide: u32,
        wide_est: f64,
        narrow: u32,
        after: Option<(f64, u64)>,
    ) -> Vec<u64> {
        q.iter()
            .filter(|j| {
                after
                    .is_none_or(|(t, id)| (order_bits(j.queued_at), j.job.id) > (order_bits(t), id))
            })
            .filter(|j| {
                let est_ok = !wide_est.is_finite()
                    || j.job.estimate.total_cmp(&wide_est) != std::cmp::Ordering::Greater;
                j.job.procs <= narrow || (j.job.procs <= wide && est_ok)
            })
            .map(|j| j.job.id)
            .collect()
    }

    proptest::proptest! {
        /// Queue integrity under requeue-heavy churn: after every push,
        /// tombstoning removal, requeue (a re-push at an old queued_at, which
        /// lands in the late set) and the compactions they trigger — many of
        /// which absorb a non-empty late set — `iter`, `iter_keys` and `get`
        /// agree with a sorted-map model, and every backfill scan (without
        /// tightening) yields exactly the filtered arrival-order scan.
        #[test]
        fn candidates_match_filtered_scan_under_churn(
            ops in proptest::collection::vec(
                (0u8..8, 0u32..40, 1u32..24, 0u32..600, 0u32..1000),
                1..300,
            ),
            queries in proptest::collection::vec(
                (0u32..26, 0u32..700, 0u32..26, 0u8..2),
                1..6,
            ),
        ) {
            let mut q = JobQueue::new();
            let mut model: BTreeMap<(u64, u64), QueuedJob> = BTreeMap::new();
            let mut clock = 0.0f64;
            let mut next_id = 1u64;
            let mut removed: Vec<QueuedJob> = Vec::new();
            for (op, dt, procs, est, pick) in ops {
                match op {
                    // Arrival: monotone queued_at, fresh id.
                    0..=2 => {
                        clock += dt as f64 / 8.0;
                        let j = queued_with(next_id, clock, procs, est as f64 / 4.0);
                        model.insert(key_of(&j), j.clone());
                        q.push(j);
                        next_id += 1;
                    }
                    // Tombstoning removal of some live job, slot or late.
                    3 | 4 => {
                        let live: Vec<u64> = q.iter().map(|j| j.job.id).collect();
                        if !live.is_empty() {
                            let id = live[pick as usize % live.len()];
                            let j = q.remove(id).unwrap();
                            model.remove(&key_of(&j));
                            removed.push(j);
                        }
                    }
                    // Requeue: a previously removed job returns at its
                    // original (old) queued_at — the late-set path.
                    _ => {
                        if !removed.is_empty() {
                            let j = removed.swap_remove(pick as usize % removed.len());
                            model.insert(key_of(&j), j.clone());
                            q.push(j);
                        }
                    }
                }
                q.check_invariants();
                let want: Vec<&QueuedJob> = model.values().collect();
                proptest::prop_assert_eq!(q.iter().collect::<Vec<_>>(), want);
                let want_keys: Vec<QueueKey> = model.values().map(QueueKey::of).collect();
                proptest::prop_assert_eq!(q.iter_keys().copied().collect::<Vec<_>>(), want_keys);
                for j in model.values() {
                    proptest::prop_assert_eq!(q.get(j.job.id), Some(j));
                }
                proptest::prop_assert_eq!(q.len(), model.len());
            }
            for (wide, est_num, narrow, bounded) in queries {
                let wide_est = if bounded == 1 {
                    est_num as f64 / 4.0
                } else {
                    f64::INFINITY
                };
                let after = q.iter().next().map(|j| (j.queued_at, j.job.id));
                for after in [None, after] {
                    proptest::prop_assert_eq!(
                        scan_ids(&q, wide, wide_est, narrow, after),
                        filtered_scan(&q, wide, wide_est, narrow, after)
                    );
                }
                // The single-budget query is the narrow = 0 special case.
                proptest::prop_assert_eq!(
                    scan_ids(&q, wide, wide_est, 0, None),
                    filtered_scan(&q, wide, wide_est, 0, None)
                );
            }
        }
    }
}
