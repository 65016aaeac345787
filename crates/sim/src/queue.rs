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
//! one **run per requested-`procs` value**, a flat vector of that width's
//! queued jobs as `(queued_at, id, estimate)` entries in arrival order, cut
//! into blocks of 32 entries that each carry a live mask and the minimum
//! estimate of their live entries. Every mutation keeps it consistent with
//! the arrival-ordered array (compaction of the slots never touches it: the
//! index is keyed by job values, not slot positions):
//!
//! * **an arrival appends** to its run in O(1), as it appends to the slots;
//! * **a removal tombstones**: a binary search finds the entry, its live bit
//!   clears, and its block's minimum is recomputed (at most 32 entries) only
//!   if the entry held it; once a run's tombstones outnumber its live entries
//!   by more than a block, one pass local to that run drops them;
//! * **a requeue returns to its arrival position**: a binary search finds
//!   it, and while the job's own tombstone is still there (its run has not
//!   compacted since the job left) the tombstone is revived in O(1);
//!   otherwise a memmove of the run's tail makes room, shifting the live
//!   masks one place and updating the minima of the blocks it crosses.
//!
//! The block minima are the load-bearing part: "the next job of this width,
//! in arrival order, whose estimate fits a budget" is a binary search to the
//! position plus a walk that skips every block whose minimum exceeds the
//! budget — 32 estimate-unfitting entries per read, never visited one by one.
//!
//! [`JobQueue::staircase_scan`] consults the index to stream, **in arrival
//! order**, exactly the queued jobs that fit a per-width estimate staircase
//! — `(procs edge, estimate bound)` pairs, ascending — lazily and with the
//! staircase moving mid-scan, so a replan's cost scales with the *viable
//! candidates actually reached* instead of the backlog depth. It is the one
//! backlog query: a backfill pass is the two-stair staircase `[(narrow, any
//! estimate), (wide, the shadow budget)]` and tightens it as it commits
//! processors ([`StaircaseScan::tighten`]); a conservative starter pass
//! hands in the calendar's free-run staircase and reseeds it after every
//! start ([`StaircaseScan::rebind`]).
//!
//! ## The width table and what a scan costs
//!
//! The runs live in one vector sorted by `procs`, the **width table**.
//! Besides its entries, each run caches its minimum estimate and its first
//! live entry, both maintained by every push and removal. A scan walks the
//! table's prefix up to the staircase's top edge alongside the stairs (both
//! ascending) and seeds one stream per run that can contribute:
//!
//! * a run whose min-estimate exceeds its estimate bound is rejected
//!   without touching its entries;
//! * a run whose cached first entry lies after the scan position and fits
//!   its bound — every narrow run whose first job is behind the position,
//!   the common case — is seeded from that entry in O(1);
//! * any other run costs a block walk, after a binary search to the scan
//!   position if its first entry lies at or before it.
//!
//! The seeded streams (a handful even under saturation) are merged by a
//! linear pick of the smallest head, not a heap. A stream keeps its head's
//! position in the run, so a refill is a block walk onward from there under
//! the stream's current bound, with no search; and it happens only when the
//! next candidate is pulled, so a run the consumer has meanwhile dropped
//! ([`StaircaseScan::tighten`]) or a scan the consumer abandons costs no
//! walk. A scan therefore costs one table read per width up to its top edge,
//! a walk per run that cannot answer from its cache, and a walk per
//! candidate yielded; a [`StaircaseScan::rebind`] costs what seeding a fresh
//! scan at the last yielded position does. The stream vector belongs to the
//! queue: each scan borrows it and hands it back when dropped, so scans stop
//! allocating once it has grown to the most streams a scan has seeded.
//!
//! ## Index invariants
//!
//! * Every live queue entry is live in exactly one run — that of its
//!   requested `procs` — as `(queued_at bits, id, estimate bits)`, where
//!   "bits" is a [`f64::total_cmp`]-compatible unsigned encoding. A
//!   tombstone keeps its entry, so the run stays sorted for the binary
//!   search, and is marked only by the clear bit in its block's live mask:
//!   no estimate, NaN included, can pass for one.
//! * Runs are never empty: the last removal from a run removes the run
//!   itself, so a scan touches only `procs` values actually present in the
//!   backlog. The width table is sorted by `procs`.
//! * A run's entries, tombstones included, strictly ascend by `(queued_at
//!   bits, id)` — the order of [`JobQueue::iter`] — so run streams merge
//!   into global arrival order without sorting.
//! * Each block's minimum is the exact minimum estimate bits of its live
//!   entries (`u64::MAX` if it has none); each run's live count, cached
//!   min-estimate and cached first entry (with its position) are exact, and
//!   its tombstones never outnumber its live entries by more than a block
//!   (all checked by the debug invariants).
//! * Estimate bounds compare by **total order** (`total_cmp`), which agrees
//!   with `<=` for every pair of non-NaN estimates except the irrelevant
//!   `0.0 == -0.0` corner; callers that must reproduce an exact `<=`
//!   comparison (EASY's shadow test) re-test gathered candidates and rely on
//!   the index only never to *miss* a viable one.

use crate::idhash::IdMap;
use crate::job::QueuedJob;
use std::cell::RefCell;
use std::collections::BTreeMap;

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
/// key first, so every run is in arrival order and run streams merge lazily
/// without a sort; the estimate rides along for budget tests.
type IndexEntry = (u64, u64, u64);

/// The arrival key `(queued_at bits, id)` of an index entry.
fn arrival_key(e: IndexEntry) -> (u64, u64) {
    (e.0, e.1)
}

fn index_entry(q: &QueuedJob) -> IndexEntry {
    (
        order_bits(q.queued_at),
        q.job.id,
        order_bits(q.job.estimate),
    )
}

/// Entries per run block (the width of a block's live mask).
const BLOCK: usize = 32;

/// The summary of one block of a run's entries.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Bit `j` is set when entry `j` of the block is live; a clear bit is a
    /// tombstone, or a position past the run's end.
    live: u32,
    /// The smallest estimate bits among the block's live entries
    /// (`u64::MAX` when it has none).
    min_est: u64,
}

/// The positions of the set bits of a live mask, ascending.
fn live_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Every queued job of one requested width: one entry of the width table.
/// Besides its arrival-ordered entries, a run caches what a scan asks of it
/// first, so seeding a run rarely touches its entries.
#[derive(Debug, Clone)]
struct Run {
    procs: u32,
    /// The smallest estimate bits among the live entries.
    min_est: u64,
    /// The first live entry in arrival order.
    first: IndexEntry,
    /// `first`'s position in `entries`; every entry before it is a tombstone.
    head: usize,
    /// Live entries (never 0: an emptied run leaves the table).
    live: usize,
    /// The entries, tombstones included, in arrival order.
    entries: Vec<IndexEntry>,
    /// One summary per [`BLOCK`] entries.
    blocks: Vec<Block>,
}

impl Run {
    fn new(procs: u32, e: IndexEntry) -> Run {
        Run {
            procs,
            min_est: e.2,
            first: e,
            head: 0,
            live: 1,
            entries: vec![e],
            blocks: vec![Block {
                live: 1,
                min_est: e.2,
            }],
        }
    }

    /// The smallest estimate bits among block `b`'s entries in `live`.
    fn block_min(&self, b: usize, live: u32) -> u64 {
        live_bits(live)
            .map(|j| self.entries[b * BLOCK + j].2)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The first live entry at position `from` or later whose estimate bits
    /// are at most `bound`, with its position: a walk that skips every block
    /// whose minimum exceeds the bound and, inside a block, every tombstone.
    fn fitting_from(&self, from: usize, bound: u64) -> Option<(usize, IndexEntry)> {
        let mut b = from / BLOCK;
        let mut mask = self.blocks.get(b)?.live & (!0 << (from % BLOCK));
        loop {
            if self.blocks[b].min_est <= bound {
                for j in live_bits(mask) {
                    let e = self.entries[b * BLOCK + j];
                    if e.2 <= bound {
                        return Some((b * BLOCK + j, e));
                    }
                }
            }
            b += 1;
            mask = self.blocks.get(b)?.live;
        }
    }

    /// The first live entry after `after` (if given) whose estimate bits are
    /// at most `bound`, with its position. O(1) when the run's min-estimate
    /// already exceeds the bound or its cached first entry qualifies;
    /// otherwise a block walk, after a binary search if `after` lies past
    /// the first entry.
    fn first_fitting(&self, after: Option<(u64, u64)>, bound: u64) -> Option<(usize, IndexEntry)> {
        if self.min_est > bound {
            return None;
        }
        let from = match after {
            Some(a) if arrival_key(self.first) <= a => {
                self.head + self.entries[self.head..].partition_point(|&e| arrival_key(e) <= a)
            }
            _ if self.first.2 <= bound => return Some((self.head, self.first)),
            _ => self.head + 1,
        };
        self.fitting_from(from, bound)
    }

    /// Insert an entry whose arrival key no live entry has. O(1) when it
    /// sorts last, as arrivals do, or when it finds its own tombstone, as a
    /// job requeued before the run compacted does; otherwise a binary search
    /// and a memmove of the tail, whose live bits shift one place with it,
    /// block by block.
    fn insert(&mut self, e: IndexEntry) {
        let key = arrival_key(e);
        let at = match self.entries.last() {
            Some(&last) if arrival_key(last) >= key => {
                self.entries.partition_point(|&x| arrival_key(x) < key)
            }
            _ => self.entries.len(),
        };
        if self.entries.get(at).is_some_and(|&x| arrival_key(x) == key) {
            self.entries[at] = e;
            let b = &mut self.blocks[at / BLOCK];
            b.live |= 1 << (at % BLOCK);
            b.min_est = b.min_est.min(e.2);
        } else {
            self.shift_in(at, e);
        }
        self.live += 1;
        self.min_est = self.min_est.min(e.2);
        if at <= self.head {
            self.head = at;
            self.first = e;
        }
    }

    /// Insert `e` at position `at`, moving the entries from there up one
    /// place together with their live bits.
    fn shift_in(&mut self, at: usize, e: IndexEntry) {
        self.entries.insert(at, e);
        if self.blocks.len() * BLOCK < self.entries.len() {
            self.blocks.push(Block {
                live: 0,
                min_est: u64::MAX,
            });
        }
        // Into each block from `at`'s on comes one entry (the new one, then
        // the previous block's last) and out goes its last entry; only a
        // block whose minimum left with it needs its live entries reread.
        let (mut bit, mut carry) = (at % BLOCK, 1);
        for b in at / BLOCK..self.blocks.len() {
            let Block { live, min_est } = self.blocks[b];
            let below = (1 << bit) - 1;
            let out = live >> 31;
            let live = (live & below) | (carry << bit) | ((live & !below) << 1);
            let left = out == 1 && self.entries[(b + 1) * BLOCK].2 == min_est;
            let min_est = if left {
                self.block_min(b, live)
            } else if carry == 1 {
                min_est.min(self.entries[b * BLOCK + bit].2)
            } else {
                min_est
            };
            self.blocks[b] = Block { live, min_est };
            (bit, carry) = (0, out);
        }
    }

    /// Tombstone the live entry with arrival key `key`, compacting the run
    /// once its tombstones outnumber its live entries by more than a block.
    /// Returns false when that leaves the run empty.
    fn remove(&mut self, key: (u64, u64)) -> bool {
        let at = self.head + self.entries[self.head..].partition_point(|&e| arrival_key(e) < key);
        let est = self.entries[at].2;
        let b = at / BLOCK;
        debug_assert_eq!(arrival_key(self.entries[at]), key, "not in its run");
        debug_assert!(
            self.blocks[b].live >> (at % BLOCK) & 1 == 1,
            "removed twice"
        );
        self.blocks[b].live &= !(1 << (at % BLOCK));
        self.live -= 1;
        if self.live == 0 {
            return false;
        }
        if self.blocks[b].min_est == est {
            self.blocks[b].min_est = self.block_min(b, self.blocks[b].live);
        }
        if self.min_est == est {
            self.min_est = self.blocks[self.head / BLOCK..]
                .iter()
                .map(|b| b.min_est)
                .min()
                .unwrap_or(u64::MAX);
        }
        if at == self.head {
            (self.head, self.first) = self
                .fitting_from(at + 1, u64::MAX)
                .expect("a live entry follows the first");
        }
        if self.entries.len() - self.live > self.live + BLOCK {
            self.compact();
        }
        true
    }

    /// Drop the tombstones: slide the live entries to the front and rebuild
    /// the block summaries.
    fn compact(&mut self) {
        let mut w = 0;
        for b in self.head / BLOCK..self.blocks.len() {
            for j in live_bits(self.blocks[b].live) {
                self.entries[w] = self.entries[b * BLOCK + j];
                w += 1;
            }
        }
        self.entries.truncate(w);
        self.blocks.clear();
        self.blocks
            .extend(self.entries.chunks(BLOCK).map(|c| Block {
                live: u32::MAX >> (BLOCK - c.len()),
                min_est: c.iter().map(|e| e.2).min().unwrap_or(u64::MAX),
            }));
        self.head = 0;
    }

    /// Verify the run's cached fields and block summaries against its
    /// entries, and return its live entries (debug helper; O(n)).
    #[cfg(any(test, debug_assertions))]
    fn check(&self) -> Vec<IndexEntry> {
        let procs = self.procs;
        assert!(
            self.entries
                .windows(2)
                .all(|w| arrival_key(w[0]) < arrival_key(w[1])),
            "run {procs} out of arrival order"
        );
        assert_eq!(
            self.blocks.len(),
            self.entries.len().div_ceil(BLOCK),
            "run {procs} block count"
        );
        let mut live = Vec::new();
        for (b, (block, chunk)) in self
            .blocks
            .iter()
            .zip(self.entries.chunks(BLOCK))
            .enumerate()
        {
            assert_eq!(
                u64::from(block.live) >> chunk.len(),
                0,
                "run {procs} block {b} marks positions past the end"
            );
            let mine: Vec<IndexEntry> = live_bits(block.live).map(|j| chunk[j]).collect();
            let min = mine.iter().map(|e| e.2).min().unwrap_or(u64::MAX);
            assert_eq!(block.min_est, min, "run {procs} block {b} minimum drifted");
            live.extend(mine);
        }
        assert_eq!(self.live, live.len(), "run {procs} live count drifted");
        assert!(
            self.entries.len() - self.live <= self.live + BLOCK,
            "run {procs} holds too many tombstones"
        );
        let min = live.iter().map(|e| e.2).min().unwrap_or(u64::MAX);
        assert_eq!(self.min_est, min, "run {procs} cached min-estimate stale");
        assert_eq!(
            Some(self.first),
            live.first().copied(),
            "run {procs} cached first entry stale"
        );
        assert!(
            self.fitting_from(0, u64::MAX) == Some((self.head, self.first)),
            "run {procs} has a live entry before its head"
        );
        live
    }
}

/// One run's cursor in a scan: the run's next candidate under the estimate
/// bound the run is currently subject to.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// The next candidate; once yielded (or outgrown by a tightened bound),
    /// the position the stream resumes strictly after.
    head: IndexEntry,
    /// `head`'s position in its run.
    at: usize,
    /// The run's index in the width table.
    run: usize,
    procs: u32,
    /// Estimate bits a candidate of this run must not exceed.
    bound: u64,
    /// `head` no longer competes: fetch the run's next fitting entry after
    /// it before picking the next candidate.
    stale: bool,
}

/// Take the next candidate in arrival order across `streams`: refill the
/// stale streams under their current bounds (dropping exhausted ones), then
/// pick the smallest head. A scan has a few streams (one per run with a
/// fitting entry), so a linear pick beats a heap, and a stream is refilled
/// only when the next candidate is wanted — after the consumer has had the
/// chance to tighten or drop its bound.
fn next_candidate(widths: &[Run], streams: &mut Vec<Stream>) -> Option<(IndexEntry, QueueKey)> {
    let mut best: Option<usize> = None;
    let mut i = 0;
    while i < streams.len() {
        let s = &mut streams[i];
        if s.stale {
            match widths[s.run].fitting_from(s.at + 1, s.bound) {
                Some((at, head)) => {
                    s.head = head;
                    s.at = at;
                    s.stale = false;
                }
                None => {
                    streams.swap_remove(i);
                    continue;
                }
            }
        }
        let key = arrival_key(streams[i].head);
        if best.is_none_or(|b| key < arrival_key(streams[b].head)) {
            best = Some(i);
        }
        i += 1;
    }
    let s = &mut streams[best?];
    s.stale = true;
    let key = QueueKey {
        id: s.head.1,
        estimate: unorder_bits(s.head.2),
        procs: s.procs,
    };
    Some((s.head, key))
}

/// The lazy arrival-ordered backlog scan behind [`JobQueue::staircase_scan`].
///
/// A merge of one stream per `procs` run up to the staircase's top edge,
/// where a stream step is a block walk under the run's *current* estimate
/// bound, so the blocks outside it are skipped unread. The consumer moves
/// the staircase mid-scan in one of two ways:
///
/// * [`StaircaseScan::tighten`] lowers the bounds in place and drops the
///   runs above the new top edge: a backfill pass commits processors, so
///   its budgets only shrink and an entry the scan passed never qualifies
///   again.
/// * [`StaircaseScan::rebind`] reseeds every stream from just after the last
///   yielded candidate: a conservative-backfill start both consumes capacity
///   at `now` and releases the job's far reservation, so some stairs tighten
///   while others loosen. Candidates before the scan position already had
///   their (arrival-order) turn under the bounds current then, and are never
///   revisited.
#[derive(Debug)]
pub struct StaircaseScan<'a> {
    queue: &'a JobQueue,
    /// Taken from the queue until the scan is dropped.
    streams: Vec<Stream>,
    /// `(queued_at bits, id)` of the last yielded candidate (before the
    /// first yield, the scan's exclusive start position); a rebind resumes
    /// strictly after it.
    last: Option<(u64, u64)>,
}

impl StaircaseScan<'_> {
    /// Lower each live run stream's bound to the lower of its current bound
    /// and its stair in `stairs`, and drop the streams above the new top
    /// edge. Bounds only fall: the scan never revisits entries, so a looser
    /// stair cannot be honoured and is ignored.
    pub fn tighten(&mut self, stairs: &[(u32, f64)]) {
        self.streams.retain_mut(|s| {
            let Some(&(_, est)) = stairs.iter().find(|&&(edge, _)| edge >= s.procs) else {
                // Above the top edge; bounds only fall, so the run's
                // remaining entries can never qualify.
                return false;
            };
            s.bound = s.bound.min(est_bound(est));
            // A head fetched under the looser bound resumes after itself.
            s.stale |= s.head.2 > s.bound;
            true
        });
    }

    /// Replace the staircase and reseed every run stream from just after
    /// the last yielded candidate. Call this whenever the capacity profile
    /// behind the staircase changed (in either direction); the scan position
    /// is preserved, so each queued job still gets exactly one arrival-order
    /// turn.
    ///
    /// The width table and the stairs are both ascending, so one merged walk
    /// pairs each run up to the top edge with its stair, converting each
    /// stair's bound once; a run whose min-estimate is above its stair, or
    /// whose cached first entry fits, is settled without reading its entries.
    pub fn rebind(&mut self, stairs: &[(u32, f64)]) {
        self.streams.clear();
        let mut stairs = stairs.iter().map(|&(edge, est)| (edge, est_bound(est)));
        let mut stair = stairs.next();
        for (i, run) in self.queue.widths.iter().enumerate() {
            while stair.is_some_and(|(edge, _)| edge < run.procs) {
                stair = stairs.next();
            }
            let Some((_, bound)) = stair else { break };
            if let Some((at, head)) = run.first_fitting(self.last, bound) {
                self.streams.push(Stream {
                    head,
                    at,
                    run: i,
                    procs: run.procs,
                    bound,
                    stale: false,
                });
            }
        }
    }
}

impl Drop for StaircaseScan<'_> {
    fn drop(&mut self) {
        let mut streams = std::mem::take(&mut self.streams);
        streams.clear();
        self.queue.streams.replace(streams);
    }
}

/// The estimate-bits bound of a stair. A non-finite bound (the calendar's
/// "free forever at this width", or no estimate budget) admits any
/// estimate, NaN included.
fn est_bound(est: f64) -> u64 {
    if est.is_finite() {
        order_bits(est)
    } else {
        u64::MAX
    }
}

impl Iterator for StaircaseScan<'_> {
    type Item = QueueKey;

    /// The next candidate under the current staircase, in arrival order.
    fn next(&mut self) -> Option<QueueKey> {
        let (entry, q) = next_candidate(&self.queue.widths, &mut self.streams)?;
        self.last = Some(arrival_key(entry));
        Some(q)
    }
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
    index: IdMap<usize>,
    /// Late job id → its `queued_at` bits, the rest of its late-set key.
    late_at: IdMap<u64>,
    /// The backlog index's width table: one [`Run`] per queued `procs`
    /// value, ascending, each holding that width's live jobs in arrival
    /// order with block minimum estimates (see the module docs for the
    /// invariants). Keyed by job values only, so slot compaction never has
    /// to touch it.
    widths: Vec<Run>,
    /// The stream vector each scan takes and hands back, emptied, when
    /// dropped, so scans allocate only while it grows.
    streams: RefCell<Vec<Stream>>,
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

    /// A lazy arrival-ordered merge over the backlog index's run streams
    /// under a **per-width estimate staircase**, after the exclusive
    /// `(queued_at, id)` position `after`: `stairs` is a list of `(inclusive
    /// procs upper edge, max estimate)` pairs, ascending by procs, and a job
    /// with width `p` qualifies when its estimate is at most (by total
    /// order) the bound of the first stair whose edge is `>= p`. Pass a
    /// non-finite bound for "any estimate at this width". Widths above the
    /// last edge never qualify.
    ///
    /// A backfill pass is `[(narrow, ∞), (wide, budget)]` (one stair for a
    /// capacity-only pass) and [`StaircaseScan::tighten`]s it as it commits
    /// processors; a conservative starter pass hands in the calendar's
    /// run-length profile ("width `p` stays free for `L(p)` seconds from
    /// now") and [`StaircaseScan::rebind`]s after every start. Consumers
    /// re-test each candidate against their own fresh budgets: the index
    /// only guarantees that no job satisfying the current staircase and
    /// sitting after the scan position is missing. See the module docs for
    /// what a scan costs.
    pub fn staircase_scan(
        &self,
        stairs: &[(u32, f64)],
        after: Option<(f64, u64)>,
    ) -> StaircaseScan<'_> {
        let mut scan = StaircaseScan {
            queue: self,
            streams: self.streams.take(),
            last: after.map(|(t, id)| (order_bits(t), id)),
        };
        scan.rebind(stairs);
        scan
    }

    /// Insert a job (ids must be unique within the queue). O(log n): a key
    /// above the high-water key (arrival order, the overwhelmingly common
    /// case) appends to the slot vector in amortized O(1); any other key — a
    /// requeue returning to its original position, or an out-of-order
    /// same-instant release — is filed in the late set in O(log n), where it
    /// stays until a compaction merges it into the slots. The backlog index
    /// appends to the job's run in O(1); an out-of-order key costs it a
    /// binary search, then an O(1) revival of the job's own tombstone or a
    /// memmove of the run's tail.
    pub(crate) fn push(&mut self, q: QueuedJob) {
        let procs = q.job.procs;
        self.demanded += procs as u64;
        let entry = index_entry(&q);
        match self.widths.binary_search_by_key(&procs, |r| r.procs) {
            Ok(i) => self.widths[i].insert(entry),
            Err(i) => self.widths.insert(i, Run::new(procs, entry)),
        }
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

    /// Remove a job by id. O(log n) amortized (tombstone or late-set removal,
    /// plus a binary search in the job's run and at most one block's
    /// minimum recomputed, plus occasional compaction).
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
            if let Ok(i) = self.widths.binary_search_by_key(&procs, |r| r.procs) {
                if !self.widths[i].remove(key_of(job)) {
                    self.widths.remove(i);
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

    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_invariants(&self) {
        assert!(self.slots[..self.head].iter().all(Option::is_none));
        assert_eq!(self.slots.len(), self.keys.len());
        let live: Vec<&QueuedJob> = self.iter().collect();
        assert_eq!(live.len(), self.index.len());
        for w in live.windows(2) {
            assert!(key_of(w[0]) < key_of(w[1]), "queue out of order");
        }
        let live_slots = self.slots.iter().flatten().count();
        assert_eq!(
            live_slots + self.late.len(),
            self.index.len(),
            "late set and slots overlap or drifted from the index"
        );
        for (id, &i) in &self.index {
            let home = match i {
                LATE => self.late.get(&(self.late_at[id], *id)).map(|(_, q)| q),
                i => self.slots[i].as_ref(),
            };
            assert_eq!(home.map(|q| q.job.id), Some(*id), "index points astray");
        }
        // Late-set invariants: sorted by each entry's own key, below the
        // high-water key, and every late job indexed as late.
        assert_eq!(self.late_at.len(), self.late.len(), "stale late keys");
        // Keys compare bit for bit, so a NaN estimate equals itself.
        let bits = |k: &QueueKey| (k.id, k.estimate.to_bits(), k.procs);
        for (&key, (k, q)) in &self.late {
            assert_eq!(key, key_of(q), "late entry filed under a foreign key");
            assert_eq!(
                bits(k),
                bits(&QueueKey::of(q)),
                "late key out of sync with its job"
            );
            assert!(
                self.max_key.is_some_and(|m| key <= m),
                "late key above the high-water key"
            );
            assert_eq!(
                (self.index.get(&q.job.id), self.late_at.get(&q.job.id)),
                (Some(&LATE), Some(&key.0)),
                "late job not indexed as late"
            );
        }
        for (s, k) in self.slots.iter().zip(self.keys.iter()) {
            assert_eq!(
                bits(&s.as_ref().map(QueueKey::of).unwrap_or(QueueKey::TOMBSTONE)),
                bits(k),
                "keys out of sync with slots"
            );
        }
        // Backlog-index invariants: a width table sorted by procs, each run
        // consistent with its entries (see `Run::check`), and together the
        // runs' live entries are exactly the live jobs' index entries.
        assert!(
            self.widths.windows(2).all(|w| w[0].procs < w[1].procs),
            "width table out of order"
        );
        let live_demand: u64 = live.iter().map(|q| q.job.procs as u64).sum();
        assert_eq!(
            self.demanded, live_demand,
            "demanded-procs aggregate drifted"
        );
        let mut indexed: Vec<(u32, IndexEntry)> = self
            .widths
            .iter()
            .flat_map(|r| r.check().into_iter().map(|e| (r.procs, e)))
            .collect();
        let mut want: Vec<(u32, IndexEntry)> =
            live.iter().map(|q| (q.job.procs, index_entry(q))).collect();
        indexed.sort_unstable();
        want.sort_unstable();
        assert_eq!(indexed, want, "backlog index drifted from the live jobs");
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

    /// Ids of a staircase scan that never moves its staircase.
    fn scan_ids(q: &JobQueue, stairs: &[(u32, f64)], after: Option<(f64, u64)>) -> Vec<u64> {
        q.staircase_scan(stairs, after).map(|k| k.id).collect()
    }

    #[test]
    fn staircase_scan_prunes_by_procs_and_estimate() {
        let mut q = JobQueue::new();
        q.push(queued_with(1, 0.0, 4, 50.0));
        q.push(queued_with(2, 1.0, 16, 10.0));
        q.push(queued_with(3, 2.0, 4, 500.0));
        q.push(queued_with(4, 3.0, 32, 10.0));
        q.push(queued_with(5, 4.0, 1, 1000.0));
        // Capacity only: everything at or under 16 procs, arrival order.
        assert_eq!(scan_ids(&q, &[(16, f64::INFINITY)], None), vec![1, 2, 3, 5]);
        // Capacity + estimate budget.
        assert_eq!(scan_ids(&q, &[(16, 50.0)], None), vec![1, 2]);
        // Keys carry the exact estimate and procs back out of the index.
        let keys: Vec<QueueKey> = q.staircase_scan(&[(4, f64::INFINITY)], None).collect();
        assert_eq!(keys[0].estimate, 50.0);
        assert_eq!(keys[2].procs, 1);
    }

    #[test]
    fn staircase_scan_unions_and_skips_prefix() {
        let mut q = JobQueue::new();
        q.push(queued_with(1, 0.0, 2, 999.0)); // narrow, long
        q.push(queued_with(2, 1.0, 8, 20.0)); // wide, short
        q.push(queued_with(3, 2.0, 8, 999.0)); // wide, long: excluded
        q.push(queued_with(4, 3.0, 2, 5.0)); // narrow and short
        let pass = backfill_stairs(8, 2, 50.0);
        assert_eq!(scan_ids(&q, &pass, None), vec![1, 2, 4]);
        // Skip everything at or before job 2's arrival position.
        assert_eq!(scan_ids(&q, &pass, Some((1.0, 2))), vec![4]);
    }

    /// The model every scan must agree with: the queued jobs after `after`
    /// whose width has a stair (the first whose edge is `>= procs`) and
    /// whose estimate is at most that stair's bound by total order (any
    /// estimate under a non-finite bound), in arrival order.
    fn staircase_model(q: &JobQueue, stairs: &[(u32, f64)], after: Option<(f64, u64)>) -> Vec<u64> {
        q.iter()
            .filter(|j| {
                after
                    .is_none_or(|(t, id)| (order_bits(j.queued_at), j.job.id) > (order_bits(t), id))
            })
            .filter(|j| {
                stair_of(stairs, j.job.procs).is_some_and(|bound| {
                    !bound.is_finite()
                        || j.job.estimate.total_cmp(&bound) != std::cmp::Ordering::Greater
                })
            })
            .map(|j| j.job.id)
            .collect()
    }

    /// The estimate bound `stairs` give width `procs`, if any.
    fn stair_of(stairs: &[(u32, f64)], procs: u32) -> Option<f64> {
        stairs
            .iter()
            .find(|&&(edge, _)| edge >= procs)
            .map(|&(_, bound)| bound)
    }

    /// A backfill pass as a staircase: any estimate up to `narrow`
    /// processors (never above `wide`), `budget` up to `wide`.
    fn backfill_stairs(wide: u32, narrow: u32, budget: f64) -> [(u32, f64); 2] {
        [(narrow.min(wide), f64::INFINITY), (wide, budget)]
    }

    /// The staircase a scan under `cur` is under once tightened by `new`:
    /// per width, the lower of the two bounds, and no stair above either top
    /// edge (one stair per width, up to every width the tests draw).
    fn tightened(cur: &[(u32, f64)], new: &[(u32, f64)]) -> Vec<(u32, f64)> {
        (1..=25)
            .map_while(|p| Some((p, stair_of(cur, p)?.min(stair_of(new, p)?))))
            .collect()
    }

    /// Raw `(edge, estimate)` draws as a staircase: ascending distinct
    /// edges; estimates from 650 up mean "any estimate".
    fn stairs_of(raw: &[(u32, u32)]) -> Vec<(u32, f64)> {
        let mut stairs: Vec<(u32, f64)> = raw
            .iter()
            .map(|&(edge, est)| (edge, bound_of(est)))
            .collect();
        stairs.sort_by_key(|s| s.0);
        stairs.dedup_by_key(|s| s.0);
        stairs
    }

    /// A drawn estimate bound: quarter seconds, 650 and up meaning "any".
    fn bound_of(est: u32) -> f64 {
        if est >= 650 {
            f64::INFINITY
        } else {
            est as f64 / 4.0
        }
    }

    /// The queue position of a queued job, as scans take it.
    fn position(q: &JobQueue, id: u64) -> Option<(f64, u64)> {
        q.get(id).map(|j| (j.queued_at, id))
    }

    #[test]
    fn nan_and_infinite_estimates_pass_only_an_infinite_stair() {
        // The NaN whose order bits are all ones, the infinite stair's bound:
        // a tombstone marked by an estimate value would collide with it.
        let nan = f64::from_bits(0x7fff_ffff_ffff_ffff);
        assert_eq!(order_bits(nan), u64::MAX);
        let mut q = JobQueue::new();
        for (id, est) in [(1, nan), (2, f64::INFINITY), (3, 10.0), (4, nan), (5, 20.0)] {
            let mut j = queued_with(id, id as f64, 4, 0.0);
            j.job.estimate = est;
            q.push(j);
        }
        // Job 4 leaves a NaN-estimate tombstone mid-run.
        assert!(q.remove(4).is_some());
        q.check_invariants();
        assert_eq!(scan_ids(&q, &[(4, f64::INFINITY)], None), vec![1, 2, 3, 5]);
        assert_eq!(scan_ids(&q, &[(4, f64::MAX)], None), vec![3, 5]);
        assert_eq!(scan_ids(&q, &[(4, 15.0)], None), vec![3]);
        // The yielded keys carry both estimates back bit for bit.
        let keys: Vec<QueueKey> = q.staircase_scan(&[(4, f64::INFINITY)], None).collect();
        assert_eq!(keys[0].estimate.to_bits(), nan.to_bits());
        assert_eq!(keys[1].estimate, f64::INFINITY);
    }

    /// Every scan of `q` under the drawn staircases yields what the model
    /// does: left alone, from the front, from the head and from the middle
    /// of the queue; tightened after every yield, as a backfill pass
    /// tightens; and rebound after every yield, as a conservative starter
    /// pass rebinds.
    fn assert_scans_match(q: &JobQueue, stair_sets: &[Vec<(u32, f64)>]) {
        let ids: Vec<u64> = q.iter().map(|j| j.job.id).collect();
        let mid = ids.get(ids.len() / 2).and_then(|&id| position(q, id));
        let head = ids.first().and_then(|&id| position(q, id));
        for stairs in stair_sets {
            for after in [None, head, mid] {
                assert_eq!(
                    scan_ids(q, stairs, after),
                    staircase_model(q, stairs, after)
                );
            }
        }
        let (mut stairs, mut pos) = (stair_sets[0].clone(), mid);
        let mut scan = q.staircase_scan(&stairs, pos);
        for step in 1.. {
            let want = staircase_model(q, &stairs, pos).first().copied();
            let got = scan.next().map(|k| k.id);
            assert_eq!(got, want);
            let Some(id) = got else { break };
            pos = position(q, id);
            let new = &stair_sets[step % stair_sets.len()];
            scan.tighten(new);
            stairs = tightened(&stairs, new);
        }
        let (mut stairs, mut pos) = (stair_sets[0].clone(), None);
        let mut scan = q.staircase_scan(&stairs, pos);
        for step in 1.. {
            let want = staircase_model(q, &stairs, pos).first().copied();
            let got = scan.next().map(|k| k.id);
            assert_eq!(got, want);
            let Some(id) = got else { break };
            pos = position(q, id);
            stairs = stair_sets[step % stair_sets.len()].clone();
            scan.rebind(&stairs);
        }
    }

    proptest::proptest! {
        /// Queue integrity under requeue-heavy churn: after every push,
        /// tombstoning removal, requeue (a re-push at an old queued_at, which
        /// lands in the late set) and the compactions they trigger — many of
        /// which absorb a non-empty late set — `iter`, `iter_keys` and `get`
        /// agree with a sorted-map model, and every staircase scan (left
        /// alone) yields exactly the staircase model, from the queue front
        /// and from just after its head.
        ///
        /// Scans are also consumed the way their users consume them: as
        /// EASY does, a backfill pass (`narrow == wide` and `narrow == 0`
        /// included) handed raw draws to `tighten` after some yields —
        /// looser ones too, which the model folds in as the per-width
        /// minimum — and finally an empty staircase; and as the
        /// conservative starter pass does, moving the staircase either way
        /// with `rebind`. Every yield must then be the first job of the
        /// model over the not-yet-passed suffix under the staircase current
        /// at that moment.
        #[test]
        fn candidates_match_filtered_scan_under_churn(
            ops in proptest::collection::vec(
                (0u8..8, 0u32..40, 1u32..24, 0u32..600, 0u32..1000),
                1..300,
            ),
            passes in proptest::collection::vec(
                (0u32..26, 0u32..26, 0u32..700),
                1..6,
            ),
            tightens in proptest::collection::vec(
                (0u32..26, 0u32..26, 0u32..700, 0u8..3),
                1..8,
            ),
            stair_sets in proptest::collection::vec(
                proptest::collection::vec((1u32..26, 0u32..700), 1..5),
                1..5,
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
            let head = q.iter().next().map(|j| (j.queued_at, j.job.id));
            for raw in &stair_sets {
                let stairs = stairs_of(raw);
                for after in [None, head] {
                    proptest::prop_assert_eq!(
                        scan_ids(&q, &stairs, after),
                        staircase_model(&q, &stairs, after)
                    );
                }
            }
            for (wide, narrow, est) in passes {
                let budget = bound_of(est);
                let pass = backfill_stairs(wide, narrow, budget);
                for after in [None, head] {
                    proptest::prop_assert_eq!(
                        scan_ids(&q, &pass, after),
                        staircase_model(&q, &pass, after)
                    );
                }
                // Consumed as EASY consumes it, from just after the head.
                let mut scan = q.staircase_scan(&pass, head);
                let (mut stairs, mut pos) = (pass.to_vec(), head);
                for step in 0.. {
                    let want = staircase_model(&q, &stairs, pos).first().copied();
                    let got = scan.next().map(|k| k.id);
                    proptest::prop_assert_eq!(got, want);
                    let Some(id) = got else { break };
                    pos = position(&q, id);
                    let new = match tightens.get(step) {
                        Some(&(_, _, _, 0)) => continue,
                        // EASY keeps its budget; a drawn one tightens the
                        // estimate bounds too.
                        Some(&(sw, sn, _, 1)) => backfill_stairs(sw, sn, budget).to_vec(),
                        Some(&(sw, sn, est, _)) => backfill_stairs(sw, sn, bound_of(est)).to_vec(),
                        None => Vec::new(),
                    };
                    scan.tighten(&new);
                    stairs = tightened(&stairs, &new);
                }
            }
            // Consumed as the conservative starter pass consumes it.
            let mut stairs = stairs_of(&stair_sets[0]);
            let mut scan = q.staircase_scan(&stairs, None);
            let mut pos = None;
            for step in 1.. {
                let want = staircase_model(&q, &stairs, pos).first().copied();
                let got = scan.next().map(|k| k.id);
                proptest::prop_assert_eq!(got, want);
                let Some(id) = got else { break };
                pos = position(&q, id);
                if step % 2 == 1 {
                    stairs = stairs_of(&stair_sets[step % stair_sets.len()]);
                    scan.rebind(&stairs);
                }
            }
        }

        /// Runs longer than one block. Procs drawn from 1..4 pile each
        /// width's run up over several 32-entry blocks; removals leave
        /// tombstones mid-run and set off run compactions; requeues return
        /// mid-run, to their own tombstone or, once a compaction has dropped
        /// it, by a memmove across block edges; and a rare drain removes
        /// every job of one width, so its run leaves the width table and the
        /// next arrival or requeue of that width re-creates it. The
        /// invariants (every run's order, block masks and minima, cached
        /// first entry and min-estimate, live and tombstone counts) hold
        /// after every op, and every 50 ops the scans match the model.
        #[test]
        fn long_runs_match_filtered_scan_under_churn(
            ops in proptest::collection::vec(
                (0u8..64, 0u32..40, 1u32..4, 0u32..600, 0u32..1000),
                1000..1200,
            ),
            stair_sets in proptest::collection::vec(
                proptest::collection::vec((1u32..5, 0u32..700), 1..4),
                1..4,
            ),
        ) {
            let stair_sets: Vec<Vec<(u32, f64)>> = stair_sets.iter().map(|raw| stairs_of(raw)).collect();
            let mut q = JobQueue::new();
            let mut model: BTreeMap<(u64, u64), QueuedJob> = BTreeMap::new();
            let mut clock = 0.0f64;
            let mut next_id = 1u64;
            let mut removed: Vec<QueuedJob> = Vec::new();
            for (step, (op, dt, procs, est, pick)) in ops.into_iter().enumerate() {
                let gone: Vec<u64> = match op {
                    0..=26 => {
                        clock += dt as f64 / 8.0;
                        let j = queued_with(next_id, clock, procs, est as f64 / 4.0);
                        model.insert(key_of(&j), j.clone());
                        q.push(j);
                        next_id += 1;
                        Vec::new()
                    }
                    27..=44 => {
                        let live: Vec<u64> = q.iter().map(|j| j.job.id).collect();
                        live.get(pick as usize % live.len().max(1)).copied().into_iter().collect()
                    }
                    45..=62 => {
                        if !removed.is_empty() {
                            let j = removed.swap_remove(pick as usize % removed.len());
                            model.insert(key_of(&j), j.clone());
                            q.push(j);
                        }
                        Vec::new()
                    }
                    // Drain one width: its run leaves the table.
                    _ => q.iter().filter(|j| j.job.procs == procs).map(|j| j.job.id).collect(),
                };
                for id in gone {
                    let j = q.remove(id).unwrap();
                    model.remove(&key_of(&j));
                    removed.push(j);
                }
                q.check_invariants();
                proptest::prop_assert_eq!(q.iter().collect::<Vec<_>>(), model.values().collect::<Vec<_>>());
                if step % 50 == 49 {
                    assert_scans_match(&q, &stair_sets);
                }
            }
            assert_scans_match(&q, &stair_sets);
        }
    }
}
