//! The work-stealing scoped-thread pool shared by the experiment harness
//! (`psbench_core::harness`) and the metasystem shard loop
//! (`psbench_metasim::epoch`).
//!
//! This crate is a dependency leaf: it sits below both `psbench-core` and
//! `psbench-metasim` so the two can share one pool implementation without a
//! cycle (`psbench-core` depends on `psbench-metasim` for experiment E7).
//!
//! Both entry points guarantee **bit-identical results for any thread
//! count**: work items never interact mid-flight, results come back in input
//! order, and `threads == 1` takes a plain sequential loop — the serial twin
//! every parallel run must match.

#![warn(missing_docs)]

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the parallel entry points use by default: one per
/// available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `0..n` on a small work-stealing pool of scoped threads.
///
/// Workers pull the next undone index from a shared atomic counter, so long
/// and short tasks balance across threads. Results come back in input order,
/// and each call `f(i)` sees exactly the same inputs as in a sequential loop —
/// every run seeds its own RNG from data carried by the task itself, so the
/// output is bit-identical to `(0..n).map(f).collect()`.
///
/// # Panics
/// Propagates a panic from any worker once all threads have been joined.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // A vector of `()` never allocates: the slice only carries the count.
    parallel_map_mut(&mut vec![(); n], threads, |i, _| f(i))
}

/// A `Sync` view over a mutable slice handed out one disjoint element at a
/// time. Safety rests on the work-stealing counter in [`parallel_map_mut`]:
/// `fetch_add` yields every index to exactly one worker, so no element is
/// ever aliased.
struct Slots<T>(*mut T);
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Raw pointer to element `i`. Going through a method (rather than the
    /// field) keeps edition-2021 closures capturing `&Slots<T>` — which is
    /// `Sync` — instead of the bare `*mut T` field, which is not.
    fn at(&self, i: usize) -> *mut T {
        // SAFETY: callers only pass `i < n` (checked at the call site).
        unsafe { self.0.add(i) }
    }
}

/// Run `f(i, &mut items[i])` for every element of `items` on a work-stealing
/// pool of scoped threads, returning the per-element results in input order.
///
/// This is the pool loop itself ([`parallel_map`] runs it over a slice of
/// `()`), for work items that own heavy mutable state (e.g. a simulation
/// engine shard): each element is claimed by exactly one worker via an
/// atomic counter, mutated through a disjoint `&mut`, and never touched by
/// two threads. With `threads == 1` this is a plain sequential `for` loop
/// over the slice — the serial twin — and because elements never interact
/// mid-call, results (and all mutations) are bit-identical for any thread
/// count.
///
/// # Panics
/// Propagates a panic from any worker once all threads have been joined.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let slots = Slots(items.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i < n` is in bounds, and the atomic counter hands
                // each index to exactly one worker, so this `&mut` is unique.
                let item = unsafe { &mut *slots.at(i) };
                let value = f(i, item);
                results.lock()[i] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every index produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_sequential_for_any_thread_count() {
        let seq: Vec<u64> = (0..97)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let par = parallel_map(97, threads, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u32> = parallel_map(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_mut_mutates_each_element_exactly_once() {
        for threads in [1usize, 2, 8] {
            let mut items: Vec<u64> = (0..131).collect();
            let returns = parallel_map_mut(&mut items, threads, |i, v| {
                *v += 1000;
                *v * (i as u64 + 1)
            });
            let expected_items: Vec<u64> = (0..131).map(|i| i + 1000).collect();
            let expected_returns: Vec<u64> = (0..131u64).map(|i| (i + 1000) * (i + 1)).collect();
            assert_eq!(items, expected_items, "threads = {threads}");
            assert_eq!(returns, expected_returns, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_mut_handles_empty_slice() {
        let mut items: Vec<u32> = Vec::new();
        let out: Vec<()> = parallel_map_mut(&mut items, 8, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_mut_balances_uneven_work() {
        // Long and short tasks mixed: the atomic counter hands out indexes
        // one at a time, so stragglers don't serialize the batch. This test
        // just asserts correctness, not timing.
        let mut items: Vec<u64> = (0..40).collect();
        parallel_map_mut(&mut items, 4, |i, v| {
            let spins = if i % 7 == 0 { 5000 } else { 10 };
            let mut acc = *v;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            *v = acc;
        });
        let expected: Vec<u64> = (0..40u64)
            .map(|i| {
                let spins = if i % 7 == 0 { 5000 } else { 10 };
                let mut acc = i;
                for _ in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
            .collect();
        assert_eq!(items, expected);
    }
}
