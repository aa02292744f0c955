//! A zero-dependency worker pool built on `std::thread::scope`.
//!
//! The paper's sweeps — bench experiments over (size × slowdown) grids, the
//! model checker's thousands of tree instances — are embarrassingly parallel:
//! every work item is independent and the result order must not depend on
//! which worker finished first. [`Pool::map`] provides exactly that contract:
//!
//! - items are handed out from a shared queue, so fast workers steal the
//!   slack of slow items instead of idling behind a static partition;
//! - every result is written back to the slot of its *originating index*, so
//!   the output `Vec` is always in input order no matter the interleaving;
//! - workers are scoped threads, so borrowed data (`&Platform`, closures over
//!   stack state) crosses into workers without `Arc` or `'static` bounds.
//!
//! [`Pool::map_with`] additionally threads a per-worker accumulator (e.g. an
//! `obs::Metrics` sink) through every item a worker processes and hands the
//! accumulators back for merging — per-worker aggregation without any locking
//! on the hot path.
//!
//! With `threads <= 1` (or a single item) everything runs inline on the
//! caller's thread: no spawn cost, identical results, which keeps the serial
//! path exactly as debuggable as before the pool existed.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Number of worker threads to use by default: the host's available
/// parallelism, or 1 when the runtime cannot tell.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// A fixed-width scoped worker pool.
///
/// The pool owns no threads between calls — each [`Pool::map`] spawns scoped
/// workers, drains the work queue, and joins them before returning. That
/// keeps the type trivially `Copy`-cheap and makes every call self-contained
/// (no shutdown protocol, no poisoned state across calls).
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool that fans out over `threads` workers; `0` is clamped to 1.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// The worker count this pool fans out over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// Work is distributed dynamically: each worker repeatedly takes the next
    /// `(index, item)` off a shared queue and writes `f(item)` into the
    /// result slot for that index. Panics in `f` propagate to the caller
    /// (scoped threads re-raise on join).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_with(items, || (), |(), item| f(item)).0
    }

    /// Like [`Pool::map`], but each worker owns an accumulator created by
    /// `init` and passed to every call; the accumulators are returned
    /// alongside the results (one per worker that ran, in no particular
    /// order) for the caller to merge.
    pub fn map_with<T, R, W, F, I>(&self, items: Vec<T>, init: I, f: F) -> (Vec<R>, Vec<W>)
    where
        T: Send,
        R: Send,
        W: Send,
        F: Fn(&mut W, T) -> R + Sync,
        I: Fn() -> W + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        // Serial fast path: no queue, no locks, no spawns.
        if workers <= 1 {
            let mut acc = init();
            let results = items.into_iter().map(|item| f(&mut acc, item)).collect();
            return (results, vec![acc]);
        }

        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let accs: Mutex<Vec<W>> = Mutex::new(Vec::with_capacity(workers));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut acc = init();
                    loop {
                        // Take before compute: the queue lock is held only for
                        // the pop, never across `f`.
                        let job = match queue.lock() {
                            Ok(mut q) => q.pop_front(),
                            Err(_) => None, // another worker panicked; stop
                        };
                        let Some((idx, item)) = job else { break };
                        let out = f(&mut acc, item);
                        if let Ok(mut slot) = slots[idx].lock() {
                            *slot = Some(out);
                        }
                    }
                    if let Ok(mut all) = accs.lock() {
                        all.push(acc);
                    }
                });
            }
        });

        let results = slots
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Ok(Some(r)) => r,
                // Unreachable unless a worker panicked, which already
                // propagated out of the scope above.
                _ => unreachable!("worker finished without filling its slot"),
            })
            .collect();
        let accs = accs.into_inner().unwrap_or_default();
        (results, accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.map(items, |x| x * x);
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn map_matches_serial_on_uneven_work() {
        // Items with wildly different costs still land in input order.
        let items: Vec<u32> = (0..40).collect();
        let expensive = |x: u32| {
            let spin = if x.is_multiple_of(7) { 40_000 } else { 10 };
            (0..spin).fold(u64::from(x), |a, b| a.wrapping_add(b ^ a.rotate_left(7)))
        };
        let serial = Pool::new(1).map(items.clone(), expensive);
        let parallel = Pool::new(4).map(items, expensive);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_with_hands_back_one_accumulator_per_worker() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (1..=60).collect();
        let (results, accs) = pool.map_with(
            items,
            || 0u64,
            |acc, x| {
                *acc += x;
                x
            },
        );
        assert_eq!(results.len(), 60);
        assert!(accs.len() <= 3 && !accs.is_empty());
        // Per-worker partial sums merge to the full sum regardless of split.
        assert_eq!(accs.iter().sum::<u64>(), (1..=60).sum::<u64>());
    }

    #[test]
    fn borrows_cross_into_workers() {
        // Scoped threads: `f` may capture stack references.
        let base = [10u64, 20, 30];
        let pool = Pool::new(2);
        let out = pool.map(vec![0usize, 1, 2, 0, 1], |i| base[i]);
        assert_eq!(out, vec![10, 20, 30, 10, 20]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(empty, |x| x).is_empty());
        assert_eq!(pool.map(vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(available_threads() >= 1);
    }
}
