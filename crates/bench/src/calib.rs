//! A host-speed reference for `perf_baseline`: a fixed workload that uses
//! only the standard library, so no change to the program can move it.
//!
//! Shared hosts run the simulator up to ~2x slower in some phases and
//! processes than in others, while a tight arithmetic loop barely moves:
//! the slowdown hits code that leans on the caches, the branch predictors
//! and the allocator. The reference therefore mixes ordered-map updates,
//! formatting, parsing, sorting, hashing and a small event loop over exact
//! fractions. `perf_baseline` records its time next to the baselines, and
//! `--check` compares timings in units of it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`iters` wall time of one pass of the reference, in nanoseconds.
#[must_use]
pub fn reference_ns(iters: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        black_box(tables());
        black_box(fraction_events());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Map updates, then the map as text, parsed back, sorted and hashed.
fn tables() -> usize {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut map = BTreeMap::new();
    for _ in 0..8_000 {
        x ^= x << 7;
        x ^= x >> 9;
        map.insert(x % 50_000, x);
    }
    let mut text = String::new();
    for (k, v) in map.iter().step_by(2) {
        let _ = write!(text, "{k}={}/{};", v % 1013, (v >> 24) % 997 + 1);
    }
    let mut values: Vec<u64> = (text.split(';'))
        .filter_map(|entry| entry.split_once('=')?.1.split('/').next()?.parse().ok())
        .collect();
    values.sort_unstable();
    let mut buckets: HashMap<u64, u64> = HashMap::new();
    for v in values {
        *buckets.entry(v % 1021).or_default() += v;
    }
    buckets.len()
}

/// A heap-driven loop that reduces one exact fraction per event.
fn fraction_events() -> usize {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.abs()
    }
    let steps: Vec<(i128, i128)> = (0..12).map(|i| (40 + 9 * i, 7 + i % 4)).collect();
    let mut heap: BinaryHeap<Reverse<(i128, usize)>> = (0..12).map(|n| Reverse((0, n))).collect();
    let mut seen = Vec::with_capacity(16_000);
    while let Some(Reverse((t, n))) = heap.pop() {
        if seen.len() == 16_000 {
            break;
        }
        let (num, den) = steps[n];
        let g = gcd(t * den + num, 40 * den);
        seen.push(((t * den + num) / g, 40 * den / g));
        heap.push(Reverse((t + num / den + 1, n)));
    }
    seen.len()
}
