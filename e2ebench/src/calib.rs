//! The host-speed reference: a fixed workload of the benchmark's own,
//! timed right before and right after every timed op.
//!
//! Shared hosts run this benchmark at speeds that swing by up to 1.6×
//! within seconds and between runs, while a tight arithmetic loop barely
//! moves: the slowdown hits code that uses the caches, the branch
//! predictors and the allocator, as the simulator does. The reference
//! therefore mixes ordered-map updates, formatting, parsing, sorting,
//! hashing and a small exact-fraction event loop. It uses only the
//! standard library, so no change to the program can move it, and every
//! rate the benchmark reports is scaled to a host on which it takes
//! [`NOMINAL_S`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write;
use std::time::Instant;

/// The reference's duration on the host the rates are scaled to.
pub const NOMINAL_S: f64 = 0.005;

/// Seconds one pass of the reference workload takes now.
pub fn reference_secs() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(maps_and_text());
    std::hint::black_box(event_loop());
    t0.elapsed().as_secs_f64()
}

fn maps_and_text() -> usize {
    let mut m = BTreeMap::new();
    let mut r = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..10_000 {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        m.insert(r % 100_000, r);
    }
    let mut txt = String::new();
    for (k, v) in m.iter().step_by(3) {
        write!(txt, "{{\"k\":{k},\"v\":\"{}/{}\"}},", v % 977, (v >> 20) % 1009 + 1).unwrap();
    }
    let mut nums: Vec<u64> = txt
        .split(',')
        .filter_map(|f| f.split(':').nth(1))
        .filter_map(|f| f.split('"').next()?.parse().ok())
        .collect();
    nums.sort_unstable();
    let mut hm = HashMap::new();
    for &v in &nums {
        *hm.entry(v % 4099).or_insert(0u64) += v;
    }
    hm.len()
}

fn event_loop() -> usize {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.abs()
    }
    let w: Vec<(i128, i128)> = (0..16).map(|i| (36 + 7 * i, 9 + (i % 5))).collect();
    let mut queue: BinaryHeap<Reverse<(i128, usize)>> = (0..16).map(|n| Reverse((0, n))).collect();
    let mut done: Vec<(i128, i128, usize)> = Vec::new();
    while let Some(Reverse((t, n))) = queue.pop() {
        if done.len() >= 20_000 {
            break;
        }
        let (num, den) = w[n];
        let g = gcd(t * den + num, den * 36);
        done.push(((t * den + num) / g, den * 36 / g, n));
        queue.push(Reverse((t + num / den + 1, n)));
    }
    done.len()
}

/// Scales seconds measured now to the nominal host.
pub fn scale(secs: f64, reference: f64) -> f64 {
    secs * NOMINAL_S / reference
}
