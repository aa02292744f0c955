//! Overlay-tree search: "a quick way to evaluate the throughput of a tree
//! allows to consider a wider set of trees" (Section 5).
//!
//! Given a pool of heterogeneous workers with per-worker link costs, compare
//! candidate overlay topologies — star, balanced k-ary trees, bandwidth-
//! sorted chains — by scoring hundreds of variants exactly with `BW-First`,
//! which visits only the workers each candidate's schedule uses.
//!
//! ```text
//! cargo run --release --example topology_search
//! ```

use bwfirst::core::bw_first;
use bwfirst::platform::{Platform, PlatformBuilder, Weight};
use bwfirst::rat;
use bwfirst::Rat;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// A worker from the resource pool: processing time and the link cost it
/// pays regardless of where it is attached (its access link).
#[derive(Clone, Copy)]
struct Worker {
    w: Rat,
    c: Rat,
}

fn pool(n: usize, seed: u64) -> Vec<Worker> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Worker {
            w: rat(rng.gen_range(4..=20), 1),
            c: rat(rng.gen_range(1..=4), rng.gen_range(1..=2)),
        })
        .collect()
}

/// Builds a k-ary overlay over the pool in the given order.
fn kary_overlay(workers: &[Worker], arity: usize) -> Platform {
    let mut b = PlatformBuilder::new();
    let root = b.root(Weight::Infinite); // the master only distributes
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut slots = frontier.iter().map(|&p| (p, arity)).collect::<Vec<_>>();
    let mut si = 0;
    for &wk in workers {
        if si >= slots.len() {
            frontier = std::mem::take(&mut next);
            slots = frontier.iter().map(|&p| (p, arity)).collect();
            si = 0;
        }
        let (parent, _) = slots[si];
        let id = b.child(parent, wk.w, wk.c);
        next.push(id);
        slots[si].1 -= 1;
        if slots[si].1 == 0 {
            si += 1;
        }
    }
    b.build().expect("valid overlay")
}

fn main() {
    let n = 48;
    let workers = pool(n, 77);
    let mut rng = StdRng::seed_from_u64(1234);

    // Candidate generator: arity × worker-ordering heuristics × shuffles.
    let mut candidates: Vec<(String, Platform)> = Vec::new();
    for arity in [1usize, 2, 3, 4, 8, 48] {
        // Bandwidth-centric ordering: fastest links nearest the master.
        let mut by_bw = workers.clone();
        by_bw.sort_by_key(|s| s.c);
        candidates.push((format!("{arity}-ary, fast links first"), kary_overlay(&by_bw, arity)));
        // CPU-first ordering (the intuition bandwidth-centricity refutes).
        let mut by_cpu = workers.clone();
        by_cpu.sort_by_key(|s| s.w);
        candidates.push((format!("{arity}-ary, fast CPUs first"), kary_overlay(&by_cpu, arity)));
        // Random orders.
        for s in 0..40 {
            let mut shuffled = workers.clone();
            shuffled.shuffle(&mut rng);
            candidates.push((format!("{arity}-ary, shuffle #{s}"), kary_overlay(&shuffled, arity)));
        }
    }
    println!("scoring {} candidate overlays with BW-First...", candidates.len());

    let mut scored: Vec<(Rat, &String, &Platform)> =
        candidates.iter().map(|(name, p)| (bw_first(p).throughput(), name, p)).collect();
    scored.sort_by_key(|&(score, _, _)| std::cmp::Reverse(score));

    println!("\ntop five candidates:");
    for (score, name, _) in scored.iter().take(5) {
        println!("  {:.4}  {name}", score.to_f64());
    }

    let (_, name, best) = scored[0];
    let exact = bw_first(best);
    println!("\nwinner: {name}");
    println!("  exact throughput  {}", exact.throughput());
    println!("  nodes used        {}/{}", exact.visit_count(), best.len());
    let star = &candidates.iter().find(|(n, _)| n == "48-ary, fast links first").unwrap().1;
    println!("  vs flat star      {}", bw_first(star).throughput());
}
