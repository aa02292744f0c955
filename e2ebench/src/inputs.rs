//! Seeded input generation. The program under test receives only the
//! platform JSON text built here; the generator is the benchmark's own, so
//! the same seed gives the same inputs whatever the program's RNG does.

use std::fmt::Write;

/// SplitMix64: small, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Mixes a run seed with stream coordinates into one tree seed.
pub fn mix(parts: &[u64]) -> u64 {
    let mut r = Rng::new(0x5EED);
    for &p in parts {
        r.0 ^= p;
        r.next();
    }
    r.next()
}

/// A random tree as platform JSON: `size` nodes, each attached uniformly to
/// a node with fewer than `max_children` children (the attachment rule of
/// `generators::random_tree`). `root_w` is the root's processing time;
/// `w` and `c` draw every other node's processing and link times.
pub fn random_tree_json(
    seed: u64,
    size: usize,
    max_children: usize,
    root_w: u64,
    mut w: impl FnMut(&mut Rng) -> u64,
    mut c: impl FnMut(&mut Rng) -> u64,
) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::with_capacity(size * 48);
    write!(out, "{{\"nodes\":[{{\"id\":0,\"w\":\"{root_w}\"}}").unwrap();
    let mut open: Vec<(usize, usize)> = vec![(0, max_children)];
    for id in 1..size {
        let slot = rng.range(0, open.len() as u64 - 1) as usize;
        let (parent, cap) = open[slot];
        let (wi, ci) = (w(&mut rng), c(&mut rng));
        write!(out, ",{{\"id\":{id},\"parent\":{parent},\"w\":\"{wi}\",\"c\":\"{ci}\"}}").unwrap();
        if cap == 1 {
            open.swap_remove(slot);
        } else {
            open[slot].1 = cap - 1;
        }
        open.push((id, max_children));
    }
    out.push_str("]}");
    out
}

/// `wide_exact`: dyadic weights `w ∈ {1024, 2048, 4096}`, every `c = 1`.
pub fn wide_tree(seed: u64, size: usize) -> String {
    let dyadic = |r: &mut Rng| 1024 << r.range(0, 2);
    let mut root = Rng::new(seed ^ 0xD1AD);
    random_tree_json(seed, size, 4, dyadic(&mut root), dyadic, |_| 1)
}

/// `hetero_grid`: the ROADMAP repro family — root `w = 50`, every other
/// `w ∈ [2n+50, 4n+100]`, every `c ∈ {1, 2, 3}`.
pub fn hetero_tree(seed: u64, size: usize) -> String {
    let n = size as u64;
    random_tree_json(seed, size, 4, 50, |r| r.range(2 * n + 50, 4 * n + 100), |r| r.range(1, 3))
}
