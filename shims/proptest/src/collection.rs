//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An acceptable length specification for [`vec`](fn@vec).
pub trait SizeRange: Clone {
    /// Draws a length.
    fn sample(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn sample(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for std::ops::Range<usize> {
    fn sample(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty vec length range");
        self.start + rng.below((self.end - self.start) as u128) as usize
    }
}

impl SizeRange for std::ops::RangeInclusive<usize> {
    fn sample(&self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty vec length range");
        lo + rng.below((hi - lo + 1) as u128) as usize
    }
}

/// The strategy returned by [`vec`](fn@vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.len.sample(rng);
        (0..n).map(|_| self.element.new_value(rng)).collect()
    }
}

/// A vector whose elements come from `element` and whose length comes from
/// `len` (a fixed `usize` or a range).
#[must_use]
pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_lengths() {
        let mut rng = TestRng::deterministic("vec");
        let fixed = vec(0u8..10, 4usize);
        assert_eq!(fixed.new_value(&mut rng).len(), 4);
        let ranged = vec(0u8..10, 2..5);
        for _ in 0..50 {
            let v = ranged.new_value(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        let nested = vec((vec(0u8..3, 2usize), 0i128..8), 1..=2);
        let outer = nested.new_value(&mut rng);
        assert!((1..=2).contains(&outer.len()));
    }
}
