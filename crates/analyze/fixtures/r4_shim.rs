//! Fixture: deliberately violates R4 (`shim-import`). Dev-only shim crates
//! (`rand`, `proptest`) are not dependencies of the runtime crates, so
//! naming one there does not resolve.

use rand::Rng;

/// A jitter drawn from a dev-only shim.
pub fn jittered(base: u64) -> u64 {
    let mut rng = rand::thread_rng();
    base + rng.gen_range(0..10)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*; // fine here: proptest is a dev-dependency

    #[test]
    fn shims_in_tests_are_fine() {
        let _ = proptest::strategy::Just(1);
    }
}
