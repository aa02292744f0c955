//! Fixture: deliberately violates R4 (`shim-import`). Dev-only shim crates
//! (`rand`, `proptest`) must not appear in runtime code.

use rand::Rng;

pub fn jittered(base: u64) -> u64 {
    let mut rng = rand::thread_rng();
    base + rng.gen_range(0..10)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*; // fine here: test-only code is exempt

    #[test]
    fn shims_in_tests_are_fine() {
        let _ = proptest::strategy::Just(1);
    }
}
