//! Fixture: deliberately violates R2 (`panic`). Unwraps and panics in what
//! would be a hot path must be flagged; the test module must be skipped.

/// A rate read that panics instead of returning a typed error.
pub fn hot_path(input: Option<u32>) -> u32 {
    let v = input.unwrap();
    if v == 0 {
        panic!("zero is not a rate");
    }
    v
}

/// A schedule lookup that panics instead of returning a typed error.
pub fn also_hot(r: Result<u32, String>) -> u32 {
    r.expect("schedule must exist")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(super::hot_path(Some(3)), 3);
        let ok: Result<u32, String> = Ok(1);
        ok.unwrap(); // NOT reported
    }
}
