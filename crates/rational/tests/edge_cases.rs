//! Edge cases at the boundaries of `i128` exact arithmetic: zero operands,
//! sign normalization, and overflow behavior of gcd/lcm and `checked_*`
//! constructors. These are the places where a silent wrap would corrupt a
//! schedule instead of failing loudly.

use bwfirst_rational::{gcd_i128, gcd_u128, lcm_i128, lcm_u128, rat, Rat, RatError};

#[test]
fn gcd_with_zero_operands() {
    assert_eq!(gcd_u128(0, 0), 0);
    assert_eq!(gcd_u128(0, 42), 42);
    assert_eq!(gcd_u128(42, 0), 42);
    assert_eq!(gcd_i128(0, -42), 42);
    assert_eq!(gcd_i128(-42, 0), 42);
    assert_eq!(gcd_i128(0, 0), 0);
}

#[test]
fn gcd_is_sign_insensitive() {
    assert_eq!(gcd_i128(-12, 18), 6);
    assert_eq!(gcd_i128(12, -18), 6);
    assert_eq!(gcd_i128(-12, -18), 6);
    // i128::MIN's magnitude is representable as long as the *result* is.
    assert_eq!(gcd_i128(i128::MIN, 2), 2);
    assert_eq!(gcd_i128(i128::MIN, 3), 1);
}

#[test]
fn lcm_of_large_denominators_overflows_to_none() {
    let big = (1u128 << 126) + 1; // odd, so gcd with another odd prime-ish is 1
    assert_eq!(lcm_u128(big, big - 2), None);
    assert_eq!(lcm_u128(1 << 100, 1 << 100), Some(1 << 100)); // equal: no growth
    assert_eq!(lcm_i128(i128::MAX, i128::MAX - 1), None);
    // The i128 wrapper also rejects results that fit u128 but not i128.
    assert_eq!(lcm_i128(1 << 64, (1 << 63) + 1), None);
    assert_eq!(lcm_u128(0, 77), Some(0));
    assert_eq!(lcm_i128(0, 77), Some(0));
}

#[test]
fn negative_denominators_normalize_onto_the_numerator() {
    assert_eq!(Rat::new(-3, -6), rat(1, 2));
    assert_eq!(Rat::new(3, -6), rat(-1, 2));
    assert_eq!(Rat::new(3, -6).numer(), -1);
    assert_eq!(Rat::new(3, -6).denom(), 2);
    assert_eq!(Rat::new(0, -5), Rat::ZERO);
    assert_eq!(Rat::new(0, -5).denom(), 1);
}

#[test]
fn checked_new_rejects_unnormalizable_extremes() {
    assert_eq!(Rat::checked_new(1, 0), Err(RatError::DivisionByZero));
    // den = i128::MIN cannot flip sign; even = reducible cases must go
    // through the same guard before any division happens.
    assert_eq!(Rat::checked_new(1, i128::MIN), Err(RatError::Overflow { op: "normalize" }));
    assert_eq!(Rat::checked_new(i128::MIN, -1), Err(RatError::Overflow { op: "normalize" }));
    // The magnitude itself is fine when the sign doesn't need to flip.
    let huge = Rat::checked_new(i128::MIN, 2).expect("reducible");
    assert_eq!(huge, Rat::new(i128::MIN / 2, 1));
}

#[test]
fn checked_arithmetic_overflows_are_typed() {
    let max = Rat::from_int(i128::MAX);
    assert!(matches!(max.checked_add(Rat::ONE), Err(RatError::Overflow { .. })));
    assert!(matches!(max.checked_mul(Rat::TWO), Err(RatError::Overflow { .. })));
    // Adding fractions whose common denominator exceeds i128.
    let a = Rat::new(1, (1 << 126) + 1);
    let b = Rat::new(1, (1 << 126) - 1);
    assert!(matches!(a.checked_add(b), Err(RatError::Overflow { .. })));
    // The happy path still reduces: 1/6 + 1/3 = 1/2 exactly.
    assert_eq!(rat(1, 6).checked_add(rat(1, 3)), Ok(rat(1, 2)));
}
