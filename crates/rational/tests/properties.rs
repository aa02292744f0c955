//! Property-based tests for the exact rational type: field axioms, ordering
//! consistency and normalization — the invariants the scheduling layers
//! rely on.

use bwfirst_rational::{gcd_i128, Rat};
use proptest::prelude::*;

/// Small components keep intermediate products far from i128 overflow so the
/// panicking operators are safe to use inside properties.
fn small_rat() -> impl Strategy<Value = Rat> {
    (-10_000i128..=10_000, 1i128..=10_000).prop_map(|(n, d)| Rat::new(n, d))
}

fn positive_rat() -> impl Strategy<Value = Rat> {
    (1i128..=10_000, 1i128..=10_000).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    #[test]
    fn normalized_invariant(r in small_rat()) {
        prop_assert!(r.denom() > 0);
        // gcd(|num|, den) == 1, except num == 0 where den == 1.
        if r.numer() == 0 {
            prop_assert_eq!(r.denom(), 1);
        } else {
            prop_assert_eq!(gcd_i128(r.numer(), r.denom()), 1);
        }
    }

    #[test]
    fn add_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associates(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_distributes_over_add(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn sub_is_add_neg(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn div_inverts_mul(a in small_rat(), b in positive_rat()) {
        prop_assert_eq!((a * b) / b, a);
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn recip_involution(a in positive_rat()) {
        prop_assert_eq!(a.recip().recip(), a);
        prop_assert_eq!(a * a.recip(), Rat::ONE);
    }

    #[test]
    fn ordering_translation_invariant(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a < b, a + c < b + c);
    }

    #[test]
    fn ordering_matches_f64_far_apart(a in small_rat(), b in small_rat()) {
        // f64 comparison agrees whenever values are not nearly equal.
        if (a.to_f64() - b.to_f64()).abs() > 1e-6 {
            prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
        }
    }

    #[test]
    fn floor_ceil_bracket(a in small_rat()) {
        let f = Rat::from_int(a.floor());
        let c = Rat::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(a - f < Rat::ONE);
        prop_assert!(c - a < Rat::ONE);
    }

    #[test]
    fn parse_display_roundtrip(a in small_rat()) {
        let s = a.to_string();
        let back: Rat = s.parse().unwrap();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn json_roundtrip(a in small_rat()) {
        let s = a.to_json().to_string_compact();
        let parsed = bwfirst_obs::json::parse(&s).unwrap();
        let back = Rat::from_json(&parsed).unwrap();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn checked_ops_agree_with_panicking(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a.checked_add(b).unwrap(), a + b);
        prop_assert_eq!(a.checked_sub(b).unwrap(), a - b);
        prop_assert_eq!(a.checked_mul(b).unwrap(), a * b);
        if !b.is_zero() {
            prop_assert_eq!(a.checked_div(b).unwrap(), a / b);
        }
    }
}
