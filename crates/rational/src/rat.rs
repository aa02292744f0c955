use crate::error::RatError;
use crate::gcd::gcd_i128;
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number: a normalized `i128` fraction.
///
/// Invariants: the denominator is strictly positive and `gcd(|num|, den) == 1`
/// (with `0` represented as `0/1`). The sign lives on the numerator.
///
/// Arithmetic operators panic on overflow or division by zero with a
/// descriptive message; `checked_*` variants return [`RatError`] instead.
/// The scheduling algorithms in this workspace operate on small fractions, so
/// the panicking operators are the ergonomic default, while long-running
/// sweeps (e.g. deep-tree experiments) use the checked forms.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // > 0
}

impl Rat {
    /// The rational zero, `0/1`.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one, `1/1`.
    pub const ONE: Rat = Rat { num: 1, den: 1 };
    /// The rational two, `2/1`.
    pub const TWO: Rat = Rat { num: 2, den: 1 };

    /// Creates `num/den`, normalized. Panics if `den == 0`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rat {
        Rat::checked_new(num, den).expect("Rat::new: zero denominator")
    }

    /// Creates `num/den`, normalized; `Err` if `den == 0`.
    pub fn checked_new(num: i128, den: i128) -> Result<Rat, RatError> {
        if den == 0 {
            return Err(RatError::DivisionByZero);
        }
        let (mut num, mut den) = if den < 0 {
            // `-i128::MIN` is unrepresentable: normalizing the sign of such a
            // fraction must be an Overflow, not a wrapping negation.
            match (num.checked_neg(), den.checked_neg()) {
                (Some(n), Some(d)) => (n, d),
                _ => return Err(RatError::Overflow { op: "normalize" }),
            }
        } else {
            (num, den)
        };
        let g = gcd_i128(num, den);
        if g > 1 {
            num /= g;
            den /= g;
        }
        Ok(Rat { num, den })
    }

    /// Creates an integer rational `n/1`.
    #[must_use]
    pub const fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator (sign-carrying).
    #[must_use]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (always strictly positive).
    #[must_use]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// `true` iff the value is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` iff the value is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// `true` iff the value is an integer.
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Absolute value.
    #[must_use]
    pub const fn abs(self) -> Rat {
        Rat { num: self.num.abs(), den: self.den }
    }

    /// Multiplicative inverse. Panics on zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        self.checked_recip().expect("Rat::recip of zero")
    }

    /// Multiplicative inverse; `Err` on zero.
    pub fn checked_recip(self) -> Result<Rat, RatError> {
        if self.num == 0 {
            return Err(RatError::DivisionByZero);
        }
        let (num, den) = if self.num < 0 { (-self.den, -self.num) } else { (self.den, self.num) };
        Ok(Rat { num, den })
    }

    /// Checked addition.
    ///
    /// Dispatches through fast lanes that skip redundant gcd passes where the
    /// normalization invariant already guarantees a reduced result; every lane
    /// produces the same bits as the normalize-always reference
    /// ([`crate::reference::add`]) because the canonical form is unique.
    pub fn checked_add(self, rhs: Rat) -> Result<Rat, RatError> {
        let ov = || RatError::Overflow { op: "add" };
        if rhs.den == 1 {
            // a/b + c = (a + c*b)/b, and gcd(a + c*b, b) = gcd(a, b) = 1:
            // already reduced, no gcd needed (covers integer + integer too).
            let num = rhs
                .num
                .checked_mul(self.den)
                .and_then(|t| self.num.checked_add(t))
                .ok_or_else(ov)?;
            return Ok(Rat { num, den: self.den });
        }
        if self.den == 1 {
            let num = self
                .num
                .checked_mul(rhs.den)
                .and_then(|t| t.checked_add(rhs.num))
                .ok_or_else(ov)?;
            return Ok(Rat { num, den: rhs.den });
        }
        if self.den == rhs.den {
            // Same denominator: one gcd pass on the summed numerator.
            let num = self.num.checked_add(rhs.num).ok_or_else(ov)?;
            let g = gcd_i128(num, self.den);
            return Ok(Rat { num: num / g, den: self.den / g });
        }
        if self.is_small() && rhs.is_small() {
            // Small-word lane: with all four halves in i64, each cross
            // product is below 2^126 and their sum below 2^127, so no
            // overflow branch can fire — multiply straight through and
            // normalize once at the end.
            let num = self.num * rhs.den + rhs.num * self.den;
            let den = self.den * rhs.den;
            let g = gcd_i128(num, den);
            return Ok(Rat { num: num / g, den: den / g });
        }
        // General path: a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g*d), g = gcd(b, d).
        let g = gcd_i128(self.den, rhs.den);
        let db = self.den / g;
        let dd = rhs.den / g;
        let lhs_term = self.num.checked_mul(dd).ok_or_else(ov)?;
        let rhs_term = rhs.num.checked_mul(db).ok_or_else(ov)?;
        let num = lhs_term.checked_add(rhs_term).ok_or_else(ov)?;
        let den = db.checked_mul(rhs.den).ok_or_else(ov)?;
        Rat::checked_new(num, den)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Rat) -> Result<Rat, RatError> {
        let neg = Rat {
            num: rhs.num.checked_neg().ok_or(RatError::Overflow { op: "sub" })?,
            den: rhs.den,
        };
        self.checked_add(neg)
    }

    /// Checked multiplication (cross-reduces before multiplying to delay
    /// overflow as long as mathematically possible).
    ///
    /// Like [`Rat::checked_add`], integer and small-word fast lanes skip gcd
    /// work the normalization invariant makes redundant; all lanes agree
    /// bit-for-bit with [`crate::reference::mul`].
    pub fn checked_mul(self, rhs: Rat) -> Result<Rat, RatError> {
        let ov = || RatError::Overflow { op: "mul" };
        if self.num == 0 || rhs.num == 0 {
            return Ok(Rat::ZERO);
        }
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_mul(rhs.num).ok_or_else(ov)?;
            return Ok(Rat { num, den: 1 });
        }
        if rhs.den == 1 {
            // a/b * c = (a * (c/g)) / (b/g) with g = gcd(c, b): one gcd,
            // and reduced because gcd(a, b/g) | gcd(a, b) = 1 and
            // gcd(c/g, b/g) = 1.
            let g = gcd_i128(rhs.num, self.den);
            let num = self.num.checked_mul(rhs.num / g).ok_or_else(ov)?;
            return Ok(Rat { num, den: self.den / g });
        }
        if self.den == 1 {
            let g = gcd_i128(self.num, rhs.den);
            let num = (self.num / g).checked_mul(rhs.num).ok_or_else(ov)?;
            return Ok(Rat { num, den: rhs.den / g });
        }
        if self.is_small() && rhs.is_small() {
            // Small-word lane: raw products fit i128, so one normalize of
            // the product replaces the two cross-gcds plus overflow checks.
            let num = self.num * rhs.num;
            let den = self.den * rhs.den;
            let g = gcd_i128(num, den);
            return Ok(Rat { num: num / g, den: den / g });
        }
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let (an, ad) = (self.num / g1, self.den / g2);
        let (bn, bd) = (rhs.num / g2, rhs.den / g1);
        let num = an.checked_mul(bn).ok_or_else(ov)?;
        let den = ad.checked_mul(bd).ok_or_else(ov)?;
        Ok(Rat { num, den }) // already reduced by construction
    }

    /// Checked division.
    pub fn checked_div(self, rhs: Rat) -> Result<Rat, RatError> {
        self.checked_mul(rhs.checked_recip()?)
    }

    /// Integer part toward negative infinity.
    #[must_use]
    pub const fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Integer part toward positive infinity.
    #[must_use]
    pub const fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Nearest `f64` approximation (for reporting only — never used in the
    /// scheduling math).
    #[must_use]
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "the one sanctioned exit from exact arithmetic"
    )]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Smaller of two values.
    #[must_use]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two values.
    #[must_use]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Both halves fit in `i64`, so cross products cannot overflow `i128`.
    #[inline]
    const fn is_small(self) -> bool {
        fits_i64(self.num) & fits_i64(self.den)
    }

    /// Sums an iterator over a running common denominator, normalizing once
    /// at the end instead of re-reducing after every addition.
    ///
    /// The accumulator holds an *unreduced* fraction whose denominator grows
    /// to the lcm of the denominators seen so far; an addend whose
    /// denominator already divides the accumulator's (the common case in the
    /// η/ψ accumulations, where all rates share the platform period) costs
    /// one multiply and one add — no gcd at all. If the raw accumulator
    /// would overflow, it is reduced to lowest terms and the element is
    /// re-added through [`Rat::checked_add`], so the helper errors only
    /// where element-wise normalized summation would too.
    ///
    /// The result is bit-for-bit the fold of [`Rat::checked_add`]
    /// ([`crate::reference::sum`]): both produce the unique canonical form.
    pub fn sum_with_common_denom<I: IntoIterator<Item = Rat>>(items: I) -> Result<Rat, RatError> {
        let mut num: i128 = 0;
        let mut den: i128 = 1;
        for x in items {
            if let Some((n, d)) = raw_add(num, den, x.num, x.den) {
                (num, den) = (n, d);
            } else {
                // Reduce the accumulator and retry with full normalization.
                let acc = Rat::checked_new(num, den)?.checked_add(x)?;
                (num, den) = (acc.num, acc.den);
            }
        }
        Rat::checked_new(num, den)
    }
}

/// `x` is representable in an `i64` half-word.
#[inline]
const fn fits_i64(x: i128) -> bool {
    x as i64 as i128 == x
}

/// Unreduced `an/ad + bn/bd` over a common denominator; `None` on overflow.
/// Divisibility lanes (one denominator divides the other) skip the gcd.
#[inline]
fn raw_add(an: i128, ad: i128, bn: i128, bd: i128) -> Option<(i128, i128)> {
    if ad == bd {
        return Some((an.checked_add(bn)?, ad));
    }
    if ad % bd == 0 {
        let num = bn.checked_mul(ad / bd)?.checked_add(an)?;
        return Some((num, ad));
    }
    if bd % ad == 0 {
        let num = an.checked_mul(bd / ad)?.checked_add(bn)?;
        return Some((num, bd));
    }
    let g = gcd_i128(ad, bd);
    let da = ad / g;
    let db = bd / g;
    let num = an.checked_mul(db)?.checked_add(bn.checked_mul(da)?)?;
    let den = da.checked_mul(bd)?;
    Some((num, den))
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::from_int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<usize> for Rat {
    fn from(n: usize) -> Rat {
        Rat::from_int(n as i128)
    }
}

macro_rules! panicking_op {
    ($trait_:ident, $method:ident, $checked:ident, $assign_trait:ident, $assign_method:ident, $symbol:literal) => {
        impl $trait_ for Rat {
            type Output = Rat;
            #[inline]
            fn $method(self, rhs: Rat) -> Rat {
                self.$checked(rhs).unwrap_or_else(|e| {
                    panic!("Rat {} Rat failed: {e} ({self} {} {rhs})", $symbol, $symbol)
                })
            }
        }
        impl $assign_trait for Rat {
            #[inline]
            fn $assign_method(&mut self, rhs: Rat) {
                *self = $trait_::$method(*self, rhs);
            }
        }
    };
}

panicking_op!(Add, add, checked_add, AddAssign, add_assign, "+");
panicking_op!(Sub, sub, checked_sub, SubAssign, sub_assign, "-");
panicking_op!(Mul, mul, checked_mul, MulAssign, mul_assign, "*");
panicking_op!(Div, div, checked_div, DivAssign, div_assign, "/");

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -self.num, den: self.den }
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        Rat::sum_with_common_denom(iter).unwrap_or_else(|e| panic!("Rat sum failed: {e}"))
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        Rat::sum_with_common_denom(iter.copied()).unwrap_or_else(|e| panic!("Rat sum failed: {e}"))
    }
}

/// Full 128x128 -> 256-bit unsigned multiplication, as (hi, lo); the
/// tuples compare as the 256-bit products do.
#[must_use]
pub fn widening_mul_u128(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (mid << 64) | (ll & MASK);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Compare a/b and c/d via a*d <=> c*b. Equal denominators (which
        // includes all integer pairs) compare numerators directly; small
        // operands use exact i128 cross products; only fractions with a
        // half beyond i64 pay for 256-bit widening products.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        match (self.num.signum(), other.num.signum()) {
            (s1, s2) if s1 != s2 => return s1.cmp(&s2),
            (0, 0) => return Ordering::Equal,
            _ => {}
        }
        if self.is_small() && other.is_small() {
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        let lhs = widening_mul_u128(self.num.unsigned_abs(), other.den as u128);
        let rhs = widening_mul_u128(other.num.unsigned_abs(), self.den as u128);
        let mag = lhs.cmp(&rhs); // (hi, lo) tuples compare lexicographically
        if self.num > 0 {
            mag
        } else {
            mag.reverse()
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({self})")
    }
}

impl FromStr for Rat {
    type Err = RatError;

    fn from_str(s: &str) -> Result<Rat, RatError> {
        let s = s.trim();
        let err = || RatError::Parse { input: s.chars().take(64).collect() };
        match s.split_once('/') {
            None => {
                let n: i128 = s.parse().map_err(|_| err())?;
                Ok(Rat::from_int(n))
            }
            Some((num, den)) => {
                let n: i128 = num.trim().parse().map_err(|_| err())?;
                let d: i128 = den.trim().parse().map_err(|_| err())?;
                Rat::checked_new(n, d).map_err(|_| err())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, 4), Rat::new(1, -2));
        assert_eq!(Rat::new(0, 5).denom(), 1);
        assert_eq!(Rat::new(6, -3), Rat::from_int(-2));
        assert_eq!(Rat::new(-6, -3), Rat::from_int(2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::from_int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn assign_ops() {
        let mut x = Rat::new(1, 2);
        x += Rat::new(1, 3);
        assert_eq!(x, Rat::new(5, 6));
        x -= Rat::new(1, 6);
        assert_eq!(x, Rat::new(2, 3));
        x *= Rat::from_int(3);
        assert_eq!(x, Rat::from_int(2));
        x /= Rat::from_int(4);
        assert_eq!(x, Rat::new(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::new(-1, 3) < Rat::ZERO);
        assert!(Rat::ZERO < Rat::new(1, 1000));
        assert_eq!(Rat::new(2, 4).cmp(&Rat::new(1, 2)), Ordering::Equal);
        // Values whose cross products exceed i128.
        let big = Rat::new(i128::MAX, 3);
        let bigger = Rat::new(i128::MAX, 2);
        assert!(big < bigger);
    }

    #[test]
    fn min_max() {
        let a = Rat::new(10, 9);
        let b = Rat::ONE;
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn recip() {
        assert_eq!(Rat::new(10, 9).recip(), Rat::new(9, 10));
        assert_eq!(Rat::new(-2, 3).recip(), Rat::new(-3, 2));
        assert!(Rat::ZERO.checked_recip().is_err());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn sum_iterator() {
        let xs = vec![Rat::new(1, 9), Rat::new(5, 6), Rat::new(1, 6)];
        let s: Rat = xs.iter().sum();
        assert_eq!(s, Rat::new(10, 9));
        let s2: Rat = xs.into_iter().sum();
        assert_eq!(s2, Rat::new(10, 9));
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0", "1", "-3", "10/9", "-7/2", " 4 / 6 "] {
            let r: Rat = s.parse().unwrap();
            let back: Rat = r.to_string().parse().unwrap();
            assert_eq!(r, back);
        }
        assert_eq!("4/6".parse::<Rat>().unwrap(), Rat::new(2, 3));
        assert!("".parse::<Rat>().is_err());
        assert!("a/b".parse::<Rat>().is_err());
        assert!("1/0".parse::<Rat>().is_err());
        assert!("1/2/3".parse::<Rat>().is_err());
    }

    #[test]
    fn display_integers_without_denominator() {
        assert_eq!(Rat::new(4, 2).to_string(), "2");
        assert_eq!(Rat::new(10, 9).to_string(), "10/9");
        assert_eq!(format!("{:?}", Rat::new(10, 9)), "Rat(10/9)");
    }

    #[test]
    fn overflow_is_reported() {
        let huge = Rat::from_int(i128::MAX);
        assert!(matches!(huge.checked_add(Rat::ONE), Err(RatError::Overflow { .. })));
        assert!(matches!(huge.checked_mul(Rat::TWO), Err(RatError::Overflow { .. })));
    }

    #[test]
    fn mul_cross_reduction_avoids_spurious_overflow() {
        // (MAX/3) * (3/MAX) = 1 even though naive cross products overflow.
        let a = Rat::new(i128::MAX, 3);
        let b = Rat::new(3, i128::MAX);
        assert_eq!(a * b, Rat::ONE);
    }

    #[test]
    fn to_f64_reporting() {
        assert!((Rat::new(10, 9).to_f64() - 1.111_111_111).abs() < 1e-6);
    }

    #[test]
    fn widening_mul_matches_small_cases() {
        assert_eq!(widening_mul_u128(0, 12345), (0, 0));
        assert_eq!(widening_mul_u128(3, 4), (0, 12));
        let (hi, lo) = widening_mul_u128(u128::MAX, u128::MAX);
        // (2^128-1)^2 = 2^256 - 2^129 + 1
        assert_eq!(hi, u128::MAX - 1);
        assert_eq!(lo, 1);
        let (hi, lo) = widening_mul_u128(u128::MAX, 2);
        assert_eq!(hi, 1);
        assert_eq!(lo, u128::MAX - 1);
    }
}
