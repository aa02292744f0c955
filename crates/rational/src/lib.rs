//! Exact rational arithmetic for bandwidth-centric scheduling.
//!
//! Steady-state tree scheduling (Banino, IPDPS 2005) manipulates task *rates*
//! — tasks per time unit — that are ratios of small integers, and builds
//! periodic schedules whose periods are **least common multiples of rate
//! denominators**. Floating point cannot represent these quantities exactly
//! (an lcm of `f64` denominators is meaningless), so every rate, bandwidth
//! and period in this workspace is a [`Rat`]: a normalized `i128` fraction.
//!
//! The type is deliberately small and `Copy`; it supports
//!
//! * total ordering, exact `+ - * /`, reciprocal,
//! * checked variants of every operation (overflow reporting instead of
//!   silent wraparound),
//! * integer [`gcd_i128`] / [`lcm_i128`] (schedules build Lemma 1's
//!   minimal periods as an `lcm` of integer denominators),
//! * parsing/printing in `"p/q"` form and JSON support in the same form.
//!
//! # Example
//! ```
//! use bwfirst_rational::Rat;
//!
//! let r = Rat::new(10, 9);             // 10 tasks every 9 time units
//! assert_eq!(r, Rat::new(20, 18));     // normalized
//! assert_eq!(r.recip(), Rat::new(9, 10));
//! assert_eq!(r * Rat::from(9), Rat::from(10));
//! assert_eq!("10/9".parse::<Rat>().unwrap(), r);
//! ```

#![forbid(unsafe_code)]
// R1: exact arithmetic stays exact (rules: docs/ANALYSIS.md).
#![deny(clippy::disallowed_types, clippy::float_arithmetic)]
#![warn(missing_docs)]

mod error;
mod gcd;
mod json_impl;
mod rat;
pub mod reference;

pub use error::RatError;
pub use gcd::{gcd_i128, gcd_u128, gcd_u64, lcm_i128, lcm_u128};
pub use rat::{widening_mul_u128, Rat};

/// Convenience constructor: `rat(10, 9)` is `Rat::new(10, 9)`.
///
/// Panics if `den == 0`, like [`Rat::new`].
#[inline]
pub fn rat(num: i128, den: i128) -> Rat {
    Rat::new(num, den)
}
