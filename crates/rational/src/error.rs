use std::fmt;

/// Errors produced by fallible rational operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RatError {
    /// A denominator of zero was supplied or produced (e.g. `recip` of 0).
    DivisionByZero,
    /// An intermediate or final value exceeded the `i128` range.
    Overflow {
        /// The operation that overflowed, e.g. `"mul"`.
        op: &'static str,
    },
    /// A string could not be parsed as a rational.
    Parse {
        /// The offending input (truncated to 64 bytes).
        input: String,
    },
}

impl fmt::Display for RatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatError::DivisionByZero => write!(f, "rational division by zero"),
            RatError::Overflow { op } => {
                write!(f, "rational overflow in `{op}` (i128 range exceeded)")
            }
            RatError::Parse { input } => {
                write!(f, "cannot parse `{input}` as a rational (expected `p` or `p/q`)")
            }
        }
    }
}

impl std::error::Error for RatError {}
