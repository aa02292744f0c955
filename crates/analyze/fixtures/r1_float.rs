//! Fixture: deliberately violates R1 (`float`). Clippy must flag the casts
//! and types (`disallowed_types`) and the arithmetic (`float_arithmetic`),
//! and must honor the `#[expect]` escape.

/// An average that drifts from the exact one.
pub fn leaky_average(total: i64, count: i64) -> f64 {
    let t = total as f64;
    t / count as f64
}

/// The classic rounding surprise.
pub fn drifts() -> bool {
    let x = 0.1 + 0.2;
    x > 0.3
}

/// A sanctioned exit from exact arithmetic.
#[expect(clippy::disallowed_types, reason = "sanctioned: NOT reported")]
pub fn sanctioned() -> f32 {
    1.5f32
}
