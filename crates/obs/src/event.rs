//! Structured trace events on exact rational timestamps.
//!
//! Events are deliberately close to the Chrome trace-event model — paired
//! `Begin`/`End` spans, `Instant` marks and `Counter` samples on a per-track
//! timeline — but keep time as an exact rational so simulator traces replay
//! without drift and can be compared exactly in tests.

use crate::json::{obj, Value};
use std::cmp::Ordering;

/// An exact rational timestamp (`num/den` simulated time units). Not
/// necessarily reduced; equality is by value (`2/4 == 1/2`), like the
/// ordering.
#[derive(Debug, Clone, Copy)]
pub struct Ts {
    /// Numerator.
    pub num: i128,
    /// Denominator (positive).
    pub den: i128,
}

impl Ts {
    /// Time zero.
    pub const ZERO: Ts = Ts { num: 0, den: 1 };

    /// A timestamp from a fraction (denominator must be positive).
    #[must_use]
    pub fn new(num: i128, den: i128) -> Ts {
        debug_assert!(den > 0, "timestamp denominators are positive");
        Ts { num, den }
    }

    /// Approximate value for exporters that need floats.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The `p/q` (or `p` for integers) rendering used across the repo.
    #[must_use]
    pub fn display(self) -> String {
        if self.den == 1 {
            self.num.to_string()
        } else {
            format!("{}/{}", self.num, self.den)
        }
    }
}

impl PartialEq for Ts {
    fn eq(&self, other: &Ts) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ts {}

impl PartialOrd for Ts {
    fn partial_cmp(&self, other: &Ts) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ts {
    /// Exact for every `i128` numerator and positive denominator.
    fn cmp(&self, other: &Ts) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Numerators in `i64` and denominators in `u64`: each cross product
        // is below 2^63 · 2^64 = 2^127 in magnitude, so neither overflows.
        if let (Ok(a), Ok(b), Ok(c), Ok(d)) = (
            i64::try_from(self.num),
            u64::try_from(self.den),
            i64::try_from(other.num),
            u64::try_from(other.den),
        ) {
            return (i128::from(a) * i128::from(d)).cmp(&(i128::from(c) * i128::from(b)));
        }
        cmp_wide(self, other)
    }
}

/// [`Ts`]'s general order: exact `i128` cross products while they fit,
/// then the continued-fraction walk.
fn cmp_wide(x: &Ts, y: &Ts) -> Ordering {
    // Compares a/b with c/d; `flip` records an odd number of reciprocal
    // steps, each of which reverses the order.
    let (mut a, mut b, mut c, mut d) = (x.num, x.den, y.num, y.den);
    let mut flip = false;
    let order = loop {
        if let (Some(ad), Some(cb)) = (a.checked_mul(d), c.checked_mul(b)) {
            break ad.cmp(&cb);
        }
        // Past i128: compare the integer parts, then the remainders
        // r/b and s/d in [0, 1) as the reciprocals b/r and d/s (the
        // continued-fraction walk; the denominators shrink as in
        // Euclid's algorithm).
        let (q, r) = (a.div_euclid(b), a.rem_euclid(b));
        let (p, s) = (c.div_euclid(d), c.rem_euclid(d));
        match (q.cmp(&p), r, s) {
            (Ordering::Equal, 0, 0) => break Ordering::Equal,
            (Ordering::Equal, 0, _) => break Ordering::Less,
            (Ordering::Equal, _, 0) => break Ordering::Greater,
            (Ordering::Equal, _, _) => {
                (a, b, c, d) = (b, r, d, s);
                flip = !flip;
            }
            (order, _, _) => break order,
        }
    };
    if flip {
        order.reverse()
    } else {
        order
    }
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens on the event's track.
    Begin,
    /// The most recent span with the same name on the track closes.
    End,
    /// A point-in-time mark.
    Instant,
    /// A counter sample; the value rides in the `value` arg.
    Counter,
    /// A flow (causal arrow) leaves this track; pairs with the
    /// [`EventKind::FlowEnd`] that carries the same `id` argument.
    FlowStart,
    /// A flow arrives on this track, closing the matching
    /// [`EventKind::FlowStart`].
    FlowEnd,
}

impl EventKind {
    /// The Chrome trace-event phase letter.
    #[must_use]
    pub fn phase(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
            EventKind::FlowStart => "s",
            EventKind::FlowEnd => "f",
        }
    }
}

/// An event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// An integer.
    Int(i128),
    /// An exact rational `num/den`.
    Rat(i128, i128),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl Arg {
    /// JSON rendering: rationals keep the repo's `"p/q"` string form.
    #[must_use]
    pub fn to_json(&self) -> Value {
        match self {
            Arg::Int(n) => Value::Int(*n),
            Arg::Rat(p, q) => Value::Str(Ts::new(*p, *q).display()),
            Arg::F64(x) => Value::Float(*x),
            Arg::Str(s) => Value::Str(s.clone()),
        }
    }

    /// Numeric view, for Chrome counter tracks.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        match self {
            Arg::Int(n) => *n as f64,
            Arg::Rat(p, q) => *p as f64 / *q as f64,
            Arg::F64(x) => *x,
            Arg::Str(_) => f64::NAN,
        }
    }
}

impl From<i128> for Arg {
    fn from(n: i128) -> Arg {
        Arg::Int(n)
    }
}

impl From<u64> for Arg {
    fn from(n: u64) -> Arg {
        Arg::Int(n as i128)
    }
}

impl From<usize> for Arg {
    fn from(n: usize) -> Arg {
        Arg::Int(n as i128)
    }
}

impl From<&str> for Arg {
    fn from(s: &str) -> Arg {
        Arg::Str(s.to_string())
    }
}

impl From<String> for Arg {
    fn from(s: String) -> Arg {
        Arg::Str(s)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When.
    pub ts: Ts,
    /// Which timeline (node id, actor id, 0 for global).
    pub track: u32,
    /// Event name (span name for `Begin`/`End`, counter name for `Counter`).
    pub name: String,
    /// Phase.
    pub kind: EventKind,
    /// Named arguments.
    pub args: Vec<(String, Arg)>,
}

impl Event {
    /// A new event without arguments.
    #[must_use]
    pub fn new(ts: Ts, track: u32, name: impl Into<String>, kind: EventKind) -> Event {
        Event { ts, track, name: name.into(), kind, args: Vec::new() }
    }

    /// Adds an argument (builder style).
    #[must_use]
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<Arg>) -> Event {
        self.args.push((key.into(), value.into()));
        self
    }

    /// The JSON-lines rendering of this event.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("ts", Value::Str(self.ts.display())),
            ("track", Value::Int(i128::from(self.track))),
            ("name", Value::Str(self.name.clone())),
            ("ph", Value::Str(self.kind.phase().to_string())),
        ];
        if !self.args.is_empty() {
            members.push((
                "args",
                Value::Object(self.args.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            ));
        }
        obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timestamps_order_as_rationals() {
        assert!(Ts::new(1, 3) < Ts::new(1, 2));
        assert!(Ts::new(10, 9) > Ts::new(1, 1));
        assert_eq!(Ts::new(2, 4), Ts::new(2, 4));
        assert_eq!(Ts::new(7, 1).display(), "7");
        assert_eq!(Ts::new(10, 9).display(), "10/9");
    }

    #[test]
    fn ordering_is_exact_past_i128_cross_products() {
        let wide = Ts::new(1 << 126, 1);
        assert!(Ts::new(1, 3) < wide);
        assert!(Ts::new(-(1 << 126), 1) < Ts::new(1, 3));
        let (max, min) = (i128::MAX, i128::MIN);
        assert!(Ts::new(max, max - 1) < Ts::new(max - 1, max - 2));
        assert!(Ts::new(min, max) < Ts::new(min + 1, max));
        assert!(Ts::new(min, 1) < Ts::new(min + 1, 1));
        assert_eq!(Ts::new(max - 1, max), Ts::new(max - 1, max));
        assert_eq!(Ts::new(min, 2), Ts::new(min / 2, 1));
        assert!(Ts::new(max, 2) > Ts::new(max / 2, 1));
    }

    proptest! {
        /// Scaling both sides of a fraction by a common factor never
        /// changes the order, even where the cross products overflow.
        #[test]
        fn ordering_survives_common_factors(
            (a, b, c, d) in (-1000i128..1000, 1i128..1000, -1000i128..1000, 1i128..1000),
            (k, m) in (1i128..(1 << 110), 1i128..(1 << 110)),
        ) {
            let want = (a * d).cmp(&(c * b));
            prop_assert_eq!(Ts::new(a * k, b * k).cmp(&Ts::new(c * m, d * m)), want);
            prop_assert_eq!(Ts::new(c * m, d * m).cmp(&Ts::new(a * k, b * k)), want.reverse());
        }
    }

    /// Numerators and denominators at the shortcuts' edges: the `i64`
    /// and `u64` bounds, their neighbours and the `i128` ones.
    fn edge_ts() -> impl Strategy<Value = Ts> {
        let num = prop_oneof![
            Just(i128::from(i64::MIN)),
            Just(i128::from(i64::MAX)),
            Just(i128::from(i64::MIN) - 1),
            Just(i128::from(i64::MAX) + 1),
            Just(i128::MIN),
            Just(i128::MAX),
            Just(0),
            -5i128..5,
            any::<i64>().prop_map(i128::from),
            any::<i128>(),
        ];
        let den = prop_oneof![
            Just(i128::from(u64::MAX)),
            Just(i128::from(u64::MAX) + 1),
            Just(i128::from(u64::MAX) - 1),
            Just(i128::MAX),
            1i128..5,
            any::<u64>().prop_map(|d| i128::from(d.max(1))),
            any::<i128>().prop_map(|d| d.saturating_abs().max(1)),
        ];
        (num, den).prop_map(|(n, d)| Ts::new(n, d))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The equal-denominator and `i64 × u64` shortcuts order exactly
        /// as the general path does.
        #[test]
        fn shortcuts_match_the_general_order(x in edge_ts(), y in edge_ts(), same in any::<bool>()) {
            let y = if same { Ts::new(y.num, x.den) } else { y };
            prop_assert_eq!(x.cmp(&y), cmp_wide(&x, &y));
            prop_assert_eq!(y.cmp(&x), cmp_wide(&y, &x));
        }
    }

    #[test]
    fn shortcuts_hold_at_the_bounds() {
        let (lo, hi, den) = (i128::from(i64::MIN), i128::from(i64::MAX), i128::from(u64::MAX));
        for (x, y) in [
            (Ts::new(lo, den), Ts::new(hi, den - 1)),
            (Ts::new(lo, 1), Ts::new(lo, den)),
            (Ts::new(hi, den), Ts::new(hi, 1)),
            (Ts::new(lo, den - 1), Ts::new(lo, den)),
            (Ts::new(hi, den), Ts::new(hi - 1, den - 1)),
            (Ts::new(i128::MIN, den), Ts::new(i128::MAX, den)),
        ] {
            assert_eq!(x.cmp(&y), cmp_wide(&x, &y), "{x:?} {y:?}");
            assert_eq!(y.cmp(&x), cmp_wide(&y, &x), "{y:?} {x:?}");
        }
    }

    #[test]
    fn equality_agrees_with_ordering() {
        let (half, two_quarters) = (Ts::new(1, 2), Ts::new(2, 4));
        assert_eq!(half.cmp(&two_quarters), std::cmp::Ordering::Equal);
        assert_eq!(half, two_quarters);
        assert_ne!(half, Ts::new(3, 4));
        assert_eq!(Ts::new(0, 7), Ts::ZERO);
        assert_eq!(two_quarters.display(), "2/4", "equality does not reduce the rendering");
    }

    #[test]
    fn event_json_shape() {
        let ev = Event::new(Ts::new(3, 2), 4, "compute", EventKind::Begin).arg("w", 12u64);
        let json = ev.to_json().to_string_compact();
        assert_eq!(json, r#"{"ts":"3/2","track":4,"name":"compute","ph":"B","args":{"w":12}}"#);
    }
}
