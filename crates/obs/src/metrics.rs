//! Named counters and scalar histograms.
//!
//! Counters are exact (`i128`); histograms keep count/sum/min/max plus
//! power-of-two magnitude buckets, enough to see the shape of queue depths
//! and message sizes without configuring bucket boundaries.

use crate::json::{obj, Value};
use std::collections::BTreeMap;

/// A scalar distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// `buckets[i]` counts observations `v` with `2^(i-1) <= v < 2^i`
    /// (bucket 0 holds `v < 1`).
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// An empty distribution.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let bucket = if v < 1.0 { 0 } else { (v.log2().floor() as usize) + 1 };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Mean observation (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile from the power-of-two buckets: the
    /// target rank is located in its bucket and linearly interpolated
    /// across the bucket's value range, then clamped to the exact
    /// observed `[min, max]`. Resolution is bounded by the bucket width
    /// (a factor of two), which is plenty for queue depths and latency
    /// tails.
    ///
    /// Edge cases are pinned down: `q` is clamped to `[0, 1]`, an empty
    /// histogram returns `NaN` (rendered as `null` in JSON), and a
    /// single-sample or constant distribution returns the exact observed
    /// value at every quantile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.count == 1 || self.min == self.max {
            return self.min;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0.0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let within = rank - seen;
            seen += n as f64;
            if seen >= rank {
                // Bucket 0 spans [min, 1); bucket i spans [2^(i-1), 2^i).
                let (lo, hi) = if i == 0 {
                    (self.min.min(1.0), 1.0)
                } else {
                    (f64::powi(2.0, i as i32 - 1), f64::powi(2.0, i as i32))
                };
                let frac = (within - 0.5) / n as f64;
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A registry of counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic (or at least exact-integer) counters by name.
    pub counters: BTreeMap<String, i128>,
    /// Distributions by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the named counter (creating it at zero). The name is
    /// copied only when the counter is created.
    pub fn add(&mut self, name: &str, delta: i128) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Reads a counter (absent counters read as zero).
    #[must_use]
    pub fn counter(&self, name: &str) -> i128 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one observation in the named histogram. The name is copied
    /// only when the histogram is created.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// JSON rendering (counters then histogram summaries).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counters =
            Value::Object(self.counters.iter().map(|(k, v)| (k.clone(), Value::Int(*v))).collect());
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        obj(vec![
                            ("count", h.count.into()),
                            ("sum", finite(h.sum)),
                            ("min", finite(h.min)),
                            ("max", finite(h.max)),
                            ("mean", finite(h.mean())),
                            ("p50", finite(h.quantile(0.50))),
                            ("p95", finite(h.quantile(0.95))),
                            ("p99", finite(h.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![("counters", counters), ("histograms", histograms)])
    }
}

/// Non-finite summary values (empty histogram, `NaN` quantiles) render
/// as `null` so the registry always serializes to valid JSON.
fn finite(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.add("msgs", 2);
        m.add("msgs", 3);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn repeated_names_match_the_entry_api() {
        let names = ["b", "a", "b", "c", "a", "b", "a"];
        let mut m = Metrics::new();
        let mut want = Metrics::new();
        for (k, name) in names.into_iter().enumerate() {
            m.add(name, k as i128);
            m.observe(name, k as f64 * 1.5);
            *want.counters.entry(name.to_string()).or_insert(0) += k as i128;
            want.histograms.entry(name.to_string()).or_default().observe(k as f64 * 1.5);
        }
        assert_eq!(m, want);
        assert_eq!(m.counter("b"), 7);
        assert_eq!(m.histograms["a"].count, 3);
        assert_eq!(m.to_json().to_string_compact(), want.to_json().to_string_compact());
    }

    #[test]
    fn histogram_tracks_shape() {
        let mut m = Metrics::new();
        for v in [0.5, 1.0, 3.0, 8.0] {
            m.observe("depth", v);
        }
        let h = &m.histograms["depth"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.mean(), 3.125);
        // 0.5 → bucket 0; 1.0 → bucket 1; 3.0 → bucket 2; 8.0 → bucket 4.
        assert_eq!(h.buckets, vec![1, 1, 1, 0, 1]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut m = Metrics::new();
        for v in 1..=100 {
            m.observe("lat", f64::from(v));
        }
        let h = &m.histograms["lat"];
        // Rank 50 lands in bucket [32, 64); interpolation puts it near the
        // true median. p99 lands in the top bucket, clamped to max.
        assert!((h.quantile(0.50) - 50.0).abs() < 4.0, "p50 = {}", h.quantile(0.50));
        assert!(h.quantile(0.95) >= 64.0 && h.quantile(0.95) <= 100.0);
        assert!(h.quantile(0.99) >= h.quantile(0.95));
        assert_eq!(h.quantile(1.0), 100.0);
        assert!(h.quantile(0.0) >= 1.0);
        assert!(Histogram::new().quantile(0.5).is_nan());
    }

    #[test]
    fn quantiles_are_pinned_on_a_uniform_distribution() {
        let mut m = Metrics::new();
        for v in 1..=100 {
            m.observe("lat", f64::from(v));
        }
        let h = &m.histograms["lat"];
        // Rank 50 interpolates inside bucket [32, 64): 32 + 32·(18.5/32).
        assert_eq!(h.quantile(0.50), 50.5);
        // Ranks 95 and 99 land high in the top bucket [64, 128) and are
        // clamped to the exact observed maximum.
        assert_eq!(h.quantile(0.95), 100.0);
        assert_eq!(h.quantile(0.99), 100.0);
        // Out-of-range q is clamped rather than extrapolated.
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
    }

    #[test]
    fn single_sample_quantiles_return_the_sample() {
        let mut m = Metrics::new();
        m.observe("one", 42.0);
        let h = &m.histograms["one"];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0, "q = {q}");
        }
    }

    #[test]
    fn constant_distribution_quantiles_are_exact() {
        let mut m = Metrics::new();
        for _ in 0..100 {
            m.observe("const", 7.0);
        }
        let h = &m.histograms["const"];
        assert_eq!(h.quantile(0.50), 7.0);
        assert_eq!(h.quantile(0.99), 7.0);
    }

    #[test]
    fn empty_histogram_serializes_to_valid_json() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.quantile(0.99).is_nan());
        let mut m = Metrics::new();
        m.histograms.insert("empty".to_string(), h);
        let json = m.to_json().to_string_compact();
        crate::json::parse(&json).expect("empty histogram summary must stay parseable");
        assert!(json.contains(r#""min":null"#), "got: {json}");
        assert!(json.contains(r#""p99":null"#), "got: {json}");
    }

    #[test]
    fn histogram_json_includes_quantiles() {
        let mut m = Metrics::new();
        for v in [2.0, 4.0, 8.0] {
            m.observe("d", v);
        }
        let json = m.to_json().to_string_compact();
        assert!(json.contains("\"p50\""), "got: {json}");
        assert!(json.contains("\"p95\""), "got: {json}");
        assert!(json.contains("\"p99\""), "got: {json}");
    }
}
