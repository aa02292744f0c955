//! The recorder sink: where instrumented code sends events and metrics.
//!
//! Call sites are generic over [`Recorder`] (static dispatch), so the
//! [`Noop`] recorder compiles to nothing — hot loops pay for instrumentation
//! only when a collecting recorder is plugged in. Guard any argument
//! construction with [`Recorder::enabled`] when it is not free.

use crate::event::Event;
use crate::metrics::Metrics;

/// A sink for trace events and metrics.
pub trait Recorder {
    /// Whether this recorder keeps anything. Call sites may skip building
    /// event arguments entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a trace event.
    fn event(&mut self, ev: Event);

    /// Adds to a named counter.
    fn add(&mut self, name: &str, delta: i128);

    /// Records one histogram observation.
    fn observe(&mut self, name: &str, value: f64);
}

/// The zero-cost recorder: every method is an empty inlined body.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn event(&mut self, _ev: Event) {}

    #[inline(always)]
    fn add(&mut self, _name: &str, _delta: i128) {}

    #[inline(always)]
    fn observe(&mut self, _name: &str, _value: f64) {}
}

/// Collects everything in memory, for export or inspection in tests.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    /// All recorded events, in arrival order.
    pub events: Vec<Event>,
    /// Counters and histograms.
    pub metrics: Metrics,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// One event per line, each a compact JSON object (the JSON-lines
    /// export).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }
}

impl Recorder for MemoryRecorder {
    fn event(&mut self, ev: Event) {
        self.events.push(ev);
    }

    fn add(&mut self, name: &str, delta: i128) {
        self.metrics.add(name, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }
}

/// Forwarding lets call sites take `&mut impl Recorder` and still pass the
/// recorder down by reference.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn event(&mut self, ev: Event) {
        (**self).event(ev);
    }

    fn add(&mut self, name: &str, delta: i128) {
        (**self).add(name, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        (**self).observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Ts};

    #[test]
    fn memory_recorder_collects() {
        let mut r = MemoryRecorder::new();
        r.event(Event::new(Ts::ZERO, 0, "span", EventKind::Begin));
        r.event(Event::new(Ts::new(1, 2), 0, "span", EventKind::End));
        r.add("proposals", 1);
        r.observe("queue_depth", 3.0);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.metrics.counter("proposals"), 1);
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with(r#"{"ts":"0""#));
    }

    #[test]
    fn noop_reports_disabled() {
        let mut n = Noop;
        assert!(!n.enabled());
        n.add("x", 1); // compiles to nothing, panics never
    }
}
