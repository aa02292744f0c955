//! The recorder sink: where instrumented code sends events and metrics.
//!
//! [`MemoryRecorder`] collects everything in memory, for export (Chrome
//! trace, metrics JSON) or inspection in tests. A run that exports only
//! metrics records into [`MemoryRecorder::metrics_only`], which keeps no
//! events; instrumented code asks [`MemoryRecorder::keeps_events`] before
//! building one.

use crate::event::Event;
use crate::metrics::Metrics;

/// Collects everything in memory, for export or inspection in tests.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    /// All recorded events, in arrival order.
    pub events: Vec<Event>,
    /// Counters and histograms.
    pub metrics: Metrics,
    metrics_only: bool,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// An empty recorder that keeps metrics and drops every event.
    #[must_use]
    pub fn metrics_only() -> MemoryRecorder {
        MemoryRecorder { metrics_only: true, ..MemoryRecorder::default() }
    }

    /// Whether [`event`](Self::event) keeps what it is given; code that
    /// formats events checks this first.
    #[must_use]
    pub fn keeps_events(&self) -> bool {
        !self.metrics_only
    }

    /// Records a trace event (dropped by a [`metrics_only`](Self::metrics_only)
    /// recorder).
    pub fn event(&mut self, ev: Event) {
        if self.keeps_events() {
            self.events.push(ev);
        }
    }

    /// Adds to a named counter.
    pub fn add(&mut self, name: &str, delta: i128) {
        self.metrics.add(name, delta);
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
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
    }

    #[test]
    fn metrics_only_recorder_drops_events() {
        let mut r = MemoryRecorder::metrics_only();
        assert!(!r.keeps_events());
        r.event(Event::new(Ts::ZERO, 0, "span", EventKind::Begin));
        r.add("proposals", 1);
        assert!(r.events.is_empty());
        assert_eq!(r.metrics.counter("proposals"), 1);
    }
}
