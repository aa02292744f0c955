//! The recorder sink: where instrumented code sends events and metrics.
//!
//! [`MemoryRecorder`] collects everything in memory, for export (Chrome
//! trace, metrics JSON) or inspection in tests.

use crate::event::Event;
use crate::metrics::Metrics;

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

    /// Records a trace event.
    pub fn event(&mut self, ev: Event) {
        self.events.push(ev);
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
}
