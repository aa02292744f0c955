//! The flight recorder: a fixed-capacity ring buffer of recent events.
//!
//! Long-running simulations cannot afford an unbounded [`MemoryRecorder`],
//! but when something goes wrong the *recent* history is exactly what a
//! post-mortem needs. The [`FlightRecorder`] keeps the last `capacity`
//! entries (older ones are dropped, counted), accumulates metrics in its
//! [`Metrics`], and renders a self-contained JSON post-mortem on
//! demand: the violation(s), the tail of the event stream, and a metrics
//! snapshot. Simulator monitors and the protocol model checker share this
//! artifact format (`bwfirst-postmortem/1`).
//!
//! The ring is generic over its entry type. A hot-path caller stores a
//! small typed entry (no heap allocation per observation) and pays for the
//! [`Event`] rendering only when a post-mortem is dumped; [`Event`] itself
//! renders as the identity.
//!
//! [`MemoryRecorder`]: crate::MemoryRecorder

use crate::event::Event;
use crate::json::{obj, Value};
use crate::metrics::Metrics;
use std::collections::VecDeque;

/// The post-mortem format marker, bumped on breaking schema changes.
pub const POSTMORTEM_FORMAT: &str = "bwfirst-postmortem/1";

/// Entries allocated up front; a larger ring grows on demand, so a huge
/// configured capacity costs memory only once that many entries arrive.
const PREALLOCATED: usize = 4096;

/// A flight-ring entry, rendered to the [`Event`] it stands for only when a
/// post-mortem is dumped.
pub trait FlightEntry {
    /// The event this entry records.
    fn to_event(&self) -> Event;
}

impl FlightEntry for Event {
    fn to_event(&self) -> Event {
        self.clone()
    }
}

/// A bounded recorder for crash dumps, holding the last `capacity` entries.
#[derive(Debug, Clone)]
pub struct FlightRecorder<E = Event> {
    capacity: usize,
    events: VecDeque<E>,
    dropped: u64,
    /// Counters and histograms (unbounded — metrics are O(names), not
    /// O(events)).
    pub metrics: Metrics,
}

impl<E> FlightRecorder<E> {
    /// A recorder keeping the last `capacity` entries (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder<E> {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(PREALLOCATED)),
            dropped: 0,
            metrics: Metrics::new(),
        }
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Entries evicted to keep the ring bounded.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained entries, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.events.iter()
    }

    /// Appends an entry, evicting the oldest when the ring is full.
    pub fn push(&mut self, entry: E) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(entry);
    }
}

impl<E: FlightEntry> FlightRecorder<E> {
    /// Renders the `bwfirst-postmortem/1` artifact: `reason` (one line),
    /// `violations` (conventionally a JSON array of typed violation
    /// objects, each with at least `layer`, `kind` and `message` members),
    /// the last-N `events`, the `dropped` count, and a `metrics` snapshot.
    #[must_use]
    pub fn postmortem(&self, reason: &str, violations: Value) -> Value {
        obj(vec![
            ("format", Value::Str(POSTMORTEM_FORMAT.to_string())),
            ("reason", Value::Str(reason.to_string())),
            ("violations", violations),
            ("dropped", Value::Int(i128::from(self.dropped))),
            ("events", Value::Array(self.events.iter().map(|e| e.to_event().to_json()).collect())),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Ts};
    use crate::json;

    fn ev(k: i128) -> Event {
        Event::new(Ts::new(k, 1), 0, "tick", EventKind::Instant)
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let mut f = FlightRecorder::new(3);
        for k in 0..5 {
            f.push(ev(k));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.dropped(), 2);
        let kept: Vec<String> = f.events().map(|e| e.ts.display()).collect();
        assert_eq!(kept, ["2", "3", "4"]);
    }

    /// A typed entry that renders to the `tick` event at time `k`.
    struct Tick(i128);

    impl FlightEntry for Tick {
        fn to_event(&self) -> Event {
            ev(self.0)
        }
    }

    #[test]
    fn typed_ring_renders_the_last_capacity_entries() {
        let total = 600;
        for capacity in [1usize, 2, 7, 256] {
            let mut typed: FlightRecorder<Tick> = FlightRecorder::new(capacity);
            for k in 0..total {
                typed.push(Tick(k));
            }
            let dump = typed.postmortem("r", Value::Array(Vec::new()));
            let tail = (total - capacity as i128..total).map(|k| ev(k).to_json()).collect();
            assert_eq!(dump["events"], Value::Array(tail), "capacity {capacity}");
            assert_eq!(typed.len(), capacity);
            assert_eq!(typed.dropped(), (total - capacity as i128) as u64);
            assert_eq!(dump["dropped"].as_i128(), Some(total - capacity as i128));
        }
    }

    #[test]
    fn zero_capacity_still_keeps_one() {
        let mut f = FlightRecorder::new(0);
        f.push(ev(1));
        f.push(ev(2));
        assert_eq!(f.len(), 1);
        assert_eq!(f.capacity(), 1);
    }

    #[test]
    fn postmortem_is_self_contained_json() {
        let mut f = FlightRecorder::new(8);
        f.push(ev(7));
        f.metrics.add("monitor.segments", 3);
        f.metrics.observe("queue_depth", 2.0);
        let violation = obj(vec![
            ("layer", Value::Str("sim".into())),
            ("kind", Value::Str("single-port".into())),
            ("message", Value::Str("two concurrent sends".into())),
        ]);
        let dump = f.postmortem("single-port violated", Value::Array(vec![violation]));
        let text = dump.to_string_pretty();
        let v = json::parse(&text).expect("postmortem parses");
        assert_eq!(v["format"].as_str(), Some(POSTMORTEM_FORMAT));
        assert_eq!(v["reason"].as_str(), Some("single-port violated"));
        assert_eq!(v["violations"].as_array().map(<[Value]>::len), Some(1));
        assert_eq!(v["events"].as_array().map(<[Value]>::len), Some(1));
        assert_eq!(v["dropped"].as_i128(), Some(0));
        assert_eq!(v["metrics"]["counters"]["monitor.segments"].as_i128(), Some(3));
    }
}
