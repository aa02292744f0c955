//! The one simulation engine: configuration, event queue, buffer
//! accounting, the event loop and the measurement report.
//!
//! Every executor is a [`Policy`] on the same Section 3 node model. The
//! [`Engine`] owns what they share: the event loop and its horizon cut-off,
//! the per-node received/computed counters, buffer occupancy, root
//! injection accounting, completions, and the assembled [`SimReport`]. A
//! policy keeps only its own routing, quota, demand or return rules.
//!
//! Tasks are counts here: no executor tracks which task is which. Per-task
//! quantities such as sojourn times come from the provenance trace
//! ([`crate::provenance`]), which follows each task through the [`Probe`]
//! seam.

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::gantt::{Gantt, SegmentKind};
use crate::probe::{GanttProbe, Probe};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{lcm_i128, Rat};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration shared by all executors.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulate events up to this time.
    pub horizon: Rat,
    /// Stop injecting tasks at the root at this time (wind-down studies).
    pub stop_injection_at: Option<Rat>,
    /// Inject at most this many tasks in total (makespan studies).
    pub total_tasks: Option<u64>,
    /// Record the full Gantt trace (costs memory on long runs).
    pub record_gantt: bool,
    /// Force the exact `Rat`-keyed event queue instead of the integer-tick
    /// fast path. Both orderings are identical (conformance-tested); this
    /// switch exists for benchmarking and cross-checking.
    pub exact_queue: bool,
    /// Seed for randomized executor policies. Every executor is fully
    /// deterministic today (the event queue breaks time ties by insertion
    /// order), so the seed changes nothing at runtime; it is recorded in
    /// provenance-trace headers so recorded runs stay replayable
    /// bit-for-bit once stochastic policies exist.
    pub seed: u64,
}

impl SimConfig {
    /// A config that just runs to `horizon` with a Gantt trace.
    #[must_use]
    pub fn to_horizon(horizon: Rat) -> SimConfig {
        SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        }
    }

    /// The effective injection cut-off: `stop_injection_at` clipped to the
    /// horizon.
    #[must_use]
    pub fn injection_end(&self) -> Rat {
        self.stop_injection_at.map_or(self.horizon, |s| s.min(self.horizon))
    }
}

/// Scales larger than this fall back to exact keys: they signal pathological
/// denominators where tick magnitudes (and the lcm itself) stop being cheap.
const MAX_TICK_SCALE: i128 = i64::MAX as i128;

/// The least common multiple of the denominators of every duration a run can
/// schedule: node compute times, link communication times, and any
/// executor-specific steps in `extras` (e.g. the root's release step).
///
/// Every event time is a sum of such durations, so its denominator divides
/// the returned scale and the time rescales to an integer *tick*. Returns
/// `None` — meaning "use exact `Rat` keys" — when the lcm overflows `i128`
/// or exceeds [`MAX_TICK_SCALE`].
pub(crate) fn tick_scale_hint(
    platform: &Platform,
    extras: impl IntoIterator<Item = Rat>,
) -> Option<i128> {
    let mut scale: i128 = 1;
    let mut fold = |den: i128| -> bool {
        match lcm_i128(scale, den) {
            Some(l) if l <= MAX_TICK_SCALE => {
                scale = l;
                true
            }
            _ => false,
        }
    };
    for id in platform.node_ids() {
        if let Some(w) = platform.weight(id).time() {
            if !fold(w.denom()) {
                return None;
            }
        }
        if let Some(c) = platform.link_time(id) {
            if !fold(c.denom()) {
                return None;
            }
        }
    }
    for r in extras {
        if !fold(r.denom()) {
            return None;
        }
    }
    Some(scale)
}

/// Priority event queue ordered by `(time, insertion sequence)` — ties fire
/// in insertion order, keeping runs deterministic.
///
/// One heap is active at a time; its keys are either
///
/// * **ticks** — when the queue was built with a scale `S` (the lcm of all
///   duration denominators, see [`tick_scale_hint`]) an event time `n/d`
///   with `d | S` keys as the integer `n·(S/d)`, so heap sift-up/down costs
///   plain `i128` compares instead of rational comparisons; or
/// * **exact** — `Rat` keys, from the start when no scale is set, and for
///   the rest of the run after the first push whose time does not rescale
///   (its denominator does not divide `S`, as for a release step re-derived
///   after renegotiation, or the tick would overflow `i128`). That push
///   first moves every pending tick entry to an exact key read from its
///   payload slot, keeping its sequence number.
///
/// A tick is the time rescaled, not rounded, so pop order (tie-breaks
/// included) is the same under either key; the conformance tests pin this
/// down. The popped time is the original `Rat`, kept in the payload slot,
/// never reconstructed from the tick.
///
/// Payload slots freed by [`pop`](EventQueue::pop) are recycled through a
/// free list, so the payload arena stays bounded by the peak number of
/// *pending* events instead of growing with every event ever pushed (long
/// horizons used to leak one `Option<E>` per event).
pub(crate) struct EventQueue<E> {
    keys: Keys,
    payloads: Vec<Option<(Rat, E)>>,
    free: Vec<u64>,
    seq: u64,
}

/// The active heap of `(key, seq, payload slot)` entries.
enum Keys {
    Ticks { scale: i128, heap: BinaryHeap<Reverse<(i128, u64, u64)>> },
    Exact(BinaryHeap<Reverse<(Rat, u64, u64)>>),
}

impl<E> EventQueue<E> {
    /// A queue keyed by integer ticks at `scale` (`None` = exact keys).
    pub fn with_scale(scale: Option<i128>) -> Self {
        let keys = match scale {
            Some(scale) => Keys::Ticks { scale, heap: BinaryHeap::new() },
            None => Keys::Exact(BinaryHeap::new()),
        };
        EventQueue { keys, payloads: Vec::new(), free: Vec::new(), seq: 0 }
    }

    pub fn push(&mut self, time: Rat, ev: E) {
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.payloads[idx as usize].is_none());
                self.payloads[idx as usize] = Some((time, ev));
                idx
            }
            None => {
                self.payloads.push(Some((time, ev)));
                (self.payloads.len() - 1) as u64
            }
        };
        let seq = self.seq;
        self.seq += 1;
        if let Keys::Ticks { scale, heap } = &mut self.keys {
            // `time` rescaled to an integer tick, when the scale divides
            // cleanly and the product fits.
            let den = time.denom();
            if *scale % den == 0 {
                if let Some(tick) = time.numer().checked_mul(*scale / den) {
                    heap.push(Reverse((tick, seq, idx)));
                    return;
                }
            }
            // Keys are exact from here on. Every pending entry refers to a
            // live slot holding its time.
            let payloads = &self.payloads;
            let exact = std::mem::take(heap)
                .into_iter()
                .filter_map(|Reverse((_, seq, idx))| {
                    payloads[idx as usize].as_ref().map(|&(t, _)| Reverse((t, seq, idx)))
                })
                .collect();
            self.keys = Keys::Exact(exact);
        }
        if let Keys::Exact(heap) = &mut self.keys {
            heap.push(Reverse((time, seq, idx)));
        }
    }

    pub fn pop(&mut self) -> Option<(Rat, E)> {
        // Every heap entry refers to a live arena slot (push is the only
        // producer); skip rather than panic if that invariant ever breaks.
        loop {
            let idx = match &mut self.keys {
                Keys::Ticks { heap, .. } => heap.pop()?.0 .2,
                Keys::Exact(heap) => heap.pop()?.0 .2,
            };
            let slot = self.payloads.get_mut(idx as usize).and_then(Option::take);
            debug_assert!(slot.is_some(), "heap entry without payload");
            if let Some((time, ev)) = slot {
                self.free.push(idx);
                return Some((time, ev));
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::Ticks { heap, .. } => heap.len(),
            Keys::Exact(heap) => heap.len(),
        }
    }
}

pub(crate) struct BufferTracker {
    size: Vec<u64>,
    max: Vec<u64>,
    weighted: Vec<Rat>, // ∫ size dt
    last_change: Vec<Rat>,
}

impl BufferTracker {
    pub fn new(n: usize) -> Self {
        BufferTracker {
            size: vec![0; n],
            max: vec![0; n],
            weighted: vec![Rat::ZERO; n],
            last_change: vec![Rat::ZERO; n],
        }
    }

    pub fn set(&mut self, node: NodeId, t: Rat, new_size: u64) {
        let i = node.index();
        self.weighted[i] += Rat::from(self.size[i] as usize) * (t - self.last_change[i]);
        self.last_change[i] = t;
        self.size[i] = new_size;
        self.max[i] = self.max[i].max(new_size);
    }

    pub fn add(&mut self, node: NodeId, t: Rat, delta: i64) {
        let cur = self.size[node.index()] as i64 + delta;
        debug_assert!(cur >= 0, "buffer underflow at {node}");
        self.set(node, t, cur as u64);
    }

    /// Current occupancy of one node's buffer.
    pub fn size(&self, node: NodeId) -> u64 {
        self.size[node.index()]
    }

    pub fn finalize(&self, end: Rat) -> Vec<BufferStats> {
        let n = self.size.len();
        (0..n)
            .map(|i| {
                let weighted = self.weighted[i]
                    + Rat::from(self.size[i] as usize) * (end - self.last_change[i]);
                BufferStats {
                    max: self.max[i],
                    time_avg: if end.is_positive() { weighted / end } else { Rat::ZERO },
                }
            })
            .collect()
    }
}

/// Buffer occupancy summary of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferStats {
    /// Peak number of buffered tasks.
    pub max: u64,
    /// Time-averaged number of buffered tasks over the run.
    pub time_avg: Rat,
}

/// One executor's rules on top of the shared node model: which events it
/// schedules and what each one does. A policy owns its [`Engine`]; like the
/// probe it is a generic parameter, so the per-event path is statically
/// dispatched.
pub(crate) trait Policy {
    /// The executor's own event kinds.
    type Event;
    /// The caller's probe.
    type Probe: Probe;
    /// What can abort a run.
    type Error;

    /// The engine this policy drives.
    fn engine(&mut self) -> &mut Engine<Self::Event, Self::Probe>;

    /// Seeds the queue (and any prefilled stock) at `t = 0`.
    fn start(&mut self) -> Result<(), Self::Error>;

    /// Handles one event firing at `t`.
    fn on_event(&mut self, t: Rat, ev: Self::Event) -> Result<(), Self::Error>;

    /// Runs the policy to the horizon and assembles the report.
    fn run(&mut self) -> Result<SimReport, Self::Error> {
        self.start()?;
        while let Some((t, ev)) = self.engine().next_event() {
            self.on_event(t, ev)?;
        }
        Ok(self.engine().report())
    }
}

/// The state every executor shares: the event queue, the probes, the
/// per-node counters, buffer occupancy, root injection accounting and the
/// completions.
pub(crate) struct Engine<E, P> {
    pub cfg: SimConfig,
    pub root: NodeId,
    pub queue: EventQueue<E>,
    /// The Gantt recorder `cfg.record_gantt` asks for, next to the caller's
    /// probe.
    pub probe: (GanttProbe, P),
    buffers: BufferTracker,
    /// Tasks received from the parent per node (root: tasks injected, plus
    /// any prefilled stock).
    pub received: Vec<u64>,
    /// Tasks computed per node.
    pub computed: Vec<u64>,
    completions: Vec<(Rat, NodeId)>,
    injected: u64,
    last_injection: Option<Rat>,
}

impl<E, P: Probe> Engine<E, P> {
    /// An engine for `platform` whose event times are sums of its durations
    /// and of `extras` (see [`tick_scale_hint`]).
    pub fn new(
        platform: &Platform,
        cfg: &SimConfig,
        extras: impl IntoIterator<Item = Rat>,
        probe: P,
    ) -> Self {
        let n = platform.len();
        let scale = if cfg.exact_queue { None } else { tick_scale_hint(platform, extras) };
        Engine {
            cfg: cfg.clone(),
            root: platform.root(),
            queue: EventQueue::with_scale(scale),
            probe: (GanttProbe::new(cfg.record_gantt), probe),
            buffers: BufferTracker::new(n),
            received: vec![0; n],
            computed: vec![0; n],
            completions: Vec::new(),
            injected: 0,
            last_injection: None,
        }
    }

    /// The next event inside the horizon, sampling the queue depth.
    fn next_event(&mut self) -> Option<(Rat, E)> {
        let (t, ev) = self.queue.pop().filter(|&(t, _)| t <= self.cfg.horizon)?;
        self.probe.queue_depth(t, self.queue.len());
        Some((t, ev))
    }

    /// Whether the root may still inject a task at `t`: before the
    /// injection cut-off and under the task budget.
    pub fn has_supply(&self, t: Rat) -> bool {
        t < self.cfg.injection_end() && self.cfg.total_tasks.is_none_or(|n| self.injected < n)
    }

    /// Schedules the root's next release `ev` at `t`, if it has supply.
    pub fn release_at(&mut self, t: Rat, ev: E) {
        if self.has_supply(t) {
            self.queue.push(t, ev);
        }
    }

    /// The root injects one fresh task at `t`.
    pub fn inject(&mut self, t: Rat) {
        self.injected += 1;
        self.last_injection = Some(t);
        self.received[self.root.index()] += 1;
        self.probe.task_enter(self.root, t, false);
    }

    /// Whether `node` has a task to hand out at `t`: the root taps the
    /// source while it has supply, other nodes their buffer.
    pub fn has_task(&self, node: NodeId, t: Rat) -> bool {
        if node == self.root {
            self.has_supply(t)
        } else {
            self.buffers.size(node) > 0
        }
    }

    /// Takes one task from `node`'s stock at `t`, if it has one.
    pub fn take(&mut self, node: NodeId, t: Rat) -> bool {
        if !self.has_task(node, t) {
            return false;
        }
        if node == self.root {
            self.inject(t);
        } else {
            self.buffer_add(node, t, -1);
        }
        true
    }

    /// Current occupancy of one node's buffer.
    pub fn buffered(&self, node: NodeId) -> u64 {
        self.buffers.size(node)
    }

    /// Changes one node's buffer by `delta` tasks at `t`.
    pub fn buffer_add(&mut self, node: NodeId, t: Rat, delta: i64) {
        self.buffers.add(node, t, delta);
        self.probe.buffer(node, t, self.buffers.size(node));
    }

    /// One transfer `from → to` over `[start, end)`: the sender's port and
    /// the receiver's port are busy together (single-port model).
    pub fn transfer(&mut self, from: NodeId, to: NodeId, start: Rat, end: Rat) {
        self.probe.segment(from, SegmentKind::Send(to), start, end);
        self.probe.segment(to, SegmentKind::Receive, start, end);
    }

    /// A task counts as done at `t` on `node`.
    pub fn record_completion(&mut self, node: NodeId, t: Rat) {
        self.completions.push((t, node));
    }

    /// `node` finished computing a task at `t`.
    pub fn complete(&mut self, node: NodeId, t: Rat) {
        self.computed[node.index()] += 1;
        self.record_completion(node, t);
    }

    fn report(&mut self) -> SimReport {
        let cfg = &self.cfg;
        let exhausted = cfg.total_tasks.is_some_and(|n| self.injected >= n);
        let injection_stopped_at = if exhausted {
            self.last_injection
        } else {
            cfg.stop_injection_at.filter(|&s| s <= cfg.horizon)
        };
        let mut completions = std::mem::take(&mut self.completions);
        completions.sort();
        SimReport {
            horizon: cfg.horizon,
            injection_stopped_at,
            completions,
            computed: std::mem::take(&mut self.computed),
            received: std::mem::take(&mut self.received),
            buffers: self.buffers.finalize(cfg.horizon),
            gantt: std::mem::take(&mut self.probe.0).into_gantt(),
        }
    }
}

/// Everything measured during a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The simulated horizon.
    pub horizon: Rat,
    /// When injection actually stopped (None = ran to horizon with supply).
    pub injection_stopped_at: Option<Rat>,
    /// `(completion time, node)` of every computed task, in time order.
    pub completions: Vec<(Rat, NodeId)>,
    /// Tasks computed per node.
    pub computed: Vec<u64>,
    /// Tasks received from the parent per node (root: tasks injected).
    pub received: Vec<u64>,
    /// Buffer occupancy per node.
    pub buffers: Vec<BufferStats>,
    /// Full activity trace, if requested.
    pub gantt: Option<Gantt>,
}

impl SimReport {
    /// Total tasks computed platform-wide.
    #[must_use]
    pub fn total_computed(&self) -> u64 {
        self.computed.iter().sum()
    }

    /// Completions in the half-open window `[from, to)`.
    #[must_use]
    pub fn completions_in(&self, from: Rat, to: Rat) -> u64 {
        let lo = self.completions.partition_point(|&(t, _)| t < from);
        let hi = self.completions.partition_point(|&(t, _)| t < to);
        (hi - lo) as u64
    }

    /// Average throughput over `[from, to)` in tasks per time unit.
    #[must_use]
    pub fn throughput_in(&self, from: Rat, to: Rat) -> Rat {
        assert!(to > from);
        Rat::from(self.completions_in(from, to) as usize) / (to - from)
    }

    /// Time of the last completion, if any task completed.
    #[must_use]
    pub fn last_completion(&self) -> Option<Rat> {
        self.completions.last().map(|&(t, _)| t)
    }

    /// Wind-down length: time from the injection stop to the last
    /// completion. `None` when injection never stopped inside the horizon.
    #[must_use]
    pub fn wind_down(&self) -> Option<Rat> {
        let stop = self.injection_stopped_at?;
        Some((self.last_completion()? - stop).max(Rat::ZERO))
    }

    /// Earliest steady-state entry: the first time `t` (a completion time or
    /// 0) such that *every* full window `[t + kW, t + (k+1)W]` before
    /// `until` contains at least `⌊rate·W⌋` completions. Returns `None` when
    /// no candidate qualifies or no full window fits. A candidate whose
    /// window ends beyond the `i128` range cannot be checked and does not
    /// qualify.
    #[must_use]
    pub fn steady_state_entry(&self, rate: Rat, window: Rat, until: Rat) -> Option<Rat> {
        assert!(window.is_positive());
        if window > until {
            return None;
        }
        let expected = (rate * window).floor() as u64;
        let qualifies = |t: Rat| -> bool {
            let (mut lo, mut fits) = (t, false);
            loop {
                let Ok(hi) = lo.checked_add(window) else { return false };
                if hi > until {
                    return fits;
                }
                if self.completions_in(lo, hi) < expected {
                    return false;
                }
                (lo, fits) = (hi, true);
            }
        };
        if qualifies(Rat::ZERO) {
            return Some(Rat::ZERO);
        }
        self.completions.iter().map(|&(t, _)| t).find(|&t| qualifies(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    impl<E> EventQueue<E> {
        /// An exact-keyed queue (no tick rescaling).
        fn new() -> Self {
            EventQueue::with_scale(None)
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Size of the payload arena (bounded by the peak pending count).
        fn arena_capacity(&self) -> usize {
            self.payloads.len()
        }

        /// Pending events currently keyed by integer ticks (diagnostics).
        fn ticked_len(&self) -> usize {
            match &self.keys {
                Keys::Ticks { heap, .. } => heap.len(),
                Keys::Exact(_) => 0,
            }
        }
    }

    fn report(times: &[(i128, u32)]) -> SimReport {
        SimReport {
            horizon: rat(100, 1),
            injection_stopped_at: None,
            completions: times.iter().map(|&(t, n)| (rat(t, 1), NodeId(n))).collect(),
            computed: vec![],
            received: vec![],
            buffers: vec![],
            gantt: None,
        }
    }

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(rat(2, 1), "b");
        q.push(rat(1, 1), "a1");
        q.push(rat(1, 1), "a2");
        assert_eq!(q.pop(), Some((rat(1, 1), "a1")));
        assert_eq!(q.pop(), Some((rat(1, 1), "a2")));
        assert_eq!(q.pop(), Some((rat(2, 1), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn queue_arena_stays_bounded() {
        // Regression: popped payload slots must be reused, or the arena
        // grows by one slot per event over the whole run.
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..10_000u64 {
            // Keep at most 3 events pending at any moment.
            q.push(rat(round as i128, 1), round);
            q.push(rat(round as i128, 1), round);
            q.push(rat(round as i128 + 1, 1), round);
            q.pop();
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.arena_capacity() <= 3,
            "payload arena grew to {} slots for 3 concurrent events",
            q.arena_capacity()
        );
    }

    #[test]
    fn tick_queue_matches_exact_queue_order() {
        // Same pushes, same pops, whichever lane the keys use. Includes
        // duplicate times so the seq tie-break is exercised.
        let times = [
            rat(3, 2),
            rat(1, 6),
            rat(1, 6),
            rat(2, 3),
            rat(0, 1),
            rat(5, 6),
            rat(3, 2),
            rat(1, 1),
        ];
        let mut exact: EventQueue<usize> = EventQueue::new();
        let mut ticked: EventQueue<usize> = EventQueue::with_scale(Some(6));
        for (i, &t) in times.iter().enumerate() {
            exact.push(t, i);
            ticked.push(t, i);
        }
        assert_eq!(ticked.ticked_len(), times.len(), "every key should rescale");
        for _ in 0..times.len() {
            assert_eq!(ticked.pop(), exact.pop());
        }
        assert!(ticked.is_empty() && exact.is_empty());
    }

    #[test]
    fn non_dividing_denominators_demote_per_event() {
        // Scale 6 cannot represent sevenths: the first one switches the
        // queue to exact keys for good, and pop order is still correct.
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(rat(1, 7), "sevenths-early");
        q.push(rat(1, 6), "sixths");
        q.push(rat(1, 7), "sevenths-tie");
        q.push(rat(1, 1), "late");
        assert_eq!(q.ticked_len(), 0);
        assert_eq!(q.pop(), Some((rat(1, 7), "sevenths-early")));
        assert_eq!(q.pop(), Some((rat(1, 7), "sevenths-tie")));
        assert_eq!(q.pop(), Some((rat(1, 6), "sixths")));
        assert_eq!(q.pop(), Some((rat(1, 1), "late")));
        assert!(q.is_empty());
    }

    #[test]
    fn cross_lane_order_is_globally_correct() {
        // Rescalable and non-rescalable times interleave; once the queue
        // turns exact, order is by time and ties by insertion sequence.
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(rat(5, 21), "rat-early"); // 21 ∤ 6: the queue turns exact
        q.push(rat(1, 6), "tick-first"); // earliest time
        q.push(rat(5, 21), "rat-tie"); // tie with rat-early
        q.push(rat(1, 2), "tick-late");
        assert_eq!(q.ticked_len(), 0);
        assert_eq!(q.pop(), Some((rat(1, 6), "tick-first")));
        assert_eq!(q.pop(), Some((rat(5, 21), "rat-early")));
        assert_eq!(q.pop(), Some((rat(5, 21), "rat-tie")));
        assert_eq!(q.pop(), Some((rat(1, 2), "tick-late")));
        assert!(q.is_empty());
    }

    #[test]
    fn overflowing_tick_products_demote() {
        // A time whose numerator is huge: tick = num · (scale/den) would
        // overflow i128, so the queue must turn exact.
        let huge = Rat::new(i128::MAX / 2, 1); // tick would be num·6: overflow
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(huge, "huge");
        q.push(rat(1, 2), "small");
        assert_eq!(q.ticked_len(), 0);
        assert_eq!(q.pop(), Some((rat(1, 2), "small")));
        assert_eq!(q.pop(), Some((huge, "huge")));
    }

    #[test]
    fn migration_keeps_pending_ties_in_insertion_order() {
        // Equal-time tick entries are pending when a non-rescalable push
        // moves them to exact keys; their sequence numbers travel along,
        // so they still fire in insertion order, before a later tie.
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(rat(1, 2), "half-1");
        q.push(rat(1, 3), "third");
        q.push(rat(1, 2), "half-2");
        assert_eq!(q.ticked_len(), 3);
        q.push(rat(1, 7), "seventh");
        assert_eq!(q.ticked_len(), 0);
        assert_eq!(q.len(), 4);
        q.push(rat(1, 2), "half-3");
        assert_eq!(q.pop(), Some((rat(1, 7), "seventh")));
        assert_eq!(q.pop(), Some((rat(1, 3), "third")));
        assert_eq!(q.pop(), Some((rat(1, 2), "half-1")));
        assert_eq!(q.pop(), Some((rat(1, 2), "half-2")));
        assert_eq!(q.pop(), Some((rat(1, 2), "half-3")));
        assert!(q.is_empty());
    }

    #[test]
    fn tick_scale_hint_covers_example_tree() {
        use bwfirst_platform::examples::example_tree;
        let p = example_tree();
        // The example tree's weights and links are all integers.
        assert_eq!(tick_scale_hint(&p, []), Some(1));
        assert_eq!(tick_scale_hint(&p, [rat(9, 10), rat(1, 4)]), Some(20));
        // An un-representable extra (lcm beyond the cap) falls back to exact.
        assert_eq!(tick_scale_hint(&p, [Rat::new(1, i128::MAX / 2)]), None);
    }

    #[test]
    fn completions_in_and_throughput() {
        let r = report(&[(1, 0), (2, 0), (3, 1), (10, 1)]);
        assert_eq!(r.completions_in(rat(1, 1), rat(3, 1)), 2);
        assert_eq!(r.completions_in(rat(0, 1), rat(100, 1)), 4);
        assert_eq!(r.throughput_in(rat(0, 1), rat(4, 1)), rat(3, 4));
        assert_eq!(r.total_computed(), 0); // `computed` vec empty here
    }

    #[test]
    fn steady_state_entry_finds_rampup() {
        // One completion per unit from t=5 on; rate 1, window 2.
        let times: Vec<(i128, u32)> = (5..50).map(|t| (t, 0)).collect();
        let r = report(&times);
        let entry = r.steady_state_entry(rat(1, 1), rat(2, 1), rat(49, 1)).unwrap();
        assert_eq!(entry, rat(5, 1));
    }

    #[test]
    fn steady_state_entry_forms_no_window_past_the_range() {
        let times: Vec<(i128, u32)> = (5..50).map(|t| (t, 0)).collect();
        let r = report(&times);
        // No full window fits before `until`.
        assert_eq!(r.steady_state_entry(rat(1, 1), rat(i128::MAX, 1), rat(49, 1)), None);
        // Every candidate's third window would end beyond `i128::MAX`.
        let w = rat(i128::MAX / 2, 1);
        assert_eq!(r.steady_state_entry(Rat::ZERO, w, rat(i128::MAX, 1)), None);
    }

    #[test]
    fn steady_state_entry_none_when_rate_never_met() {
        let r = report(&[(1, 0), (50, 0)]);
        assert_eq!(r.steady_state_entry(rat(1, 1), rat(5, 1), rat(100, 1)), None);
    }

    #[test]
    fn buffer_tracker_time_average() {
        let mut b = BufferTracker::new(1);
        b.add(NodeId(0), rat(0, 1), 2); // size 2 during [0, 4)
        b.add(NodeId(0), rat(4, 1), -1); // size 1 during [4, 10)
        let stats = b.finalize(rat(10, 1));
        assert_eq!(stats[0].max, 2);
        assert_eq!(stats[0].time_avg, rat(14, 10));
    }

    #[test]
    fn wind_down_measures_drain() {
        let mut r = report(&[(1, 0), (2, 0), (12, 0)]);
        r.injection_stopped_at = Some(rat(10, 1));
        assert_eq!(r.wind_down(), Some(rat(2, 1)));
    }
}
