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
//!
//! # Engine time
//!
//! Every event time is a sum of durations: compute times `w`, link times
//! `c`, and an executor's own steps (the root's release step `T^ω/Ψ`, the
//! clocked windows `T^c`/`T^s`, result-return times, the re-plans of a
//! dynamic run). So every event time lies on one lattice `1/S`, `S` being
//! the lcm of their denominators ([`tick_scale_hint`]). The engine fixes
//! that [`TickScale`] when it is built and counts time in `i128` ticks of
//! `1/S`: queue keys, event times, buffer integrals, completions and every
//! probe argument. Executors convert their durations to ticks once, at
//! construction; the per-event path adds and compares integers only. Ticks
//! at one scale order exactly as the times they count, so the event queue
//! is one heap keyed by `(tick, insertion sequence)`.
//!
//! Any scale is allowed while the horizon plus the longest step fits
//! `i128` ticks; otherwise (or when the lcm itself leaves `i128`) the run
//! fails before its first event with [`SimError::TickOverflow`], which
//! names the scale and the horizon. The [`SimReport`] keeps the completion
//! ticks with the scale, and the Gantt trace its segment ticks: each event
//! has one copy. An exact `Rat` time is built only where one is returned or
//! printed (a window bound is turned into ticks instead), and probes build
//! them where they record artifacts ([`TickScale::rat`], [`TickScale::ts`]).

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::SimError;
use crate::gantt::{Gantt, SegmentKind};
use crate::probe::{GanttProbe, Probe, TickScale};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{lcm_i128, Rat};
use std::cmp::{Ordering, Reverse};
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
    /// Has no effect: the event queue is always keyed by engine ticks,
    /// which order events exactly as their `Rat` times do. The field stays
    /// so that struct literals written against the older configuration
    /// keep compiling.
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

/// Every duration a run of `platform` can schedule besides its executor's
/// own steps: node compute times and link communication times.
fn durations(platform: &Platform) -> impl Iterator<Item = Rat> + '_ {
    platform
        .node_ids()
        .flat_map(|id| [platform.weight(id).time(), platform.link_time(id)])
        .flatten()
}

/// The least common multiple of the denominators of every duration a run can
/// schedule: node compute times, link communication times, and any
/// executor-specific steps in `extras` (e.g. the root's release step).
///
/// Every event time is a sum of such durations, so its denominator divides
/// the returned scale and the time is a whole number of ticks. `None` when
/// the lcm leaves `i128`.
pub(crate) fn tick_scale_hint(
    platform: &Platform,
    extras: impl IntoIterator<Item = Rat>,
) -> Option<TickScale> {
    let mut scale: i128 = 1;
    for d in durations(platform).chain(extras) {
        scale = lcm_i128(scale, d.denom())?;
    }
    TickScale::new(scale)
}

/// Priority event queue ordered by `(tick, insertion sequence)` — ties fire
/// in insertion order, keeping runs deterministic.
///
/// Keys are engine ticks, so heap sift-up/down costs plain `i128` compares.
/// The sequence number is unique, so a payload is never compared: it sits
/// in the heap entry itself, and a popped entry is the event.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(i128, u64, Payload<E>)>>,
    seq: u64,
}

/// An event in a heap entry. Every entry's sequence number is unique, so
/// the comparison never reaches the payload; it compares equal.
struct Payload<E>(E);

impl<E> PartialEq for Payload<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<E> Eq for Payload<E> {}

impl<E> PartialOrd for Payload<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Payload<E> {
    fn cmp(&self, _: &Self) -> Ordering {
        Ordering::Equal
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `ev` at tick `t`.
    pub fn push(&mut self, t: i128, ev: E) {
        self.heap.push(Reverse((t, self.seq, Payload(ev))));
        self.seq += 1;
    }

    /// The earliest event and its tick.
    pub fn pop(&mut self) -> Option<(i128, E)> {
        self.heap.pop().map(|Reverse((t, _, Payload(ev)))| (t, ev))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Buffer occupancy per node, with its time integral in ticks.
pub(crate) struct BufferTracker {
    size: Vec<u64>,
    max: Vec<u64>,
    /// `∫ size dt` up to `last_change`, in tasks × ticks.
    weighted: Vec<i128>,
    last_change: Vec<i128>,
    /// The first node whose integral left `i128`.
    overflow: Option<NodeId>,
}

impl BufferTracker {
    pub fn new(n: usize) -> Self {
        BufferTracker {
            size: vec![0; n],
            max: vec![0; n],
            weighted: vec![0; n],
            last_change: vec![0; n],
            overflow: None,
        }
    }

    pub fn set(&mut self, node: NodeId, t: i128, new_size: u64) {
        let i = node.index();
        if self.size[i] > 0 {
            let area = i128::from(self.size[i]).checked_mul(t - self.last_change[i]);
            match area.and_then(|a| a.checked_add(self.weighted[i])) {
                Some(w) => self.weighted[i] = w,
                None => {
                    self.overflow.get_or_insert(node);
                }
            }
        }
        self.last_change[i] = t;
        self.size[i] = new_size;
        self.max[i] = self.max[i].max(new_size);
    }

    pub fn add(&mut self, node: NodeId, t: i128, delta: i64) {
        let cur = self.size[node.index()] as i64 + delta;
        debug_assert!(cur >= 0, "buffer underflow at {node}");
        self.set(node, t, cur as u64);
    }

    /// Current occupancy of one node's buffer.
    pub fn size(&self, node: NodeId) -> u64 {
        self.size[node.index()]
    }

    /// Peaks and time averages over `[0, end]`; `end` may fall between
    /// ticks.
    pub fn finalize(&self, end: Rat, scale: TickScale) -> Result<Vec<BufferStats>, SimError> {
        if let Some(node) = self.overflow {
            return Err(SimError::BufferOverflow(node));
        }
        (0..self.size.len())
            .map(|i| {
                let size = Rat::from_int(i128::from(self.size[i]));
                let weighted = end
                    .checked_sub(scale.rat(self.last_change[i]))
                    .and_then(|tail| size.checked_mul(tail))
                    .and_then(|tail| tail.checked_add(scale.rat(self.weighted[i])));
                let time_avg = if end.is_positive() {
                    weighted.and_then(|w| w.checked_div(end))
                } else {
                    Ok(Rat::ZERO)
                };
                let time_avg = time_avg.map_err(|_| SimError::BufferOverflow(NodeId(i as u32)))?;
                Ok(BufferStats { max: self.max[i], time_avg })
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

    /// The engine this policy drives.
    fn engine(&mut self) -> &mut Engine<Self::Event, Self::Probe>;

    /// Seeds the queue (and any prefilled stock) at `t = 0`.
    fn start(&mut self) -> Result<(), SimError>;

    /// Handles one event firing at tick `t`.
    fn on_event(&mut self, t: i128, ev: Self::Event) -> Result<(), SimError>;

    /// Runs the policy to the horizon and assembles the report.
    fn run(&mut self) -> Result<SimReport, SimError> {
        self.start()?;
        while let Some((t, ev)) = self.engine().next_event() {
            self.on_event(t, ev)?;
        }
        self.engine().report()
    }
}

/// The state every executor shares: the event queue, the probes, the
/// per-node counters, buffer occupancy, root injection accounting and the
/// completions. Every time it holds is a tick at `scale`.
pub(crate) struct Engine<E, P> {
    pub cfg: SimConfig,
    pub scale: TickScale,
    /// The last tick inside the horizon, `⌊horizon·S⌋`.
    horizon: i128,
    /// The root injects only before this tick, `⌈injection_end·S⌉`.
    injection_end: i128,
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
    completions: Vec<(i128, NodeId)>,
    injected: u64,
    last_injection: Option<i128>,
}

impl<E, P: Probe> Engine<E, P> {
    /// An engine for `platform` whose events are sums of its durations and
    /// of `extras` (see [`tick_scale_hint`]), announcing its scale to the
    /// probes.
    ///
    /// # Errors
    /// [`SimError::TickOverflow`] when the lcm of the denominators leaves
    /// `i128`, or when the horizon plus the longest step does not fit
    /// `i128` ticks at that scale — every event then fires at a tick that
    /// fits, and so does every event it schedules.
    pub fn new(
        platform: &Platform,
        cfg: &SimConfig,
        extras: impl IntoIterator<Item = Rat>,
        probe: P,
    ) -> Result<Self, SimError> {
        let extras: Vec<Rat> = extras.into_iter().collect();
        let overflow = |scale: Option<TickScale>| SimError::TickOverflow {
            scale: scale.map(TickScale::get),
            horizon: cfg.horizon,
        };
        let scale = tick_scale_hint(platform, extras.iter().copied()).ok_or(overflow(None))?;
        let mut longest: i128 = 0;
        for d in durations(platform).chain(extras) {
            longest = longest.max(scale.ticks(d.abs()).ok_or(overflow(Some(scale)))?);
        }
        let horizon = (scale.floor(cfg.horizon))
            .filter(|h| h.checked_add(longest).is_some())
            .ok_or(overflow(Some(scale)))?;
        let injection_end = scale.ceil(cfg.injection_end()).ok_or(overflow(Some(scale)))?;
        let n = platform.len();
        let mut probe = (GanttProbe::new(cfg.record_gantt), probe);
        probe.start(scale);
        Ok(Engine {
            cfg: cfg.clone(),
            scale,
            horizon,
            injection_end,
            root: platform.root(),
            queue: EventQueue::new(),
            probe,
            buffers: BufferTracker::new(n),
            received: vec![0; n],
            computed: vec![0; n],
            completions: Vec::new(),
            injected: 0,
            last_injection: None,
        })
    }

    /// `t` in ticks: exact for every duration and instant the engine was
    /// built with.
    pub fn ticks(&self, t: Rat) -> Result<i128, SimError> {
        self.scale.ticks(t).ok_or(self.overflow())
    }

    /// The error of a time that does not fit this run's ticks.
    pub fn overflow(&self) -> SimError {
        SimError::TickOverflow { scale: Some(self.scale.get()), horizon: self.cfg.horizon }
    }

    /// The next event inside the horizon, sampling the queue depth.
    fn next_event(&mut self) -> Option<(i128, E)> {
        let (t, ev) = self.queue.pop().filter(|&(t, _)| t <= self.horizon)?;
        self.probe.queue_depth(t, self.queue.len());
        Some((t, ev))
    }

    /// Whether the root may still inject a task at `t`: before the
    /// injection cut-off and under the task budget.
    pub fn has_supply(&self, t: i128) -> bool {
        t < self.injection_end && self.cfg.total_tasks.is_none_or(|n| self.injected < n)
    }

    /// Schedules the root's next release `ev` at `t`, if it has supply.
    pub fn release_at(&mut self, t: i128, ev: E) {
        if self.has_supply(t) {
            self.queue.push(t, ev);
        }
    }

    /// The root injects one fresh task at `t`.
    pub fn inject(&mut self, t: i128) {
        self.injected += 1;
        self.last_injection = Some(t);
        self.received[self.root.index()] += 1;
        self.probe.task_enter(self.root, t, false);
    }

    /// Whether `node` has a task to hand out at `t`: the root taps the
    /// source while it has supply, other nodes their buffer.
    pub fn has_task(&self, node: NodeId, t: i128) -> bool {
        if node == self.root {
            self.has_supply(t)
        } else {
            self.buffers.size(node) > 0
        }
    }

    /// Takes one task from `node`'s stock at `t`, if it has one.
    pub fn take(&mut self, node: NodeId, t: i128) -> bool {
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

    /// Changes one node's buffer by `delta` tasks at `t`.
    pub fn buffer_add(&mut self, node: NodeId, t: i128, delta: i64) {
        self.buffers.add(node, t, delta);
        self.probe.buffer(node, t, self.buffers.size(node));
    }

    /// One transfer `from → to` over `[start, end)`: the sender's port and
    /// the receiver's port are busy together (single-port model).
    pub fn transfer(&mut self, from: NodeId, to: NodeId, start: i128, end: i128) {
        self.probe.segment(from, SegmentKind::Send(to), start, end);
        self.probe.segment(to, SegmentKind::Receive, start, end);
    }

    /// A task counts as done at `t` on `node`.
    pub fn record_completion(&mut self, node: NodeId, t: i128) {
        self.completions.push((t, node));
    }

    /// `node` finished computing a task at `t`.
    pub fn complete(&mut self, node: NodeId, t: i128) {
        self.computed[node.index()] += 1;
        self.record_completion(node, t);
    }

    /// The report. Completions stay the engine's ticks; only the summary
    /// instants (horizon, injection stop, buffer averages) are exact times.
    fn report(&mut self) -> Result<SimReport, SimError> {
        let (cfg, scale) = (&self.cfg, self.scale);
        let exhausted = cfg.total_tasks.is_some_and(|n| self.injected >= n);
        let injection_stopped_at = if exhausted {
            self.last_injection.map(|t| scale.rat(t))
        } else {
            cfg.stop_injection_at.filter(|&s| s <= cfg.horizon)
        };
        let mut completions = std::mem::take(&mut self.completions);
        // Same-tick completions in node order: reports print that order.
        completions.sort_unstable();
        completions.shrink_to_fit();
        Ok(SimReport {
            horizon: cfg.horizon,
            injection_stopped_at,
            scale,
            completions,
            computed: std::mem::take(&mut self.computed),
            received: std::mem::take(&mut self.received),
            buffers: self.buffers.finalize(cfg.horizon, scale)?,
            gantt: std::mem::take(&mut self.probe.0).into_gantt(),
        })
    }
}

/// Everything measured during a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The simulated horizon.
    pub horizon: Rat,
    /// When injection actually stopped (None = ran to horizon with supply).
    pub injection_stopped_at: Option<Rat>,
    /// The run's time scale: completion tick `t` is time `t / S`.
    pub scale: TickScale,
    /// `(completion tick, node)` of every computed task, in tick order and
    /// same-tick completions in node order.
    pub completions: Vec<(i128, NodeId)>,
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

    /// Completions strictly before time `t`. A tick `k` is before `t` exactly
    /// when `k < ⌈t·S⌉`; a `t` whose tick leaves `i128` lies past every
    /// completion or before every one, by its sign.
    fn completions_before(&self, t: Rat) -> usize {
        match self.scale.ceil(t) {
            Some(tick) => self.completions.partition_point(|&(c, _)| c < tick),
            None if t.is_positive() => self.completions.len(),
            None => 0,
        }
    }

    /// Completions in the half-open window `[from, to)`; 0 when the window
    /// is empty or inverted.
    #[must_use]
    pub fn completions_in(&self, from: Rat, to: Rat) -> u64 {
        self.completions_before(to).saturating_sub(self.completions_before(from)) as u64
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
        self.completions.last().map(|&(t, _)| self.scale.rat(t))
    }

    /// The most tasks any one node held buffered at once (0 on an empty
    /// report).
    #[must_use]
    pub fn peak_buffer(&self) -> u64 {
        self.buffers.iter().map(|b| b.max).max().unwrap_or(0)
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
        self.completions.iter().map(|&(t, _)| self.scale.rat(t)).find(|&t| qualifies(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gantt::GanttSegment;
    use bwfirst_rational::rat;
    use proptest::prelude::*;

    fn report(times: &[(i128, u32)]) -> SimReport {
        SimReport {
            horizon: rat(100, 1),
            injection_stopped_at: None,
            scale: TickScale::ONE,
            completions: times.iter().map(|&(t, n)| (t, NodeId(n))).collect(),
            computed: vec![],
            received: vec![],
            buffers: vec![],
            gantt: None,
        }
    }

    fn sixths() -> TickScale {
        TickScale::new(6).unwrap()
    }

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(2, "b");
        q.push(1, "a1");
        q.push(1, "a2");
        assert_eq!(q.pop(), Some((1, "a1")));
        assert_eq!(q.pop(), Some((1, "a2")));
        assert_eq!(q.pop(), Some((2, "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_never_compares_payloads() {
        // Payloads need no ordering: a tie is decided by the sequence
        // number alone.
        struct Unordered(u32);
        let mut q: EventQueue<Unordered> = EventQueue::new();
        for k in 0..100 {
            q.push(i128::from(k % 3), Unordered(k));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e.0).collect();
        let want: Vec<u32> = (0..3).flat_map(|r| (r..100).step_by(3)).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn off_lattice_times_have_no_tick() {
        // Scale 6 cannot represent sevenths; an engine whose scale folds
        // them in can.
        assert_eq!(sixths().ticks(rat(1, 7)), None);
        let p = bwfirst_platform::examples::example_tree();
        let scale = tick_scale_hint(&p, [rat(1, 6), rat(1, 7)]).unwrap();
        assert_eq!(scale.get(), 42);
        assert_eq!(scale.ticks(rat(1, 7)), Some(6));
    }

    #[test]
    fn overflowing_ticks_are_refused() {
        // A time whose tick would leave i128 has none, and a horizon that
        // cannot be counted in ticks fails the run before its first event.
        assert_eq!(sixths().ticks(Rat::new(i128::MAX / 2, 1)), None);
        assert_eq!(sixths().floor(Rat::new(i128::MAX / 2, 1)), None);
        let p = bwfirst_platform::examples::example_tree();
        let cfg = SimConfig::to_horizon(Rat::new(i128::MAX / 4, 1));
        let err = Engine::<(), _>::new(&p, &cfg, [rat(1, 6)], crate::probe::NoProbe).err();
        assert_eq!(err, Some(SimError::TickOverflow { scale: Some(6), horizon: cfg.horizon }));
    }

    #[test]
    fn tick_scale_hint_covers_example_tree() {
        use bwfirst_platform::examples::example_tree;
        let p = example_tree();
        // The example tree's weights and links are all integers.
        assert_eq!(tick_scale_hint(&p, []), TickScale::new(1));
        assert_eq!(tick_scale_hint(&p, [rat(9, 10), rat(1, 4)]), TickScale::new(20));
        // Any lcm inside i128 is a scale; one past it is none.
        let big = i128::MAX / 2;
        assert_eq!(tick_scale_hint(&p, [Rat::new(1, big)]), TickScale::new(big));
        assert_eq!(tick_scale_hint(&p, [rat(9, 10), Rat::new(1, big)]), None);
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
    fn an_inverted_window_holds_no_completions() {
        let r = report(&[(1, 0), (2, 0), (3, 1), (10, 1)]);
        assert_eq!(r.completions_in(rat(3, 1), rat(1, 1)), 0);
        assert_eq!(r.completions_in(rat(100, 1), Rat::ZERO), 0);
        assert_eq!(r.completions_in(Rat::new(i128::MAX, 1), Rat::new(-i128::MAX, 1)), 0);
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
        b.add(NodeId(0), 0, 2); // size 2 during [0, 4)
        b.add(NodeId(0), 4, -1); // size 1 during [4, 10)
        let stats = b.finalize(rat(10, 1), TickScale::ONE).unwrap();
        assert_eq!(stats[0].max, 2);
        assert_eq!(stats[0].time_avg, rat(14, 10));
        // At scale 3 the same ticks are thirds, and the horizon 7/2 falls
        // between ticks 10 and 11: size 1 also covers [10/3, 7/2).
        let stats = b.finalize(rat(7, 2), TickScale::new(3).unwrap()).unwrap();
        assert_eq!(stats[0].time_avg, (rat(8, 3) + rat(7, 2) - rat(4, 3)) / rat(7, 2));
    }

    #[test]
    fn buffer_integral_overflow_is_an_error() {
        let mut b = BufferTracker::new(2);
        b.add(NodeId(1), 0, i64::MAX);
        b.add(NodeId(1), i128::MAX / 2, -1);
        let err = b.finalize(rat(1, 1), TickScale::ONE).unwrap_err();
        assert_eq!(err, SimError::BufferOverflow(NodeId(1)));
    }

    #[test]
    fn wind_down_measures_drain() {
        let mut r = report(&[(1, 0), (2, 0), (12, 0)]);
        r.injection_stopped_at = Some(rat(10, 1));
        assert_eq!(r.wind_down(), Some(rat(2, 1)));
    }

    /// The report's queries over exact times: every completion tick turned
    /// into its `Rat` first, each window bound compared as a `Rat`.
    struct RatReference {
        completions: Vec<Rat>,
        injection_stopped_at: Option<Rat>,
    }

    impl RatReference {
        fn of(r: &SimReport) -> RatReference {
            RatReference {
                completions: r.completions.iter().map(|&(t, _)| r.scale.rat(t)).collect(),
                injection_stopped_at: r.injection_stopped_at,
            }
        }

        fn completions_in(&self, from: Rat, to: Rat) -> u64 {
            let lo = self.completions.partition_point(|&t| t < from);
            let hi = self.completions.partition_point(|&t| t < to);
            hi.saturating_sub(lo) as u64
        }

        /// `None` where the exact arithmetic leaves `i128`.
        fn throughput_in(&self, from: Rat, to: Rat) -> Option<Rat> {
            let span = to.checked_sub(from).ok()?;
            Rat::from(self.completions_in(from, to) as usize).checked_div(span).ok()
        }

        fn last_completion(&self) -> Option<Rat> {
            self.completions.last().copied()
        }

        fn wind_down(&self) -> Option<Rat> {
            let stop = self.injection_stopped_at?;
            Some((self.last_completion()? - stop).max(Rat::ZERO))
        }

        fn steady_state_entry(&self, rate: Rat, window: Rat, until: Rat) -> Option<Rat> {
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
            self.completions.iter().copied().find(|&t| qualifies(t))
        }
    }

    /// A time from `(kind, a, b)` at `scale`: on tick `a`, between ticks
    /// `a` and `a + 1`, the plain fraction `a/b`, or past the `i128` ticks
    /// on either side.
    fn bound(scale: TickScale, (kind, a, b): (u8, i128, i128)) -> Rat {
        let s = scale.get();
        match kind {
            0 => Rat::new(a, s),
            1 => Rat::new(2 * a + 1, 2 * s),
            2 => Rat::new(a, b),
            3 => Rat::new(i128::MAX - b, 1),
            _ => Rat::new(-(i128::MAX - b), 1),
        }
    }

    fn scales() -> impl Strategy<Value = i128> {
        prop_oneof![1i128..=12, (1i128 << 20)..(1i128 << 40)]
    }

    fn bounds() -> impl Strategy<Value = (u8, i128, i128)> {
        (0u8..5, -20i128..320, 1i128..50)
    }

    fn report_at(scale: i128, mut ticks: Vec<(i128, u32)>) -> SimReport {
        ticks.sort_unstable();
        SimReport { scale: TickScale::new(scale).unwrap(), ..report(&ticks) }
    }

    /// A Gantt lane segment on ticks `[start, start + len)`.
    fn segment((node, kind, start, len): (u32, u32, i128, i128)) -> GanttSegment {
        let kind = match kind {
            0 => SegmentKind::Receive,
            1 => SegmentKind::Compute,
            k => SegmentKind::Send(NodeId(k)),
        };
        GanttSegment { node: NodeId(node), kind, start, end: start + len }
    }

    /// The overlap check over exact segment times, lane by lane.
    fn rat_overlap(g: &Gantt) -> bool {
        let mut lanes: std::collections::HashMap<(NodeId, usize), Vec<(Rat, Rat)>> =
            std::collections::HashMap::new();
        for s in &g.segments {
            let span = (g.scale.rat(s.start), g.scale.rat(s.end));
            lanes.entry((s.node, crate::probe::lane(s.kind))).or_default().push(span);
        }
        lanes.values_mut().any(|list| {
            list.sort();
            list.windows(2).any(|w| w[1].0 < w[0].1)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// Every query on the ticks answers what it answers on exact times,
        /// for bounds on ticks, between them, negative and past the `i128`
        /// ticks.
        #[test]
        fn tick_queries_match_the_rat_reference(
            scale in scales(),
            ticks in prop::collection::vec((0i128..300, 0u32..4), 0..40),
            from in bounds(),
            to in bounds(),
            stop in bounds(),
        ) {
            let mut r = report_at(scale, ticks);
            let (from, to) = (bound(r.scale, from), bound(r.scale, to));
            r.injection_stopped_at = Some(bound(r.scale, (stop.0 % 3, stop.1, stop.2)));
            let reference = RatReference::of(&r);
            prop_assert_eq!(r.completions_in(from, to), reference.completions_in(from, to));
            prop_assert_eq!(r.completions_in(to, from), reference.completions_in(to, from));
            if to > from {
                if let Some(want) = reference.throughput_in(from, to) {
                    prop_assert_eq!(r.throughput_in(from, to), want);
                }
            }
            prop_assert_eq!(r.last_completion(), reference.last_completion());
            prop_assert_eq!(r.wind_down(), reference.wind_down());
        }

        /// Steady-state entry on ticks tries the same candidates and windows
        /// as on exact times.
        #[test]
        fn steady_state_entry_matches_the_rat_reference(
            scale in scales(),
            ticks in prop::collection::vec((0i128..200, 0u32..4), 0..40),
            per_window in 0i128..4,
            window in (0u8..2, 1i128..40, 1i128..2),
            until in (0u8..2, 0i128..240, 1i128..2),
        ) {
            let r = report_at(scale, ticks);
            let (window, until) = (bound(r.scale, window), bound(r.scale, until));
            let rate = Rat::from_int(per_window) / window;
            prop_assert_eq!(
                r.steady_state_entry(rate, window, until),
                RatReference::of(&r).steady_state_entry(rate, window, until)
            );
        }

        /// The overlap check on ticks finds an overlap exactly when the
        /// check on exact times does, and what it returns overlaps.
        #[test]
        fn find_overlap_matches_the_rat_reference(
            scale in scales(),
            segments in prop::collection::vec((0u32..3, 0u32..4, 0i128..60, 0i128..8), 0..24),
        ) {
            let mut g = Gantt::new(TickScale::new(scale).unwrap());
            g.segments = segments.into_iter().map(segment).collect();
            let found = g.find_overlap();
            prop_assert_eq!(found.is_some(), rat_overlap(&g));
            if let Some((a, b)) = found {
                let lane = |s: GanttSegment| (s.node, crate::probe::lane(s.kind));
                prop_assert_eq!(lane(a), lane(b));
                prop_assert!(a.start <= b.start && b.start < a.end);
            }
        }
    }
}
