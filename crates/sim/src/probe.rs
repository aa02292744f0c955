//! Execution probes: pluggable instrumentation for the simulators.
//!
//! Every executor drives a [`Probe`] with three kinds of observations —
//! busy [`segments`](Probe::segment) (the data Gantt charts are made of),
//! event-queue depth samples, and buffer-occupancy changes — plus the task
//! lifecycle hooks. Executors are generic over the probe (static dispatch),
//! so [`NoProbe`]'s empty inlined bodies compile to nothing and
//! uninstrumented runs pay no cost.
//!
//! Times reach a probe as engine **ticks**: `i128` counts of `1/S`, where
//! `S` is the run's [`TickScale`], announced once through
//! [`Probe::start`] before the first observation. Ticks compare, subtract
//! and add as plain integers; a probe rebuilds an exact time
//! ([`TickScale::rat`], [`TickScale::ts`]) only where it records one.
//!
//! The Gantt trace that used to be special-cased plumbing is now just one
//! probe among several:
//!
//! * [`GanttProbe`] — collects the classic [`Gantt`] trace (the engine
//!   runs one next to the caller's probe when `SimConfig::record_gantt`
//!   is set);
//! * [`UtilizationProbe`] — per-node, per-activity busy-time accounting;
//! * [`ObsProbe`] — bridges everything into a `bwfirst-obs`
//!   [`MemoryRecorder`] as trace spans, counter series and histograms;
//! * tuples — `(A, B)` drives two probes at once.

use crate::gantt::{Gantt, SegmentKind};
use bwfirst_core::schedule::SlotAction;
use bwfirst_obs::chrome::{track, LANES};
use bwfirst_obs::{Arg, Event, EventKind, MemoryRecorder, Ts};
use bwfirst_platform::NodeId;
use bwfirst_rational::{gcd_i128, gcd_u64, Rat};

/// A run's time scale `S`: engine ticks per time unit.
///
/// Every event time of a run is a sum of its durations (compute and link
/// times, the root's release step, window lengths), so it is a multiple of
/// `1/S` when `S` is the lcm of their denominators. The engine counts time
/// in ticks of `1/S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TickScale(i128);

impl TickScale {
    /// One tick per time unit (integer times).
    pub const ONE: TickScale = TickScale(1);

    /// `ticks_per_unit` ticks per time unit; `None` unless positive.
    #[must_use]
    pub fn new(ticks_per_unit: i128) -> Option<TickScale> {
        (ticks_per_unit > 0).then_some(TickScale(ticks_per_unit))
    }

    /// Ticks per time unit.
    #[must_use]
    pub fn get(self) -> i128 {
        self.0
    }

    /// `t` in ticks, when it lies on the lattice and fits `i128`.
    #[must_use]
    pub fn ticks(self, t: Rat) -> Option<i128> {
        let den = t.denom();
        if self.0 % den != 0 {
            return None;
        }
        t.numer().checked_mul(self.0 / den)
    }

    /// The last tick at or before `t`, if it fits `i128`.
    #[must_use]
    pub fn floor(self, t: Rat) -> Option<i128> {
        // t·S = num·(S/g) / (den/g) with g = gcd(S, den).
        let g = gcd_i128(self.0, t.denom());
        let num = t.numer().checked_mul(self.0 / g)?;
        Some(num.div_euclid(t.denom() / g))
    }

    /// The first tick at or after `t`, if it fits `i128`.
    #[must_use]
    pub fn ceil(self, t: Rat) -> Option<i128> {
        let floor = self.floor(t)?;
        if self.ticks(t) == Some(floor) {
            Some(floor)
        } else {
            floor.checked_add(1)
        }
    }

    /// The exact time of `tick`.
    #[must_use]
    pub fn rat(self, tick: i128) -> Rat {
        if self.0 == 1 {
            return Rat::from_int(tick);
        }
        Rat::new(tick, self.0)
    }

    /// The exact time of `tick` as a reduced observability timestamp. The
    /// common factor is `gcd(tick mod S, S)`, a `u64` gcd whenever `S`
    /// fits `u64`, however large the tick; when the tick fits `u64` too,
    /// the divisions are `u64` ones.
    #[must_use]
    pub fn ts(self, tick: i128) -> Ts {
        let s = self.0;
        if s == 1 {
            return Ts::new(tick, 1);
        }
        let g = match (u64::try_from(tick), u64::try_from(s)) {
            (Ok(t64), Ok(s64)) => {
                let g = gcd_u64(t64, s64);
                return Ts::new(i128::from(t64 / g), i128::from(s64 / g));
            }
            (Err(_), Ok(s64)) => i128::from(gcd_u64(tick.rem_euclid(s) as u64, s64)),
            (_, Err(_)) => gcd_i128(tick, s),
        };
        Ts::new(tick / g, s / g)
    }
}

/// The lane index of a segment kind: its position in `bwfirst_obs`'s
/// `chrome::LANES` (receive 0, compute 1, send 2).
#[must_use]
pub fn lane(kind: SegmentKind) -> usize {
    match kind {
        SegmentKind::Receive => 0,
        SegmentKind::Compute => 1,
        SegmentKind::Send(_) => 2,
    }
}

/// A sink for executor observations. All methods default to no-ops, so a
/// probe implements only what it cares about.
///
/// Every time argument is an engine tick (see [`TickScale`]); the scale
/// arrives through [`start`](Probe::start) before any observation.
pub trait Probe {
    /// The run starts: every tick observed from here on is `tick / scale`
    /// time units.
    #[inline(always)]
    fn start(&mut self, scale: TickScale) {
        let _ = scale;
    }

    /// One busy interval `[start, end)` of one node's activity lane.
    #[inline(always)]
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        let _ = (node, kind, start, end);
    }

    /// The event-queue depth right after an event fired at tick `t`.
    #[inline(always)]
    fn queue_depth(&mut self, t: i128, depth: usize) {
        let _ = (t, depth);
    }

    /// A node's buffer reached `size` tasks at tick `t`.
    #[inline(always)]
    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        let _ = (node, t, size);
    }

    /// A task materialized at `node`: a root injection, or (`stock`) a
    /// pre-positioned χ prefill task.
    #[inline(always)]
    fn task_enter(&mut self, node: NodeId, t: i128, stock: bool) {
        let _ = (node, t, stock);
    }

    /// The oldest buffered task at `node` was committed to `action`.
    /// `slot` is the position inside the node's interleaved bunch when the
    /// executor is stride-scheduled (Section 6.3); `None` for quota or
    /// demand modes.
    #[inline(always)]
    fn task_dispatch(&mut self, node: NodeId, t: i128, action: SlotAction, slot: Option<u64>) {
        let _ = (node, t, action, slot);
    }

    /// The oldest in-flight task on the edge into `node` finished its hop.
    #[inline(always)]
    fn task_delivered(&mut self, node: NodeId, t: i128) {
        let _ = (node, t);
    }
}

/// The zero-cost probe: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline(always)]
    fn start(&mut self, scale: TickScale) {
        (**self).start(scale);
    }

    #[inline(always)]
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        (**self).segment(node, kind, start, end);
    }

    #[inline(always)]
    fn queue_depth(&mut self, t: i128, depth: usize) {
        (**self).queue_depth(t, depth);
    }

    #[inline(always)]
    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        (**self).buffer(node, t, size);
    }

    #[inline(always)]
    fn task_enter(&mut self, node: NodeId, t: i128, stock: bool) {
        (**self).task_enter(node, t, stock);
    }

    #[inline(always)]
    fn task_dispatch(&mut self, node: NodeId, t: i128, action: SlotAction, slot: Option<u64>) {
        (**self).task_dispatch(node, t, action, slot);
    }

    #[inline(always)]
    fn task_delivered(&mut self, node: NodeId, t: i128) {
        (**self).task_delivered(node, t);
    }
}

impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline(always)]
    fn start(&mut self, scale: TickScale) {
        self.0.start(scale);
        self.1.start(scale);
    }

    #[inline(always)]
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        self.0.segment(node, kind, start, end);
        self.1.segment(node, kind, start, end);
    }

    #[inline(always)]
    fn queue_depth(&mut self, t: i128, depth: usize) {
        self.0.queue_depth(t, depth);
        self.1.queue_depth(t, depth);
    }

    #[inline(always)]
    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        self.0.buffer(node, t, size);
        self.1.buffer(node, t, size);
    }

    #[inline(always)]
    fn task_enter(&mut self, node: NodeId, t: i128, stock: bool) {
        self.0.task_enter(node, t, stock);
        self.1.task_enter(node, t, stock);
    }

    #[inline(always)]
    fn task_dispatch(&mut self, node: NodeId, t: i128, action: SlotAction, slot: Option<u64>) {
        self.0.task_dispatch(node, t, action, slot);
        self.1.task_dispatch(node, t, action, slot);
    }

    #[inline(always)]
    fn task_delivered(&mut self, node: NodeId, t: i128) {
        self.0.task_delivered(node, t);
        self.1.task_delivered(node, t);
    }
}

/// Collects the classic [`Gantt`] trace (inactive when built with
/// `active = false`, matching `SimConfig::record_gantt`).
#[derive(Debug)]
pub struct GanttProbe {
    gantt: Option<Gantt>,
    /// Segments that start at or after this time are dropped.
    until: Option<Rat>,
    /// `until` in ticks of the run's scale (`i128::MAX`: keep every one).
    until_tick: i128,
}

impl Default for GanttProbe {
    fn default() -> GanttProbe {
        GanttProbe::new(false)
    }
}

impl GanttProbe {
    /// An active or inactive Gantt collector.
    #[must_use]
    pub fn new(active: bool) -> GanttProbe {
        GanttProbe {
            gantt: active.then(|| Gantt::new(TickScale::ONE)),
            until: None,
            until_tick: i128::MAX,
        }
    }

    /// An active collector that keeps only the segments starting before
    /// `until`: every segment a chart of `[0, until)` draws
    /// ([`Gantt::ascii`]).
    #[must_use]
    pub fn until(until: Rat) -> GanttProbe {
        GanttProbe { until: Some(until), ..GanttProbe::new(true) }
    }

    /// The collected trace, if this probe was active.
    #[must_use]
    pub fn into_gantt(self) -> Option<Gantt> {
        self.gantt
    }
}

impl Probe for GanttProbe {
    fn start(&mut self, scale: TickScale) {
        if let Some(g) = &mut self.gantt {
            g.scale = scale;
        }
        self.until_tick = self.until.and_then(|u| scale.ceil(u)).unwrap_or(i128::MAX);
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        if let Some(g) = self.gantt.as_mut().filter(|_| start < self.until_tick) {
            g.push(node, kind, start, end);
        }
    }
}

/// Per-node, per-activity busy time over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Utilization {
    /// The horizon busy times are clipped to.
    pub horizon: Rat,
    /// `busy[node][lane]` (lanes: receive, compute, send).
    pub busy: Vec<[Rat; 3]>,
}

impl Utilization {
    /// The busy fraction of one node's lane in `[0, horizon)`.
    #[must_use]
    pub fn fraction(&self, node: NodeId, lane: usize) -> Rat {
        self.busy[node.index()][lane] / self.horizon
    }

    /// Rows `(label, busy fraction)` for every nonzero lane, in node order —
    /// ready for `bwfirst_obs::summary::table`.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (i, lanes) in self.busy.iter().enumerate() {
            for (l, &busy) in lanes.iter().enumerate() {
                if !busy.is_zero() {
                    let frac = busy / self.horizon;
                    rows.push((
                        format!("P{i} {}", LANES[l]),
                        format!("{frac} ({:.1}%)", 100.0 * frac.to_f64()),
                    ));
                }
            }
        }
        rows
    }
}

/// Accumulates [`Utilization`]: busy time per node per activity, clipped to
/// the horizon.
///
/// Busy time is kept in ticks up to the last tick `⌊horizon·S⌋`; a segment
/// running past it also covers the fraction of a tick that remains before
/// the horizon, counted per lane and added back exactly in
/// [`finish`](Self::finish).
#[derive(Debug, Clone)]
pub struct UtilizationProbe {
    horizon: Rat,
    scale: TickScale,
    /// `⌊horizon·S⌋` (saturated: a horizon past the `i128` ticks clips
    /// nothing the engine can reach).
    last_tick: i128,
    busy: Vec<[i128; 3]>,
    /// Segments per lane that run past `last_tick`.
    past_last: Vec<[i128; 3]>,
}

impl UtilizationProbe {
    /// A probe for a platform of `n` nodes, clipping to `horizon`.
    #[must_use]
    pub fn new(n: usize, horizon: Rat) -> UtilizationProbe {
        UtilizationProbe {
            horizon,
            scale: TickScale::ONE,
            last_tick: horizon.floor(),
            busy: vec![[0; 3]; n],
            past_last: vec![[0; 3]; n],
        }
    }

    /// The accumulated busy-time report.
    #[must_use]
    pub fn finish(self) -> Utilization {
        let (scale, horizon) = (self.scale, self.horizon);
        let sliver = horizon - scale.rat(self.last_tick);
        let busy = (self.busy.iter().zip(&self.past_last))
            .map(|(busy, past)| {
                std::array::from_fn(|l| scale.rat(busy[l]) + sliver * Rat::from_int(past[l]))
            })
            .collect();
        Utilization { horizon, busy }
    }
}

impl Probe for UtilizationProbe {
    fn start(&mut self, scale: TickScale) {
        self.scale = scale;
        self.last_tick = scale.floor(self.horizon).unwrap_or(i128::MAX);
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        let (i, l, last) = (node.index(), lane(kind), self.last_tick);
        if start < end {
            self.busy[i][l] += end.min(last) - start.min(last);
            if start <= last && end > last {
                self.past_last[i][l] += 1;
            }
        }
    }
}

/// Bridges executor observations into a `bwfirst-obs` [`MemoryRecorder`]:
///
/// * segments become `B`/`E` span pairs on the lane's `chrome::track`, plus
///   `sim.busy.<lane>` counters (total busy time ×den is not representable,
///   so counters count *segments* and histograms carry durations);
/// * buffer changes become a `buffer P<n>` counter series and a
///   `sim.buffer_occupancy` histogram;
/// * queue depths feed the `sim.event_queue_depth` histogram.
///
/// Into a [`MemoryRecorder::metrics_only`] recorder it builds no events,
/// only the metrics.
#[derive(Debug)]
pub struct ObsProbe<'a> {
    rec: &'a mut MemoryRecorder,
    scale: TickScale,
}

impl<'a> ObsProbe<'a> {
    /// Wraps a recorder that stays owned outside.
    pub fn new(rec: &'a mut MemoryRecorder) -> ObsProbe<'a> {
        ObsProbe { rec, scale: TickScale::ONE }
    }
}

/// An exact simulator time as an observability timestamp.
pub(crate) fn ts(r: Rat) -> Ts {
    Ts::new(r.numer(), r.denom())
}

impl Probe for ObsProbe<'_> {
    fn start(&mut self, scale: TickScale) {
        self.scale = scale;
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        // Per lane, in `LANES` order.
        const SEGMENTS: [&str; 3] =
            ["sim.segments.receive", "sim.segments.compute", "sim.segments.send"];
        const BUSY: [&str; 3] = ["sim.busy.receive", "sim.busy.compute", "sim.busy.send"];
        let l = lane(kind);
        if self.rec.keeps_events() {
            let tid = track(node.0, l);
            let name = match kind {
                SegmentKind::Send(child) => format!("send {child}"),
                _ => LANES[l].to_string(),
            };
            self.rec.event(
                Event::new(self.scale.ts(start), tid, name.clone(), EventKind::Begin)
                    .arg("node", Arg::Int(i128::from(node.0))),
            );
            self.rec.event(Event::new(self.scale.ts(end), tid, name, EventKind::End));
        }
        self.rec.add(SEGMENTS[l], 1);
        self.rec.observe(BUSY[l], self.scale.rat(end - start).to_f64());
    }

    fn queue_depth(&mut self, _t: i128, depth: usize) {
        self.rec.observe("sim.event_queue_depth", depth as f64);
    }

    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        if self.rec.keeps_events() {
            self.rec.event(
                Event::new(self.scale.ts(t), node.0, format!("buffer {node}"), EventKind::Counter)
                    .arg("tasks", Arg::Int(i128::from(size))),
            );
        }
        self.rec.observe("sim.buffer_occupancy", size as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;
    use proptest::prelude::*;

    #[test]
    fn gantt_probe_respects_activation() {
        let mut on = GanttProbe::new(true);
        on.segment(NodeId(1), SegmentKind::Compute, 0, 2);
        assert_eq!(on.into_gantt().unwrap().segments.len(), 1);
        let mut off = GanttProbe::new(false);
        off.segment(NodeId(1), SegmentKind::Compute, 0, 2);
        assert!(off.into_gantt().is_none());
    }

    #[test]
    fn gantt_probe_keeps_what_a_chart_draws() {
        // Up to 3/2 at scale 2: ticks 0..3; a segment starting at tick 3
        // starts at the chart's end and is dropped.
        let mut g = GanttProbe::until(rat(3, 2));
        g.start(TickScale::new(2).unwrap());
        for start in 0..5 {
            g.segment(NodeId(1), SegmentKind::Compute, start, start + 1);
        }
        let starts: Vec<i128> = g.into_gantt().unwrap().segments.iter().map(|s| s.start).collect();
        assert_eq!(starts, [0, 1, 2]);
    }

    #[test]
    fn utilization_clips_to_horizon() {
        let mut u = UtilizationProbe::new(2, rat(10, 1));
        u.segment(NodeId(0), SegmentKind::Compute, 0, 4);
        u.segment(NodeId(0), SegmentKind::Compute, 8, 14);
        u.segment(NodeId(1), SegmentKind::Send(NodeId(0)), 1, 2);
        let rep = u.finish();
        assert_eq!(rep.fraction(NodeId(0), 1), rat(6, 10));
        assert_eq!(rep.fraction(NodeId(1), 2), rat(1, 10));
        assert_eq!(rep.rows().len(), 2);
    }

    #[test]
    fn utilization_clips_between_ticks_exactly() {
        // Horizon 7/2 at scale 3: the last tick is 10 (10/3), so a segment
        // past it also covers the remaining 1/6 time unit.
        let mut u = UtilizationProbe::new(1, rat(7, 2));
        u.start(TickScale::new(3).unwrap());
        u.segment(NodeId(0), SegmentKind::Compute, 3, 6); // [1, 2)
        u.segment(NodeId(0), SegmentKind::Compute, 9, 12); // [3, 4) → [3, 7/2)
        u.segment(NodeId(0), SegmentKind::Compute, 11, 12); // starts after 7/2
        let rep = u.finish();
        assert_eq!(rep.busy[0][1], rat(3, 2));
    }

    #[test]
    fn tick_scale_converts_exactly() {
        let s = TickScale::new(6).unwrap();
        assert_eq!(s.ticks(rat(5, 3)), Some(10));
        assert_eq!(s.ticks(rat(1, 7)), None);
        assert_eq!(s.ticks(Rat::new(i128::MAX / 2, 1)), None);
        assert_eq!((s.floor(rat(1, 4)), s.ceil(rat(1, 4))), (Some(1), Some(2)));
        assert_eq!((s.floor(rat(1, 3)), s.ceil(rat(1, 3))), (Some(2), Some(2)));
        assert_eq!((s.floor(rat(-1, 4)), s.ceil(rat(-1, 4))), (Some(-2), Some(-1)));
        assert_eq!(s.rat(10), rat(5, 3));
        assert_eq!(s.ts(10), ts(rat(5, 3)));
        assert_eq!(s.ts(0), ts(Rat::ZERO));
        assert_eq!(s.ts(-9), ts(rat(-3, 2)));
        // Ticks past u64 reduce through `tick mod S`.
        let big = 6 * (1i128 << 100) + 4;
        assert_eq!(s.ts(big), ts(Rat::new(big, 6)));
        let wide = TickScale::new(1i128 << 70).unwrap();
        assert_eq!(wide.ts(3 << 68), ts(rat(3, 4)));
    }

    /// `ts` with one `gcd_i128` and `i128` divisions: the fast lanes'
    /// oracle.
    fn ts_by_i128_gcd(scale: i128, tick: i128) -> (i128, i128) {
        let g = gcd_i128(tick, scale);
        (tick / g, scale / g)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Every lane of `ts` reduces to the fraction one `i128` gcd gives,
        /// including ticks just past `u64::MAX` and negative ticks.
        #[test]
        fn ts_matches_the_i128_gcd(
            scale in prop_oneof![
                1i128..1000,
                any::<u64>().prop_map(|s| i128::from(s.max(1))),
                Just(i128::from(u64::MAX)),
                (1i128 << 64)..(1i128 << 100),
            ],
            tick in prop_oneof![
                0i128..100_000,
                any::<u64>().prop_map(i128::from),
                (0i128..1000).prop_map(|d| i128::from(u64::MAX) - 500 + d),
                -100_000i128..0,
                any::<i64>().prop_map(i128::from),
                any::<i128>(),
            ],
        ) {
            let got = TickScale::new(scale).unwrap().ts(tick);
            prop_assert_eq!((got.num, got.den), ts_by_i128_gcd(scale, tick));
        }
    }

    #[test]
    fn obs_probe_emits_span_pairs_and_metrics() {
        let mut rec = MemoryRecorder::new();
        let mut p = ObsProbe::new(&mut rec);
        p.start(TickScale::new(2).unwrap());
        p.segment(NodeId(2), SegmentKind::Send(NodeId(3)), 1, 3);
        p.buffer(NodeId(3), 3, 4);
        p.queue_depth(3, 7);
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0].kind, EventKind::Begin);
        assert_eq!(rec.events[0].ts, ts(rat(1, 2)));
        assert_eq!(rec.events[0].track, 2 * 3 + 2);
        assert_eq!(rec.events[1].kind, EventKind::End);
        assert_eq!(rec.metrics.counter("sim.segments.send"), 1);
        assert_eq!(rec.metrics.histograms["sim.event_queue_depth"].max, 7.0);
        assert_eq!(rec.metrics.histograms["sim.buffer_occupancy"].max, 4.0);
    }

    #[test]
    fn tuple_probe_fans_out() {
        let mut g = GanttProbe::new(true);
        let mut u = UtilizationProbe::new(1, rat(10, 1));
        {
            let mut both = (&mut g, &mut u);
            both.start(TickScale::new(2).unwrap());
            both.segment(NodeId(0), SegmentKind::Receive, 0, 2);
        }
        let g = g.into_gantt().unwrap();
        assert_eq!(g.scale.rat(g.segments[0].end), rat(1, 1));
        assert_eq!(u.finish().fraction(NodeId(0), 0), rat(1, 10));
    }
}
