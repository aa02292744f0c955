//! Task-level causal provenance: a [`Probe`] that records every task's
//! journey as a provenance-trace artifact (`bwfirst_obs::causal`).
//!
//! The executors themselves never track task identity — a buffered task is
//! just a counter. This probe assigns ids at the boundary instead: every
//! buffer in every executor is FIFO (the event queue breaks time ties by
//! insertion order, ports serialize transfers, and quota/demand service
//! always takes the oldest task), so mirroring the buffers with id queues
//! reproduces exactly which task each dispatch, hop and compute span
//! concerned. Prefill stock (Proposition 3's χ buffers) gets ids at or
//! above [`STOCK_BASE`] so cross-executor alignment can skip it.
//!
//! Per-task measurements come from this seam, not from the executors: a
//! task's sojourn time is its compute span's end minus its entry
//! ([`Trace::sojourns`]), which is how experiment E9b measures the
//! Section 6.3 claim that interleaving keeps sojourn times low.
//!
//! Wire (send/receive) segments are deliberately *not* recorded per task:
//! the interruptible demand model splits them into partial segments, and
//! the dispatch → deliver pair already brackets the hop exactly.

use crate::engine::SimConfig;
use crate::gantt::SegmentKind;
use crate::probe::{ts, Probe, TickScale};
use bwfirst_core::schedule::{SlotAction, TreeSchedule};
use bwfirst_obs::causal::{Action, Dispatch, STOCK_BASE};
use bwfirst_obs::{Trace, TraceHeader, TraceRecord};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::collections::VecDeque;

/// Records a full causal trace of one simulation run.
#[derive(Debug)]
pub struct ProvenanceProbe {
    records: Vec<TraceRecord>,
    /// The run's scale: record times are its ticks, reduced.
    scale: TickScale,
    next_task: i128,
    next_stock: i128,
    /// Buffered, not-yet-dispatched task ids per node (oldest first).
    arrivals: Vec<VecDeque<i128>>,
    /// Dispatched-to-CPU ids awaiting their compute segment, per node.
    pending_compute: Vec<VecDeque<i128>>,
    /// Ids in flight on the edge *into* each node (oldest first; the
    /// single-port model delivers them in dispatch order).
    inflight: Vec<VecDeque<i128>>,
    parent: Vec<Option<u32>>,
    /// Construction-time ψ annotations (advisory after a dynamic re-plan).
    psi_self: Vec<Option<i128>>,
    psi_child: Vec<Vec<(u32, i128)>>,
    bunch: Vec<Option<i128>>,
    dispatched: Vec<u64>,
}

impl ProvenanceProbe {
    /// A probe for `platform`; pass the solver's [`TreeSchedule`] to
    /// annotate dispatches with their ψ quotas and bunch periods (quota
    /// and demand executors run without one).
    #[must_use]
    pub fn new(platform: &Platform, schedule: Option<&TreeSchedule>) -> ProvenanceProbe {
        let n = platform.len();
        let mut psi_self = vec![None; n];
        let mut psi_child: Vec<Vec<(u32, i128)>> = vec![Vec::new(); n];
        let mut bunch = vec![None; n];
        if let Some(tree) = schedule {
            for s in tree.iter() {
                let i = s.node.index();
                psi_self[i] = Some(s.psi_self);
                psi_child[i] = s.psi_children.iter().map(|&(k, q)| (k.0, q)).collect();
                bunch[i] = Some(s.bunch);
            }
        }
        ProvenanceProbe {
            records: Vec::new(),
            scale: TickScale::ONE,
            next_task: 0,
            next_stock: STOCK_BASE,
            arrivals: vec![VecDeque::new(); n],
            pending_compute: vec![VecDeque::new(); n],
            inflight: vec![VecDeque::new(); n],
            parent: platform.node_ids().map(|id| platform.parent(id).map(|p| p.0)).collect(),
            psi_self,
            psi_child,
            bunch,
            dispatched: vec![0; n],
        }
    }

    /// The recorded provenance, in emission order, without the spare
    /// capacity its growth left (up to as much again).
    #[must_use]
    pub fn into_records(mut self) -> Vec<TraceRecord> {
        self.records.shrink_to_fit();
        self.records
    }

    /// Pairs the recorded provenance with a header into a full [`Trace`].
    #[must_use]
    pub fn into_trace(self, header: TraceHeader) -> Trace {
        Trace { header, records: self.into_records() }
    }
}

impl Probe for ProvenanceProbe {
    fn start(&mut self, scale: TickScale) {
        self.scale = scale;
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        if kind != SegmentKind::Compute {
            return;
        }
        if let Some(task) = self.pending_compute[node.index()].pop_front() {
            self.records.push(TraceRecord::Compute {
                task,
                node: node.0,
                start: self.scale.ts(start),
                end: self.scale.ts(end),
            });
        }
    }

    fn task_enter(&mut self, node: NodeId, t: i128, stock: bool) {
        let task = if stock {
            self.next_stock += 1;
            self.next_stock - 1
        } else {
            self.next_task += 1;
            self.next_task - 1
        };
        self.records.push(TraceRecord::Enter { task, node: node.0, t: self.scale.ts(t), stock });
        self.arrivals[node.index()].push_back(task);
    }

    fn task_dispatch(&mut self, node: NodeId, t: i128, action: SlotAction, slot: Option<u64>) {
        let i = node.index();
        let Some(task) = self.arrivals[i].pop_front() else { return };
        let (act, psi) = match action {
            SlotAction::Compute => (Action::Compute, self.psi_self[i]),
            SlotAction::Send(child) => (
                Action::Send(child.0),
                self.psi_child[i].iter().find(|&&(k, _)| k == child.0).map(|&(_, q)| q),
            ),
        };
        // A count below 2^64 is exactly period 0 of a bunch Ψ that does
        // not fit `u64`.
        let n = self.dispatched[i];
        let period =
            self.bunch[i].filter(|&b| b > 0).map(|b| u64::try_from(b).map_or(0, |b| n / b));
        self.dispatched[i] += 1;
        self.records.push(TraceRecord::Dispatch(Dispatch {
            task,
            node: node.0,
            t: self.scale.ts(t),
            action: act,
            slot,
            psi,
            period,
        }));
        match action {
            SlotAction::Compute => self.pending_compute[i].push_back(task),
            SlotAction::Send(child) => self.inflight[child.index()].push_back(task),
        }
    }

    fn task_delivered(&mut self, node: NodeId, t: i128) {
        let i = node.index();
        let (Some(task), Some(from)) = (self.inflight[i].pop_front(), self.parent[i]) else {
            return;
        };
        self.records.push(TraceRecord::Deliver { task, node: node.0, from, t: self.scale.ts(t) });
        self.arrivals[i].push_back(task);
    }
}

/// Builds a provenance-trace header for a run of `protocol` under `cfg`.
/// The schedule (when the executor has one) contributes the root's bunch
/// size and period; `throughput` is the solver's steady rate if known.
#[must_use]
pub fn trace_header(
    platform: &Platform,
    schedule: Option<&TreeSchedule>,
    protocol: &str,
    cfg: &SimConfig,
    throughput: Option<Rat>,
) -> TraceHeader {
    let root = platform.root();
    let root_sched = schedule.and_then(|tree| tree.get(root));
    let active = |id: NodeId| schedule.is_none_or(|tree| tree.get(id).is_some());
    TraceHeader {
        protocol: protocol.to_string(),
        seed: cfg.seed,
        horizon: ts(cfg.horizon),
        tasks: cfg.total_tasks,
        nodes: platform.len() as u32,
        root: root.0,
        throughput: throughput.map(ts),
        bunch: root_sched.map(|s| s.bunch),
        t_omega: root_sched.map(|s| s.t_omega),
        parent: platform.node_ids().map(|id| platform.parent(id).map(|p| p.0)).collect(),
        edge_time: platform
            .node_ids()
            .map(|id| if active(id) { platform.link_time(id).map(ts) } else { None })
            .collect(),
        weight: platform.node_ids().map(|id| platform.weight(id).time().map(ts)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::{self, ClockedConfig};
    use crate::demand_driven::{self, DemandConfig};
    use crate::event_driven;
    use bwfirst_core::schedule::EventDrivenSchedule;
    use bwfirst_core::{bw_first, SteadyState};
    use bwfirst_platform::examples::{example_throughput, example_tree};
    use bwfirst_rational::rat;

    fn fig2() -> (Platform, SteadyState, EventDrivenSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        (p, ss, ev)
    }

    fn bounded(tasks: u64, horizon: i128) -> SimConfig {
        SimConfig {
            horizon: rat(horizon, 1),
            stop_injection_at: None,
            total_tasks: Some(tasks),
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        }
    }

    #[test]
    fn event_driven_trace_is_conserving_and_complete() {
        let (p, ss, ev) = fig2();
        let cfg = bounded(40, 400);
        let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
        event_driven::simulate_probed(&p, &ev, &cfg, &mut probe).unwrap();
        let header = trace_header(&p, Some(&ev.tree), "event", &cfg, Some(ss.throughput));
        let trace = probe.into_trace(header);
        assert_eq!(trace.header.bunch, Some(10));
        assert_eq!(trace.header.t_omega, Some(9));
        assert_eq!(trace.header.throughput, Some(ts(example_throughput())));
        let ids = trace.task_ids();
        assert_eq!(ids.len(), 40);
        // Every injected task retires in exactly one compute span.
        for &id in &ids {
            let computes = trace
                .records
                .iter()
                .filter(|r| matches!(r, TraceRecord::Compute { task, .. } if *task == id))
                .count();
            assert_eq!(computes, 1, "task {id}");
        }
        // A task that left the root shows a full chain:
        // enter → dispatch(send) → deliver → dispatch → … → compute.
        let remote = ids
            .iter()
            .copied()
            .find(|&id| trace.compute_node(id) != Some(0))
            .expect("some task leaves the root");
        let chain = trace.lineage(remote);
        assert!(matches!(chain[0], TraceRecord::Enter { stock: false, .. }));
        assert!(
            matches!(chain[1], TraceRecord::Dispatch(d) if matches!(d.action, Action::Send(_)) && d.slot.is_some() && d.psi.is_some()),
            "second link is a slotted send decision: {:?}",
            chain[1]
        );
        assert!(matches!(chain[2], TraceRecord::Deliver { .. }));
        assert!(matches!(chain.last(), Some(TraceRecord::Compute { .. })));
        // Delivery times agree with the platform's link times along the
        // chain (each deliver is `c` after its dispatch).
        for pair in chain.windows(2) {
            if let (TraceRecord::Dispatch(d), TraceRecord::Deliver { node, t, .. }) =
                (&pair[0], &pair[1])
            {
                let c = p.link_time(NodeId(*node)).unwrap();
                assert_eq!(*t, ts(Rat::new(d.t.num, d.t.den) + c));
            }
        }
    }

    #[test]
    fn replay_is_bit_for_bit_deterministic() {
        let (p, ss, ev) = fig2();
        let cfg = bounded(30, 400);
        let run = || {
            let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
            event_driven::simulate_probed(&p, &ev, &cfg, &mut probe).unwrap();
            probe
                .into_trace(trace_header(&p, Some(&ev.tree), "event", &cfg, Some(ss.throughput)))
                .to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clocked_prefill_stock_is_tagged() {
        let (p, _, ev) = fig2();
        let cfg = bounded(20, 400);
        let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
        clocked::simulate_probed(&p, &ev.tree, ClockedConfig::default(), &cfg, &mut probe).unwrap();
        let records = probe.into_records();
        let stock =
            records.iter().filter(|r| matches!(r, TraceRecord::Enter { stock: true, .. })).count();
        let total_chi: i128 = ev.tree.iter().filter_map(|s| s.chi_in).sum();
        assert_eq!(stock as i128, total_chi);
        assert!(records.iter().all(|r| match r {
            TraceRecord::Enter { task, stock, .. } => (*task >= STOCK_BASE) == *stock,
            _ => true,
        }));
    }

    #[test]
    fn event_and_clocked_traces_diff_clean() {
        let (p, ss, ev) = fig2();
        let cfg = bounded(40, 600);
        let mut pe = ProvenanceProbe::new(&p, Some(&ev.tree));
        event_driven::simulate_probed(&p, &ev, &cfg, &mut pe).unwrap();
        let a = pe.into_trace(trace_header(&p, Some(&ev.tree), "event", &cfg, Some(ss.throughput)));
        let mut pc = ProvenanceProbe::new(&p, Some(&ev.tree));
        clocked::simulate_probed(&p, &ev.tree, ClockedConfig::default(), &cfg, &mut pc).unwrap();
        let b =
            pc.into_trace(trace_header(&p, Some(&ev.tree), "clocked", &cfg, Some(ss.throughput)));
        let d = a.diff(&b);
        assert!(
            d.clean(),
            "only_a {:?} only_b {:?} counts {:?}",
            d.only_a,
            d.only_b,
            d.count_divergence
        );
        assert_eq!(d.common, 40);
        assert!(d.stock_b > 0, "clocked prefill shows up as stock");
        assert!(d.latency_offsets().is_some());
    }

    /// Periods count in `u64`: a dispatch count divided by the bunch, and
    /// exactly 0 under a bunch Ψ past `u64::MAX`.
    #[test]
    fn periods_divide_the_dispatch_count() {
        let (p, _, ev) = fig2();
        let root = p.root();
        for (bunch, want) in [(2, [0, 0, 1]), (i128::from(u64::MAX) + 1, [0, 0, 0])] {
            let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
            probe.bunch[root.index()] = Some(bunch);
            for _ in 0..3 {
                probe.task_enter(root, 0, false);
                probe.task_dispatch(root, 0, SlotAction::Compute, Some(u64::MAX));
            }
            let periods: Vec<_> = probe
                .into_records()
                .iter()
                .filter_map(|r| match r {
                    TraceRecord::Dispatch(d) => Some((d.slot, d.period)),
                    _ => None,
                })
                .collect();
            let want: Vec<_> = want.iter().map(|&k| (Some(u64::MAX), Some(k))).collect();
            assert_eq!(periods, want, "bunch {bunch}");
        }
    }

    #[test]
    fn demand_driven_trace_has_no_schedule_annotations() {
        let p = example_tree();
        let cfg = bounded(25, 600);
        let mut probe = ProvenanceProbe::new(&p, None);
        let _ = demand_driven::simulate_probed(&p, DemandConfig::default(), &cfg, &mut probe);
        let records = probe.into_records();
        assert!(records.iter().any(|r| matches!(r, TraceRecord::Compute { .. })));
        for r in &records {
            if let TraceRecord::Dispatch(d) = r {
                assert_eq!(d.slot, None);
                assert_eq!(d.psi, None);
                assert_eq!(d.period, None);
            }
        }
    }
}
