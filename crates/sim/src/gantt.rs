//! Gantt traces: who did what when (Figure 5).
//!
//! Each node contributes three activity lanes — `R`eceive, `C`ompute,
//! `S`end — matching the paper's final-computation diagram. Segments are
//! intervals of engine ticks, exact at the trace's [`TickScale`];
//! [`Gantt::ascii`] rasterizes them for terminal output so experiment E5
//! can literally print its Figure 5, turning each segment into its exact
//! times once.

use crate::probe::{lane, TickScale};
use bwfirst_platform::NodeId;
use bwfirst_rational::Rat;
use std::collections::HashMap;

/// The activity a segment records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Receiving one task from the parent.
    Receive,
    /// Computing one task.
    Compute,
    /// Sending one task to the given child.
    Send(NodeId),
}

/// One busy interval of one node's resource, in ticks of the trace's scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GanttSegment {
    /// The node doing the work.
    pub node: NodeId,
    /// Which of the three single-port activities.
    pub kind: SegmentKind,
    /// Inclusive start tick.
    pub start: i128,
    /// Exclusive end tick.
    pub end: i128,
}

/// A whole run's trace.
#[derive(Debug, Clone)]
pub struct Gantt {
    /// The run's time scale: tick `t` is time `t / S`.
    pub scale: TickScale,
    /// All recorded segments, in recording order.
    pub segments: Vec<GanttSegment>,
}

impl Gantt {
    /// An empty trace at `scale`.
    #[must_use]
    pub fn new(scale: TickScale) -> Gantt {
        Gantt { scale, segments: Vec::new() }
    }

    /// Records one segment over ticks `[start, end)`.
    pub fn push(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        debug_assert!(start <= end);
        self.segments.push(GanttSegment { node, kind, start, end });
    }

    /// Verifies the single-port exclusivity invariant: within one node, no
    /// two segments of the same lane (receive / compute / send) overlap.
    /// Returns the first offending pair in `(node, lane, start, end)` order,
    /// if any.
    #[must_use]
    pub fn find_overlap(&self) -> Option<(GanttSegment, GanttSegment)> {
        let mut sorted: Vec<&GanttSegment> = self.segments.iter().collect();
        sorted.sort_unstable_by_key(|s| (s.node, lane(s.kind), s.start, s.end));
        sorted.windows(2).find_map(|w| {
            let same_lane = (w[0].node, lane(w[0].kind)) == (w[1].node, lane(w[1].kind));
            (same_lane && w[1].start < w[0].end).then_some((*w[0], *w[1]))
        })
    }

    /// ASCII rendering in the style of Figure 5: one `R`/`C`/`S` row per
    /// node, `cols` characters covering `[0, until)`. A cell shows the
    /// activity occupying the majority of its time slice (ties: first).
    #[must_use]
    pub fn ascii(&self, nodes: &[NodeId], until: Rat, cols: usize) -> String {
        use std::fmt::Write;
        assert!(until.is_positive() && cols > 0);
        let mut out = String::new();
        let dt = until / Rat::from(cols);
        // Header ruler every 10 columns.
        out.push_str("          ");
        for i in 0..cols {
            out.push(if i % 10 == 0 { '|' } else { ' ' });
        }
        out.push('\n');
        // Each listed node's spans per lane, in exact times; a segment that
        // starts at or after `until` covers no cell.
        let mut lanes: HashMap<NodeId, [Vec<(Rat, Rat)>; 3]> =
            nodes.iter().map(|&n| (n, Default::default())).collect();
        let until_tick = self.scale.ceil(until).unwrap_or(i128::MAX);
        for s in self.segments.iter().filter(|s| s.start < until_tick) {
            if let Some(node_lanes) = lanes.get_mut(&s.node) {
                let span = (self.scale.rat(s.start), self.scale.rat(s.end));
                node_lanes[lane(s.kind)].push(span);
            }
        }
        for node in nodes {
            for (spans, label) in lanes[node].iter().zip(['R', 'C', 'S']) {
                let mut row = String::with_capacity(cols);
                for i in 0..cols {
                    let lo = dt * Rat::from(i);
                    let hi = lo + dt;
                    let mut busy = Rat::ZERO;
                    for &(start, end) in spans {
                        let o = end.min(hi) - start.max(lo);
                        if o.is_positive() {
                            busy += o;
                        }
                    }
                    row.push(if busy * Rat::TWO >= dt { label } else { '.' });
                }
                writeln!(out, "{:>6} {label} |{row}|", node.to_string()).unwrap();
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    #[test]
    fn overlap_detection() {
        let mut g = Gantt::new(TickScale::ONE);
        g.push(NodeId(1), SegmentKind::Send(NodeId(2)), 0, 2);
        g.push(NodeId(1), SegmentKind::Send(NodeId(3)), 1, 3);
        assert!(g.find_overlap().is_some());

        let mut ok = Gantt::new(TickScale::ONE);
        ok.push(NodeId(1), SegmentKind::Send(NodeId(2)), 0, 2);
        ok.push(NodeId(1), SegmentKind::Send(NodeId(3)), 2, 3);
        // Different lanes may overlap: that is the full-overlap model.
        ok.push(NodeId(1), SegmentKind::Compute, 0, 3);
        ok.push(NodeId(1), SegmentKind::Receive, 0, 3);
        assert!(ok.find_overlap().is_none());
    }

    #[test]
    fn ascii_renders_rows() {
        let mut g = Gantt::new(TickScale::ONE);
        g.push(NodeId(0), SegmentKind::Compute, 0, 5);
        g.push(NodeId(0), SegmentKind::Send(NodeId(1)), 5, 10);
        let s = g.ascii(&[NodeId(0)], rat(10, 1), 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].contains("CCCCC....."));
        assert!(lines[3].contains(".....SSSSS"));
    }
}
