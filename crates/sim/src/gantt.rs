//! Gantt traces: who did what when (Figure 5).
//!
//! Each node contributes three activity lanes — `R`eceive, `C`ompute,
//! `S`end — matching the paper's final-computation diagram. Segments are
//! exact-rational intervals; [`Gantt::ascii`] rasterizes them for terminal
//! output so experiment E5 can literally print its Figure 5.

use crate::probe::lane;
use bwfirst_platform::NodeId;
use bwfirst_rational::Rat;

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

/// One busy interval of one node's resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GanttSegment {
    /// The node doing the work.
    pub node: NodeId,
    /// Which of the three single-port activities.
    pub kind: SegmentKind,
    /// Inclusive start time.
    pub start: Rat,
    /// Exclusive end time.
    pub end: Rat,
}

/// A whole run's trace.
#[derive(Debug, Clone, Default)]
pub struct Gantt {
    /// All recorded segments, in recording order.
    pub segments: Vec<GanttSegment>,
}

impl Gantt {
    /// Records one segment.
    pub fn push(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        debug_assert!(start <= end);
        self.segments.push(GanttSegment { node, kind, start, end });
    }

    /// Verifies the single-port exclusivity invariant: within one node, no
    /// two segments of the same lane (receive / compute / send) overlap.
    /// Returns the first offending pair, if any.
    #[must_use]
    pub fn find_overlap(&self) -> Option<(GanttSegment, GanttSegment)> {
        type LaneSegments = Vec<(Rat, Rat, GanttSegment)>;
        let mut by_key: std::collections::HashMap<(u32, usize), LaneSegments> =
            std::collections::HashMap::new();
        for s in &self.segments {
            by_key.entry((s.node.0, lane(s.kind))).or_default().push((s.start, s.end, *s));
        }
        for list in by_key.values_mut() {
            list.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            for w in list.windows(2) {
                if w[1].0 < w[0].1 {
                    return Some((w[0].2, w[1].2));
                }
            }
        }
        None
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
        for &node in nodes {
            for (want, label) in [(0, 'R'), (1, 'C'), (2, 'S')] {
                let mut row = String::with_capacity(cols);
                for i in 0..cols {
                    let lo = dt * Rat::from(i);
                    let hi = lo + dt;
                    let mut busy = Rat::ZERO;
                    for s in self.segments.iter().filter(|s| s.node == node && lane(s.kind) == want)
                    {
                        let o = s.end.min(hi) - s.start.max(lo);
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
        let mut g = Gantt::default();
        g.push(NodeId(1), SegmentKind::Send(NodeId(2)), rat(0, 1), rat(2, 1));
        g.push(NodeId(1), SegmentKind::Send(NodeId(3)), rat(1, 1), rat(3, 1));
        assert!(g.find_overlap().is_some());

        let mut ok = Gantt::default();
        ok.push(NodeId(1), SegmentKind::Send(NodeId(2)), rat(0, 1), rat(2, 1));
        ok.push(NodeId(1), SegmentKind::Send(NodeId(3)), rat(2, 1), rat(3, 1));
        // Different lanes may overlap: that is the full-overlap model.
        ok.push(NodeId(1), SegmentKind::Compute, rat(0, 1), rat(3, 1));
        ok.push(NodeId(1), SegmentKind::Receive, rat(0, 1), rat(3, 1));
        assert!(ok.find_overlap().is_none());
    }

    #[test]
    fn ascii_renders_rows() {
        let mut g = Gantt::default();
        g.push(NodeId(0), SegmentKind::Compute, rat(0, 1), rat(5, 1));
        g.push(NodeId(0), SegmentKind::Send(NodeId(1)), rat(5, 1), rat(10, 1));
        let s = g.ascii(&[NodeId(0)], rat(10, 1), 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].contains("CCCCC....."));
        assert!(lines[3].contains(".....SSSSS"));
    }
}
