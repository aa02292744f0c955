//! SVG rendering of Gantt traces — a publication-quality Figure 5.
//!
//! Pure string generation, no graphics dependencies: each node gets three
//! lanes (receive / compute / send), segments become `<rect>` elements, and
//! a time axis with ticks runs along the bottom. Open the output in any
//! browser.

use crate::gantt::{Gantt, SegmentKind};
use bwfirst_platform::NodeId;
use bwfirst_rational::Rat;
use std::fmt::Write;

/// Drawing width in pixels (the time axis spans this minus the label gutter).
const WIDTH: u32 = 1000;
/// Height of one activity lane in pixels.
const LANE_HEIGHT: u32 = 14;
/// Gap between nodes in pixels.
const NODE_GAP: u32 = 10;
/// Approximate number of time-axis ticks.
const TICKS: u32 = 12;
const GUTTER: u32 = 64;
const AXIS: u32 = 28;

fn lane_color(kind: SegmentKind) -> &'static str {
    match kind {
        SegmentKind::Receive => "#4C72B0",
        SegmentKind::Compute => "#55A868",
        SegmentKind::Send(_) => "#DD8452",
    }
}

/// Renders the trace of `nodes` over `[0, until)` as a standalone SVG
/// document.
#[must_use]
pub fn render_svg(gantt: &Gantt, nodes: &[NodeId], until: Rat) -> String {
    assert!(until.is_positive(), "horizon must be positive");
    let plot_w = (WIDTH - GUTTER) as f64;
    let node_h = 3 * LANE_HEIGHT + NODE_GAP;
    let height = nodes.len() as u32 * node_h + AXIS;
    let x_of = |t: Rat| -> f64 { GUTTER as f64 + (t / until).to_f64().clamp(0.0, 1.0) * plot_w };

    let mut s = String::new();
    writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" viewBox="0 0 {WIDTH} {height}" font-family="sans-serif" font-size="10">"#
    )
    .unwrap();
    writeln!(s, r##"<rect width="{WIDTH}" height="{height}" fill="#ffffff"/>"##).unwrap();

    // Node labels, lane letters and lane baselines.
    for (ni, &node) in nodes.iter().enumerate() {
        let top = ni as u32 * node_h;
        writeln!(
            s,
            r#"<text x="4" y="{}" font-weight="bold">{node}</text>"#,
            top + 3 * LANE_HEIGHT / 2
        )
        .unwrap();
        for (lane, label) in [(0u32, "R"), (1, "C"), (2, "S")] {
            let y = top + lane * LANE_HEIGHT;
            writeln!(
                s,
                r##"<text x="{x}" y="{ty}" fill="#888">{label}</text>"##,
                x = GUTTER - 14,
                ty = y + LANE_HEIGHT - 3
            )
            .unwrap();
            writeln!(
                s,
                r##"<line x1="{x1}" y1="{ly}" x2="{x2}" y2="{ly}" stroke="#eeeeee"/>"##,
                x1 = GUTTER,
                x2 = WIDTH,
                ly = y + LANE_HEIGHT
            )
            .unwrap();
        }
    }

    // Segments, each turned into its exact times once.
    for seg in &gantt.segments {
        let Some(ni) = nodes.iter().position(|&n| n == seg.node) else { continue };
        let (start, end) = (gantt.scale.rat(seg.start), gantt.scale.rat(seg.end));
        if start >= until || end <= Rat::ZERO {
            continue;
        }
        let x0 = x_of(start.max(Rat::ZERO));
        let x1 = x_of(end.min(until));
        let y = ni as u32 * node_h + crate::probe::lane(seg.kind) as u32 * LANE_HEIGHT;
        let title = match seg.kind {
            SegmentKind::Receive => format!("{} receives [{start}, {end})", seg.node),
            SegmentKind::Compute => format!("{} computes [{start}, {end})", seg.node),
            SegmentKind::Send(child) => format!("{} sends to {child} [{start}, {end})", seg.node),
        };
        writeln!(
            s,
            r##"<rect x="{x0:.2}" y="{y}" width="{w:.2}" height="{h}" fill="{fill}" stroke="#ffffff" stroke-width="0.5"><title>{title}</title></rect>"##,
            w = (x1 - x0).max(0.5),
            h = LANE_HEIGHT - 2,
            fill = lane_color(seg.kind),
        )
        .unwrap();
    }

    // Time axis.
    let axis_y = nodes.len() as u32 * node_h + 4;
    writeln!(
        s,
        r##"<line x1="{GUTTER}" y1="{axis_y}" x2="{WIDTH}" y2="{axis_y}" stroke="#333333"/>"##
    )
    .unwrap();
    let until_f = until.to_f64();
    let step = nice_step(until_f / f64::from(TICKS));
    let mut t = 0.0;
    while t <= until_f + 1e-9 {
        let x = GUTTER as f64 + (t / until_f) * plot_w;
        writeln!(
            s,
            r##"<line x1="{x:.2}" y1="{axis_y}" x2="{x:.2}" y2="{}" stroke="#333333"/>"##,
            axis_y + 4
        )
        .unwrap();
        writeln!(s, r#"<text x="{x:.2}" y="{}" text-anchor="middle">{t}</text>"#, axis_y + 16)
            .unwrap();
        t += step;
    }
    writeln!(s, "</svg>").unwrap();
    s
}

/// Rounds a raw tick step to a 1/2/5 × 10^k value.
fn nice_step(raw: f64) -> f64 {
    if raw <= 0.0 {
        return 1.0;
    }
    let mag = 10f64.powf(raw.log10().floor());
    let frac = raw / mag;
    let nice = if frac <= 1.0 {
        1.0
    } else if frac <= 2.0 {
        2.0
    } else if frac <= 5.0 {
        5.0
    } else {
        10.0
    };
    nice * mag
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn sample() -> Gantt {
        let mut g = Gantt::new(crate::probe::TickScale::ONE);
        g.push(NodeId(0), SegmentKind::Compute, 0, 5);
        g.push(NodeId(0), SegmentKind::Send(NodeId(1)), 5, 8);
        g.push(NodeId(1), SegmentKind::Receive, 5, 8);
        g
    }

    #[test]
    fn renders_valid_svg_skeleton() {
        let svg = render_svg(&sample(), &[NodeId(0), NodeId(1)], rat(10, 1));
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Three rects for the three segments plus the background.
        assert_eq!(svg.matches("<rect").count(), 4);
        assert!(svg.contains("P0 computes [0, 5)"));
        assert!(svg.contains("P0 sends to P1 [5, 8)"));
        assert!(svg.contains("P1 receives [5, 8)"));
    }

    #[test]
    fn clips_to_horizon_and_node_list() {
        let mut g = sample();
        g.push(NodeId(0), SegmentKind::Compute, 50, 60); // beyond
        g.push(NodeId(9), SegmentKind::Compute, 1, 2); // not listed
        let svg = render_svg(&g, &[NodeId(0), NodeId(1)], rat(10, 1));
        assert_eq!(svg.matches("<rect").count(), 4);
        assert!(!svg.contains("P9"));
    }

    #[test]
    fn lanes_have_distinct_colors() {
        let svg = render_svg(&sample(), &[NodeId(0), NodeId(1)], rat(10, 1));
        assert!(svg.contains("#55A868")); // compute
        assert!(svg.contains("#DD8452")); // send
        assert!(svg.contains("#4C72B0")); // receive
    }

    #[test]
    fn nice_steps() {
        assert_eq!(nice_step(0.9), 1.0);
        assert_eq!(nice_step(1.4), 2.0);
        assert_eq!(nice_step(3.2), 5.0);
        assert_eq!(nice_step(7.0), 10.0);
        assert_eq!(nice_step(34.0), 50.0);
        assert_eq!(nice_step(0.0), 1.0);
    }

    #[test]
    fn axis_ticks_present() {
        let svg = render_svg(&sample(), &[NodeId(0)], rat(100, 1));
        assert!(svg.contains(">0</text>"));
        assert!(svg.contains(">100</text>") || svg.contains(">90</text>"));
    }
}
