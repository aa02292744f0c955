//! E17: overlay-tree search on physical networks (Section 5's
//! topological-studies use case).

use crate::table::Table;
use crate::trees::f;
use bwfirst_overlay::graph::{random_graph, RandomGraphConfig};
use bwfirst_overlay::{best_overlay, NodeIx, OverlaySearch};
use std::fmt::Write;

/// E17 — build tree overlays over random physical networks: the
/// `BW-First`-guided local search beats the classic constructions, scoring
/// every candidate exactly with `BW-First` itself.
#[must_use]
pub fn e17_overlay_search() -> String {
    let mut t = Table::new([
        "graph",
        "nodes/edges",
        "min-link tree",
        "shortest-path tree",
        "searched overlay",
        "gain vs best baseline",
        "candidates scored",
    ]);
    for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
        // Bandwidth-bound regime: fast CPUs behind slow links, so the
        // overlay's shape decides how much bandwidth reaches the workers.
        let g = random_graph(&RandomGraphConfig {
            size: 24,
            seed,
            weight_range: (2, 5),
            link_num: (2, 10),
            link_den: (1, 2),
            ..Default::default()
        });
        let res = best_overlay(&g, NodeIx(0), &OverlaySearch::default());
        let base = res.min_link_baseline.max(res.spt_baseline);
        t.row([
            format!("random #{seed}"),
            format!("{}/{}", 24, g.edge_count()),
            f(res.min_link_baseline),
            f(res.spt_baseline),
            f(res.throughput),
            format!("{:+.1}%", 100.0 * ((res.throughput / base).to_f64() - 1.0)),
            res.candidates_scored.to_string(),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "E17  overlay construction on physical networks, scored by BW-First\n").unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nthe min-link (Prim) construction — greedy bandwidth-centricity — is often")
        .unwrap();
    writeln!(out, "already optimal, which the certified search confirms; where it is not, the")
        .unwrap();
    writeln!(out, "reattachment search recovers the gap.").unwrap();
    writeln!(out, "\n\"a quick way to evaluate the throughput of a tree allows to consider a")
        .unwrap();
    writeln!(out, "wider set of trees\" (Section 5): the search scores thousands of candidate")
        .unwrap();
    writeln!(out, "spanning trees, each exactly with BW-First, which visits only the nodes")
        .unwrap();
    writeln!(out, "a candidate's schedule uses.").unwrap();
    out
}
