//! Topological studies: pick the best tree overlay on a physical network.
//!
//! The paper suggests `BW-First` as the throughput evaluator for overlay
//! construction ("a quick way to evaluate the throughput of a tree allows to
//! consider a wider set of trees", Section 5). This example builds a random
//! physical network, constructs the classic overlays (Prim's min-link tree,
//! Dijkstra's shortest-path tree, random spanning trees), improves on them
//! with reattachment hill-climbing, and prints the winning overlay as a
//! schedulable platform.
//!
//! ```text
//! cargo run --release --example overlay_search
//! ```

use bwfirst::core::{bw_first, SteadyState};
use bwfirst::overlay::graph::{random_graph, RandomGraphConfig};
use bwfirst::overlay::{
    best_overlay, min_link_tree, random_spanning_tree, shortest_path_tree, NodeIx, OverlaySearch,
};
use bwfirst::platform::io;

fn main() {
    // A 32-node physical network in the bandwidth-bound regime: fast CPUs,
    // slow heterogeneous links — exactly where the overlay's shape matters.
    let g = random_graph(&RandomGraphConfig {
        size: 32,
        extra_edge_pct: 200,
        weight_range: (2, 5),
        link_num: (2, 10),
        link_den: (1, 2),
        seed: 1,
    });
    let master = NodeIx(0);
    println!("physical network: {} nodes, {} links", g.len(), g.edge_count());

    // Classic constructions, scored exactly.
    let score = |t: &bwfirst::overlay::SpanningTree| bwfirst::overlay::convert::exact_score(&g, t);
    let prim = min_link_tree(&g, master);
    let spt = shortest_path_tree(&g, master);
    println!("\nclassic overlays:");
    println!("  min-link (Prim)      : {}", score(&prim));
    println!("  shortest-path tree   : {}", score(&spt));
    for seed in 0..3 {
        let rnd = random_spanning_tree(&g, master, seed);
        println!("  random spanning #{seed}   : {}", score(&rnd));
    }

    // BW-First-guided local search.
    let res = best_overlay(&g, master, &OverlaySearch { restarts: 8, passes: 12, seed: 7 });
    println!("\nsearched overlay:");
    println!("  throughput           : {} (exact)", res.throughput);
    println!("  candidates scored    : {} (each exactly, by BW-First)", res.candidates_scored);
    println!(
        "  gain over baselines  : {:+.1}%",
        100.0 * ((res.throughput / res.min_link_baseline.max(res.spt_baseline)).to_f64() - 1.0)
    );

    // The winner is a regular platform: schedule it like any other.
    let sol = bw_first(&res.platform);
    let ss = SteadyState::from_solution(&sol);
    ss.verify(&res.platform).expect("feasible");
    println!(
        "\nwinning overlay uses {}/{} nodes; platform JSON:\n{}",
        sol.visit_count(),
        res.platform.len(),
        &io::to_json(&res.platform)[..300.min(io::to_json(&res.platform).len())]
    );
}
