//! The committed paper artifacts regenerate byte for byte: `records.json`
//! (the quantitative claims as JSON) and `figure5.svg` (the Figure 5 Gantt
//! chart). A diff here means a published number or the figure changed; if
//! that is intended, regenerate both with
//! `cargo run --release -p bwfirst-bench --bin paper_experiments -- records`
//! from the repository root.

use bwfirst_bench::{experiments, records};

fn committed(name: &str) -> String {
    let path = format!("{}/../../paper_output/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn records_json_matches_the_committed_file() {
    let json = records::to_json(&records::collect());
    assert!(json == committed("records.json"), "records.json drifted from paper_output/");
}

#[test]
fn figure5_svg_matches_the_committed_file() {
    let svg = experiments::figure5().svg;
    assert!(svg == committed("figure5.svg"), "figure5.svg drifted from paper_output/");
}
