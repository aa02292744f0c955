//! Regenerates every figure and quantitative claim of the paper.
//!
//! ```text
//! paper_experiments            # list experiments
//! paper_experiments all        # run everything
//! paper_experiments e5 e8      # run a subset
//! paper_experiments records    # write paper_output/records.json and figure5.svg
//! ```

use bwfirst_bench::{experiments, records};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: paper_experiments <all | records | e1..e19 ...>\n");
        eprintln!("experiments:");
        for (id, what, _) in experiments::ALL {
            eprintln!("  {id:<4} {what}");
        }
        std::process::exit(2);
    }
    let write_records = args.iter().any(|a| a == "records");
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments::ALL.iter().map(|&(id, ..)| id).collect()
    } else {
        args.iter().map(String::as_str).filter(|&id| id != "records").collect()
    };
    // The committed artifacts: E5's Gantt chart whenever E5 runs, and the
    // records projected from the experiments' results.
    if write_records || ids.contains(&"e5") {
        std::fs::create_dir_all("paper_output").expect("create paper_output");
        let svg = experiments::figure5().svg;
        std::fs::write("paper_output/figure5.svg", &svg).expect("write figure5.svg");
        println!("wrote paper_output/figure5.svg ({} bytes)", svg.len());
    }
    if write_records {
        let json = records::to_json(&records::collect());
        std::fs::write("paper_output/records.json", &json).expect("write records");
        println!("wrote paper_output/records.json ({} bytes)", json.len());
    }
    for id in ids {
        match experiments::run(id) {
            Some(report) => {
                println!("{}", "=".repeat(78));
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment `{id}` (use e1..e19, records, or all)");
                std::process::exit(2);
            }
        }
    }
}
