//! Regenerates every figure and quantitative claim of the paper.
//!
//! ```text
//! paper_experiments            # list experiments
//! paper_experiments all        # run everything
//! paper_experiments e5 e8      # run a subset
//! paper_experiments records    # write paper_output/records.json
//! ```

use bwfirst_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: paper_experiments <all | records | e1..e19 ...>\n");
        eprintln!("experiments:");
        for (id, what) in experiments::ALL {
            eprintln!("  {id:<4} {what}");
        }
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "records") {
        let records = bwfirst_bench::records::collect();
        let json = bwfirst_bench::records::to_json(&records);
        std::fs::create_dir_all("paper_output").expect("create paper_output");
        std::fs::write("paper_output/records.json", &json).expect("write records");
        println!("wrote paper_output/records.json ({} bytes)", json.len());
        if args.len() == 1 {
            return;
        }
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments::ALL.iter().map(|&(id, _)| id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let ids: Vec<&str> = ids.into_iter().filter(|&id| id != "records").collect();
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
