//! Byte-for-byte goldens of the observability exports: the stdout, the
//! Chrome trace (`--trace`) and the metrics (`--metrics`) of `simulate` and
//! `stats` on the Figure 2 tree and on `generate random --size 60 --seed 7`,
//! one synchronous period of Figure 2 long. The commands run through
//! `dispatch_io` with an in-memory file sink. Set `BLESS=1` to regenerate
//! after an intentional change.

use bwfirst_cli::{dispatch, dispatch_io, parse_args, Args};
use std::cell::RefCell;

/// Compares `got` with the committed file `testdata/<name>` byte for byte.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("regenerate golden file");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(got, golden, "{name} drifted from the committed golden file");
}

fn args(argv: &[&str]) -> Args {
    parse_args(argv.iter().map(ToString::to_string)).expect("well-formed command line")
}

/// The platform file `bwfirst generate <argv>` prints.
fn generate(argv: &[&str]) -> String {
    let argv: Vec<&str> = ["generate"].iter().chain(argv).copied().collect();
    dispatch(&args(&argv), |path| Err(format!("no such file {path}"))).expect("generate")
}

#[test]
fn observability_exports_match_the_golden_files() {
    let inputs = [
        ("fig2", generate(&["example"])),
        ("random60", generate(&["random", "--size", "60", "--seed", "7"])),
    ];
    for (name, platform) in &inputs {
        for command in ["simulate", "stats"] {
            let exports = ["--trace", "trace.json", "--metrics", "metrics.json"];
            let argv = [[command, "in.json", "--horizon", "36"], exports].concat();
            let written = RefCell::new(Vec::new());
            let out = dispatch_io(
                &args(&argv),
                |_| Ok(platform.clone()),
                |path, contents| {
                    written.borrow_mut().push((path.to_string(), contents.to_string()));
                    Ok(())
                },
            )
            .expect("command runs");
            assert_golden(&format!("{name}_{command}.txt"), &out);
            let written = written.into_inner();
            let paths: Vec<&str> = written.iter().map(|(path, _)| path.as_str()).collect();
            assert_eq!(paths, ["trace.json", "metrics.json"], "{name} {command}");
            for (path, contents) in &written {
                assert_golden(&format!("{name}_{command}_{path}"), contents);
            }
        }
    }
}
