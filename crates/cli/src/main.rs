//! Thin I/O shell around the testable command implementations.

use bwfirst_cli::{dispatch_io, parse_args, usage, CliError};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(raw) {
        Ok(a) => a,
        Err(e) => fail(&e, 2),
    };
    match dispatch_io(
        &args,
        |path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        |path, contents| std::fs::write(path, contents).map_err(|e| format!("{path}: {e}")),
    ) {
        Ok(out) => print!("{out}"),
        Err(e) => fail(&e, 1),
    }
}

/// Reports `e` on stderr — one `error:` line, followed by the usage text
/// only when the command line itself was wrong — and exits with `code`.
fn fail(e: &CliError, code: i32) -> ! {
    if *e != CliError::Missing {
        eprintln!("error: {e}");
    }
    if e.is_usage() {
        eprint!("{}", usage());
    }
    std::process::exit(code);
}
