//! Thin I/O shell around the testable command implementations.

use bwfirst_cli::{dispatch_io, parse_args, usage, CliError};
use std::io::{self, Write};

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
        Ok(out) => emit(&out),
        Err(e) => fail(&e, 1),
    }
}

/// Writes the command's output to stdout. A reader that went away (say,
/// `| head`) ends the run quietly; any other write error is reported.
fn emit(out: &str) {
    let mut stdout = io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(&CliError::Io(format!("stdout: {e}")), 1),
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
