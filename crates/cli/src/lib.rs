//! `bwfirst` — the command-line interface.
//!
//! The subcommands and the flags each one reads are listed in [`usage`],
//! which `bwfirst help` prints.
//!
//! `--trace` writes a Chrome trace-event JSON (load it in `chrome://tracing`
//! or Perfetto); `--metrics` writes the counters/histograms as JSON; `stats`
//! prints an instrumented summary across protocol, solver and simulator.
//!
//! Platform files use the JSON format of `bwfirst_platform::io`. All command
//! implementations return their output as a `String` so they are unit-tested
//! directly; `main` only does I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{parse_args, Args, CliError};
pub use commands::{dispatch, dispatch_io, usage};
