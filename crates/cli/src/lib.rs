//! `bwfirst` — the command-line interface.
//!
//! ```text
//! bwfirst solve <platform.json>                       # optimal throughput + rates
//! bwfirst schedule <platform.json> [--grid G]         # event-driven schedules
//! bwfirst simulate <platform.json> [--horizon H] [--stop T] [--tasks N]
//!                  [--protocol event|clocked|demand|demand-int] [--gantt U]
//!                  [--trace out.json] [--metrics out.json]
//! bwfirst stats <platform.json> [--horizon H] [--trace out.json]
//! bwfirst generate <random|star|chain|kary|example> [--size N] [--seed S]
//! bwfirst dot <platform.json>                         # Graphviz export
//! ```
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
