//! Tiny dependency-free argument parsing: positional arguments plus
//! `--key value` flags, collected into a map for the commands to consume.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: the subcommand, its positionals, and `--flag value`
/// pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// First token: the subcommand name.
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (keys stored without the dashes).
    pub flags: BTreeMap<String, String>,
}

/// Errors from parsing or running a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    Missing,
    /// A `--flag` had no value.
    FlagWithoutValue(String),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A `--flag` the subcommand does not read.
    UnknownFlag(String),
    /// A required positional or flag was absent.
    MissingArgument(&'static str),
    /// A value failed to parse.
    BadValue {
        /// Which flag/argument.
        what: &'static str,
        /// The offending text.
        value: String,
    },
    /// Reading or parsing the platform file failed.
    Platform(String),
    /// Writing an output file (`--trace`, `--metrics`) failed.
    Io(String),
    /// A simulation or protocol run rejected its inputs.
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Missing => f.write_str("no subcommand given"),
            CliError::FlagWithoutValue(k) => write!(f, "flag --{k} needs a value"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            CliError::UnknownFlag(k) => write!(f, "unknown flag --{k} for this subcommand"),
            CliError::MissingArgument(a) => write!(f, "missing argument: {a}"),
            CliError::BadValue { what, value } => write!(f, "bad value for {what}: `{value}`"),
            CliError::Platform(msg) => write!(f, "platform error: {msg}"),
            CliError::Io(msg) => write!(f, "output error: {msg}"),
            CliError::Runtime(msg) => write!(f, "runtime error: {msg}"),
        }
    }
}

impl CliError {
    /// Whether the command line itself was wrong, so the usage text helps;
    /// a run-time failure of a well-formed command is reported alone.
    #[must_use]
    pub fn is_usage(&self) -> bool {
        !matches!(self, CliError::Platform(_) | CliError::Io(_) | CliError::Runtime(_))
    }
}

impl std::error::Error for CliError {}

/// Splits raw arguments (without the binary name) into [`Args`].
pub fn parse_args<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
    let mut it = raw.into_iter();
    let command = it.next().ok_or(CliError::Missing)?;
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    while let Some(tok) = it.next() {
        if let Some(key) = tok.strip_prefix("--") {
            let value = it.next().ok_or_else(|| CliError::FlagWithoutValue(key.to_string()))?;
            flags.insert(key.to_string(), value);
        } else {
            positional.push(tok);
        }
    }
    Ok(Args { command, positional, flags })
}

impl Args {
    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize, what: &'static str) -> Result<&str, CliError> {
        self.positional.get(i).map(String::as_str).ok_or(CliError::MissingArgument(what))
    }

    /// A flag parsed into `T`, or `default` when absent.
    pub fn flag_or<T: std::str::FromStr>(
        &self,
        key: &str,
        what: &'static str,
        default: T,
    ) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue { what, value: v.clone() }),
        }
    }

    /// An optional flag parsed into `T`.
    pub fn flag_opt<T: std::str::FromStr>(
        &self,
        key: &str,
        what: &'static str,
    ) -> Result<Option<T>, CliError> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => {
                v.parse().map(Some).map_err(|_| CliError::BadValue { what, value: v.clone() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, CliError> {
        parse_args(v.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = args(&["simulate", "tree.json", "--horizon", "100", "--gantt", "60"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.positional, vec!["tree.json"]);
        assert_eq!(a.flags.get("horizon").map(String::as_str), Some("100"));
        assert_eq!(a.flag_or("horizon", "h", 0i64).unwrap(), 100);
        assert_eq!(a.flag_or("missing", "m", 7i64).unwrap(), 7);
        assert_eq!(a.flag_opt::<i64>("gantt", "g").unwrap(), Some(60));
        assert_eq!(a.flag_opt::<i64>("nope", "n").unwrap(), None);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(args(&[]), Err(CliError::Missing));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert_eq!(args(&["solve", "--grid"]), Err(CliError::FlagWithoutValue("grid".into())));
    }

    #[test]
    fn rejects_bad_value() {
        let a = args(&["solve", "--grid", "abc"]).unwrap();
        assert!(matches!(a.flag_or("grid", "grid", 1i64), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn only_command_line_mistakes_are_usage_errors() {
        let usage = [
            CliError::Missing,
            CliError::FlagWithoutValue("grid".into()),
            CliError::UnknownCommand("solv".into()),
            CliError::UnknownFlag("bogus".into()),
            CliError::MissingArgument("platform file"),
            CliError::BadValue { what: "--grid", value: "abc".into() },
        ];
        assert!(usage.iter().all(CliError::is_usage));
        let runtime = [
            CliError::Platform("no such file".into()),
            CliError::Io("read-only".into()),
            CliError::Runtime("traces diverge".into()),
        ];
        assert!(!runtime.iter().any(CliError::is_usage));
    }

    #[test]
    fn missing_positional() {
        let a = args(&["solve"]).unwrap();
        assert_eq!(a.pos(0, "platform file"), Err(CliError::MissingArgument("platform file")));
    }
}
