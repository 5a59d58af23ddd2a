//! Tiny dependency-free argument parser for the `mmtag` CLI.
//!
//! Supports `--flag value` and `--flag=value` options plus one positional
//! subcommand, and a small fixed set of valueless boolean flags
//! ([`BOOL_FLAGS`]). Deliberately minimal (the allowed dependency set has
//! no `clap`); the parser is a plain data structure so every command's
//! argument handling is unit-testable without process spawning.
//!
//! Every accessor records the flag it reads, so the flags a command takes
//! are named once, where it reads them: [`Args::refuse_unread`] turns any
//! flag given but never read (a misspelling, a flag of another command)
//! into an argument error.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Flags that take no value: presence stores `"1"` in the option map.
/// Kept as an explicit list so `--flag` with a forgotten value keeps
/// erroring for every value-carrying flag.
pub const BOOL_FLAGS: &[&str] = &["no-cache"];

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first positional argument), if any.
    pub command: Option<String>,
    /// A second positional operand (only `run <scenario>` uses one).
    pub operand: Option<String>,
    /// Option map: `--range 4` → `("range", "4")`. Read only through the
    /// accessors, which record each read in `read`.
    options: BTreeMap<String, String>,
    /// Every flag an accessor has looked up, given or not.
    read: RefCell<BTreeSet<String>>,
}

/// Errors from parsing or extracting arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared with no value.
    MissingValue(String),
    /// A value failed to parse as the requested type.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        raw: String,
    },
    /// A value parsed but lies outside what the flag accepts.
    OutOfRange {
        /// The flag name.
        flag: String,
        /// The raw value.
        raw: String,
        /// What the flag accepts.
        want: &'static str,
    },
    /// Something that is neither the subcommand nor a flag appeared.
    UnexpectedPositional(String),
    /// A flag the command does not read.
    UnknownFlag {
        /// The command, empty when none was given.
        command: String,
        /// The flag name.
        flag: String,
    },
    /// A scenario name that is not in the registry.
    UnknownName(String),
    /// The `--trace` output file could not be written.
    TraceWrite {
        /// The path given to `--trace`.
        path: String,
        /// The I/O error text.
        message: String,
    },
    /// The `serve` daemon could not start or was misconfigured, or
    /// `request` could not reach one or got a response that is not ok.
    Serve {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::BadValue { flag, raw } => {
                write!(f, "--{flag}: cannot parse '{raw}' as a number")
            }
            ArgError::OutOfRange { flag, raw, want } => {
                write!(f, "--{flag}: '{raw}' is not {want}")
            }
            ArgError::UnexpectedPositional(s) => write!(f, "unexpected argument '{s}'"),
            ArgError::UnknownFlag { command, flag } => {
                write!(
                    f,
                    "`mmtag {command}` takes no --{flag} flag (see `mmtag help`)"
                )
            }
            ArgError::UnknownName(s) => {
                write!(f, "unknown scenario '{s}' (see `mmtag scenarios`)")
            }
            ArgError::TraceWrite { path, message } => {
                write!(f, "cannot write trace file '{path}': {message}")
            }
            ArgError::Serve { message } => write!(f, "serve: {message}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse<I, S>(args: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                if let Some((k, v)) = flag.split_once('=') {
                    out.options.insert(k.to_string(), v.to_string());
                } else if BOOL_FLAGS.contains(&flag) {
                    out.options.insert(flag.to_string(), "1".to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(flag.to_string()))?;
                    if value.starts_with("--") {
                        return Err(ArgError::MissingValue(flag.to_string()));
                    }
                    out.options.insert(flag.to_string(), value);
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else if out.operand.is_none() {
                out.operand = Some(arg);
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(out)
    }

    /// The raw value of `flag`, if given; records the read.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.read.borrow_mut().insert(flag.to_string());
        self.options.get(flag).map(String::as_str)
    }

    /// Whether `flag` was given (boolean flags); records the read.
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The error for the first flag given (in name order) that no accessor
    /// has read, if any: call once the command has read every flag it
    /// takes.
    pub fn refuse_unread(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        match self.options.keys().find(|flag| !read.contains(*flag)) {
            None => Ok(()),
            Some(flag) => Err(ArgError::UnknownFlag {
                command: self.command.clone().unwrap_or_default(),
                flag: flag.clone(),
            }),
        }
    }

    /// A number option with a default.
    fn parsed_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                raw: raw.to_string(),
            }),
        }
    }

    /// A float option with a default.
    pub fn f64_or(&self, flag: &str, default: f64) -> Result<f64, ArgError> {
        self.parsed_or(flag, default)
    }

    /// An integer option with a default.
    pub fn usize_or(&self, flag: &str, default: usize) -> Result<usize, ArgError> {
        self.parsed_or(flag, default)
    }

    /// A float option with a default that must satisfy `ok`; `want` says
    /// what the flag accepts when it does not.
    pub fn f64_where_or(
        &self,
        flag: &str,
        default: f64,
        want: &'static str,
        ok: impl Fn(f64) -> bool,
    ) -> Result<f64, ArgError> {
        let value = self.f64_or(flag, default)?;
        if ok(value) {
            Ok(value)
        } else {
            Err(self.out_of_range(flag, want))
        }
    }

    /// A positive, finite float option with a default (distances,
    /// magnitudes).
    pub fn positive_f64_or(&self, flag: &str, default: f64) -> Result<f64, ArgError> {
        self.f64_where_or(flag, default, "a positive, finite number", |v| {
            v.is_finite() && v > 0.0
        })
    }

    /// An angle option in degrees with a default, within ±360°.
    pub fn angle_deg_or(&self, flag: &str, default: f64) -> Result<f64, ArgError> {
        self.f64_where_or(flag, default, "an angle within ±360°", |deg| {
            (-360.0..=360.0).contains(&deg)
        })
    }

    /// A positive integer option with a default (counts).
    pub fn positive_usize_or(&self, flag: &str, default: usize) -> Result<usize, ArgError> {
        let value = self.usize_or(flag, default)?;
        if value > 0 {
            Ok(value)
        } else {
            Err(self.out_of_range(flag, "a positive integer"))
        }
    }

    /// The error for a `flag` whose given value lies outside `want`.
    pub fn out_of_range(&self, flag: &str, want: &'static str) -> ArgError {
        ArgError::OutOfRange {
            flag: flag.to_string(),
            raw: self.str_or(flag, ""),
            want,
        }
    }

    /// A u64 option with a default (seeds).
    pub fn u64_or(&self, flag: &str, default: u64) -> Result<u64, ArgError> {
        self.parsed_or(flag, default)
    }

    /// A string option with a default.
    pub fn str_or(&self, flag: &str, default: &str) -> String {
        self.value(flag).unwrap_or(default).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse(["link", "--range", "4", "--elements", "6"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("link"));
        assert_eq!(a.f64_or("range", 0.0).unwrap(), 4.0);
        assert_eq!(a.usize_or("elements", 0).unwrap(), 6);
    }

    #[test]
    fn equals_syntax_works() {
        let a = Args::parse(["scan", "--beamwidth=10.5"]).unwrap();
        assert_eq!(a.f64_or("beamwidth", 0.0).unwrap(), 10.5);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(["link"]).unwrap();
        assert_eq!(a.f64_or("range", 4.0).unwrap(), 4.0);
        assert_eq!(a.str_or("band", "24ghz"), "24ghz");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            Args::parse(["link", "--range"]),
            Err(ArgError::MissingValue("range".into()))
        );
        assert_eq!(
            Args::parse(["link", "--range", "--elements"]),
            Err(ArgError::MissingValue("range".into()))
        );
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = Args::parse(["link", "--range", "abc"]).unwrap();
        assert!(matches!(
            a.f64_or("range", 0.0),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn second_positional_is_the_operand_and_a_third_errors() {
        let a = Args::parse(["run", "e02-link-budget"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.operand.as_deref(), Some("e02-link-budget"));
        assert_eq!(
            Args::parse(["run", "e02-link-budget", "oops"]),
            Err(ArgError::UnexpectedPositional("oops".into()))
        );
    }

    #[test]
    fn boolean_flags_need_no_value() {
        // `--no-cache` consumes nothing: a following flag or positional
        // is parsed on its own.
        let a = Args::parse(["run", "e05-ber", "--no-cache", "--quick", "1"]).unwrap();
        assert_eq!(a.operand.as_deref(), Some("e05-ber"));
        assert_eq!(a.options.get("no-cache").map(String::as_str), Some("1"));
        assert_eq!(a.usize_or("quick", 0).unwrap(), 1);
        let b = Args::parse(["run", "e05-ber", "--no-cache"]).unwrap();
        assert!(b.options.contains_key("no-cache"));
    }

    #[test]
    fn no_command_is_fine() {
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert!(a.command.is_none());
    }

    #[test]
    fn positive_options_refuse_zero_negative_and_non_finite_values() {
        for raw in ["0", "-3", "inf", "NaN"] {
            let a = Args::parse(["link", "--range", raw]).unwrap();
            assert_eq!(
                a.positive_f64_or("range", 4.0),
                Err(ArgError::OutOfRange {
                    flag: "range".into(),
                    raw: raw.into(),
                    want: "a positive, finite number"
                })
            );
        }
        let a = Args::parse(["city", "--tags", "0"]).unwrap();
        assert!(matches!(
            a.positive_usize_or("tags", 1),
            Err(ArgError::OutOfRange { .. })
        ));
        let a = Args::parse(["link"]).unwrap();
        assert_eq!(a.positive_f64_or("range", 4.0), Ok(4.0));
        assert_eq!(a.positive_usize_or("tags", 2), Ok(2));
    }

    #[test]
    fn negative_numbers_pass_through() {
        let a = Args::parse(["locate", "--bearing", "-25"]).unwrap();
        assert_eq!(a.f64_or("bearing", 0.0).unwrap(), -25.0);
    }
}
