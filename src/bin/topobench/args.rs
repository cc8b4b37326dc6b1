//! The one typed argument layer: `--key value` pairs, boolean switches
//! and at most one positional (a family or a figure), checked against
//! the subcommand's declared flags so a typo or an unparsable value is
//! a usage error instead of a silently applied default.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

use dctopo::core::{SpecError, TopologyPoint};

use crate::Command;

/// How a subcommand fails.
pub enum CliError {
    /// The invocation is malformed: synopsis plus message, exit 2.
    Usage(String),
    /// The invocation is well-formed but the run failed: message, exit 1.
    Fail(String),
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Usage(e.to_string())
    }
}

pub type CliResult<T = ()> = Result<T, CliError>;

/// Turn a library error into a run failure with context (`what: error`).
pub trait OrFail<T> {
    fn or_fail(self, what: impl Display) -> CliResult<T>;
}

impl<T, E: Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, what: impl Display) -> CliResult<T> {
        self.map_err(|e| CliError::Fail(format!("{what}: {e}")))
    }
}

pub struct Args {
    cmd: &'static Command,
    values: HashMap<String, String>,
    switches: Vec<String>,
    positional: Option<String>,
}

impl Args {
    pub fn parse(cmd: &'static Command, raw: &[String]) -> CliResult<Args> {
        let mut args = Args {
            cmd,
            values: HashMap::new(),
            switches: Vec::new(),
            positional: None,
        };
        let mut raw = raw.iter();
        while let Some(tok) = raw.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if args.is_switch(key) {
                    args.switches.push(key.to_string());
                } else if args.declares(key) {
                    let value = raw
                        .next()
                        .ok_or_else(|| CliError::Usage(format!("missing value for --{key}")))?;
                    args.values.insert(key.to_string(), value.clone());
                } else {
                    return Err(CliError::Usage(format!(
                        "unknown flag --{key} for `{}`",
                        cmd.name
                    )));
                }
            } else if !cmd.positional.is_empty() && args.positional.is_none() {
                args.positional = Some(tok.clone());
            } else {
                return Err(CliError::Usage(format!("unexpected argument '{tok}'")));
            }
        }
        Ok(args)
    }

    fn is_switch(&self, key: &str) -> bool {
        self.cmd.switches.split_whitespace().any(|s| s == key)
            || (self.cmd.positional == "family" && key == "rewired")
    }

    /// Whether this subcommand takes `--key value`: its own flags, the
    /// family dimensions of the flag form, and the global two.
    pub fn declares(&self, key: &str) -> bool {
        self.cmd.values.split_whitespace().any(|v| v == key)
            || (self.cmd.positional == "family"
                && TopologyPoint::flag_forms().any(|(_, f)| f.contains(&key)))
            || matches!(key, "threads" | "trace")
    }

    /// The positional: a flag-form subcommand's family, `figures`' target.
    pub fn positional(&self) -> CliResult<&str> {
        self.positional.as_deref().ok_or_else(|| {
            CliError::Usage(format!(
                "`{}` needs a <{}>",
                self.cmd.name, self.cmd.positional
            ))
        })
    }

    pub fn switch(&self, key: &str) -> bool {
        debug_assert!(self.is_switch(key), "--{key} is not declared");
        self.switches.iter().any(|s| s == key)
    }

    /// The raw text of `--key`, if given.
    pub fn text(&self, key: &str) -> Option<&str> {
        debug_assert!(self.declares(key), "--{key} is not declared");
        self.values.get(key).map(String::as_str)
    }

    /// `--key` parsed as `T`; a value that does not parse is a usage
    /// error, never a silent default.
    pub fn get<T: FromStr<Err: Display>>(&self, key: &str) -> CliResult<Option<T>> {
        self.text(key).map(|v| parse_as(key, v)).transpose()
    }

    pub fn require<T: FromStr<Err: Display>>(&self, key: &str) -> CliResult<T> {
        self.get(key)?
            .ok_or_else(|| CliError::Usage(format!("missing --{key}")))
    }

    /// A comma-separated axis (`--families a,b,c`), `default` when absent.
    pub fn list<T: FromStr<Err: Display>>(&self, key: &str, default: &str) -> CliResult<Vec<T>> {
        let items = self.text(key).unwrap_or(default).split(',');
        items.map(|item| parse_as(key, item.trim())).collect()
    }
}

fn parse_as<T: FromStr<Err: Display>>(key: &str, text: &str) -> CliResult<T> {
    text.parse()
        .map_err(|e| CliError::Usage(format!("--{key} {text}: {e}")))
}
