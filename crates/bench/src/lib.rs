//! Shared plumbing for the `dream` CLI and the registry-wide `all` runner.
//!
//! The real content lives in `dream-sim`; this crate parses the tiny
//! command-line vocabulary the binaries share ([`Args`]), hosts the
//! scenario-driving CLI ([`cli`]), and decides where artifacts land
//! (`results/` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;

use std::path::PathBuf;

/// Minimal flag parser: `--key value` pairs, bare `--switch`es, and
/// positional arguments (subcommands and targets).
///
/// ```
/// let args = dream_bench::Args::parse(["run", "fig2", "--runs", "8", "--smoke"].iter().map(|s| s.to_string()));
/// assert_eq!(args.positional(0), Some("run"));
/// assert_eq!(args.positional(1), Some("fig2"));
/// assert_eq!(args.value("runs"), Some("8"));
/// assert!(args.switch("smoke"));
/// assert!(!args.switch("area"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    pub fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut pairs = Vec::new();
        let mut positionals = Vec::new();
        let mut iter = raw.peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next(),
                    _ => None,
                };
                pairs.push((key.to_string(), value));
            } else {
                positionals.push(a);
            }
        }
        Args { pairs, positionals }
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The value of `--key value`, if present.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// True when `--key` was given (with or without a value).
    pub fn switch(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// The `i`-th positional argument (subcommand, target, …).
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Parses `--key` as a number, falling back to `default`.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value does not parse.
    pub fn number(&self, key: &str, default: usize) -> usize {
        match self.value(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}")),
        }
    }
}

/// Resolves the `--threads N` flag every campaign binary shares over
/// `default` (the environment's count, [`ExecConfig::from_env`]).
///
/// [`ExecConfig::from_env`]: dream_sim::exec::ExecConfig::from_env
pub fn apply_threads(args: &Args, default: usize) -> usize {
    match args.value("threads") {
        None => default,
        Some(n) => match n.parse() {
            Ok(n) if n > 0 => n,
            _ => panic!("--threads expects a positive integer, got {n:?}"),
        },
    }
}

/// Resolves the `--batch [on|off]` flag shared by the campaign binaries
/// over `default` (the environment's `DREAM_BATCH`, which defaults
/// **on**): bare `--batch` (or `on`/`true`/`1`) turns bit-sliced trial
/// batching on, `off`/`false`/`0` turns it off. Batching changes
/// scheduling only — output bytes are identical either way.
pub fn apply_batch(args: &Args, default: bool) -> bool {
    if !args.switch("batch") {
        return default;
    }
    match args.value("batch") {
        None | Some("on" | "true" | "1") => true,
        Some("off" | "false" | "0") => false,
        Some(other) => panic!("--batch expects on|off, got {other:?}"),
    }
}

/// The workspace root (where `results/` lives).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Directory where the binaries drop their CSV artifacts (`results/`,
/// created on demand).
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_flags() {
        let a = Args::parse(
            ["--runs", "16", "--area", "--emt", "dream"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.number("runs", 1), 16);
        assert!(a.switch("area"));
        assert_eq!(a.value("emt"), Some("dream"));
        assert_eq!(a.number("missing", 7), 7);
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn bad_number_panics() {
        let a = Args::parse(["--runs", "many"].iter().map(|s| s.to_string()));
        let _ = a.number("runs", 1);
    }
}
