//! Minimal dependency-free flag parsing (`--key value` / `--flag`).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: a subcommand plus `--key value` options, bare
/// `--flag` switches and positionals.
#[derive(Debug, Clone, Default)]
pub struct Args {
    subcommand: Option<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Tokens after the subcommand that are neither a flag nor its value.
    positionals: Vec<String>,
    /// Keys a lookup has served, so [`reject_unread`](Args::reject_unread)
    /// can name what nobody asked for.
    read: RefCell<BTreeSet<String>>,
    /// Whether [`positional`](Args::positional) served the first one.
    positional_read: Cell<bool>,
}

impl Args {
    /// Parses an argument list (excluding the program name).
    ///
    /// The first non-flag token becomes the subcommand. A token
    /// `--key` followed by a non-`--` token is a valued option;
    /// otherwise it is a boolean flag.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Args {
        let mut out = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let val = iter.next().expect("peeked");
                        out.values.insert(key.to_string(), val);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.subcommand.is_none() {
                out.subcommand = Some(tok);
            } else {
                out.positionals.push(tok);
            }
        }
        out
    }

    /// The subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// The first positional after the subcommand (`tgl jsoncheck FILE`).
    pub fn positional(&self) -> Option<&str> {
        let first = self.positionals.first()?;
        self.positional_read.set(true);
        Some(first)
    }

    /// String option value.
    pub fn get(&self, key: &str) -> Option<&str> {
        let value = self.values.get(key)?;
        self.read.borrow_mut().insert(key.to_string());
        Some(value)
    }

    /// Parsed option with a default.
    ///
    /// # Errors
    ///
    /// A value that does not parse as a `T`: the one-line usage message
    /// naming the flag.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?} (expected {})", std::any::type_name::<T>())),
        }
    }

    /// A count option that must be at least 1 (`None` when absent);
    /// anything else is a usage error naming the flag.
    ///
    /// # Errors
    ///
    /// Returns the one-line usage message.
    pub fn positive(&self, key: &str) -> Result<Option<usize>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!("--{key}: expected a positive integer, got {v:?}")),
            },
        }
    }

    /// Whether a boolean `--flag` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        let given = self.flags.iter().any(|f| f == key);
        if given {
            self.read.borrow_mut().insert(key.to_string());
        }
        given
    }

    /// Fails when the command line carried anything no lookup has
    /// served so far: a misspelt or retired flag, a value given to a
    /// switch, a switch given where a value is read, a stray
    /// positional. Call it once every option has been read and before
    /// the work starts, so a typo never runs with defaults.
    ///
    /// # Errors
    ///
    /// Returns the one-line usage message naming every such argument.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        // A stray positional is named by its text, an option by its flag.
        let served = usize::from(self.positional_read.get());
        let unread: BTreeSet<String> = self
            .values
            .keys()
            .chain(&self.flags)
            .filter(|key| !read.contains(*key))
            .map(|key| format!("--{key}"))
            .chain(self.positionals[served..].iter().map(|text| format!("{text:?}")))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        Err(format!("unrecognized or misplaced argument(s): {} (see --help)", Vec::from_iter(unread).join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The parsing contract tests live with the CLI that defines the
    // flags (`crates/cli/src/args.rs`).
    #[test]
    fn positive_rejects_zero_and_garbage_naming_the_flag() {
        let a = Args::parse("train --batch 0 --threads four --scale 8".split_whitespace().map(String::from));
        assert_eq!(a.positive("scale"), Ok(Some(8)));
        assert_eq!(a.positive("epochs"), Ok(None));
        assert!(a.positive("batch").unwrap_err().contains("--batch"));
        assert!(a.positive("threads").unwrap_err().contains("--threads"));
    }

    #[test]
    fn reject_unread_names_everything_no_lookup_served() {
        let a = Args::parse("train foo --epoch 3 --slo rules --prof on --move --lr 0.1 stray bar".split_whitespace().map(String::from));
        assert_eq!(a.get_or("lr", 0.0f32), Ok(0.1));
        assert!(a.has_flag("move"));
        // `--prof on` parsed as a valued option: the switch lookup
        // misses it, so it is reported rather than silently off.
        assert!(!a.has_flag("prof"));
        assert_eq!(a.get("epochs"), None);
        let msg = a.reject_unread().unwrap_err();
        // Each stray positional is named on its own (they used to run
        // together as "foostraybar").
        for named in ["--epoch", "--slo", "--prof", "\"foo\"", "\"stray\"", "\"bar\""] {
            assert!(msg.contains(named), "{named} missing from {msg:?}");
        }
        assert!(!msg.contains("--lr") && !msg.contains("--move") && !msg.contains('\n'), "{msg:?}");
    }
}
