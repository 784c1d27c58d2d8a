//! Minimal dependency-free argument parsing.
//!
//! Supports `--key value` pairs and positional arguments. Deliberately
//! small: the CLI surface is a handful of flags per subcommand, not worth a
//! parser dependency under this workspace's dependency policy. Each
//! subcommand declares what it accepts through [`Args::accept`], so a
//! misspelled or retired option is an error instead of silently falling
//! back to a default.

use std::collections::HashMap;

/// Parsed arguments: a subcommand, positionals, and `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// First positional argument (the subcommand).
    pub command: Option<String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag`s (no value).
    pub flags: Vec<String>,
}

impl Args {
    /// Parses an argument list (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(key) = item.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name '--'".into());
                }
                // A value follows unless the next token is another option
                // or the stream ends.
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(key.to_string(), value);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(item);
            } else {
                out.positional.push(item);
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A parsed numeric/typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("cannot parse --{key} value '{v}'")),
        }
    }

    /// A parsed option that must be positive and finite (the scale
    /// parameter `--t`, the adaptive `--safety` factor), with default.
    pub fn get_positive(&self, key: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.get_parsed(key, default)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{key} must be positive and finite, got {v}"))
        }
    }

    /// Whether a bare flag is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Refuses anything the subcommand does not accept: an option outside
    /// `options`, a flag outside `flags`, a declared flag given a value, a
    /// declared option given none, or a positional argument after the
    /// subcommand. The error names the offending argument; with several,
    /// the alphabetically first option or flag.
    pub fn accept(&self, options: &[&str], flags: &[&str]) -> Result<(), String> {
        let command = self.command.as_deref().unwrap_or_default();
        if let Some(extra) = self.positional.first() {
            return Err(format!("unexpected argument '{extra}' for '{command}'"));
        }
        let mut given: Vec<(&str, Option<&str>)> = self
            .options
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .chain(self.flags.iter().map(|f| (f.as_str(), None)))
            .collect();
        given.sort_unstable();
        for (key, value) in given {
            match (options.contains(&key), flags.contains(&key), value) {
                (true, _, Some(_)) | (_, true, None) => {}
                (true, _, None) => return Err(format!("option --{key} needs a value")),
                (_, true, Some(v)) => return Err(format!("--{key} takes no value, got '{v}'")),
                _ => return Err(format!("unknown option --{key} for '{command}'")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("query extra --input pts.csv --k 10 --verbose");
        assert_eq!(a.command.as_deref(), Some("query"));
        assert_eq!(a.get("input"), Some("pts.csv"));
        assert_eq!(a.get_parsed::<usize>("k", 1).unwrap(), 10);
        assert!(a.has_flag("verbose"));
        assert_eq!(a.positional, vec!["extra".to_string()]);
        // Greedy rule: a non-option token after `--key` is its value.
        let a = parse("query --verbose extra");
        assert_eq!(a.get("verbose"), Some("extra"));
        assert!(!a.has_flag("verbose"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse("gen --n 100");
        assert_eq!(a.get_parsed::<usize>("n", 5).unwrap(), 100);
        assert_eq!(a.get_parsed::<f64>("t", 2.5).unwrap(), 2.5);
        assert!(a.require("output").is_err());
        assert!(a.get_parsed::<usize>("n", 0).is_ok());
    }

    #[test]
    fn bad_values_error_cleanly() {
        let a = parse("gen --n abc");
        assert!(a.get_parsed::<usize>("n", 1).is_err());
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }

    #[test]
    fn accept_refuses_what_the_subcommand_does_not_declare() {
        let accept = |line: &str| parse(line).accept(&["input", "k", "t"], &["adaptive"]);
        assert_eq!(accept("query --input b.csv --k 5 --adaptive"), Ok(()));
        assert_eq!(accept("query"), Ok(()));
        // A misspelled option and a retired one: the first is named.
        assert_eq!(
            accept("query --input b.csv --k 5 --substrat linear --tier fast"),
            Err("unknown option --substrat for 'query'".into())
        );
        assert_eq!(
            accept("query --k 5 --tier fast"),
            Err("unknown option --tier for 'query'".into())
        );
        assert_eq!(
            accept("query --k 5 --verbose"),
            Err("unknown option --verbose for 'query'".into())
        );
        // Declared names used the wrong way round.
        assert_eq!(
            accept("query --input b.csv --k"),
            Err("option --k needs a value".into())
        );
        assert_eq!(
            accept("query --adaptive 3"),
            Err("--adaptive takes no value, got '3'".into())
        );
        assert_eq!(
            accept("query extra --k 5"),
            Err("unexpected argument 'extra' for 'query'".into())
        );
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("estimate --quiet --k 7");
        assert!(a.has_flag("quiet"));
        assert_eq!(a.get("k"), Some("7"));
    }
}
