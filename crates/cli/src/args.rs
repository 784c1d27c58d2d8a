//! Minimal dependency-free argument parsing.
//!
//! Supports `--key value` pairs and positional arguments. Deliberately
//! small: the CLI surface is a handful of flags per subcommand, not worth a
//! parser dependency under this workspace's dependency policy.

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
    fn flag_followed_by_option() {
        let a = parse("estimate --quiet --k 7");
        assert!(a.has_flag("quiet"));
        assert_eq!(a.get("k"), Some("7"));
    }
}
