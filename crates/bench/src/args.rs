//! Minimal `--key value` command-line parsing (no external dependencies).

use std::collections::HashMap;
use std::str::FromStr;

/// Unwrap a parsed value, or print the error and exit with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the program name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (used by tests).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(name.to_string(), iter.next().unwrap());
                }
                _ => flags.push(name.to_string()),
            }
        }
        Args { values, flags }
    }

    /// Whether a bare flag (e.g. `--quick`) was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// String value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Value of `--name` parsed as `T`, or `default` when the flag is
    /// absent.  A value that does not parse is an error naming the flag and
    /// the value.
    pub fn try_get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// Comma-separated list value of `--name` (e.g. `--depths 1,2,4`), or
    /// `default` when the flag is absent.  Any item that does not parse is
    /// an error naming the flag and the item.
    pub fn try_get_list<T: FromStr>(&self, name: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|item| {
                    item.parse()
                        .map_err(|_| format!("invalid value for --{name}: {item:?} in {v:?}"))
                })
                .collect(),
        }
    }

    /// `u64` value of `--name`, or `default`; exits on an unparseable value.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        or_exit(self.try_get(name, default))
    }

    /// `usize` value of `--name`, or `default`; exits on an unparseable value.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        or_exit(self.try_get(name, default))
    }

    /// `f64` value of `--name`, or `default`; exits on an unparseable value.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        or_exit(self.try_get(name, default))
    }

    /// `usize` list value of `--name`, or `default`; exits on an unparseable
    /// item.
    pub fn get_usize_list(&self, name: &str, default: Vec<usize>) -> Vec<usize> {
        or_exit(self.try_get_list(name, default))
    }

    /// Common scale factor: `--quick` shrinks experiments for smoke runs.
    pub fn quick(&self) -> bool {
        self.flag("quick")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = parse("--threads 8 --theta 0.99 --quick --keys 100000");
        assert_eq!(a.get_u64("threads", 1), 8);
        assert_eq!(a.get_usize("threads", 1), 8);
        assert!((a.get_f64("theta", 0.0) - 0.99).abs() < 1e-9);
        assert_eq!(a.get_u64("keys", 0), 100_000);
        assert!(a.flag("quick"));
        assert!(a.quick());
        assert_eq!(a.get_u64("missing", 7), 7);
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn unparseable_values_are_errors_naming_the_flag_and_value() {
        let a = parse("--threads abc --theta x --ops 7");
        assert_eq!(
            a.try_get::<usize>("threads", 8),
            Err("invalid value for --threads: \"abc\"".to_string())
        );
        assert_eq!(
            a.try_get::<u64>("threads", 8),
            Err("invalid value for --threads: \"abc\"".to_string())
        );
        let theta = a.try_get::<f64>("theta", 0.5).unwrap_err();
        assert!(
            theta.contains("--theta") && theta.contains("\"x\""),
            "{theta}"
        );
        assert_eq!(a.try_get::<usize>("ops", 1), Ok(7));
        assert_eq!(a.try_get::<usize>("missing", 3), Ok(3));
    }

    #[test]
    fn lists_parse_every_item_or_fail_naming_the_bad_one() {
        let a = parse("--depths 1,2,8 --bad 1,x,4");
        assert_eq!(a.try_get_list::<usize>("depths", vec![]), Ok(vec![1, 2, 8]));
        assert_eq!(a.get_usize_list("depths", vec![]), vec![1, 2, 8]);
        assert_eq!(a.get_usize_list("missing", vec![4]), vec![4]);
        assert_eq!(
            a.try_get_list::<usize>("bad", vec![]),
            Err("invalid value for --bad: \"x\" in \"1,x,4\"".to_string())
        );
    }

    #[test]
    fn malformed_input_is_ignored() {
        let a = parse("stray --flag --x 3");
        assert!(a.flag("flag"));
        assert_eq!(a.get_u64("x", 0), 3);
        assert_eq!(a.get("stray"), None);
    }
}
