//! A tiny, dependency-free argument parser: positionals plus
//! `--flag value` / `--flag` pairs.

use std::collections::BTreeMap;

/// Parsed command arguments.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Opts {
    /// Parses `argv`. A token starting with `--` becomes a flag; known
    /// boolean flags take no value, any other flag consumes the next
    /// non-`--` token as its value. The verbosity shorthands `-v` and
    /// `-vv` are the only single-dash tokens accepted.
    pub fn parse(argv: &[String]) -> Result<Opts, String> {
        /// Flags that never take a value: the `tracenet` CLI's, then
        /// those of `bench-suite`'s `repro` and `batch_scaling`.
        const BOOLEAN: [&str; 9] =
            ["json", "all", "paris", "v", "vv", "no-cache", "cache", "smoke", "gate"];
        let mut out = Opts::default();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            if tok == "-v" || tok == "-vv" {
                if out.flags.insert(tok[1..].to_string(), "true".to_string()).is_some() {
                    return Err(format!("flag {tok} given twice"));
                }
                continue;
            }
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty flag name `--`".to_string());
                }
                let value = if BOOLEAN.contains(&name) {
                    "true".to_string()
                } else {
                    match it.peek() {
                        Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
                        _ => return Err(format!("flag --{name} needs a value")),
                    }
                };
                if out.flags.insert(name.to_string(), value).is_some() {
                    return Err(format!("flag --{name} given twice"));
                }
            } else {
                out.positionals.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// The n-th positional argument.
    pub fn positional(&self, n: usize) -> Option<&str> {
        self.positionals.get(n).map(String::as_str)
    }

    /// The n-th positional, or an error naming it.
    pub fn required(&self, n: usize, what: &str) -> Result<&str, String> {
        self.positional(n).ok_or_else(|| format!("missing {what}"))
    }

    /// A flag's raw value.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The names of the flags given, without their dashes.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Fails if a flag was given that `allowed` does not list (names
    /// without dashes, `v` and `vv` for the verbosity shorthands), naming
    /// the flag as it is typed.
    pub fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flag_names().find(|f| !allowed.contains(f)) {
            None => Ok(()),
            Some(f @ ("v" | "vv")) => Err(format!("unrecognized flag -{f}")),
            Some(f) => Err(format!("unrecognized flag --{f}")),
        }
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Verbosity level: 0 (default), 1 (`-v`), 2 (`-vv`).
    pub fn verbosity(&self) -> u8 {
        if self.has("vv") {
            2
        } else if self.has("v") {
            1
        } else {
            0
        }
    }

    /// A parsed flag value with a default.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// A required flag value, parsed.
    pub fn flag_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.flag(name).ok_or_else(|| format!("missing --{name}"))?;
        v.parse().map_err(|_| format!("invalid value for --{name}: {v:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Opts {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Opts::parse(&v).unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let o = parse(&["file.json", "--target", "10.0.0.1", "--json", "extra"]);
        assert_eq!(o.positional(0), Some("file.json"));
        assert_eq!(o.positional(1), Some("extra"));
        assert_eq!(o.flag("target"), Some("10.0.0.1"));
        assert!(o.has("json"));
        assert!(!o.has("paris"));
    }

    #[test]
    fn flag_parse_defaults_and_errors() {
        let o = parse(&["--seed", "42"]);
        assert_eq!(o.flag_parse("seed", 7u64).unwrap(), 42);
        assert_eq!(o.flag_parse("count", 3u8).unwrap(), 3);
        let bad = parse(&["--seed", "xyz"]);
        assert!(bad.flag_parse("seed", 7u64).is_err());
    }

    #[test]
    fn duplicate_flags_rejected() {
        let v: Vec<String> = ["--seed", "1", "--seed", "2"].iter().map(|s| s.to_string()).collect();
        assert!(Opts::parse(&v).is_err());
    }

    #[test]
    fn verbosity_shorthands_parse() {
        assert_eq!(parse(&[]).verbosity(), 0);
        assert_eq!(parse(&["-v"]).verbosity(), 1);
        assert_eq!(parse(&["-vv"]).verbosity(), 2);
        // `-v` does not swallow the next token.
        let o = parse(&["-v", "scenario.json"]);
        assert_eq!(o.positional(0), Some("scenario.json"));
        let v: Vec<String> = ["-v", "-v"].iter().map(|s| s.to_string()).collect();
        assert!(Opts::parse(&v).is_err());
    }

    #[test]
    fn only_names_a_flag_it_does_not_list() {
        let o = parse(&["--jobs", "2", "-vv", "--max-ttl", "3"]);
        assert_eq!(o.only(&["jobs", "vv", "max-ttl"]), Ok(()));
        assert_eq!(o.only(&["jobs", "vv"]).unwrap_err(), "unrecognized flag --max-ttl");
        assert_eq!(o.only(&["jobs", "max-ttl"]).unwrap_err(), "unrecognized flag -vv");
        assert_eq!(parse(&["x.json"]).only(&[]), Ok(()));
    }

    #[test]
    fn required_reports_whats_missing() {
        let o = parse(&[]);
        let err = o.required(0, "scenario file").unwrap_err();
        assert!(err.contains("scenario file"));
    }
}
