//! A small, dependency-free option parser: `--key value` pairs and
//! positional arguments, with typed getters and unknown-flag detection.
//! Parsed options know the command they belong to, so every getter hands
//! back a ready [`CliError::Usage`] for it.

use crate::cmds::CmdSpec;
use crate::error::CliError;
use simclock::SimSpan;
use std::collections::BTreeMap;

/// Parsed command-line options of one subcommand.
pub struct Opts {
    spec: &'static CmdSpec,
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
    help: bool,
}

impl Opts {
    /// Parse `args`, accepting only the `--flags` `spec` declares.
    pub fn parse(spec: &'static CmdSpec, args: &[String]) -> Result<Opts, CliError> {
        let mut o = Opts {
            spec,
            flags: BTreeMap::new(),
            positional: Vec::new(),
            help: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                o.help = true;
            } else if let Some(name) = a.strip_prefix("--") {
                if !spec.all_flags().any(|k| k == name) {
                    return Err(o.usage(format!(
                        "unknown option --{name} (expected one of: {})",
                        spec.all_flags()
                            .map(|k| format!("--{k}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                let value = it
                    .next()
                    .ok_or_else(|| o.usage(format!("--{name} needs a value")))?
                    .clone();
                o.flags.insert(name.to_string(), value);
            } else {
                o.positional.push(a.clone());
            }
        }
        Ok(o)
    }

    /// The command these options were parsed for.
    pub fn spec(&self) -> &'static CmdSpec {
        self.spec
    }

    /// A usage error on this command.
    pub fn usage(&self, message: impl Into<String>) -> CliError {
        CliError::usage(self.spec.name, message)
    }

    /// Whether `--help` was requested.
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// A required positional argument.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, CliError> {
        self.positional
            .get(idx)
            .map(|s| s.as_str())
            .ok_or_else(|| self.usage(format!("missing {what} argument")))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// A typed flag with a default; a bad value is a usage error.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| self.usage(format!("--{name}: {e}"))),
        }
    }

    /// A count flag with a default that must be at least 1: `--nodes 0`
    /// names no cluster, so it is a usage error, not a run.
    pub fn get_count<T>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T: std::str::FromStr + Default + PartialEq,
        T::Err: std::fmt::Display,
    {
        let v = self.get_or(name, default)?;
        if v == T::default() {
            return Err(self.usage(format!("--{name} must be at least 1")));
        }
        Ok(v)
    }

    /// A duration flag in whole `unit`s (minutes, seconds) with a default,
    /// at least `min`. The virtual clock counts µs in a `u64`, so a count
    /// above `u64::MAX / unit` would wrap the horizon or the cadence into a
    /// short run reported as the long one: that is a usage error too.
    pub fn get_span(
        &self,
        name: &str,
        default: u64,
        unit: SimSpan,
        min: u64,
    ) -> Result<u64, CliError> {
        let v = self.get_or(name, default)?;
        let max = u64::MAX / unit.as_micros();
        if v < min {
            Err(self.usage(format!("--{name} must be at least {min}")))
        } else if v > max {
            Err(self.usage(format!(
                "--{name} must be at most {max}, or the virtual clock wraps; got {v}"
            )))
        } else {
            Ok(v)
        }
    }

    /// A number flag with a default: a finite value >= 0, called a `noun`
    /// (`percentage`, `target`) in the error (see [`Opts::non_negative`]).
    pub fn get_non_negative(&self, name: &str, default: f64, noun: &str) -> Result<f64, CliError> {
        match self.get(name) {
            Some(text) => self.non_negative(&format!("--{name}"), text, noun),
            None => Ok(default),
        }
    }

    /// `text` as a finite number >= 0, a `noun` (`percentage`, `target`);
    /// `what` names the flag in the error. NaN, infinities and overflowing
    /// literals would turn every comparison against a threshold or an
    /// objective false, silently passing a regression gate or breaching an
    /// SLO nothing can meet.
    pub fn non_negative(&self, what: &str, text: &str, noun: &str) -> Result<f64, CliError> {
        match text.parse::<f64>() {
            Ok(p) if p.is_finite() && p >= 0.0 => Ok(p),
            Ok(_) => Err(self.usage(format!("{what} must be a finite {noun} >= 0, got `{text}`"))),
            Err(e) => Err(self.usage(format!("{what}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: CmdSpec = CmdSpec {
        name: "test",
        summary: "",
        scenario: None,
        flags: &["jobs", "seed"],
        run: |_| Ok(()),
    };

    fn parse(s: &[&str]) -> Result<Opts, CliError> {
        let args: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Opts::parse(&SPEC, &args)
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse(&["file.jsonl", "--jobs", "100"]).unwrap();
        assert_eq!(o.positional(0, "input").unwrap(), "file.jsonl");
        assert_eq!(o.get_or("jobs", 0usize).unwrap(), 100);
        assert_eq!(o.get_or("seed", 42u64).unwrap(), 42);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--jobs"]).is_err());
    }

    #[test]
    fn bad_typed_value_reports_flag() {
        let o = parse(&["--jobs", "abc"]).unwrap();
        let err = o.get_or("jobs", 0usize).unwrap_err().to_string();
        assert!(err.contains("--jobs"), "{err}");
        assert!(err.starts_with("test: "), "{err}");
    }

    #[test]
    fn non_negative_accepts_only_finite_non_negative_values() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.non_negative("--p", "5", "percentage").unwrap(), 5.0);
        assert_eq!(o.non_negative("--p", "0", "target").unwrap(), 0.0);
        for bad in ["nan", "NaN", "inf", "-inf", "1e309", "-1", "x"] {
            let err = o.non_negative("--p", bad, "target").unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
    }

    #[test]
    fn spans_past_the_clock_are_usage_errors() {
        let minute = SimSpan::from_secs(60);
        let max = 307_445_734_561u64;
        let ok = parse(&["--jobs", &max.to_string()]).unwrap();
        assert_eq!(ok.get_span("jobs", 0, minute, 0).unwrap(), max);
        let wraps = parse(&["--jobs", &(max + 1).to_string()]).unwrap();
        assert_eq!(
            wraps
                .get_span("jobs", 0, minute, 0)
                .unwrap_err()
                .exit_code(),
            2
        );
        let zero = parse(&["--jobs", "0"]).unwrap();
        let second = SimSpan::from_secs(1);
        assert_eq!(
            zero.get_span("jobs", 1, second, 1).unwrap_err().exit_code(),
            2
        );
        assert_eq!(
            parse(&[]).unwrap().get_span("seed", 5, minute, 0).unwrap(),
            5
        );
    }
}
