//! A small, dependency-free option parser: `--key value` pairs and
//! positional arguments, with typed getters and unknown-flag detection.
//! Parsed options know the command they belong to, so every getter hands
//! back a ready [`CliError::Usage`] for it.
//!
//! Each flag is one [`Flag`] entry of the command's table: its name, its
//! [`Kind`] (unit and bound) and its default. Per-command help prints the
//! entries and the getters parse against them, so what `--help` states is
//! what the parser enforces.

use crate::cmds::CmdSpec;
use crate::error::CliError;
use std::collections::BTreeMap;
use std::str::FromStr;

/// One `--flag` of a command.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value's unit and the bound the parser checks.
    pub kind: Kind,
    /// The value taken when the flag is absent, spelled as it would be
    /// typed; `None` when absence means "off" or the command derives it.
    pub default: Option<&'static str>,
}

impl Flag {
    /// A flag whose absence means "off" or a value the command derives.
    pub const fn new(name: &'static str, kind: Kind) -> Flag {
        Flag {
            name,
            kind,
            default: None,
        }
    }

    /// This flag with a default value.
    pub const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    /// The help line's `--name <unit>` head.
    pub fn head(&self) -> String {
        let unit = match self.kind {
            Kind::Text(u) | Kind::Int(u) | Kind::Count(u) | Kind::NonNegative(u) => u,
            Kind::Span { unit, .. } => unit,
            Kind::Outages => "outages",
            Kind::Bool => "true|false",
            Kind::OneOf(words) => return format!("--{} <{}>", self.name, words.join("|")),
        };
        format!("--{} <{unit}>", self.name)
    }

    /// The help line's terms: the default and the bound, when there are.
    pub fn terms(&self) -> String {
        let bound = match self.kind {
            Kind::Count(_) => Some("at least 1".to_string()),
            Kind::Span { secs, min, .. } => Some(format!("{min} to {}", span_max(secs))),
            Kind::NonNegative(_) => Some("finite, at least 0".to_string()),
            Kind::Outages => Some("at most --nodes × --minutes".to_string()),
            Kind::Text(_) | Kind::Int(_) | Kind::Bool | Kind::OneOf(_) => None,
        };
        let default = self.default.map(|d| format!("default {d}"));
        [default, bound]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// What a flag's value is: the unit its help names and the bound its
/// parser checks.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Free text in the named form (a file, a list).
    Text(&'static str),
    /// An integer in the named unit; the getter's type is its range.
    Int(&'static str),
    /// An integer of at least 1: `--nodes 0` names no cluster.
    Count(&'static str),
    /// Whole `unit`s of virtual time (`secs` seconds each), at least
    /// `min`. The clock counts µs in a `u64`, so a count above
    /// `u64::MAX / unit` would wrap the horizon or the cadence into a
    /// short run reported as the long one.
    Span {
        /// The unit's name in help.
        unit: &'static str,
        /// Seconds per unit.
        secs: u64,
        /// The least count accepted.
        min: u64,
    },
    /// A finite number >= 0, called the named noun (`percentage`,
    /// `target`): NaN, infinities and overflowing literals would turn
    /// every comparison against a threshold or an objective false.
    NonNegative(&'static str),
    /// Small compute-node outages: at most `--nodes × --minutes`, a bound
    /// over two flags that the scenario parser checks.
    Outages,
    /// `true` or `false`.
    Bool,
    /// One of these words.
    OneOf(&'static [&'static str]),
}

/// A choice flag's table: each word it takes and what that word selects.
/// The flag's [`Kind::OneOf`] lists [`words`] of it and [`Opts::choice`]
/// maps a word through it, so the two read one list.
pub type Choices<T, const N: usize> = [(&'static str, T); N];

/// The words of a choice table, in its order.
pub const fn words<T, const N: usize>(table: &Choices<T, N>) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = table[i].0;
        i += 1;
    }
    out
}

/// The largest count of `secs`-second units the µs clock holds.
fn span_max(secs: u64) -> u64 {
    u64::MAX / (secs * 1_000_000)
}

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
                if !spec.all_flags().any(|f| f.name == name) {
                    return Err(o.usage(format!(
                        "unknown option --{name} (expected one of: {})",
                        spec.all_flags()
                            .map(|f| format!("--{}", f.name))
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

    /// The text given for a flag, if it was given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// A flag's value: as given, else its table default, parsed as `T`
    /// and held to the flag's bound; a bad value is a usage error.
    /// Panics on a flag without a default (read it with
    /// [`Opts::value_opt`]).
    pub fn value<T: FromStr>(&self, name: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.value_opt(name)?;
        Ok(v.unwrap_or_else(|| panic!("--{name} has no default in its flag table")))
    }

    /// [`Opts::value`] of a flag that may have no default: `None` when it
    /// was not given and has none.
    pub fn value_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let flag = self
            .spec
            .all_flags()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("--{name} is not in `{}`'s flag table", self.spec.name));
        match self.get(name).or(flag.default) {
            Some(text) => self.checked(&flag, text).map(Some),
            None => Ok(None),
        }
    }

    /// The entry of `table` that `--name`'s word (as given, else its
    /// default) names. Panics on a flag without a default (read it with
    /// [`Opts::choice_opt`]).
    pub fn choice<T: Copy>(
        &self,
        name: &str,
        table: &[(&'static str, T)],
    ) -> Result<(&'static str, T), CliError> {
        let v = self.choice_opt(name, table)?;
        Ok(v.unwrap_or_else(|| panic!("--{name} has no default in its flag table")))
    }

    /// [`Opts::choice`] of a flag that may have no default: `None` when
    /// it was not given and has none. A word outside `table` is a usage
    /// error.
    pub fn choice_opt<T: Copy>(
        &self,
        name: &str,
        table: &[(&'static str, T)],
    ) -> Result<Option<(&'static str, T)>, CliError> {
        let Some(word) = self.value_opt::<String>(name)? else {
            return Ok(None);
        };
        match table.iter().find(|(w, _)| *w == word) {
            Some(&entry) => Ok(Some(entry)),
            None => Err(self.usage(format!(
                "unknown --{name} {word} ({})",
                table
                    .iter()
                    .map(|(w, _)| *w)
                    .collect::<Vec<_>>()
                    .join(" | ")
            ))),
        }
    }

    /// `text` parsed as `T` and held to `flag`'s bound.
    fn checked<T: FromStr>(&self, flag: &Flag, text: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let name = flag.name;
        if let Kind::NonNegative(noun) = flag.kind {
            self.non_negative(&format!("--{name}"), text, noun)?;
        }
        let v = text
            .parse()
            .map_err(|e| self.usage(format!("--{name}: {e}")))?;
        match flag.kind {
            Kind::Count(_) if text.parse::<u128>() == Ok(0) => {
                Err(self.usage(format!("--{name} must be at least 1")))
            }
            Kind::Span { secs, min, .. } => {
                let n: u64 = text
                    .parse()
                    .map_err(|e| self.usage(format!("--{name}: {e}")))?;
                let max = span_max(secs);
                if n < min {
                    Err(self.usage(format!("--{name} must be at least {min}")))
                } else if n > max {
                    Err(self.usage(format!(
                        "--{name} must be at most {max}, or the virtual clock wraps; got {n}"
                    )))
                } else {
                    Ok(v)
                }
            }
            Kind::OneOf(words) if !words.contains(&text) => {
                Err(self.usage(format!("unknown --{name} {text} ({})", words.join(" | "))))
            }
            _ => Ok(v),
        }
    }

    /// `text` as a finite number >= 0, a `noun` (`percentage`, `target`);
    /// `what` names the flag in the error (see [`Kind::NonNegative`]).
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
        shared: &[],
        flags: &[
            Flag::new("jobs", Kind::Count("jobs")).or("100"),
            Flag::new("seed", Kind::Int("integer")).or("42"),
            Flag::new(
                "minutes",
                Kind::Span {
                    unit: "minutes",
                    secs: 60,
                    min: 0,
                },
            )
            .or("5"),
            Flag::new(
                "ticks",
                Kind::Span {
                    unit: "seconds",
                    secs: 1,
                    min: 1,
                },
            ),
            Flag::new("target", Kind::NonNegative("target")),
            Flag::new("algo", Kind::OneOf(&ALGO_WORDS)).or("easy"),
        ],
        run: |_| Ok(()),
    };

    const ALGOS: Choices<u8, 2> = [("easy", 1), ("fcfs", 2)];
    const ALGO_WORDS: [&str; 2] = words(&ALGOS);

    fn parse(s: &[&str]) -> Result<Opts, CliError> {
        let args: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Opts::parse(&SPEC, &args)
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse(&["file.jsonl", "--jobs", "7"]).unwrap();
        assert_eq!(o.positional(0, "input").unwrap(), "file.jsonl");
        assert_eq!(o.value::<usize>("jobs").unwrap(), 7);
        assert_eq!(o.value::<u64>("seed").unwrap(), 42);
        assert_eq!(o.value_opt::<f64>("target").unwrap(), None);
        assert_eq!(o.value::<String>("algo").unwrap(), "easy");
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
        let err = o.value::<usize>("jobs").unwrap_err().to_string();
        assert!(err.contains("--jobs"), "{err}");
        assert!(err.starts_with("test: "), "{err}");
    }

    #[test]
    fn counts_start_at_one() {
        let o = parse(&["--jobs", "0"]).unwrap();
        let err = o.value::<u32>("jobs").unwrap_err();
        assert_eq!(err.to_string(), "test: --jobs must be at least 1");
    }

    #[test]
    fn words_outside_the_list_are_usage_errors() {
        let o = parse(&["--algo", "lifo"]).unwrap();
        let err = o.value::<String>("algo").unwrap_err();
        assert_eq!(err.to_string(), "test: unknown --algo lifo (easy | fcfs)");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn choices_map_words_through_their_table() {
        assert_eq!(words(&ALGOS), ["easy", "fcfs"]);
        let o = parse(&["--algo", "fcfs"]).unwrap();
        assert_eq!(o.choice("algo", &ALGOS).unwrap(), ("fcfs", 2));
        assert_eq!(parse(&[]).unwrap().choice("algo", &ALGOS).unwrap().1, 1);
        assert_eq!(o.choice_opt("target", &ALGOS).unwrap(), None);
        // A word the flag accepts but the table lacks is a usage error,
        // never a fallback to some other entry.
        let err = o.choice("algo", &ALGOS[..1]).unwrap_err();
        assert_eq!(err.to_string(), "test: unknown --algo fcfs (easy)");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn non_negative_accepts_only_finite_non_negative_values() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.non_negative("--p", "5", "percentage").unwrap(), 5.0);
        assert_eq!(o.non_negative("--p", "0", "target").unwrap(), 0.0);
        for bad in ["nan", "NaN", "inf", "-inf", "1e309", "-1", "x"] {
            let err = o.non_negative("--p", bad, "target").unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}");
            let flag = parse(&["--target", bad]).unwrap();
            assert_eq!(flag.value::<f64>("target").unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn spans_past_the_clock_are_usage_errors() {
        let max = 307_445_734_561u64;
        let ok = parse(&["--minutes", &max.to_string()]).unwrap();
        assert_eq!(ok.value::<u64>("minutes").unwrap(), max);
        let wraps = parse(&["--minutes", &(max + 1).to_string()]).unwrap();
        assert_eq!(wraps.value::<u64>("minutes").unwrap_err().exit_code(), 2);
        let zero = parse(&["--ticks", "0"]).unwrap();
        assert_eq!(zero.value::<u64>("ticks").unwrap_err().exit_code(), 2);
        assert_eq!(parse(&[]).unwrap().value::<u64>("minutes").unwrap(), 5);
    }

    #[test]
    fn help_states_unit_default_and_bound() {
        let [jobs, seed, minutes, ticks, target, algo] = *SPEC.flags else {
            unreachable!("six flags")
        };
        assert_eq!(jobs.head(), "--jobs <jobs>");
        assert_eq!(jobs.terms(), "default 100, at least 1");
        assert_eq!(seed.terms(), "default 42");
        assert_eq!(minutes.terms(), "default 5, 0 to 307445734561");
        assert_eq!(ticks.terms(), "1 to 18446744073709");
        assert_eq!(target.terms(), "finite, at least 0");
        assert_eq!(algo.head(), "--algo <easy|fcfs>");
    }
}
