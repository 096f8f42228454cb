//! Minimal `--key value` argument parsing (no external dependency),
//! checked and read through the rows of the flag table.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use crate::flags::{rows, Check, Command, Flag, Needs, DATA};

/// A parse or validation failure, printed to the user with usage help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--key value` flags (plus bare `--flag` switches).
#[derive(Debug, Default)]
pub(crate) struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
    /// Every key a read looked up, for the tests that hold each column of
    /// the table to what its command reads.
    #[cfg(test)]
    pub(crate) read: std::cell::RefCell<std::collections::BTreeSet<&'static str>>,
}

impl Args {
    /// Parses the flags after the command name.
    pub(crate) fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument '{arg}'")));
            };
            if key.is_empty() {
                return Err(ArgError("empty flag '--'".into()));
            }
            if out.values.contains_key(key) || out.switches.iter().any(|s| s == key) {
                return Err(ArgError(format!("flag --{key} given twice")));
            }
            match iter.next_if(|next| !next.starts_with("--")) {
                Some(value) => drop(out.values.insert(key.to_string(), value)),
                None => out.switches.push(key.to_string()),
            }
        }
        Ok(out)
    }

    /// Checks the flags against `command`'s column: one it would ignore (a
    /// misspelt key, another command's flag, a value flag without a value,
    /// a switch with one) is an error naming the alphabetically first; then
    /// each given flag, in table order, must have what its row needs.
    pub(crate) fn reject_unread(&self, command: Command) -> Result<(), ArgError> {
        let values = self.values.iter().map(|(k, v)| (k.as_str(), Some(v.as_str())));
        let mut given: Vec<_> = values.chain(self.switches.iter().map(|k| (k.as_str(), None))).collect();
        given.sort_unstable();
        for (key, value) in given {
            let row = rows().find(|f| f.key == key && f.reads(command));
            let switch = row.map(|f| matches!(f.check, Check::Switch));
            let problem = match (value, switch) {
                (Some(""), Some(false)) | (None, Some(false)) => format!("--{key} needs a value"),
                (Some(_), Some(false)) | (None, Some(true)) => continue,
                (Some(value), Some(true)) => format!("--{key} takes no value (got '{value}')"),
                (_, None) => format!("unknown flag --{key} for this command"),
            };
            return Err(ArgError(problem));
        }
        for flag in rows().filter(|f| self.given(f)) {
            let problem = match flag.needs {
                Needs::Flag(other) if !self.given(other) => format!("--{} requires --{}", flag.key, other.key),
                Needs::Value(other, want) if self.get(other).or(other.default) != Some(want) => {
                    format!("--{} requires --{} {want}", flag.key, other.key)
                }
                Needs::Preset(on) if on.contains(&command) && self.given(&DATA) => format!(
                    "--{} shapes a --preset and cannot apply to --data {}",
                    flag.key,
                    self.get(&DATA).unwrap_or_default()
                ),
                _ => continue,
            };
            return Err(ArgError(problem));
        }
        Ok(())
    }

    fn given(&self, flag: &Flag) -> bool {
        self.get(flag).is_some() || self.switches.iter().any(|s| s == flag.key)
    }

    fn get(&self, flag: &Flag) -> Option<&str> {
        self.values.get(flag.key).map(String::as_str)
    }

    /// `flag`'s value as given, else its default, once its row's check passes.
    fn raw(&self, flag: &Flag) -> Result<Option<&str>, ArgError> {
        #[cfg(test)]
        self.read.borrow_mut().insert(flag.key);
        let Some(raw) = self.get(flag).or(flag.default) else {
            return Ok(None);
        };
        flag.verify(raw).map_err(ArgError)?;
        Ok(Some(raw))
    }

    /// Whether the switch `flag` was given.
    pub(crate) fn switch(&self, flag: &Flag) -> bool {
        #[cfg(test)]
        self.read.borrow_mut().insert(flag.key);
        self.given(flag)
    }

    /// `flag`'s value as `T`, if it was given or has a default.
    pub(crate) fn opt<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, ArgError> {
        let parse = |raw: &str| raw.parse().map_err(|_| ArgError(format!("--{}: cannot parse '{raw}'", flag.key)));
        self.raw(flag)?.map(parse).transpose()
    }

    /// `flag`'s value as `T`: given, or its default.
    pub(crate) fn value<T: FromStr>(&self, flag: &Flag) -> Result<T, ArgError> {
        self.opt(flag)?.ok_or_else(|| ArgError(format!("missing required flag --{}", flag.key)))
    }

    /// A count, or `None` for `auto`.
    pub(crate) fn count_or_auto(&self, flag: &Flag) -> Result<Option<usize>, ArgError> {
        match self.value::<String>(flag)?.as_str() {
            "auto" => Ok(None),
            count => count.parse().map(Some).map_err(|_| ArgError(format!("--{}: cannot parse '{count}'", flag.key))),
        }
    }

    /// The entry of `values` at the place of `flag`'s word among its choices.
    pub(crate) fn pick<T: Copy>(&self, flag: &Flag, values: &[T]) -> Result<T, ArgError> {
        let word: String = self.value(flag)?;
        let Check::OneOf(words) = flag.check else {
            unreachable!("--{} has no choices", flag.key)
        };
        debug_assert_eq!(words.len(), values.len(), "--{}: one value per choice", flag.key);
        Ok(values[words.iter().position(|w| *w == word).expect("the row's check passed")])
    }

    /// Comma-separated list (`--fanouts 10,25`), empty when absent undefaulted.
    pub(crate) fn list<T: FromStr>(&self, flag: &Flag) -> Result<Vec<T>, ArgError> {
        let element = |part: &str| part.trim().parse().map_err(|_| ArgError(format!("--{}: bad element '{part}'", flag.key)));
        self.raw(flag)?.map_or(Ok(Vec::new()), |raw| raw.split(',').map(element).collect())
    }

    /// A list of [`Pair`]s, as `(device, value)` tuples.
    pub(crate) fn pairs<T: FromStr>(&self, flag: &Flag) -> Result<Vec<(usize, T)>, ArgError> {
        Ok(self.list(flag)?.into_iter().map(|Pair(device, value)| (device, value)).collect())
    }
}

/// A `device:value` element of a list flag (`1:3`, `0:2.5`).
struct Pair<T>(usize, T);

impl<T: FromStr> FromStr for Pair<T> {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        let (device, value) = s.split_once(':').ok_or(())?;
        Ok(Pair(device.trim().parse().map_err(drop)?, value.trim().parse().map_err(drop)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::*;

    fn parse(parts: &[&str]) -> Result<Args, ArgError> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse(&["--scale", "0.1", "--resume", "--k", "8"]).unwrap();
        assert_eq!(a.value::<f64>(&SCALE).unwrap(), 0.1);
        assert!(a.switch(&RESUME));
        assert!(!a.switch(&COMPARE));
        assert_eq!(a.value::<usize>(&K).unwrap(), 8);
        assert_eq!(a.value::<usize>(&RETRIES).unwrap(), 3, "the row's default");
        assert_eq!(a.opt::<String>(&CHECKPOINT).unwrap(), None, "no default, not given");
    }

    #[test]
    fn rejects_positional_and_duplicates() {
        assert!(parse(&["oops"]).is_err());
        assert!(parse(&["--k", "1", "--k", "2"]).is_err());
        assert!(parse(&["--resume", "--resume"]).is_err());
        assert!(parse(&["--k", "1", "--k"]).is_err());
    }

    #[test]
    fn reject_unread_names_what_the_command_would_have_ignored() {
        let check = |command, parts: &[&str]| parse(parts).unwrap().reject_unread(command).map_err(|e| e.0);
        let train = |parts: &[&str]| check(Command::Train, parts);
        assert_eq!(train(&["--epochs", "5", "--resume", "--checkpoint-dir", "d", "--fault-oom-steps", "0,3"]), Ok(()));
        assert_eq!(train(&[]), Ok(()));
        // A misspelt key, with or without a value.
        let unknown = |key| Err(format!("unknown flag --{key} for this command"));
        assert_eq!(train(&["--epcohs", "50"]), unknown("epcohs"));
        assert_eq!(train(&["--fault-oom-step", "3"]), unknown("fault-oom-step"));
        assert_eq!(train(&["--epochs", "5", "--verbose"]), unknown("verbose"));
        // A flag of another command.
        assert_eq!(check(Command::Info, &["--epochs", "5"]), unknown("epochs"));
        assert_eq!(check(Command::Generate, &["--trace-summary"]), unknown("trace-summary"));
        assert_eq!(check(Command::Partition, &["--fault-oom-steps", "0"]), unknown("fault-oom-steps"));
        // A value flag given bare or empty: at the end, or swallowed by the next flag.
        assert_eq!(train(&["--epochs", "5", "--k"]), Err("--k needs a value".into()));
        assert_eq!(train(&["--k", "--epochs", "5"]), Err("--k needs a value".into()));
        assert_eq!(train(&["--k", ""]), Err("--k needs a value".into()));
        // A switch handed a value.
        assert_eq!(train(&["--resume", "yes"]), Err("--resume takes no value (got 'yes')".into()));
        // Several offenders: the alphabetically first is named.
        assert_eq!(train(&["--zeta", "1", "--alpha"]), unknown("alpha"));
        // What a row needs beside it.
        assert_eq!(train(&["--resume"]), Err("--resume requires --checkpoint-dir".into()));
        let dense = train(&["--feature-dir", "d", "--feature-store", "dense"]);
        assert_eq!(dense, Err("--feature-dir requires --feature-store paged".into()));
        assert_eq!(train(&["--feature-dir", "d", "--feature-store", "paged"]), Ok(()));
        let shaped = check(Command::Info, &["--data", "f", "--feature-dim", "0", "--scale", "0"]);
        assert_eq!(shaped, Err("--scale shapes a --preset and cannot apply to --data f".into()));
        // `--seed` seeds nothing that info or eval read from a file; train samples with it.
        for command in [Command::Info, Command::Eval] {
            let seeded = check(command, &["--data", "f", "--seed", "3"]);
            assert_eq!(seeded, Err("--seed shapes a --preset and cannot apply to --data f".into()));
            assert_eq!(check(command, &["--preset", "cora", "--seed", "3"]), Ok(()));
        }
        assert_eq!(train(&["--data", "f", "--seed", "3"]), Ok(()));
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["--fanouts", "10,25, 30"]).unwrap();
        assert_eq!(a.list::<usize>(&FANOUTS).unwrap(), vec![10, 25, 30]);
        assert_eq!(a.list::<usize>(&FAULT_OOM_STEPS).unwrap(), Vec::<usize>::new());
        assert_eq!(parse(&[]).unwrap().list::<usize>(&FANOUTS).unwrap(), vec![10, 25], "the row's default");
        let bad = parse(&["--fanouts", "10,x"]).unwrap();
        assert!(bad.list::<usize>(&FANOUTS).is_err());
    }

    #[test]
    fn pair_lists_parse() {
        let a = parse(&["--fault-device-fail", "1:3, 2:0"]).unwrap();
        assert_eq!(a.pairs::<usize>(&FAULT_DEVICE_FAIL).unwrap(), vec![(1, 3), (2, 0)]);
        let s = parse(&["--fault-straggler", "0:2.5"]).unwrap();
        assert_eq!(s.pairs::<f64>(&FAULT_STRAGGLER).unwrap(), vec![(0, 2.5)]);
        assert_eq!(a.pairs::<usize>(&FAULT_SHARD_CORRUPT).unwrap(), vec![]);
        let bad = parse(&["--fault-device-fail", "3"]).unwrap();
        assert!(bad.pairs::<usize>(&FAULT_DEVICE_FAIL).is_err());
        let bad = parse(&["--fault-device-fail", "x:1"]).unwrap();
        assert!(bad.pairs::<usize>(&FAULT_DEVICE_FAIL).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert!(a.value::<String>(&DATA).unwrap_err().to_string().contains("--data"));
    }

    #[test]
    fn bad_typed_value_reports_key() {
        let a = parse(&["--k", "NaNs", "--epochs", "-1", "--scale", "2"]).unwrap();
        assert_eq!(a.count_or_auto(&K).unwrap_err().0, "--k: cannot parse 'NaNs'");
        assert_eq!(a.value::<usize>(&EPOCHS).unwrap_err().0, "--epochs: cannot parse '-1'");
        assert_eq!(a.value::<f64>(&SCALE).unwrap_err().0, "--scale must be in (0, 1], got 2");
        assert_eq!(parse(&["--k", "auto"]).unwrap().count_or_auto(&K).unwrap(), None);
        assert_eq!(parse(&[]).unwrap().count_or_auto(&K).unwrap(), None, "auto is the default");
    }
}
