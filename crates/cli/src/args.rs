//! Minimal `--key value` argument parsing (no external dependency).

use std::collections::HashMap;
use std::fmt;

/// A parse or validation failure, printed to the user with usage help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// The flags one command reads, as groups of keys: `values` take an
/// argument (`--k 8`), `switches` take none (`--resume`).
#[derive(Debug, Clone, Copy)]
pub struct Accepts {
    /// Keys read with [`Args::get`] and its typed forms.
    pub values: &'static [&'static [&'static str]],
    /// Keys read with [`Args::has_flag`].
    pub switches: &'static [&'static [&'static str]],
}

/// Parsed `--key value` flags (plus bare `--flag` booleans).
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses flags from an argument iterator (program name and
    /// subcommand already consumed).
    ///
    /// # Errors
    ///
    /// Rejects positional arguments and repeated keys.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument '{arg}'")));
            };
            if key.is_empty() {
                return Err(ArgError("empty flag '--'".into()));
            }
            let is_value = iter
                .peek()
                .map(|next| !next.starts_with("--"))
                .unwrap_or(false);
            if is_value {
                let value = iter.next().expect("peeked");
                if out.values.insert(key.to_string(), value).is_some() {
                    return Err(ArgError(format!("flag --{key} given twice")));
                }
            } else {
                out.flags.push(key.to_string());
            }
        }
        Ok(out)
    }

    /// Checks what was given against what the command reads: a flag that
    /// would otherwise be silently ignored — a misspelt key, a value flag
    /// whose value is missing, a switch handed a value — is an error
    /// naming it (the first in alphabetical order, so the message does not
    /// depend on hash order).
    ///
    /// # Errors
    ///
    /// Names the offending flag.
    pub fn reject_unread(&self, accepts: &Accepts) -> Result<(), ArgError> {
        let listed = |groups: &[&[&str]], key: &str| groups.iter().any(|g| g.contains(&key));
        let mut given: Vec<(&str, Option<&str>)> = self
            .values
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .chain(self.flags.iter().map(|k| (k.as_str(), None)))
            .collect();
        given.sort_unstable();
        for (key, value) in given {
            let problem = match (value, listed(accepts.values, key), listed(accepts.switches, key)) {
                (Some(_), true, _) | (None, _, true) => continue,
                (Some(value), false, true) => format!("--{key} takes no value (got '{value}')"),
                (None, true, false) => format!("--{key} needs a value"),
                _ => format!("unknown flag --{key} for this command"),
            };
            return Err(ArgError(problem));
        }
        Ok(())
    }

    /// String value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare `--key` flag was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Required string value.
    ///
    /// # Errors
    ///
    /// Errors when the flag is missing.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// Typed value with a default.
    ///
    /// # Errors
    ///
    /// Errors when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{raw}'"))),
        }
    }

    /// Comma-separated list of `usize` (e.g. `--fanouts 10,25`).
    ///
    /// # Errors
    ///
    /// Errors when an element does not parse.
    pub fn get_usize_list(&self, key: &str) -> Result<Option<Vec<usize>>, ArgError> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        raw.split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad element '{part}'")))
            })
            .collect::<Result<Vec<usize>, _>>()
            .map(Some)
    }

    /// Comma-separated list of `device:value` pairs (e.g.
    /// `--fault-device-fail 1:3,2:0` or `--fault-straggler 0:2.5`),
    /// parsed into `(usize, T)` tuples.
    ///
    /// # Errors
    ///
    /// Errors when a pair is missing its `:` or a side does not parse.
    pub fn get_pair_list<T: std::str::FromStr>(
        &self,
        key: &str,
    ) -> Result<Option<Vec<(usize, T)>>, ArgError> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        raw.split(',')
            .map(|part| {
                let part = part.trim();
                let (device, value) = part.split_once(':').ok_or_else(|| {
                    ArgError(format!("--{key}: '{part}' is not a device:value pair"))
                })?;
                let device = device
                    .trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad device index '{device}'")))?;
                let value = value
                    .trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad value '{value}'")))?;
                Ok((device, value))
            })
            .collect::<Result<Vec<(usize, T)>, _>>()
            .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, ArgError> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse(&["--scale", "0.1", "--verbose", "--k", "8"]).unwrap();
        assert_eq!(a.get("scale"), Some("0.1"));
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get_or("k", 1usize).unwrap(), 8);
        assert_eq!(a.get_or("missing", 3usize).unwrap(), 3);
    }

    #[test]
    fn rejects_positional_and_duplicates() {
        assert!(parse(&["oops"]).is_err());
        assert!(parse(&["--k", "1", "--k", "2"]).is_err());
    }

    #[test]
    fn reject_unread_names_what_the_command_would_have_ignored() {
        let accepts = Accepts {
            values: &[&["epochs", "k"], &["fault-oom-steps"]],
            switches: &[&["resume"]],
        };
        let check = |parts: &[&str]| parse(parts).unwrap().reject_unread(&accepts).map_err(|e| e.0);
        assert_eq!(check(&["--epochs", "5", "--resume", "--fault-oom-steps", "0,3"]), Ok(()));
        assert_eq!(check(&[]), Ok(()));
        // A misspelt key, with or without a value.
        let unknown = |key| Err(format!("unknown flag --{key} for this command"));
        assert_eq!(check(&["--epcohs", "50"]), unknown("epcohs"));
        assert_eq!(check(&["--fault-oom-step", "3"]), unknown("fault-oom-step"));
        assert_eq!(check(&["--epochs", "5", "--verbose"]), unknown("verbose"));
        // A value flag given bare: at the end, or swallowed by the next flag.
        assert_eq!(check(&["--epochs", "5", "--k"]), Err("--k needs a value".into()));
        assert_eq!(check(&["--k", "--epochs", "5"]), Err("--k needs a value".into()));
        // A switch handed a value.
        assert_eq!(
            check(&["--resume", "yes"]),
            Err("--resume takes no value (got 'yes')".into())
        );
        // Several offenders: the alphabetically first is named.
        assert_eq!(check(&["--zeta", "1", "--alpha"]), unknown("alpha"));
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["--fanouts", "10,25, 30"]).unwrap();
        assert_eq!(a.get_usize_list("fanouts").unwrap(), Some(vec![10, 25, 30]));
        assert_eq!(a.get_usize_list("absent").unwrap(), None);
        let bad = parse(&["--fanouts", "10,x"]).unwrap();
        assert!(bad.get_usize_list("fanouts").is_err());
    }

    #[test]
    fn pair_lists_parse() {
        let a = parse(&["--fault-device-fail", "1:3, 2:0"]).unwrap();
        assert_eq!(
            a.get_pair_list::<usize>("fault-device-fail").unwrap(),
            Some(vec![(1, 3), (2, 0)])
        );
        let s = parse(&["--fault-straggler", "0:2.5"]).unwrap();
        assert_eq!(
            s.get_pair_list::<f64>("fault-straggler").unwrap(),
            Some(vec![(0, 2.5)])
        );
        assert_eq!(a.get_pair_list::<usize>("absent").unwrap(), None);
        let bad = parse(&["--fault-device-fail", "3"]).unwrap();
        assert!(bad.get_pair_list::<usize>("fault-device-fail").is_err());
        let bad = parse(&["--fault-device-fail", "x:1"]).unwrap();
        assert!(bad.get_pair_list::<usize>("fault-device-fail").is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert!(a.require("data").unwrap_err().to_string().contains("--data"));
    }

    #[test]
    fn bad_typed_value_reports_key() {
        let a = parse(&["--k", "NaNs"]).unwrap();
        assert!(a.get_or("k", 0usize).is_err());
    }
}
