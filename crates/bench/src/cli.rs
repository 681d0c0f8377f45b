//! The shared command-line front end for the bench binaries.
//!
//! Every binary historically re-implemented the same scraps of argument
//! handling: the telemetry/`--jobs` flags ([`TelemetryArgs`]), `--seed N`
//! and `--seeds A,B,C`, and an ad-hoc scan for its own flags with ad-hoc
//! "unknown argument" behaviour. [`BenchCli`] centralizes all of it:
//!
//! ```
//! # use gemini_bench::cli::BenchCli;
//! let mut cli = BenchCli::parse(
//!     ["--seed", "7", "--quick", "--out", "b.json"]
//!         .iter()
//!         .map(|s| s.to_string()),
//! )
//! .unwrap();
//! let quick = cli.flag("--quick");
//! let out = cli.value("--out").unwrap().unwrap_or_else(|| "BENCH.json".into());
//! assert_eq!(cli.seeds_or(&[1, 2, 3]), vec![7]);
//! assert!(quick);
//! assert_eq!(out, "b.json");
//! cli.reject_unknown().unwrap(); // everything was consumed
//! ```
//!
//! * Telemetry and `--jobs` flags land in [`BenchCli::telemetry`]
//!   (see [`TelemetryArgs`]).
//! * `--seed N` (single) and `--seeds A,B,C` (list) land in
//!   [`BenchCli::seed`] / [`BenchCli::seeds`]; [`BenchCli::seeds_or`]
//!   folds them against a binary-specific default, with `--seed`
//!   taking precedence.
//! * Binary-specific flags are consumed with [`BenchCli::flag`] /
//!   [`BenchCli::value`], and whatever remains is either collected with
//!   [`BenchCli::rest`] (positional operands) or rejected with
//!   [`BenchCli::reject_unknown`].
//!
//! [`BenchCli::from_env`] is the `main()`-shaped entry point: it parses
//! the process arguments and exits with a diagnostic on malformed input.

use crate::out::TelemetryArgs;

/// Parsed common flags plus a cursor over the binary-specific remainder.
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// The telemetry/`--jobs` flags shared by every binary.
    pub telemetry: TelemetryArgs,
    /// `--seed N`, when given. Takes precedence over [`BenchCli::seeds`]
    /// in [`BenchCli::seeds_or`].
    pub seed: Option<u64>,
    /// `--seeds A,B,C`, when given.
    pub seeds: Option<Vec<u64>>,
    remainder: Vec<String>,
}

impl BenchCli {
    /// Parses `args`, splitting out the telemetry flags, `--seed` and
    /// `--seeds`. Unrecognized arguments are kept (in order) for
    /// [`BenchCli::flag`] / [`BenchCli::value`] / [`BenchCli::rest`].
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchCli, String> {
        let (telemetry, rest) = TelemetryArgs::parse(args)?;
        let mut out = BenchCli {
            telemetry,
            ..BenchCli::default()
        };
        let mut it = rest.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seed" => {
                    let s = it
                        .next()
                        .ok_or_else(|| "--seed requires an N operand".to_string())?;
                    let n = s
                        .parse()
                        .map_err(|_| format!("--seed expects an integer, got {s:?}"))?;
                    if out.seed.is_some() {
                        return Err("--seed given more than once".to_string());
                    }
                    out.seed = Some(n);
                }
                "--seeds" => {
                    let s = it
                        .next()
                        .ok_or_else(|| "--seeds requires a LIST operand".to_string())?;
                    let seeds = s
                        .split(',')
                        .map(|x| {
                            x.trim()
                                .parse()
                                .map_err(|_| format!("--seeds expects integers, got {x:?}"))
                        })
                        .collect::<Result<Vec<u64>, String>>()?;
                    if seeds.is_empty() {
                        return Err("--seeds expects a non-empty list".to_string());
                    }
                    if out.seeds.is_some() {
                        return Err("--seeds given more than once".to_string());
                    }
                    out.seeds = Some(seeds);
                }
                _ => out.remainder.push(arg),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, printing the diagnostic and exiting
    /// non-zero on malformed input. Also installs the effective `--jobs`
    /// count as the process-wide default.
    pub fn from_env() -> BenchCli {
        match BenchCli::parse(std::env::args().skip(1)) {
            Ok(cli) => {
                cli.telemetry.install_jobs();
                cli
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1)
            }
        }
    }

    /// The seed set for this run: `--seed N` wins (a single-element set),
    /// then `--seeds A,B,C`, then `default`.
    pub fn seeds_or(&self, default: &[u64]) -> Vec<u64> {
        if let Some(seed) = self.seed {
            vec![seed]
        } else if let Some(seeds) = &self.seeds {
            seeds.clone()
        } else {
            default.to_vec()
        }
    }

    /// Consumes the boolean flag `name` from the remainder, returning
    /// whether it was present (every occurrence is removed).
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.remainder.len();
        self.remainder.retain(|a| a != name);
        self.remainder.len() != before
    }

    /// Consumes `name VALUE` from the remainder. `Ok(None)` when absent;
    /// an error when the flag is present without its operand or given more
    /// than once (a repeated value flag used to leave its second occurrence
    /// in the remainder, surfacing later as a misleading "unknown
    /// argument").
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        if self.remainder.iter().filter(|a| *a == name).count() > 1 {
            return Err(format!("{name} given more than once"));
        }
        match self.remainder.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) if i + 1 < self.remainder.len() => {
                self.remainder.remove(i);
                Ok(Some(self.remainder.remove(i)))
            }
            Some(_) => Err(format!("{name} requires an operand")),
        }
    }

    /// Consumes `--out FILE`: where a report-writing bin (`perf`, `policy`,
    /// `service`) writes. Without `--out`, a full run writes
    /// `BENCH_harness.json` and a `quick` run writes nothing, so a quick
    /// local run never replaces the committed full-depth report.
    pub fn report_path(&mut self, quick: bool) -> Result<Option<String>, String> {
        Ok(self
            .value("--out")?
            .or_else(|| (!quick).then(|| "BENCH_harness.json".to_string())))
    }

    /// The unconsumed remainder (positional operands), in input order.
    pub fn rest(&self) -> &[String] {
        &self.remainder
    }

    /// Errors on any unconsumed argument — the standard tail call for
    /// binaries with no positional operands. Flag-like leftovers and
    /// trailing operands get distinct diagnostics.
    pub fn reject_unknown(&self) -> Result<(), String> {
        match self.remainder.first() {
            None => Ok(()),
            Some(arg) if arg.starts_with('-') => Err(format!("unknown argument {arg:?}")),
            Some(arg) => Err(format!("unexpected operand {arg:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn splits_common_flags_and_keeps_the_rest() {
        let cli = BenchCli::parse(s(&[
            "--plan",
            "root_churn",
            "--seed",
            "7",
            "--trace-out",
            "t.json",
            "--fast",
        ]))
        .unwrap();
        assert_eq!(cli.seed, Some(7));
        assert!(cli.telemetry.trace_out.is_some());
        assert_eq!(cli.rest(), s(&["--plan", "root_churn", "--fast"]));
    }

    #[test]
    fn only_a_full_run_defaults_to_the_committed_report() {
        let path = |args: &[&str], quick| BenchCli::parse(s(args)).unwrap().report_path(quick);
        assert_eq!(path(&[], false), Ok(Some("BENCH_harness.json".to_string())));
        assert_eq!(path(&[], true), Ok(None));
        for quick in [false, true] {
            assert_eq!(path(&["--out", "b.json"], quick), Ok(Some("b.json".into())));
        }
        assert!(path(&["--out"], true).is_err());
    }

    #[test]
    fn seed_wins_over_seeds_and_default() {
        let cli = BenchCli::parse(s(&["--seed", "9", "--seeds", "1,2,3"])).unwrap();
        assert_eq!(cli.seeds_or(&[4, 5]), vec![9]);
        let cli = BenchCli::parse(s(&["--seeds", "1, 2,3"])).unwrap();
        assert_eq!(cli.seeds_or(&[4, 5]), vec![1, 2, 3]);
        let cli = BenchCli::parse(s(&[])).unwrap();
        assert_eq!(cli.seeds_or(&[4, 5]), vec![4, 5]);
    }

    #[test]
    fn malformed_seed_flags_error() {
        assert!(BenchCli::parse(s(&["--seed"])).is_err());
        assert!(BenchCli::parse(s(&["--seed", "x"])).is_err());
        assert!(BenchCli::parse(s(&["--seeds"])).is_err());
        assert!(BenchCli::parse(s(&["--seeds", "1,x"])).is_err());
        assert!(BenchCli::parse(s(&["--seeds", ""])).is_err());
    }

    #[test]
    fn flag_and_value_consume() {
        let mut cli = BenchCli::parse(s(&["--quick", "--out", "b.json", "pos"])).unwrap();
        assert!(cli.flag("--quick"));
        assert!(!cli.flag("--quick"));
        assert_eq!(cli.value("--out").unwrap().as_deref(), Some("b.json"));
        assert_eq!(cli.value("--out").unwrap(), None);
        assert_eq!(cli.rest(), s(&["pos"]));
        assert!(cli.reject_unknown().is_err());
    }

    #[test]
    fn value_without_operand_errors() {
        let mut cli = BenchCli::parse(s(&["--out"])).unwrap();
        assert!(cli.value("--out").is_err());
    }

    #[test]
    fn reject_unknown_passes_when_everything_is_consumed() {
        let mut cli = BenchCli::parse(s(&["--list"])).unwrap();
        assert!(cli.flag("--list"));
        assert!(cli.reject_unknown().is_ok());
    }

    #[test]
    fn zero_jobs_is_rejected_at_the_cli_layer() {
        // TelemetryArgs already guards this; pin it at the BenchCli front
        // door so a refactor can't silently drop the check.
        let err = BenchCli::parse(s(&["--jobs", "0"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(BenchCli::parse(s(&["--jobs", "2"])).is_ok());
    }

    #[test]
    fn duplicate_value_flags_error_instead_of_misleading() {
        // Pre-fix: value() consumed only the first occurrence, so the
        // second surfaced later as "unknown argument --out".
        let mut cli = BenchCli::parse(s(&["--out", "a.json", "--out", "b.json"])).unwrap();
        let err = cli.value("--out").unwrap_err();
        assert_eq!(err, "--out given more than once");
    }

    #[test]
    fn duplicate_common_flags_error() {
        for (args, flag) in [
            (vec!["--seed", "1", "--seed", "2"], "--seed"),
            (vec!["--seeds", "1,2", "--seeds", "3"], "--seeds"),
            (vec!["--jobs", "2", "--jobs", "4"], "--jobs"),
            (vec!["--trace-out", "a", "--trace-out", "b"], "--trace-out"),
        ] {
            let err = BenchCli::parse(s(&args)).unwrap_err();
            assert_eq!(err, format!("{flag} given more than once"));
        }
    }

    #[test]
    fn trailing_garbage_gets_a_distinct_diagnostic() {
        let mut cli = BenchCli::parse(s(&["--quick", "trailing", "junk"])).unwrap();
        assert!(cli.flag("--quick"));
        let err = cli.reject_unknown().unwrap_err();
        assert_eq!(err, "unexpected operand \"trailing\"");
        let cli = BenchCli::parse(s(&["--bogus"])).unwrap();
        assert_eq!(
            cli.reject_unknown().unwrap_err(),
            "unknown argument \"--bogus\""
        );
    }
}
