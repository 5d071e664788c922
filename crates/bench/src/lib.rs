//! Shared harness code for the experiment binaries (`table1`, `fig6`,
//! `fig7`, `overhead`, and the ablations).
//!
//! Every binary regenerates one table or figure of the paper; see
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for recorded
//! results.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rbmc_core::{
    BmcEngine, BmcOptions, BmcOutcome, BmcRun, OrderingStrategy, SolverReuse, Weighting,
};
use rbmc_gens::{BenchInstance, Expectation};

pub mod report;

pub use report::{BenchCase, BenchReport};

/// Result of running one instance under one strategy.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance name.
    pub name: String,
    /// `T`/`F` ground truth label.
    pub verdict: &'static str,
    /// Strategy label (`bmc`, `sta`, `dyn`, `sht`).
    pub strategy: &'static str,
    /// Wall-clock time of the whole run.
    pub time: Duration,
    /// Total decisions over all depths.
    pub decisions: u64,
    /// Total implications over all depths.
    pub implications: u64,
    /// Total conflicts over all depths.
    pub conflicts: u64,
    /// Deepest completed depth.
    pub completed_depth: usize,
    /// Whether the verdict matched the instance's ground truth.
    pub verdict_ok: bool,
    /// The full run (per-depth statistics).
    pub run: BmcRun,
}

/// Runs one benchmark instance under the given strategy in the paper's
/// fresh-solver-per-depth regime and verifies the verdict against the
/// instance's ground truth. The experiment binaries that regenerate the
/// paper's tables and figures go through this entry point, so their numbers
/// stay comparable with the paper (and with `BENCH_baseline.json`); pass a
/// reuse mode explicitly via [`run_instance_with`] to measure the
/// incremental session instead.
///
/// # Panics
///
/// Panics if the verdict contradicts the ground truth (the harness treats
/// that as a correctness bug, not a data point).
pub fn run_instance(
    instance: &BenchInstance,
    strategy: OrderingStrategy,
    weighting: Weighting,
) -> InstanceResult {
    run_instance_with(instance, strategy, weighting, SolverReuse::Fresh)
}

/// [`run_instance`] with an explicit solver-reuse mode.
///
/// # Panics
///
/// Panics if the verdict contradicts the ground truth.
pub fn run_instance_with(
    instance: &BenchInstance,
    strategy: OrderingStrategy,
    weighting: Weighting,
    reuse: SolverReuse,
) -> InstanceResult {
    let start = Instant::now();
    let mut engine = BmcEngine::new(
        instance.model.clone(),
        BmcOptions {
            max_depth: instance.max_depth,
            strategy,
            weighting,
            reuse,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    let time = start.elapsed();
    let verdict_ok = match (&run.outcome, instance.expectation) {
        (BmcOutcome::Counterexample { depth, trace }, Expectation::FailsAt(d)) => {
            assert!(
                trace.validate(&instance.model).is_ok(),
                "{}: invalid trace",
                instance.name
            );
            *depth == d
        }
        (BmcOutcome::BoundReached { depth_completed }, Expectation::Holds) => {
            *depth_completed == instance.max_depth
        }
        _ => false,
    };
    assert!(
        verdict_ok,
        "{} [{}]: verdict {:?} contradicts ground truth {:?}",
        instance.name,
        strategy.label(),
        run.outcome,
        instance.expectation
    );
    InstanceResult {
        name: instance.name.clone(),
        verdict: instance.verdict_label(),
        strategy: strategy.label(),
        time,
        decisions: run.total_decisions(),
        implications: run.total_implications(),
        conflicts: run.total_conflicts(),
        completed_depth: run.max_completed_depth().unwrap_or(0),
        verdict_ok,
        run,
    }
}

/// Selects the suite a binary runs on: `--smoke` (or `--small`) picks the
/// fast [`rbmc_gens::small_suite`], anything else the full 37-instance
/// [`rbmc_gens::suite_table1`]. Smoke mode exists so CI can exercise the
/// JSON-emitting binaries end-to-end in seconds.
pub fn cli_suite(args: &[String]) -> Vec<BenchInstance> {
    if args.iter().any(|a| a == "--smoke" || a == "--small") {
        rbmc_gens::small_suite()
    } else {
        rbmc_gens::suite_table1()
    }
}

/// Parses `--reuse fresh|session` from a binary's arguments; `default` when
/// the flag is absent. A malformed value aborts the binary (a typo silently
/// measuring the wrong regime would poison the artifact).
pub fn cli_reuse(args: &[String], default: SolverReuse) -> SolverReuse {
    match args
        .iter()
        .position(|a| a == "--reuse")
        .map(|i| args.get(i + 1).map(String::as_str))
    {
        None => default,
        Some(Some("fresh")) => SolverReuse::Fresh,
        Some(Some("session")) => SolverReuse::Session,
        Some(other) => {
            eprintln!(
                "error: --reuse requires `fresh` or `session`, got {:?}",
                other.unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// The value following `flag` on the command line, if the flag is present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value of a numeric `flag`; `default` when the flag is
/// absent. A malformed value is an error, never the default.
pub fn numeric_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|_| format!("{flag} requires a number, got `{value}`")),
    }
}

/// Checks a command line (`args[0]` is the program) against the flags a
/// binary knows — `value_flags` take the next argument, `switches` stand
/// alone — and returns its first positional argument. An unknown `--flag`,
/// or a value flag without its value, is an error, so a misspelt or retired
/// flag cannot quietly run the default configuration.
pub fn positional_arg(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Option<PathBuf>, String> {
    let mut positional = None;
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} requires a value"));
            }
        } else if arg.starts_with("--") {
            if !switches.contains(&arg.as_str()) {
                return Err(format!("unknown flag `{arg}`"));
            }
        } else if positional.is_none() {
            positional = Some(PathBuf::from(arg));
        }
    }
    Ok(positional)
}

/// [`positional_arg`] for binaries that take no positional argument: any
/// is an error too.
pub fn check_flags(args: &[String], value_flags: &[&str], switches: &[&str]) -> Result<(), String> {
    match positional_arg(args, value_flags, switches)? {
        None => Ok(()),
        Some(arg) => Err(format!("unexpected argument `{}`", arg.display())),
    }
}

/// Reports a command-line error and exits with the usage status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// The three Table 1 strategies in column order.
pub fn table1_strategies() -> [OrderingStrategy; 3] {
    [
        OrderingStrategy::Standard,
        OrderingStrategy::RefinedStatic,
        OrderingStrategy::RefinedDynamic { divisor: 64 },
    ]
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Percentage of `part` relative to `whole` (100% when `whole` is zero).
pub fn ratio_percent(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        100.0
    } else {
        part / whole * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::{check_flags, numeric_flag, positional_arg};
    use std::path::PathBuf;

    fn args(v: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(v.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn malformed_numeric_values_are_errors_not_defaults() {
        for flag in ["--depth", "--divisor", "--jobs"] {
            let err = numeric_flag(&args(&[flag, "abc"]), flag, 7u32).unwrap_err();
            assert!(err.contains(flag) && err.contains("abc"), "{err}");
        }
        assert!(numeric_flag(&args(&["--jobs", "two"]), "--jobs", 1usize).is_err());
        assert!(numeric_flag(&args(&["--depth", "-3"]), "--depth", 20usize).is_err());
        assert_eq!(
            numeric_flag(&args(&["--depth", "12"]), "--depth", 20usize),
            Ok(12)
        );
        assert_eq!(
            numeric_flag(&args(&["--smoke"]), "--depth", 20usize),
            Ok(20)
        );
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let (values, switches) = (
            &["--depth", "--json-out"][..],
            &["--smoke", "--no-json"][..],
        );
        for flag in ["--bogus-flag", "--shard", "--dept"] {
            let err = positional_arg(&args(&["dir", flag]), values, switches).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        let err = positional_arg(&args(&["dir", "--depth"]), values, switches).unwrap_err();
        assert!(err.contains("--depth requires a value"), "{err}");
        assert_eq!(
            positional_arg(&args(&["--depth", "5", "dir", "--smoke"]), values, switches),
            Ok(Some(PathBuf::from("dir")))
        );
        // A value flag's argument is never taken for the positional one.
        assert_eq!(
            positional_arg(
                &args(&["--json-out", "x.json", "--no-json"]),
                values,
                switches
            ),
            Ok(None)
        );
    }

    #[test]
    fn stray_positional_arguments_are_errors_where_none_is_taken() {
        let err = check_flags(&args(&["--smoke", "extra"]), &[], &["--smoke"]).unwrap_err();
        assert!(err.contains("extra"), "{err}");
        assert_eq!(check_flags(&args(&["--smoke"]), &[], &["--smoke"]), Ok(()));
    }
}
