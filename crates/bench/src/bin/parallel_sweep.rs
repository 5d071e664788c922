//! `parallel_sweep` — sequential vs `--jobs` sweep over the exported
//! corpus, recorded as `BENCH_parallel.json`.
//!
//! For each worker budget in the jobs list (default `1,2,4`) the binary
//! sweeps every AIGER benchmark of the corpus the way `rbmc --jobs N` does:
//! files striped across `N` workers, each file's engine running with
//! [`ParallelConfig`] (one depth loop per property for multi-property files
//! — single-property files simply occupy one worker). The `jobs=1`
//! configuration is the plain sequential engine and serves as the baseline;
//! every configuration's verdicts are cross-checked against it, so the
//! artifact doubles as a determinism gate.
//!
//! One report case per configuration: total wall time, summed solver
//! counters, and the speedup over the sequential baseline — plus
//! `host_cpus`, because a wall-clock win needs hardware parallelism (on a
//! single-core host every configuration degenerates to ~1×; the CI artifact
//! records what the runner hardware actually delivers).
//!
//! Usage:
//!
//! ```text
//! parallel_sweep [DIR] [--smoke] [--depth N] [--jobs-list 1,2,4]
//!                [--no-preprocess] [--modes deterministic,portfolio]
//!                [--jobs N] [--repeat N]
//!                [--json-out PATH | --no-json]
//! ```
//!
//! `--no-preprocess` turns off the engine's structural preprocessing in
//! every configuration of the sweep (the cross-checks then compare raw
//! engines against raw engines); by default all configurations run the
//! reduced model, like `rbmc` does.
//!
//! With `--modes`, the binary switches from the jobs sweep to the **mode
//! comparison** (`BENCH_relaxed.json`): the deterministic by-property
//! engine and a strategy-portfolio race each sweep the corpus at one
//! worker budget (`--jobs`, default 4), each file's wall time is the
//! minimum over `--repeat` runs (default 2, to damp scheduler noise), the
//! portfolio's verdicts are cross-checked against the deterministic mode,
//! and it records its total speedup over the deterministic sweep plus its
//! worst per-file regression ratio (`worst_file_ratio_vs_det`).
//!
//! Without a positional corpus directory, the gens suite is exported to
//! `target/parallel-corpus` and swept from there.
//!
//! The command line fails closed: an unknown `--flag`, a value flag without
//! its value, or a malformed number or list exits with status 2 before
//! anything runs.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rbmc_bench::{flag_value, numeric_flag, usage_error, BenchCase, BenchReport};
use rbmc_core::{
    run_portfolio, BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ParallelConfig, PortfolioMode,
    ProblemBuilder, SolveResult,
};

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &[&str] = &[
    "--depth",
    "--jobs-list",
    "--modes",
    "--jobs",
    "--repeat",
    "--json-out",
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &["--smoke", "--small", "--no-preprocess", "--no-json"];

/// The `--jobs-list` worker budgets (default `1,2,4`): positive integers,
/// comma-separated. Any other entry is an error, not skipped.
fn jobs_list(args: &[String]) -> Result<Vec<usize>, String> {
    let Some(list) = flag_value(args, "--jobs-list") else {
        return Ok(vec![1, 2, 4]);
    };
    list.split(',')
        .map(|jobs| match jobs.trim().parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "--jobs-list requires a comma-separated list of positive integers, got `{list}`"
            )),
        })
        .collect()
}

/// The `--modes` list of the mode comparison. The deterministic sweep is
/// the verdict reference and the wall-time denominator, so it always runs,
/// and always first.
fn sweep_modes(list: &str) -> Result<Vec<SweepMode>, String> {
    let mut modes = vec![SweepMode::Deterministic];
    for label in list.split(',') {
        let mode = SweepMode::parse(label.trim())
            .ok_or_else(|| format!("--modes accepts deterministic|portfolio, got `{label}`"))?;
        if !modes.contains(&mode) {
            modes.push(mode);
        }
    }
    Ok(modes)
}

/// One configuration's sweep over the whole corpus: returns the per-file
/// runs (in file order) and the aggregate wall time.
fn sweep(
    problems: &[rbmc_core::VerificationProblem],
    options: &BmcOptions,
    file_workers: usize,
) -> (Vec<BmcRun>, f64) {
    let start = Instant::now();
    let runs = rbmc_core::striped_map(problems.len(), file_workers, |_w, i| {
        let mut engine = BmcEngine::for_problem(problems[i].clone(), *options);
        engine.run_collecting()
    });
    (runs, start.elapsed().as_secs_f64())
}

/// The cross-check currency: every property's per-depth verdict sequence,
/// flattened over the corpus in file order.
fn all_verdicts(runs: &[BmcRun]) -> Vec<Vec<SolveResult>> {
    runs.iter()
        .flat_map(|r| r.properties.iter().map(|p| p.depth_results.clone()))
        .collect()
}

/// One dispatch mode of the mode comparison sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SweepMode {
    /// The deterministic commit-order baseline (a by-property
    /// [`ParallelConfig`] run).
    Deterministic,
    /// Strategy-portfolio racing.
    Portfolio,
}

impl SweepMode {
    fn label(self) -> &'static str {
        match self {
            SweepMode::Deterministic => "deterministic",
            SweepMode::Portfolio => "portfolio",
        }
    }

    fn parse(label: &str) -> Option<SweepMode> {
        match label {
            "deterministic" | "det" => Some(SweepMode::Deterministic),
            "portfolio" => Some(SweepMode::Portfolio),
            _ => None,
        }
    }
}

/// One mode's sweep for the mode comparison: every file's engine (or
/// race) gets the full worker budget, files run sequentially (the engine
/// grain is what is being measured), and each file's wall time is the
/// minimum over `repeat` runs. Returns the last repeat's runs (for the
/// verdict cross-check) and the per-file minimum walls.
fn mode_sweep(
    problems: &[rbmc_core::VerificationProblem],
    base: &BmcOptions,
    mode: SweepMode,
    jobs: usize,
    repeat: usize,
) -> (Vec<BmcRun>, Vec<f64>) {
    let options = BmcOptions {
        parallel: match mode {
            SweepMode::Deterministic => Some(ParallelConfig { jobs }),
            SweepMode::Portfolio => None,
        },
        ..*base
    };
    let mut walls = vec![f64::INFINITY; problems.len()];
    let mut runs = Vec::new();
    for _ in 0..repeat.max(1) {
        runs = problems
            .iter()
            .enumerate()
            .map(|(i, problem)| {
                let start = Instant::now();
                let run = match mode {
                    SweepMode::Portfolio => {
                        run_portfolio(problem, &options, PortfolioMode::Strategies, jobs).run
                    }
                    SweepMode::Deterministic => {
                        let mut engine = BmcEngine::for_problem(problem.clone(), options);
                        engine.run_collecting()
                    }
                };
                walls[i] = walls[i].min(start.elapsed().as_secs_f64());
                run
            })
            .collect();
    }
    (runs, walls)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let positional = rbmc_bench::positional_arg(&args, VALUE_FLAGS, SWITCHES)
        .unwrap_or_else(|e| usage_error(&e));
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--small");
    let preprocess = !args.iter().any(|a| a == "--no-preprocess");
    let depth: usize = numeric_flag(&args, "--depth", if smoke { 10 } else { 20 })
        .unwrap_or_else(|e| usage_error(&e));
    let mut jobs_list = jobs_list(&args).unwrap_or_else(|e| usage_error(&e));
    // The first configuration is the speedup baseline and the verdict
    // reference; it must be the genuinely sequential sweep.
    if jobs_list[0] != 1 {
        jobs_list.insert(0, 1);
    }
    let modes = flag_value(&args, "--modes")
        .map(|list| sweep_modes(list).unwrap_or_else(|e| usage_error(&e)));
    let jobs = numeric_flag(&args, "--jobs", 4usize)
        .unwrap_or_else(|e| usage_error(&e))
        .max(1);
    let repeat = numeric_flag(&args, "--repeat", 2usize)
        .unwrap_or_else(|e| usage_error(&e))
        .max(1);

    // Corpus: the positional directory, or a fresh export of the gens suite.
    let corpus_dir = match positional {
        Some(dir) => dir,
        None => {
            let dir = PathBuf::from("target/parallel-corpus");
            // A stale mix of earlier exports would silently change the
            // sweep's workload; start from a clean directory.
            let _ = std::fs::remove_dir_all(&dir);
            let suite = if smoke {
                rbmc_gens::small_suite()
            } else {
                rbmc_gens::suite_table1()
            };
            if let Err(e) = rbmc_gens::corpus::export_corpus(&dir, &suite) {
                eprintln!("error: corpus export failed: {e}");
                return ExitCode::from(1);
            }
            dir
        }
    };

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&corpus_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("aag") | Some("aig")
                )
            })
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", corpus_dir.display());
            return ExitCode::from(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("error: no .aag/.aig benchmarks in {}", corpus_dir.display());
        return ExitCode::from(1);
    }
    let problems: Vec<rbmc_core::VerificationProblem> = match files
        .iter()
        .map(|path| {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("benchmark")
                .to_string();
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let aig = rbmc_circuit::aiger::parse_aiger(&bytes)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let builder = ProblemBuilder::from_aig(&stem, &aig);
            if builder.num_properties() == 0 {
                return Err(format!("{}: no properties", path.display()));
            }
            Ok(builder.build())
        })
        .collect()
    {
        Ok(problems) => problems,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let num_properties: usize = problems
        .iter()
        .map(rbmc_core::VerificationProblem::num_properties)
        .sum();

    // --modes switches to the mode comparison (BENCH_relaxed.json).
    if let Some(modes) = modes {
        let base = BmcOptions {
            max_depth: depth,
            strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
            preprocess,
            ..BmcOptions::default()
        };
        println!(
            "mode comparison: {} files / {num_properties} properties to depth {depth} \
             (jobs {jobs}, min of {repeat} runs, host cpus {host_cpus})",
            problems.len(),
        );
        let mut report = BenchReport::new(format!(
            "mode comparison ({}, depth={depth}, jobs={jobs}, repeat={repeat}, \
             host_cpus={host_cpus})",
            corpus_dir.display(),
        ));
        let mut det: Option<(Vec<Vec<SolveResult>>, Vec<f64>)> = None;
        for &mode in &modes {
            let (runs, walls) = mode_sweep(&problems, &base, mode, jobs, repeat);
            let verdicts = all_verdicts(&runs);
            let wall_s: f64 = walls.iter().sum();
            let (speedup, worst_ratio) = match &det {
                None => {
                    det = Some((verdicts, walls.clone()));
                    (1.0, 1.0)
                }
                Some((expected, det_walls)) => {
                    if &verdicts != expected {
                        eprintln!(
                            "error: mode {} verdicts diverge from the deterministic sweep",
                            mode.label()
                        );
                        return ExitCode::from(1);
                    }
                    let det_wall: f64 = det_walls.iter().sum();
                    // Per-file regression guard. Walls are clamped to a noise
                    // floor before dividing: most corpus files solve in well
                    // under 10ms, where scheduler jitter swamps any real
                    // difference and a raw ratio would report phantom
                    // regressions.
                    const NOISE_FLOOR_S: f64 = 0.01;
                    let worst = walls
                        .iter()
                        .zip(det_walls)
                        .map(|(w, d)| w.max(NOISE_FLOOR_S) / d.max(NOISE_FLOOR_S))
                        .fold(0.0_f64, f64::max);
                    (det_wall / wall_s, worst)
                }
            };
            let conflicts: u64 = runs.iter().map(rbmc_core::BmcRun::total_conflicts).sum();
            let decisions: u64 = runs.iter().map(rbmc_core::BmcRun::total_decisions).sum();
            let propagations: u64 = runs.iter().map(rbmc_core::BmcRun::total_implications).sum();
            let falsified: usize = runs.iter().map(rbmc_core::BmcRun::num_falsified).sum();
            println!(
                "  {}: {wall_s:.3}s wall, {falsified} falsified, speedup {speedup:.2}x vs \
                 deterministic, worst file ratio {worst_ratio:.2}",
                mode.label(),
            );
            report.push(BenchCase {
                name: "corpus_sweep".into(),
                strategy: mode.label().into(),
                wall_s,
                conflicts,
                decisions,
                propagations,
                completed_depth: depth,
                verdict_ok: true,
                extra: vec![
                    ("jobs".into(), jobs as f64),
                    ("repeat".into(), repeat as f64),
                    ("host_cpus".into(), host_cpus as f64),
                    ("files".into(), problems.len() as f64),
                    ("properties".into(), num_properties as f64),
                    ("falsified".into(), falsified as f64),
                    ("speedup_vs_det".into(), speedup),
                    ("worst_file_ratio_vs_det".into(), worst_ratio),
                ],
            });
        }
        rbmc_bench::report::emit(&args, "relaxed", &report);
        return ExitCode::SUCCESS;
    }

    println!(
        "parallel sweep: {} files / {num_properties} properties to depth {depth} \
         (host cpus {host_cpus})",
        problems.len(),
    );

    let mut report = BenchReport::new(format!(
        "parallel corpus sweep ({}, depth={depth}, host_cpus={host_cpus})",
        corpus_dir.display(),
    ));
    let mut baseline: Option<(Vec<Vec<SolveResult>>, f64)> = None;
    for &jobs in &jobs_list {
        // Same budget split as `rbmc --jobs`: file striping first, leftover
        // budget to each file's engine (never jobs² threads).
        let file_workers = jobs.min(problems.len()).max(1);
        let engine_jobs = (jobs / file_workers).max(1);
        let options = BmcOptions {
            max_depth: depth,
            strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
            preprocess,
            parallel: (engine_jobs > 1).then_some(ParallelConfig { jobs: engine_jobs }),
            ..BmcOptions::default()
        };
        let (runs, wall_s) = sweep(&problems, &options, file_workers);
        let verdicts = all_verdicts(&runs);
        let speedup = match &baseline {
            None => {
                baseline = Some((verdicts, wall_s));
                1.0
            }
            Some((expected, base_wall)) => {
                if &verdicts != expected {
                    eprintln!("error: jobs={jobs} verdicts diverge from the sequential sweep");
                    return ExitCode::from(1);
                }
                base_wall / wall_s
            }
        };
        let conflicts: u64 = runs.iter().map(rbmc_core::BmcRun::total_conflicts).sum();
        let decisions: u64 = runs.iter().map(rbmc_core::BmcRun::total_decisions).sum();
        let propagations: u64 = runs.iter().map(rbmc_core::BmcRun::total_implications).sum();
        let falsified: usize = runs.iter().map(rbmc_core::BmcRun::num_falsified).sum();
        println!("  jobs={jobs}: {wall_s:.3}s wall, {falsified} falsified, speedup {speedup:.2}x");
        report.push(BenchCase {
            name: "corpus_sweep".into(),
            strategy: format!("jobs={jobs}"),
            wall_s,
            conflicts,
            decisions,
            propagations,
            completed_depth: depth,
            verdict_ok: true,
            extra: vec![
                ("jobs".into(), jobs as f64),
                ("host_cpus".into(), host_cpus as f64),
                ("files".into(), problems.len() as f64),
                ("properties".into(), num_properties as f64),
                ("falsified".into(), falsified as f64),
                ("speedup_vs_seq".into(), speedup),
            ],
        });
    }
    rbmc_bench::report::emit(&args, "parallel", &report);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{jobs_list, sweep_modes, SweepMode, SWITCHES, VALUE_FLAGS};

    fn args(v: &[&str]) -> Vec<String> {
        std::iter::once("parallel_sweep")
            .chain(v.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn retired_and_unknown_flags_are_errors() {
        for flag in ["--shard", "--bogus-flag"] {
            let err = rbmc_bench::positional_arg(
                &args(&["--smoke", flag, "by-property"]),
                VALUE_FLAGS,
                SWITCHES,
            )
            .unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn malformed_jobs_lists_are_errors_not_filtered() {
        for list in ["1,x", "1,x,2", "0", "1,,2", ""] {
            let err = jobs_list(&args(&["--jobs-list", list])).unwrap_err();
            assert!(err.contains("--jobs-list"), "{list}: {err}");
        }
        assert_eq!(jobs_list(&args(&["--jobs-list", "2,4"])), Ok(vec![2, 4]));
        assert_eq!(jobs_list(&args(&[])), Ok(vec![1, 2, 4]));
    }

    #[test]
    fn unknown_modes_are_errors() {
        assert!(sweep_modes("portfolio,relaxed").is_err());
        assert_eq!(
            sweep_modes("portfolio,det"),
            Ok(vec![SweepMode::Deterministic, SweepMode::Portfolio])
        );
    }
}
