//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench gen --workload W --seed N --size full|toy --out DIR
//! perfbench run --workload W --dir DIR --seconds S --trace 0|1
//! ```
//!
//! `gen` writes a workload's seeded AIGER files and manifest. `run` reads
//! them back as bytes and pushes them through the `rbmc` pipeline pass
//! after pass for about `S` seconds. With `--trace 0` it reports the
//! end-to-end metrics, medians over untraced passes; with `--trace 1` it
//! alternates untraced passes with traced ones and reports the per-layer
//! metrics, medians over the traced passes. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A wrong verdict, or a traced replay that departs from the engine, ends
//! the run with a non-zero exit and no metrics.

mod pipeline;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipeline::{FileResult, Fingerprint, Gated};
use tracer::{Layer, Tracer};
use workloads::{Instance, Size, Workload};

/// One untraced pass over every file.
struct Pass {
    /// Wall time from the first parse to the last checked verdict.
    wall: f64,
    /// Front-end time summed over files.
    setup: f64,
    /// Process user + system time.
    cpu: f64,
    /// Wall time of each file.
    files: Vec<f64>,
}

/// One traced pass over every file.
struct TracedPass {
    /// Wall time of the workload's own pipeline (calibration runs removed).
    wall: f64,
    /// Spans and counts of every file, merged.
    tracer: Tracer,
    /// Busy time per worker: the sum of its files' spans.
    busy: Vec<f64>,
}

impl TracedPass {
    fn busy_total(&self) -> f64 {
        self.busy.iter().sum()
    }

    fn idle(&self) -> f64 {
        self.busy.iter().map(|b| (self.wall - b).max(0.0)).sum()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("gen") => gen(&args[2..]),
        Some("run") => run(&args[2..]),
        _ => Err("usage: perfbench gen|run ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn workload_flag(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn gen(args: &[String]) -> Result<(), String> {
    let workload = workload_flag(args)?;
    let seed: u64 = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let size = match flag(args, "--size")? {
        "full" => Size::Full,
        "toy" => Size::Toy,
        other => return Err(format!("unknown size `{other}`")),
    };
    let out = PathBuf::from(flag(args, "--out")?);
    workloads::generate(workload, size, seed, &out).map_err(|e| format!("{}: {e}", out.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = workload_flag(args)?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    let seconds: u64 = flag(args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds takes an integer")?;
    let traced = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let instances = workloads::load(&dir)?;
    if instances.is_empty() {
        return Err(format!("{}: no instances", dir.display()));
    }
    let budget = Duration::from_secs(seconds);
    // Enough passes for a median, then as many more as fit in the budget.
    let min_rounds = if traced { 2 } else { 3 };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<TracedPass> = Vec::new();
    let mut round_times: Vec<f64> = Vec::new();
    let mut gated = Gated::default();
    let mut reference: Option<Vec<Option<Fingerprint>>> = None;
    loop {
        let round = Instant::now();
        let (pass, results) = untraced_pass(workload, &instances, traced && reference.is_none());
        absorb(&mut gated, &results)?;
        passes.push(pass);
        if traced {
            let reference = reference
                .get_or_insert_with(|| results.into_iter().map(|r| r.fingerprint).collect());
            let (pass, results) = traced_pass(workload, &instances);
            absorb(&mut gated, &results)?;
            check_fidelity(&instances, reference, &results)?;
            traced_passes.push(pass);
        }
        round_times.push(round.elapsed().as_secs_f64());
        let next = median(&round_times);
        if round_times.len() >= min_rounds
            && start.elapsed().as_secs_f64() + next > budget.as_secs_f64()
        {
            break;
        }
    }
    eprintln!(
        "{}: {} untraced pass(es), verdict {:.4} s median; {} traced; median seconds per file:",
        workload.name(),
        passes.len(),
        median_of(&passes, |p| p.wall),
        traced_passes.len(),
    );
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall)).collect();
    eprintln!("  untraced pass walls: {}", walls.join(" "));
    for (i, inst) in instances.iter().enumerate() {
        eprintln!(
            "  {:10} {:.4}",
            inst.name,
            median_of(&passes, |p| p.files[i])
        );
    }
    let metrics = if traced {
        per_layer_metrics(workload, &passes, &traced_passes)
    } else {
        end_to_end_metrics(&passes)?
    };
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        gated.attempted, gated.failed
    );
    Ok(())
}

/// Folds one pass's gate findings in; any wrong verdict fails the run
/// before a single metric is printed.
fn absorb(total: &mut Gated, results: &[FileResult]) -> Result<(), String> {
    for r in results {
        total.attempted += r.gated.attempted;
        total.failed += r.gated.failed;
        total.wrong.extend(r.gated.wrong.iter().cloned());
    }
    if total.wrong.is_empty() {
        return Ok(());
    }
    for line in &total.wrong {
        eprintln!("wrong: {line}");
    }
    println!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        total.attempted, total.failed
    );
    Err(format!(
        "{} wrong verdict(s); no metrics reported",
        total.wrong.len()
    ))
}

/// The traced replay must reproduce the engine's per-depth counters and
/// verdicts exactly; otherwise its numbers describe another program.
fn check_fidelity(
    instances: &[Instance],
    reference: &[Option<Fingerprint>],
    results: &[FileResult],
) -> Result<(), String> {
    for ((inst, want), got) in instances.iter().zip(reference).zip(results) {
        if want.is_some() && want != &got.fingerprint {
            return Err(format!(
                "{}: traced replay departs from BmcEngine::run_collecting\n  engine: {want:?}\n  replay: {:?}",
                inst.name, got.fingerprint
            ));
        }
    }
    Ok(())
}

fn untraced_pass(
    workload: Workload,
    instances: &[Instance],
    fingerprint: bool,
) -> (Pass, Vec<FileResult>) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let results = rbmc_core::striped_map(instances.len(), workload.jobs(), |_, i| {
        pipeline::check_file(workload, &instances[i], fingerprint)
    });
    let wall = start.elapsed().as_secs_f64();
    let pass = Pass {
        wall,
        setup: results.iter().map(|r| r.setup.as_secs_f64()).sum(),
        cpu: cpu_seconds() - cpu0,
        files: results.iter().map(|r| r.wall.as_secs_f64()).collect(),
    };
    (pass, results)
}

fn traced_pass(workload: Workload, instances: &[Instance]) -> (TracedPass, Vec<FileResult>) {
    let workers = workload.jobs().min(instances.len()).max(1);
    let start = Instant::now();
    let spans = rbmc_core::striped_map(instances.len(), workers, |w, i| {
        let t0 = Instant::now();
        let result = pipeline::trace_file(workload, &instances[i]);
        let span = t0.elapsed().saturating_sub(result.calibration);
        (w, span.as_secs_f64(), result)
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut pass = TracedPass {
        wall: 0.0,
        tracer: Tracer::on(),
        busy: vec![0.0; workers],
    };
    let mut calibration = 0.0;
    let mut results = Vec::with_capacity(spans.len());
    for (w, span, result) in spans {
        pass.busy[w] += span;
        pass.tracer.merge(&result.tracer);
        calibration += result.calibration.as_secs_f64();
        results.push(result);
    }
    // Calibration runs only happen on the sequential IC3 workload, where
    // they sit on the one worker's critical path.
    pass.wall = elapsed - calibration / workers as f64;
    (pass, results)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end_metrics(passes: &[Pass]) -> Result<Vec<Metric>, String> {
    Ok(vec![
        ("verdict_s", median_of(passes, |p| p.wall), "s"),
        ("setup_s", median_of(passes, |p| p.setup), "s"),
        ("cpu_s", median_of(passes, |p| p.cpu), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

fn per_layer_metrics(workload: Workload, passes: &[Pass], traced: &[TracedPass]) -> Vec<Metric> {
    let layer = |l: Layer| median_of(traced, |p| p.tracer.seconds(l));
    // Counts repeat exactly from pass to pass; report the first.
    let c = &traced[0].tracer.counts;
    let count = |n: u64| n as f64;
    // The time the solver counters were produced in: the session solves for
    // BMC, the unchecked engine run for IC3 (its solves are not separable
    // from outside).
    let solver_time =
        |p: &TracedPass| p.tracer.seconds(Layer::Solve) + p.tracer.seconds(Layer::Ic3);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let traced_wall = median_of(traced, |p| p.wall);
    let workers = workload.jobs() as f64;
    vec![
        (Layer::Parse.metric(), layer(Layer::Parse), "s"),
        (
            "circuit.parse_mb_per_s",
            median_of(traced, |p| {
                ratio(
                    p.tracer.counts.parse_bytes as f64 / 1e6,
                    p.tracer.seconds(Layer::Parse),
                )
            }),
            "MB/s",
        ),
        (Layer::Lint.metric(), layer(Layer::Lint), "s"),
        (Layer::Problem.metric(), layer(Layer::Problem), "s"),
        (Layer::Preprocess.metric(), layer(Layer::Preprocess), "s"),
        (
            "core.preprocess_removed_frac",
            ratio(count(c.nodes_removed), count(c.nodes_before)),
            "frac",
        ),
        (Layer::Unroll.metric(), layer(Layer::Unroll), "s"),
        ("core.clauses_loaded", count(c.clauses_loaded), "count"),
        (Layer::Solve.metric(), layer(Layer::Solve), "s"),
        ("solver.episodes", count(c.episodes), "count"),
        ("solver.decisions", count(c.decisions), "count"),
        ("solver.propagations", count(c.propagations), "count"),
        ("solver.conflicts", count(c.conflicts), "count"),
        (
            "solver.props_per_s",
            median_of(traced, |p| {
                ratio(p.tracer.counts.propagations as f64, solver_time(p))
            }),
            "1/s",
        ),
        ("solver.learned", count(c.learned), "count"),
        ("solver.deleted", count(c.deleted), "count"),
        ("solver.compactions", count(c.compactions), "count"),
        (Layer::Core.metric(), layer(Layer::Core), "s"),
        ("solver.core_vars", count(c.core_vars), "count"),
        (Layer::Rank.metric(), layer(Layer::Rank), "s"),
        (
            "core.rank_peak_entries",
            count(c.rank_peak_entries),
            "count",
        ),
        (
            "core.vsids_switch_depths",
            count(c.vsids_switch_depths),
            "count",
        ),
        (Layer::Cdg.metric(), layer(Layer::Cdg), "s"),
        (
            "solver.cdg_pruned_nodes",
            count(c.cdg_pruned_nodes),
            "count",
        ),
        ("solver.cdg_peak_nodes", count(c.cdg_peak_nodes), "count"),
        (Layer::Trace.metric(), layer(Layer::Trace), "s"),
        ("core.witnesses", count(c.witnesses), "count"),
        (Layer::Ic3.metric(), layer(Layer::Ic3), "s"),
        ("core.ic3_queries", count(c.ic3_queries), "count"),
        (Layer::ProofLog.metric(), layer(Layer::ProofLog), "s"),
        (Layer::ProofCheck.metric(), layer(Layer::ProofCheck), "s"),
        ("proof.steps_logged", count(c.steps_logged), "count"),
        (
            "proof.episodes_certified",
            count(c.episodes_certified),
            "count",
        ),
        (
            "proof.check_s_per_episode",
            ratio(layer(Layer::ProofCheck), count(c.episodes_certified)),
            "s",
        ),
        (Layer::Invariant.metric(), layer(Layer::Invariant), "s"),
        (
            "dispatch.busy_frac",
            median_of(traced, |p| ratio(p.busy_total(), workers * p.wall)),
            "frac",
        ),
        ("dispatch.idle_s", median_of(traced, TracedPass::idle), "s"),
        (
            "solver.arena_peak_mb",
            count(c.arena_peak_bytes) / (1024.0 * 1024.0),
            "MB",
        ),
        (
            "core.prefix_peak_clauses",
            count(c.prefix_peak_clauses),
            "count",
        ),
        ("trace.verdict_s", traced_wall, "s"),
        (
            "trace.overhead_s",
            traced_wall - median_of(passes, |p| p.wall),
            "s",
        ),
        (
            "trace.unattributed_s",
            median_of(traced, |p| p.busy_total() - p.tracer.total()),
            "s",
        ),
    ]
}

/// Process user + system time, all threads, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `fields[0]` is field 3 (state), so utime/stime sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// High-water resident set size of this process (`VmHWM`), in MB of
/// 2^20 bytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
