//! `memory_sweep` — the space-efficiency artifact (`BENCH_memory.json`).
//!
//! Measures what structural preprocessing ([`rbmc_core::preprocess_problem`])
//! and the sparse rank / bounded-prefix storage buy on COI-reducible
//! multi-property instances: every instance is solved by the **raw** engine
//! (`preprocess: false`) and the **preprocessed** engine (the default), in
//! both solver-reuse regimes, and the run records the space high-water marks
//! of each configuration — peak cached prefix clauses, peak `varRank`
//! entries/bytes, and peak solver arena bytes.
//!
//! The comparison is a differential gate, not just a measurement: for each
//! (instance, reuse regime) pair the raw and preprocessed runs must produce
//! **byte-identical** per-depth verdict sequences, retirement depths, and
//! counterexample traces (the fixtures are deterministic — binary latch
//! inits, no primary inputs — so each falsified property has exactly one
//! counterexample and the lifted trace must equal the raw one bit for bit),
//! and every trace must replay on the *original* netlist. Any divergence
//! exits non-zero.
//!
//! Usage:
//!
//! ```text
//! memory_sweep [--smoke] [--depth N] [--json-out PATH | --no-json]
//! ```
//!
//! The instances are built in-process (no corpus directory): disjoint-cone
//! families where each property observes its own counter — plus stuck
//! latches OR-ed into the properties (swept, not dropped: their constants
//! matter) and an unobserved deadwood latch ring (dropped) — and one fully
//! live instance where no register can be removed (only gate hashing has
//! work) and the pass must cost nothing.
//! `--smoke` keeps only the small instances (CI mode).

use std::process::ExitCode;
use std::time::Instant;

use rbmc_bench::{flag_value, numeric_flag, usage_error, BenchCase, BenchReport};
use rbmc_circuit::{LatchInit, Netlist, Signal};
use rbmc_core::{
    preprocess_problem, BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ProblemBuilder,
    PropertyVerdict, SolveResult, SolverReuse, Trace, VerificationProblem,
};

/// One instance of the sweep: the problem, its depth bound, and whether the
/// fixture is COI-reducible (the reduction claims below only apply to those).
struct MemInstance {
    problem: VerificationProblem,
    depth: usize,
    reducible: bool,
}

/// Disjoint-cone family: `props` properties, each "counter `p` reaches
/// `target_p`" over its own `width`-bit zero-init counter, with one stuck
/// latch OR-ed into each property (in-cone, swept by constant propagation),
/// one stuck latch no property observes, and a `ring` latch ring that is
/// live-shaped (`next` of each is its neighbor, so sweeping cannot touch it)
/// but outside every cone (dropped by COI). Deterministic: no primary
/// inputs, all latch inits binary — each falsified property has exactly one
/// counterexample.
fn disjoint_cones(
    name: &str,
    props: usize,
    width: usize,
    ring: usize,
    depth: usize,
) -> MemInstance {
    let mut n = Netlist::new();
    let stuck: Vec<Signal> = (0..=props)
        .map(|i| {
            let s = n.add_latch(&format!("stuck{i}"), LatchInit::Zero);
            n.set_next(s, s);
            s
        })
        .collect();
    let ring_latches: Vec<Signal> = (0..ring)
        .map(|i| {
            n.add_latch(
                &format!("ring{i}"),
                if i == 0 {
                    LatchInit::One
                } else {
                    LatchInit::Zero
                },
            )
        })
        .collect();
    for (i, &l) in ring_latches.iter().enumerate() {
        let prev = ring_latches[(i + ring - 1) % ring];
        n.set_next(l, prev);
    }
    let mut named: Vec<(String, Signal)> = Vec::new();
    for (p, &stuck_p) in stuck.iter().enumerate().take(props) {
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("c{p}_{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        // Spread the targets over the depth range so retirements happen at
        // different depths (the staged-retirement shape of a real sweep).
        let target = (depth - 1 - p) as u64 % (1 << width);
        let eq = n.bus_eq_const(&bits, target);
        named.push((format!("reach_{target}"), n.or2(eq, stuck_p)));
    }
    let mut builder = ProblemBuilder::new(name, n);
    for (prop_name, sig) in named {
        builder = builder.property(&prop_name, sig);
    }
    MemInstance {
        problem: builder.build(),
        depth,
        reducible: true,
    }
}

/// Fully live single-counter instance: the union cone is the whole netlist,
/// so no register is swept or dropped — only structural hashing has work
/// (shared sub-terms of the increment/compare logic). The artifact records
/// that the pass costs nothing when there is almost nothing to reduce.
fn live_counter(name: &str, width: usize, depth: usize) -> MemInstance {
    let mut n = Netlist::new();
    let bits: Vec<Signal> = (0..width)
        .map(|i| n.add_latch(&format!("c{i}"), LatchInit::Zero))
        .collect();
    let next = n.bus_increment(&bits);
    for (&b, &nx) in bits.iter().zip(&next) {
        n.set_next(b, nx);
    }
    let bad = n.bus_eq_const(&bits, (depth - 1) as u64 % (1 << width));
    MemInstance {
        problem: ProblemBuilder::new(name, n).property("reach", bad).build(),
        depth,
        reducible: false,
    }
}

/// The byte-identity currency: per property, the per-depth verdict sequence,
/// the retirement depth, and the counterexample trace (already lifted to
/// original coordinates by the preprocessed engine).
type Signature = Vec<(Vec<SolveResult>, Option<usize>, Option<Trace>)>;

fn signature(run: &BmcRun) -> Signature {
    run.properties
        .iter()
        .map(|p| {
            let trace = match &p.verdict {
                PropertyVerdict::Falsified { trace, .. } => Some(trace.clone()),
                _ => None,
            };
            (p.depth_results.clone(), p.retirement_depth, trace)
        })
        .collect()
}

fn run_once(
    problem: &VerificationProblem,
    preprocess: bool,
    reuse: SolverReuse,
    depth: usize,
) -> (BmcRun, f64) {
    let mut engine = BmcEngine::for_problem(
        problem.clone(),
        BmcOptions {
            max_depth: depth,
            strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
            reuse,
            preprocess,
            ..BmcOptions::default()
        },
    );
    let start = Instant::now();
    let run = engine.run_collecting();
    (run, start.elapsed().as_secs_f64())
}

/// Percentage saved going from `raw` to `reduced` (0 when `raw` is 0).
fn reduction_pct(raw: u64, reduced: u64) -> f64 {
    if raw == 0 {
        0.0
    } else {
        (1.0 - reduced as f64 / raw as f64) * 100.0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    rbmc_bench::check_flags(
        &args,
        &["--depth", "--json-out"],
        &["--smoke", "--small", "--no-json"],
    )
    .unwrap_or_else(|e| usage_error(&e));
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--small");
    let depth_override: Option<usize> = flag_value(&args, "--depth")
        .map(|_| numeric_flag(&args, "--depth", 0).unwrap_or_else(|e| usage_error(&e)));

    let mut instances = vec![
        disjoint_cones("disjoint_3x4", 3, 4, 8, depth_override.unwrap_or(15)),
        live_counter("live_4bit", 4, depth_override.unwrap_or(14)),
    ];
    if !smoke {
        instances.push(disjoint_cones(
            "disjoint_4x5",
            4,
            5,
            28,
            depth_override.unwrap_or(24),
        ));
        instances.push(disjoint_cones(
            "disjoint_6x4",
            6,
            4,
            24,
            depth_override.unwrap_or(16),
        ));
    }

    let mut report = BenchReport::new(format!(
        "memory sweep: raw vs preprocessed engine space high-water marks \
         ({} instances{})",
        instances.len(),
        if smoke { ", smoke" } else { "" }
    ));
    let mut failures = 0usize;
    // The headline number: worst (smallest) reduction in peak cached prefix
    // clauses over the COI-reducible instances, per reuse regime.
    let mut worst_clause_reduction = f64::INFINITY;
    let mut worst_rank_reduction = f64::INFINITY;

    for inst in &instances {
        let pp = preprocess_problem(&inst.problem);
        println!(
            "{}: {} properties, {} -> {} registers ({} swept, {} dropped), depth {}",
            inst.problem.name(),
            inst.problem.num_properties(),
            pp.report.before.latches,
            pp.report.after.latches,
            pp.report.swept_latches,
            pp.report.dropped_latches,
            inst.depth,
        );
        for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
            let (raw_run, raw_wall) = run_once(&inst.problem, false, reuse, inst.depth);
            let (pp_run, pp_wall) = run_once(&inst.problem, true, reuse, inst.depth);

            // The differential gate: byte-identical verdicts, retirement
            // depths, and (lifted) traces, and every trace replays on the
            // original netlist.
            if signature(&pp_run) != signature(&raw_run) {
                eprintln!(
                    "FAIL {} [{}]: preprocessed run diverges from the raw engine",
                    inst.problem.name(),
                    reuse.label(),
                );
                failures += 1;
                continue;
            }
            for (idx, prop) in pp_run.properties.iter().enumerate() {
                if let PropertyVerdict::Falsified { trace, .. } = &prop.verdict {
                    if let Err(e) = trace
                        .validate_against(inst.problem.netlist(), inst.problem.property(idx).bad())
                    {
                        eprintln!(
                            "FAIL {}::{} [{}]: lifted trace fails original-netlist replay: {e}",
                            inst.problem.name(),
                            prop.name,
                            reuse.label(),
                        );
                        failures += 1;
                    }
                }
            }

            let clause_red = reduction_pct(
                raw_run.solver_stats.prefix_peak_clauses,
                pp_run.solver_stats.prefix_peak_clauses,
            );
            let rank_red = reduction_pct(
                raw_run.solver_stats.rank_peak_entries,
                pp_run.solver_stats.rank_peak_entries,
            );
            let arena_red = reduction_pct(
                raw_run.solver_stats.arena_peak_bytes,
                pp_run.solver_stats.arena_peak_bytes,
            );
            if inst.reducible {
                worst_clause_reduction = worst_clause_reduction.min(clause_red);
                worst_rank_reduction = worst_rank_reduction.min(rank_red);
            }
            println!(
                "  {}: peak prefix clauses {} -> {} (-{clause_red:.1}%), \
                 rank entries {} -> {} (-{rank_red:.1}%), \
                 arena bytes {} -> {} (-{arena_red:.1}%)",
                reuse.label(),
                raw_run.solver_stats.prefix_peak_clauses,
                pp_run.solver_stats.prefix_peak_clauses,
                raw_run.solver_stats.rank_peak_entries,
                pp_run.solver_stats.rank_peak_entries,
                raw_run.solver_stats.arena_peak_bytes,
                pp_run.solver_stats.arena_peak_bytes,
            );

            for (label, run, wall) in [("raw", &raw_run, raw_wall), ("pp", &pp_run, pp_wall)] {
                let stats = &run.solver_stats;
                let mut extra = vec![
                    ("properties".into(), run.properties.len() as f64),
                    ("falsified".into(), run.num_falsified() as f64),
                    ("reducible".into(), if inst.reducible { 1.0 } else { 0.0 }),
                    (
                        "registers_encoded".into(),
                        if label == "pp" {
                            pp.report.after.latches as f64
                        } else {
                            pp.report.before.latches as f64
                        },
                    ),
                    (
                        "prefix_peak_clauses".into(),
                        stats.prefix_peak_clauses as f64,
                    ),
                    ("rank_peak_entries".into(), stats.rank_peak_entries as f64),
                    ("rank_peak_bytes".into(), stats.rank_peak_bytes as f64),
                    ("arena_peak_bytes".into(), stats.arena_peak_bytes as f64),
                ];
                if label == "pp" {
                    extra.push(("clause_reduction_pct".into(), clause_red));
                    extra.push(("rank_reduction_pct".into(), rank_red));
                    extra.push(("arena_reduction_pct".into(), arena_red));
                    extra.push(("swept_latches".into(), pp.report.swept_latches as f64));
                    extra.push(("dropped_latches".into(), pp.report.dropped_latches as f64));
                }
                report.push(BenchCase {
                    name: inst.problem.name().to_string(),
                    strategy: format!("{label}/{}", reuse.label()),
                    wall_s: wall,
                    conflicts: stats.conflicts,
                    decisions: stats.decisions,
                    propagations: stats.propagations,
                    completed_depth: inst.depth,
                    verdict_ok: true,
                    extra,
                });
            }
        }
    }

    if worst_clause_reduction.is_finite() {
        println!(
            "\nreducible instances: worst-case peak clause reduction {worst_clause_reduction:.1}%, \
             worst-case rank entry reduction {worst_rank_reduction:.1}%"
        );
    }
    rbmc_bench::report::emit(&args, "memory", &report);
    if failures > 0 {
        eprintln!("{failures} differential failure(s)");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
