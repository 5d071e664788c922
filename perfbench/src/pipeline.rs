//! The user-facing pipeline `rbmc` runs on one AIGER file, in two forms:
//!
//! - [`check_file`], untraced: lint, parse, problem build, engine
//!   construction (which preprocesses), `run_collecting`, then the verdict
//!   gates. This is what the end-to-end metrics time.
//! - [`trace_file`], traced: the same front end and gates with a span
//!   around every call, and the engine replaced by an outside replay from
//!   public functions — the sequential session loop of `BmcEngine` for BMC,
//!   whole-engine runs under each proof mode for IC3.
//!
//! Both end in the same fail-closed gates: every verdict is compared with
//! the instance's ground truth, every witness is validated on the netlist
//! and replayed through the AIG, every invariant is machine-checked, and a
//! rejected certificate is a wrong verdict.

use std::time::{Duration, Instant};

use rbmc_circuit::aiger::parse_aiger;
use rbmc_circuit::lint::lint_aiger;
use rbmc_circuit::Aig;
use rbmc_cnf::Var;
use rbmc_core::{
    check_invariant, preprocess_problem, BmcEngine, BmcOptions, BmcRun, Ic3Engine, Model,
    OrderingStrategy, ProblemBuilder, ProofMode, ProofSummary, PropertyVerdict, SolveResult, Trace,
    Unroller, VarRank, VerificationProblem,
};
use rbmc_solver::{Limits, OrderMode, Solver};

use crate::tracer::{Layer, Tracer};
use crate::workloads::{Instance, Truth, Workload};

/// Wall-clock budget per file; a property still undecided when it runs out
/// counts as failed, not wrong.
const FILE_BUDGET: Duration = Duration::from_secs(90);

/// What the verdict gates found in one file.
#[derive(Clone, Debug, Default)]
pub(crate) struct Gated {
    /// Properties checked.
    pub(crate) attempted: u64,
    /// Properties left undecided within the budget, or skipped.
    pub(crate) failed: u64,
    /// One line per wrong verdict, rejected witness, invariant or
    /// certificate.
    pub(crate) wrong: Vec<String>,
}

/// Per-depth and per-property results of a BMC run, for the replay
/// fidelity check: `(depth, verdict, decisions, conflicts, implications)`
/// per depth, then each property's verdict with its (lifted) witness.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Fingerprint {
    depths: Vec<(usize, SolveResult, u64, u64, u64)>,
    verdicts: Vec<(Option<usize>, Option<usize>, Option<Trace>)>,
}

impl Fingerprint {
    fn of_verdicts(
        depths: Vec<(usize, SolveResult, u64, u64, u64)>,
        verdicts: &[PropertyVerdict],
    ) -> Fingerprint {
        let verdicts = verdicts
            .iter()
            .map(|v| match v {
                PropertyVerdict::Falsified { depth, trace } => {
                    (Some(*depth), None, Some(trace.clone()))
                }
                PropertyVerdict::OpenAt { depth } | PropertyVerdict::Proved { depth, .. } => {
                    (None, Some(*depth), None)
                }
                PropertyVerdict::Unknown => (None, None, None),
            })
            .collect();
        Fingerprint { depths, verdicts }
    }

    fn of_run(run: &BmcRun) -> Fingerprint {
        let depths = run
            .per_depth
            .iter()
            .map(|d| (d.depth, d.result, d.decisions, d.conflicts, d.implications))
            .collect();
        let verdicts: Vec<PropertyVerdict> =
            run.properties.iter().map(|p| p.verdict.clone()).collect();
        Fingerprint::of_verdicts(depths, &verdicts)
    }
}

/// The result of one file.
#[derive(Debug)]
pub(crate) struct FileResult {
    /// Front-end time up to the first solve: lint, parse, problem build,
    /// and preprocessing.
    pub(crate) setup: Duration,
    /// Wall time of the whole file, gates included.
    pub(crate) wall: Duration,
    /// Gate findings.
    pub(crate) gated: Gated,
    /// The BMC run's fingerprint (BMC workloads only).
    pub(crate) fingerprint: Option<Fingerprint>,
    /// Spans and counts (empty when untraced).
    pub(crate) tracer: Tracer,
    /// Time spent in calibration runs that are not part of the workload's
    /// own pipeline (the IC3 runs under `Off` and `Log`).
    pub(crate) calibration: Duration,
}

/// The engine options a workload runs `inst` with (`rbmc` defaults plus
/// the workload's strategy and proof mode).
fn options(workload: Workload, inst: &Instance, proof: ProofMode, start: Instant) -> BmcOptions {
    BmcOptions {
        max_depth: inst.max_depth,
        strategy: workload.strategy(),
        proof,
        deadline: Some(start + FILE_BUDGET),
        ..BmcOptions::default()
    }
}

/// The front end shared by both paths: lint, parse, problem build.
/// `None` when the file is skipped (unparseable or without properties).
fn front_end(inst: &Instance, t: &mut Tracer) -> Option<(Aig, VerificationProblem)> {
    t.counts.parse_bytes += inst.bytes.len() as u64;
    // `rbmc` lints every file in its default `warn` mode; the diagnostics
    // never change a verdict.
    let _lint = t.time(Layer::Lint, || lint_aiger(&inst.bytes));
    let aig = match t.time(Layer::Parse, || parse_aiger(&inst.bytes)) {
        Ok(aig) => aig,
        Err(e) => {
            eprintln!("{}: skipped, unparseable: {e}", inst.name);
            return None;
        }
    };
    let builder = ProblemBuilder::from_aig(&inst.name, &aig);
    if builder.num_properties() == 0 {
        eprintln!("{}: skipped, no properties", inst.name);
        return None;
    }
    let problem = t.time(Layer::Problem, || builder.build());
    Some((aig, problem))
}

/// Runs the untraced pipeline on one file; `fingerprint` keeps the BMC
/// run's fingerprint for the replay fidelity check.
pub(crate) fn check_file(workload: Workload, inst: &Instance, fingerprint: bool) -> FileResult {
    let start = Instant::now();
    let mut t = Tracer::off();
    let Some((aig, problem)) = front_end(inst, &mut t) else {
        return skipped(start);
    };
    let opts = options(workload, inst, workload.proof(), start);
    let (setup, run, gated) = if workload.is_ic3() {
        let mut engine = Ic3Engine::for_problem(problem, opts);
        let setup = start.elapsed();
        let run = engine.run_collecting();
        let gated = gate_run(
            inst,
            workload,
            &run,
            engine.problem(),
            &aig,
            Some(engine.working_model()),
            &mut t,
        );
        (setup, run, gated)
    } else {
        let mut engine = BmcEngine::for_problem(problem, opts);
        let setup = start.elapsed();
        let run = engine.run_collecting();
        let gated = gate_run(inst, workload, &run, engine.problem(), &aig, None, &mut t);
        (setup, run, gated)
    };
    FileResult {
        setup,
        wall: start.elapsed(),
        gated,
        fingerprint: (fingerprint && !workload.is_ic3()).then(|| Fingerprint::of_run(&run)),
        tracer: t,
        calibration: Duration::ZERO,
    }
}

/// [`gate`] over an engine's run.
fn gate_run(
    inst: &Instance,
    workload: Workload,
    run: &BmcRun,
    problem: &VerificationProblem,
    aig: &Aig,
    working: Option<&Model>,
    t: &mut Tracer,
) -> Gated {
    let verdicts: Vec<&PropertyVerdict> = run.properties.iter().map(|p| &p.verdict).collect();
    gate(
        inst,
        workload,
        &verdicts,
        run.proof.as_ref(),
        problem,
        aig,
        working,
        t,
    )
}

/// Runs the traced pipeline on one file.
pub(crate) fn trace_file(workload: Workload, inst: &Instance) -> FileResult {
    let start = Instant::now();
    let mut t = Tracer::on();
    let Some((aig, problem)) = front_end(inst, &mut t) else {
        return skipped(start);
    };
    if workload.is_ic3() {
        trace_ic3(workload, inst, &aig, problem, start, t)
    } else {
        replay_bmc(workload, inst, &aig, problem, start, t)
    }
}

fn skipped(start: Instant) -> FileResult {
    FileResult {
        setup: start.elapsed(),
        wall: start.elapsed(),
        gated: Gated {
            attempted: 1,
            failed: 1,
            wrong: Vec::new(),
        },
        fingerprint: None,
        tracer: Tracer::off(),
        calibration: Duration::ZERO,
    }
}

/// Replays `BmcEngine`'s sequential session loop from public functions,
/// with a span around every call. The loop per depth `k` is: frame delta,
/// then per open property an activation clause `a → bad^k` with `a` at
/// `num_vars_at(max_depth) + k·props + p`, the ranking install (once per
/// depth), the solve under `a`, the counters read *before* retirement, the
/// core (UNSAT) or witness (SAT), and the `¬a` retirement; then the rank
/// update and `prune_cdg` at the depth boundary.
fn replay_bmc(
    workload: Workload,
    inst: &Instance,
    aig: &Aig,
    problem: VerificationProblem,
    start: Instant,
    mut t: Tracer,
) -> FileResult {
    let opts = options(workload, inst, ProofMode::Off, start);
    let pp = t.time(Layer::Preprocess, || preprocess_problem(&problem));
    let before = pp.report.before.inputs + pp.report.before.latches + pp.report.before.gates;
    let after = pp.report.after.inputs + pp.report.after.latches + pp.report.after.gates;
    t.counts.nodes_before += before as u64;
    t.counts.nodes_removed += before.saturating_sub(after) as u64;
    let lift = pp.lift;
    let working = t.time(Layer::Preprocess, || Model::from_problem(pp.problem));
    let setup = start.elapsed();

    let strategy = opts.strategy;
    let mut solver_opts = opts.solver;
    solver_opts.order_mode = match strategy {
        OrderingStrategy::Standard => OrderMode::Standard,
        OrderingStrategy::RefinedStatic | OrderingStrategy::Shtrichman => OrderMode::Static,
        OrderingStrategy::RefinedDynamic { divisor } => OrderMode::Dynamic { divisor },
    };
    solver_opts.record_cdg = strategy.needs_cores();
    let limits = Limits::new().with_deadline(opts.deadline.expect("deadline set"));

    let unroller = Unroller::new(&working);
    let bads: Vec<_> = working
        .problem()
        .properties()
        .iter()
        .map(rbmc_core::Property::bad)
        .collect();
    let num_props = bads.len();
    let mut solver = t.time(Layer::Unroll, || Solver::with_options(solver_opts));
    let mut rank = VarRank::new(opts.weighting);
    let mut open = vec![true; num_props];
    let mut completed: Vec<Option<usize>> = vec![None; num_props];
    let mut falsified: Vec<Option<(usize, Trace)>> = vec![None; num_props];
    let mut depths = Vec::new();
    let act_base = unroller.num_vars_at(opts.max_depth);
    for k in 0..=opts.max_depth {
        let loaded = t.time(Layer::Unroll, || {
            let loaded = unroller.with_frame_delta(k, |clauses| {
                let mut n = 0u64;
                for clause in clauses {
                    solver.add_clause(clause.lits());
                    n += 1;
                }
                n
            });
            unroller.retire_frames_through(k);
            loaded
        });
        t.counts.clauses_loaded += loaded;
        let (mut result, mut decisions, mut conflicts, mut implications) =
            (SolveResult::Unsat, 0, 0, 0);
        let mut switched = false;
        let mut core_union: Vec<Var> = Vec::new();
        let mut ranking_installed = false;
        let mut resource_out = false;
        for p in 0..num_props {
            if !open[p] {
                continue;
            }
            // Counter base before the activation clause, as the engine
            // reads it: that clause may propagate at the root.
            let base = solver.stats().clone();
            let act = Var::new(act_base + k * num_props + p).positive();
            let bad_lit = unroller.lit_of(bads[p], k);
            t.time(Layer::Unroll, || solver.add_clause(&[!act, bad_lit]));
            t.counts.clauses_loaded += 1;
            if !ranking_installed {
                // The engine takes the snapshot under every strategy and
                // installs it only under the refined ones.
                t.time(Layer::Rank, || {
                    let snapshot = rank.snapshot();
                    if strategy.needs_cores() {
                        solver.set_var_ranking(&snapshot);
                    }
                });
                ranking_installed = true;
            }
            let episode = t.time(Layer::Solve, || solver.solve_under_limited(&[act], &limits));
            let stats = solver.stats();
            decisions += stats.decisions - base.decisions;
            conflicts += stats.conflicts - base.conflicts;
            implications += stats.propagations - base.propagations;
            switched |= stats.switched_to_vsids;
            t.counts.episodes += 1;
            match episode {
                SolveResult::Sat => {
                    result = SolveResult::Sat;
                    let trace = t.time(Layer::Trace, || {
                        Trace::from_assignment(
                            &unroller,
                            solver.model().expect("model after SAT"),
                            k,
                        )
                    });
                    falsified[p] = Some((k, trace));
                    open[p] = false;
                    t.time(Layer::Unroll, || solver.add_clause(&[!act]));
                    t.counts.clauses_loaded += 1;
                }
                SolveResult::Unsat => {
                    let bound = unroller.num_vars_at(k);
                    t.time(Layer::Core, || {
                        let core = solver.core_vars().unwrap_or_default();
                        core_union.extend(core.into_iter().filter(|v| v.index() < bound));
                    });
                    completed[p] = Some(k);
                    t.time(Layer::Unroll, || solver.add_clause(&[!act]));
                    t.counts.clauses_loaded += 1;
                }
                SolveResult::Unknown => {
                    result = SolveResult::Unknown;
                    resource_out = true;
                    break;
                }
            }
        }
        t.time(Layer::Rank, || {
            core_union.sort_unstable();
            core_union.dedup();
            if strategy.needs_cores() && !core_union.is_empty() {
                rank.update(&core_union, k);
            }
        });
        t.counts.core_vars += core_union.len() as u64;
        t.counts.vsids_switch_depths += u64::from(switched);
        depths.push((k, result, decisions, conflicts, implications));
        if opts.cdg_prune {
            t.time(Layer::Cdg, || solver.prune_cdg());
        }
        if resource_out || open.iter().all(|o| !o) {
            break;
        }
    }
    let stats = solver.stats();
    t.counts.decisions += stats.decisions;
    t.counts.propagations += stats.propagations;
    t.counts.conflicts += stats.conflicts;
    t.counts.learned += stats.learned;
    t.counts.deleted += stats.deleted;
    t.counts.compactions += stats.compactions;
    t.counts.cdg_pruned_nodes += stats.cdg_pruned_nodes;
    t.counts.cdg_peak_nodes = t.counts.cdg_peak_nodes.max(stats.cdg_peak_nodes);
    t.counts.arena_peak_bytes = t.counts.arena_peak_bytes.max(stats.arena_peak_bytes);
    t.counts.prefix_peak_clauses = t
        .counts
        .prefix_peak_clauses
        .max(unroller.peak_cached_clauses() as u64);
    t.counts.rank_peak_entries = t.counts.rank_peak_entries.max(rank.num_entries() as u64);

    let verdicts: Vec<PropertyVerdict> = (0..num_props)
        .map(|p| match (falsified[p].take(), completed[p]) {
            (Some((depth, trace)), _) => PropertyVerdict::Falsified {
                depth,
                trace: if lift.is_identity() {
                    trace
                } else {
                    t.time(Layer::Trace, || lift.lift(&trace))
                },
            },
            (None, Some(depth)) => PropertyVerdict::OpenAt { depth },
            (None, None) => PropertyVerdict::Unknown,
        })
        .collect();
    let fingerprint = Fingerprint::of_verdicts(depths, &verdicts);
    let verdicts: Vec<&PropertyVerdict> = verdicts.iter().collect();
    let gated = gate(inst, workload, &verdicts, None, &problem, aig, None, &mut t);
    FileResult {
        setup,
        wall: start.elapsed(),
        gated,
        fingerprint: Some(fingerprint),
        tracer: t,
        calibration: Duration::ZERO,
    }
}

/// Times the IC3 engine whole under `ProofMode::{Off, Log, Check}`: the
/// `Off` run is the engine's own time, `Log − Off` the proof logging,
/// `Check − Log` the certificate checking. The `Check` run is the
/// workload's own run and is gated; the other two are calibration.
fn trace_ic3(
    workload: Workload,
    inst: &Instance,
    aig: &Aig,
    problem: VerificationProblem,
    start: Instant,
    mut t: Tracer,
) -> FileResult {
    let mut calibration = Duration::ZERO;
    let timed_run = |mode: ProofMode| {
        let mut engine =
            Ic3Engine::for_problem(problem.clone(), options(workload, inst, mode, start));
        let t0 = Instant::now();
        let run = engine.run_collecting();
        (engine, run, t0.elapsed())
    };
    let calib_start = Instant::now();
    let (_, off, off_time) = timed_run(ProofMode::Off);
    let (_, _, log_time) = timed_run(ProofMode::Log);
    calibration += calib_start.elapsed();

    let opts = options(workload, inst, workload.proof(), start);
    let mut engine = t.time(Layer::Preprocess, || Ic3Engine::for_problem(problem, opts));
    let setup = start.elapsed().saturating_sub(calibration);
    let check_start = Instant::now();
    let run = engine.run_collecting();
    let check_time = check_start.elapsed();
    t.add(Layer::Ic3, off_time.as_secs_f64());
    t.add(
        Layer::ProofLog,
        log_time.as_secs_f64() - off_time.as_secs_f64(),
    );
    t.add(
        Layer::ProofCheck,
        check_time.as_secs_f64() - log_time.as_secs_f64(),
    );

    if let Some(report) = engine.preprocess_report() {
        let before = report.before.inputs + report.before.latches + report.before.gates;
        let after = report.after.inputs + report.after.latches + report.after.gates;
        t.counts.nodes_before += before as u64;
        t.counts.nodes_removed += before.saturating_sub(after) as u64;
    }
    let stats = &off.solver_stats;
    t.counts.episodes += stats.solve_calls;
    t.counts.ic3_queries += stats.solve_calls;
    t.counts.decisions += stats.decisions;
    t.counts.propagations += stats.propagations;
    t.counts.conflicts += stats.conflicts;
    t.counts.learned += stats.learned;
    t.counts.deleted += stats.deleted;
    t.counts.compactions += stats.compactions;
    t.counts.cdg_pruned_nodes += stats.cdg_pruned_nodes;
    t.counts.cdg_peak_nodes = t.counts.cdg_peak_nodes.max(stats.cdg_peak_nodes);
    t.counts.arena_peak_bytes = t.counts.arena_peak_bytes.max(stats.arena_peak_bytes);
    t.counts.prefix_peak_clauses = t.counts.prefix_peak_clauses.max(stats.prefix_peak_clauses);
    t.counts.rank_peak_entries = t.counts.rank_peak_entries.max(stats.rank_peak_entries);
    if let Some(proof) = &run.proof {
        t.counts.steps_logged += proof.steps_logged;
        t.counts.episodes_certified += proof.episodes_certified;
    }

    let gated = gate_run(
        inst,
        workload,
        &run,
        engine.problem(),
        aig,
        Some(engine.working_model()),
        &mut t,
    );
    FileResult {
        setup,
        wall: start.elapsed().saturating_sub(calibration),
        gated,
        fingerprint: None,
        tracer: t,
        calibration,
    }
}

/// The fail-closed verdict gates of one file.
#[allow(clippy::too_many_arguments)]
fn gate(
    inst: &Instance,
    workload: Workload,
    verdicts: &[&PropertyVerdict],
    proof: Option<&ProofSummary>,
    problem: &VerificationProblem,
    aig: &Aig,
    working: Option<&Model>,
    t: &mut Tracer,
) -> Gated {
    let mut g = Gated::default();
    let name = &inst.name;
    if let Some(proof) = proof {
        if proof.rejected() {
            g.wrong.push(format!(
                "{name}: {} certificate(s) rejected: {}",
                proof.rejections,
                proof
                    .first_rejection
                    .as_deref()
                    .unwrap_or("(no description)")
            ));
        }
        if workload.proof().checks() && proof.episodes_certified == 0 {
            g.wrong
                .push(format!("{name}: proof check certified no episode"));
        }
    }
    if verdicts.len() != 1 {
        g.wrong.push(format!(
            "{name}: expected one property, the run reports {}",
            verdicts.len()
        ));
    }
    for (idx, verdict) in verdicts.iter().enumerate() {
        g.attempted += 1;
        let bad = problem.property(idx).bad();
        match (verdict, inst.truth) {
            (PropertyVerdict::Falsified { depth, trace }, Truth::FailsAt(d)) => {
                if *depth != d {
                    g.wrong.push(format!(
                        "{name}: counterexample at depth {depth}, ground truth {d}"
                    ));
                }
                let checked = t.time(Layer::Trace, || {
                    trace
                        .validate_against(problem.netlist(), bad)
                        .map_err(|e| format!("netlist replay: {e}"))
                        .and_then(|()| replay_on_aig(aig, idx, trace))
                });
                match checked {
                    Ok(()) => t.counts.witnesses += 1,
                    Err(e) => g.wrong.push(format!("{name}: witness rejected by {e}")),
                }
            }
            (PropertyVerdict::Falsified { depth, .. }, Truth::Holds) => {
                g.wrong.push(format!(
                    "{name}: counterexample at depth {depth} for a holding property"
                ));
            }
            (
                PropertyVerdict::Proved {
                    invariant_clauses, ..
                },
                Truth::Holds,
            ) => {
                let (Some(clauses), Some(working)) = (invariant_clauses, working) else {
                    g.wrong
                        .push(format!("{name}: proof without a checkable invariant"));
                    continue;
                };
                let bad = working.problem().property(idx).bad();
                if let Err(e) = t.time(Layer::Invariant, || check_invariant(working, bad, clauses))
                {
                    g.wrong.push(format!("{name}: invariant rejected: {e}"));
                }
            }
            (PropertyVerdict::Proved { .. }, Truth::FailsAt(d)) => {
                g.wrong
                    .push(format!("{name}: proved, but fails at depth {d}"));
            }
            (PropertyVerdict::OpenAt { depth }, Truth::FailsAt(d)) if *depth >= d => {
                g.wrong
                    .push(format!("{name}: open at depth {depth}, fails at {d}"));
            }
            // A holding property is decided once BMC clears the whole bound.
            (PropertyVerdict::OpenAt { depth }, Truth::Holds)
                if !workload.is_ic3() && *depth == inst.max_depth => {}
            (PropertyVerdict::OpenAt { .. } | PropertyVerdict::Unknown, _) => {
                eprintln!("{name}: undecided within the budget: {verdict}");
                g.failed += 1;
            }
        }
    }
    g
}

/// Replays a witness through the AIG the file decoded to (not the netlist
/// the engine solved) and checks the property's bad literal at the last
/// frame.
fn replay_on_aig(aig: &Aig, prop_index: usize, trace: &Trace) -> Result<(), String> {
    let props = if aig.bads().is_empty() {
        aig.outputs()
    } else {
        aig.bads()
    };
    let (_, bad_lit) = &props[prop_index];
    if trace.initial_state().len() != aig.latches().len() {
        return Err("AIG replay: initial state does not match the latch count".into());
    }
    let mut state = trace.initial_state().to_vec();
    for (frame, inputs) in trace.inputs().iter().enumerate() {
        if inputs.len() != aig.inputs().len() {
            return Err(format!(
                "AIG replay: frame {frame} has the wrong input count"
            ));
        }
        let values = aig.eval_frame(&state, inputs);
        if frame == trace.depth() {
            return if bad_lit.apply(values[bad_lit.node()]) {
                Ok(())
            } else {
                Err(format!("AIG replay: bad literal false at frame {frame}"))
            };
        }
        state = aig
            .latches()
            .iter()
            .map(|&l| {
                let next = aig.next_of(l).expect("latch connected");
                next.apply(values[next.node()])
            })
            .collect();
    }
    Err("AIG replay: trace has no frames".into())
}
