//! Soak tests of parallel runs in both solver-reuse regimes:
//! oversubscription far past the useful worker count, cooperative
//! cancellation (before and during a run), and the budget-exhaustion
//! truncation contract. Every case must come back
//! as a *committed* partial [`BmcRun`] — properly joined workers (the
//! scoped pool cannot leak threads past the call), internally consistent
//! per-property state, and verdicts that form a prefix of the sequential
//! oracle's.

use std::time::Duration;

use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcOutcome, BmcRun, CancelFlag, OrderingStrategy, ParallelConfig,
    ProblemBuilder, PropertyVerdict, SolveResult, SolverReuse, VerificationProblem,
};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Each property's depth loop runs a session, or a fresh solver per depth.
const REGIMES: [SolverReuse; 2] = [SolverReuse::Session, SolverReuse::Fresh];

/// Core-free and core-chained: the second ranks every depth from the
/// property's own earlier cores.
const STRATEGIES: [OrderingStrategy; 2] = [
    OrderingStrategy::Standard,
    OrderingStrategy::RefinedDynamic { divisor: 64 },
];

fn counter_problem(width: usize, targets: &[u64]) -> VerificationProblem {
    let mut n = Netlist::new();
    let bits: Vec<Signal> = (0..width)
        .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
        .collect();
    let next = n.bus_increment(&bits);
    for (&b, &nx) in bits.iter().zip(&next) {
        n.set_next(b, nx);
    }
    let props: Vec<(String, Signal)> = targets
        .iter()
        .map(|&t| (format!("reach_{t}"), n.bus_eq_const(&bits, t)))
        .collect();
    let mut builder = ProblemBuilder::new("soak_counter", n);
    for (name, sig) in props {
        builder = builder.property(&name, sig);
    }
    builder.build()
}

fn options(
    strategy: OrderingStrategy,
    reuse: SolverReuse,
    parallel: Option<ParallelConfig>,
    max_depth: usize,
) -> BmcOptions {
    BmcOptions {
        max_depth,
        strategy,
        reuse,
        parallel,
        ..BmcOptions::default()
    }
}

/// Structural invariants every committed run — complete or truncated —
/// must satisfy: consistent per-property bookkeeping and validating traces.
fn assert_committed(run: &BmcRun, problem: &VerificationProblem, max_depth: usize, ctx: &str) {
    assert_eq!(run.properties.len(), problem.num_properties(), "{ctx}");
    for (idx, prop) in run.properties.iter().enumerate() {
        assert!(
            prop.depth_results.len() <= max_depth + 1,
            "{ctx}: property {} overran the depth bound",
            prop.name
        );
        match &prop.verdict {
            PropertyVerdict::Falsified { depth, trace } => {
                assert_eq!(
                    prop.depth_results.last(),
                    Some(&SolveResult::Sat),
                    "{ctx}: {}",
                    prop.name
                );
                assert_eq!(prop.depth_results.len(), depth + 1, "{ctx}: {}", prop.name);
                trace
                    .validate_against(problem.netlist(), problem.property(idx).bad())
                    .unwrap_or_else(|e| panic!("{ctx}: {} trace invalid: {e}", prop.name));
            }
            PropertyVerdict::OpenAt { .. } | PropertyVerdict::Unknown => {
                assert!(
                    !prop.depth_results.contains(&SolveResult::Sat),
                    "{ctx}: {} has a SAT verdict but was not retired",
                    prop.name
                );
            }
            PropertyVerdict::Proved { .. } => {
                panic!("{ctx}: {} proved by a BMC-only mode", prop.name);
            }
        }
        // Everything before a trailing Unknown is a real verdict.
        for (k, r) in prop.depth_results.iter().enumerate() {
            if *r == SolveResult::Unknown {
                assert_eq!(
                    k + 1,
                    prop.depth_results.len(),
                    "{ctx}: {} has a non-trailing Unknown",
                    prop.name
                );
            }
        }
    }
}

/// The committed run's verdicts must be a prefix of the oracle's — a
/// truncated run may know less, never something different. Trailing
/// Unknowns (the truncation marker) are exempt from the comparison.
fn assert_prefix_of_oracle(run: &BmcRun, oracle: &BmcRun, ctx: &str) {
    for (p, o) in run.properties.iter().zip(&oracle.properties) {
        for (k, r) in p.depth_results.iter().enumerate() {
            if *r == SolveResult::Unknown {
                continue;
            }
            assert_eq!(
                Some(r),
                o.depth_results.get(k),
                "{ctx}: property {} depth {k} contradicts the oracle",
                p.name
            );
        }
    }
}

#[test]
fn oversubscribed_parallel_runs_complete_and_match_the_oracle() {
    // Worker budgets far beyond both the property count (3) and the depth
    // count (13): every surplus worker must park and join cleanly, and the
    // verdicts must not care.
    let targets: &[u64] = &[3, 14, 9];
    const DEPTH: usize = 12;
    for strategy in STRATEGIES {
        let mut oracle_engine = BmcEngine::for_problem(
            counter_problem(4, targets),
            options(strategy, SolverReuse::Session, None, DEPTH),
        );
        let oracle = oracle_engine.run_collecting();
        for reuse in REGIMES {
            for jobs in [8usize, 64, 256] {
                let mut engine = BmcEngine::for_problem(
                    counter_problem(4, targets),
                    options(strategy, reuse, Some(ParallelConfig { jobs }), DEPTH),
                );
                let run = engine.run_collecting();
                let ctx = format!("{} {} jobs={jobs}", reuse.label(), strategy.label());
                assert_committed(&run, engine.problem(), DEPTH, &ctx);
                for (p, o) in run.properties.iter().zip(&oracle.properties) {
                    assert_eq!(p.depth_results, o.depth_results, "{ctx}: {}", p.name);
                    assert_eq!(p.retirement_depth, o.retirement_depth, "{ctx}: {}", p.name);
                }
                // The worker pool clamps to useful work; oversubscription
                // never fabricates reports.
                assert!(!run.workers.is_empty(), "{ctx}");
                assert!(run.workers.len() <= jobs, "{ctx}");
            }
        }
    }
}

#[test]
fn precancelled_parallel_run_returns_a_committed_partial_run() {
    // The flag is already tripped when the run starts: the engine must come
    // straight back with a committed truncation, not hang or panic — and
    // not decide anything, even where an instance would fall to
    // propagation alone.
    for reuse in REGIMES {
        for strategy in STRATEGIES {
            let mut engine = BmcEngine::for_problem(
                counter_problem(6, &[60, 61, 62]),
                options(strategy, reuse, Some(ParallelConfig { jobs: 4 }), 40),
            );
            let cancel = CancelFlag::new();
            cancel.cancel();
            engine.set_cancel(cancel);
            let run = engine.run_collecting();
            let ctx = format!("precancelled {} {}", reuse.label(), strategy.label());
            assert_committed(&run, engine.problem(), 40, &ctx);
            assert!(
                matches!(run.outcome, BmcOutcome::ResourceOut { at_depth: 0 }),
                "{ctx}: expected a truncated run, got {:?}",
                run.outcome
            );
            assert!(
                run.properties
                    .iter()
                    .all(|p| matches!(p.verdict, PropertyVerdict::Unknown)),
                "{ctx}: a cancelled-at-start run cannot decide anything"
            );
        }
    }
}

#[test]
fn midrun_cancellation_soak_leaves_consistent_state_every_time() {
    // Repeatedly cancel a deep oversubscribed run from another thread at
    // varying points. Whatever the race lands on, the run must return a
    // committed partial result whose verdicts prefix the oracle's — and
    // because every worker is joined before run_collecting returns, the
    // consecutive iterations also soak for leaked worker state. The
    // iterations cycle through both reuse regimes under both strategies.
    let targets: &[u64] = &[200, 201, 202, 203];
    const DEPTH: usize = 120;
    let oracles: Vec<BmcRun> = STRATEGIES
        .iter()
        .map(|&strategy| {
            BmcEngine::for_problem(
                counter_problem(8, targets),
                options(strategy, SolverReuse::Session, None, DEPTH),
            )
            .run_collecting()
        })
        .collect();
    for iteration in 0..32 {
        let reuse = REGIMES[iteration % 2];
        let strategy_idx = (iteration / 2) % 2;
        let strategy = STRATEGIES[strategy_idx];
        let mut engine = BmcEngine::for_problem(
            counter_problem(8, targets),
            options(strategy, reuse, Some(ParallelConfig { jobs: 16 }), DEPTH),
        );
        let cancel = CancelFlag::new();
        engine.set_cancel(cancel.clone());
        let run = std::thread::scope(|s| {
            s.spawn(|| {
                // Sweep the cancellation point across iterations, from
                // "almost immediately" to "probably after completion".
                std::thread::sleep(Duration::from_micros(50 * iteration as u64));
                cancel.cancel();
            });
            engine.run_collecting()
        });
        let ctx = format!(
            "iteration {iteration} {} {}",
            reuse.label(),
            strategy.label()
        );
        assert_committed(&run, engine.problem(), DEPTH, &ctx);
        assert_prefix_of_oracle(&run, &oracles[strategy_idx], &ctx);
    }
}

#[test]
fn zero_budget_truncation_is_committed_in_every_shard_mode() {
    // A zero conflict budget must surface as a committed ResourceOut run,
    // cut exactly where the sequential run in the same regime cuts: a
    // single-property by-property run is the sequential loop itself,
    // episode for episode, in either regime.
    let mk = |reuse, parallel| {
        let mut engine = BmcEngine::for_problem(
            counter_problem(3, &[5]),
            BmcOptions {
                max_depth: 12,
                reuse,
                max_conflicts_per_depth: Some(0),
                parallel,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert_committed(
            &run,
            engine.problem(),
            12,
            &format!("{reuse:?} {parallel:?}"),
        );
        run
    };
    for reuse in REGIMES {
        let sequential = mk(reuse, None);
        let run = mk(reuse, Some(ParallelConfig { jobs: 4 }));
        let BmcOutcome::ResourceOut { at_depth } = run.outcome else {
            panic!("{}: {:?}", reuse.label(), run.outcome);
        };
        assert!(
            matches!(sequential.outcome, BmcOutcome::ResourceOut { at_depth: d } if d == at_depth),
            "{}: cut at {at_depth}, sequential {:?}",
            reuse.label(),
            sequential.outcome
        );
        assert_eq!(
            run.properties[0].depth_results,
            sequential.properties[0].depth_results,
            "{}",
            reuse.label()
        );
    }
}
