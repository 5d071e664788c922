//! Differential property test: the proving engines against the BMC oracle.
//!
//! Random sequential circuits are checked by BMC, IC3 and k-induction to the
//! same bound. Wherever BMC finds a counterexample, each prover must falsify
//! at the **same** depth with a validated trace; wherever BMC leaves the
//! property open, a prover may either agree (open at the bound) or close it
//! with a proof. Every IC3 proof must carry an invariant that passes
//! [`check_invariant`]'s independent initiation/consecution/safety solver
//! queries. k-induction's base cases are BMC's own episodes, so its
//! per-depth base search must equal the BMC run's, decision for decision,
//! over the depths it ran. Random circuits rarely fail deep, so
//! k-induction is also checked against the ground truth of the small suite
//! and the proving specimens. A further,
//! deterministic test runs the proving specimens of `proof_suite` end to
//! end: all of them must prove, under both the unordered and the
//! core-ordered assumption ranking.

use proptest::prelude::*;
use refined_bmc::bmc::induction::InductionEngine;
use refined_bmc::bmc::{
    check_invariant, BmcEngine, BmcOptions, BmcRun, Ic3Engine, Model, OrderingStrategy,
    PropertyVerdict,
};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};
use refined_bmc::gens::{proof_suite, small_suite, Expectation};

/// Construction steps over a signal pool (inputs, latches, then gates).
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

#[derive(Debug, Clone)]
struct ModelRecipe {
    num_inputs: usize,
    latch_inits: Vec<LatchInit>,
    steps: Vec<Step>,
    nexts: Vec<usize>,
    bad: usize,
}

fn arb_recipe() -> impl Strategy<Value = ModelRecipe> {
    let init = prop_oneof![
        Just(LatchInit::Zero),
        Just(LatchInit::One),
        Just(LatchInit::Free)
    ];
    (1usize..3, prop::collection::vec(init, 1..4)).prop_flat_map(|(num_inputs, latch_inits)| {
        let steps = prop::collection::vec(
            prop_oneof![
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::And(a, b)),
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Xor(a, b)),
                (0usize..64, 0usize..64, 0usize..64).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
            ],
            1..10,
        );
        let nl = latch_inits.len();
        (steps, Just(latch_inits)).prop_flat_map(move |(steps, latch_inits)| {
            let pool = 1 + num_inputs + nl + steps.len();
            (
                prop::collection::vec(0usize..pool, nl),
                0usize..pool,
                Just(steps),
                Just(latch_inits),
            )
                .prop_map(move |(nexts, bad, steps, latch_inits)| ModelRecipe {
                    num_inputs,
                    latch_inits,
                    steps,
                    nexts,
                    bad,
                })
        })
    })
}

fn build(recipe: &ModelRecipe) -> Model {
    let mut n = Netlist::new();
    let mut pool: Vec<Signal> = vec![Signal::TRUE];
    for i in 0..recipe.num_inputs {
        pool.push(n.add_input(&format!("i{i}")));
    }
    let latches: Vec<Signal> = recipe
        .latch_inits
        .iter()
        .enumerate()
        .map(|(i, &init)| {
            let l = n.add_latch(&format!("l{i}"), init);
            pool.push(l);
            l
        })
        .collect();
    for step in &recipe.steps {
        let pick = |i: usize, pool: &Vec<Signal>| pool[i % pool.len()];
        let s = match *step {
            Step::And(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.and2(x, y)
            }
            Step::Xor(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.xor2(x, y)
            }
            Step::Mux(s, a, b) => {
                let (c, x, y) = (pick(s, &pool), pick(a, &pool), pick(b, &pool));
                n.mux(c, x, y)
            }
        };
        pool.push(s);
    }
    for (&l, &nx) in latches.iter().zip(&recipe.nexts) {
        n.set_next(l, pool[nx % pool.len()]);
    }
    let bad = pool[recipe.bad % pool.len()];
    Model::new("random", n, bad)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ic3_agrees_with_the_bmc_oracle_on_random_models(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let model = build(&recipe);
        let mut bmc = BmcEngine::new(
            model.clone(),
            BmcOptions { max_depth: DEPTH, ..BmcOptions::default() },
        );
        let bmc_run = bmc.run_collecting();
        let bmc_verdict = &bmc_run.properties[0].verdict;
        for strategy in [OrderingStrategy::Standard, OrderingStrategy::RefinedStatic] {
            let mut engine = Ic3Engine::new(
                model.clone(),
                BmcOptions { max_depth: DEPTH, strategy, ..BmcOptions::default() },
            );
            let run = engine.run_collecting();
            let verdict = &run.properties[0].verdict;
            match bmc_verdict {
                PropertyVerdict::Falsified { depth: oracle_depth, .. } => match verdict {
                    PropertyVerdict::Falsified { depth, trace } => {
                        prop_assert_eq!(depth, oracle_depth, "{:?}", strategy);
                        prop_assert!(
                            trace.validate(engine.model()).is_ok(),
                            "{:?}: ic3 trace fails replay", strategy
                        );
                    }
                    other => prop_assert!(
                        false,
                        "bmc falsified at {oracle_depth} but ic3 said {other} under {strategy:?}"
                    ),
                },
                PropertyVerdict::OpenAt { .. } => match verdict {
                    PropertyVerdict::Proved { invariant_clauses: Some(clauses), .. } => {
                        let working = engine.working_model();
                        let checked = check_invariant(working, working.bad(), clauses);
                        prop_assert!(
                            checked.is_ok(),
                            "{strategy:?}: proof invariant rejected: {checked:?}"
                        );
                    }
                    PropertyVerdict::OpenAt { depth } => {
                        prop_assert_eq!(*depth, DEPTH, "{:?}", strategy);
                    }
                    other => prop_assert!(
                        false,
                        "bmc left the property open but ic3 said {other} under {strategy:?}"
                    ),
                },
                other => prop_assert!(false, "unexpected bmc verdict {other}"),
            }
        }
    }

    #[test]
    fn induction_agrees_with_the_bmc_oracle_on_random_models(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let model = build(&recipe);
        for strategy in [OrderingStrategy::Standard, OrderingStrategy::RefinedStatic] {
            let options = BmcOptions { max_depth: DEPTH, strategy, ..BmcOptions::default() };
            let bmc_run = BmcEngine::new(model.clone(), options).run_collecting();
            let run = InductionEngine::new(model.clone(), options).run_collecting();
            // One search: the base cases are the BMC session's episodes.
            let search = |run: &BmcRun| -> Vec<(u64, u64)> {
                run.per_depth.iter().map(|d| (d.decisions, d.conflicts)).collect()
            };
            let (base, oracle) = (search(&run), search(&bmc_run));
            prop_assert!(base.len() <= oracle.len(), "{:?}", strategy);
            prop_assert_eq!(&base[..], &oracle[..base.len()], "{:?}", strategy);
            match (&bmc_run.properties[0].verdict, &run.properties[0].verdict) {
                (
                    PropertyVerdict::Falsified { depth: oracle_depth, .. },
                    PropertyVerdict::Falsified { depth, trace },
                ) => {
                    prop_assert_eq!(depth, oracle_depth, "{:?}", strategy);
                    prop_assert!(
                        trace.validate(&model).is_ok(),
                        "{:?}: induction trace fails replay", strategy
                    );
                }
                (PropertyVerdict::OpenAt { .. }, PropertyVerdict::Proved { .. }) => {}
                (PropertyVerdict::OpenAt { .. }, PropertyVerdict::OpenAt { depth }) => {
                    prop_assert_eq!(*depth, DEPTH, "{:?}", strategy);
                }
                (oracle, other) => prop_assert!(
                    false,
                    "bmc said {oracle} but induction said {other} under {strategy:?}"
                ),
            }
        }
    }
}

/// The dedicated proving specimens all close under IC3 — with either
/// assumption order — and every extracted invariant survives the
/// independent inductive check.
#[test]
fn proof_suite_proves_under_both_assumption_orders() {
    for instance in proof_suite() {
        assert_eq!(
            instance.expectation,
            Expectation::Holds,
            "{}",
            instance.name
        );
        for strategy in [OrderingStrategy::Standard, OrderingStrategy::RefinedStatic] {
            let mut engine = Ic3Engine::new(
                instance.model.clone(),
                BmcOptions {
                    max_depth: 20,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            match &run.properties[0].verdict {
                PropertyVerdict::Proved {
                    invariant_clauses: Some(clauses),
                    ..
                } => {
                    let working = engine.working_model();
                    check_invariant(working, working.bad(), clauses).unwrap_or_else(|e| {
                        panic!("{} [{strategy:?}]: invariant rejected: {e}", instance.name)
                    });
                }
                other => panic!(
                    "{} [{strategy:?}]: expected a proof, got {other}",
                    instance.name
                ),
            }
        }
    }
}

/// k-induction against ground truth: every failing instance of the small
/// suite falsifies at its minimal depth with a replaying trace (a step case
/// that proved too early would claim a proof here), and no holding instance
/// of the small suite or the proving specimens is ever falsified.
#[test]
fn induction_matches_the_ground_truth_of_the_small_and_proof_suites() {
    for instance in small_suite().into_iter().chain(proof_suite()) {
        let options = BmcOptions {
            max_depth: instance.max_depth,
            ..BmcOptions::default()
        };
        let run = InductionEngine::new(instance.model.clone(), options).run_collecting();
        match (&instance.expectation, &run.properties[0].verdict) {
            (Expectation::FailsAt(expected), PropertyVerdict::Falsified { depth, trace }) => {
                assert_eq!(depth, expected, "{}", instance.name);
                assert!(trace.validate(&instance.model).is_ok(), "{}", instance.name);
            }
            (
                Expectation::Holds,
                PropertyVerdict::Proved { .. } | PropertyVerdict::OpenAt { .. },
            ) => {}
            (expected, got) => panic!("{}: expected {expected:?}, got {got}", instance.name),
        }
    }
}
