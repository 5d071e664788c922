//! k-induction on the one BMC depth loop (extension).
//!
//! The paper's conclusion expects the refined ordering to combine with other
//! SAT-based techniques that share the BMC structure. Temporal induction
//! (Eén & Sörensson 2003, cited as \[5\]) is the natural companion: it can
//! *prove* `G P` outright instead of only refuting bounded counterexamples.
//!
//! Depth-`k` induction asks two questions:
//!
//! - **Base**: no initialized path of length `k` reaches a bad state —
//!   exactly BMC's depth-`k` episode. The engine runs the BMC depth loop
//!   itself (`run_sequential`) over every property: one preprocessing
//!   pass, one shared session, the paper's `varRank`, and each base case
//!   solved exactly once.
//! - **Step**: no path of `k+1` consecutive good, pairwise distinct states
//!   (the *unique states* strengthening) can end in a bad state, from any
//!   starting state. After each depth commits, every property still open
//!   asks its step query on its own incremental solver: the uninitialized
//!   frames (`Unroller::uninitialized`) are loaded as deltas, once each;
//!   depth `k` adds only the `¬bad^k` unit and the disequalities between
//!   frame `k+1` and each earlier frame, and asks for `bad^{k+1}` under an
//!   activation literal.
//!
//! If the step query is UNSAT, `G P` holds and the property retires as
//! [`Proved`](PropertyVerdict::Proved); otherwise `k` is increased. With
//! unique states the loop is complete: it terminates for every finite
//! model. A proof carries no extracted invariant; under
//! [`ProofMode::Check`](crate::ProofMode) every base and step UNSAT answer
//! is certified instead, so the pair of UNSAT queries is its certificate.

use rbmc_circuit::{NodeId, Signal};
use rbmc_cnf::{Lit, Var};
use rbmc_solver::{CancelFlag, Limits, SolveResult};

use crate::engine::{depth_limits, run_inline, BmcRun, PropertyVerdict};
use crate::engine_trait::Engine;
use crate::episode::{Episode, Session};
use crate::{
    BmcEngine, BmcOptions, BmcOutcome, Model, OrderingStrategy, Unroller, VerificationProblem,
};

/// The k-induction prover behind the shared [`Engine`] surface: the BMC
/// depth loop over every property of a [`VerificationProblem`] as the base
/// case, one incremental step solver per property as the step case. It
/// reports [`PropertyVerdict::Proved`] without an extracted invariant
/// (`invariant_clauses: None`) and truncates cooperatively when cancelled,
/// which is what lets the portfolio race it.
///
/// `options.max_depth` bounds the induction depth `k`; the base cases
/// follow `options` exactly as a sequential [`BmcEngine`] run does
/// (`options.parallel` is ignored).
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::induction::InductionEngine;
/// use rbmc_core::{BmcOptions, Model, PropertyVerdict};
///
/// // A 3-bit counter that wraps: it never reaches 9 (> 7), so the property
/// // "counter != 9" is provable.
/// let mut n = Netlist::new();
/// let bits: Vec<_> = (0..3).map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero)).collect();
/// let next = n.bus_increment(&bits);
/// for (&b, &nx) in bits.iter().zip(&next) { n.set_next(b, nx); }
/// let bad = n.bus_eq_const(&bits, 9);
/// let model = Model::new("c3", n, bad);
/// let run = InductionEngine::new(model, BmcOptions::default()).run_collecting();
/// match &run.properties[0].verdict {
///     PropertyVerdict::Proved { .. } => {}
///     other => panic!("expected a proof, got {other}"),
/// }
/// ```
#[derive(Debug)]
pub struct InductionEngine {
    /// The base-case engine: preprocessing, `varRank`, cancellation and
    /// trace lifting are BMC's own.
    bmc: BmcEngine,
}

impl InductionEngine {
    /// Creates an engine for a single-property `model`.
    pub fn new(model: Model, options: BmcOptions) -> InductionEngine {
        InductionEngine {
            bmc: BmcEngine::new(model, options),
        }
    }

    /// Creates an engine checking every property of `problem`.
    pub fn for_problem(problem: VerificationProblem, options: BmcOptions) -> InductionEngine {
        InductionEngine::new(Model::from_problem(problem), options)
    }

    /// The problem under check.
    pub fn problem(&self) -> &VerificationProblem {
        self.bmc.problem()
    }

    /// Attaches a cooperative cancellation flag (portfolio racing).
    pub fn set_cancel(&mut self, cancel: CancelFlag) {
        self.bmc.set_cancel(cancel);
    }

    /// Runs induction and returns only the summary outcome.
    pub fn run(&mut self) -> BmcOutcome {
        self.run_collecting().outcome
    }

    /// Runs the base and step cases of every property, collecting
    /// per-property reports in the shared [`BmcRun`] shape. Per-depth and
    /// per-property counters are the base cases'; the run's solver and proof
    /// totals also cover the step solvers.
    pub fn run_collecting(&mut self) -> BmcRun {
        let bmc = &mut self.bmc;
        let model = &bmc.working.model;
        let mut steps = StepCases::new(model, &bmc.options, bmc.cancel.as_ref());
        let mut run = run_inline(
            model,
            &bmc.options,
            bmc.cancel.as_ref(),
            &mut bmc.rank,
            |k, episodes| steps.step(k, episodes),
        );
        for (report, proved) in run.properties.iter_mut().zip(&steps.proved) {
            if let Some(depth) = *proved {
                report.verdict = PropertyVerdict::Proved {
                    depth,
                    invariant_clauses: None,
                };
            }
        }
        for solver in steps.solvers {
            solver
                .session
                .finish()
                .add_to(&mut run.solver_stats, &mut run.proof);
        }
        self.bmc.finish_run(run)
    }
}

impl Engine for InductionEngine {
    fn name(&self) -> &'static str {
        "induction"
    }

    fn problem(&self) -> &VerificationProblem {
        InductionEngine::problem(self)
    }

    fn set_cancel(&mut self, cancel: CancelFlag) {
        InductionEngine::set_cancel(self, cancel);
    }

    fn run_collecting(&mut self) -> BmcRun {
        InductionEngine::run_collecting(self)
    }
}

/// The step cases of every property of the working model.
struct StepCases<'a> {
    model: &'a Model,
    latches: Vec<NodeId>,
    limits: Limits,
    /// One step solver per property, in property order.
    solvers: Vec<StepSolver<'a>>,
    /// The depth each property was proved at.
    proved: Vec<Option<usize>>,
}

/// One property's step solver: a session over the uninitialized unrolling,
/// and the next free variable above it (activation and disequality
/// literals).
struct StepSolver<'a> {
    session: Session,
    unroller: Unroller<'a>,
    next_var: usize,
}

impl<'a> StepCases<'a> {
    fn new(model: &'a Model, options: &BmcOptions, cancel: Option<&CancelFlag>) -> StepCases<'a> {
        // Step queries search without a ranking; the solver records its
        // CDG only for proof logging.
        let step_options = BmcOptions {
            strategy: OrderingStrategy::Standard,
            ..*options
        };
        let num_properties = model.problem().num_properties();
        StepCases {
            model,
            latches: model.netlist().latches(),
            limits: depth_limits(options, cancel),
            solvers: (0..num_properties)
                .map(|_| {
                    let unroller = Unroller::uninitialized(model);
                    StepSolver {
                        session: Session::new(&step_options, 1),
                        // The deepest step query reaches frame
                        // `max_depth + 1`.
                        next_var: unroller.num_vars_at(options.max_depth + 1),
                        unroller,
                    }
                })
                .collect(),
            proved: vec![None; num_properties],
        }
    }

    /// Depth `k`'s step query for every property whose base episode at `k`
    /// was UNSAT; returns the properties it proved.
    fn step(&mut self, k: usize, episodes: &[(usize, Episode)]) -> Vec<usize> {
        let mut proved = Vec::new();
        for (p, _) in episodes
            .iter()
            .filter(|(_, e)| e.result == SolveResult::Unsat)
        {
            let bad = self.model.problem().property(*p).bad();
            let solver = &mut self.solvers[*p];
            if solver.step(bad, k, &self.latches, &self.limits) == SolveResult::Unsat {
                self.proved[*p] = Some(k);
                proved.push(*p);
            }
        }
        proved
    }
}

impl StepSolver<'_> {
    /// Extends the step formula from depth `k - 1` to depth `k` and asks for
    /// `bad` at frame `k + 1`.
    fn step(&mut self, bad: Signal, k: usize, latches: &[NodeId], limits: &Limits) -> SolveResult {
        self.session.load_frames_through(&self.unroller, k + 1);
        self.session.add_clause(&[!self.unroller.lit_of(bad, k)]);
        for i in 0..=k {
            self.add_state_disequality(latches, i, k + 1);
        }
        let act = self.fresh_lit();
        let target = self.unroller.lit_of(bad, k + 1);
        let result = self.session.solve_activated(act, target, limits);
        self.session.end_depth();
        result
    }

    fn fresh_lit(&mut self) -> Lit {
        self.next_var += 1;
        Var::new(self.next_var - 1).positive()
    }

    /// Adds `Vⁱ ≠ Vʲ`: one fresh variable `d` per register with
    /// `d → (vᵢ ≠ vⱼ)`, and the clause "some `d` holds".
    fn add_state_disequality(&mut self, latches: &[NodeId], i: usize, j: usize) {
        let mut some_differs: Vec<Lit> = Vec::with_capacity(latches.len());
        for &l in latches {
            let a = self.unroller.var_of(l, i).positive();
            let b = self.unroller.var_of(l, j).positive();
            let d = self.fresh_lit();
            self.session.add_clause(&[!d, a, b]);
            self.session.add_clause(&[!d, !a, !b]);
            some_differs.push(d);
        }
        // Without registers every state is the same one, so no path is
        // simple: the empty clause forbids the step outright.
        self.session.add_clause(&some_differs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::{LatchInit, Netlist, Signal};

    fn counter_model(width: usize, target: u64) -> Model {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, target);
        Model::new("counter", n, bad)
    }

    /// The verdict of a `max_depth`-bounded induction run on `model`.
    fn verdict(model: Model, max_depth: usize) -> PropertyVerdict {
        let options = BmcOptions {
            max_depth,
            ..BmcOptions::default()
        };
        let run = InductionEngine::new(model, options).run_collecting();
        run.properties[0].verdict.clone()
    }

    #[test]
    fn proves_unreachable_value() {
        // "counter == 5 AND counter == 2" is a contradiction.
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let e5 = n.bus_eq_const(&bits, 5);
        let e2 = n.bus_eq_const(&bits, 2);
        let bad = n.and2(e5, e2);
        let model = Model::new("contradiction", n, bad);
        match verdict(model, 5) {
            PropertyVerdict::Proved { .. } => {}
            other => panic!("expected proof, got {other}"),
        }
    }

    #[test]
    fn falsifies_reachable_value() {
        let model = counter_model(3, 6);
        let mut engine = InductionEngine::new(model.clone(), BmcOptions::default());
        let run = engine.run_collecting();
        match &run.properties[0].verdict {
            PropertyVerdict::Falsified { depth, trace } => {
                assert_eq!(*depth, 6);
                assert!(trace.validate(&model).is_ok());
            }
            other => panic!("expected falsification, got {other}"),
        }
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 6, .. }
        ));
    }

    #[test]
    fn proves_sticky_invariant() {
        // latch := latch (constant 0 forever); bad = latch. Inductive at k=0.
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, l);
        let model = Model::new("sticky0", n, l);
        let mut engine = InductionEngine::new(model, BmcOptions::default());
        assert_eq!(Engine::name(&engine), "induction");
        let run = engine.run_collecting();
        match &run.properties[0].verdict {
            PropertyVerdict::Proved {
                depth,
                invariant_clauses,
            } => {
                assert_eq!(*depth, 0);
                assert!(invariant_clauses.is_none());
            }
            other => panic!("expected proof at k=0, got {other}"),
        }
        assert!(matches!(run.outcome, BmcOutcome::BoundReached { .. }));
    }

    #[test]
    fn unique_states_gives_completeness_on_counter() {
        // A 4-bit counter that resets at 10 never reaches 12: its only
        // predecessor, 11, is unreachable, and the step case must see that
        // over uninitialized frames.
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..4)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let inc = n.bus_increment(&bits);
        let at10 = n.bus_eq_const(&bits, 10);
        // next = at10 ? 0 : inc
        let next: Vec<Signal> = inc.iter().map(|&s| n.mux(at10, Signal::FALSE, s)).collect();
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, 12);
        let model = Model::new("reset10", n, bad);
        match verdict(model, 16) {
            PropertyVerdict::Proved { .. } => {}
            other => panic!("expected proof, got {other}"),
        }
    }

    #[test]
    fn base_cases_are_the_bmc_session_run() {
        // One base search: per-depth counters equal a BMC run's over the
        // same depths, and the step work shows only in the solver totals.
        let options = BmcOptions {
            max_depth: 12,
            strategy: OrderingStrategy::RefinedStatic,
            ..BmcOptions::default()
        };
        let model = counter_model(4, 11);
        let ind = InductionEngine::new(model.clone(), options).run_collecting();
        let bmc = BmcEngine::new(model, options).run_collecting();
        let search = |run: &BmcRun| -> Vec<(SolveResult, u64, u64, u64)> {
            let depths = run.per_depth.iter();
            depths
                .map(|d| (d.result, d.decisions, d.conflicts, d.implications))
                .collect()
        };
        assert_eq!(search(&ind), search(&bmc));
        assert!(ind.solver_stats.solve_calls > bmc.solver_stats.solve_calls);
    }

    #[test]
    fn engine_cancellation_truncates() {
        let flag = CancelFlag::new();
        flag.cancel();
        let mut engine = InductionEngine::new(counter_model(4, 13), BmcOptions::default());
        engine.set_cancel(flag);
        let run = engine.run_collecting();
        assert!(matches!(
            run.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
    }
}
