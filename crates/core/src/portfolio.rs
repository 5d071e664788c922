//! Portfolio racing: independent engine configurations race on the whole
//! problem, first verdict wins, losers are cancelled.
//!
//! Where a by-property parallel run splits *one* configured run across
//! workers, a portfolio exploits a different observation of the paper's
//! Table 1: no single decision-ordering regime dominates every instance
//! (`bmc` wins some rows, `sta`/`dyn` others), and which one wins is hard
//! to predict upfront. Racing the regimes buys the per-instance minimum —
//! at the cost of redundant work on the losers.
//!
//! Soundness: every member is a complete, budget-free engine, so whichever
//! finishes first reports the semantic verdict of the very instances the
//! sequential oracle solves — SAT-ness of `F_k ∧ bad_p^k` is a property of
//! the formula, not of the solver that decides it, so falsification depths
//! and validated traces match in every race outcome. Reproducibility is
//! weaker than a by-property run's: *which member* wins depends on scheduling
//! (and with it the rank table and the search counters), and with a
//! conflict budget the truncation point is the winner's. Member 0 is
//! always the caller's own configuration, so a one-worker race of the
//! BMC-only rosters degenerates to exactly the sequential run (under
//! [`PortfolioMode::Full`] a prover's conclusive answer may outrank it).
//!
//! Losers are stopped through the cooperative [`CancelFlag`] of
//! [`BmcEngine::set_cancel`]: the winner flips every other member's flag
//! (a parked BMC answer every other BMC member's),
//! their solvers return [`Unknown`](rbmc_solver::SolveResult::Unknown) at
//! the next conflict/decision boundary, and each cancelled run truncates
//! through the ordinary budget machinery — no thread is ever killed.
//!
//! [`PortfolioMode::Full`] also races along the *engine* axis: besides the
//! BMC strategy × reuse grid, the roster carries an [`Ic3Engine`] member
//! (core-ordered assumptions) and a k-induction member. BMC hunts bugs, the
//! provers hunt proofs, and the claim rule ranks their answers: a run that
//! gives *every* property a conclusive verdict
//! ([`Falsified`](crate::PropertyVerdict::Falsified) or
//! [`Proved`](crate::PropertyVerdict::Proved)) claims the race at once,
//! whoever ran it. A bounded answer — some property left open — claims it
//! only when nothing stronger can come: the first complete bounded BMC run
//! is *parked* and skips or cancels the other BMC members (no BMC member
//! can beat it), and it wins only once every prover has ended
//! [`MemberState::Incomplete`] or cancelled. A prover that merely ran out
//! of frontier reports `Incomplete` and never claims. Member 0 is always
//! the base BMC configuration, so a winner always exists.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rbmc_solver::CancelFlag;

use crate::engine::{BmcEngine, BmcOptions, BmcRun, OrderingStrategy, SolverReuse};
use crate::engine_trait::{Engine, EngineKind};
use crate::ic3::Ic3Engine;
use crate::induction::InductionEngine;
use crate::parallel::striped_map;
use crate::VerificationProblem;

/// One racing configuration: a verification engine, an ordering strategy,
/// and a solver provisioning regime. Everything else is inherited from the
/// base [`BmcOptions`]. The strategy applies to every engine (BMC's
/// per-depth varRank, IC3's per-frame core ordering, induction's base
/// cases); the reuse regime is meaningful for BMC only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PortfolioMember {
    /// The verification engine this member runs.
    pub engine: EngineKind,
    /// The decision-ordering scheme this member runs.
    pub strategy: OrderingStrategy,
    /// The solver provisioning regime this member runs.
    pub reuse: SolverReuse,
}

impl PortfolioMember {
    /// Short name used in reports: `strategy/reuse` for BMC members
    /// ("dyn/session"), `ic3/strategy` for IC3, "induction" for induction.
    pub fn label(self) -> String {
        match self.engine {
            EngineKind::Bmc => format!("{}/{}", self.strategy.label(), self.reuse.label()),
            EngineKind::Ic3 => format!("ic3/{}", self.strategy.label()),
            EngineKind::Induction => "induction".to_string(),
        }
    }
}

/// Which axis of the configuration space a portfolio races along.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PortfolioMode {
    /// Race the ordering strategies of Table 1 (`dyn`, `sta`, `bmc`) under
    /// the base options' solver-reuse regime.
    #[default]
    Strategies,
    /// Race [`SolverReuse::Session`] against [`SolverReuse::Fresh`] under
    /// the base options' strategy.
    ReuseRegimes,
    /// Race the full strategy × reuse product, plus the proving engines:
    /// an IC3 member (core-ordered assumptions) and a k-induction member
    /// race the BMC grid for an unbounded answer. A run that decides every
    /// property (falsified or proved) wins at once; the first bounded BMC
    /// answer is parked, stops the other BMC members, and wins only once
    /// every prover has ended without a conclusive answer or been
    /// cancelled.
    Full,
}

impl PortfolioMode {
    /// Short name used by the CLI tools and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            PortfolioMode::Strategies => "strategies",
            PortfolioMode::ReuseRegimes => "reuse",
            PortfolioMode::Full => "full",
        }
    }

    /// Parses a mode label as accepted by the CLI (`--portfolio-mode`).
    pub fn parse(label: &str) -> Option<PortfolioMode> {
        match label {
            "strategies" | "strategy" => Some(PortfolioMode::Strategies),
            "reuse" | "reuse-regimes" => Some(PortfolioMode::ReuseRegimes),
            "full" => Some(PortfolioMode::Full),
            _ => None,
        }
    }

    /// The racing roster for a base configuration. Member 0 is always
    /// `(base.strategy, base.reuse)` itself — so with one worker the
    /// portfolio degenerates to exactly the base sequential run — and the
    /// rest of the roster is deduplicated against it.
    pub fn members_for(self, base: &BmcOptions) -> Vec<PortfolioMember> {
        let strategies = [
            OrderingStrategy::RefinedDynamic { divisor: 64 },
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::Standard,
        ];
        let reuses = [SolverReuse::Session, SolverReuse::Fresh];
        let mut members = vec![PortfolioMember {
            engine: EngineKind::Bmc,
            strategy: base.strategy,
            reuse: base.reuse,
        }];
        let push = |m: PortfolioMember, members: &mut Vec<PortfolioMember>| {
            if !members.contains(&m) {
                members.push(m);
            }
        };
        match self {
            PortfolioMode::Strategies => {
                for strategy in strategies {
                    push(
                        PortfolioMember {
                            engine: EngineKind::Bmc,
                            strategy,
                            reuse: base.reuse,
                        },
                        &mut members,
                    );
                }
            }
            PortfolioMode::ReuseRegimes => {
                for reuse in reuses {
                    push(
                        PortfolioMember {
                            engine: EngineKind::Bmc,
                            strategy: base.strategy,
                            reuse,
                        },
                        &mut members,
                    );
                }
            }
            PortfolioMode::Full => {
                for strategy in strategies {
                    for reuse in reuses {
                        push(
                            PortfolioMember {
                                engine: EngineKind::Bmc,
                                strategy,
                                reuse,
                            },
                            &mut members,
                        );
                    }
                }
                // The provers: IC3 under the core-ordered strategy, and
                // k-induction under the base strategy (its base cases are
                // BMC runs). Reuse is pinned to the base regime — neither
                // prover reads it.
                push(
                    PortfolioMember {
                        engine: EngineKind::Ic3,
                        strategy: OrderingStrategy::RefinedStatic,
                        reuse: base.reuse,
                    },
                    &mut members,
                );
                push(
                    PortfolioMember {
                        engine: EngineKind::Induction,
                        strategy: base.strategy,
                        reuse: base.reuse,
                    },
                    &mut members,
                );
            }
        }
        members
    }
}

/// How one member's race ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// Its [`BmcRun`] is the portfolio's verdict: the first conclusive
    /// run, or else the parked bounded BMC answer.
    Won,
    /// Finished uncancelled, but another member's answer took the race.
    Lost,
    /// Stopped early by the winner's cancellation.
    Cancelled,
    /// Finished uncancelled, but without a conclusive verdict
    /// ([`Falsified`](crate::PropertyVerdict::Falsified) or
    /// [`Proved`](crate::PropertyVerdict::Proved)) for every property —
    /// a prover that ran out of frontier. Not eligible to claim the race.
    Incomplete,
    /// Never started: the race was already decided when a worker reached
    /// it, or — for a BMC member — a bounded BMC answer was already parked.
    Skipped,
}

/// One member's entry in the post-race report.
#[derive(Clone, Debug)]
pub struct MemberReport {
    /// The configuration this member raced.
    pub member: PortfolioMember,
    /// How its race ended.
    pub state: MemberState,
    /// Wall-clock time the member ran (zero when skipped).
    pub time: Duration,
}

/// The outcome of a portfolio race.
#[derive(Clone, Debug)]
pub struct PortfolioRun {
    /// Index into [`PortfolioRun::members`] of the winning member.
    pub winner: usize,
    /// The winner's complete run — verdicts, traces, per-depth stats.
    pub run: BmcRun,
    /// Every member's fate, in roster order.
    pub members: Vec<MemberReport>,
    /// Wall clock of the whole race.
    pub total_time: Duration,
}

/// Races `mode`'s roster on `problem` across up to `jobs` workers and
/// returns the first conclusive verdict, or else the parked bounded BMC
/// answer (see [`PortfolioMode::Full`]). The base `options` supply member 0
/// and everything the roster does not override; `options.parallel` is
/// ignored (each member runs its own sequential engine — the race *is* the
/// parallelism).
pub fn run_portfolio(
    problem: &VerificationProblem,
    options: &BmcOptions,
    mode: PortfolioMode,
    jobs: usize,
) -> PortfolioRun {
    let race_start = Instant::now();
    let members = mode.members_for(options);
    let flags: Vec<CancelFlag> = members.iter().map(|_| CancelFlag::new()).collect();
    let winner = AtomicUsize::new(usize::MAX);
    let parked = AtomicUsize::new(usize::MAX);
    let is_bmc = |i: usize| members[i].engine == EngineKind::Bmc;

    let mut results = striped_map(members.len(), jobs.max(1), |_, i| {
        let member_start = Instant::now();
        if winner.load(Ordering::Acquire) != usize::MAX
            || (is_bmc(i) && parked.load(Ordering::Acquire) != usize::MAX)
        {
            return (None, MemberState::Skipped, Duration::ZERO);
        }
        let member_options = BmcOptions {
            strategy: members[i].strategy,
            reuse: members[i].reuse,
            parallel: None,
            ..*options
        };
        let mut engine: Box<dyn Engine> = match members[i].engine {
            EngineKind::Bmc => Box::new(BmcEngine::for_problem(problem.clone(), member_options)),
            EngineKind::Ic3 => Box::new(Ic3Engine::for_problem(problem.clone(), member_options)),
            EngineKind::Induction => Box::new(InductionEngine::for_problem(
                problem.clone(),
                member_options,
            )),
        };
        engine.set_cancel(flags[i].clone());
        let run = engine.run_collecting();
        let conclusive = run.properties.iter().all(|p| p.verdict.is_conclusive());
        let state = if flags[i].is_cancelled() {
            MemberState::Cancelled
        } else if !conclusive && !is_bmc(i) {
            MemberState::Incomplete
        } else {
            // A conclusive run claims the race and cancels every other
            // member; a bounded BMC answer parks, cancels the other BMC
            // members, and stays `Lost` unless no run claims the race.
            let slot = if conclusive { &winner } else { &parked };
            let claimed = slot
                .compare_exchange(usize::MAX, i, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            if claimed {
                for (j, flag) in flags.iter().enumerate() {
                    if j != i && (conclusive || is_bmc(j)) {
                        flag.cancel();
                    }
                }
            }
            if claimed && conclusive {
                MemberState::Won
            } else {
                MemberState::Lost
            }
        };
        (Some(run), state, member_start.elapsed())
    });

    // A winner always exists: member 0 is a BMC member, and it finishes
    // uncancelled (claiming or parking, unless someone did first) or
    // cancelled (which only a winner or a parked run does).
    let winner = match winner.into_inner() {
        usize::MAX => parked.into_inner(),
        won => won,
    };
    assert_ne!(winner, usize::MAX, "a portfolio race always has a winner");
    results[winner].1 = MemberState::Won;
    let run = results[winner]
        .0
        .take()
        .expect("the winning member produced a run");
    let members = members
        .into_iter()
        .zip(&results)
        .map(|(member, (_, state, time))| MemberReport {
            member,
            state: *state,
            time: *time,
        })
        .collect();
    PortfolioRun {
        winner,
        run,
        members,
        total_time: race_start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BmcOutcome;
    use crate::ProblemBuilder;
    use rbmc_circuit::{LatchInit, Netlist, Signal};

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
        let mut builder = ProblemBuilder::new("portfolio_counter", n);
        for (name, sig) in props {
            builder = builder.property(&name, sig);
        }
        builder.build()
    }

    fn base_options() -> BmcOptions {
        BmcOptions {
            max_depth: 10,
            ..BmcOptions::default()
        }
    }

    #[test]
    fn member_zero_is_the_base_configuration() {
        let base = base_options();
        for mode in [
            PortfolioMode::Strategies,
            PortfolioMode::ReuseRegimes,
            PortfolioMode::Full,
        ] {
            let members = mode.members_for(&base);
            assert_eq!(members[0].strategy, base.strategy, "{mode:?}");
            assert_eq!(members[0].reuse, base.reuse, "{mode:?}");
            // Deduplicated: the base never appears twice.
            let dup = members
                .iter()
                .enumerate()
                .any(|(i, m)| members[..i].contains(m));
            assert!(!dup, "{mode:?} roster has duplicates: {members:?}");
        }
        assert_eq!(PortfolioMode::Full.members_for(&base).len(), 8);
    }

    #[test]
    fn full_roster_races_the_proving_engines_too() {
        let members = PortfolioMode::Full.members_for(&base_options());
        assert!(members
            .iter()
            .any(|m| m.engine == EngineKind::Ic3 && m.label() == "ic3/sta"));
        assert!(members
            .iter()
            .any(|m| m.engine == EngineKind::Induction && m.label() == "induction"));
        // The bounded modes stay pure BMC.
        for mode in [PortfolioMode::Strategies, PortfolioMode::ReuseRegimes] {
            assert!(mode
                .members_for(&base_options())
                .iter()
                .all(|m| m.engine == EngineKind::Bmc));
        }
    }

    #[test]
    fn provers_only_win_with_fully_conclusive_verdicts() {
        // Holding property (reset counter never reaches 13): BMC leaves it
        // open at the bound, so its answer stays parked and a prover's
        // proof takes the race.
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..4)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let inc = n.bus_increment(&bits);
        let at10 = n.bus_eq_const(&bits, 10);
        let next: Vec<Signal> = inc.iter().map(|&s| n.mux(at10, Signal::FALSE, s)).collect();
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, 13);
        let problem = ProblemBuilder::new("holds", n)
            .property("reach_13", bad)
            .build();
        for jobs in [1, 4] {
            let race = run_portfolio(&problem, &base_options(), PortfolioMode::Full, jobs);
            assert!(
                matches!(race.run.outcome, BmcOutcome::BoundReached { .. }),
                "j{jobs}: {:?}",
                race.run.outcome
            );
            assert!(
                matches!(
                    race.run.properties[0].verdict,
                    crate::PropertyVerdict::Proved { .. }
                ),
                "j{jobs}: {}",
                race.run.properties[0].verdict
            );
            assert_ne!(race.members[race.winner].member.engine, EngineKind::Bmc);
            // Incomplete is a prover-only state.
            for m in &race.members {
                if m.state == MemberState::Incomplete {
                    assert_ne!(m.member.engine, EngineKind::Bmc, "j{jobs}");
                }
            }
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [
            PortfolioMode::Strategies,
            PortfolioMode::ReuseRegimes,
            PortfolioMode::Full,
        ] {
            assert_eq!(PortfolioMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(PortfolioMode::parse("nope"), None);
    }

    #[test]
    fn race_verdict_matches_sequential_oracle() {
        let problem = counter_problem(4, &[7, 13]);
        let mut oracle = BmcEngine::for_problem(problem.clone(), base_options());
        let oracle_run = oracle.run_collecting();
        for mode in [
            PortfolioMode::Strategies,
            PortfolioMode::ReuseRegimes,
            PortfolioMode::Full,
        ] {
            for jobs in [1, 2, 4] {
                let race = run_portfolio(&problem, &base_options(), mode, jobs);
                assert!(
                    matches!(
                        race.run.outcome,
                        BmcOutcome::Counterexample { depth: 7, .. }
                    ),
                    "{mode:?} j{jobs}: {:?}",
                    race.run.outcome
                );
                for (p, q) in race.run.properties.iter().zip(&oracle_run.properties) {
                    assert_eq!(
                        p.retirement_depth, q.retirement_depth,
                        "{mode:?} j{jobs} property {}",
                        p.name
                    );
                }
                assert_eq!(
                    race.members[race.winner].state,
                    MemberState::Won,
                    "{mode:?} j{jobs}"
                );
                let won = race
                    .members
                    .iter()
                    .filter(|m| m.state == MemberState::Won)
                    .count();
                assert_eq!(won, 1, "{mode:?} j{jobs}: exactly one winner");
            }
        }
    }

    #[test]
    fn single_worker_race_is_won_by_member_zero() {
        // With one worker the members run in roster order, so member 0 (the
        // base configuration) always finishes — and therefore wins — first,
        // and every later member sees the decided race and is skipped or
        // cancelled.
        let problem = counter_problem(4, &[9]);
        let race = run_portfolio(&problem, &base_options(), PortfolioMode::Full, 1);
        assert_eq!(race.winner, 0);
        assert!(race
            .members
            .iter()
            .skip(1)
            .all(|m| m.state == MemberState::Skipped));
        assert!(matches!(
            race.run.outcome,
            BmcOutcome::Counterexample { depth: 9, .. }
        ));
    }
}
