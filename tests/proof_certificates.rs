//! Mutation testing of UNSAT certificates.
//!
//! Real certificates — produced by the CDCL solver's proof log on randomly
//! generated unsatisfiable formulas — must pass the independent checker of
//! `rbmc-proof`, and corrupted ones must not. Each corruption class the
//! checker claims to catch is exercised:
//!
//! - **dropped line**: removing a step the final clause's hints cite breaks
//!   structural coherence;
//! - **flipped literal**: editing a clause body invalidates its (strict,
//!   sequential) hint replay;
//! - **reordered antecedents**: LRAT hints are checked in propagation
//!   order, so a permutation that asks a not-yet-unit clause to propagate
//!   is rejected;
//! - **swapped formula hash**: a certificate is bound to the axiom sequence
//!   it was produced from and cannot be replayed against another formula.
//!
//! Not every mutation of a class is invalid — a flipped literal can weaken
//! a clause that stays RUP, and reversing a symmetric two-hint chain can
//! yield another valid propagation order. The flip sweep therefore asserts
//! over all positions (*some* flip must be rejected), while the reorder
//! sweep only applies mutations that are invalid by construction: citing a
//! clause first when the negated target leaves two or more of its literals
//! unfalsified, which can neither conflict nor propagate. Deterministic
//! fixtures pin one concrete rejected mutation for each class besides.

use proptest::prelude::*;
use refined_bmc::bmc::SharedRecorder;
use refined_bmc::cnf::Lit;
use refined_bmc::proof::{CertificateBundle, FinalClause, ProofError, ProofRecorder, ProofStep};
use refined_bmc::solver::{SolveResult, Solver, SolverOptions};

fn lit(n: i64) -> Lit {
    Lit::from_dimacs(n)
}

/// Solves `clauses` (DIMACS-style literals) with a proof log attached and
/// returns the episode certificate if the formula is UNSAT.
fn certify(num_vars: usize, clauses: &[Vec<i64>]) -> Option<CertificateBundle> {
    let recorder = SharedRecorder::new();
    let mut solver = Solver::with_options(SolverOptions::default());
    solver.set_proof_log(Box::new(recorder.clone()));
    solver.reserve_vars(num_vars);
    for clause in clauses {
        let lits: Vec<Lit> = clause.iter().map(|&d| lit(d)).collect();
        solver.add_clause(&lits);
    }
    if solver.solve() != SolveResult::Unsat {
        return None;
    }
    Some(recorder.with(rbmc_proof::ProofRecorder::bundle))
}

/// Dense random 1-to-3-literal clauses over a handful of variables: at this
/// density most samples are unsatisfiable, and refuting them takes real
/// propagation (non-trivial certificates). SAT samples are discarded.
fn arb_clauses() -> impl Strategy<Value = (usize, Vec<Vec<i64>>)> {
    (3usize..=5).prop_flat_map(|num_vars| {
        let literal =
            (1..=num_vars, 0u8..=1)
                .prop_map(|(var, neg)| if neg == 1 { -(var as i64) } else { var as i64 });
        let clause = prop::collection::vec(literal, 1..=3).prop_map(|mut c| {
            c.sort_unstable();
            c.dedup();
            c
        });
        (
            Just(num_vars),
            prop::collection::vec(clause, 4 * num_vars..8 * num_vars),
        )
    })
}

/// The ids the final clause's hints cite (the steps whose removal must be
/// structurally fatal).
fn cited_by_final(bundle: &CertificateBundle) -> Vec<u64> {
    bundle.final_clause.hints.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_certificates_check_clean(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(()); // satisfiable sample
        };
        let stats = bundle.check().expect("genuine certificate must check");
        prop_assert!(stats.steps_verified <= stats.steps_total);
        // And it survives a text round-trip unchanged.
        let text = bundle.to_lrat_text();
        let back = CertificateBundle::from_lrat_text(&text).expect("round-trip parse");
        prop_assert_eq!(&back, &bundle);
        back.check().expect("round-tripped certificate must check");
    }

    #[test]
    fn swapped_formula_hash_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(mut bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        bundle.formula_hash ^= 0x1;
        prop_assert!(matches!(
            bundle.check(),
            Err(ProofError::FormulaHashMismatch { .. })
        ));
    }

    #[test]
    fn dropping_a_cited_line_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        // Every step the final clause cites is load-bearing: removing any
        // one of them must be rejected (structurally if the dangling id is
        // caught, semantically otherwise). Dropping an *axiom* would also
        // change the formula hash; keeping the stored hash means the
        // mutation is caught either way — exactly the fail-closed contract.
        for cited in cited_by_final(&bundle) {
            let mut corrupt = bundle.clone();
            corrupt.steps.retain(|s| s.id() != cited);
            prop_assert!(
                corrupt.check().is_err(),
                "dropping cited line {cited} must invalidate the certificate"
            );
        }
    }

    #[test]
    fn some_literal_flip_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        // Flip each literal of each derived step (and of the final clause)
        // in turn; at least one flip must be rejected. (Not every single
        // flip is invalid — a weakened clause can still be RUP — but a
        // checker that accepts *every* flip checks nothing.)
        let mut rejected = 0usize;
        let mut attempted = 0usize;
        for (si, step) in bundle.steps.iter().enumerate() {
            let ProofStep::Derived { lits, .. } = step else {
                continue;
            };
            for li in 0..lits.len() {
                attempted += 1;
                let mut corrupt = bundle.clone();
                if let ProofStep::Derived { lits, .. } = &mut corrupt.steps[si] {
                    lits[li] = !lits[li];
                }
                rejected += usize::from(corrupt.check().is_err());
            }
        }
        for li in 0..bundle.final_clause.lits.len() {
            attempted += 1;
            let mut corrupt = bundle.clone();
            corrupt.final_clause.lits[li] = !corrupt.final_clause.lits[li];
            rejected += usize::from(corrupt.check().is_err());
        }
        prop_assert!(
            attempted == 0 || rejected > 0,
            "no literal flip among {attempted} was rejected"
        );
    }

    #[test]
    fn front_loading_a_blocked_hint_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        // Clause bodies by proof line id (ids are unique, so deletions can
        // be ignored for the lookup).
        let mut db: std::collections::HashMap<u64, &[Lit]> =
            std::collections::HashMap::new();
        for step in &bundle.steps {
            match step {
                ProofStep::Axiom { id, lits } | ProofStep::Derived { id, lits, .. } => {
                    db.insert(*id, lits);
                }
                ProofStep::Delete { .. } => {}
            }
        }
        // Targets guaranteed to be propagation-verified: the final clause
        // itself, plus every derived step it cites directly (those are in
        // the checker's marked cone by construction). `None` marks the
        // final clause, `Some(si)` a step index.
        let mut targets: Vec<(Option<usize>, &[Lit], &[u64])> = vec![(
            None,
            &bundle.final_clause.lits[..],
            &bundle.final_clause.hints[..],
        )];
        for (si, step) in bundle.steps.iter().enumerate() {
            if let ProofStep::Derived { id, lits, hints } = step {
                if bundle.final_clause.hints.contains(id) {
                    targets.push((Some(si), lits, hints));
                }
            }
        }
        for (si, lits, hints) in targets {
            if lits.iter().any(|&l| lits.contains(&!l)) {
                continue; // tautological target: vacuously RUP, any order
            }
            for (j, &hint) in hints.iter().enumerate() {
                // Under ¬target alone, the cited clause's literals that the
                // target does not falsify are unassigned or true. With two
                // or more of them, citing this clause *first* can neither
                // conflict nor propagate — the strict sequential checker
                // must reject (HintNotUnit or SatisfiedHint). A genuine
                // certificate never has such a clause in front, so the
                // mutation below is a real reorder, never the identity.
                let nonfalsified = db[&hint]
                    .iter()
                    .filter(|&&c| !lits.contains(&c))
                    .count();
                if nonfalsified < 2 {
                    continue;
                }
                let mut reordered = hints.to_vec();
                reordered.remove(j);
                reordered.insert(0, hint);
                let mut corrupt = bundle.clone();
                match si {
                    None => corrupt.final_clause.hints = reordered,
                    Some(si) => {
                        if let ProofStep::Derived { hints, .. } = &mut corrupt.steps[si] {
                            *hints = reordered;
                        }
                    }
                }
                prop_assert!(
                    corrupt.check().is_err(),
                    "front-loading blocked hint {hint} must be rejected"
                );
            }
        }
    }
}

/// Deterministic fixture for the flip class: one specific literal flip in a
/// hand-built certificate is rejected.
#[test]
fn flipping_one_specific_literal_is_rejected() {
    // a ∧ ¬a, final empty clause.
    let bundle = CertificateBundle {
        formula_hash: {
            let mut rec = rbmc_proof::ProofRecorder::new();
            rec.axiom(1, &[lit(1)]);
            rec.axiom(2, &[lit(-1)]);
            rec.formula_hash()
        },
        steps: vec![
            ProofStep::Axiom {
                id: 1,
                lits: vec![lit(1)],
            },
            ProofStep::Axiom {
                id: 2,
                lits: vec![lit(-1)],
            },
        ],
        final_clause: refined_bmc::proof::FinalClause {
            lits: Vec::new(),
            hints: vec![1, 2],
        },
    };
    bundle.check().expect("fixture is valid");
    let mut corrupt = bundle;
    if let ProofStep::Axiom { lits, .. } = &mut corrupt.steps[1] {
        lits[0] = !lits[0];
    }
    // The flip breaks the hash binding AND the replay; with the hash field
    // updated to match the edited axioms, the replay rejection remains.
    assert!(corrupt.check().is_err());
    corrupt.formula_hash = {
        let mut rec = rbmc_proof::ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.axiom(2, &[lit(1)]);
        rec.formula_hash()
    };
    assert!(matches!(
        corrupt.check(),
        Err(ProofError::NoConflict { .. } | ProofError::SatisfiedHint { .. })
    ));
}

/// Deterministic fixture for the reorder class: a propagation chain through
/// a wide clause (unit only after two earlier hints) has exactly one valid
/// order, so the rotated hint list must be rejected.
#[test]
fn one_specific_hint_reorder_is_rejected() {
    // a ∧ b ∧ (¬a ∨ ¬b ∨ c) ∧ ¬c: refuting needs a, b first, then the wide
    // clause (now unit on c), then ¬c conflicts.
    let mut rec = rbmc_proof::ProofRecorder::new();
    rec.axiom(1, &[lit(1)]);
    rec.axiom(2, &[lit(2)]);
    rec.axiom(3, &[lit(-1), lit(-2), lit(3)]);
    rec.axiom(4, &[lit(-3)]);
    rec.finalize(&[], &[1, 2, 3, 4]);
    let good = rec.bundle();
    good.check().expect("propagation order is valid");
    let mut corrupt = good;
    // Ask the wide clause to propagate first: it still has two unassigned
    // literals, so the strict sequential checker must reject.
    corrupt.final_clause.hints = vec![3, 1, 2, 4];
    assert!(matches!(
        corrupt.check(),
        Err(ProofError::HintNotUnit { hint: 3, .. })
    ));
}

/// Deterministic xorshift stream for the session differential (seeded, so
/// every run replays the same sessions).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn lit(&mut self, num_vars: u64) -> Lit {
        let var = 1 + self.below(num_vars) as i64;
        lit(if self.below(2) == 0 { var } else { -var })
    }
}

/// Replays a session's proof log into a fresh recorder, checking each
/// episode — `(log length, final clause)` — incrementally and one-shot; the
/// two must agree. Returns how many episodes were rejected.
fn replay_agrees(steps: &[ProofStep], episodes: &[(usize, FinalClause)]) -> usize {
    let mut rec = ProofRecorder::new();
    let mut fed = 0;
    let mut rejected = 0;
    for (len, final_clause) in episodes {
        for step in &steps[fed..*len] {
            match step {
                ProofStep::Axiom { id, lits } => rec.axiom(*id, lits),
                ProofStep::Derived { id, lits, hints } => rec.derived(*id, lits, hints),
                ProofStep::Delete { id } => rec.delete(*id),
            }
        }
        fed = *len;
        rec.finalize(&final_clause.lits, &final_clause.hints);
        let incremental = rec.check_current();
        let one_shot = rec.bundle().check();
        assert_eq!(
            incremental.as_ref().err(),
            one_shot.as_ref().err(),
            "checkers disagree at log length {len}"
        );
        rejected += usize::from(incremental.is_err());
    }
    rejected
}

/// Incremental vs one-shot: one solver session with many assumption
/// episodes, clauses added between episodes, and reduction aggressive
/// enough to delete learned clauses mid-session. After every UNSAT episode
/// the recorder's append-only `check_current` must agree with a one-shot
/// check of the bundled prefix — both accept, or both reject with the same
/// error — and across the session no derived line is verified twice. The
/// session's log is then replayed with single-literal corruptions of
/// derived lines, where the two must still agree episode by episode.
#[test]
fn incremental_checks_agree_with_one_shot_across_sessions() {
    const NUM_VARS: u64 = 14;
    let mut unsat_episodes = 0u64;
    let mut deleted = 0u64;
    let mut rejected_replays = 0usize;
    for seed in 1..=12u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let recorder = SharedRecorder::new();
        let mut solver = Solver::with_options(SolverOptions {
            reduce_base: 4,
            reduce_inc: 2,
            ..SolverOptions::default()
        });
        solver.set_proof_log(Box::new(recorder.clone()));
        solver.reserve_vars(NUM_VARS as usize);
        let mut verified_lines = 0usize;
        let mut episodes = Vec::new();
        for episode in 0..40 {
            // Random 3-clauses near the satisfiability threshold, a few more
            // per episode, so the session keeps learning and reducing.
            let new_clauses = if episode == 0 { 40 } else { 2 };
            for _ in 0..new_clauses {
                let clause: Vec<Lit> = (0..3).map(|_| rng.lit(NUM_VARS)).collect();
                solver.add_clause(&clause);
            }
            let assumptions: Vec<Lit> = (0..1 + rng.below(4)).map(|_| rng.lit(NUM_VARS)).collect();
            if solver.solve_under(&assumptions) != SolveResult::Unsat {
                continue;
            }
            unsat_episodes += 1;
            let (incremental, one_shot) =
                recorder.with_mut(|rec| (rec.check_current(), rec.bundle().check()));
            assert_eq!(
                incremental.as_ref().err(),
                one_shot.as_ref().err(),
                "seed {seed}, episode {episode}: checkers disagree"
            );
            episodes.push(recorder.with(|rec| {
                let final_clause = rec.final_clause().expect("UNSAT episode").clone();
                (rec.num_steps(), final_clause)
            }));
            let stats = incremental.expect("genuine certificate must check");
            verified_lines += stats.steps_verified - 1; // minus the final clause
            assert!(stats.steps_verified <= one_shot.unwrap().steps_verified);
        }
        let steps = recorder.with(|rec| rec.bundle().steps);
        let derived: Vec<usize> = (0..steps.len())
            .filter(|&i| matches!(steps[i], ProofStep::Derived { .. }))
            .collect();
        assert!(
            verified_lines <= derived.len(),
            "seed {seed}: {verified_lines} verifications of {} derived lines",
            derived.len()
        );
        for k in 1..=3 {
            let Some(&at) = derived.get(k * derived.len() / 4) else {
                continue;
            };
            let mut corrupt = steps.clone();
            if let ProofStep::Derived { lits, .. } = &mut corrupt[at] {
                if let Some(first) = lits.first_mut() {
                    *first = !*first;
                }
            }
            rejected_replays += replay_agrees(&corrupt, &episodes);
        }
        deleted += solver.stats().deleted;
    }
    assert!(unsat_episodes > 50, "only {unsat_episodes} UNSAT episodes");
    assert!(deleted > 0, "the sessions never deleted a learned clause");
    assert!(rejected_replays > 0, "no corrupted replay was rejected");
}

/// Engine runs under `ProofMode::Check` certify every UNSAT episode through
/// the recorder's append-only checker with zero rejections, and checking
/// leaves the log untouched: the same run under `ProofMode::Log` logs
/// exactly as many steps. With `--features debug-invariants`, the
/// certifier additionally compares every episode's verdict with a one-shot
/// check of the same prefix and panics on any disagreement, so these runs
/// are then an episode-by-episode differential of all three engines.
#[test]
fn engine_runs_certify_incrementally() {
    use refined_bmc::bmc::induction::InductionEngine;
    use refined_bmc::bmc::{BmcEngine, BmcOptions, BmcRun, Ic3Engine, Model, ProofMode};
    use refined_bmc::gens::families;

    fn run(model: &Model, max_depth: usize, engine: &str, proof: ProofMode) -> BmcRun {
        let options = BmcOptions {
            max_depth,
            proof,
            solver: SolverOptions {
                reduce_base: 16,
                reduce_inc: 8,
                ..SolverOptions::default()
            },
            ..BmcOptions::default()
        };
        match engine {
            "ic3" => Ic3Engine::new(model.clone(), options).run_collecting(),
            "induction" => InductionEngine::new(model.clone(), options).run_collecting(),
            _ => BmcEngine::new(model.clone(), options).run_collecting(),
        }
    }

    let instances = [
        ("mutex_arbiter(4)", families::mutex_arbiter(4), 8),
        (
            "pipelined_handshake(3)",
            families::pipelined_handshake(3),
            8,
        ),
        ("tmr_voter(2, 1)", families::tmr_voter(2, 1), 6),
        ("fifo_unguarded(2)", families::fifo_unguarded(2), 8),
    ];
    for (name, model, max_depth) in &instances {
        for engine in ["bmc", "ic3", "induction"] {
            let checked = run(model, *max_depth, engine, ProofMode::Check);
            let logged = run(model, *max_depth, engine, ProofMode::Log);
            let checked = checked.proof.expect("proof summary under Check");
            let logged = logged.proof.expect("proof summary under Log");
            assert_eq!(
                checked.rejections, 0,
                "{name} [{engine}]: {:?}",
                checked.first_rejection
            );
            assert!(
                checked.episodes_certified > 0,
                "{name} [{engine}]: no UNSAT episode certified"
            );
            assert_eq!(
                checked.steps_logged, logged.steps_logged,
                "{name} [{engine}]: checking changed the log"
            );
        }
    }
}
