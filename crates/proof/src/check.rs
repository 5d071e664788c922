//! Append-only, backward RUP/LRAT certificate checking. See the crate docs
//! for the acceptance rules; this module is the enforcement.
//!
//! A [`Checker`] reads a proof log front to back exactly once. Each step is
//! structurally checked when it is first consumed, and each derived line is
//! propagation-verified at most once: when the first final clause whose
//! backward cone reaches it is checked. Logged lines never change, so a
//! verdict reached for one episode holds for every later episode of the
//! same log.

use std::collections::HashMap;
use std::fmt;

use rbmc_cnf::Lit;

use crate::{fnv_word, FinalClause, ProofStep, FNV_OFFSET, HASH_SEP};

/// Why a certificate was rejected. Every variant names the offending line
/// so a fail-closed gate can report something actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The log has no final clause: no episode ended UNSAT, so there is
    /// nothing to certify.
    NoFinal,
    /// The recomputed axiom hash does not match the bundle's — the
    /// certificate belongs to a different formula.
    FormulaHashMismatch {
        /// Hash stored in the bundle.
        expected: u64,
        /// Hash recomputed from the bundle's axiom lines.
        actual: u64,
    },
    /// Proof line ids must be strictly increasing.
    IdOrder {
        /// The offending line id.
        id: u64,
    },
    /// A hint cites a line that does not exist, is not yet declared, or was
    /// deleted before the citing step.
    UnknownHint {
        /// The citing line (0 stands for the final clause).
        step: u64,
        /// The cited line.
        hint: u64,
    },
    /// A deletion names a line that is not a live derived clause.
    BadDelete {
        /// The offending deletion target.
        id: u64,
    },
    /// Strict LRAT: a hint clause was already satisfied under the
    /// accumulated assignment — it cannot participate in the propagation.
    SatisfiedHint {
        /// The citing line (0 stands for the final clause).
        step: u64,
        /// The offending hint.
        hint: u64,
    },
    /// Strict LRAT: a hint clause had two or more unassigned literals —
    /// the hint order does not describe a unit propagation.
    HintNotUnit {
        /// The citing line (0 stands for the final clause).
        step: u64,
        /// The offending hint.
        hint: u64,
    },
    /// The hint list ran out without reaching a conflict: the clause is not
    /// RUP under its hints.
    NoConflict {
        /// The unjustified line (0 stands for the final clause).
        step: u64,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn line(id: u64) -> String {
            if id == 0 {
                "the final clause".to_string()
            } else {
                format!("line {id}")
            }
        }
        match self {
            ProofError::NoFinal => write!(f, "no UNSAT episode to certify"),
            ProofError::FormulaHashMismatch { expected, actual } => write!(
                f,
                "formula hash mismatch: bundle says {expected:#018x}, axioms hash to {actual:#018x}"
            ),
            ProofError::IdOrder { id } => {
                write!(f, "proof line ids not strictly increasing at id {id}")
            }
            ProofError::UnknownHint { step, hint } => {
                write!(f, "{} cites unknown or deleted line {hint}", line(*step))
            }
            ProofError::BadDelete { id } => {
                write!(f, "deletion of {id}, which is not a live derived line")
            }
            ProofError::SatisfiedHint { step, hint } => {
                write!(f, "{} cites satisfied clause {hint}", line(*step))
            }
            ProofError::HintNotUnit { step, hint } => {
                write!(f, "{} cites non-unit clause {hint}", line(*step))
            }
            ProofError::NoConflict { step } => {
                write!(
                    f,
                    "{} is not RUP: hints end without a conflict",
                    line(*step)
                )
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// What a successful check covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total proof lines in the log.
    pub steps_total: usize,
    /// Lines propagation-verified by this call: the final clause plus every
    /// derived line in its backward dependency cone that no earlier call on
    /// the same log verified (the rest get structural checks only).
    pub steps_verified: usize,
}

/// In the strict hint walk, processing one clause yields one of these.
enum HintState {
    /// All literals false: the propagation reached its conflict.
    Conflict,
    /// Exactly one literal unassigned: propagate it.
    Unit(Lit),
    /// Some literal is already true.
    Satisfied,
    /// Two or more literals unassigned.
    Open,
}

/// Partial assignment over variable indices (`true`: the positive literal
/// holds). One buffer serves every verification of a checker; its trail
/// undoes exactly what the previous verification assigned.
#[derive(Clone, Debug, Default)]
struct Assignment {
    values: Vec<Option<bool>>,
    trail: Vec<usize>,
}

impl Assignment {
    /// Whether `lit` is true, false, or unassigned.
    fn value(&self, lit: Lit) -> Option<bool> {
        let value = self.values.get(lit.var().index()).copied().flatten()?;
        Some(value == lit.is_positive())
    }

    /// Makes `lit` true.
    fn assign(&mut self, lit: Lit) {
        let var = lit.var().index();
        if var >= self.values.len() {
            self.values.resize(var + 1, None);
        }
        self.values[var] = Some(lit.is_positive());
        self.trail.push(var);
    }

    /// Resets to the negation of `clause`. Returns `false` when the clause
    /// is a tautology (contains both phases of a variable): such a clause
    /// is trivially RUP and needs no propagation.
    fn negate(&mut self, clause: &[Lit]) -> bool {
        for var in self.trail.drain(..) {
            self.values[var] = None;
        }
        for &lit in clause {
            match self.value(lit) {
                Some(true) => return false,
                Some(false) => {}
                None => self.assign(!lit),
            }
        }
        true
    }

    fn classify(&self, clause: &[Lit]) -> HintState {
        let mut unassigned: Option<Lit> = None;
        for &lit in clause {
            match self.value(lit) {
                Some(true) => return HintState::Satisfied,
                Some(false) => {}
                None => {
                    if unassigned.is_some() {
                        return HintState::Open;
                    }
                    unassigned = Some(lit);
                }
            }
        }
        match unassigned {
            None => HintState::Conflict,
            Some(lit) => HintState::Unit(lit),
        }
    }
}

/// Strict LRAT verification of one clause under its hints: sequential
/// processing, every cited clause unit until a conflict. `step` is the
/// citing line id for error reporting (0 = final clause); `body` resolves a
/// cited id to its clause.
fn verify_hinted<'a>(
    assignment: &mut Assignment,
    step: u64,
    clause: &[Lit],
    hints: &[u64],
    body: impl Fn(u64) -> Option<&'a [Lit]>,
) -> Result<(), ProofError> {
    if !assignment.negate(clause) {
        return Ok(());
    }
    for &hint in hints {
        let body = body(hint).ok_or(ProofError::UnknownHint { step, hint })?;
        match assignment.classify(body) {
            HintState::Conflict => return Ok(()),
            HintState::Unit(lit) => assignment.assign(lit),
            HintState::Satisfied => return Err(ProofError::SatisfiedHint { step, hint }),
            HintState::Open => return Err(ProofError::HintNotUnit { step, hint }),
        }
    }
    Err(ProofError::NoConflict { step })
}

/// Full-database RUP for hintless clauses: saturate unit propagation over
/// every active clause until a conflict or a fixpoint.
fn verify_full_db(
    assignment: &mut Assignment,
    step: u64,
    clause: &[Lit],
    db: &[&[Lit]],
) -> Result<(), ProofError> {
    if !assignment.negate(clause) {
        return Ok(());
    }
    loop {
        let mut progressed = false;
        for body in db {
            match assignment.classify(body) {
                HintState::Conflict => return Ok(()),
                HintState::Unit(lit) => {
                    assignment.assign(lit);
                    progressed = true;
                }
                HintState::Satisfied | HintState::Open => {}
            }
        }
        if !progressed {
            return Err(ProofError::NoConflict { step });
        }
    }
}

/// The clause a declaring step carries.
fn body(step: &ProofStep) -> &[Lit] {
    match step {
        ProofStep::Axiom { lits, .. } | ProofStep::Derived { lits, .. } => lits,
        ProofStep::Delete { .. } => unreachable!("a deletion declares no line"),
    }
}

/// One declared proof line (axiom or derived clause).
#[derive(Clone, Copy, Debug)]
struct Line {
    id: u64,
    /// Position of the declaring step in the log, where the body lives.
    step: u32,
    derived: bool,
    /// Not deleted (yet).
    active: bool,
    /// Propagation-verified, and with it the line's whole backward cone.
    verified: bool,
    /// In the cone of the check in progress (cleared when it returns).
    marked: bool,
}

/// The clauses of the database `lines` describe (every active line).
fn active_bodies<'a>(lines: &[Line], steps: &'a [ProofStep]) -> Vec<&'a [Lit]> {
    lines
        .iter()
        .filter(|l| l.active)
        .map(|l| body(&steps[l.step as usize]))
        .collect()
}

/// Index of the line declared with `id` in `lines` (sorted by id).
fn find(lines: &[Line], id: u64) -> Option<usize> {
    lines.binary_search_by_key(&id, |l| l.id).ok()
}

/// The clause declared with `id`, looked up in `lines`.
fn body_of<'a>(lines: &[Line], steps: &'a [ProofStep], id: u64) -> Option<&'a [Lit]> {
    find(lines, id).map(|i| body(&steps[lines[i].step as usize]))
}

/// Append-only checker state over one proof log. Feed it the same, growing
/// step list on every call; it consumes only the steps it has not seen and
/// re-verifies no line it already accepted.
///
/// Soundness of the cache rests on two facts. The structural pass proves
/// that each hint was active at the citing line's position, and hinted
/// verification only reads the (immutable) bodies of the cited ids — so an
/// id → body lookup answers exactly as the database at that position would.
/// A hintless line needs full-database RUP against the database *at its
/// position*, so that check runs when the line is consumed; its verdict is
/// reported only if the line is ever marked.
#[derive(Clone, Debug, Default)]
pub(crate) struct Checker {
    /// Log steps consumed so far.
    cursor: usize,
    /// Declared lines in id order — which is log order, ids being strictly
    /// increasing — searched by id: the id → body index.
    lines: Vec<Line>,
    /// First structural fault of the consumed prefix. Sticky: every later
    /// check of the log reports it, as a from-scratch check would.
    fault: Option<ProofError>,
    /// Hintless derived lines that failed full-database RUP against the
    /// database at their own position.
    hintless_failures: HashMap<u64, ProofError>,
    /// Scratch assignment for propagation.
    assignment: Assignment,
}

impl Checker {
    fn is_active(&self, id: u64) -> bool {
        find(&self.lines, id).is_some_and(|i| self.lines[i].active)
    }

    /// Derived line ids without a deletion record among the consumed
    /// steps, ascending.
    pub(crate) fn live_derived(&self) -> Vec<u64> {
        self.lines
            .iter()
            .filter(|l| l.derived && l.active)
            .map(|l| l.id)
            .collect()
    }

    /// Structurally checks the steps appended since the last call: ids
    /// strictly increasing, every hint active at its citing line, every
    /// deletion naming a live derived line. The first fault is kept; later
    /// steps are still consumed so the live set stays current.
    pub(crate) fn consume(&mut self, steps: &[ProofStep]) {
        for (pos, step) in steps.iter().enumerate().skip(self.cursor) {
            let fault = match step {
                ProofStep::Axiom { id, .. } => self.declare(*id, pos, false),
                ProofStep::Derived { id, lits, hints } => {
                    let unknown = hints.iter().copied().find(|&hint| !self.is_active(hint));
                    let verdict = self.declare(*id, pos, true).and(match unknown {
                        Some(hint) => Err(ProofError::UnknownHint { step: *id, hint }),
                        None => Ok(()),
                    });
                    // Judged now, against the database at this position; a
                    // log with a fault is rejected anyway, so skip it then.
                    if verdict.is_ok() && hints.is_empty() && self.fault.is_none() {
                        let before = &self.lines[..self.lines.len() - 1];
                        let db = active_bodies(before, steps);
                        if let Err(e) = verify_full_db(&mut self.assignment, *id, lits, &db) {
                            self.hintless_failures.insert(*id, e);
                        }
                    }
                    verdict
                }
                ProofStep::Delete { id } => match find(&self.lines, *id) {
                    Some(i) if self.lines[i].derived && self.lines[i].active => {
                        self.lines[i].active = false;
                        Ok(())
                    }
                    _ => Err(ProofError::BadDelete { id: *id }),
                },
            };
            if self.fault.is_none() {
                self.fault = fault.err();
            }
        }
        self.cursor = steps.len();
    }

    fn declare(&mut self, id: u64, pos: usize, derived: bool) -> Result<(), ProofError> {
        if self.lines.last().is_some_and(|l| id <= l.id) {
            return Err(ProofError::IdOrder { id });
        }
        self.lines.push(Line {
            id,
            step: u32::try_from(pos).expect("proof log longer than u32::MAX steps"),
            derived,
            active: true,
            verified: false,
            marked: false,
        });
        Ok(())
    }

    /// Checks `final_clause` against `steps`, which must extend the log of
    /// every earlier call. Structure first, then backward marking from the
    /// final clause's hints, then propagation verification of the newly
    /// marked lines in ascending id order, then the final clause.
    pub(crate) fn check(
        &mut self,
        steps: &[ProofStep],
        final_clause: &FinalClause,
    ) -> Result<CheckStats, ProofError> {
        self.consume(steps);
        if let Some(fault) = &self.fault {
            return Err(fault.clone());
        }
        if let Some(&hint) = final_clause.hints.iter().find(|&&h| !self.is_active(h)) {
            return Err(ProofError::UnknownHint { step: 0, hint });
        }
        let cone = self.mark_cone(steps, final_clause);
        let verdict = self.verify_cone(steps, &cone, final_clause);
        for &i in &cone {
            self.lines[i].marked = false;
        }
        verdict?;
        Ok(CheckStats {
            steps_total: steps.len(),
            steps_verified: cone.len() + 1,
        })
    }

    /// Marks the not-yet-verified derived lines the final clause depends
    /// on, walking hints backward from it; the walk stops at axioms and at
    /// verified lines. Returns the marked line indices, ascending.
    fn mark_cone(&mut self, steps: &[ProofStep], final_clause: &FinalClause) -> Vec<usize> {
        let mut cone = Vec::new();
        // Every line below `below` is marked or verified. Full-database RUP
        // may lean on any earlier line, so a hintless line (or a hintless,
        // non-tautological final) raises it to its own position.
        let mut below = 0;
        if final_clause.hints.is_empty() {
            if self.assignment.negate(&final_clause.lits) {
                self.mark_below(self.lines.len(), &mut below, &mut cone);
            }
        } else {
            for &hint in &final_clause.hints {
                self.mark(hint, &mut cone);
            }
        }
        let mut next = 0;
        while let Some(&i) = cone.get(next) {
            next += 1;
            let ProofStep::Derived { hints, .. } = &steps[self.lines[i].step as usize] else {
                unreachable!("only derived lines are marked");
            };
            if hints.is_empty() {
                self.mark_below(i, &mut below, &mut cone);
            } else {
                for &hint in hints {
                    self.mark(hint, &mut cone);
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    fn mark(&mut self, id: u64, cone: &mut Vec<usize>) {
        let i = find(&self.lines, id).expect("hints resolved by the structural pass");
        self.mark_index(i, cone);
    }

    fn mark_index(&mut self, i: usize, cone: &mut Vec<usize>) {
        let line = &mut self.lines[i];
        if line.derived && !line.verified && !line.marked {
            line.marked = true;
            cone.push(i);
        }
    }

    fn mark_below(&mut self, end: usize, below: &mut usize, cone: &mut Vec<usize>) {
        for i in *below..end {
            self.mark_index(i, cone);
        }
        *below = (*below).max(end);
    }

    /// Verifies the marked lines in ascending order, caching each success,
    /// then the final clause. Stops at the first failure, which is never
    /// cached.
    fn verify_cone(
        &mut self,
        steps: &[ProofStep],
        cone: &[usize],
        final_clause: &FinalClause,
    ) -> Result<(), ProofError> {
        for &i in cone {
            let ProofStep::Derived { id, lits, hints } = &steps[self.lines[i].step as usize] else {
                unreachable!("only derived lines are marked");
            };
            if hints.is_empty() {
                if let Some(e) = self.hintless_failures.get(id) {
                    return Err(e.clone());
                }
            } else {
                verify_hinted(&mut self.assignment, *id, lits, hints, |h| {
                    body_of(&self.lines, steps, h)
                })?;
            }
            self.lines[i].verified = true;
        }
        if final_clause.hints.is_empty() {
            let db = active_bodies(&self.lines, steps);
            verify_full_db(&mut self.assignment, 0, &final_clause.lits, &db)
        } else {
            let hints = &final_clause.hints;
            verify_hinted(&mut self.assignment, 0, &final_clause.lits, hints, |h| {
                body_of(&self.lines, steps, h)
            })
        }
    }
}

/// The one-shot acceptance procedure: hash binding (when `expected_hash`
/// is given), then a fresh [`Checker`] fed the whole log once.
pub(crate) fn check_certificate(
    expected_hash: Option<u64>,
    steps: &[ProofStep],
    final_clause: &FinalClause,
) -> Result<CheckStats, ProofError> {
    if let Some(expected) = expected_hash {
        let mut hash = FNV_OFFSET;
        for step in steps {
            if let ProofStep::Axiom { lits, .. } = step {
                for &lit in lits {
                    hash = fnv_word(hash, lit.code() as u32);
                }
                hash = fnv_word(hash, HASH_SEP);
            }
        }
        if hash != expected {
            return Err(ProofError::FormulaHashMismatch {
                expected,
                actual: hash,
            });
        }
    }
    Checker::default().check(steps, final_clause)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    fn axiom(id: u64, lits: &[i64]) -> ProofStep {
        ProofStep::Axiom {
            id,
            lits: lits.iter().map(|&n| lit(n)).collect(),
        }
    }

    fn derived(id: u64, lits: &[i64], hints: &[u64]) -> ProofStep {
        ProofStep::Derived {
            id,
            lits: lits.iter().map(|&n| lit(n)).collect(),
            hints: hints.to_vec(),
        }
    }

    fn fin(lits: &[i64], hints: &[u64]) -> FinalClause {
        FinalClause {
            lits: lits.iter().map(|&n| lit(n)).collect(),
            hints: hints.to_vec(),
        }
    }

    #[test]
    fn strict_rejects_out_of_order_hints() {
        // a ∧ b ∧ (¬a ∨ ¬b ∨ c) ⊢ c. The wide clause is unit only after
        // both units have propagated.
        let steps = vec![axiom(1, &[1]), axiom(2, &[2]), axiom(3, &[-1, -2, 3])];
        let good = fin(&[3], &[1, 2, 3]);
        assert!(check_certificate(None, &steps, &good).is_ok());
        // Cited first, the wide clause has two unassigned literals, and a
        // saturating checker would silently accept — strictness rejects.
        let bad = fin(&[3], &[3, 1, 2]);
        assert!(matches!(
            check_certificate(None, &steps, &bad),
            Err(ProofError::HintNotUnit { step: 0, hint: 3 })
        ));
    }

    #[test]
    fn satisfied_hint_is_rejected() {
        let steps = vec![axiom(1, &[1]), axiom(2, &[-1, 2]), axiom(3, &[1, 2])];
        // Assert ¬2: hint 3 = [1∨2]… after hint 1 propagates x, clause 3 is
        // satisfied → strict rejection.
        let bad = fin(&[2], &[1, 3]);
        assert!(matches!(
            check_certificate(None, &steps, &bad),
            Err(ProofError::SatisfiedHint { .. })
        ));
    }

    #[test]
    fn unknown_and_future_hints_are_rejected() {
        let steps = vec![axiom(1, &[1]), derived(2, &[1], &[7])];
        let f = fin(&[], &[1]);
        assert!(matches!(
            check_certificate(None, &steps, &f),
            Err(ProofError::UnknownHint { step: 2, hint: 7 })
        ));
    }

    #[test]
    fn ids_must_increase() {
        let steps = vec![axiom(2, &[1]), axiom(2, &[-1])];
        let f = fin(&[], &[2]);
        assert!(matches!(
            check_certificate(None, &steps, &f),
            Err(ProofError::IdOrder { id: 2 })
        ));
    }

    #[test]
    fn deleting_an_axiom_is_rejected() {
        let steps = vec![axiom(1, &[1]), ProofStep::Delete { id: 1 }];
        let f = fin(&[], &[1]);
        assert!(matches!(
            check_certificate(None, &steps, &f),
            Err(ProofError::BadDelete { id: 1 })
        ));
    }

    #[test]
    fn unmarked_garbage_is_structurally_checked_only() {
        // A bogus derived line outside the final cone: hints must still
        // resolve (structural), but its RUP is not checked.
        let steps = vec![
            axiom(1, &[1]),
            axiom(2, &[-1]),
            derived(3, &[2], &[1]), // not RUP, unmarked
        ];
        let f = fin(&[], &[1, 2]);
        assert!(check_certificate(None, &steps, &f).is_ok());
    }

    #[test]
    fn hintless_derived_falls_back_to_full_db() {
        let steps = vec![axiom(1, &[1]), axiom(2, &[-1, 2]), derived(3, &[2], &[])];
        let f = fin(&[-2], &[3]);
        // Final [¬2] cites 3; 3 is hintless → full-DB RUP (propagates x
        // from 1, conflicts on 2)… and the final itself: assert 2; hint 3 =
        // [2] satisfied → strict rejection. Use a fuller final instead.
        assert!(check_certificate(None, &steps, &f).is_err());
        let f = fin(&[], &[]);
        // Empty final with no hints: full-DB RUP over {x, ¬x∨y, y} — no
        // conflict (it is satisfiable), so rejected.
        assert!(matches!(
            check_certificate(None, &steps, &f),
            Err(ProofError::NoConflict { step: 0 })
        ));
    }
}
