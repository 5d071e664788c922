//! Independent checker for the session solver's clausal UNSAT certificates.
//!
//! The solver (`rbmc-solver`) can log every original clause, every derived
//! clause with LRAT-style antecedent hints, every deletion, and a final
//! clause per UNSAT episode. This crate replays such a log **without any
//! dependency on the solver** — it consumes only [`rbmc_cnf`] literals — and
//! accepts a certificate only if every step it depends on is a genuine
//! reverse-unit-propagation (RUP) consequence of the clauses before it:
//!
//! - A [`ProofRecorder`] accumulates the step log (one per solver) and can
//!   check the current episode in place, or snapshot it into an owned
//!   [`CertificateBundle`].
//! - A [`CertificateBundle`] is the self-contained, file-backable form: the
//!   axiom/derived/delete step list, the episode's final clause, and a
//!   formula hash binding the certificate to the exact input clause sequence
//!   — a certificate replayed against a different formula fails the hash
//!   check before any propagation runs.
//! - Checking is **backward**: only the steps reachable from the final
//!   clause's hints are propagation-verified (the rest get structural checks
//!   only).
//! - Checking is **append-only**: a recorder's checker consumes each logged
//!   step once, structurally, and propagation-verifies each derived line at
//!   most once — logged lines never change, so a line accepted for one
//!   episode stays accepted for every later one. An episode's check costs
//!   the steps logged since the previous check, plus the derived lines its
//!   final clause reaches that no earlier episode reached, plus the final
//!   clause itself; repeated per-episode checks of an incremental session
//!   are therefore linear in the log overall. A one-shot
//!   [`CertificateBundle::check`] is the same procedure from an empty
//!   cache.
//! - Hint verification is **strict LRAT**: hints are processed in order and
//!   each cited clause must be unit (propagating one literal) until a
//!   conflict closes the step. A satisfied or non-unit hint rejects the
//!   certificate — the checker is deliberately intolerant, so corrupted or
//!   reordered hint lists cannot slip through. Steps with no hints fall
//!   back to full-database RUP.
//!
//! # Examples
//!
//! A two-step refutation of `x ∧ ¬x`, checked end to end:
//!
//! ```
//! use rbmc_cnf::Lit;
//! use rbmc_proof::ProofRecorder;
//!
//! let x = Lit::from_dimacs(1);
//! let mut rec = ProofRecorder::new();
//! rec.axiom(1, &[x]);
//! rec.axiom(2, &[!x]);
//! // The solver derives the empty clause from both units.
//! rec.finalize(&[], &[1, 2]);
//! let stats = rec.check_current().expect("valid certificate");
//! assert_eq!(stats.steps_verified, 1); // just the final clause
//!
//! // A second episode: only the new line and the new final are verified.
//! rec.derived(3, &[x], &[1]);
//! rec.finalize(&[], &[3, 2]);
//! assert_eq!(rec.check_current().unwrap().steps_verified, 2);
//! let bundle = rec.bundle();
//! assert!(bundle.check().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod text;

use rbmc_cnf::Lit;

pub use check::{CheckStats, ProofError};
pub use text::ParseLratError;

/// One line of a clausal proof log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An original clause of the input formula, in `add_clause` order.
    Axiom {
        /// Proof line id (shared, strictly increasing sequence).
        id: u64,
        /// The clause as given.
        lits: Vec<Lit>,
    },
    /// A derived clause: RUP under the hints (processed in order, each hint
    /// must be unit until one conflicts).
    Derived {
        /// Proof line id.
        id: u64,
        /// The derived clause.
        lits: Vec<Lit>,
        /// Earlier proof lines justifying the derivation.
        hints: Vec<u64>,
    },
    /// The derived clause with the given id left the database.
    Delete {
        /// Proof line id of the deleted derived clause.
        id: u64,
    },
}

impl ProofStep {
    /// The proof line id this step declares or retracts.
    pub fn id(&self) -> u64 {
        match self {
            ProofStep::Axiom { id, .. }
            | ProofStep::Derived { id, .. }
            | ProofStep::Delete { id } => *id,
        }
    }
}

/// The final clause of one UNSAT episode: the negation of the episode's
/// failed assumptions, or empty when the clause database is unsatisfiable
/// outright. Not part of the database; justified like a derived step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FinalClause {
    /// The episode's final clause.
    pub lits: Vec<Lit>,
    /// Hints justifying it (same semantics as [`ProofStep::Derived`]).
    pub hints: Vec<u64>,
}

/// A self-contained, owned UNSAT certificate: the step log up to one
/// episode's final clause, bound to the input formula by a hash over the
/// axiom sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertificateBundle {
    /// FNV-1a hash over the axiom lines in order (see
    /// [`ProofRecorder::formula_hash`]). [`CertificateBundle::check`]
    /// recomputes it from [`CertificateBundle::steps`] and rejects on
    /// mismatch, so a certificate cannot be replayed against a formula it
    /// was not produced from.
    pub formula_hash: u64,
    /// The proof lines, in emission order.
    pub steps: Vec<ProofStep>,
    /// The episode's final clause.
    pub final_clause: FinalClause,
}

impl CertificateBundle {
    /// Verifies the certificate: hash binding, structural coherence of ids
    /// and hints, and backward RUP/LRAT checking of every step the final
    /// clause depends on — a fresh checker fed the whole log once.
    pub fn check(&self) -> Result<CheckStats, ProofError> {
        check::check_certificate(Some(self.formula_hash), &self.steps, &self.final_clause)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds one `u32` word into a running FNV-1a hash, byte by byte.
fn fnv_word(mut hash: u64, word: u32) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Clause separator fed to the hash between axiom lines (no literal code
/// collides with it: codes come from `var << 1 | sign` over in-use vars).
const HASH_SEP: u32 = u32::MAX;

/// Accumulates a solver's proof log and checks episodes in place.
///
/// One recorder serves one solver for its whole incremental session; each
/// UNSAT episode overwrites the final clause, and checking or bundling
/// always refers to the most recent one. The recorder owns an append-only
/// checker over its log (see the crate docs), so checking every episode in
/// turn costs one pass over the log overall. See the crate docs for an
/// example.
#[derive(Clone, Debug)]
pub struct ProofRecorder {
    steps: Vec<ProofStep>,
    final_clause: Option<FinalClause>,
    /// Running FNV-1a over the axiom lines.
    hash: u64,
    num_axioms: u64,
    /// Checker state over `steps`, advanced on each check or audit.
    checker: check::Checker,
}

// Not derived: the derived impl would zero-initialise `hash`, silently
// diverging from the FNV offset basis `new()` seeds — every certificate
// bundled from a defaulted recorder would then fail its own hash binding.
impl Default for ProofRecorder {
    fn default() -> ProofRecorder {
        ProofRecorder::new()
    }
}

impl ProofRecorder {
    /// Creates an empty recorder.
    pub fn new() -> ProofRecorder {
        ProofRecorder {
            steps: Vec::new(),
            final_clause: None,
            hash: FNV_OFFSET,
            num_axioms: 0,
            checker: check::Checker::default(),
        }
    }

    /// Records an axiom line (original clause).
    pub fn axiom(&mut self, id: u64, lits: &[Lit]) {
        for &lit in lits {
            self.hash = fnv_word(self.hash, lit.code() as u32);
        }
        self.hash = fnv_word(self.hash, HASH_SEP);
        self.num_axioms += 1;
        self.steps.push(ProofStep::Axiom {
            id,
            lits: lits.to_vec(),
        });
    }

    /// Records a derived line (learned clause or root-level unit fact).
    pub fn derived(&mut self, id: u64, lits: &[Lit], hints: &[u64]) {
        self.steps.push(ProofStep::Derived {
            id,
            lits: lits.to_vec(),
            hints: hints.to_vec(),
        });
    }

    /// Records the deletion of a derived line.
    pub fn delete(&mut self, id: u64) {
        self.steps.push(ProofStep::Delete { id });
    }

    /// Records (or replaces) the current episode's final clause.
    pub fn finalize(&mut self, lits: &[Lit], hints: &[u64]) {
        self.final_clause = Some(FinalClause {
            lits: lits.to_vec(),
            hints: hints.to_vec(),
        });
    }

    /// The FNV-1a hash over the axiom lines recorded so far — the identity
    /// of the formula the log is about.
    pub fn formula_hash(&self) -> u64 {
        self.hash
    }

    /// Number of proof lines recorded so far (excluding the final clause).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of axiom lines recorded so far.
    pub fn num_axioms(&self) -> u64 {
        self.num_axioms
    }

    /// The most recent episode's final clause, if any episode ended UNSAT.
    pub fn final_clause(&self) -> Option<&FinalClause> {
        self.final_clause.as_ref()
    }

    /// Derived line ids without a deletion record, sorted ascending — the
    /// recorder's half of the `debug-invariants` coherence audit. Read off
    /// the checker's live set after it consumes the pending steps.
    pub fn live_derived_sorted(&mut self) -> Vec<u64> {
        self.checker.consume(&self.steps);
        self.checker.live_derived()
    }

    /// Checks the current episode in place (no copy of the log): the most
    /// recent final clause against the steps recorded so far. The hash is
    /// the recorder's own, so only structure and propagation are verified.
    /// Only the steps logged since the previous call, and the lines no
    /// earlier call verified, are checked (see the crate docs).
    ///
    /// Returns [`ProofError::NoFinal`] if no episode has ended UNSAT yet.
    pub fn check_current(&mut self) -> Result<CheckStats, ProofError> {
        let final_clause = self.final_clause.as_ref().ok_or(ProofError::NoFinal)?;
        self.checker.check(&self.steps, final_clause)
    }

    /// Snapshots the log into an owned [`CertificateBundle`] for the most
    /// recent episode.
    ///
    /// # Panics
    ///
    /// Panics if no episode has ended UNSAT (there is nothing to certify).
    pub fn bundle(&self) -> CertificateBundle {
        CertificateBundle {
            formula_hash: self.hash,
            steps: self.steps.clone(),
            final_clause: self
                .final_clause
                .clone()
                .expect("bundle requires an UNSAT episode"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    /// x ∧ (¬x ∨ y) ∧ ¬y: unit propagation refutes; the recorder logs the
    /// two root facts as derived lines and the empty final.
    fn chain_recorder() -> ProofRecorder {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.axiom(2, &[lit(-1), lit(2)]);
        rec.axiom(3, &[lit(-2)]);
        // Root facts, hints in propagation order.
        rec.derived(4, &[lit(1)], &[1]);
        rec.derived(5, &[lit(2)], &[4, 2]);
        rec.finalize(&[], &[5, 3]);
        rec
    }

    #[test]
    fn valid_chain_checks() {
        let mut rec = chain_recorder();
        let stats = rec.check_current().unwrap();
        assert_eq!(stats.steps_total, 5);
        assert!(stats.steps_verified >= 3);
        assert!(rec.bundle().check().is_ok());
    }

    #[test]
    fn assumption_episode_final() {
        // (¬a ∨ x) ∧ (¬a ∨ ¬x) refutes the assumption a: final = [¬a].
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(-3), lit(1)]);
        rec.axiom(2, &[lit(-3), lit(-1)]);
        rec.finalize(&[lit(-3)], &[1, 2]);
        assert!(rec.check_current().is_ok());
    }

    #[test]
    fn tautological_final_is_trivially_valid() {
        // Self-contradictory assumptions: final [¬a, a], no hints.
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1), lit(2)]);
        rec.finalize(&[lit(-3), lit(3)], &[]);
        assert!(rec.check_current().is_ok());
    }

    #[test]
    fn no_final_is_an_error() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        assert!(matches!(rec.check_current(), Err(ProofError::NoFinal)));
    }

    #[test]
    fn hash_binds_the_formula() {
        let rec = chain_recorder();
        let mut bundle = rec.bundle();
        bundle.formula_hash ^= 0xdead_beef;
        assert!(matches!(
            bundle.check(),
            Err(ProofError::FormulaHashMismatch { .. })
        ));
    }

    #[test]
    fn deleted_lines_leave_the_live_set() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1), lit(2)]);
        rec.derived(2, &[lit(1)], &[]);
        rec.derived(3, &[lit(2)], &[]);
        rec.delete(2);
        assert_eq!(rec.live_derived_sorted(), vec![3]);
        assert_eq!(rec.num_axioms(), 1);
    }

    /// Checks the current episode incrementally and from scratch; the two
    /// must agree (same error, or both accept). Returns the incremental
    /// result.
    fn check_both(rec: &mut ProofRecorder) -> Result<CheckStats, ProofError> {
        let incremental = rec.check_current();
        let one_shot = rec.bundle().check();
        assert_eq!(incremental.as_ref().err(), one_shot.as_ref().err());
        incremental
    }

    #[test]
    fn uncited_corrupt_line_is_rejected_once_reached_and_never_cached() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.axiom(2, &[lit(-1)]);
        // Not RUP: ¬2 plus the unit 1 propagates, but nothing conflicts.
        rec.derived(3, &[lit(2)], &[1]);
        rec.finalize(&[], &[1, 2]);
        assert_eq!(check_both(&mut rec).unwrap().steps_verified, 1);
        // A valid line citing the corrupt one: the first cone that reaches
        // line 3 rejects it.
        rec.derived(4, &[lit(2)], &[3]);
        rec.finalize(&[lit(2)], &[4]);
        let bad = Err(ProofError::NoConflict { step: 3 });
        assert_eq!(check_both(&mut rec), bad);
        // A cone that avoids it is still accepted...
        rec.finalize(&[], &[1, 2]);
        assert_eq!(check_both(&mut rec).unwrap().steps_verified, 1);
        // ...and every later cone through it rejects again, directly or via
        // line 4: the failure was not cached as a verdict.
        rec.finalize(&[lit(2)], &[4]);
        assert_eq!(check_both(&mut rec), bad);
        rec.finalize(&[lit(2)], &[3]);
        assert_eq!(check_both(&mut rec), bad);
    }

    /// Axioms over which `[x3]` is RUP only with the unit `[x1]` present:
    /// (x1∨x2), (x1∨¬x2) — which yield x1 only by RUP, not by propagation
    /// alone — plus (x3∨x6), (¬x1∨¬x6∨x7), (¬x1∨¬x6∨¬x7).
    fn needs_unit_x1() -> ProofRecorder {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1), lit(2)]);
        rec.axiom(2, &[lit(1), lit(-2)]);
        rec.axiom(3, &[lit(3), lit(6)]);
        rec.axiom(4, &[lit(-1), lit(-6), lit(7)]);
        rec.axiom(5, &[lit(-1), lit(-6), lit(-7)]);
        rec
    }

    #[test]
    fn hintless_line_is_judged_at_its_own_position() {
        // Valid when logged (the unit x1 is in the database), then the unit
        // is deleted: the verdict must not change.
        let mut rec = needs_unit_x1();
        rec.derived(6, &[lit(1)], &[1, 2]);
        rec.derived(7, &[lit(3)], &[]);
        rec.finalize(&[lit(1)], &[6]);
        assert!(check_both(&mut rec).is_ok());
        rec.delete(6);
        rec.finalize(&[lit(3)], &[7]);
        // Line 7 plus the final clause; line 6 was verified already.
        assert_eq!(check_both(&mut rec).unwrap().steps_verified, 2);

        // Invalid when logged (no unit x1 yet); deriving the unit afterwards
        // must not rescue it.
        let mut rec = needs_unit_x1();
        rec.derived(6, &[lit(3)], &[]);
        rec.derived(7, &[lit(1)], &[1, 2]);
        rec.finalize(&[lit(1)], &[7]);
        assert!(check_both(&mut rec).is_ok());
        rec.finalize(&[lit(3)], &[6]);
        assert_eq!(
            check_both(&mut rec),
            Err(ProofError::NoConflict { step: 6 })
        );
    }

    #[test]
    fn citing_a_line_deleted_earlier_is_rejected_even_if_verified() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.axiom(2, &[lit(-1)]);
        rec.derived(3, &[lit(1)], &[1]);
        rec.finalize(&[], &[3, 2]);
        assert_eq!(check_both(&mut rec).unwrap().steps_verified, 2);
        rec.delete(3);
        // The final clause cites the deleted (but verified) line.
        rec.finalize(&[], &[3, 2]);
        assert_eq!(
            check_both(&mut rec),
            Err(ProofError::UnknownHint { step: 0, hint: 3 })
        );
        // So does a later derived line; that structural fault rejects every
        // later episode, whatever its final clause cites.
        rec.derived(4, &[lit(1)], &[3]);
        rec.finalize(&[], &[1, 2]);
        let bad = Err(ProofError::UnknownHint { step: 4, hint: 3 });
        assert_eq!(check_both(&mut rec), bad);
        rec.axiom(5, &[lit(2)]);
        assert_eq!(check_both(&mut rec), bad);
    }

    #[test]
    fn citing_a_deleted_line_is_rejected() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.derived(2, &[lit(1)], &[1]);
        rec.delete(2);
        rec.finalize(&[lit(1)], &[2]);
        assert!(matches!(
            rec.check_current(),
            Err(ProofError::UnknownHint { .. })
        ));
    }
}
