//! Decision ordering: Chaff's literal-based VSIDS combined with the
//! externally supplied `bmc_score` ranking (paper §3.3).
//!
//! Every literal `l` carries `cha_score(l)`, initialized to its literal count
//! in the original CNF. After every `halve_interval` conflicts the solver
//! applies `cha_score(l) = cha_score(l) / 2 + new_lit_counts(l)` where
//! `new_lit_counts(l)` is the number of conflict clauses learned since the
//! last update that contain `l`.
//!
//! The BMC refinement supplies a per-variable `bmc_score`. In the **static**
//! configuration the decision key is `(bmc_score, cha_score)` throughout; in
//! the **dynamic** configuration it starts that way and collapses to
//! `(0, cha_score)` — pure VSIDS — once the number of decisions exceeds
//! `#original_literals / divisor` (the paper uses 64).
//!
//! Keys only change at halving boundaries, at BMC-rank installation, at the
//! dynamic switch, and when clauses are added between episodes, so the
//! max-heap caches its keys and refreshes them at those points only. A
//! refresh costs what changed: the ordering tracks the variables whose keys
//! may have moved (new literal counts, changed rank entries, newly active
//! variables) and re-keys and re-sifts just those. Only a change that moves
//! every key — a halving, the dynamic switch, or turning the rank on or off
//! — pays for a full heapify. Keys form a strict total order (the literal
//! code breaks ties), so the decision sequence does not depend on how the
//! heap was arrived at, only on the keys and the set of candidates.

use rbmc_cnf::{Lit, Var};

use crate::LBool;

/// How the decision ordering combines `bmc_score` and `cha_score` (§3.3).
///
/// # Examples
///
/// ```
/// use rbmc_solver::OrderMode;
///
/// let mode = OrderMode::Dynamic { divisor: 64 };
/// assert_ne!(mode, OrderMode::Standard);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OrderMode {
    /// Chaff's default: sort exclusively by `cha_score` (VSIDS).
    #[default]
    Standard,
    /// Paper's static configuration: `bmc_score` primary, `cha_score`
    /// tiebreaker, for the whole solve.
    Static,
    /// Paper's dynamic configuration: like [`OrderMode::Static`] until the
    /// number of decisions exceeds `#original_literals / divisor`, then pure
    /// VSIDS. The paper fixes `divisor = 64`.
    Dynamic {
        /// Denominator of the decision-count threshold.
        divisor: u32,
    },
}

/// The decision key of a literal: primary score, secondary score, and a
/// deterministic tiebreaker (lower literal code wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    primary: u64,
    secondary: u64,
    code: u32,
}

impl Key {
    /// Total order: larger scores first; between equal scores, the literal
    /// with the *smaller* code is considered greater (deterministic and
    /// stable across runs).
    fn beats(&self, other: &Key) -> bool {
        (self.primary, self.secondary, std::cmp::Reverse(self.code))
            > (
                other.primary,
                other.secondary,
                std::cmp::Reverse(other.code),
            )
    }
}

/// Indexed binary max-heap over literals with cached keys.
///
/// Keys are refreshed by [`LitOrder::rebuild`]; between refreshes they are
/// frozen, which mirrors Chaff's "sort periodically" behaviour.
pub(crate) struct LitOrder {
    /// Heap of literal codes, ordered by `key`.
    heap: Vec<u32>,
    /// `pos[code]` = index in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
    /// Cached decision key per literal code.
    key: Vec<Key>,
    /// Current `cha_score` per literal code.
    cha: Vec<u64>,
    /// Conflict-clause literal counts since the last halving.
    new_counts: Vec<u64>,
    /// Externally supplied per-variable ranking (the BMC refinement).
    bmc: Vec<u64>,
    /// Whether `bmc` participates as the primary key.
    use_bmc: bool,
    /// Whether the variable occurs in some clause. Reserved-but-unused
    /// variables (an incremental session reserves the whole future variable
    /// range up front) are never decision candidates: no clause constrains
    /// them, so any model extends to them trivially.
    active: Vec<bool>,
    /// Every cached key is stale (a halving, the dynamic switch, a change of
    /// `use_bmc`, or nothing keyed yet): the next rebuild re-keys and
    /// heapifies from scratch.
    all_stale: bool,
    /// Variables whose keys may have moved, or which became active, since
    /// the last rebuild; each listed once (see `is_dirty`). Unused while
    /// `all_stale` is set.
    dirty: Vec<u32>,
    /// Membership flags of `dirty`, by variable.
    is_dirty: Vec<bool>,
    /// `bmc[bmc_len..]` is all zero (the length of the last installed rank
    /// table), so installing a table touches only the longer of the two.
    bmc_len: usize,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl std::fmt::Debug for LitOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitOrder")
            .field("len", &self.heap.len())
            .field("use_bmc", &self.use_bmc)
            .finish()
    }
}

impl LitOrder {
    /// Creates an ordering over `num_vars` variables with all-zero scores.
    pub(crate) fn new(num_vars: usize) -> LitOrder {
        let n = 2 * num_vars;
        LitOrder {
            heap: Vec::with_capacity(n),
            pos: vec![NOT_IN_HEAP; n],
            key: vec![
                Key {
                    primary: 0,
                    secondary: 0,
                    code: 0
                };
                n
            ],
            cha: vec![0; n],
            new_counts: vec![0; n],
            bmc: vec![0; num_vars],
            use_bmc: false,
            active: vec![false; num_vars],
            all_stale: true,
            dirty: Vec::new(),
            is_dirty: vec![false; num_vars],
            bmc_len: 0,
        }
    }

    /// Grows the ordering to cover `num_vars` variables.
    pub(crate) fn grow(&mut self, num_vars: usize) {
        let n = 2 * num_vars;
        if n <= self.pos.len() {
            return;
        }
        self.pos.resize(n, NOT_IN_HEAP);
        self.key.resize(
            n,
            Key {
                primary: 0,
                secondary: 0,
                code: 0,
            },
        );
        self.cha.resize(n, 0);
        self.new_counts.resize(n, 0);
        self.bmc.resize(num_vars, 0);
        self.active.resize(num_vars, false);
        self.is_dirty.resize(num_vars, false);
    }

    /// Number of variables covered.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn num_vars(&self) -> usize {
        self.bmc.len()
    }

    /// Records that variable `v`'s keys may have moved (or that it needs
    /// inserting) for the next [`LitOrder::rebuild`].
    fn mark_dirty(&mut self, v: usize) {
        if !self.all_stale && !self.is_dirty[v] {
            self.is_dirty[v] = true;
            self.dirty.push(v as u32);
        }
    }

    /// Adds `delta` to the initial `cha_score` of `lit` (used while loading
    /// the original formula: the initial value is the literal count). Also
    /// marks the literal's variable active: a decision candidate from the
    /// next [`LitOrder::rebuild`] on.
    pub(crate) fn add_initial_count(&mut self, lit: Lit, delta: u64) {
        let v = lit.var().index();
        self.cha[lit.code()] += delta;
        self.active[v] = true;
        self.mark_dirty(v);
    }

    /// Records the literals of a newly learned conflict clause
    /// (`new_lit_counts` in the paper).
    pub(crate) fn on_learned_clause(&mut self, lits: &[Lit]) {
        for lit in lits {
            self.new_counts[lit.code()] += 1;
        }
    }

    /// Installs the per-variable BMC ranking and enables/disables its use as
    /// the primary key. Callers must [`LitOrder::rebuild`] afterwards.
    ///
    /// Costs the longer of the new and the previous table: entries beyond
    /// both are zero already. While the rank is in use, each entry that
    /// actually changes marks its variable for re-keying.
    pub(crate) fn set_bmc_scores(&mut self, scores: &[u64], use_bmc: bool) {
        assert!(
            scores.len() <= self.bmc.len(),
            "rank table larger than variable range"
        );
        if use_bmc != self.use_bmc {
            self.use_bmc = use_bmc;
            self.all_stale = true;
        }
        for v in 0..scores.len().max(self.bmc_len) {
            let score = scores.get(v).copied().unwrap_or(0);
            if self.bmc[v] != score {
                self.bmc[v] = score;
                if use_bmc {
                    self.mark_dirty(v);
                }
            }
        }
        self.bmc_len = scores.len();
    }

    /// Returns whether `bmc_score` is currently the primary key.
    pub(crate) fn uses_bmc(&self) -> bool {
        self.use_bmc
    }

    /// Switches to pure VSIDS (the dynamic fallback). Callers must
    /// [`LitOrder::rebuild`] afterwards.
    pub(crate) fn disable_bmc(&mut self) {
        if self.use_bmc {
            self.use_bmc = false;
            self.all_stale = true;
        }
    }

    /// Applies the periodic update `cha = cha/2 + new_counts` and clears the
    /// per-period counters. Callers must [`LitOrder::rebuild`] afterwards.
    pub(crate) fn halve_scores(&mut self) {
        for (score, fresh) in self.cha.iter_mut().zip(self.new_counts.iter_mut()) {
            *score = *score / 2 + *fresh;
            *fresh = 0;
        }
        self.all_stale = true;
    }

    /// Brings the heap up to date with every key change since the last
    /// call: afterwards every cached key is fresh and every literal of an
    /// active variable unassigned in `values` (indexed by variable) is in
    /// the heap. When every key is stale this recomputes all keys and
    /// heapifies the active unassigned literals from scratch; otherwise it
    /// re-keys and re-sifts only the dirty variables' literals, inserting
    /// those not in the heap yet.
    pub(crate) fn rebuild(&mut self, values: &[LBool]) {
        if !self.all_stale {
            for i in 0..self.dirty.len() {
                let v = self.dirty[i] as usize;
                self.is_dirty[v] = false;
                for code in [2 * v, 2 * v + 1] {
                    self.rekey(code, values);
                }
            }
            self.dirty.clear();
            return;
        }
        self.all_stale = false;
        for &v in &self.dirty {
            self.is_dirty[v as usize] = false;
        }
        self.dirty.clear();
        for code in 0..self.key.len() {
            self.key[code] = self.make_key(code);
        }
        self.heap.clear();
        for p in &mut self.pos {
            *p = NOT_IN_HEAP;
        }
        for code in 0..self.key.len() {
            let lit = Lit::from_code(code);
            let v = lit.var().index();
            if self.active[v] && values[v].is_undef() {
                self.pos[code] = self.heap.len() as u32;
                self.heap.push(code as u32);
            }
        }
        if !self.heap.is_empty() {
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        }
    }

    /// Refreshes the key of literal `code`, restoring its heap position, or
    /// inserts it if it is a candidate missing from the heap.
    fn rekey(&mut self, code: usize, values: &[LBool]) {
        let old = self.key[code];
        let fresh = self.make_key(code);
        self.key[code] = fresh;
        let at = self.pos[code];
        if at != NOT_IN_HEAP {
            if fresh.beats(&old) {
                self.sift_up(at as usize);
            } else {
                self.sift_down(at as usize);
            }
        } else if self.active[code >> 1] && values[code >> 1].is_undef() {
            self.insert(code);
        }
    }

    /// Pushes literal `code` (not in the heap) and sifts it into place.
    fn insert(&mut self, code: usize) {
        self.pos[code] = self.heap.len() as u32;
        self.heap.push(code as u32);
        self.sift_up(self.heap.len() - 1);
    }

    fn make_key(&self, code: usize) -> Key {
        let var_index = code >> 1;
        Key {
            primary: if self.use_bmc { self.bmc[var_index] } else { 0 },
            secondary: self.cha[code],
            code: code as u32,
        }
    }

    /// Inserts both literals of `var` (if absent and the variable is
    /// active). Called when a variable is unassigned during backtracking.
    pub(crate) fn reinsert_var(&mut self, var: Var) {
        if !self.active[var.index()] {
            return;
        }
        for lit in [var.positive(), var.negative()] {
            let code = lit.code();
            if self.pos[code] == NOT_IN_HEAP {
                self.insert(code);
            }
        }
    }

    /// Pops the unassigned literal with the greatest key (according to
    /// `values`, indexed by variable).
    ///
    /// Literals of assigned variables encountered on the way are discarded
    /// (they are reinserted by [`LitOrder::reinsert_var`] when unassigned).
    pub(crate) fn pop_best(&mut self, values: &[LBool]) -> Option<Lit> {
        while let Some(&top) = self.heap.first() {
            let lit = Lit::from_code(top as usize);
            self.remove_top();
            if values[lit.var().index()].is_undef() {
                return Some(lit);
            }
        }
        None
    }

    fn remove_top(&mut self) {
        let top = self.heap[0];
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("heap is nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (ci, cp) = (self.heap[i] as usize, self.heap[parent] as usize);
            if self.key[ci].beats(&self.key[cp]) {
                self.heap.swap(i, parent);
                self.pos[ci] = parent as u32;
                self.pos[cp] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            let mut best = i;
            if left < self.heap.len()
                && self.key[self.heap[left] as usize].beats(&self.key[self.heap[best] as usize])
            {
                best = left;
            }
            if right < self.heap.len()
                && self.key[self.heap[right] as usize].beats(&self.key[self.heap[best] as usize])
            {
                best = right;
            }
            if best == i {
                break;
            }
            let (ci, cb) = (self.heap[i] as usize, self.heap[best] as usize);
            self.heap.swap(i, best);
            self.pos[ci] = best as u32;
            self.pos[cb] = i as u32;
            i = best;
        }
    }

    /// Exposes the current `cha_score` of a literal (tests, diagnostics).
    #[cfg(test)]
    pub(crate) fn cha_score(&self, lit: Lit) -> u64 {
        self.cha[lit.code()]
    }

    /// Checks the heap right after a [`LitOrder::rebuild`]: `heap` and
    /// `pos` agree, the max-heap property holds, no refresh is pending,
    /// every cached key of an active variable's literal equals a freshly
    /// computed one, and every literal of an active variable unassigned in
    /// `values` is in the heap. Returns the first violation.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn audit(&self, values: &[LBool]) -> Result<(), String> {
        if self.all_stale || !self.dirty.is_empty() {
            return Err("order: a refresh is pending".to_string());
        }
        for (i, &code) in self.heap.iter().enumerate() {
            if self.pos[code as usize] != i as u32 {
                return Err(format!(
                    "order: literal {code} at heap slot {i} records another"
                ));
            }
            if i > 0 {
                let parent = self.heap[(i - 1) / 2] as usize;
                if self.key[code as usize].beats(&self.key[parent]) {
                    return Err(format!("order: literal {code} outranks its heap parent"));
                }
            }
        }
        for (v, &active) in self.active.iter().enumerate() {
            if !active {
                continue;
            }
            for code in [2 * v, 2 * v + 1] {
                if self.key[code] != self.make_key(code) {
                    return Err(format!(
                        "order: stale key {:?} cached for literal {code}, fresh {:?}",
                        self.key[code],
                        self.make_key(code)
                    ));
                }
                if values[v].is_undef() && self.pos[code] == NOT_IN_HEAP {
                    return Err(format!(
                        "order: unassigned literal {code} missing from the heap"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    /// All `n` variables unassigned.
    fn free(n: usize) -> Vec<LBool> {
        vec![LBool::Undef; n]
    }

    #[test]
    fn pop_order_follows_cha_scores() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        ord.add_initial_count(lit(1), 5);
        ord.add_initial_count(lit(-2), 9);
        ord.add_initial_count(lit(3), 1);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(-2)));
        assert_eq!(ord.pop_best(&v), Some(lit(1)));
        assert_eq!(ord.pop_best(&v), Some(lit(3)));
    }

    #[test]
    fn bmc_score_takes_priority_in_static_mode() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 100); // huge cha score
        ord.add_initial_count(lit(2), 1);
        ord.set_bmc_scores(&[0, 50], true); // but var 1 is ranked
        ord.rebuild(&v);
        // Both phases of the ranked variable come before the unranked one.
        let first = ord.pop_best(&v).unwrap();
        assert_eq!(first.var(), Var::new(1));
    }

    #[test]
    fn disabling_bmc_restores_vsids() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 100);
        ord.add_initial_count(lit(2), 0);
        ord.set_bmc_scores(&[0, 50], true);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v).unwrap().var(), Var::new(1));
        ord.disable_bmc();
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(1)));
    }

    #[test]
    fn halving_applies_paper_formula() {
        let mut ord = LitOrder::new(1);
        ord.add_initial_count(lit(1), 9);
        ord.on_learned_clause(&[lit(1)]);
        ord.on_learned_clause(&[lit(1)]);
        ord.halve_scores();
        // 9/2 + 2 = 6 (integer division).
        assert_eq!(ord.cha_score(lit(1)), 6);
        // Counts are cleared after the update.
        ord.halve_scores();
        assert_eq!(ord.cha_score(lit(1)), 3);
    }

    #[test]
    fn pop_skips_assigned_vars() {
        let mut ord = LitOrder::new(2);
        ord.add_initial_count(lit(1), 10);
        ord.add_initial_count(lit(2), 5);
        let mut v = free(2);
        ord.rebuild(&v);
        // Variable 0 is assigned: its two literals are discarded.
        v[0] = LBool::True;
        let got = ord.pop_best(&v).unwrap();
        assert_eq!(got, lit(2));
    }

    #[test]
    fn reinsert_makes_var_poppable_again() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 10);
        ord.rebuild(&v);
        // Discard everything.
        while ord.pop_best(&v).is_some() {}
        assert_eq!(ord.pop_best(&v), None);
        ord.reinsert_var(Var::new(0));
        assert_eq!(ord.pop_best(&v), Some(lit(1)));
    }

    #[test]
    fn deterministic_tiebreak_prefers_smaller_code() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        for i in 0..3 {
            ord.add_initial_count(Var::new(i).positive(), 0);
        }
        ord.rebuild(&v);
        // All scores equal: positive literal of variable 0 first.
        assert_eq!(ord.pop_best(&v), Some(Var::new(0).positive()));
        assert_eq!(ord.pop_best(&v), Some(Var::new(0).negative()));
        assert_eq!(ord.pop_best(&v), Some(Var::new(1).positive()));
    }

    #[test]
    fn grow_extends_tables() {
        let mut ord = LitOrder::new(1);
        ord.grow(4);
        let v = free(4);
        assert_eq!(ord.num_vars(), 4);
        ord.add_initial_count(lit(4), 3);
        ord.rebuild(&v);
        let mut seen = Vec::new();
        while let Some(l) = ord.pop_best(&v) {
            seen.push(l);
        }
        // Only the active (occurring) variable's literals are candidates.
        assert_eq!(seen, vec![lit(4), lit(-4)]);
    }

    #[test]
    fn inactive_vars_are_never_candidates() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        ord.add_initial_count(lit(2), 1);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(2)));
        assert_eq!(ord.pop_best(&v), Some(lit(-2)));
        assert_eq!(ord.pop_best(&v), None);
        // Reinsertion of an inactive variable is a no-op.
        ord.reinsert_var(Var::new(0));
        assert_eq!(ord.pop_best(&v), None);
        ord.reinsert_var(Var::new(1));
        assert_eq!(ord.pop_best(&v), Some(lit(2)));
    }

    /// The ordering's inputs, kept independently of [`LitOrder`]: the
    /// brute-force oracle computes every key fresh from these.
    struct Shadow {
        cha: Vec<u64>,
        fresh: Vec<u64>,
        bmc: Vec<u64>,
        use_bmc: bool,
        active: Vec<bool>,
    }

    impl Shadow {
        fn grow(&mut self, num_vars: usize) {
            self.cha.resize(2 * num_vars, 0);
            self.fresh.resize(2 * num_vars, 0);
            self.bmc.resize(num_vars, 0);
            self.active.resize(num_vars, false);
        }

        /// The unassigned literal of an active variable with the greatest
        /// fresh key: rank (when in use), then score, then smaller code.
        fn best(&self, values: &[LBool]) -> Option<Lit> {
            (0..self.cha.len())
                .filter(|&code| self.active[code >> 1] && values[code >> 1].is_undef())
                .max_by_key(|&code| {
                    let rank = if self.use_bmc { self.bmc[code >> 1] } else { 0 };
                    (rank, self.cha[code], std::cmp::Reverse(code))
                })
                .map(Lit::from_code)
        }
    }

    /// Seeded xorshift64 (tests only; no external RNG).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Random interleavings of every operation the solver performs on the
    /// ordering, in the orders the solver performs them: score and rank
    /// changes between episodes (after backtracking to the root), halvings
    /// and the dynamic switch mid-search with an immediate refresh,
    /// decisions, implications, root units, backtracking reinsertion, and
    /// growth of the variable range. Every decision must be the brute-force
    /// argmax of fresh keys over the active unassigned literals, and the
    /// heap audit must pass after every refresh.
    #[test]
    fn incremental_refresh_matches_brute_force_oracle() {
        const MAX_VARS: usize = 16;
        for seed in 1..=60u64 {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let mut num_vars = 6;
            let mut ord = LitOrder::new(num_vars);
            let mut sh = Shadow {
                cha: Vec::new(),
                fresh: Vec::new(),
                bmc: Vec::new(),
                use_bmc: false,
                active: Vec::new(),
            };
            sh.grow(num_vars);
            let mut values = free(num_vars);
            // Variables assigned above the root, in assignment order.
            let mut trail: Vec<usize> = Vec::new();
            // Scores changed since the last refresh; no decision may be
            // taken before one (the solver refreshes at episode start).
            let mut pending = true;
            for step in 0..300 {
                let random_lit =
                    |rng: &mut Rng, n: usize| Lit::new(Var::new(rng.below(n)), rng.below(2) == 0);
                let op = rng.below(11);
                let between_episodes = matches!(op, 0..=2);
                if between_episodes || pending && matches!(op, 6..=7) {
                    // Score changes happen at the root, as `add_clause` and
                    // episode setup backtrack there first.
                    while let Some(v) = trail.pop() {
                        values[v] = LBool::Undef;
                        ord.reinsert_var(Var::new(v));
                    }
                }
                match op {
                    0 => {
                        let lit = random_lit(&mut rng, num_vars);
                        let delta = rng.below(4) as u64;
                        ord.add_initial_count(lit, delta);
                        sh.cha[lit.code()] += delta;
                        sh.active[lit.var().index()] = true;
                        pending = true;
                    }
                    1 => {
                        let len = rng.below(num_vars + 1);
                        let scores: Vec<u64> = (0..len).map(|_| rng.below(3) as u64).collect();
                        let use_bmc = if rng.below(4) == 0 {
                            !sh.use_bmc
                        } else {
                            sh.use_bmc
                        };
                        ord.set_bmc_scores(&scores, use_bmc);
                        sh.bmc.iter_mut().for_each(|b| *b = 0);
                        sh.bmc[..len].copy_from_slice(&scores);
                        sh.use_bmc = use_bmc;
                        pending = true;
                    }
                    2 if num_vars < MAX_VARS => {
                        num_vars += 1 + rng.below(2);
                        num_vars = num_vars.min(MAX_VARS);
                        ord.grow(num_vars);
                        sh.grow(num_vars);
                        values.resize(num_vars, LBool::Undef);
                    }
                    3 => {
                        let lits: Vec<Lit> = (0..1 + rng.below(3))
                            .map(|_| random_lit(&mut rng, num_vars))
                            .collect();
                        ord.on_learned_clause(&lits);
                        for lit in lits {
                            sh.fresh[lit.code()] += 1;
                        }
                    }
                    4 => {
                        ord.halve_scores();
                        for (score, fresh) in sh.cha.iter_mut().zip(sh.fresh.iter_mut()) {
                            *score = *score / 2 + *fresh;
                            *fresh = 0;
                        }
                        ord.rebuild(&values);
                        pending = false;
                    }
                    5 => {
                        ord.disable_bmc();
                        sh.use_bmc = false;
                        ord.rebuild(&values);
                        pending = false;
                    }
                    6 => {
                        // A root-level unit: assigned for good.
                        let v = rng.below(num_vars);
                        if values[v].is_undef() {
                            values[v] = LBool::from(rng.below(2) == 0);
                        }
                    }
                    7 => {
                        ord.rebuild(&values);
                        pending = false;
                    }
                    8 if !pending => {
                        // An implication: assigned without being popped.
                        let v = rng.below(num_vars);
                        if values[v].is_undef() {
                            values[v] = LBool::from(rng.below(2) == 0);
                            trail.push(v);
                        }
                    }
                    9 => {
                        // Backtracking: unassign the latest variables.
                        for _ in 0..1 + rng.below(3) {
                            if let Some(v) = trail.pop() {
                                values[v] = LBool::Undef;
                                ord.reinsert_var(Var::new(v));
                            }
                        }
                    }
                    _ => {
                        if pending {
                            ord.rebuild(&values);
                            pending = false;
                        }
                        let got = ord.pop_best(&values);
                        assert_eq!(got, sh.best(&values), "seed {seed} step {step}");
                        if let Some(lit) = got {
                            let v = lit.var().index();
                            values[v] = LBool::from(lit.is_positive());
                            trail.push(v);
                        }
                    }
                }
                if !pending {
                    ord.audit(&values)
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                }
            }
        }
    }

    #[test]
    fn audit_flags_stale_cached_key() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        ord.add_initial_count(lit(1), 4);
        ord.add_initial_count(lit(-2), 2);
        ord.rebuild(&v);
        ord.audit(&v).expect("fresh after rebuild");
        // A score change the refresh never heard about.
        ord.cha[lit(-2).code()] += 5;
        let err = ord.audit(&v).expect_err("stale key must fail");
        assert!(err.contains("stale key"), "unexpected report: {err}");
    }

    #[test]
    fn audit_flags_missing_candidate() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 1);
        ord.add_initial_count(lit(2), 1);
        ord.rebuild(&v);
        // Popped but still unassigned: a lost candidate.
        ord.pop_best(&v);
        let err = ord.audit(&v).expect_err("missing literal must fail");
        assert!(err.contains("missing"), "unexpected report: {err}");
    }

    #[test]
    fn refresh_touches_only_dirty_variables() {
        let mut ord = LitOrder::new(4);
        let v = free(4);
        for i in 1..=4 {
            ord.add_initial_count(lit(i), 1);
        }
        ord.set_bmc_scores(&[0, 0, 0, 0], true);
        ord.rebuild(&v);
        assert!(ord.dirty.is_empty() && !ord.all_stale);
        // Re-installing the same table marks nothing; one changed entry
        // marks exactly its variable.
        ord.set_bmc_scores(&[0, 0, 0, 0], true);
        assert!(ord.dirty.is_empty() && !ord.all_stale);
        ord.set_bmc_scores(&[0, 0, 9], true);
        assert_eq!(ord.dirty, vec![2]);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(3)));
        // Turning the rank off restales every key.
        ord.set_bmc_scores(&[0, 0, 9], false);
        assert!(ord.all_stale);
    }
}
