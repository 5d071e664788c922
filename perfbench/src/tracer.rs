//! Outside-in spans: the benchmark times its own calls into each crate's
//! public functions and attributes the time to a layer. The program itself
//! carries no timers.

use std::time::Instant;

/// A layer of the pipeline, named after the crate and call it times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layer {
    /// `rbmc_circuit::aiger::parse_aiger`.
    Parse,
    /// `rbmc_circuit::lint::lint_aiger`.
    Lint,
    /// `ProblemBuilder::from_aig(..).build()`.
    Problem,
    /// `preprocess_problem` (inside the engine constructors when untraced).
    Preprocess,
    /// `Unroller::with_frame_delta` plus every `Solver::add_clause`.
    Unroll,
    /// `Solver::solve_under_limited`.
    Solve,
    /// `Solver::core_vars`, filtered to the model's variables.
    Core,
    /// `VarRank::snapshot`/`update` and `Solver::set_var_ranking`.
    Rank,
    /// `Solver::prune_cdg`.
    Cdg,
    /// `Trace::from_assignment`, lifting, `validate_against`, AIG replay.
    Trace,
    /// `Ic3Engine::run_collecting` with proof logging off.
    Ic3,
    /// The IC3 run under `ProofMode::Log` minus the run with proofs off.
    ProofLog,
    /// The IC3 run under `ProofMode::Check` minus the run under `Log`.
    ProofCheck,
    /// `check_invariant`.
    Invariant,
}

impl Layer {
    /// Every layer, in the order the metrics list them.
    pub(crate) const ALL: [Layer; 14] = [
        Layer::Parse,
        Layer::Lint,
        Layer::Problem,
        Layer::Preprocess,
        Layer::Unroll,
        Layer::Solve,
        Layer::Core,
        Layer::Rank,
        Layer::Cdg,
        Layer::Trace,
        Layer::Ic3,
        Layer::ProofLog,
        Layer::ProofCheck,
        Layer::Invariant,
    ];

    /// The self-time metric of the layer.
    pub(crate) fn metric(self) -> &'static str {
        match self {
            Layer::Parse => "circuit.parse_s",
            Layer::Lint => "circuit.lint_s",
            Layer::Problem => "core.problem_s",
            Layer::Preprocess => "core.preprocess_s",
            Layer::Unroll => "core.unroll_s",
            Layer::Solve => "solver.solve_s",
            Layer::Core => "solver.core_s",
            Layer::Rank => "core.rank_s",
            Layer::Cdg => "solver.cdg_prune_s",
            Layer::Trace => "core.trace_s",
            Layer::Ic3 => "core.ic3_s",
            Layer::ProofLog => "proof.log_s",
            Layer::ProofCheck => "proof.check_s",
            Layer::Invariant => "core.invariant_s",
        }
    }
}

/// Work counts recorded at the same call sites as the spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Counts {
    /// AIGER bytes parsed.
    pub(crate) parse_bytes: u64,
    /// Netlist nodes before preprocessing.
    pub(crate) nodes_before: u64,
    /// Netlist nodes preprocessing removed.
    pub(crate) nodes_removed: u64,
    /// Clauses handed to `Solver::add_clause`.
    pub(crate) clauses_loaded: u64,
    /// Solve episodes.
    pub(crate) episodes: u64,
    /// Solver decisions.
    pub(crate) decisions: u64,
    /// Solver propagations.
    pub(crate) propagations: u64,
    /// Solver conflicts.
    pub(crate) conflicts: u64,
    /// Learned clauses.
    pub(crate) learned: u64,
    /// Learned clauses deleted by database reduction.
    pub(crate) deleted: u64,
    /// Arena compactions.
    pub(crate) compactions: u64,
    /// Per-depth core-union sizes, summed.
    pub(crate) core_vars: u64,
    /// Largest `varRank` table of any file.
    pub(crate) rank_peak_entries: u64,
    /// Depths at which the dynamic switch fell back to VSIDS.
    pub(crate) vsids_switch_depths: u64,
    /// CDG nodes discarded by pruning.
    pub(crate) cdg_pruned_nodes: u64,
    /// Largest live CDG of any file.
    pub(crate) cdg_peak_nodes: u64,
    /// Witnesses validated on the netlist and replayed on the AIG.
    pub(crate) witnesses: u64,
    /// IC3 solver queries.
    pub ic3_queries: u64,
    /// Proof lines logged.
    pub(crate) steps_logged: u64,
    /// UNSAT episodes whose certificate was checked.
    pub(crate) episodes_certified: u64,
    /// Largest clause arena of any file, in bytes.
    pub(crate) arena_peak_bytes: u64,
    /// Largest cached clause prefix of any file.
    pub(crate) prefix_peak_clauses: u64,
}

impl Counts {
    /// Folds another file's counts in: sums, except peaks, which take the
    /// maximum.
    pub(crate) fn merge(&mut self, o: &Counts) {
        self.parse_bytes += o.parse_bytes;
        self.nodes_before += o.nodes_before;
        self.nodes_removed += o.nodes_removed;
        self.clauses_loaded += o.clauses_loaded;
        self.episodes += o.episodes;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.conflicts += o.conflicts;
        self.learned += o.learned;
        self.deleted += o.deleted;
        self.compactions += o.compactions;
        self.core_vars += o.core_vars;
        self.rank_peak_entries = self.rank_peak_entries.max(o.rank_peak_entries);
        self.vsids_switch_depths += o.vsids_switch_depths;
        self.cdg_pruned_nodes += o.cdg_pruned_nodes;
        self.cdg_peak_nodes = self.cdg_peak_nodes.max(o.cdg_peak_nodes);
        self.witnesses += o.witnesses;
        self.ic3_queries += o.ic3_queries;
        self.steps_logged += o.steps_logged;
        self.episodes_certified += o.episodes_certified;
        self.arena_peak_bytes = self.arena_peak_bytes.max(o.arena_peak_bytes);
        self.prefix_peak_clauses = self.prefix_peak_clauses.max(o.prefix_peak_clauses);
    }
}

/// Per-layer self times and counts of one file (or, merged, one pass).
/// When off, [`Tracer::time`] runs the call without reading the clock.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tracer {
    on: bool,
    self_s: [f64; Layer::ALL.len()],
    /// Work counts.
    pub(crate) counts: Counts,
}

impl Tracer {
    /// A tracer that records spans.
    pub(crate) fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// A tracer that records nothing (the untraced path).
    pub(crate) fn off() -> Tracer {
        Tracer::default()
    }

    /// Runs `f`, attributing its wall time to `layer` when tracing.
    pub(crate) fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed().as_secs_f64());
        out
    }

    /// Attributes `seconds` to `layer` directly (differences of whole runs).
    pub(crate) fn add(&mut self, layer: Layer, seconds: f64) {
        self.self_s[layer as usize] += seconds;
    }

    /// The self time attributed to `layer`.
    pub(crate) fn seconds(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    /// The self time of every layer together.
    pub(crate) fn total(&self) -> f64 {
        self.self_s.iter().sum()
    }

    /// Folds another tracer's spans and counts in.
    pub(crate) fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.self_s.iter_mut().zip(&other.self_s) {
            *a += b;
        }
        self.counts.merge(&other.counts);
    }
}
