//! `refine_order_bmc` — the main loop of the paper's Fig. 5, generalized to
//! property sets.
//!
//! ```text
//! refine_order_bmc(M, P) {
//!     initialize varRank;
//!     for each k {
//!         F = gen_cnf_formula(M, P, k);
//!         (isSat, unsatVars) = sat_check(F, varRank);
//!         if (isSat) return FALSE;              // counterexample found
//!         else update_ranking(unsatVars, varRank);
//!     }
//!     return TRUE;                              // bound reached
//! }
//! ```
//!
//! By default the engine runs the loop as one **incremental solving
//! session** ([`SolverReuse::Session`]): a single persistent [`Solver`]
//! serves every depth. Each depth appends only the new frame's clauses
//! (via [`Unroller::with_frame_delta`]) and then solves **every still-open
//! property** under its own *activation literal*: for property `p` at depth
//! `k` the clause `a_{p,k} → bad_p^k` is added permanently, `a_{p,k}` is
//! assumed for that property's episode, and a `¬a_{p,k}` unit retires it
//! afterwards. All properties of a [`VerificationProblem`] share the one
//! unrolled transition relation, the solver's learned clauses, and the
//! `varRank` table — which each depth refreshes from the **union** of the
//! open properties' UNSAT cores ([`Solver::set_var_ranking`] between
//! episodes). Properties retire individually: a SAT episode yields a
//! validated [`Trace`] and removes the property from the sweep while the
//! rest continue to the depth bound. The paper's original regime — a fresh
//! solver per property per depth, loading the whole prefix and discarding
//! everything after the verdict — is preserved as [`SolverReuse::Fresh`]
//! for differential testing and overhead measurements (the method is
//! orthogonal to incremental SAT, so both regimes reach identical
//! verdicts).

use std::fmt;
use std::time::{Duration, Instant};

use rbmc_solver::{CancelFlag, Limits, OrderMode, SolveResult, SolverOptions, SolverStats};

use crate::episode::{
    add_clauses, commit_rank, fresh_episode, Episode, EpisodeCtx, RunFold, Session, SessionSummary,
};
use crate::parallel::{self, ParallelConfig, WorkerReport};
use crate::preprocess::WorkingModel;
use crate::{Model, Trace, TraceLift, VarRank, VerificationProblem, Weighting};
use rbmc_circuit::preprocess::PreprocessReport;

/// Which decision-ordering scheme `sat_check` uses (§3.3 plus baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OrderingStrategy {
    /// Plain Chaff: pure VSIDS, no core bookkeeping. The paper's baseline
    /// ("BMC" column of Table 1).
    #[default]
    Standard,
    /// Refined ordering, static configuration: `bmc_score` primary for the
    /// whole solve ("new bmc, sta." column).
    RefinedStatic,
    /// Refined ordering, dynamic configuration: falls back to VSIDS once
    /// `#decisions > #original_literals / divisor` ("new bmc, dyn." column;
    /// the paper uses 64).
    RefinedDynamic {
        /// Denominator of the switch threshold.
        divisor: u32,
    },
    /// Shtrichman's time-axis static ordering (related work; for the
    /// register-axis vs time-axis ablation).
    Shtrichman,
}

impl OrderingStrategy {
    /// Whether this strategy needs unsat cores (and hence CDG recording).
    pub fn needs_cores(self) -> bool {
        matches!(
            self,
            OrderingStrategy::RefinedStatic | OrderingStrategy::RefinedDynamic { .. }
        )
    }

    /// Short name used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            OrderingStrategy::Standard => "bmc",
            OrderingStrategy::RefinedStatic => "sta",
            OrderingStrategy::RefinedDynamic { .. } => "dyn",
            OrderingStrategy::Shtrichman => "sht",
        }
    }
}

/// How [`BmcEngine`] provisions SAT solvers across depths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SolverReuse {
    /// One persistent solver for the whole run: frames are appended
    /// incrementally, bad states are asserted via assumed per-property
    /// activation literals, and learned clauses survive between depths and
    /// between properties.
    #[default]
    Session,
    /// A fresh solver per property per depth, loading the full clause prefix
    /// and the bad-state unit — the paper's original (seed-identical) regime,
    /// kept for differential testing against the session path.
    Fresh,
}

impl SolverReuse {
    /// Short name used in benchmark tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SolverReuse::Session => "session",
            SolverReuse::Fresh => "fresh",
        }
    }
}

/// Configuration of a [`BmcEngine`] run.
#[derive(Clone, Copy, Debug)]
pub struct BmcOptions {
    /// Highest unrolling depth to try (the completeness-threshold stand-in).
    pub max_depth: usize,
    /// Decision-ordering scheme.
    pub strategy: OrderingStrategy,
    /// Solver provisioning across depths (persistent session vs fresh per
    /// depth). Parallel runs ([`BmcOptions::parallel`]) follow it too: each
    /// property's depth loop runs in this regime.
    pub reuse: SolverReuse,
    /// How past cores are weighted (§3.2; ablation knob).
    pub weighting: Weighting,
    /// Base solver configuration. `order_mode` and `record_cdg` are
    /// overridden per [`BmcOptions::strategy`]; the rest (restarts, clause
    /// deletion, halving interval) applies as given.
    pub solver: SolverOptions,
    /// Optional conflict budget per depth (deterministic timeout stand-in).
    /// With several open properties, the budget applies to each property's
    /// episode at that depth.
    pub max_conflicts_per_depth: Option<u64>,
    /// Optional wall-clock deadline for the whole run.
    pub deadline: Option<Instant>,
    /// Also record cores under [`OrderingStrategy::Standard`] (for the CDG
    /// overhead measurements of §3.1; off by default to keep the baseline
    /// honest).
    pub force_record_cdg: bool,
    /// Structurally preprocess the problem before solving (on by default):
    /// constant sweeping, structural hashing, and restriction to the union
    /// of the properties' cones of influence
    /// ([`preprocess_problem`](crate::preprocess_problem)). Verdicts,
    /// retirement depths, and (lifted) traces are identical to the raw
    /// engine's; every removed node shrinks every frame of the unrolling.
    /// Turn off for differential testing against the raw encoding.
    pub preprocess: bool,
    /// Prune every session solver's conflict dependency graph at each depth
    /// boundary ([`Solver::prune_cdg`](rbmc_solver::Solver::prune_cdg)),
    /// bounding the CDG's growth over a deep sweep. On by default; the
    /// ablation tests turn it off to measure the unpruned growth.
    /// Fresh-per-depth solvers discard their CDG with the solver and never
    /// prune.
    pub cdg_prune: bool,
    /// Run the sweep on a worker pool instead of inline, one property per
    /// work item — see [`ParallelConfig`]. `None` (the default) is the
    /// sequential loop over every property at once. A parallel run is the
    /// sequential loop run once per property, in the [`BmcOptions::reuse`]
    /// regime, with the results merged in commit order: on a
    /// single-property problem it is exactly the sequential run.
    pub parallel: Option<ParallelConfig>,
    /// Clause-level proof logging of every provisioned solver, and — under
    /// [`ProofMode::Check`](crate::ProofMode) — independent re-derivation of
    /// every UNSAT episode's certificate. Forces `record_cdg` (the proof
    /// hints come from the conflict dependency graph). Results land in
    /// [`BmcRun::proof`].
    pub proof: crate::ProofMode,
}

impl Default for BmcOptions {
    fn default() -> BmcOptions {
        BmcOptions {
            max_depth: 20,
            strategy: OrderingStrategy::Standard,
            reuse: SolverReuse::Session,
            weighting: Weighting::Linear,
            solver: SolverOptions::default(),
            max_conflicts_per_depth: None,
            deadline: None,
            force_record_cdg: false,
            preprocess: true,
            cdg_prune: true,
            parallel: None,
            proof: crate::ProofMode::Off,
        }
    }
}

/// Statistics of one depth's `sat_check` (the per-`k` data behind Fig. 7).
/// With several open properties, counters aggregate over every episode the
/// depth ran (one per open property).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepthStats {
    /// The unrolling depth `k`.
    pub depth: usize,
    /// Verdict at this depth: `Sat` if any property's episode was SAT,
    /// `Unknown` if a budget ran out, `Unsat` otherwise.
    pub result: SolveResult,
    /// Number of decisions (Fig. 7 left).
    pub decisions: u64,
    /// Number of implications/propagations (Fig. 7 right).
    pub implications: u64,
    /// Number of conflicts.
    pub conflicts: u64,
    /// CNF size: variables.
    pub num_vars: usize,
    /// CNF size: clauses.
    pub num_clauses: usize,
    /// Variables in the union of this depth's unsatisfiable cores (0 if SAT
    /// or untracked).
    pub core_vars: usize,
    /// Whether the dynamic configuration fell back to VSIDS at this depth.
    pub switched_to_vsids: bool,
    /// Nodes recorded in the simplified CDG (0 when recording is off).
    pub cdg_nodes: u64,
    /// Antecedent edges recorded in the simplified CDG.
    pub cdg_edges: u64,
    /// Wall-clock time of this depth's solve episodes.
    pub time: Duration,
}

/// The per-property verdict of a BMC run.
#[derive(Clone, Debug)]
pub enum PropertyVerdict {
    /// The property fails: a validated counterexample of length `depth`.
    Falsified {
        /// Length of the counterexample (bad state at this frame).
        depth: usize,
        /// The counterexample itself, validated against this property's
        /// bad-state signal.
        trace: Trace,
    },
    /// Still open: no counterexample of length `≤ depth` exists.
    OpenAt {
        /// The deepest depth this property was proven UNSAT at.
        depth: usize,
    },
    /// The property holds in **all** reachable states — an unbounded proof,
    /// not merely a bound. Produced by the proving engines
    /// ([`Ic3Engine`](crate::Ic3Engine), [`induction`](crate::induction));
    /// plain BMC never returns it.
    Proved {
        /// The frame/induction depth at which the proof converged.
        depth: usize,
        /// The inductive invariant certifying the proof, as clauses over the
        /// **working model's** latches: each inner vector is a disjunction of
        /// "latch `i` has value `b`" literals, and the conjunction of all
        /// clauses contains the initial states, is closed under the
        /// transition relation, and excludes every bad state. `None` means
        /// the proof carries no extracted invariant (k-induction);
        /// `Some(vec![])` is the trivial invariant *true* (the bad state is
        /// combinationally unsatisfiable).
        invariant_clauses: Option<Vec<Vec<(usize, bool)>>>,
    },
    /// No depth completed for this property (a resource budget ran out
    /// before its first verdict).
    Unknown,
}

impl PropertyVerdict {
    /// Whether this verdict is conclusive for the *unbounded* question — a
    /// counterexample or a proof, as opposed to a bounded or truncated
    /// answer. Portfolio racing uses this to decide whether a proving
    /// member's run may claim the race.
    pub fn is_conclusive(&self) -> bool {
        matches!(
            self,
            PropertyVerdict::Falsified { .. } | PropertyVerdict::Proved { .. }
        )
    }
}

impl fmt::Display for PropertyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyVerdict::Falsified { depth, .. } => {
                write!(f, "falsified at depth {depth}")
            }
            PropertyVerdict::OpenAt { depth } => write!(f, "open at depth {depth}"),
            PropertyVerdict::Proved {
                depth,
                invariant_clauses,
            } => match invariant_clauses {
                Some(clauses) => write!(
                    f,
                    "proved at depth {depth} ({} invariant clauses)",
                    clauses.len()
                ),
                None => write!(f, "proved at depth {depth}"),
            },
            PropertyVerdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Per-property report of a run: the verdict plus this property's share of
/// the solver work (the per-property analog of [`DepthStats`]).
#[derive(Clone, Debug)]
pub struct PropertyReport {
    /// Property name (from the problem's property set).
    pub name: String,
    /// The verdict.
    pub verdict: PropertyVerdict,
    /// Solve episodes run for this property (one per attempted depth).
    pub episodes: u64,
    /// Episodes that ended UNSAT as a failed-assumption conflict (session
    /// runs only; fresh solvers assert the bad state as a unit instead).
    pub assumption_conflicts: u64,
    /// Decisions over this property's episodes.
    pub decisions: u64,
    /// Conflicts over this property's episodes.
    pub conflicts: u64,
    /// Propagations over this property's episodes.
    pub propagations: u64,
    /// Depth at which the property retired with a counterexample (`None`
    /// while open).
    pub retirement_depth: Option<usize>,
    /// This property's per-depth verdict sequence (index = depth). The
    /// differential gates compare these against fresh single-property runs.
    pub depth_results: Vec<SolveResult>,
}

/// The overall outcome of a BMC run — the summary over the property set.
/// Per-property verdicts live in [`BmcRun::properties`].
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// Some property fails; this is the shallowest counterexample found
    /// (ties broken by property order). Other properties may still be open —
    /// see the per-property reports.
    Counterexample {
        /// Length of the counterexample (bad state at this frame).
        depth: usize,
        /// The counterexample itself.
        trace: Trace,
    },
    /// Every depth up to `max_depth` is UNSAT for every (non-falsified)
    /// property: no counterexample of bounded length exists (the paper's
    /// "property proven true up to the completeness threshold").
    BoundReached {
        /// The last depth proven UNSAT.
        depth_completed: usize,
    },
    /// A per-depth conflict budget or the deadline ran out at `at_depth`
    /// before any property was falsified (a found counterexample outranks a
    /// later budget exhaustion in this summary).
    ResourceOut {
        /// Depth whose solve did not finish.
        at_depth: usize,
    },
}

impl fmt::Display for BmcOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcOutcome::Counterexample { depth, .. } => {
                write!(f, "counterexample at depth {depth}")
            }
            BmcOutcome::BoundReached { depth_completed } => {
                write!(f, "no counterexample up to depth {depth_completed}")
            }
            BmcOutcome::ResourceOut { at_depth } => {
                write!(f, "resources exhausted at depth {at_depth}")
            }
        }
    }
}

/// Summary of a finished run: outcome, per-property reports, and all
/// per-depth statistics.
#[derive(Clone, Debug)]
pub struct BmcRun {
    /// The summary verdict (single-property runs: the property's verdict).
    pub outcome: BmcOutcome,
    /// One report per property of the problem, in property order.
    pub properties: Vec<PropertyReport>,
    /// One entry per attempted depth, in order.
    pub per_depth: Vec<DepthStats>,
    /// Aggregate solver statistics over the whole run: the session solver's
    /// final counters under [`SolverReuse::Session`], the per-episode
    /// solvers' counters summed under [`SolverReuse::Fresh`]. Carries the
    /// incremental-session counters (`solve_calls`, `assumption_conflicts`,
    /// `learned_retained`) the per-depth deltas cannot express. Parallel
    /// runs sum the counters of every worker's solvers.
    pub solver_stats: SolverStats,
    /// Per-worker breakdown of a parallel run ([`BmcOptions::parallel`]), in
    /// worker order. Empty for sequential runs.
    pub workers: Vec<WorkerReport>,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Proof-logging summary, aggregated over every solver the run
    /// provisioned. `None` when [`BmcOptions::proof`] is
    /// [`ProofMode::Off`](crate::ProofMode).
    pub proof: Option<crate::ProofSummary>,
}

impl BmcRun {
    /// Sum of decisions over all depths.
    pub fn total_decisions(&self) -> u64 {
        self.per_depth.iter().map(|d| d.decisions).sum()
    }

    /// Sum of implications over all depths.
    pub fn total_implications(&self) -> u64 {
        self.per_depth.iter().map(|d| d.implications).sum()
    }

    /// Sum of conflicts over all depths.
    pub fn total_conflicts(&self) -> u64 {
        self.per_depth.iter().map(|d| d.conflicts).sum()
    }

    /// The deepest depth whose solve completed (SAT or UNSAT).
    pub fn max_completed_depth(&self) -> Option<usize> {
        self.per_depth
            .iter()
            .filter(|d| d.result != SolveResult::Unknown)
            .map(|d| d.depth)
            .max()
    }

    /// The report of a property, by name.
    pub fn property(&self, name: &str) -> Option<&PropertyReport> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Number of falsified properties.
    pub fn num_falsified(&self) -> usize {
        self.properties
            .iter()
            .filter(|p| matches!(p.verdict, PropertyVerdict::Falsified { .. }))
            .count()
    }
}

/// The `refine_order_bmc` engine (Fig. 5), generalized to property sets.
///
/// Construct it from a single-property [`Model`] ([`BmcEngine::new`] — the
/// paper's setup, used by the figure-reproducing binaries) or from a
/// multi-property [`VerificationProblem`] ([`BmcEngine::for_problem`] — the
/// AIGER/HWMCC front door). See the [crate docs](crate) for a complete
/// example.
pub struct BmcEngine {
    /// The model the solver sees (preprocessed when
    /// [`BmcOptions::preprocess`] is on).
    pub(crate) working: WorkingModel,
    pub(crate) options: BmcOptions,
    pub(crate) rank: VarRank,
    pub(crate) cancel: Option<CancelFlag>,
}

impl fmt::Debug for BmcEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BmcEngine")
            .field("problem", &self.working.model.name())
            .field("properties", &self.working.model.problem().num_properties())
            .field("options", &self.options)
            .finish()
    }
}

impl BmcEngine {
    /// Creates an engine for a single-property `model` with the given
    /// options. With [`BmcOptions::preprocess`] on (the default) the model
    /// is structurally reduced here, once, before any encoding — a parallel
    /// run's workers share the engine's working model, so they inherit the
    /// reduction.
    pub fn new(model: Model, options: BmcOptions) -> BmcEngine {
        BmcEngine {
            working: WorkingModel::new(model, options.preprocess),
            options,
            rank: VarRank::new(options.weighting),
            cancel: None,
        }
    }

    /// Creates an engine checking every property of `problem` in one run
    /// (one persistent session solver, one shared unrolling, per-property
    /// activation literals).
    pub fn for_problem(problem: VerificationProblem, options: BmcOptions) -> BmcEngine {
        BmcEngine::new(Model::from_problem(problem), options)
    }

    /// The model under check **as given** (the single-property view of the
    /// problem; its `bad()` is the primary property). Traces the engine
    /// returns are in this model's coordinates, whether or not
    /// preprocessing reduced the working copy.
    pub fn model(&self) -> &Model {
        self.working.original()
    }

    /// The working model the solver actually encodes: the preprocessed
    /// reduction when [`BmcOptions::preprocess`] is on (and changed
    /// anything), otherwise the model as given. Its netlist sizes are the
    /// ones per-depth CNF statistics refer to.
    pub fn working_model(&self) -> &Model {
        &self.working.model
    }

    /// The full problem under check, as given.
    pub fn problem(&self) -> &VerificationProblem {
        self.model().problem()
    }

    /// Shape accounting of the preprocessing pass (`None` when
    /// [`BmcOptions::preprocess`] is off).
    pub fn preprocess_report(&self) -> Option<&PreprocessReport> {
        self.working.report()
    }

    /// The trace map from working to original coordinates (`None` when
    /// preprocessing is off). Witness printers use its don't-care masks to
    /// emit `x` for state no property can observe.
    pub fn trace_lift(&self) -> Option<&TraceLift> {
        self.working.lift()
    }

    /// The accumulated `varRank` (inspect after a run).
    pub fn rank(&self) -> &VarRank {
        &self.rank
    }

    /// Attaches a cooperative cancellation flag. Once
    /// [`CancelFlag::cancel`] is raised, every in-flight solve episode
    /// returns [`SolveResult::Unknown`] at its next budget checkpoint, no
    /// further episode starts, and the run truncates through the
    /// [`BmcOutcome::ResourceOut`] path — the same committed-partial-run
    /// semantics a conflict budget produces, in sequential and parallel
    /// runs alike. Portfolio racing uses this to cut losers off mid-depth.
    pub fn set_cancel(&mut self, cancel: CancelFlag) {
        self.cancel = Some(cancel);
    }

    /// Runs the loop of Fig. 5 and returns only the summary outcome.
    pub fn run(&mut self) -> BmcOutcome {
        self.run_collecting().outcome
    }

    /// Runs the loop of Fig. 5 over every property, collecting per-depth and
    /// per-property statistics. With [`BmcOptions::parallel`] set, the
    /// properties are dispatched onto a scoped worker pool instead (see
    /// [`ParallelConfig`] for the determinism contract).
    pub fn run_collecting(&mut self) -> BmcRun {
        let run = match self.options.parallel {
            Some(config) => parallel::run_by_property(
                &self.working.model,
                &self.options,
                self.cancel.as_ref(),
                &mut self.rank,
                config.jobs,
            ),
            None => run_inline(
                &self.working.model,
                &self.options,
                self.cancel.as_ref(),
                &mut self.rank,
                |_, _| Vec::new(),
            ),
        };
        self.finish_run(run)
    }

    /// Completes a run of this engine's depth loop: the rank-table peaks,
    /// and every trace lifted to the problem as given.
    pub(crate) fn finish_run(&self, mut run: BmcRun) -> BmcRun {
        // Peak varRank storage. The table only ever shrinks on a
        // LastOnly-weighting reset, whose next update immediately refills it
        // with the newest core, so the post-run size is the high-water mark.
        let stats = &mut run.solver_stats;
        stats.rank_peak_entries = stats.rank_peak_entries.max(self.rank.num_entries() as u64);
        stats.rank_peak_bytes = stats.rank_peak_bytes.max(self.rank.approx_bytes() as u64);
        self.working.lift_traces(&mut run);
        run
    }
}

/// The sequential engine: [`run_sequential`] over every property of
/// `model`, folding each depth as the loop commits it. After each depth's
/// episodes, `after_depth(k, episodes)` returns the properties to retire
/// besides the falsified ones: BMC retires none, k-induction the ones its
/// step case just proved. Traces are in working-model coordinates;
/// [`BmcEngine::finish_run`] lifts them.
pub(crate) fn run_inline(
    model: &Model,
    options: &BmcOptions,
    cancel: Option<&CancelFlag>,
    rank: &mut VarRank,
    mut after_depth: impl FnMut(usize, &[(usize, Episode)]) -> Vec<usize>,
) -> BmcRun {
    let run_start = Instant::now();
    let ctx = EpisodeCtx::new(model, options, cancel);
    let props: Vec<usize> = (0..model.problem().num_properties()).collect();
    let mut fold = RunFold::new(model);
    let session = run_sequential(&ctx, &props, rank, |k, episodes, time| {
        let retire = after_depth(k, &episodes);
        fold.fold_depth(k, ctx.unroller.num_vars_at(k), episodes, Some(time));
        retire
    });
    if let Some(session) = session {
        fold.add_solver(session);
    }
    fold.finish(ctx.unroller.peak_cached_clauses(), Vec::new(), run_start)
}

/// The loop of Fig. 5 over the properties `props` (indices into the working
/// model's property set, in property order), scheduled against and
/// committing to `rank`. The sequential engine runs it over every property;
/// a by-property worker over one, so a single-property problem runs the
/// same episodes in either.
///
/// Each depth loads the new frame (a session; a fresh solver per episode
/// loads the whole prefix), solves one episode per still-open property,
/// commits the depth's cores to `rank`, hands the depth's episodes to
/// `commit(k, episodes, time)` — `(property, episode)` pairs in property
/// order, with the depth's wall time — and crosses the depth boundary. A
/// SAT episode retires its property, and so does every property `commit`
/// returns; an Unknown episode (budget or cancellation) ends the loop after
/// its depth commits. Returns the session solver's summary (`None` in the
/// fresh regime, whose episodes carry their own).
///
/// The session call order is a contract (`perfbench` replays it from
/// public calls and compares every per-depth counter): frame delta, then
/// one session episode per open property with the ranking installed after
/// the depth's first activation clause, then the rank update, then the
/// depth boundary.
pub(crate) fn run_sequential(
    ctx: &EpisodeCtx<'_>,
    props: &[usize],
    rank: &mut VarRank,
    mut commit: impl FnMut(usize, Vec<(usize, Episode)>, Duration) -> Vec<usize>,
) -> Option<SessionSummary> {
    let options = &ctx.options;
    let unroller = &ctx.unroller;
    let mut open = vec![true; props.len()];
    // The persistent solver of a session run, one activation slot per
    // scheduled property.
    let mut session =
        (options.reuse == SolverReuse::Session).then(|| Session::new(options, props.len()));
    for k in 0..=options.max_depth {
        let depth_start = Instant::now();
        // gen_cnf_formula(M, P, k): the unroller only ever encodes the one
        // new frame; the session solver consumes exactly that delta once per
        // depth, fresh solvers replay the cached prefix per episode.
        // sat_check(F, varRank) is one episode per open property.
        if let Some(session) = session.as_mut() {
            session.load_frames_through(unroller, k);
        }
        let snapshot = rank.snapshot();
        let mut ranking = Some(snapshot.as_slice());
        let mut episodes = Vec::new();
        let mut resource_out = false;
        for (slot, &p) in props.iter().enumerate() {
            if !open[slot] {
                continue;
            }
            let episode = match session.as_mut() {
                Some(session) => session.episode(ctx, k, slot, p, ranking.take()),
                None => fresh_episode(ctx, k, p, &snapshot, |solver| {
                    unroller.with_prefix(k, |clauses| add_clauses(solver, clauses));
                }),
            };
            open[slot] = episode.result != SolveResult::Sat;
            resource_out = episode.result == SolveResult::Unknown;
            episodes.push((p, episode));
            if resource_out {
                break;
            }
        }
        let time = depth_start.elapsed();
        // update_ranking(unsatVars, varRank) — the union over this depth's
        // UNSAT episodes.
        commit_rank(
            options,
            rank,
            k,
            episodes.iter().map(|(_, episode)| episode.core.as_slice()),
        );
        for p in commit(k, episodes, time) {
            let slot = props.iter().position(|&q| q == p);
            open[slot.expect("only a scheduled property retires")] = false;
        }
        if let Some(session) = session.as_mut() {
            session.end_depth();
        }
        #[cfg(feature = "debug-invariants")]
        rank.audit()
            .expect("rank-table invariants at depth boundary");
        if resource_out || !open.contains(&true) {
            break;
        }
    }
    session.map(Session::finish)
}

/// The solver configuration [`BmcOptions`] dictate: `order_mode` and
/// `record_cdg` are derived from the strategy, the rest is taken from
/// [`BmcOptions::solver`] (shared by every depth loop, so every provisioned
/// solver is configured identically).
pub(crate) fn strategy_solver_options(options: &BmcOptions) -> SolverOptions {
    let mut opts = options.solver;
    opts.order_mode = match options.strategy {
        OrderingStrategy::Standard => OrderMode::Standard,
        OrderingStrategy::RefinedStatic | OrderingStrategy::Shtrichman => OrderMode::Static,
        OrderingStrategy::RefinedDynamic { divisor } => OrderMode::Dynamic { divisor },
    };
    opts.record_cdg =
        options.strategy.needs_cores() || options.force_record_cdg || options.proof.is_on();
    opts
}

/// The per-depth resource limits [`BmcOptions`] dictate, with the engine's
/// cancellation flag (if any) attached so mid-depth cancellation surfaces
/// through the same [`SolveResult::Unknown`] truncation path as a budget.
pub(crate) fn depth_limits(options: &BmcOptions, cancel: Option<&CancelFlag>) -> Limits {
    let mut limits = Limits::new();
    if let Some(n) = options.max_conflicts_per_depth {
        limits = limits.with_max_conflicts(n);
    }
    if let Some(deadline) = options.deadline {
        limits = limits.with_deadline(deadline);
    }
    if let Some(cancel) = cancel {
        limits = limits.with_cancel(cancel.clone());
    }
    limits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_reachable, OracleVerdict};
    use crate::ProblemBuilder;
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

    /// Counter with one property per target: `reach_t` is falsified exactly
    /// at depth `t` (for a `width`-bit counter starting at zero).
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
        let mut builder = ProblemBuilder::new("multi_counter", n);
        for (name, sig) in props {
            builder = builder.property(&name, sig);
        }
        builder.build()
    }

    fn all_strategies() -> Vec<OrderingStrategy> {
        vec![
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
            OrderingStrategy::Shtrichman,
        ]
    }

    #[test]
    fn finds_counterexample_at_oracle_depth() {
        let model = counter_model(4, 11);
        let expected = check_reachable(&model, 20);
        assert_eq!(expected, OracleVerdict::FailsAt(11));
        for strategy in all_strategies() {
            let mut engine = BmcEngine::new(
                counter_model(4, 11),
                BmcOptions {
                    max_depth: 20,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            match engine.run() {
                BmcOutcome::Counterexample { depth, trace } => {
                    assert_eq!(depth, 11, "{strategy:?}");
                    assert!(trace.validate(engine.model()).is_ok(), "{strategy:?}");
                }
                other => panic!("{strategy:?}: expected cex, got {other:?}"),
            }
        }
    }

    #[test]
    fn passing_property_reaches_bound() {
        // 3-bit counter never equals 12.
        let model = counter_model(3, 12);
        for strategy in all_strategies() {
            let mut engine = BmcEngine::new(
                model.clone(),
                BmcOptions {
                    max_depth: 12,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            match engine.run() {
                BmcOutcome::BoundReached { depth_completed } => {
                    assert_eq!(depth_completed, 12, "{strategy:?}");
                }
                other => panic!("{strategy:?}: expected bound reached, got {other:?}"),
            }
        }
    }

    #[test]
    fn refined_strategies_accumulate_rank() {
        let model = counter_model(4, 9);
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 9,
                strategy: OrderingStrategy::RefinedStatic,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 9, .. }
        ));
        // Nine UNSAT instances were consumed (k = 0..8).
        assert_eq!(engine.rank().num_updates(), 9);
        assert!(engine.rank().num_ranked() > 0);
    }

    #[test]
    fn per_depth_stats_are_complete() {
        let model = counter_model(3, 5);
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 10,
                strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        // Depths 0..=5 attempted; 5 is SAT.
        assert_eq!(run.per_depth.len(), 6);
        for (i, d) in run.per_depth.iter().enumerate() {
            assert_eq!(d.depth, i);
            assert!(d.num_vars > 0 && d.num_clauses > 0);
            let expected = if i == 5 {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(d.result, expected);
        }
        // An input-free counter is fully determined by propagation, so
        // decisions may legitimately be zero; implications never are.
        assert!(run.total_implications() > 0);
        assert_eq!(run.max_completed_depth(), Some(5));
    }

    #[test]
    fn conflict_budget_reports_resource_out() {
        // Fresh mode: with a zero conflict budget, the UNSAT depths of the
        // input-free counter still complete (level-0 propagation refutes
        // them before the budget is consulted), but the SAT depth hits the
        // budget check in the decision loop and reports ResourceOut there.
        let model = counter_model(3, 5);
        let mut engine = BmcEngine::new(
            model.clone(),
            BmcOptions {
                max_depth: 12,
                strategy: OrderingStrategy::Standard,
                reuse: SolverReuse::Fresh,
                max_conflicts_per_depth: Some(0),
                ..BmcOptions::default()
            },
        );
        match engine.run() {
            BmcOutcome::ResourceOut { at_depth } => assert_eq!(at_depth, 5),
            other => panic!("expected resource-out, got {other:?}"),
        }
        // Session mode asserts the bad state through an assumed activation
        // literal, so even depth 0 needs one pseudo-decision — which a zero
        // budget forbids: ResourceOut immediately, and the property reports
        // Unknown (no depth completed).
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 12,
                strategy: OrderingStrategy::Standard,
                reuse: SolverReuse::Session,
                max_conflicts_per_depth: Some(0),
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        match &run.outcome {
            BmcOutcome::ResourceOut { at_depth } => assert_eq!(*at_depth, 0),
            other => panic!("expected resource-out, got {other:?}"),
        }
        assert!(matches!(
            run.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
    }

    #[test]
    fn session_and_fresh_agree_per_depth() {
        // Same model, both reuse modes, every strategy: identical per-depth
        // verdict sequences and identical counterexample depth.
        for target in [5u64, 12] {
            let model = counter_model(4, target);
            for strategy in all_strategies() {
                let mut runs = Vec::new();
                for reuse in [SolverReuse::Fresh, SolverReuse::Session] {
                    let mut engine = BmcEngine::new(
                        model.clone(),
                        BmcOptions {
                            max_depth: 14,
                            strategy,
                            reuse,
                            ..BmcOptions::default()
                        },
                    );
                    runs.push(engine.run_collecting());
                }
                let verdicts = |run: &BmcRun| -> Vec<SolveResult> {
                    run.per_depth.iter().map(|d| d.result).collect()
                };
                assert_eq!(
                    verdicts(&runs[0]),
                    verdicts(&runs[1]),
                    "{strategy:?} target {target}"
                );
            }
        }
    }

    #[test]
    fn session_run_reports_incremental_stats() {
        let model = counter_model(4, 11);
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 20,
                strategy: OrderingStrategy::RefinedStatic,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 11, .. }
        ));
        let stats = &run.solver_stats;
        // One solve episode per attempted depth (0..=11).
        assert_eq!(stats.solve_calls, 12);
        // Every UNSAT depth ended as a failed-assumption conflict.
        assert_eq!(stats.assumption_conflicts, 11);
        // The per-property report carries the same counters.
        assert_eq!(run.properties.len(), 1);
        assert_eq!(run.properties[0].episodes, 12);
        assert_eq!(run.properties[0].assumption_conflicts, 11);
        assert_eq!(run.properties[0].retirement_depth, Some(11));
        // Fresh mode never reports incremental counters.
        let mut engine = BmcEngine::new(
            counter_model(4, 11),
            BmcOptions {
                max_depth: 20,
                strategy: OrderingStrategy::RefinedStatic,
                reuse: SolverReuse::Fresh,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert_eq!(run.solver_stats.assumption_conflicts, 0);
        assert_eq!(run.solver_stats.learned_retained, 0);
        // Each fresh solver counts its single episode.
        assert_eq!(run.solver_stats.solve_calls, 12);
        assert_eq!(run.properties[0].assumption_conflicts, 0);
    }

    #[test]
    fn multi_property_session_retires_individually() {
        // Three targets: falsified at depths 3 and 9; 4-bit counter wraps at
        // 16, so with max_depth 12 target 14 stays open.
        let problem = counter_problem(4, &[3, 14, 9]);
        for strategy in all_strategies() {
            let mut engine = BmcEngine::for_problem(
                counter_problem(4, &[3, 14, 9]),
                BmcOptions {
                    max_depth: 12,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            assert_eq!(run.properties.len(), 3, "{strategy:?}");
            match &run.property("reach_3").unwrap().verdict {
                PropertyVerdict::Falsified { depth, trace } => {
                    assert_eq!(*depth, 3, "{strategy:?}");
                    assert!(trace
                        .validate_against(problem.netlist(), problem.property(0).bad())
                        .is_ok());
                }
                other => panic!("{strategy:?}: reach_3 expected falsified, got {other}"),
            }
            match &run.property("reach_9").unwrap().verdict {
                PropertyVerdict::Falsified { depth, .. } => assert_eq!(*depth, 9),
                other => panic!("{strategy:?}: reach_9 expected falsified, got {other}"),
            }
            match &run.property("reach_14").unwrap().verdict {
                PropertyVerdict::OpenAt { depth } => assert_eq!(*depth, 12),
                other => panic!("{strategy:?}: reach_14 expected open, got {other}"),
            }
            // Summary outcome is the shallowest counterexample.
            assert!(
                matches!(run.outcome, BmcOutcome::Counterexample { depth: 3, .. }),
                "{strategy:?}"
            );
            assert_eq!(run.num_falsified(), 2);
            // Retired properties stop consuming episodes: reach_3 ran
            // depths 0..=3 only.
            assert_eq!(run.property("reach_3").unwrap().episodes, 4);
            assert_eq!(run.property("reach_14").unwrap().episodes, 13);
        }
    }

    #[test]
    fn multi_property_session_matches_fresh_single_property_runs() {
        // The acceptance gate: per-depth verdicts of one multi-property
        // session run equal those of per-property fresh-per-depth runs.
        let targets: &[u64] = &[5, 11, 13];
        for strategy in all_strategies() {
            let mut engine = BmcEngine::for_problem(
                counter_problem(4, targets),
                BmcOptions {
                    max_depth: 12,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let session_run = engine.run_collecting();
            for (i, &t) in targets.iter().enumerate() {
                let mut fresh_engine = BmcEngine::new(
                    counter_model(4, t),
                    BmcOptions {
                        max_depth: 12,
                        strategy,
                        reuse: SolverReuse::Fresh,
                        ..BmcOptions::default()
                    },
                );
                let fresh_run = fresh_engine.run_collecting();
                let fresh_verdicts: Vec<SolveResult> =
                    fresh_run.per_depth.iter().map(|d| d.result).collect();
                assert_eq!(
                    session_run.properties[i].depth_results, fresh_verdicts,
                    "{strategy:?} target {t}"
                );
            }
        }
    }

    #[test]
    fn all_properties_falsified_ends_run_early() {
        let mut engine = BmcEngine::for_problem(
            counter_problem(4, &[2, 4]),
            BmcOptions {
                max_depth: 15,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        // The sweep stops at depth 4 (last property retired), not 15.
        assert_eq!(run.per_depth.len(), 5);
        assert_eq!(run.num_falsified(), 2);
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 2, .. }
        ));
    }

    #[test]
    fn outcome_display_is_informative() {
        let model = counter_model(3, 5);
        let mut engine = BmcEngine::new(model, BmcOptions::default());
        let outcome = engine.run();
        assert!(outcome.to_string().contains("depth 5"));
        assert!(PropertyVerdict::OpenAt { depth: 7 }
            .to_string()
            .contains("open at depth 7"));
    }
}
