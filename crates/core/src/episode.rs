//! The one BMC solve episode — the unit of work of the paper's Fig. 5 loop:
//! `sat_check(F_k, varRank)` on one instance, then its core for
//! `update_ranking`.
//!
//! Every BMC run solves its episodes through this module, in the one depth
//! loop [`run_sequential`](crate::engine::run_sequential): the sequential
//! engine runs it over every property, a by-property worker of the
//! `parallel` module over one. The loop is built from three shared pieces:
//!
//! - [`Session`] — a persistent solver with its proof certifier and a
//!   frames-loaded cursor. [`Session::episode`] solves one property at one
//!   depth under an activation literal; [`Session::end_depth`] is the depth
//!   boundary (CDG pruning, `debug-invariants` audits). k-induction's step
//!   solvers are sessions too, querying through
//!   [`Session::solve_activated`].
//! - [`fresh_episode`] — the paper's original regime: a solver provisioned
//!   for one instance, loaded with the whole prefix plus the bad-state
//!   unit, and discarded after the verdict.
//! - [`RunFold`] — the one fold of committed episodes into the per-property,
//!   per-depth and run-level counters a [`BmcRun`] reports;
//!   [`Episode::charge`] is the same fold into a worker's share.
//!
//! Rank commits go through [`commit_rank`]: the depth loop commits each
//! depth's cores to the table it schedules against, and the by-property
//! merge commits the same cores, in commit order, to the engine's table.

use std::time::{Duration, Instant};

use rbmc_cnf::{Clauses, Lit, Var};
use rbmc_solver::{CancelFlag, Limits, SolveResult, Solver, SolverStats};

use crate::certify::{self, EpisodeCertifier};
use crate::engine::{
    depth_limits, strategy_solver_options, BmcOptions, BmcOutcome, BmcRun, DepthStats,
    OrderingStrategy, PropertyReport, PropertyVerdict,
};
use crate::parallel::WorkerReport;
use crate::{shtrichman_rank, Model, ProofSummary, Trace, Unroller, VarRank};

/// What every episode of one depth loop reads: the working model, the
/// loop's own unroller (index arithmetic and clause cache), the run options
/// and the per-episode limits.
pub(crate) struct EpisodeCtx<'a> {
    pub(crate) model: &'a Model,
    pub(crate) unroller: Unroller<'a>,
    pub(crate) options: BmcOptions,
    limits: Limits,
}

impl<'a> EpisodeCtx<'a> {
    pub(crate) fn new(
        model: &'a Model,
        options: &BmcOptions,
        cancel: Option<&CancelFlag>,
    ) -> EpisodeCtx<'a> {
        EpisodeCtx {
            model,
            unroller: Unroller::new(model),
            options: *options,
            limits: depth_limits(options, cancel),
        }
    }

    /// Whether the run's cancellation flag is raised. A cancelled run
    /// starts no further episode: the solver only polls the flag between
    /// conflicts and decisions, so an instance that falls to propagation
    /// alone would otherwise still be decided after the cancellation.
    fn cancelled(&self) -> bool {
        self.limits
            .cancel
            .as_ref()
            .is_some_and(CancelFlag::is_cancelled)
    }

    /// Installs the strategy's ranking for a depth-`k` episode: nothing for
    /// Chaff's baseline, the time-axis table for Shtrichman, and `rank` (a
    /// `varRank` snapshot) for the refined modes.
    fn install_ranking(&self, solver: &mut Solver, rank: &[u64], k: usize) {
        match self.options.strategy {
            OrderingStrategy::Standard => {}
            OrderingStrategy::Shtrichman => {
                solver.set_var_ranking(&shtrichman_rank(&self.unroller, k));
            }
            _ => solver.set_var_ranking(rank),
        }
    }

    /// Builds the [`Episode`] of a finished solve from the counter deltas
    /// against `base`, then takes its trace (SAT, validated in debug builds)
    /// or its core (UNSAT).
    fn conclude(
        &self,
        solver: &Solver,
        result: SolveResult,
        base: &SolverStats,
        k: usize,
        p: usize,
    ) -> Episode {
        let stats = solver.stats();
        let mut episode = Episode {
            result,
            decisions: stats.decisions - base.decisions,
            implications: stats.propagations - base.propagations,
            conflicts: stats.conflicts - base.conflicts,
            cdg_nodes: stats.cdg_nodes - base.cdg_nodes,
            cdg_edges: stats.cdg_edges - base.cdg_edges,
            num_clauses: solver.num_original_clauses(),
            switched: stats.switched_to_vsids,
            ..Episode::unknown()
        };
        match result {
            SolveResult::Sat => {
                let assignment = solver.model().expect("model after SAT");
                let trace = Trace::from_assignment(&self.unroller, assignment, k);
                let property = self.model.problem().property(p);
                debug_assert!(
                    trace
                        .validate_against(self.model.netlist(), property.bad())
                        .is_ok(),
                    "solver returned an invalid counterexample for `{}`",
                    property.name()
                );
                episode.trace = Some(trace);
            }
            // This property's share of the paper's unsatVars, filtered to
            // the frame-stable model variables: activation variables live
            // above the unrolling's range and are session bookkeeping.
            SolveResult::Unsat => {
                let bound = self.unroller.num_vars_at(k);
                episode.core = solver
                    .core_vars()
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|v| v.index() < bound)
                    .collect();
            }
            SolveResult::Unknown => {}
        }
        episode
    }
}

/// Appends `clauses` to `solver` (the frame loaders' one primitive).
pub(crate) fn add_clauses(solver: &mut Solver, clauses: Clauses<'_>) {
    for clause in clauses {
        solver.add_clause(clause.lits());
    }
}

/// Everything one solve episode produced, buffered until its depth loop
/// commits it.
pub(crate) struct Episode {
    pub(crate) result: SolveResult,
    pub(crate) decisions: u64,
    pub(crate) implications: u64,
    pub(crate) conflicts: u64,
    pub(crate) cdg_nodes: u64,
    pub(crate) cdg_edges: u64,
    pub(crate) num_clauses: usize,
    pub(crate) switched: bool,
    /// The frame-stable core variables of an UNSAT episode, empty
    /// otherwise.
    pub(crate) core: Vec<Var>,
    /// The counterexample of a SAT episode.
    pub(crate) trace: Option<Trace>,
    /// A fresh episode's own solver: final counters and proof summary
    /// (`None` for session episodes, whose solver outlives them).
    pub(crate) fresh: Option<SessionSummary>,
    pub(crate) time: Duration,
}

impl Episode {
    /// A zero-cost Unknown episode: what a cancelled run's episodes
    /// return, and the base every concluded episode is built on.
    pub(crate) fn unknown() -> Episode {
        Episode {
            result: SolveResult::Unknown,
            decisions: 0,
            implications: 0,
            conflicts: 0,
            cdg_nodes: 0,
            cdg_edges: 0,
            num_clauses: 0,
            switched: false,
            core: Vec::new(),
            trace: None,
            fresh: None,
            time: Duration::ZERO,
        }
    }

    /// Folds this episode into the share of the worker that solved it
    /// (committed or not — a worker report counts the work done).
    pub(crate) fn charge(&self, report: &mut WorkerReport) {
        report.episodes += 1;
        report.decisions += self.decisions;
        report.conflicts += self.conflicts;
        report.propagations += self.implications;
    }
}

/// A finished solver's contribution to the run totals.
pub(crate) struct SessionSummary {
    stats: SolverStats,
    proof: Option<ProofSummary>,
}

impl SessionSummary {
    /// Adds this solver's counters and proof summary to a run's totals.
    pub(crate) fn add_to(self, stats: &mut SolverStats, proof: &mut Option<ProofSummary>) {
        stats.accumulate(&self.stats);
        certify::merge_opt(proof, self.proof);
    }
}

/// A persistent BMC solver: one [`Solver`] configured by
/// [`strategy_solver_options`], its proof certifier, and the cursor of
/// frames loaded so far.
///
/// A session serves the properties its depth loop schedules, each in its
/// own activation *slot*. The activation literal of slot `s` at depth `k`
/// lives above the whole unrolling's variable range, at
/// `num_vars_at(max_depth) + k · slots + s`, so it never collides with a
/// model variable of any depth the run reaches; each depth owns one block
/// of `slots` literals.
pub(crate) struct Session {
    solver: Solver,
    certifier: Option<EpisodeCertifier>,
    /// Frames `0..loaded` are in the solver.
    loaded: usize,
    /// Activation slots per depth: the number of scheduled properties.
    slots: usize,
    cdg_prune: bool,
}

impl Session {
    /// Provisions a session solver with `slots` activation slots per depth.
    /// This is the only place BMC attaches a proof certifier (before any
    /// clause, as the recorder requires), so the certifier moves wherever
    /// its solver goes.
    pub(crate) fn new(options: &BmcOptions, slots: usize) -> Session {
        let mut solver = Solver::with_options(strategy_solver_options(options));
        let certifier = EpisodeCertifier::attach(options.proof, &mut solver);
        Session {
            solver,
            certifier,
            loaded: 0,
            slots,
            cdg_prune: options.cdg_prune,
        }
    }

    /// Loads every frame through `k` not loaded yet, one frame delta at a
    /// time, from `unroller`'s cache in **bounded prefix mode**: the
    /// persistent solver holds a loaded frame for the rest of the run, so
    /// the cache copy is pure duplication — it is dropped, keeping the cache
    /// at one frame instead of `max_depth`.
    pub(crate) fn load_frames_through(&mut self, unroller: &Unroller<'_>, k: usize) {
        while self.loaded <= k {
            let frame = self.loaded;
            unroller.with_frame_delta(frame, |clauses| add_clauses(&mut self.solver, clauses));
            unroller.retire_frames_through(frame);
            self.loaded += 1;
        }
    }

    /// One session episode: property `p`, in activation slot `slot`, at
    /// depth `k`. Adds `a → bad_p^k`, installs `rank` when given one (the
    /// depth loop installs the ranking once per depth, after that depth's
    /// first activation clause), solves under the assumption `a`, and takes
    /// the trace or core. A conclusive episode then retires `a` for good
    /// with a `¬a` unit — the property's bad-state clause must never
    /// constrain a later episode, and clause-database reduction reclaims
    /// everything learned against `a` — and an UNSAT one is certified
    /// against its just-recorded final clause.
    pub(crate) fn episode(
        &mut self,
        ctx: &EpisodeCtx<'_>,
        k: usize,
        slot: usize,
        p: usize,
        rank: Option<&[u64]>,
    ) -> Episode {
        if ctx.cancelled() {
            return Episode::unknown();
        }
        let start = Instant::now();
        let base = self.solver.stats().clone();
        let block = ctx.unroller.num_vars_at(ctx.options.max_depth) + k * self.slots;
        let act = Var::new(block + slot).positive();
        let bad = ctx.model.problem().property(p).bad();
        self.solver.add_clause(&[!act, ctx.unroller.lit_of(bad, k)]);
        if let Some(rank) = rank {
            ctx.install_ranking(&mut self.solver, rank, k);
        }
        let result = self.solver.solve_under_limited(&[act], &ctx.limits);
        let mut episode = ctx.conclude(&self.solver, result, &base, k, p);
        self.close(act, result);
        episode.time = start.elapsed();
        episode
    }

    /// Adds `clause` for the rest of the session.
    pub(crate) fn add_clause(&mut self, clause: &[Lit]) {
        self.solver.add_clause(clause);
    }

    /// A query outside the BMC episodes — k-induction's step case: adds
    /// `act → target`, solves under `act` within `limits`, and closes `act`
    /// as an episode does.
    pub(crate) fn solve_activated(
        &mut self,
        act: Lit,
        target: Lit,
        limits: &Limits,
    ) -> SolveResult {
        self.solver.add_clause(&[!act, target]);
        let result = self.solver.solve_under_limited(&[act], limits);
        self.close(act, result);
        result
    }

    /// Closes an activated query: a conclusive one retires `act` for good
    /// with a `¬act` unit, and an UNSAT one is certified against its
    /// just-recorded final clause.
    fn close(&mut self, act: Lit, result: SolveResult) {
        if result != SolveResult::Unknown {
            self.solver.add_clause(&[!act]);
        }
        if result == SolveResult::Unsat {
            if let Some(cert) = self.certifier.as_mut() {
                cert.observe_unsat();
            }
        }
    }

    /// The depth boundary. The `¬a` retirements have just cut a batch of
    /// learned clauses loose; pruning drops the CDG nodes nothing live can
    /// reach any more, bounding session memory on deep sweeps (IDs are
    /// opaque and cores cite input positions, so search and future cores
    /// are unchanged). `debug-invariants` builds also audit the solver
    /// (watches, trail, arena, CDG) and its proof log here.
    pub(crate) fn end_depth(&mut self) {
        if self.cdg_prune {
            self.solver.prune_cdg();
        }
        #[cfg(feature = "debug-invariants")]
        {
            self.solver
                .audit()
                .expect("solver invariants at depth boundary");
            certify::audit_proof_coherence(&self.solver)
                .expect("proof-log coherence at depth boundary");
        }
    }

    /// Closes the session: its final counters and proof summary.
    pub(crate) fn finish(self) -> SessionSummary {
        SessionSummary {
            stats: self.solver.stats().clone(),
            proof: self.certifier.map(EpisodeCertifier::into_summary),
        }
    }
}

/// One fresh episode — the paper's per-instance solver: provisions a
/// solver, loads the clause prefix through `load_prefix`, asserts property
/// `p`'s depth-`k` bad state as a unit (no activation literal), installs
/// the ranking and solves. The episode carries the solver's own counters
/// and proof summary, since the solver dies with it.
pub(crate) fn fresh_episode(
    ctx: &EpisodeCtx<'_>,
    k: usize,
    p: usize,
    rank: &[u64],
    load_prefix: impl FnOnce(&mut Solver),
) -> Episode {
    if ctx.cancelled() {
        return Episode::unknown();
    }
    let start = Instant::now();
    // A fresh solver serves one instance and never activates a slot.
    let mut session = Session::new(&ctx.options, 1);
    let solver = &mut session.solver;
    solver.reserve_vars(ctx.unroller.num_vars_at(k));
    load_prefix(solver);
    let bad = ctx.model.problem().property(p).bad();
    solver.add_clause(&[ctx.unroller.lit_of(bad, k)]);
    ctx.install_ranking(solver, rank, k);
    let result = solver.solve_limited(&ctx.limits);
    let mut episode = ctx.conclude(solver, result, &SolverStats::new(), k, p);
    if result == SolveResult::Unsat {
        if let Some(cert) = session.certifier.as_mut() {
            cert.observe_unsat();
        }
    }
    episode.fresh = Some(session.finish());
    episode.time = start.elapsed();
    episode
}

/// Commits one depth's cores to `rank` — the paper's `update_ranking` over
/// their deduplicated union — under the refined strategies; a no-op under
/// the core-free ones.
pub(crate) fn commit_rank<'c>(
    options: &BmcOptions,
    rank: &mut VarRank,
    k: usize,
    cores: impl IntoIterator<Item = &'c [Var]>,
) {
    if options.strategy.needs_cores() {
        rank.update_union(cores, k);
    }
}

/// Per-property live state of a run.
struct PropState {
    name: String,
    episodes: u64,
    assumption_conflicts: u64,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    completed: Option<usize>,
    falsified: Option<(usize, Trace)>,
    depth_results: Vec<SolveResult>,
}

impl PropState {
    fn into_report(self) -> PropertyReport {
        let verdict = match (self.falsified, self.completed) {
            (Some((depth, trace)), _) => PropertyVerdict::Falsified { depth, trace },
            (None, Some(depth)) => PropertyVerdict::OpenAt { depth },
            (None, None) => PropertyVerdict::Unknown,
        };
        let retirement_depth = match &verdict {
            PropertyVerdict::Falsified { depth, .. } => Some(*depth),
            _ => None,
        };
        PropertyReport {
            name: self.name,
            verdict,
            episodes: self.episodes,
            assumption_conflicts: self.assumption_conflicts,
            decisions: self.decisions,
            conflicts: self.conflicts,
            propagations: self.propagations,
            retirement_depth,
            depth_results: self.depth_results,
        }
    }
}

/// The one fold of committed episodes into a run's counters: per-property
/// state, per-depth statistics with the size of the depth's core union, and
/// the run's solver and proof totals. It is fed depth by depth, in property
/// order within a depth — by the sequential engine as its depth loop
/// commits, by the by-property merge from the committed per-property
/// episode lists.
pub(crate) struct RunFold {
    props: Vec<PropState>,
    per_depth: Vec<DepthStats>,
    solver_stats: SolverStats,
    proof: Option<ProofSummary>,
}

impl RunFold {
    pub(crate) fn new(model: &Model) -> RunFold {
        let props = model
            .problem()
            .properties()
            .iter()
            .map(|p| PropState {
                name: p.name().to_string(),
                episodes: 0,
                assumption_conflicts: 0,
                decisions: 0,
                conflicts: 0,
                propagations: 0,
                completed: None,
                falsified: None,
                depth_results: Vec::new(),
            })
            .collect();
        RunFold {
            props,
            per_depth: Vec::new(),
            solver_stats: SolverStats::new(),
            proof: None,
        }
    }

    /// Whether the last depth hit a resource budget (the run stops there).
    fn resource_out(&self) -> bool {
        self.per_depth
            .last()
            .is_some_and(|d| d.result == SolveResult::Unknown)
    }

    /// Folds depth `k`'s committed episodes — `(property, episode)` pairs in
    /// property order, over instances of `num_vars` variables. `time` is
    /// the depth's wall time when one loop ran it; without it the depth
    /// time is the sum of its episodes' times.
    pub(crate) fn fold_depth(
        &mut self,
        k: usize,
        num_vars: usize,
        episodes: impl IntoIterator<Item = (usize, Episode)>,
        time: Option<Duration>,
    ) {
        let mut depth = DepthStats {
            depth: k,
            result: SolveResult::Unsat,
            decisions: 0,
            implications: 0,
            conflicts: 0,
            num_vars,
            num_clauses: 0,
            core_vars: 0,
            switched_to_vsids: false,
            cdg_nodes: 0,
            cdg_edges: 0,
            time: Duration::ZERO,
        };
        // The depth's union of UNSAT cores (the paper's `unsatVars`).
        let mut union: Vec<Var> = Vec::new();
        for (p, episode) in episodes {
            let prop = &mut self.props[p];
            prop.episodes += 1;
            prop.decisions += episode.decisions;
            prop.conflicts += episode.conflicts;
            prop.propagations += episode.implications;
            prop.depth_results.push(episode.result);
            depth.decisions += episode.decisions;
            depth.implications += episode.implications;
            depth.conflicts += episode.conflicts;
            depth.cdg_nodes += episode.cdg_nodes;
            depth.cdg_edges += episode.cdg_edges;
            depth.num_clauses = depth.num_clauses.max(episode.num_clauses);
            depth.switched_to_vsids |= episode.switched;
            depth.time += episode.time;
            match episode.result {
                SolveResult::Sat => {
                    depth.result = SolveResult::Sat;
                    prop.falsified = Some((k, episode.trace.expect("SAT episode carries a trace")));
                }
                SolveResult::Unsat => {
                    prop.completed = Some(k);
                    // A session episode's UNSAT is a failed-assumption
                    // conflict; a fresh solver asserts the bad state as a
                    // unit instead.
                    if episode.fresh.is_none() {
                        prop.assumption_conflicts += 1;
                    }
                    union.extend(episode.core);
                }
                SolveResult::Unknown => depth.result = SolveResult::Unknown,
            }
            if let Some(fresh) = episode.fresh {
                self.add_solver(fresh);
            }
        }
        union.sort_unstable();
        union.dedup();
        depth.core_vars = union.len();
        if let Some(time) = time {
            depth.time = time;
        }
        self.per_depth.push(depth);
    }

    /// Adds a finished solver's counters and proof summary to the run.
    pub(crate) fn add_solver(&mut self, summary: SessionSummary) {
        summary.add_to(&mut self.solver_stats, &mut self.proof);
    }

    /// The finished run. The outcome follows the sequential precedence: the
    /// shallowest counterexample (ties by property order) outranks a budget
    /// exhaustion — the summary keeps its meaning (some property fails) and
    /// the per-property reports still record who ran out — which outranks
    /// the bound.
    pub(crate) fn finish(
        mut self,
        prefix_peak_clauses: usize,
        workers: Vec<WorkerReport>,
        run_start: Instant,
    ) -> BmcRun {
        let first_falsified = self
            .props
            .iter()
            .enumerate()
            .filter_map(|(p, s)| s.falsified.as_ref().map(|(d, _)| (*d, p)))
            .min();
        let outcome = match (self.resource_out(), first_falsified) {
            (_, Some((_, p))) => {
                let (depth, trace) = self.props[p].falsified.clone().expect("falsified");
                BmcOutcome::Counterexample { depth, trace }
            }
            (true, None) => BmcOutcome::ResourceOut {
                at_depth: self.per_depth.last().map_or(0, |d| d.depth),
            },
            (false, None) => BmcOutcome::BoundReached {
                depth_completed: self.per_depth.last().map_or(0, |d| d.depth),
            },
        };
        self.solver_stats.prefix_peak_clauses = self
            .solver_stats
            .prefix_peak_clauses
            .max(prefix_peak_clauses as u64);
        BmcRun {
            outcome,
            properties: self.props.into_iter().map(PropState::into_report).collect(),
            per_depth: self.per_depth,
            solver_stats: self.solver_stats,
            workers,
            total_time: run_start.elapsed(),
            proof: self.proof,
        }
    }
}
