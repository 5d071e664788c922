//! Parallel dispatch of the refinement loop: shard a sweep across a scoped
//! worker pool, then merge the results — `varRank` updates included — in
//! **commit order** (lowest depth first, then property order), so a
//! parallel run is deterministic and reproduces the sequential engine's
//! verdicts exactly. Every grain is an ordering policy over the one BMC
//! solve episode of the `episode` module (the sequential loop's, too): the
//! grains differ in which instance a worker solves next and when cores
//! reach the rank table, never in how an instance is solved.
//!
//! Two sharding grains, one per axis the sweep is independent along:
//!
//! - [`ShardMode::ByProperty`] — one incremental **session solver per
//!   property**, each sweeping depths `0..=max_depth` on its own and
//!   consuming the one shared encoded clause prefix zero-copy (the
//!   [`SharedPrefix`] view of the unroller cache). Workers pick properties
//!   off a queue; `jobs` only sets the concurrency, never the decomposition,
//!   so results are identical for every `jobs` value. A single-property
//!   problem degenerates to exactly the sequential
//!   [`SolverReuse::Session`](crate::SolverReuse) run — bit-identical
//!   verdicts, cores, rank table and per-depth search counters.
//! - [`ShardMode::ByDepth`] — the paper's **fresh solver per (property,
//!   depth)** instances dispatched across workers. The refined strategies
//!   chain each depth's ranking to the previous depths' cores, so instances
//!   are launched as a per-depth wavefront: all open properties of depth `k`
//!   solve concurrently against the same rank snapshot the sequential
//!   [`SolverReuse::Fresh`](crate::SolverReuse) engine would install, and
//!   their cores are committed in property order before depth `k+1` starts.
//!   Core-free strategies (`Standard`, `Shtrichman`) have no such chain, so
//!   their whole `(depth × property)` lattice is dispatched at once — the
//!   embarrassingly parallel case. Either way the committed results are
//!   bit-identical to the sequential fresh engine (each instance is solved
//!   by an identically configured, identically seeded fresh solver);
//!   episodes the sequential loop would never have run (a depth beyond a
//!   property's retirement, or past a budget exhaustion) are discarded at
//!   commit time.
//!
//! Determinism contract: per-property verdicts, per-depth verdict
//! sequences, retirement depths, counterexample traces, and the final
//! `varRank` table do not depend on `jobs` or thread scheduling. Wall-clock
//! and the per-worker breakdown ([`BmcRun::workers`]) of course do. Two
//! qualifications:
//!
//! - **Wall-clock deadlines** ([`BmcOptions::deadline`]) are excluded: a
//!   deadline makes verdicts depend on elapsed time in *any* mode (the
//!   sequential engine included), so deadline-limited runs are
//!   reproducible in neither. The deterministic budget is
//!   [`BmcOptions::max_conflicts_per_depth`].
//! - **Conflict budgets** are honored per episode, and an exhaustion
//!   truncates the run at the sequential loop's `(depth, property)` commit
//!   rule — though work already done past that point (and its aggregate
//!   solver counters) cannot be un-spent. Under [`ShardMode::ByDepth`] the
//!   episodes themselves are bit-identical to the sequential fresh
//!   engine's, so the truncation point matches it exactly; under
//!   [`ShardMode::ByProperty`] each property's session lacks the clauses
//!   the sequential *shared* session would have learned from its siblings,
//!   so with a tight conflict budget an episode may exhaust it where the
//!   shared session would not (or vice versa) and the cut can land at a
//!   different point than sequential `Session` mode. Jobs-invariance holds
//!   regardless — the decomposition never depends on `jobs`.
//!
//! Beside these two deterministic grains live the **relaxed** grains
//! ([`ShardMode::Striped`], [`ShardMode::WorkStealing`]) of the `relaxed`
//! module, which trade the commit-order barrier for throughput:
//! verdict-equivalent to the sequential oracle (and gated by a differential
//! harness on exactly that contract), but with scheduling-dependent rank
//! tables and episode costs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbmc_solver::{CancelFlag, SolveResult};

use crate::engine::{BmcEngine, BmcOptions, BmcRun};
use crate::episode::{
    add_clauses, commit_rank, fresh_episode, Episode, EpisodeCtx, RunFold, Session, SessionSummary,
};
use crate::unroll::SharedPrefix;
use crate::{Model, Unroller, VarRank};

/// Which independence axis a parallel run shards along.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ShardMode {
    /// One session solver per property, properties striped across workers
    /// (the HWMCC-portfolio axis). Best when the problem has several
    /// properties; a single-property problem runs on one worker and matches
    /// the sequential session engine exactly.
    #[default]
    ByProperty,
    /// Fresh-per-depth instances dispatched across workers (the paper's
    /// regime, parallelized). Core-free strategies dispatch every depth at
    /// once; the refined strategies pipeline depth-by-depth because each
    /// depth's ranking depends on the previous cores.
    ByDepth,
    /// **Relaxed**: session solvers striped across depth residues — worker
    /// `w` of `W` owns every depth `k ≡ w (mod W)`, keeping one warm
    /// incremental solver (learned clauses persist across its depths) that
    /// sweeps all properties of each owned depth. `varRank` core unions
    /// commit through a shared table as depths *finish*, not in depth
    /// order — commutative instead of commit-ordered, so verdicts,
    /// retirement depths, and traces still match the sequential oracle
    /// (they are semantic properties of each instance) but the final rank
    /// table and the episode costs may vary with scheduling. See the
    /// `relaxed` module docs for the exact contract.
    Striped,
    /// **Relaxed**: one session solver per property, rebalanced by work
    /// stealing — idle workers steal whole property sessions from the
    /// busiest deque, so a skewed property mix no longer serializes on the
    /// worker that drew the expensive properties. Same relaxed contract as
    /// [`ShardMode::Striped`].
    WorkStealing,
}

impl ShardMode {
    /// Short name used in benchmark tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            ShardMode::ByProperty => "by-property",
            ShardMode::ByDepth => "by-depth",
            ShardMode::Striped => "striped",
            ShardMode::WorkStealing => "work-stealing",
        }
    }

    /// Whether this grain honors the full determinism contract (results
    /// independent of `jobs` and scheduling, rank table included). The
    /// relaxed grains guarantee only verdict equivalence with the
    /// sequential oracle.
    pub fn is_deterministic(self) -> bool {
        matches!(self, ShardMode::ByProperty | ShardMode::ByDepth)
    }

    /// Parses a mode label as accepted by the CLI tools (`--shard`).
    pub fn parse(label: &str) -> Option<ShardMode> {
        match label {
            "by-property" | "property" => Some(ShardMode::ByProperty),
            "by-depth" | "depth" => Some(ShardMode::ByDepth),
            "striped" => Some(ShardMode::Striped),
            "work-stealing" | "steal" => Some(ShardMode::WorkStealing),
            _ => None,
        }
    }
}

/// Configuration of a parallel run ([`BmcOptions::parallel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Worker-thread budget (clamped to at least 1). The decomposition is
    /// independent of this value — only the wall clock changes.
    pub jobs: usize,
    /// The sharding grain.
    pub shard: ShardMode,
}

impl ParallelConfig {
    /// Property-sharded run with `jobs` workers.
    pub fn by_property(jobs: usize) -> ParallelConfig {
        ParallelConfig {
            jobs,
            shard: ShardMode::ByProperty,
        }
    }

    /// Depth-sharded run with `jobs` workers.
    pub fn by_depth(jobs: usize) -> ParallelConfig {
        ParallelConfig {
            jobs,
            shard: ShardMode::ByDepth,
        }
    }

    /// Relaxed depth-residue-striped run with `jobs` workers.
    pub fn striped(jobs: usize) -> ParallelConfig {
        ParallelConfig {
            jobs,
            shard: ShardMode::Striped,
        }
    }

    /// Relaxed work-stealing run with `jobs` workers.
    pub fn work_stealing(jobs: usize) -> ParallelConfig {
        ParallelConfig {
            jobs,
            shard: ShardMode::WorkStealing,
        }
    }
}

/// One worker's share of a parallel run (see [`BmcRun::workers`]).
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Worker index (`0..jobs`).
    pub worker: usize,
    /// Work items claimed: whole property sessions under
    /// [`ShardMode::ByProperty`], solve instances under
    /// [`ShardMode::ByDepth`], owned depths under [`ShardMode::Striped`],
    /// and session pops (one depth advance each, stolen or not) under
    /// [`ShardMode::WorkStealing`].
    pub items: u64,
    /// Solve episodes run by this worker, committed or not (a relaxed or
    /// lattice worker may solve past the run's eventual cut).
    pub episodes: u64,
    /// Decisions over this worker's episodes.
    pub decisions: u64,
    /// Conflicts over this worker's episodes.
    pub conflicts: u64,
    /// Propagations over this worker's episodes.
    pub propagations: u64,
    /// Property sessions stolen from another worker's deque
    /// ([`ShardMode::WorkStealing`] only; 0 elsewhere).
    pub steals: u64,
    /// Wall-clock time of this worker: summed over its items under the
    /// deterministic grains, its whole lifetime under the relaxed ones.
    pub time: Duration,
}

/// Entry point from [`BmcEngine::run_collecting`].
pub(crate) fn run_parallel(engine: &mut BmcEngine, config: ParallelConfig) -> BmcRun {
    let jobs = config.jobs.max(1);
    match config.shard {
        ShardMode::ByProperty => run_by_property(engine, jobs),
        ShardMode::ByDepth => run_by_depth(engine, jobs),
        ShardMode::Striped => crate::relaxed::run_striped(engine, jobs),
        ShardMode::WorkStealing => crate::relaxed::run_work_stealing(engine, jobs),
    }
}

/// The one fan-out primitive every striped sweep in the workspace runs on:
/// up to `workers` scoped threads claim indices `0..len` off one atomic
/// queue, `f(worker, index)` runs each item, and the results come back in
/// **index order** regardless of which worker claimed what (inline on the
/// calling thread when the effective worker count is 1). The worker index
/// lets callers keep per-worker accounting without a second queue
/// implementation; plain sweeps can ignore it.
pub fn striped_map<R: Send>(
    len: usize,
    workers: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let worker_count = workers.min(len).max(1);
    if worker_count == 1 {
        return (0..len).map(|i| f(0, i)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..worker_count {
            let (next, slots, f) = (&next, &slots, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                *slots[i].lock().expect("slot lock") = Some(f(w, i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every index mapped")
        })
        .collect()
}

/// [`striped_map`] with the per-worker accounting the dispatch modes need:
/// `f(index, share)` charges its episodes to `share` and may return `None`
/// to skip an item (its slot stays empty and no `items` credit is given);
/// wall time accumulates per worker. `workers` is grown to the number of
/// threads actually spawned — so [`BmcRun::workers`] reports real
/// concurrency, not the requested budget.
fn striped_dispatch<R: Send>(
    len: usize,
    budget: usize,
    workers: &mut Vec<WorkerReport>,
    f: impl Fn(usize, &mut WorkerReport) -> Option<R> + Sync,
) -> Vec<Option<R>> {
    let spawn = budget.min(len).max(1);
    while workers.len() < spawn {
        workers.push(WorkerReport {
            worker: workers.len(),
            ..WorkerReport::default()
        });
    }
    // One share per thread, only ever locked by its own thread.
    let shares: Vec<Mutex<WorkerReport>> = (0..spawn).map(|_| Mutex::default()).collect();
    let results = striped_map(len, spawn, |w, i| {
        let start = Instant::now();
        let mut share = shares[w].lock().expect("share lock");
        let out = f(i, &mut share);
        share.items += u64::from(out.is_some());
        share.time += start.elapsed();
        out
    });
    for (report, share) in workers.iter_mut().zip(shares) {
        let share = share.into_inner().expect("share lock");
        report.items += share.items;
        report.episodes += share.episodes;
        report.decisions += share.decisions;
        report.conflicts += share.conflicts;
        report.propagations += share.propagations;
        report.time += share.time;
    }
    results
}

/// Whether a property's committed episode list still needs episodes (its
/// last episode, if any, was not SAT).
fn is_open(episodes: &[Episode]) -> bool {
    episodes.last().is_none_or(|e| e.result != SolveResult::Sat)
}

// ---------------------------------------------------------------------------
// ByProperty: one session solver per property.
// ---------------------------------------------------------------------------

fn run_by_property(engine: &mut BmcEngine, jobs: usize) -> BmcRun {
    let run_start = Instant::now();
    let options = *engine.opts();
    let cancel = engine.cancel_flag().cloned();
    let model = engine.working_model().clone();
    let num_props = model.problem().num_properties();
    let unroller = Unroller::new(&model);

    let (results, workers) = unroller.with_shared_prefix(options.max_depth, |prefix| {
        let mut workers = Vec::new();
        let results = striped_dispatch(num_props, jobs, &mut workers, |p, share| {
            let (episodes, session) =
                run_property_session(&model, &options, &prefix, cancel.as_ref(), p);
            for episode in &episodes {
                episode.charge(share);
            }
            Some((episodes, session))
        });
        (results, workers)
    });
    let (mut groups, sessions): (Vec<_>, Vec<_>) = results
        .into_iter()
        .map(|r| r.expect("every property was dispatched"))
        .unzip();
    cut_at_first_unknown(&mut groups);
    // The commit-order rank merge: each depth's core union, lowest depth
    // first — exactly the sequential engine's update sequence.
    let depths = groups.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..depths {
        commit_rank(
            &options,
            engine.rank_mut(),
            k,
            groups
                .iter()
                .filter_map(|g| g.get(k))
                .map(|e| e.core.as_slice()),
        );
    }
    merge_committed(&unroller, groups, sessions, workers, run_start)
}

/// Emulates the sequential control flow on per-property episode lists: the
/// earliest (depth, property) budget exhaustion stops the whole run, so
/// episodes past that commit point are discarded. Shared by
/// [`ShardMode::ByProperty`] and the relaxed grains (whose episodes are
/// reassembled per property into the same shape).
pub(crate) fn cut_at_first_unknown(groups: &mut [Vec<Episode>]) {
    let cut = groups
        .iter()
        .enumerate()
        .filter_map(|(p, g)| {
            g.iter()
                .position(|e| e.result == SolveResult::Unknown)
                .map(|k| (k, p))
        })
        .min();
    if let Some((cut_depth, cut_prop)) = cut {
        for (p, group) in groups.iter_mut().enumerate() {
            group.truncate(if p <= cut_prop {
                cut_depth + 1
            } else {
                cut_depth
            });
        }
    }
}

/// One property's full sweep on its own dedicated session — the
/// sequential session loop specialized to a single property (same
/// episode, same per-depth rank refresh from its own cores, same depth
/// boundary). A single-property problem therefore reproduces the
/// sequential engine exactly, counters included.
fn run_property_session(
    model: &Model,
    options: &BmcOptions,
    prefix: &SharedPrefix<'_>,
    cancel: Option<&CancelFlag>,
    p: usize,
) -> (Vec<Episode>, SessionSummary) {
    let ctx = EpisodeCtx::new(model, options, cancel);
    let mut session = Session::new(options, false);
    let mut rank = VarRank::new(options.weighting);
    let mut episodes = Vec::new();
    for k in 0..=options.max_depth {
        session.load_frames_through(k, |j, solver| add_clauses(solver, prefix.frame_delta(j)));
        let episode = session.episode(&ctx, k, p, Some(&rank.snapshot()));
        commit_rank(options, &mut rank, k, [episode.core.as_slice()]);
        session.end_depth();
        let result = episode.result;
        episodes.push(episode);
        if result != SolveResult::Unsat {
            break;
        }
    }
    (episodes, session.finish())
}

// ---------------------------------------------------------------------------
// ByDepth: fresh solver per (property, depth) instance.
// ---------------------------------------------------------------------------

fn run_by_depth(engine: &mut BmcEngine, jobs: usize) -> BmcRun {
    let run_start = Instant::now();
    let options = *engine.opts();
    let cancel = engine.cancel_flag().cloned();
    let model = engine.working_model().clone();
    let unroller = Unroller::new(&model);
    let mut rank = engine.rank().clone();
    // Grown by the dispatch helper to the concurrency actually reached.
    let mut workers: Vec<WorkerReport> = Vec::new();

    let groups = unroller.with_shared_prefix(options.max_depth, |prefix| {
        // The same fresh episode the sequential `SolverReuse::Fresh` loop
        // runs (same prefix, bad-state unit, ranking and limits — an
        // identical deterministic solver, so an identical result).
        let solve = |p: usize, k: usize, rank: &[u64]| {
            let ctx = EpisodeCtx::new(&model, &options, cancel.as_ref());
            fresh_episode(&ctx, k, p, rank, |solver| {
                add_clauses(solver, prefix.prefix(k));
            })
        };
        if options.strategy.needs_cores() {
            // The refined strategies chain depth k's ranking to the cores of
            // depths < k: dispatch one depth at a time, all open properties
            // concurrently, each against the same rank snapshot the
            // sequential fresh engine would install.
            run_depth_wavefront(&model, &options, solve, &mut rank, &mut workers, jobs)
        } else {
            // No rank chaining: the whole (depth × property) lattice is
            // independent. Dispatch everything; commit order sorts it out.
            run_depth_lattice(&model, &options, solve, &mut workers, jobs)
        }
    });
    *engine.rank_mut() = rank;
    merge_committed(&unroller, groups, Vec::new(), workers, run_start)
}

/// Depth-synchronized dispatch for the core-chained strategies: solve all
/// open properties of each depth concurrently, then commit their cores (in
/// property order) into the rank table before the next depth launches.
fn run_depth_wavefront(
    model: &Model,
    options: &BmcOptions,
    solve: impl Fn(usize, usize, &[u64]) -> Episode + Sync,
    rank: &mut VarRank,
    workers: &mut Vec<WorkerReport>,
    jobs: usize,
) -> Vec<Vec<Episode>> {
    let mut groups: Vec<Vec<Episode>> = (0..model.problem().num_properties())
        .map(|_| Vec::new())
        .collect();
    for k in 0..=options.max_depth {
        let open: Vec<usize> = (0..groups.len()).filter(|&p| is_open(&groups[p])).collect();
        if open.is_empty() {
            break;
        }
        let rank_snapshot = rank.snapshot();
        let episodes = striped_dispatch(open.len(), jobs, workers, |i, share| {
            let episode = solve(open[i], k, &rank_snapshot);
            episode.charge(share);
            Some(episode)
        });
        let mut episodes = episodes.into_iter().map(|e| e.expect("episode solved"));
        let stop = commit_depth(&mut groups, k, |_| episodes.next().expect("open property"));
        commit_rank(
            options,
            rank,
            k,
            groups
                .iter()
                .filter_map(|g| g.get(k))
                .map(|e| e.core.as_slice()),
        );
        if stop {
            break;
        }
    }
    groups
}

/// Whole-lattice dispatch for the core-free strategies: every (depth,
/// property) instance is independent, so workers drain one global queue.
/// A SAT result publishes the property's provisional retirement depth so
/// deeper instances of the same property are skipped instead of solved —
/// commit order retires the property at its *shallowest* SAT depth, and a
/// skipped instance is by construction deeper than that.
fn run_depth_lattice(
    model: &Model,
    options: &BmcOptions,
    solve: impl Fn(usize, usize, &[u64]) -> Episode + Sync,
    workers: &mut Vec<WorkerReport>,
    jobs: usize,
) -> Vec<Vec<Episode>> {
    let num_props = model.problem().num_properties();
    let num_depths = options.max_depth + 1;
    let sat_seen: Vec<AtomicUsize> = (0..num_props)
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();
    let mut episodes = striped_dispatch(num_depths * num_props, jobs, workers, |idx, share| {
        let (k, p) = (idx / num_props, idx % num_props);
        // Skip instances provably beyond the property's retirement (a
        // shallower SAT is already known).
        if k > sat_seen[p].load(Ordering::Relaxed) {
            return None;
        }
        let episode = solve(p, k, &[]);
        if episode.result == SolveResult::Sat {
            sat_seen[p].fetch_min(k, Ordering::Relaxed);
        }
        episode.charge(share);
        Some(episode)
    });

    // Commit in (depth, property) order, reproducing the sequential loop's
    // retirement and stop rules; uncommitted episodes are speculative waste.
    let mut groups: Vec<Vec<Episode>> = (0..num_props).map(|_| Vec::new()).collect();
    for k in 0..num_depths {
        if !groups.iter().any(|g| is_open(g)) {
            break;
        }
        let stop = commit_depth(&mut groups, k, |p| {
            episodes[k * num_props + p]
                .take()
                .expect("open property's instance was dispatched")
        });
        if stop {
            break;
        }
    }
    groups
}

/// Commits depth `k` of every open property in property order — the
/// sequential within-depth walk, including its stop-at-first-Unknown rule.
/// `take(p)` yields property `p`'s depth-`k` episode. Returns whether the
/// run stops at this depth.
fn commit_depth(
    groups: &mut [Vec<Episode>],
    k: usize,
    mut take: impl FnMut(usize) -> Episode,
) -> bool {
    for (p, group) in groups.iter_mut().enumerate() {
        if !is_open(group) {
            continue;
        }
        debug_assert_eq!(group.len(), k, "commits advance one depth at a time");
        let episode = take(p);
        let unknown = episode.result == SolveResult::Unknown;
        group.push(episode);
        if unknown {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Merge: committed per-property results -> one BmcRun.
// ---------------------------------------------------------------------------

/// Folds the committed per-property episode lists into a [`BmcRun`] in
/// commit order — depth by depth, property order within a depth, as the
/// sequential loop folds them — together with the runs' finished session
/// solvers. Rank commits are the scheduler's, not the merge's.
pub(crate) fn merge_committed(
    unroller: &Unroller<'_>,
    groups: Vec<Vec<Episode>>,
    sessions: Vec<SessionSummary>,
    workers: Vec<WorkerReport>,
    run_start: Instant,
) -> BmcRun {
    let mut fold = RunFold::new(unroller.model());
    let depths = groups.iter().map(Vec::len).max().unwrap_or(0);
    let mut columns: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    for k in 0..depths {
        fold.begin_depth(k, unroller.num_vars_at(k));
        for (p, column) in columns.iter_mut().enumerate() {
            if let Some(episode) = column.next() {
                fold.fold(p, k, episode);
            }
        }
        fold.end_depth(None);
    }
    for session in sessions {
        fold.add_solver(session);
    }
    // Parallel runs eagerly encode the whole shared prefix, so the cache
    // peak is its full size (bounded prefix mode is sequential-session-only).
    fold.finish(unroller.peak_cached_clauses(), workers, run_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BmcOutcome, OrderingStrategy, ProblemBuilder, PropertyVerdict, SolverReuse,
        VerificationProblem,
    };
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

    fn run(
        problem: VerificationProblem,
        strategy: OrderingStrategy,
        reuse: SolverReuse,
        parallel: Option<ParallelConfig>,
    ) -> (BmcRun, Vec<u64>) {
        let mut engine = BmcEngine::for_problem(
            problem,
            BmcOptions {
                max_depth: 12,
                strategy,
                reuse,
                parallel,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        (run, engine.rank().snapshot())
    }

    type Signature = Vec<(Vec<SolveResult>, Option<usize>)>;

    fn prop_verdicts(run: &BmcRun) -> Signature {
        run.properties
            .iter()
            .map(|p| (p.depth_results.clone(), p.retirement_depth))
            .collect()
    }

    #[test]
    fn by_property_single_property_matches_sequential_session_exactly() {
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(
                counter_problem(4, &[11]),
                strategy,
                SolverReuse::Session,
                None,
            );
            for jobs in [1, 2, 4] {
                let (par, par_rank) = run(
                    counter_problem(4, &[11]),
                    strategy,
                    SolverReuse::Session,
                    Some(ParallelConfig::by_property(jobs)),
                );
                assert_eq!(
                    prop_verdicts(&par),
                    prop_verdicts(&seq),
                    "{strategy:?} j{jobs}"
                );
                assert_eq!(par_rank, seq_rank, "{strategy:?} j{jobs} rank table");
                let depth = |r: &BmcRun| -> Vec<SolveResult> {
                    r.per_depth.iter().map(|d| d.result).collect()
                };
                assert_eq!(depth(&par), depth(&seq), "{strategy:?} j{jobs}");
                // The same episode primitive in the same call order: every
                // per-depth search counter matches, not just the verdicts.
                let counters = |r: &BmcRun| -> Vec<(u64, u64, u64)> {
                    r.per_depth
                        .iter()
                        .map(|d| (d.decisions, d.conflicts, d.implications))
                        .collect()
                };
                assert_eq!(
                    counters(&par),
                    counters(&seq),
                    "{strategy:?} j{jobs} per-depth counters"
                );
                assert!(matches!(
                    par.outcome,
                    BmcOutcome::Counterexample { depth: 11, .. }
                ));
            }
        }
    }

    #[test]
    fn by_depth_single_property_matches_sequential_fresh_exactly() {
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(counter_problem(4, &[9]), strategy, SolverReuse::Fresh, None);
            for jobs in [1, 2, 4] {
                let (par, par_rank) = run(
                    counter_problem(4, &[9]),
                    strategy,
                    SolverReuse::Fresh,
                    Some(ParallelConfig::by_depth(jobs)),
                );
                assert_eq!(
                    prop_verdicts(&par),
                    prop_verdicts(&seq),
                    "{strategy:?} j{jobs}"
                );
                assert_eq!(par_rank, seq_rank, "{strategy:?} j{jobs} rank table");
                assert_eq!(
                    par.total_decisions(),
                    seq.total_decisions(),
                    "{strategy:?} j{jobs}"
                );
            }
        }
    }

    #[test]
    fn multi_property_parallel_verdicts_match_sequential_and_are_jobs_invariant() {
        // 3 and 9 falsified; 14 unreachable within depth 12 of a 4-bit
        // counter (wraps at 16).
        let targets: &[u64] = &[3, 14, 9];
        for strategy in all_strategies() {
            let (seq, _) = run(
                counter_problem(4, targets),
                strategy,
                SolverReuse::Session,
                None,
            );
            for shard in [ShardMode::ByProperty, ShardMode::ByDepth] {
                let mut baseline: Option<(Signature, Vec<u64>)> = None;
                for jobs in [1, 2, 4] {
                    let (par, par_rank) = run(
                        counter_problem(4, targets),
                        strategy,
                        SolverReuse::Session,
                        Some(ParallelConfig { jobs, shard }),
                    );
                    assert_eq!(
                        prop_verdicts(&par),
                        prop_verdicts(&seq),
                        "{strategy:?} {shard:?} j{jobs}"
                    );
                    assert!(
                        matches!(par.outcome, BmcOutcome::Counterexample { depth: 3, .. }),
                        "{strategy:?} {shard:?} j{jobs}"
                    );
                    match &baseline {
                        None => baseline = Some((prop_verdicts(&par), par_rank)),
                        Some((v, r)) => {
                            assert_eq!(&prop_verdicts(&par), v, "{strategy:?} {shard:?} j{jobs}");
                            assert_eq!(&par_rank, r, "{strategy:?} {shard:?} j{jobs} rank");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_property_by_depth_matches_sequential_fresh_rank_table() {
        // The depth-wavefront commits cores in the same order the sequential
        // fresh engine does, so even the multi-property rank table is
        // bit-identical to SolverReuse::Fresh.
        let targets: &[u64] = &[5, 14, 11];
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(
                counter_problem(4, targets),
                strategy,
                SolverReuse::Fresh,
                None,
            );
            let (par, par_rank) = run(
                counter_problem(4, targets),
                strategy,
                SolverReuse::Fresh,
                Some(ParallelConfig::by_depth(3)),
            );
            assert_eq!(prop_verdicts(&par), prop_verdicts(&seq), "{strategy:?}");
            assert_eq!(par_rank, seq_rank, "{strategy:?}");
        }
    }

    #[test]
    fn worker_reports_cover_all_items() {
        let (par, _) = run(
            counter_problem(4, &[3, 14, 9]),
            OrderingStrategy::RefinedStatic,
            SolverReuse::Session,
            Some(ParallelConfig::by_property(2)),
        );
        assert_eq!(par.workers.len(), 2);
        assert_eq!(par.workers.iter().map(|w| w.items).sum::<u64>(), 3);
        let episodes: u64 = par.properties.iter().map(|p| p.episodes).sum();
        assert_eq!(
            par.workers.iter().map(|w| w.episodes).sum::<u64>(),
            episodes
        );
        // Sequential runs never report workers.
        let (seq, _) = run(
            counter_problem(4, &[3]),
            OrderingStrategy::Standard,
            SolverReuse::Session,
            None,
        );
        assert!(seq.workers.is_empty());
    }

    #[test]
    fn parallel_budget_exhaustion_matches_sequential_commit_point() {
        // A zero conflict budget: the session engine reports ResourceOut at
        // depth 0 with the property Unknown; the fresh engine completes the
        // propagation-only UNSAT depths and stops at the SAT depth.
        let mk = |reuse, parallel| {
            let mut engine = BmcEngine::for_problem(
                counter_problem(3, &[5]),
                BmcOptions {
                    max_depth: 12,
                    reuse,
                    parallel,
                    max_conflicts_per_depth: Some(0),
                    ..BmcOptions::default()
                },
            );
            engine.run_collecting()
        };
        let par = mk(SolverReuse::Session, Some(ParallelConfig::by_property(2)));
        assert!(matches!(
            par.outcome,
            BmcOutcome::ResourceOut { at_depth: 0 }
        ));
        assert!(matches!(
            par.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
        let seq = mk(SolverReuse::Fresh, None);
        let par = mk(SolverReuse::Fresh, Some(ParallelConfig::by_depth(4)));
        match (&seq.outcome, &par.outcome) {
            (BmcOutcome::ResourceOut { at_depth: a }, BmcOutcome::ResourceOut { at_depth: b }) => {
                assert_eq!(a, b);
            }
            other => panic!("expected matching resource-out, got {other:?}"),
        }
        assert_eq!(prop_verdicts(&par), prop_verdicts(&seq));
    }
}
