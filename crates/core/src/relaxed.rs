//! Relaxed-determinism parallel dispatch: the faster grain past the
//! commit-order barrier of the [`parallel`](crate::parallel) module.
//!
//! The deterministic grains reproduce the sequential engine bit for bit by
//! committing every result — `varRank` updates included — in sequential
//! order, which serializes exactly the part of the sweep the refinement
//! loop feeds on. The two grains here drop that barrier and keep only what
//! is *semantic*:
//!
//! - [`ShardMode::Striped`](crate::ShardMode) — worker `w` of `W` owns
//!   every depth `k ≡ w (mod W)` and sweeps **all** properties of each
//!   owned depth on one warm incremental session solver (learned clauses
//!   persist across the worker's depths). Each owned depth still commits
//!   its core union in one [`VarRank::update_union`] call — the same
//!   per-depth union the sequential engine forms — but the unions land in
//!   the shared table in *completion order*, not depth order. Under the
//!   [`Weighting::is_commutative`](crate::Weighting::is_commutative)
//!   schemes the final table is a permutation-invariant sum, so only the
//!   rank snapshots workers *observe mid-run* vary with scheduling.
//! - [`ShardMode::WorkStealing`](crate::ShardMode) — one session solver
//!   per property (the `ByProperty` decomposition), but tasks live in
//!   per-worker deques and advance **one depth per pop**: an idle worker
//!   steals the deepest-queued session from the fullest deque, so a skewed
//!   property mix no longer pins the whole run on the worker that drew the
//!   expensive properties. Core updates commit per episode as they finish.
//!
//! Both solve through the same session episode as the sequential loop (the
//! `episode` module), in its call order; only the schedule and the rank
//! commits are relaxed.
//!
//! **What is guaranteed** (and differentially tested against the
//! sequential oracle in `tests/relaxed_vs_deterministic.rs`): per-property
//! verdicts, per-depth verdict sequences, retirement depths, and validated
//! counterexample traces. SAT-ness of instance `F_k ∧ bad_p^k` is a
//! property of the formula, not of the solver schedule, so every complete
//! solver agrees on it; the ranking only steers *how fast* a verdict is
//! reached. **What is not guaranteed**: the final rank table, per-episode
//! decision/conflict counts, and (under a resource budget) where the run
//! truncates — a relaxed session learns different clauses than the
//! sequential shared session, so a tight budget can exhaust at a different
//! episode. Budget-free runs match the oracle exactly.
//!
//! Cancellation: a [`CancelFlag`] attached to the engine
//! ([`BmcEngine::set_cancel`]) is threaded into every worker's limits.
//! Cancelled episodes surface as [`SolveResult::Unknown`]; depths a
//! cancelled worker never reached are backfilled with synthetic `Unknown`
//! episodes at commit, so the run truncates through the same
//! `ResourceOut` machinery a budget exhaustion uses and always returns a
//! committed partial [`BmcRun`](crate::BmcRun).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rbmc_solver::{CancelFlag, SolveResult};

use crate::engine::{BmcEngine, BmcOptions, BmcRun};
use crate::episode::{add_clauses, commit_rank, Episode, EpisodeCtx, Session, SessionSummary};
use crate::parallel::{cut_at_first_unknown, merge_committed, striped_map, WorkerReport};
use crate::unroll::SharedPrefix;
use crate::{Model, Unroller, VarRank};

// ---------------------------------------------------------------------------
// Striped: session solvers across depth residues.
// ---------------------------------------------------------------------------

/// Shared read-mostly context of a striped run (one per run, borrowed by
/// every worker).
struct StripedCtx<'a, 'b> {
    model: &'a Model,
    options: &'a BmcOptions,
    prefix: &'a SharedPrefix<'b>,
    cancel: Option<&'a CancelFlag>,
    /// The shared rank table; workers snapshot before a depth and commit
    /// the depth's core union after (commutative, completion-ordered).
    rank: &'a Mutex<VarRank>,
    /// Shallowest known SAT depth per property (`usize::MAX` = none):
    /// depths beyond it are post-retirement and skipped.
    sat_min: &'a [AtomicUsize],
    /// Earliest depth that hit a resource budget (`usize::MAX` = none):
    /// deeper depths would be discarded at the cut anyway.
    unknown_min: &'a AtomicUsize,
    num_workers: usize,
}

/// One striped worker's complete output: for each owned depth, one episode
/// per property it actually solved.
struct StripedOut {
    rows: Vec<(usize, Vec<Option<Episode>>)>,
    report: WorkerReport,
    session: SessionSummary,
}

pub(crate) fn run_striped(engine: &mut BmcEngine, jobs: usize) -> BmcRun {
    let run_start = Instant::now();
    let options = *engine.opts();
    let cancel = engine.cancel_flag().cloned();
    let model = engine.working_model().clone();
    let num_props = model.problem().num_properties();
    let num_depths = options.max_depth + 1;
    let unroller = Unroller::new(&model);

    let shared_rank = Mutex::new(VarRank::new(options.weighting));
    let sat_min: Vec<AtomicUsize> = (0..num_props)
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();
    let unknown_min = AtomicUsize::new(usize::MAX);
    let num_workers = jobs.max(1).min(num_depths);

    let outputs = unroller.with_shared_prefix(options.max_depth, |prefix| {
        let ctx = StripedCtx {
            model: &model,
            options: &options,
            prefix: &prefix,
            cancel: cancel.as_ref(),
            rank: &shared_rank,
            sat_min: &sat_min,
            unknown_min: &unknown_min,
            num_workers,
        };
        striped_map(num_workers, num_workers, |_, w| run_striped_worker(&ctx, w))
    });

    // Reassemble the per-(depth, property) episode table, then walk each
    // property's depths in order — the same committed-prefix shape the
    // deterministic ByProperty merge consumes.
    let mut table: Vec<Vec<Option<Episode>>> = (0..num_depths)
        .map(|_| (0..num_props).map(|_| None).collect())
        .collect();
    let mut reports = Vec::with_capacity(outputs.len());
    let mut sessions = Vec::with_capacity(outputs.len());
    for out in outputs {
        for (k, row) in out.rows {
            table[k] = row;
        }
        reports.push(out.report);
        sessions.push(out.session);
    }
    let cancelled = cancel.as_ref().is_some_and(CancelFlag::is_cancelled);
    let mut groups: Vec<Vec<Episode>> = (0..num_props).map(|_| Vec::new()).collect();
    for (p, group) in groups.iter_mut().enumerate() {
        for row in &mut table {
            match row[p].take() {
                Some(episode) => {
                    let done = episode.result != SolveResult::Unsat;
                    group.push(episode);
                    if done {
                        break;
                    }
                }
                None => {
                    // A depth this property still needed was never solved —
                    // only a cancelled run leaves such a gap. Surface it as
                    // the budget machinery's Unknown so the cut lands here.
                    if cancelled {
                        group.push(Episode::unknown());
                    }
                    break;
                }
            }
        }
    }

    cut_at_first_unknown(&mut groups);
    // The workers' warm session solvers carry the aggregate counters and
    // proof summaries (the per-episode deltas are in the per-depth stats).
    let run = merge_committed(&unroller, groups, sessions, reports, run_start);
    *engine.rank_mut() = shared_rank.into_inner().expect("rank lock");
    run
}

/// One striped worker: sweep every property of each owned depth on one warm
/// shared session, committing each depth's core union to the shared table.
fn run_striped_worker(ctx: &StripedCtx<'_, '_>, w: usize) -> StripedOut {
    let worker_start = Instant::now();
    let options = ctx.options;
    let num_props = ctx.model.problem().num_properties();
    let solve_ctx = EpisodeCtx::new(ctx.model, options, ctx.cancel);
    let mut session = Session::new(options, true);
    let mut rows = Vec::new();
    let mut report = WorkerReport {
        worker: w,
        ..WorkerReport::default()
    };

    let mut k = w;
    while k <= options.max_depth {
        if ctx.cancel.is_some_and(CancelFlag::is_cancelled) {
            break;
        }
        if k > ctx.unknown_min.load(Ordering::Relaxed) {
            break;
        }
        // All properties already retired shallower than this depth: nothing
        // at this depth (or deeper) can ever be committed.
        if (0..num_props).all(|p| ctx.sat_min[p].load(Ordering::Relaxed) < k) {
            break;
        }
        session.load_frames_through(k, |j, solver| {
            add_clauses(solver, ctx.prefix.frame_delta(j));
        });
        let rank_snapshot: Vec<u64> = ctx.rank.lock().expect("rank lock").snapshot();
        let mut ranking = Some(rank_snapshot.as_slice());
        let mut row: Vec<Option<Episode>> = (0..num_props).map(|_| None).collect();
        let mut hit_unknown = false;
        for (p, slot) in row.iter_mut().enumerate() {
            if k > ctx.sat_min[p].load(Ordering::Relaxed) {
                continue;
            }
            let episode = session.episode(&solve_ctx, k, p, ranking.take());
            episode.charge(&mut report);
            match episode.result {
                SolveResult::Sat => {
                    ctx.sat_min[p].fetch_min(k, Ordering::Relaxed);
                }
                SolveResult::Unknown => {
                    hit_unknown = true;
                    ctx.unknown_min.fetch_min(k, Ordering::Relaxed);
                }
                SolveResult::Unsat => {}
            }
            *slot = Some(episode);
            if hit_unknown {
                break;
            }
        }
        // The worker owns the whole depth, so this is the sequential
        // engine's per-depth union — only its position in the shared
        // table's update order is relaxed.
        commit_rank(
            options,
            &mut ctx.rank.lock().expect("rank lock"),
            k,
            row.iter().flatten().map(|e| e.core.as_slice()),
        );
        session.end_depth();
        report.items += 1;
        rows.push((k, row));
        if hit_unknown {
            break;
        }
        k += ctx.num_workers;
    }
    report.time = worker_start.elapsed();
    StripedOut {
        rows,
        report,
        session: session.finish(),
    }
}

// ---------------------------------------------------------------------------
// Work stealing: per-property sessions rebalanced across worker deques.
// ---------------------------------------------------------------------------

/// A per-property session parked between depth advances. The session's
/// certifier migrates with its solver.
struct Task {
    p_idx: usize,
    session: Session,
    /// Committed episodes, one per depth (the next depth is their count).
    episodes: Vec<Episode>,
}

/// Shared state of a work-stealing run.
struct StealCtx<'a, 'b> {
    model: &'a Model,
    options: &'a BmcOptions,
    prefix: &'a SharedPrefix<'b>,
    cancel: Option<&'a CancelFlag>,
    rank: &'a Mutex<VarRank>,
    deques: &'a [Mutex<VecDeque<Task>>],
    /// Tasks not yet finished (parked in a deque or held by a worker).
    live: &'a AtomicUsize,
    finished: &'a Mutex<Vec<Task>>,
}

pub(crate) fn run_work_stealing(engine: &mut BmcEngine, jobs: usize) -> BmcRun {
    let run_start = Instant::now();
    let options = *engine.opts();
    let cancel = engine.cancel_flag().cloned();
    let model = engine.working_model().clone();
    let num_props = model.problem().num_properties();
    let unroller = Unroller::new(&model);
    // More workers than property sessions would only spin on empty deques:
    // oversubscribed `jobs` clamps to the task count (and to ≥ 1).
    let num_workers = jobs.max(1).min(num_props.max(1));

    let shared_rank = Mutex::new(VarRank::new(options.weighting));
    let deques: Vec<Mutex<VecDeque<Task>>> = (0..num_workers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for p in 0..num_props {
        deques[p % num_workers]
            .lock()
            .expect("deque lock")
            .push_back(Task {
                p_idx: p,
                session: Session::new(&options, false),
                episodes: Vec::new(),
            });
    }
    let live = AtomicUsize::new(num_props);
    let finished = Mutex::new(Vec::with_capacity(num_props));

    let reports = unroller.with_shared_prefix(options.max_depth, |prefix| {
        let ctx = StealCtx {
            model: &model,
            options: &options,
            prefix: &prefix,
            cancel: cancel.as_ref(),
            rank: &shared_rank,
            deques: &deques,
            live: &live,
            finished: &finished,
        };
        striped_map(num_workers, num_workers, |_, w| run_steal_worker(&ctx, w))
    });

    let mut tasks = finished.into_inner().expect("finished lock");
    tasks.sort_by_key(|t| t.p_idx);
    debug_assert_eq!(tasks.len(), num_props, "every session ends in `finished`");
    let (mut groups, sessions): (Vec<_>, Vec<_>) = tasks
        .into_iter()
        .map(|t| (t.episodes, t.session.finish()))
        .unzip();
    cut_at_first_unknown(&mut groups);
    let run = merge_committed(&unroller, groups, sessions, reports, run_start);
    *engine.rank_mut() = shared_rank.into_inner().expect("rank lock");
    run
}

/// One work-stealing worker: pop a session from the own deque (steal from
/// the fullest other deque when empty), advance it one depth, park it back
/// or retire it.
fn run_steal_worker(ctx: &StealCtx<'_, '_>, w: usize) -> WorkerReport {
    let worker_start = Instant::now();
    let solve_ctx = EpisodeCtx::new(ctx.model, ctx.options, ctx.cancel);
    let mut report = WorkerReport {
        worker: w,
        ..WorkerReport::default()
    };
    loop {
        if ctx.live.load(Ordering::Acquire) == 0 {
            break;
        }
        let own = ctx.deques[w].lock().expect("deque lock").pop_front();
        let task = match own {
            Some(task) => Some(task),
            None => {
                // Steal from the back of the fullest other deque.
                let victim = (0..ctx.deques.len())
                    .filter(|&v| v != w)
                    .map(|v| (ctx.deques[v].lock().expect("deque lock").len(), v))
                    .max()
                    .filter(|&(len, _)| len > 0)
                    .map(|(_, v)| v);
                let stolen =
                    victim.and_then(|v| ctx.deques[v].lock().expect("deque lock").pop_back());
                if stolen.is_some() {
                    report.steals += 1;
                }
                stolen
            }
        };
        let Some(mut task) = task else {
            // Everything is in flight on other workers; wait for a park.
            std::thread::yield_now();
            continue;
        };
        report.items += 1;
        advance_task(ctx, &solve_ctx, &mut task);
        let last = task.episodes.last().expect("advanced one depth");
        last.charge(&mut report);
        let done = last.result != SolveResult::Unsat || task.episodes.len() > ctx.options.max_depth;
        if done {
            ctx.finished.lock().expect("finished lock").push(task);
            // Release ordering publishes the finished task before other
            // workers observe the counter reaching zero.
            ctx.live.fetch_sub(1, Ordering::Release);
        } else {
            ctx.deques[w].lock().expect("deque lock").push_back(task);
        }
    }
    report.time = worker_start.elapsed();
    report
}

/// Advances one property session by exactly one depth (the dedicated
/// session of `ShardMode::ByProperty`, cut at depth granularity so sessions
/// can migrate between workers).
fn advance_task(ctx: &StealCtx<'_, '_>, solve_ctx: &EpisodeCtx<'_>, task: &mut Task) {
    let k = task.episodes.len();
    task.session.load_frames_through(k, |j, solver| {
        add_clauses(solver, ctx.prefix.frame_delta(j));
    });
    let rank_snapshot: Vec<u64> = ctx.rank.lock().expect("rank lock").snapshot();
    let episode = task
        .session
        .episode(solve_ctx, k, task.p_idx, Some(&rank_snapshot));
    // Per-episode commit: this property's core lands in the shared table as
    // soon as it exists — relaxed both in depth order and in the per-depth
    // union (a variable cited by several properties' cores at the same
    // depth is credited per core).
    commit_rank(
        ctx.options,
        &mut ctx.rank.lock().expect("rank lock"),
        k,
        [episode.core.as_slice()],
    );
    task.session.end_depth();
    task.episodes.push(episode);
}

#[cfg(test)]
mod tests {
    use crate::engine::{BmcOutcome, PropertyVerdict};
    use crate::{
        BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ParallelConfig, ProblemBuilder, ShardMode,
        SolveResult, VerificationProblem,
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
        let mut builder = ProblemBuilder::new("relaxed_counter", n);
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
        parallel: Option<ParallelConfig>,
    ) -> BmcRun {
        let mut engine = BmcEngine::for_problem(
            problem,
            BmcOptions {
                max_depth: 12,
                strategy,
                parallel,
                ..BmcOptions::default()
            },
        );
        engine.run_collecting()
    }

    type Signature = Vec<(Vec<SolveResult>, Option<usize>)>;

    fn signature(run: &BmcRun) -> Signature {
        run.properties
            .iter()
            .map(|p| (p.depth_results.clone(), p.retirement_depth))
            .collect()
    }

    #[test]
    fn striped_verdicts_match_sequential_oracle() {
        let targets: &[u64] = &[3, 14, 9];
        for strategy in all_strategies() {
            let seq = run(counter_problem(4, targets), strategy, None);
            for jobs in [1, 2, 4, 16] {
                let par = run(
                    counter_problem(4, targets),
                    strategy,
                    Some(ParallelConfig::striped(jobs)),
                );
                assert_eq!(signature(&par), signature(&seq), "{strategy:?} j{jobs}");
                assert!(
                    matches!(par.outcome, BmcOutcome::Counterexample { depth: 3, .. }),
                    "{strategy:?} j{jobs}: {:?}",
                    par.outcome
                );
            }
        }
    }

    #[test]
    fn work_stealing_verdicts_match_sequential_oracle() {
        let targets: &[u64] = &[3, 14, 9];
        for strategy in all_strategies() {
            let seq = run(counter_problem(4, targets), strategy, None);
            for jobs in [1, 2, 4, 16] {
                let par = run(
                    counter_problem(4, targets),
                    strategy,
                    Some(ParallelConfig::work_stealing(jobs)),
                );
                assert_eq!(signature(&par), signature(&seq), "{strategy:?} j{jobs}");
            }
        }
    }

    #[test]
    fn relaxed_traces_validate() {
        for shard in [ShardMode::Striped, ShardMode::WorkStealing] {
            let problem = counter_problem(4, &[11, 6]);
            let netlist = problem.netlist().clone();
            let bads: Vec<Signal> = problem
                .properties()
                .iter()
                .map(super::super::problem::Property::bad)
                .collect();
            let par = run(
                problem,
                OrderingStrategy::RefinedDynamic { divisor: 64 },
                Some(ParallelConfig { jobs: 4, shard }),
            );
            for (p, report) in par.properties.iter().enumerate() {
                let PropertyVerdict::Falsified { depth, trace } = &report.verdict else {
                    panic!("{shard:?}: property {p} should be falsified");
                };
                assert_eq!(*depth, if p == 0 { 11 } else { 6 });
                trace
                    .validate_against(&netlist, bads[p])
                    .expect("relaxed trace replays on the netlist");
            }
        }
    }

    #[test]
    fn striped_budget_exhaustion_truncates_like_a_budget() {
        // A zero conflict budget stops the very first episode; the run must
        // come back as a committed partial ResourceOut, not a panic or hang.
        let mut engine = BmcEngine::for_problem(
            counter_problem(3, &[5]),
            BmcOptions {
                max_depth: 12,
                max_conflicts_per_depth: Some(0),
                parallel: Some(ParallelConfig::striped(4)),
                ..BmcOptions::default()
            },
        );
        let par = engine.run_collecting();
        assert!(matches!(
            par.outcome,
            BmcOutcome::ResourceOut { at_depth: 0 }
        ));
        assert!(matches!(
            par.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
    }

    #[test]
    fn work_stealing_reports_cover_all_sessions() {
        let par = run(
            counter_problem(4, &[3, 14, 9, 13]),
            OrderingStrategy::RefinedStatic,
            Some(ParallelConfig::work_stealing(2)),
        );
        assert_eq!(par.workers.len(), 2);
        let episodes: u64 = par.properties.iter().map(|p| p.episodes).sum();
        // Workers may solve more episodes than end up committed (a steal can
        // land past the eventual cut), never fewer.
        assert!(par.workers.iter().map(|w| w.episodes).sum::<u64>() >= episodes);
    }
}
