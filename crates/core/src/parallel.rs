//! Parallel dispatch of the refinement loop by property: each property's
//! sweep runs on a scoped worker pool, and the results — `varRank` updates
//! included — are merged in **commit order** (lowest depth first, then
//! property order), so a parallel run is deterministic.
//!
//! A worker runs the sequential depth loop
//! ([`run_sequential`](crate::engine::run_sequential)) over its one
//! property, in the run's [`SolverReuse`](crate::SolverReuse) regime: a
//! session solver of its own, or a fresh solver per depth. It ranks
//! against its own `varRank` table, built from its own cores, and loads
//! frames through its own unroller in bounded prefix mode. Workers pick
//! properties off a queue; `jobs` only sets the concurrency, never the
//! decomposition, so results are identical for every `jobs` value. A
//! single-property problem is therefore exactly the sequential run in
//! either regime — bit-identical verdicts, cores, rank table and per-depth
//! search counters.
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
//!   solver counters) cannot be un-spent. With several properties, each
//!   property's loop lacks what the sequential multi-property loop shares
//!   across properties — learned clauses in a session, the rank table in
//!   either regime — so with a tight conflict budget an episode may exhaust
//!   it where the sequential run would not (or vice versa) and the cut can
//!   land at a different point. Jobs-invariance holds regardless — the
//!   decomposition never depends on `jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbmc_solver::{CancelFlag, SolveResult};

use crate::engine::{run_sequential, BmcOptions, BmcRun};
use crate::episode::{commit_rank, Episode, EpisodeCtx, RunFold, SessionSummary};
use crate::{Model, Unroller, VarRank};

/// Configuration of a parallel run ([`BmcOptions::parallel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Worker-thread budget (clamped to at least 1). The decomposition is
    /// independent of this value — only the wall clock changes.
    pub jobs: usize,
}

/// One worker's share of a parallel run (see [`BmcRun::workers`]).
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Worker index (`0..jobs`).
    pub worker: usize,
    /// Properties this worker swept.
    pub items: u64,
    /// Solve episodes run by this worker, committed or not (a property may
    /// solve past the run's eventual cut).
    pub episodes: u64,
    /// Decisions over this worker's episodes.
    pub decisions: u64,
    /// Conflicts over this worker's episodes.
    pub conflicts: u64,
    /// Propagations over this worker's episodes.
    pub propagations: u64,
    /// Wall-clock time of this worker, summed over its items.
    pub time: Duration,
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

/// What one property's depth loop hands back to the merge.
struct PropertyRun {
    /// The committed episodes, one per depth the loop ran.
    episodes: Vec<Episode>,
    /// The loop's session solver (`None` in the fresh regime).
    session: Option<SessionSummary>,
    /// The peak of the loop's own prefix cache.
    prefix_peak: usize,
}

/// Entry point from [`BmcEngine::run_collecting`](crate::BmcEngine): the
/// sequential loop once per property of `model` on up to `jobs` workers,
/// merged into one run whose cores are committed to `rank`.
pub(crate) fn run_by_property(
    model: &Model,
    options: &BmcOptions,
    cancel: Option<&CancelFlag>,
    rank: &mut VarRank,
    jobs: usize,
) -> BmcRun {
    let run_start = Instant::now();
    let len = model.problem().num_properties();
    let spawn = jobs.min(len).max(1);
    // One share per thread, only ever locked by its own thread.
    let shares: Vec<Mutex<WorkerReport>> = (0..spawn)
        .map(|worker| {
            Mutex::new(WorkerReport {
                worker,
                ..WorkerReport::default()
            })
        })
        .collect();
    let runs = striped_map(len, spawn, |w, p| {
        let start = Instant::now();
        let ctx = EpisodeCtx::new(model, options, cancel);
        let mut own_rank = VarRank::new(options.weighting);
        let mut episodes = Vec::new();
        let session = run_sequential(&ctx, &[p], &mut own_rank, |_, depth, _| {
            episodes.extend(depth.into_iter().map(|(_, episode)| episode));
            Vec::new()
        });
        let mut share = shares[w].lock().expect("share lock");
        for episode in &episodes {
            episode.charge(&mut share);
        }
        share.items += 1;
        share.time += start.elapsed();
        PropertyRun {
            episodes,
            session,
            prefix_peak: ctx.unroller.peak_cached_clauses(),
        }
    });
    let workers = shares
        .into_iter()
        .map(|share| share.into_inner().expect("share lock"))
        .collect();
    merge_committed(model, options, rank, runs, workers, run_start)
}

/// Emulates the sequential control flow on per-property episode lists: the
/// earliest (depth, property) budget exhaustion stops the whole run, so
/// episodes past that commit point are discarded.
fn cut_at_first_unknown(groups: &mut [Vec<Episode>]) {
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

/// Folds the per-property runs into one [`BmcRun`] in commit order — depth
/// by depth, property order within a depth, as the sequential loop folds
/// them — committing each depth's cores to `rank` as the sequential loop
/// would.
fn merge_committed(
    model: &Model,
    options: &BmcOptions,
    rank: &mut VarRank,
    runs: Vec<PropertyRun>,
    workers: Vec<WorkerReport>,
    run_start: Instant,
) -> BmcRun {
    let unroller = Unroller::new(model);
    let mut fold = RunFold::new(model);
    let mut groups = Vec::with_capacity(runs.len());
    let mut sessions = Vec::new();
    let mut prefix_peak = 0;
    for run in runs {
        groups.push(run.episodes);
        sessions.extend(run.session);
        prefix_peak = prefix_peak.max(run.prefix_peak);
    }
    cut_at_first_unknown(&mut groups);
    let depths = groups.iter().map(Vec::len).max().unwrap_or(0);
    let mut columns: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    for k in 0..depths {
        let episodes: Vec<(usize, Episode)> = columns
            .iter_mut()
            .enumerate()
            .filter_map(|(p, column)| column.next().map(|episode| (p, episode)))
            .collect();
        commit_rank(
            options,
            rank,
            k,
            episodes.iter().map(|(_, episode)| episode.core.as_slice()),
        );
        fold.fold_depth(k, unroller.num_vars_at(k), episodes, None);
    }
    for session in sessions {
        fold.add_solver(session);
    }
    // Each loop keeps its own cache; the run reports the largest.
    fold.finish(prefix_peak, workers, run_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BmcEngine, BmcOutcome, OrderingStrategy, ProblemBuilder, PropertyVerdict, SolverReuse,
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

    /// The per-depth search counters of a run.
    fn counters(run: &BmcRun) -> Vec<(u64, u64, u64)> {
        run.per_depth
            .iter()
            .map(|d| (d.decisions, d.conflicts, d.implications))
            .collect()
    }

    /// A single-property by-property run is the sequential loop itself:
    /// verdicts, rank table and every per-depth search counter match the
    /// sequential run in the same regime, at every worker budget.
    fn assert_single_property_matches_sequential(reuse: SolverReuse, target: u64) {
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(counter_problem(4, &[target]), strategy, reuse, None);
            for jobs in [1, 2, 4] {
                let (par, par_rank) = run(
                    counter_problem(4, &[target]),
                    strategy,
                    reuse,
                    Some(ParallelConfig { jobs }),
                );
                let ctx = format!("{strategy:?} {reuse:?} j{jobs}");
                assert_eq!(prop_verdicts(&par), prop_verdicts(&seq), "{ctx}");
                assert_eq!(par_rank, seq_rank, "{ctx} rank table");
                let depth = |r: &BmcRun| -> Vec<SolveResult> {
                    r.per_depth.iter().map(|d| d.result).collect()
                };
                assert_eq!(depth(&par), depth(&seq), "{ctx}");
                assert_eq!(counters(&par), counters(&seq), "{ctx} per-depth counters");
                assert!(
                    matches!(par.outcome, BmcOutcome::Counterexample { depth, .. } if depth as u64 == target),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn by_property_single_property_matches_sequential_session_exactly() {
        assert_single_property_matches_sequential(SolverReuse::Session, 11);
    }

    #[test]
    fn by_property_single_property_matches_sequential_fresh_exactly() {
        assert_single_property_matches_sequential(SolverReuse::Fresh, 9);
    }

    #[test]
    fn multi_property_parallel_verdicts_match_sequential_and_are_jobs_invariant() {
        // 3 and 9 falsified; 14 unreachable within depth 12 of a 4-bit
        // counter (wraps at 16).
        let targets: &[u64] = &[3, 14, 9];
        for strategy in all_strategies() {
            for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
                let (seq, _) = run(counter_problem(4, targets), strategy, reuse, None);
                let mut baseline: Option<(Signature, Vec<u64>)> = None;
                for jobs in [1, 2, 4] {
                    let (par, par_rank) = run(
                        counter_problem(4, targets),
                        strategy,
                        reuse,
                        Some(ParallelConfig { jobs }),
                    );
                    let ctx = format!("{strategy:?} {reuse:?} j{jobs}");
                    assert_eq!(prop_verdicts(&par), prop_verdicts(&seq), "{ctx}");
                    assert!(
                        matches!(par.outcome, BmcOutcome::Counterexample { depth: 3, .. }),
                        "{ctx}"
                    );
                    match &baseline {
                        None => baseline = Some((prop_verdicts(&par), par_rank)),
                        Some((v, r)) => {
                            assert_eq!(&prop_verdicts(&par), v, "{ctx}");
                            assert_eq!(&par_rank, r, "{ctx} rank");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn worker_reports_cover_all_items() {
        let (par, _) = run(
            counter_problem(4, &[3, 14, 9]),
            OrderingStrategy::RefinedStatic,
            SolverReuse::Session,
            Some(ParallelConfig { jobs: 2 }),
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
        let par = mk(SolverReuse::Session, Some(ParallelConfig { jobs: 2 }));
        assert!(matches!(
            par.outcome,
            BmcOutcome::ResourceOut { at_depth: 0 }
        ));
        assert!(matches!(
            par.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
        let seq = mk(SolverReuse::Fresh, None);
        let par = mk(SolverReuse::Fresh, Some(ParallelConfig { jobs: 4 }));
        match (&seq.outcome, &par.outcome) {
            (BmcOutcome::ResourceOut { at_depth: a }, BmcOutcome::ResourceOut { at_depth: b }) => {
                assert_eq!(a, b);
            }
            other => panic!("expected matching resource-out, got {other:?}"),
        }
        assert_eq!(prop_verdicts(&par), prop_verdicts(&seq));
    }
}
