//! Criterion benchmarks of the Eq. 1 encoder (`Unroller`): fresh
//! single-instance encoding, the cache-hit path of a long-lived unroller,
//! and — the number that matters for BMC runs — the per-depth sweep pattern
//! `BmcEngine` drives (one instance per depth `0..=K`), whose total cost the
//! incremental prefix cache turns from quadratic to linear in `K`. The
//! `session_frame_load` group follows one wide design through a persistent
//! session solver and times its three per-file costs apart: loading every
//! frame, the per-depth episodes (setup dominates: the ring holds with no
//! decisions), and dropping the solver.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rbmc_circuit::aiger::{parse_aiger, write_aag};
use rbmc_cnf::Var;
use rbmc_core::{preprocess_problem, Model, ProblemBuilder, Unroller};
use rbmc_gens::corpus::problem_to_aig;
use rbmc_gens::families;
use rbmc_solver::{Solver, SolverOptions};

fn bench_fresh(c: &mut Criterion) {
    // One cold encode of the deepest instance: a fresh unroller per
    // iteration, so the prefix cache never helps. The floor every other
    // number is compared against.
    let model = families::fifo_guarded(4);
    c.bench_function("unroll/fresh_k20", |b| {
        b.iter(|| {
            let unroller = Unroller::new(&model);
            unroller.formula(20)
        });
    });
}

fn bench_engine_sweep(c: &mut Criterion) {
    // The BmcEngine pattern: one instance per depth k = 0..=K from a single
    // unroller, consumed the way a fresh-solver episode consumes it (every
    // clause of the prefix visited, plus the bad-state unit). With the
    // prefix cache each frame is encoded once, so the whole sweep is linear
    // in K where a fresh `formula(k)` per depth is quadratic.
    let model = families::fifo_guarded(4);
    for k in [15usize, 20] {
        c.bench_function(format!("unroll/sweep_k{k}"), |b| {
            b.iter(|| {
                let unroller = Unroller::new(&model);
                let mut literals = 0usize;
                for depth in 0..=k {
                    literals += unroller.with_prefix(depth, |clauses| {
                        clauses.iter().map(|c| c.len()).sum::<usize>()
                    });
                    literals += 1; // the ¬P(V^k) unit of `bad_lit`
                }
                literals
            });
        });
    }
}

fn bench_cached_instance(c: &mut Criterion) {
    // Repeated deepest-instance builds on one long-lived unroller. `formula`
    // materializes an owned CnfFormula (one allocation per clause), which is
    // why the engine consumes `with_prefix` instead; this pins the cost of
    // the owned path so the gap stays visible.
    let model = families::fifo_guarded(4);
    c.bench_function("unroll/fifo16_k20", |b| {
        let unroller = Unroller::new(&model);
        b.iter(|| unroller.formula(20));
    });
}

/// A wide ring the way `rbmc` meets one: written as ASCII AIGER, parsed
/// back, built into a problem and preprocessed (the shape of the `bmc-wide`
/// benchmark workload, at a quarter of its ring size).
fn wide_ring() -> Model {
    let aag = write_aag(&problem_to_aig(families::token_ring(64).problem()));
    let aig = parse_aiger(aag.as_bytes()).expect("a written AIGER file parses");
    let problem = ProblemBuilder::from_aig("ring", &aig).build();
    Model::from_problem(preprocess_problem(&problem).problem)
}

/// A standard-VSIDS session solver holding frames `0..=depth`, loaded the
/// way the BMC session loads each new frame.
fn load_frames(unroller: &Unroller<'_>, depth: usize) -> Solver {
    let mut solver = Solver::with_options(SolverOptions {
        record_cdg: false,
        ..SolverOptions::default()
    });
    for k in 0..=depth {
        unroller.with_frame_delta(k, |clauses| {
            for clause in clauses {
                solver.add_clause(clause.lits());
            }
        });
    }
    solver
}

/// One session episode per depth: activation clause `a_k → bad^k`, a solve
/// under `a_k`, and the `¬a_k` retirement, with the activation variables
/// above the frame range as the engine allocates them.
fn run_episodes(solver: &mut Solver, unroller: &Unroller<'_>, depth: usize) {
    let base = unroller.num_vars_at(depth);
    for k in 0..=depth {
        let act = Var::new(base + k).positive();
        solver.add_clause(&[!act, unroller.bad_lit(k)]);
        solver.solve_under(&[act]);
        solver.add_clause(&[!act]);
    }
}

fn bench_session_frame_load(c: &mut Criterion) {
    const DEPTH: usize = 12;
    let model = wide_ring();
    let unroller = Unroller::new(&model);
    let mut group = c.benchmark_group("session_frame_load");
    group.sample_size(10);
    group.bench_function("load", |b| b.iter(|| load_frames(&unroller, DEPTH)));
    group.bench_function("episodes", |b| {
        b.iter_batched(
            || load_frames(&unroller, DEPTH),
            |mut solver| {
                run_episodes(&mut solver, &unroller, DEPTH);
                solver
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("drop", |b| {
        b.iter_batched(
            || {
                let mut solver = load_frames(&unroller, DEPTH);
                run_episodes(&mut solver, &unroller, DEPTH);
                solver
            },
            drop,
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fresh,
    bench_engine_sweep,
    bench_cached_instance,
    bench_session_frame_load
);
criterion_main!(benches);
