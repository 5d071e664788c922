//! Criterion benchmarks of the Eq. 1 encoder (`Unroller`): fresh
//! single-instance encoding, the cache-hit path of a long-lived unroller,
//! and — the number that matters for BMC runs — the per-depth sweep pattern
//! `BmcEngine` drives (one instance per depth `0..=K`), whose total cost the
//! incremental prefix cache turns from quadratic to linear in `K`.

use criterion::{criterion_group, criterion_main, Criterion};
use rbmc_core::Unroller;
use rbmc_gens::families;

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

criterion_group!(
    benches,
    bench_fresh,
    bench_engine_sweep,
    bench_cached_instance
);
criterion_main!(benches);
