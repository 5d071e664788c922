//! Search-identity fingerprints: the exact decision, conflict and
//! propagation totals of a fixed set of BMC and IC3 runs.
//!
//! The solver's storage layer (clause arena, watch stores, decision heap)
//! can be rewritten freely as long as the search it drives stays
//! bit-identical: same decision at every step, same learned clauses, same
//! propagation order. These totals are the cheapest witness of that. Each
//! row was recorded once and is pinned here; a storage change that perturbs
//! the search by a single decision anywhere in these runs fails this test.
//! The rows cover all three decision orderings (standard VSIDS, static and
//! dynamic `/64` refinement) under both solver-reuse regimes, one run with
//! an aggressive clause-database reduction schedule (so compaction and
//! watch repair are on the path), and one core-ordered IC3 run.

use refined_bmc::bmc::{BmcEngine, BmcOptions, Ic3Engine, OrderingStrategy, SolverReuse};
use refined_bmc::gens::{proof_suite, suite_table1, BenchInstance};
use refined_bmc::solver::{SolverOptions, SolverStats};

const STD: OrderingStrategy = OrderingStrategy::Standard;
const STA: OrderingStrategy = OrderingStrategy::RefinedStatic;
const DYN: OrderingStrategy = OrderingStrategy::RefinedDynamic { divisor: 64 };
const SESSION: SolverReuse = SolverReuse::Session;
const FRESH: SolverReuse = SolverReuse::Fresh;

/// `(decisions, conflicts, propagations)` summed over a whole run.
type Totals = (u64, u64, u64);

fn totals(stats: &SolverStats) -> Totals {
    (stats.decisions, stats.conflicts, stats.propagations)
}

fn instance(name: &str) -> BenchInstance {
    suite_table1()
        .into_iter()
        .chain(proof_suite())
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no instance named {name}"))
}

fn bmc_stats(
    name: &str,
    strategy: OrderingStrategy,
    reuse: SolverReuse,
    solver: SolverOptions,
) -> SolverStats {
    let inst = instance(name);
    let mut engine = BmcEngine::new(
        inst.model,
        BmcOptions {
            max_depth: inst.max_depth,
            strategy,
            reuse,
            solver,
            ..BmcOptions::default()
        },
    );
    engine.run_collecting().solver_stats
}

/// Every ordering under both reuse regimes, per instance:
/// `(instance, strategy, reuse, totals)`.
const BMC_ROWS: &[(&str, OrderingStrategy, SolverReuse, Totals)] = &[
    ("11_2_shift14_twin", STD, SESSION, (945, 266, 15875)),
    ("11_2_shift14_twin", STD, FRESH, (6930, 1625, 93699)),
    ("11_2_shift14_twin", STA, SESSION, (942, 266, 15791)),
    ("11_2_shift14_twin", STA, FRESH, (944, 297, 30072)),
    ("11_2_shift14_twin", DYN, SESSION, (945, 266, 15875)),
    ("11_2_shift14_twin", DYN, FRESH, (4300, 855, 56964)),
    ("18_tmr3_f1", STD, SESSION, (390, 45, 3643)),
    ("18_tmr3_f1", STD, FRESH, (378, 46, 4576)),
    ("18_tmr3_f1", STA, SESSION, (841, 139, 11146)),
    ("18_tmr3_f1", STA, FRESH, (1434, 380, 21390)),
    ("18_tmr3_f1", DYN, SESSION, (730, 127, 10230)),
    ("18_tmr3_f1", DYN, FRESH, (1566, 349, 25018)),
    ("14_1_fifo8_over", STD, SESSION, (231, 186, 15161)),
    ("14_1_fifo8_over", STD, FRESH, (303, 255, 19838)),
    ("14_1_fifo8_over", STA, SESSION, (222, 143, 11071)),
    ("14_1_fifo8_over", STA, FRESH, (186, 125, 10110)),
    ("14_1_fifo8_over", DYN, SESSION, (240, 153, 11886)),
    ("14_1_fifo8_over", DYN, FRESH, (185, 125, 10109)),
    ("25_gray8", STD, SESSION, (1327, 926, 113714)),
    ("25_gray8", STD, FRESH, (802, 819, 209820)),
    ("25_gray8", STA, SESSION, (722, 697, 120837)),
    ("25_gray8", STA, FRESH, (802, 819, 210128)),
    ("25_gray8", DYN, SESSION, (722, 697, 120837)),
    ("25_gray8", DYN, FRESH, (802, 819, 210128)),
];

#[test]
fn bmc_search_totals_are_pinned() {
    let mut diverged = Vec::new();
    for &(name, strategy, reuse, want) in BMC_ROWS {
        let got = totals(&bmc_stats(name, strategy, reuse, SolverOptions::default()));
        if got != want {
            diverged.push(format!(
                "{name} {strategy:?} {reuse:?}: got {got:?}, pinned {want:?}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "search diverged:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn bmc_search_totals_with_aggressive_reduction_are_pinned() {
    // Reduce every 100 learned clauses: compaction, watch detachment and
    // watch repair all run many times inside the pinned search.
    let solver = SolverOptions {
        reduce_base: 100,
        reduce_inc: 20,
        ..SolverOptions::default()
    };
    let stats = bmc_stats("12_fifo8_guard", STD, SESSION, solver);
    assert_eq!(totals(&stats), (1737, 962, 87228));
    assert_eq!((stats.compactions, stats.deleted), (10, 805));
}

#[test]
fn ic3_search_totals_are_pinned() {
    let inst = instance("p4_mutex6");
    let mut engine = Ic3Engine::new(
        inst.model,
        BmcOptions {
            max_depth: 20,
            strategy: STA,
            ..BmcOptions::default()
        },
    );
    let stats = engine.run_collecting().solver_stats;
    assert_eq!(stats.solve_calls, 625, "relative-induction queries");
    assert_eq!(totals(&stats), (8273, 289, 48891));
}
