//! Prove a property outright with k-induction (the extension the paper's
//! conclusion anticipates), instead of only refuting bounded
//! counterexamples.
//!
//! Run with: `cargo run --example induction_prove`

use refined_bmc::bmc::induction::InductionEngine;
use refined_bmc::bmc::{BmcOptions, PropertyVerdict};
use refined_bmc::gens::families;

fn main() {
    let options = BmcOptions {
        max_depth: 24,
        ..BmcOptions::default()
    };

    // A passing property BMC alone can never settle: the guarded FIFO never
    // overflows, at ANY depth — k-induction proves it for good.
    let model = families::fifo_guarded(3);
    println!(
        "proving `{}` ({} registers) by k-induction with unique states…",
        model.name(),
        model.num_registers()
    );
    let run = InductionEngine::new(model, options).run_collecting();
    match &run.properties[0].verdict {
        PropertyVerdict::Proved { depth, .. } => {
            println!("PROVED: the invariant is {depth}-inductive (holds in all reachable states)");
        }
        PropertyVerdict::Falsified { depth, .. } => {
            println!("falsified at depth {depth} (unexpected for this model!)");
        }
        other => println!("no proof up to k = {}: {other}", options.max_depth),
    }

    // And a failing property is still caught through the base case.
    let buggy = families::fifo_unguarded(2);
    println!("\nchecking `{}` the same way…", buggy.name());
    let run = InductionEngine::new(buggy.clone(), options).run_collecting();
    match &run.properties[0].verdict {
        PropertyVerdict::Falsified { depth, trace } => {
            println!("FALSIFIED at depth {depth}; replaying the trace:");
            print!("{}", trace.render(&buggy));
        }
        other => println!("unexpected outcome: {other}"),
    }
}
