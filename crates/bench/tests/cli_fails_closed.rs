//! The bench binaries fail closed on their command line: an unknown or
//! retired flag, or a malformed value, exits with status 2 before anything
//! runs — never a run of the default configuration.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
        .status
        .code()
}

#[test]
fn rbmc_rejects_the_retired_shard_flag() {
    let rbmc = env!("CARGO_BIN_EXE_rbmc");
    for label in ["by-depth", "by-property"] {
        assert_eq!(exit_code(rbmc, &["--shard", label]), Some(2), "{label}");
    }
}

#[test]
fn parallel_sweep_rejects_bad_flags_and_values() {
    let sweep = env!("CARGO_BIN_EXE_parallel_sweep");
    for args in [
        &["--shard", "by-property"][..],
        &["--smoke", "--no-json", "--depth", "abc"],
        &["--smoke", "--no-json", "--jobs-list", "1,x"],
        &["--smoke", "--no-json", "--bogus-flag"],
        &["--smoke", "--no-json", "--modes", "relaxed"],
    ] {
        assert_eq!(exit_code(sweep, args), Some(2), "{args:?}");
    }
}

#[test]
fn experiment_binaries_reject_bad_flags_and_values() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_memory_sweep"), &["--depth", "abc"][..]),
        (env!("CARGO_BIN_EXE_memory_sweep"), &["--bogus-flag"]),
        (env!("CARGO_BIN_EXE_table1"), &["--divisor", "x"]),
        (env!("CARGO_BIN_EXE_table1"), &["--smoke", "stray"]),
        (env!("CARGO_BIN_EXE_fig6"), &["--divisor", "x"]),
        (env!("CARGO_BIN_EXE_fig6"), &["--bogus-flag"]),
    ] {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}
