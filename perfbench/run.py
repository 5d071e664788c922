#!/usr/bin/env python3
"""Run the refined-bmc benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds `perfbench` (a package of its own, linked against the
repository's crates by path) with Cargo, generates the workload's AIGER
files from the seed, then measures them for about S seconds. Its standard
output ends with one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`). The line before it records the provenance of the result:
host CPUs, git revision, `rustc -V`, workload, seed and the instance manifest.

`--smoke` runs every workload at toy size in a few seconds and checks that
every metric `BENCHMARK.json` names is emitted with its unit, that the
traced replay matches the engine, and that no verdict is wrong.

Build output and generated files go under `$CARGO_TARGET_DIR`
(default `.bench_build` in the current directory).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def generate(binary, workload, seed, size):
    """Writes the workload's instances; returns their directory or None."""
    out = os.path.join(target_dir(), "perfbench-work", f"{workload}-{size}-{seed}")
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed),
           "--size", size, "--out", out]
    if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
        return None
    return out


def measure(binary, workload, work_dir, seconds, trace):
    """Runs one measurement; returns (exit code, last stdout line)."""
    cmd = [binary, "run", "--workload", workload, "--dir", work_dir,
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else "")


def command_output(cmd, cwd=None):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, seed, trace, work_dir):
    with open(os.path.join(work_dir, "manifest.tsv"), encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    manifest = [dict(zip(rows[0], row)) for row in rows[1:]]
    return {
        "host_cpus": os.cpu_count(),
        "git_rev": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT) or "unknown",
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "instances": manifest,
    }


def run_once(args):
    binary = build()
    if binary is None:
        return 2
    work_dir = generate(binary, args.workload, args.seed, "full")
    if work_dir is None:
        return 2
    code, last = measure(binary, args.workload, work_dir, args.seconds, args.trace)
    prov = provenance(args.workload, args.seed, args.trace, work_dir)
    with open(os.path.join(work_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump({"provenance": prov, "result": last}, f, indent=1)
    if code != 0:
        print(f"perfbench: measurement failed (exit {code}); no result", file=sys.stderr)
        return code or 2
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(f"perfbench: unreadable result line: {last!r}", file=sys.stderr)
        return 2
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        print(f"perfbench: rejected result: {last}", file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(prov, separators=(",", ":")))
    print(last)
    return 0


def smoke():
    """Every workload at toy size: all named metrics, with units, no wrong
    verdicts, fidelity check passed (a departure exits non-zero)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return 2
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        work_dir = generate(binary, workload, 1, "toy")
        if work_dir is None:
            problems.append(f"{workload}: generation failed")
            continue
        for trace in (0, 1):
            code, last = measure(binary, workload, work_dir, 1, trace)
            where = f"{workload} --trace {trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(last)
            if set(result) != RESULT_KEYS or not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: bad result {last}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(expected[trace].items())}")
            print(f"smoke: {where}: {len(got)} metrics, {result['attempted']} properties checked",
                  file=sys.stderr)
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} failure(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
