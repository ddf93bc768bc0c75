#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the repository's libraries and the harness from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and relays its output. The last stdout line is the result object.
The run exits 0 only when every output check passed and the metrics are
exactly the ones BENCHMARK.json lists for the mode (--trace 0: end_to_end,
--trace 1: per_layer), each with the unit listed there; a failed check
still prints the result, with "correct": false. `--workload all` runs every
workload in turn and ends with one object keyed by workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "dfs_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "dfs_perfbench")


def source_context():
    """Commit (when the tree is a git checkout) and a digest of src/."""
    commit = "none"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}, [w["name"] for w in spec["workloads"]]


def run_one(binary, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir(), "work")]
    # A hang guard, not a budget: set-up plus the measured window plus the
    # last repetition that overruns it; a traced run adds a study_pool
    # repetition whatever --seconds says (about 15 s on 4 cores).
    timeout = 120 + 2 * args.seconds + (180 if args.trace else 0)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {timeout:g} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or result is None:
        # A failed output check still reports what was measured.
        if result is not None and result.get("correct") is False:
            print(json.dumps(result))
        print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    wanted, _ = expected_metrics(args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        print(f"perfbench: metrics differ from BENCHMARK.json: missing={missing} "
              f"extra={extra} unit={units}", file=sys.stderr)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    _, workloads = expected_metrics(args.trace)
    selected = workloads if args.workload == "all" else [args.workload]
    if any(w not in workloads for w in selected):
        sys.exit(f"perfbench: unknown workload {args.workload}")
    binary = build()
    print(json.dumps({"source": source_context()}))
    results = {}
    for workload in selected:
        result = run_one(binary, workload, args)
        if result is None:
            sys.exit(1)
        results[workload] = result
        if args.workload == "all":
            print(json.dumps({workload: result}))
    if args.workload == "all":
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "workloads": results}))
    else:
        print(json.dumps(results[selected[0]]))


if __name__ == "__main__":
    main()
