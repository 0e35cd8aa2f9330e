#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> --seconds <s>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the
library through the repository's own CMakeLists.txt) under .bench_build/;
later calls rebuild incrementally.  Build output goes to stderr.

A single-workload call runs the perfbench binary, keeps from its result the
metrics BENCHMARK.json lists for the mode (end_to_end untraced, per_layer
traced), stamps and saves the full result under
.bench_build/perfbench-results/, and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}.  A traced call also

  * computes trace.overhead_pct against the untraced results saved for the
    same workload, --seconds and sources (running one untraced pass of the
    same seed first when there are none), and
  * checks that the exact counts repeat bit for bit against a saved traced
    result of the same seed, --seconds and sources.

--all runs every workload untraced, one process each, and prints every
end-to-end metric with its unit.  The exit code is 1 on any correctness
mismatch and 2 or more when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175  # for all passes of one call, after the build
MIN_BEYOND = 10

# Counts that depend only on the workload's input and seed.
EXACT = ["butterfly.total", "core.support_updates", "dynamic.fallback_count",
         "dynamic.enumerated_butterflies", "dynamic.phi_changes",
         "persist.wal_bytes_per_update", "persist.recovered_records"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / target


def git_sha():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return os.environ.get("BITRUSS_BENCH_GIT_SHA", "unknown")


def tree_hash():
    """sha256 over the sources the benchmark builds: saved results are only
    compared with results of the same code, also in checkouts that are not
    git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += sorted(p for p in base.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(binary, workload, seed, seconds, traced, deadline):
    """One run of the binary; returns its result object (with its stdout
    minus the result line under "log")."""
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced)),
               "--work-dir", str(ROOT / ".bench_build" / f"perfbench-work-{os.getpid()}")]
    if traced:
        command += ["--spans", str(RESULTS / f"{tag}-spans.tsv")]
    env = dict(os.environ)
    env.pop("BITRUSS_NUM_THREADS", None)  # thread counts are set explicitly
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{tag} exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"{tag}: benchmark exited with code {done.returncode}",
             code=done.returncode if done.returncode > 1 else 2)
    result = json.loads(lines[-1])
    result["log"] = "\n".join(lines[:-1]) + "\n"
    return result


def saved_results(workload, stamp, traced, seed=None):
    """Saved results of the same workload, --seconds, sources and mode."""
    found = []
    for path in sorted(RESULTS.glob(f"{workload}-seed*-trace{int(traced)}.json")):
        try:
            saved = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        s = saved.get("stamp", {})
        if (s.get("tree_hash") == stamp["tree_hash"] and s.get("seconds") == stamp["seconds"]
                and (seed is None or s.get("seed") == seed)):
            found.append(saved)
    return found


def save(result, stamp):
    path = RESULTS / f"{stamp['workload']}-seed{stamp['seed']}-trace{stamp['trace']}.json"
    saved = {"stamp": stamp, **{k: result[k] for k in ("correct", "attempted", "failed", "metrics")}}
    path.write_text(json.dumps(saved, indent=1) + "\n")


def trace_overhead_pct(traced, untraced_runs, end_to_end):
    """Median relative cost of tracing over the end-to-end metrics, in
    percent (positive: the traced run did worse than the untraced median)."""
    changes = []
    for m in end_to_end:
        base = [r["metrics"][m["name"]]["value"] for r in untraced_runs
                if m["name"] in r["metrics"]]
        if not base or m["name"] not in traced["metrics"]:
            continue
        u = statistics.median(base)
        t = traced["metrics"][m["name"]]["value"]
        if u > 0 and t > 0:
            changes.append(u / t - 1 if m["better"] == "higher" else t / u - 1)
    return 100 * statistics.median(changes) if changes else 0.0


def exact_count_mismatches(traced, previous):
    """Exact counts that differ from an earlier traced run of the same seed.
    A refused open-loop update changes the accepted sequence, so runs with
    refusals are not compared."""
    if not previous:
        return []
    prev = previous[0]["metrics"]
    now = traced["metrics"]
    if any(r.get("serve.refused", {}).get("value", 0) != 0 for r in (prev, now)):
        return []
    return [f"{name}: {now[name]['value']!r} now, {prev[name]['value']!r} before"
            for name in EXACT
            if name in now and name in prev and now[name]["value"] != prev[name]["value"]]


def select(result, wanted, traced):
    """Keeps the metrics `wanted` lists; returns the problems found."""
    problems = []
    selected = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        if not traced and got.get("beyond", MIN_BEYOND) < MIN_BEYOND:
            problems.append(f"{m['name']} has only {got['beyond']} samples beyond it")
        selected[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return selected, problems


def run_workload(binary, contract, workload, seed, seconds, traced, deadline):
    stamp = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
             "git_sha": git_sha(), "tree_hash": tree_hash(), "nproc": os.cpu_count()}
    problems = []
    if traced:
        baseline = saved_results(workload, stamp, traced=False)
        if not baseline:
            first = run_pass(binary, workload, seed, seconds, False, deadline)
            save(first, {**stamp, "trace": 0, "options": first["options"],
                         "predicted_dominant": first["predicted_dominant"]})
            baseline = [first]
            if not first["correct"]:
                problems.append("the untraced baseline pass was not correct")
    result = run_pass(binary, workload, seed, seconds, traced, deadline)
    stamp["options"] = result["options"]
    stamp["predicted_dominant"] = result["predicted_dominant"]
    if traced:
        result["metrics"]["trace.overhead_pct"] = {
            "value": trace_overhead_pct(result, baseline, contract["end_to_end"]),
            "unit": "%"}
        problems += exact_count_mismatches(
            result, saved_results(workload, stamp, traced=True, seed=seed))
    selected, select_problems = select(
        result, contract["per_layer" if traced else "end_to_end"], traced)
    problems += select_problems
    result["correct"] = result["correct"] and not problems
    save(result, stamp)
    print(f"stamp: {json.dumps(stamp)}")
    sys.stdout.write(result["log"])
    for problem in problems:
        print(f"MISMATCH: {problem}")
    return result, selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    contract_path = ROOT / "BENCHMARK.json"
    if not contract_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    contract = json.loads(contract_path.read_text())
    names = [w["name"] for w in contract["workloads"]]
    if not args.all and args.workload not in names:
        fail(f"--workload must be one of {names}, or give --all")

    binary = build("perfbench")
    RESULTS.mkdir(parents=True, exist_ok=True)
    seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds
    if args.all:
        correct = True
        rows = []
        for workload in names:
            result, selected = run_workload(binary, contract, workload, args.seed, seconds,
                                            False, time.monotonic() + RUN_TIMEOUT_S)
            correct = correct and result["correct"]
            for name, m in selected.items():
                got = result["metrics"][name]
                samples = (f"  (n={got['samples']}, {got['beyond']} beyond)"
                           if "samples" in got else "")
                rows.append(f"{workload:18s} {name:22s} {m['value']:16.6f} {m['unit']}{samples}")
            rows.append(f"{workload:18s} {'failed_share':22s} "
                        f"{result['failed'] / max(1, result['attempted']):16.6f} ratio")
        print("end-to-end metrics:")
        print("\n".join(rows))
        sys.exit(0 if correct else 1)

    result, selected = run_workload(binary, contract, args.workload, args.seed, seconds,
                                    bool(args.trace), time.monotonic() + RUN_TIMEOUT_S)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
