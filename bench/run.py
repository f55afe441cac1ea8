"""Layered cold-process benchmark of su21-invariants.

    python3 bench/run.py [--workload verify-all|graded-deep|uc-deep]
                         [--seed N] [--seconds S] [--trace 0|1]

Each round runs the workload in a fresh interpreter (``child.py``), so the
package's memo caches start empty, as they do for a command line user.
Rounds repeat until the next one would overrun ``--seconds`` (by default
``run_seconds`` of BENCHMARK.json); at least one always runs.  Batches of
import-only children between the rounds and in the rest of the run measure
set-up time.  Every round's reports are checked against the report contract
and the weight-count oracle, and seeded random elements are checked for the
algebra laws.  A round that fails any check counts as a failed operation.

With ``--trace 0`` the result holds the end-to-end metrics (set-up time,
wall time of the suite calls, peak RSS); with ``--trace 1`` each round is an
untraced run followed by a traced one, and the result holds the per-layer
metrics and the tracing overhead.  Without ``--workload`` every workload
runs in turn.  Each workload's result is printed as one JSON line, the last
line of the output for the last workload.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PACKAGE_INIT = os.path.join(ROOT, "src", "su21_invariants", "__init__.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Import-only launches per batch.  A batch runs before the first round, after
# every round and as often as fits in the rest of the run, so that set-up time
# is a median of many samples taken through the whole run, even when one round
# fills most of it.
SETUP_PROBES = 8
# No child outlives this many seconds from the start of a run.
RUN_LIMIT_S = 170


class ChildFailed(Exception):
    pass


def launch(workload, mode, seed, workdir, deadline):
    """Run child.py once; returns (result, captured stdout)."""
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, CHILD, workload, mode, str(seed), workdir, result_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s %s run passed the time limit" % (workload, mode))
    if proc.returncode != 0 or proc.stderr or not os.path.exists(result_path):
        raise ChildFailed("%s %s run exited %d: %s"
                          % (workload, mode, proc.returncode, proc.stderr[-2000:]))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["ready"] - start
    return result, proc.stdout


def round_problems(workload, result, stdout) -> list:
    spec = workloads.WORKLOADS[workload]
    problems = []
    for entry in result["reports"]:
        if "status" in entry:
            entry["stdout"] = stdout
        problems += checks.contract_problems(entry)
    problems += checks.oracle_problems(result["reports"], spec["bounds"], "cli" in spec,
                                       result["computed"])
    props = result["properties"]
    if props["checked"] == 0:
        problems.append("no algebra property was checked")
    problems += props["failures"]
    return problems


def measure(workload, seed, seconds, trace):
    """Run whole rounds for about ``seconds``; returns (correct, attempted,
    failed, metrics {name: (value, unit)})."""
    rng = random.Random(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    modes = ("plain", "traced") if trace else ("plain",)
    setups = []
    done = []  # (mode, result)
    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:

        def probe():
            """One batch of set-up samples; returns its duration."""
            start = time.monotonic()
            for _ in range(SETUP_PROBES):
                setups.append(launch(workload, "setup", 0, workdir, deadline)[0]["setup_s"])
            return time.monotonic() - start

        launch(workload, "setup", 0, workdir, deadline)  # warm byte code and file cache
        begin = time.monotonic()
        batch_s = probe()
        longest = 0.0
        while True:
            round_start = time.monotonic()
            for mode in modes:
                attempted += 1
                try:
                    result, stdout = launch(workload, mode, rng.randrange(1 << 30),
                                            workdir, deadline)
                    problems = round_problems(workload, result, stdout)
                except ChildFailed as err:
                    result, problems = None, [str(err)]
                if result is not None:
                    print("  round %d %s: wall_s = %r s, setup_s = %r s"
                          % (len(done) + 1, mode, result["wall_s"], result["setup_s"]))
                    setups.append(result["setup_s"])
                    done.append((mode, result))
                    if result["digest"] != done[0][1]["digest"]:
                        problems.append("report digest differs from the first round's")
                if problems:
                    failed += 1
                    for problem in problems:
                        print("FAILED %s %s: %s" % (workload, mode, problem), file=sys.stderr)
            batch_s = max(batch_s, probe())
            now = time.monotonic()
            longest = max(longest, now - round_start)
            if now - begin + longest > seconds:
                break
        # What is left of the run goes to more set-up samples.
        while time.monotonic() - begin + batch_s <= seconds:
            batch_s = max(batch_s, probe())

    plain = [r for mode, r in done if mode == "plain"]
    traced = [r for mode, r in done if mode == "traced"]
    metrics = {}
    if plain and not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["wall_s"] = (statistics.median(r["wall_s"] for r in plain), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    if plain and traced:
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        for name, unit in workloads.PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            elif name == "trace.peak_rss_mb":
                value = statistics.median(r["peak_rss_mb"] for r in traced)
            else:
                # Counts repeat exactly; median_low keeps them whole numbers.
                pick = statistics.median if unit == "s" else statistics.median_low
                value = pick(r["layers"][name] for r in traced)
            metrics[name] = (value, unit)
    correct = failed == 0 and bool(metrics)
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as handle:
            run_seconds = json.load(handle)["run_seconds"]
    except (OSError, ValueError, KeyError) as err:
        print("error: cannot read run_seconds from %s: %s" % (BENCHMARK_JSON, err),
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(PACKAGE_INIT):
        print("error: package source not found at %s" % PACKAGE_INIT, file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    all_correct = True
    for name in names:
        try:
            correct, attempted, failed, metrics = measure(
                name, args.seed, args.seconds, args.trace)
        except ChildFailed as err:
            print("error: set-up of %s failed: %s" % (name, err), file=sys.stderr)
            return 1
        print("%s: attempted %d, failed %d" % (name, attempted, failed))
        for metric, (value, unit) in metrics.items():
            print("  %s = %r %s" % (metric, value, unit))
        all_correct = all_correct and correct
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()},
        }))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
