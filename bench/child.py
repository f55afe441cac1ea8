"""One cold run of a benchmark workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD MODE SEED WORKDIR RESULT

MODE is "setup" (import the package and stop), "plain" (run the workload)
or "traced" (run it with per-layer spans).  The clock is read right after
the package import, so the parent can take set-up time as that reading
minus its own reading before the launch.  Everything after the timed region
-- rendering for the report checks, the property checks -- leaves the
measured figures alone; so do the sizes the suites computed, read back
from the package's memo caches for the oracle.  The result is written to
RESULT as JSON.
"""

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
from su21_invariants import cli, invariants, suites  # noqa: E402  (the set-up being timed)

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import properties  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_timed(spec, workdir):
    """Run the workload; returns (wall seconds, reports, exit status, report file)."""
    if "cli" in spec:
        out_path = os.path.join(workdir, "report.json")
        captured = []
        run_suite = suites.run_suite

        def keep_report(*args, **kwargs):
            rep = run_suite(*args, **kwargs)
            captured.append(rep)
            return rep

        suites.run_suite = keep_report
        start = time.perf_counter()
        status = cli.main(spec["cli"] + ["--out", out_path])
        wall = time.perf_counter() - start
        # The outermost call returns last.
        return wall, captured[-1:], status, out_path
    start = time.perf_counter()
    reports = [suites.run_suite(*step) for step in spec["steps"]]
    wall = time.perf_counter() - start
    return wall, reports, None, None


def computed_sizes(bounds) -> dict:
    """What the checked suites computed, per degree or filtration up to each
    bound, read back from the memo caches the suites filled: the table's
    kernel dimensions, the st-basis member counts and the cumulative
    uc-basis member counts."""
    sizes = {}
    if "table" in bounds:
        sizes["table"] = [len(invariants.invariant_subspace(n))
                          for n in range(bounds["table"] + 1)]
    if "st-basis" in bounds:
        sizes["st-basis"] = [len(invariants.product_basis_members(n))
                             for n in range(bounds["st-basis"] + 1)]
    if "uc-basis" in bounds:
        top = bounds["uc-basis"]
        degrees = [deg for _, _, deg in invariants.lifted_product_members(top)]
        sizes["uc-basis"] = [sum(1 for deg in degrees if deg <= m) for m in range(top + 1)]
    return sizes


def main(argv):
    workload, mode, seed, workdir, result_path = argv
    result = {"ready": READY}
    if mode != "setup":
        spec = workloads.WORKLOADS[workload]
        tracer = None
        if mode == "traced":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        wall, reports, status, out_path = run_timed(spec, workdir)
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.counts.update(tracing.cache_counts())
            names = [name for name, _ in workloads.PER_LAYER if not name.startswith("trace.")]
            result["layers"] = tracing.layer_metrics(tracer, names)

        entries = []
        digest = hashlib.sha256()
        for rep in reports:
            entry = {"suite": rep.suite, "passed": rep.passed,
                     "text": rep.to_text(), "json": rep.to_json()}
            if out_path is not None:
                entry["status"] = status
                entry["out_path"] = out_path
                with open(out_path, encoding="utf-8") as handle:
                    entry["written"] = handle.read()
            digest.update(entry["text"].encode() + b"\0" + entry["json"].encode() + b"\0")
            entries.append(entry)
        result["reports"] = entries
        result["digest"] = digest.hexdigest()
        result["computed"] = computed_sizes(spec["bounds"])
        checked, failures = properties.check(int(seed))
        result["properties"] = {"checked": checked, "failures": failures}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
