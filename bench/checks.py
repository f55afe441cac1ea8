"""Checks on the reports of one round: the report contract and the oracle.

Report contract: the text and JSON renderings list the same checks with the
same statuses, the summary line counts them, the exit status is 0 exactly
when every check passes, and a report written by the command line is the
JSON rendering byte for byte.  Oracle: every check must pass, and ``oracle``
recomputes both the headline counts in the anchors and the sizes the suites
computed (kernel dimensions, product-family member counts), which the
anchors of table, st-basis and uc-basis do not carry.
"""

from __future__ import annotations

import json
import re

import oracle
from workloads import SUITES

_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) :: (.*)$")

# Suite-local check id -> anchor pattern; groups name the counts in it.
_ANCHORS = {
    "table": (r"degree-(\d+)", r"dim of degree-(\d+) invariants = (\d+)"),
    "st-basis": (r"product-basis-degree-(\d+)",
                 r"the (\d+) degree-(\d+) products are invariant and independent"),
    "uc-basis": (r"products-rank-le-(\d+)",
                 r"all (\d+) lifted products of degree <= (\d+) are independent"),
    "ideal-slice": (r"slice-rank-bound-(\d+)",
                    r"the (\d+) products u D v meet the pure-k subspace trivially"),
}


def contract_problems(entry) -> list:
    """Disagreements between the renderings, the status and the written file."""
    problems = []
    suite = entry["suite"]
    try:
        payload = json.loads(entry["json"])
    except json.JSONDecodeError as err:
        return ["%s: JSON report does not parse: %s" % (suite, err)]
    from_json = [(c["status"] == "pass", c["id"], c["anchor"]) for c in payload["checks"]]
    lines = entry["text"].split("\n")
    from_text = []
    for line in lines:
        match = _CHECK_LINE.match(line)
        if match:
            from_text.append((match.group(1) == "PASS", match.group(2), match.group(3)))
    if payload["suite"] != suite or lines[0] != "suite: %s" % suite:
        problems.append("%s: suite name differs between renderings" % suite)
    if from_text != from_json:
        problems.append("%s: text and JSON reports disagree check by check" % suite)
    good = sum(1 for ok, _, _ in from_json if ok)
    summary = "%d/%d checks passed" % (good, len(from_json))
    if lines[-1] != "result: " + summary:
        problems.append("%s: text summary %r, expected %r"
                        % (suite, lines[-1], "result: " + summary))
    all_pass = good == len(from_json)
    if entry["passed"] != all_pass:
        problems.append("%s: report says passed=%s" % (suite, entry["passed"]))
    if "status" in entry:
        if (entry["status"] == 0) != all_pass:
            problems.append("%s: exit status %r with all_pass=%s"
                            % (suite, entry["status"], all_pass))
        if entry["written"] != entry["json"] + "\n":
            problems.append("%s: written report differs from the JSON rendering" % suite)
        line = "%s: %s (report written to %s)" % (suite, summary, entry["out_path"])
        if entry.get("stdout", "").rstrip("\n").split("\n")[-1] != line:
            problems.append("%s: command line summary is not %r" % (suite, line))
    return problems


def _checks_by_suite(entry) -> dict:
    """{suite: {local id: (passed, anchor)}} for a single or merged report."""
    out = {}
    for c in json.loads(entry["json"])["checks"]:
        suite, local = entry["suite"], c["id"]
        if suite == "all":
            suite, _, local = local.partition(":")
        out.setdefault(suite, {})[local] = (c["status"] == "pass", c["anchor"])
    return out


def oracle_problems(entries, bounds, expect_all_suites, computed) -> list:
    """Every check passes, and every headline count and every computed size
    ({suite: [size per degree or filtration]}) matches the oracle."""
    problems = []
    by_suite = {}
    for entry in entries:
        by_suite.update(_checks_by_suite(entry))
    if expect_all_suites and sorted(by_suite) != sorted(SUITES):
        problems.append("suites run: %s" % ", ".join(sorted(by_suite)))
    for suite, checks in by_suite.items():
        for local, (passed, _) in checks.items():
            if not passed:
                problems.append("%s:%s failed" % (suite, local))

    top = max(bounds.values())
    dims = oracle.invariant_dimensions(top)
    members = oracle.product_counts(top)
    if dims != members:
        problems.append("oracle: weight count %s != product count %s" % (dims, members))
    for suite, bound in bounds.items():
        # Oracle sizes per degree or filtration up to the bound.
        sizes = {
            "table": dims[: bound + 1],
            "st-basis": members[: bound + 1],
            "uc-basis": [sum(dims[: m + 1]) for m in range(bound + 1)],
        }.get(suite)
        id_pattern, anchor_pattern = _ANCHORS[suite]
        seen = {}
        for local, (_, anchor) in by_suite.get(suite, {}).items():
            id_match = re.fullmatch(id_pattern, local)
            if id_match:
                anchor_match = re.fullmatch(anchor_pattern, anchor)
                seen[int(id_match.group(1))] = anchor_match and [
                    int(g) for g in anchor_match.groups()
                ]
        if suite == "ideal-slice":
            want = {bound: [sum(members[i] * members[j]
                                for i in range(bound + 1)
                                for j in range(bound + 1 - i))]}
        elif suite == "table":
            want = {n: [n, size] for n, size in enumerate(sizes)}
        else:
            want = {n: [size, n] for n, size in enumerate(sizes)}
        if seen != want:
            problems.append("%s: anchor counts %s, oracle %s" % (suite, seen, want))
        if sizes is not None and computed.get(suite) != sizes:
            problems.append("%s: computed sizes %s, oracle %s"
                            % (suite, computed.get(suite), sizes))
    return problems
