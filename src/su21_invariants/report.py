"""Check results and verification reports with deterministic rendering.

A report is reproducible byte for byte under a fixed configuration.
"""

from __future__ import annotations

import json
from typing import NamedTuple


class CheckResult(NamedTuple):
    check_id: str
    anchor: str
    passed: bool
    residual: str | None = None


class VerificationReport(NamedTuple):
    suite: str
    config: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> str:
        good = sum(1 for c in self.checks if c.passed)
        return "%d/%d checks passed" % (good, len(self.checks))

    def to_text(self) -> str:
        lines = ["suite: %s" % self.suite]
        if self.config:
            lines.append(
                "config: " + " ".join("%s=%s" % kv for kv in self.config.items())
            )
        for c in self.checks:
            lines.append("%s %s :: %s" % ("PASS" if c.passed else "FAIL", c.check_id, c.anchor))
            if not c.passed and c.residual:
                lines.append("     residual: %s" % c.residual)
        lines.append("result: %s" % self.summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        obj = {
            "suite": self.suite,
            "config": dict(self.config),
            "checks": [],
        }
        for c in self.checks:
            entry = {"id": c.check_id, "anchor": c.anchor,
                     "status": "pass" if c.passed else "fail"}
            if not c.passed and c.residual:
                entry["residual"] = c.residual
            obj["checks"].append(entry)
        return json.dumps(obj, indent=2)


def merge_reports(suite: str, config: dict, reports) -> VerificationReport:
    """Concatenate the checks of several reports under one suite name."""
    checks = []
    for rep in reports:
        prefix = "" if rep.suite == suite else rep.suite + ":"
        for c in rep.checks:
            checks.append(
                CheckResult(prefix + c.check_id, c.anchor, c.passed, c.residual)
            )
    return VerificationReport(suite, config, checks)
