"""The mutation table: each row plants one named fault, right after
import, in a fresh interpreter (the product caches live as long as the
process), runs ``verify all`` at its defaults, and requires the report to
fail on every check the row names.  An unpatched control run passes.
The runs go two at a time, which halves the test's wall time on two cores.

The k-action reads one pair of letter tables per basis letter of k,
built from ``lie.BRACKET_TABLE`` on first use, so a patch of the bracket
table reaches it; the two k-action rows wrap ``symext._letter_tables``
and flip the sign of the moves of one tensor leg.

Two faults are known to survive every report check and have no row: the
Cartan part of the k-action dropped on the exterior leg, or on the
symmetric leg.  No report check applies ad(H1) or ad(H2) where they act by
a nonzero weight.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package, applies the patch given as argv[1] through
# ``patch(owner, name, make)``, which replaces owner.name by make(owner.name),
# runs every suite and prints the ids of the failed checks as JSON.
_RUN = """
import json, sys
from su21_invariants import clifford, dirac, enveloping, lie, suites, symext

def patch(owner, name, make):
    if not hasattr(owner, name):
        sys.exit("no patch target %s.%s" % (owner.__name__, name))
    setattr(owner, name, make(getattr(owner, name)))

def negated_mask_moves(tables):
    def wrapped(g):
        sym_moves, mask_moves = tables(g)
        flipped = tuple(tuple((m, -u) for m, u in moves) for moves in mask_moves)
        return sym_moves, flipped
    return wrapped

def negated_sym_moves(tables):
    def wrapped(g):
        sym_moves, mask_moves = tables(g)
        flipped = tuple((i, tuple((j, -u) for j, u in moves)) for i, moves in sym_moves)
        return flipped, mask_moves
    return wrapped

exec(sys.argv[1])
report = suites.run_suite("all")
print(json.dumps([c.check_id for c in report.checks if not c.passed]))
"""


# (fault, patch, checks of ``verify all`` that must fail)
MUTATIONS = [
    (
        "clifford-relation-plus-2B",
        "patch(clifford, '_BP', lambda bp: tuple(tuple(-b for b in row) for row in bp))",
        (
            "sigma-tau:sigma-tau-g",
            "reduction:reduce-e",
            "reduction:reduce-f",
            "reduction:reduce-c",
            "reduction:reduce-d",
            "dirac-square:parthasarathy",
            "dk:dk-identity",
        ),
    ),
    (
        "alpha-times-2",
        "patch(dirac, 'alpha', lambda f: lambda z: 2 * f(z))",
        ("dirac-square:parthasarathy", "dk:dk-identity"),
    ),
    (
        "alpha-times-minus-1",
        "patch(dirac, 'alpha', lambda f: lambda z: -f(z))",
        ("dirac-square:parthasarathy", "dk:dk-identity"),
    ),
    (
        "bracket-table-negated",
        "patch(lie, 'BRACKET_TABLE', lambda t: tuple(tuple(-x for x in row) for row in t))",
        ("lie:cartan-brackets",) + tuple("table:degree-%d" % n for n in range(3, 9)),
    ),
    (
        "chevalley-2-blades-negated",
        "patch(clifford, 'chevalley_items', lambda f: lambda m: tuple("
        "(k, -c if m.bit_count() == 2 else c) for k, c in f(m)))",
        ("sigma-tau:sigma-tau-g", "sigma-tau:sigma-tau-i"),
    ),
    (
        "dirac-operator-times-2",
        "patch(dirac, 'dirac_operator', lambda f: lambda: 2 * f())",
        ("reduction:reduce-e", "reduction:reduce-f", "dirac-square:parthasarathy"),
    ),
    (
        "symmetrization-replaced-by-ordered-monomial",
        "patch(enveloping, 'symmetrize_items', lambda f: lambda exps: ((exps, 1),))",
        tuple("sigma-tau:sigma-tau-%s" % n for n in "bcdhj"),
    ),
    (
        "exterior-k-action-sign-flipped",
        "patch(symext, '_letter_tables', negated_mask_moves)",
        tuple("st-basis:product-basis-degree-%d" % n for n in range(2, 9)),
    ),
    (
        "symmetric-k-action-sign-flipped",
        "patch(symext, '_letter_tables', negated_sym_moves)",
        tuple("table:degree-%d" % n for n in range(3, 9))
        + tuple("st-basis:product-basis-degree-%d" % n for n in range(2, 9)),
    ),
]


def _run(patch: str) -> subprocess.CompletedProcess:
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-c", _RUN, patch],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=300,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    """The finished run of each patch, the empty control patch included."""
    patches = [""] + [patch for _, patch, _ in MUTATIONS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(patches, pool.map(_run, patches)))


def _failed_checks(done: subprocess.CompletedProcess) -> list:
    """The ids of the checks ``verify all`` failed in the run."""
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_unpatched_report_passes(runs):
    assert _failed_checks(runs[""]) == []


@pytest.mark.parametrize(
    "patch, must_fail", [row[1:] for row in MUTATIONS], ids=[row[0] for row in MUTATIONS]
)
def test_mutation_fails_its_checks(runs, patch, must_fail):
    failed = _failed_checks(runs[patch])
    assert failed, "verify all passed with the fault planted"
    assert set(must_fail) <= set(failed), sorted(set(must_fail) - set(failed))
