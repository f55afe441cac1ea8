"""Workload definitions and metric names, shared by run.py and child.py.

Imports nothing from the package, so run.py can load it without paying
the package's import cost.
"""

SUITES = (
    "lie", "lemmas", "table", "st-basis", "sigma-tau", "reduction",
    "dirac-square", "dk", "abelian", "casimir", "uc-basis", "ideal-slice",
)

# steps: (suite, max_degree, max_filtration) passed to suites.run_suite, or
# the argument list of the command line when "cli" is set.
# bounds: the degree or filtration each checked suite must report up to.
WORKLOADS = {
    # What users run: every suite at its defaults, a JSON report on disk.
    "verify-all": {
        "cli": ["verify", "all", "--format", "json"],
        "bounds": {"table": 8, "st-basis": 8, "uc-basis": 4, "ideal-slice": 3},
    },
    # The commutative engine past the default degree; no U (x) C product.
    "graded-deep": {
        "steps": (("table", 10, None), ("st-basis", 10, None)),
        "bounds": {"table": 10, "st-basis": 10},
    },
    # The non-commutative engine: PBW/Clifford products and large ranks.
    "uc-deep": {
        "steps": (("uc-basis", None, 10), ("ideal-slice", None, 4)),
        "bounds": {"uc-basis": 10, "ideal-slice": 4},
    },
}

PER_LAYER = tuple(
    [("suites.run_suite.%s.s" % s, "s") for s in SUITES]
    + [
        ("report.render.s", "s"),
        ("invariants.graded_keys.s", "s"),
        ("invariants.graded_keys.calls", "count"),
        ("invariants.slice_keys", "count"),
        ("symext.key_weight.s", "s"),
        ("symext.key_weight.calls", "count"),
        ("symext.ad_action.s", "s"),
        ("symext.ad_action.calls", "count"),
        ("symext.ad_action.terms_out", "count"),
        ("invariants.invariant_subspace.s", "s"),
        ("invariants.kernel_dim", "count"),
        ("symext.mul.s", "s"),
        ("symext.mul.calls", "count"),
        ("invariants.product_basis_members.s", "s"),
        ("linalg.kernel_of_rows.s", "s"),
        ("linalg.kernel_of_rows.calls", "count"),
        ("linalg.kernel_of_rows.max_cols", "count"),
        ("linalg.rref_rows.s", "s"),
        ("linalg.rref_rows.calls", "count"),
        ("linalg.rank_of_rows.s", "s"),
        ("linalg.rank_of_rows.calls", "count"),
        ("linalg.rank_of_rows.rows", "count"),
        ("linalg.rank_of_rows.nnz", "count"),
        ("dirac.mul.s", "s"),
        ("dirac.mul.calls", "count"),
        ("invariants.lifted_product_members.s", "s"),
        ("enveloping.pbw_product_items.hits", "count"),
        ("enveloping.pbw_product_items.misses", "count"),
        ("enveloping.insert.entries", "count"),
        ("clifford.clifford_product_items.hits", "count"),
        ("clifford.clifford_product_items.misses", "count"),
        ("trace.overhead_s", "s"),
        ("trace.peak_rss_mb", "MB"),
    ]
)
