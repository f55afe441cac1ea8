"""Named verification suites driven by the command line interface.

One table, ``SUITES``, holds a row per suite: its runner function, the
bound it reads (``max_degree``, ``max_filtration`` or none), that
bound's default and its cap.  ``run_suite`` checks and fills every bound
from the table alone, and before any suite runs: a negative bound, a
bound that no chosen suite reads, or one above the smallest cap among
the chosen suites that read it is a ValueError.  Raising a cap is a
one-row edit.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import dirac, invariants, lie
from .report import CheckResult, VerificationReport, merge_reports

# The twelve bracket relations of the Cartan generators against the rest.
_CARTAN_TABLE = (
    (lie.H1, lie.E1, {lie.E1: 1}),
    (lie.H2, lie.E1, {}),
    (lie.H1, lie.E2, {}),
    (lie.H2, lie.E2, {lie.E2: 1}),
    (lie.H1, lie.F1, {lie.F1: -1}),
    (lie.H2, lie.F1, {}),
    (lie.H1, lie.F2, {}),
    (lie.H2, lie.F2, {lie.F2: -1}),
    (lie.H1, lie.E, {lie.E: 1}),
    (lie.H2, lie.E, {lie.E: -1}),
    (lie.H1, lie.F, {lie.F: -1}),
    (lie.H2, lie.F, {lie.F: 1}),
)


def _killing_form(i: int, j: int):
    """tr(ad x_i ad x_j), read from the structure constants alone."""
    total = 0
    for k in range(lie.DIM):
        for m, c in lie.BRACKET_TABLE[j][k].coeffs.items():
            total += c * lie.BRACKET_TABLE[i][m].coeffs.get(k, 0)
    return total


def _count_check(check_id: str, anchor: str, failing, noun=None) -> CheckResult:
    """Passes when no case is failing; the residual counts the failing cases
    as "N failing <noun>", or lists them when there is no noun."""
    failing = list(failing)
    if not failing:
        return CheckResult(check_id, anchor, True)
    residual = "%d failing %s" % (len(failing), noun) if noun else ", ".join(failing)
    return CheckResult(check_id, anchor, False, residual)


def _suite_lie() -> VerificationReport:
    br, form, theta = lie.bracket, lie.trace_form, lie.cartan_involution
    zero = lie.GVector()
    basis = [lie.gvec(i) for i in range(lie.DIM)]
    pairs = [(x, y) for x in basis for y in basis]
    triples = [(x, y, z) for x, y in pairs for z in basis]
    indices = [(i, j) for i in range(lie.DIM) for j in range(lie.DIM)]
    k, p = lie.K_INDICES, lie.P_INDICES
    checks = [
        _count_check(
            "antisymmetry",
            "[x,y] + [y,x] = 0 on all 64 basis pairs",
            [(x, y) for x, y in pairs if br(x, y) + br(y, x) != zero],
            "pairs",
        ),
        _count_check(
            "jacobi",
            "Jacobi identity on all 512 basis triples",
            [
                (x, y, z)
                for x, y, z in triples
                if br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y)) != zero
            ],
            "triples",
        ),
        _count_check(
            "cartan-brackets",
            "the twelve Cartan bracket relations hold",
            [
                "[%s,%s]" % (lie.BASIS_NAMES[i], lie.BASIS_NAMES[j])
                for i, j, expect in _CARTAN_TABLE
                if br(basis[i], basis[j]) != lie.GVector(expect)
            ],
        ),
        _count_check(
            "trace-form",
            "tr(ad x ad y) = 6 B(x,y) on all 64 basis pairs",
            [
                (i, j)
                for i, j in indices
                if _killing_form(i, j) != 6 * form(basis[i], basis[j])
            ],
            "pairs",
        ),
        _count_check(
            "b-invariance",
            "B([x,y],z) + B(y,[x,z]) = 0 on all triples",
            [(x, y, z) for x, y, z in triples if form(br(x, y), z) + form(y, br(x, z))],
            "triples",
        ),
        _count_check(
            "cartan-involution",
            "theta is an involutive automorphism; [k,k],[p,p] in k,"
            " [k,p] in p, and B(k,p) = 0",
            [x for x in basis if theta(theta(x)) != x]
            + [(x, y) for x, y in pairs if theta(br(x, y)) != br(theta(x), theta(y))]
            # [x_i, x_j] lies in k when x_i and x_j lie on one side of k + p.
            + [
                (i, j)
                for i, j in indices
                if not lie.BRACKET_TABLE[i][j].in_span(k if (i in p) == (j in p) else p)
            ]
            + [(i, j) for i in k for j in p if form(basis[i], basis[j])],
            "cases",
        ),
    ]
    return VerificationReport("lie", {}, checks)


def _suite_lemmas() -> VerificationReport:
    reports = [invariants.verify_sym_k_decomposition(n) for n in range(2, 7)]
    reports += [invariants.verify_sym_p_decomposition(n) for n in range(2, 6)]
    reports.append(invariants.verify_ext_decomposition())
    return merge_reports("lemmas", {}, reports)


class Suite(NamedTuple):
    """A suite's runner, and the bound it reads with that bound's default
    and cap, or None for all three."""

    run: Callable[..., VerificationReport]
    bound: str | None = None
    default: int | None = None
    cap: int | None = None


SUITES = {
    "lie": Suite(_suite_lie),
    "lemmas": Suite(_suite_lemmas),
    # `verify table --max-degree 16` takes about 3.6 s and 63 MB peak RSS
    # (single core of a 2-vCPU Xeon, Python 3.11), and each further degree
    # about 1.3 times as long as the one before.
    "table": Suite(invariants.verify_table, "max_degree", 8, 16),
    "st-basis": Suite(invariants.verify_product_basis, "max_degree", 8, 16),
    "sigma-tau": Suite(dirac.verify_sigma_tau_table),
    "reduction": Suite(dirac.verify_reduction_identities),
    "dirac-square": Suite(dirac.verify_dirac_square),
    "dk": Suite(dirac.verify_dk_identity),
    "abelian": Suite(dirac.verify_abelian_commutators),
    "casimir": Suite(dirac.verify_casimir_expressions),
    # On the same machine `verify uc-basis --max-filtration 14` takes about
    # 8 s and 197 MB peak RSS, and each step of 2 about four times as long
    # as the one before.
    "uc-basis": Suite(invariants.verify_lifted_basis_slice, "max_filtration", 4, 14),
    # `verify ideal-slice --max-filtration 7` takes about 2.2 s CPU and
    # 52 MB peak RSS on the same machine, and 8, one past the cap, about
    # 8.7 s CPU and 126 MB.
    "ideal-slice": Suite(invariants.verify_ideal_slice, "max_filtration", 3, 7),
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, max_degree=None, max_filtration=None) -> VerificationReport:
    """Run one named suite (or 'all'); deterministic given its bounds.

    'all' runs every suite through this function, each with the bound it
    reads; its config holds a bound when every suite that read it ran at
    one value."""
    if name not in SUITE_NAMES:
        raise ValueError(
            "unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES))
        )
    rows = SUITES.values() if name == "all" else [SUITES[name]]
    given = {"max_degree": max_degree, "max_filtration": max_filtration}
    for bound, value in given.items():
        if value is None:
            continue
        if value < 0:
            raise ValueError("%s must be nonnegative" % bound)
        caps = [row.cap for row in rows if row.bound == bound]
        if not caps:
            raise ValueError("suite %s reads no %s" % (name, bound))
        if value > min(caps):
            raise ValueError("%s is capped at %d" % (bound, min(caps)))
    if name != "all":
        row = SUITES[name]
        if row.bound is None:
            return row.run()
        value = given[row.bound]
        return row.run(row.default if value is None else value)
    reports = [
        run_suite(key, **({row.bound: given[row.bound]} if row.bound else {}))
        for key, row in SUITES.items()
    ]
    config = {}
    for bound in given:
        used = {rep.config[bound] for rep in reports if bound in rep.config}
        if len(used) == 1:
            config[bound] = used.pop()
    return merge_reports("all", config, reports)
