"""Named verification suites driven by the command line interface."""

from __future__ import annotations

from . import dirac, invariants, lie
from .report import CheckResult, VerificationReport, merge_reports

DEFAULT_MAX_DEGREE = 8
# The largest --max-degree accepted.  `verify table --max-degree 16` takes
# about 3.6 s and 63 MB peak RSS (single core of a 2-vCPU Xeon, Python
# 3.11), and each further degree about 1.3 times as long as the one before.
MAX_DEGREE = 16
DEFAULT_MAX_FILTRATION = 4
# The largest --max-filtration accepted.  On the same machine `verify
# uc-basis --max-filtration 14` takes about 11 s and 265 MB peak RSS, and
# each step of 2 about five times as long as the one before.
MAX_FILTRATION = 14
DEFAULT_IDEAL_BOUND = 3

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


def _suite_lie() -> VerificationReport:
    checks = []
    basis = [lie.gvec(i) for i in range(lie.DIM)]

    bad = sum(
        1
        for x in basis
        for y in basis
        if not (lie.bracket(x, y) + lie.bracket(y, x)).is_zero()
    )
    checks.append(
        CheckResult(
            "antisymmetry",
            "[x,y] + [y,x] = 0 on all 64 basis pairs",
            bad == 0,
            None if bad == 0 else "%d failing pairs" % bad,
        )
    )

    bad = 0
    for x in basis:
        for y in basis:
            for z in basis:
                s = (
                    lie.bracket(x, lie.bracket(y, z))
                    + lie.bracket(y, lie.bracket(z, x))
                    + lie.bracket(z, lie.bracket(x, y))
                )
                if not s.is_zero():
                    bad += 1
    checks.append(
        CheckResult(
            "jacobi",
            "Jacobi identity on all 512 basis triples",
            bad == 0,
            None if bad == 0 else "%d failing triples" % bad,
        )
    )

    bad = [
        "[%s,%s]" % (lie.BASIS_NAMES[i], lie.BASIS_NAMES[j])
        for i, j, expect in _CARTAN_TABLE
        if lie.bracket(lie.gvec(i), lie.gvec(j)) != lie.GVector(expect)
    ]
    checks.append(
        CheckResult(
            "cartan-brackets",
            "the twelve Cartan bracket relations hold",
            not bad,
            ", ".join(bad) if bad else None,
        )
    )

    bad = sum(
        1
        for i in range(lie.DIM)
        for j in range(lie.DIM)
        if _killing_form(i, j) != 6 * lie.trace_form(basis[i], basis[j])
    )
    checks.append(
        CheckResult(
            "trace-form",
            "tr(ad x ad y) = 6 B(x,y) on all 64 basis pairs",
            bad == 0,
            None if bad == 0 else "%d failing pairs" % bad,
        )
    )

    bad = 0
    for x in basis:
        for y in basis:
            for z in basis:
                if lie.trace_form(lie.bracket(x, y), z) + lie.trace_form(
                    y, lie.bracket(x, z)
                ):
                    bad += 1
    checks.append(
        CheckResult(
            "b-invariance",
            "B([x,y],z) + B(y,[x,z]) = 0 on all triples",
            bad == 0,
        )
    )

    ok = True
    for x in basis:
        if lie.cartan_involution(lie.cartan_involution(x)) != x:
            ok = False
        for y in basis:
            if lie.cartan_involution(lie.bracket(x, y)) != lie.bracket(
                lie.cartan_involution(x), lie.cartan_involution(y)
            ):
                ok = False
    for i in lie.K_INDICES:
        for j in lie.K_INDICES:
            ok = ok and lie.BRACKET_TABLE[i][j].in_span(lie.K_INDICES)
        for j in lie.P_INDICES:
            ok = ok and lie.BRACKET_TABLE[i][j].in_span(lie.P_INDICES)
    for i in lie.P_INDICES:
        for j in lie.P_INDICES:
            ok = ok and lie.BRACKET_TABLE[i][j].in_span(lie.K_INDICES)
    for i in lie.K_INDICES:
        for j in lie.P_INDICES:
            ok = ok and lie.trace_form(lie.gvec(i), lie.gvec(j)) == 0
    checks.append(
        CheckResult(
            "cartan-involution",
            "theta is an involutive automorphism; [k,k],[p,p] in k,"
            " [k,p] in p, and B(k,p) = 0",
            ok,
        )
    )
    return VerificationReport("lie", {}, checks)


def _suite_lemmas() -> VerificationReport:
    reports = [invariants.verify_sym_k_decomposition(n) for n in range(2, 7)]
    reports += [invariants.verify_sym_p_decomposition(n) for n in range(2, 6)]
    reports.append(invariants.verify_ext_decomposition())
    return merge_reports("lemmas", {}, reports)


# One runner per suite, called with (max_degree, max_filtration).
_RUNNERS = {
    "lie": lambda deg, filt: _suite_lie(),
    "lemmas": lambda deg, filt: _suite_lemmas(),
    "table": lambda deg, filt: invariants.verify_table(deg),
    "st-basis": lambda deg, filt: invariants.verify_product_basis(deg),
    "sigma-tau": lambda deg, filt: dirac.verify_sigma_tau_table(),
    "reduction": lambda deg, filt: dirac.verify_reduction_identities(),
    "dirac-square": lambda deg, filt: dirac.verify_dirac_square(),
    "dk": lambda deg, filt: dirac.verify_dk_identity(),
    "abelian": lambda deg, filt: dirac.verify_abelian_commutators(),
    "casimir": lambda deg, filt: dirac.verify_casimir_expressions(),
    "uc-basis": lambda deg, filt: invariants.verify_lifted_basis_slice(
        DEFAULT_MAX_FILTRATION if filt is None else filt
    ),
    "ideal-slice": lambda deg, filt: invariants.verify_ideal_slice(
        DEFAULT_IDEAL_BOUND if filt is None else filt
    ),
}

SUITE_NAMES = tuple(_RUNNERS) + ("all",)


def run_suite(name: str, max_degree=None, max_filtration=None) -> VerificationReport:
    """Run one named suite (or 'all'); deterministic given its bounds."""
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if max_filtration is not None and max_filtration < 0:
        raise ValueError("max_filtration must be nonnegative")
    if max_degree is not None and max_degree > MAX_DEGREE:
        raise ValueError("max_degree is capped at %d" % MAX_DEGREE)
    if max_filtration is not None and max_filtration > MAX_FILTRATION:
        raise ValueError("max_filtration is capped at %d" % MAX_FILTRATION)
    max_degree = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    if name == "all":
        if max_filtration is not None:
            # ideal-slice runs last; reject its bound before anything runs.
            invariants.check_slice_bound(max_filtration)
        reports = []
        for key in _RUNNERS:
            reports.append(run_suite(key, max_degree, max_filtration))
        config = {"max_degree": max_degree}
        if max_filtration is not None:
            config["max_filtration"] = max_filtration
        return merge_reports("all", config, reports)
    if name not in _RUNNERS:
        raise ValueError(
            "unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES))
        )
    return _RUNNERS[name](max_degree, max_filtration)
