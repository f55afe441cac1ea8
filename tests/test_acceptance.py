"""Acceptance criteria for the whole package.

Every check is exact rational arithmetic (tolerance zero).  Each test
prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  The degree and filtration bounds below are the shipped
defaults: degrees 0..8 for the graded tables, filtration 4 for the
lifted-basis slice and 3 for the ideal slice.
"""

import random
import time
from fractions import Fraction

from su21_invariants import clifford as cl
from su21_invariants import dirac
from su21_invariants import invariants as inv
from su21_invariants import lie, suites, symext
from su21_invariants.expr import format_tensor, parse_element
from su21_invariants.lie import gvec

EXPECTED_DIMS = [1, 1, 6, 10, 23, 39, 64, 96, 141]


def _finish(number, label, t0, ok, limit=None):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    print("criterion %2d %s: %s (%.2fs)" % (number, status, label, elapsed))
    assert ok, label
    if limit is not None:
        assert elapsed < limit, "%s took %.2fs (limit %ss)" % (label, elapsed, limit)


def test_criterion_01_structure_suite():
    t0 = time.perf_counter()
    rep = suites.run_suite("lie")
    _finish(1, "structure suite (antisymmetry, Jacobi, bracket table,"
            " trace form, invariance)", t0, rep.passed, limit=1.0)


def test_criterion_02_symmetric_power_decompositions():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 7):
        ok = ok and inv.verify_sym_k_decomposition(n).passed
    for n in range(2, 6):
        ok = ok and inv.verify_sym_p_decomposition(n).passed
    _finish(2, "symmetric power decompositions (k side n=2..6, p side n=2..5)",
            t0, ok, limit=30.0)


def test_criterion_03_exterior_decomposition():
    t0 = time.perf_counter()
    rep = inv.verify_ext_decomposition()
    _finish(3, "exterior algebra of p splits into the ten stated submodules",
            t0, rep.passed, limit=1.0)


def test_criterion_04_invariant_dimension_table():
    t0 = time.perf_counter()
    ok = [inv.expected_dimension(n) for n in range(9)] == EXPECTED_DIMS
    rep = inv.verify_table(8)
    _finish(4, "invariant dimensions 0..8 equal %s" % EXPECTED_DIMS,
            t0, ok and rep.passed, limit=600.0)


def test_criterion_05_product_basis():
    t0 = time.perf_counter()
    rep = inv.verify_product_basis(8)
    _finish(5, "products of a,b,c,d with the sixteen module generators give"
            " a basis in degrees 0..8", t0, rep.passed)


def test_criterion_06_sigma_tau_identities():
    t0 = time.perf_counter()
    rep = dirac.verify_sigma_tau_table()
    _finish(6, "all ten symmetrization/Chevalley transfer identities",
            t0, rep.passed and len(rep.checks) == 10, limit=10.0)


def test_criterion_07_reduction_identities():
    t0 = time.perf_counter()
    rep = dirac.verify_reduction_identities()
    _finish(7, "all six generator reduction identities", t0,
            rep.passed and len(rep.checks) == 6)


def test_criterion_08_dirac_square():
    t0 = time.perf_counter()
    rep = dirac.verify_dirac_square()
    ok = rep.passed and dirac.rho_g_norm_sq() == 2
    ok = ok and dirac.rho_k_norm_sq() == Fraction(1, 2)
    _finish(8, "D^2 = -(Omega (x) 1 + 2) + (Cas_k_diag + 1/2)", t0, ok)


def test_criterion_09_k_dirac_identity():
    t0 = time.perf_counter()
    rep = dirac.verify_dk_identity()
    _finish(9, "D^k = -1/4 (i~ + 3 a~ g~) - 3/2 a~", t0, rep.passed)


def test_criterion_10_abelian_commutators():
    t0 = time.perf_counter()
    rep = dirac.verify_abelian_commutators()
    _finish(10, "all six pairwise commutators among a~, b~, g~, i~ vanish",
            t0, rep.passed and len(rep.checks) == 6)


def test_criterion_11_casimir_expressions():
    t0 = time.perf_counter()
    rep = dirac.verify_casimir_expressions()
    _finish(11, "quadratic and cubic central elements: expressions and"
            " centrality", t0, rep.passed)


def test_criterion_12_lifted_basis_slice():
    t0 = time.perf_counter()
    rep = inv.verify_lifted_basis_slice(4)
    _finish(12, "the sixteen lifted generators and all lifted products of"
            " filtration <= 4 are independent", t0, rep.passed, limit=300.0)


def test_criterion_13_ideal_slice():
    t0 = time.perf_counter()
    rep = inv.verify_ideal_slice(3)
    _finish(13, "the two-sided Dirac slice at filtration <= 3 misses the"
            " pure-k subspace", t0, rep.passed)


def test_criterion_14_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(101)
    ok = True

    # symmetrization is k-equivariant on random monomials
    for _ in range(20):
        exps = [0] * 8
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(8)] += 1
        exps = tuple(exps)
        mono = symext.SymTensorElement({(exps, 0): 1})
        sym = dirac.sigma_tau(mono)
        for gi in lie.K_INDICES:
            z = gvec(gi)
            lhs = dirac.sigma_tau(symext.ad_action(z, mono))
            uz = dirac.u_vec(z)
            ok = ok and lhs == uz * sym - sym * uz

    # the Chevalley map is k-equivariant on all blades
    for gi in lie.K_INDICES:
        z = gvec(gi)
        az = dirac.alpha(z)
        for mask in range(16):
            ext = symext.SymTensorElement({((0,) * 8, mask): 1})
            lhs = dirac.sigma_tau(symext.ad_action(z, ext))
            chev = dirac.UCElement(
                {((0,) * 8, m): v for m, v in cl.chevalley_items(mask)}
            )
            ok = ok and lhs == az * chev - chev * az

    # the adjoint action is a derivation
    def rand_sym():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * 8
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(8)] += 1
            terms[(tuple(e), rng.randrange(16))] = Fraction(rng.randint(-3, 3) or 1)
        return symext.SymTensorElement(terms)

    for _ in range(25):
        z = gvec(rng.choice(lie.K_INDICES))
        x, y = rand_sym(), rand_sym()
        ok = ok and symext.ad_action(z, x * y) == (
            symext.ad_action(z, x) * y + x * symext.ad_action(z, y)
        )

    # associativity samples in all four algebras
    def rand_u():
        e = [0] * 8
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(8)] += 1
        return dirac.UCElement({(tuple(e), 0): Fraction(rng.randint(-3, 3) or 1)})

    for _ in range(25):
        x, y, z = rand_sym(), rand_sym(), rand_sym()
        ok = ok and (x * y) * z == x * (y * z)
    for _ in range(25):
        x, y, z = rand_u(), rand_u(), rand_u()
        ok = ok and (x * y) * z == x * (y * z)
    blades = [dirac.UCElement({((0,) * 8, m): 1}) for m in range(16)]
    for a in blades:
        for b in blades:
            ab = a * b
            for c in blades:
                ok = ok and ab * c == a * (b * c)

    # parser round trip on random canonical elements
    for _ in range(100):
        x = rand_sym()
        ok = ok and parse_element(format_tensor(x), "tensor") == x

    _finish(14, "equivariance, derivation, associativity and parser"
            " round-trip property suites", t0, ok)
