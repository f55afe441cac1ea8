"""The tensor algebra, its distinguished invariants and the identity suites."""

import random
from fractions import Fraction

from su21_invariants import dirac, lie, symext
from su21_invariants.dirac import (
    UCElement,
    c_gen,
    casimir_omega,
    diagonal_action,
    diagonal_casimir,
    dirac_operator,
    dk_element,
    lifted_generators,
    rho_g_norm_sq,
    rho_k_norm_sq,
    sigma_tau,
    u_gen,
    uc_one,
)
from su21_invariants.lie import gvec


def test_tensor_legs_commute():
    left = u_gen(lie.E) * c_gen(lie.E1)
    right = c_gen(lie.E1) * u_gen(lie.E)
    e_exps = tuple(1 if i == lie.E else 0 for i in range(8))
    assert left == right == UCElement({(e_exps, 0b0001): 1})


def test_uc_associativity_random():
    rng = random.Random(37)

    def rand_uc():
        out = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0] * 8
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(8)] += 1
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if coeff:
                out[(tuple(exps), rng.randrange(16))] = coeff
        return UCElement(out)

    for _ in range(100):
        x, y, z = rand_uc(), rand_uc(), rand_uc()
        assert (x * y) * z == x * (y * z)


def test_dirac_operator_form():
    D = dirac_operator()
    want = (
        u_gen(lie.E1) * c_gen(lie.F1)
        + u_gen(lie.E2) * c_gen(lie.F2)
        + u_gen(lie.F1) * c_gen(lie.E1)
        + u_gen(lie.F2) * c_gen(lie.E2)
    )
    assert D == want


def _dual_pair_sum(pairs, left, right):
    """sum_i left(b_i) right(d_i) over pairs of bases that are dual for
    the trace form."""
    for i, (b, _) in enumerate(pairs):
        for j, (_, d) in enumerate(pairs):
            assert lie.trace_form(b, d) == (1 if i == j else 0)
    out = UCElement()
    for b, d in pairs:
        out = out + left(b) * right(d)
    return out


def test_dirac_operator_is_dual_basis_independent():
    e1, f1 = gvec(lie.E1), gvec(lie.F1)
    pairs = [
        (e1 + f1, Fraction(1, 2) * (e1 + f1)),
        (e1 - f1, Fraction(-1, 2) * (e1 - f1)),
        (gvec(lie.E2), gvec(lie.F2)),
        (gvec(lie.F2), gvec(lie.E2)),
    ]
    assert _dual_pair_sum(pairs, dirac.u_vec, dirac.c_vec) == dirac_operator()


def test_all_lifted_elements_are_invariant():
    lift = lifted_generators()
    elements = dict(lift.as_dict())
    elements["D"] = dirac_operator()
    elements["Dk"] = dk_element()
    for name, x in elements.items():
        for gi in lie.K_INDICES:
            res = diagonal_action(gvec(gi), x)
            assert res.is_zero(), (name, lie.BASIS_NAMES[gi])


def test_single_summand_is_not_invariant():
    piece = u_gen(lie.F1) * c_gen(lie.E1)
    assert not diagonal_action(gvec(lie.E), piece).is_zero()


def test_sigma_tau_is_equivariant():
    rng = random.Random(41)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0] * 8
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(8)] += 1
            terms[(tuple(exps), rng.randrange(16))] = Fraction(rng.randint(-2, 2), 1)
        x = symext.SymTensorElement(terms)
        for gi in lie.K_INDICES:
            z = gvec(gi)
            assert sigma_tau(symext.ad_action(z, x)) == diagonal_action(z, sigma_tau(x))


def test_sigma_tau_table_passes():
    rep = dirac.verify_sigma_tau_table()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 10


def test_sigma_tau_examples():
    gens = symext.named_invariants()
    lift = lifted_generators()
    assert sigma_tau(gens.a) == lift.a
    assert sigma_tau(gens.c) == lift.c - Fraction(3, 2) * lift.a
    assert sigma_tau(gens.j) == lift.j + Fraction(3, 2) * lift.e
    assert sigma_tau(gens.g) == lift.g + 2 * uc_one()


def test_reduction_identities_pass():
    rep = dirac.verify_reduction_identities()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 6


def test_dirac_square_passes():
    rep = dirac.verify_dirac_square()
    assert rep.passed, rep.to_text()


def test_rho_norms():
    assert rho_g_norm_sq() == 2
    assert rho_k_norm_sq() == Fraction(1, 2)


def _scalar_blade_part(x):
    """The unit-blade terms of x."""
    return UCElement({(e, m): v for (e, m), v in x.coeffs.items() if m == 0})


def test_dirac_square_scalar_component():
    D = dirac_operator()
    lhs = _scalar_blade_part(D * D)
    rhs = (
        -casimir_omega()
        - 2 * uc_one()
        + _scalar_blade_part(diagonal_casimir())
        + Fraction(1, 2) * uc_one()
    )
    assert lhs == rhs


def test_dirac_square_is_invariant():
    D = dirac_operator()
    D2 = D * D
    for gi in lie.K_INDICES:
        assert diagonal_action(gvec(gi), D2).is_zero()


def test_dk_identity_passes():
    rep = dirac.verify_dk_identity()
    assert rep.passed, rep.to_text()


def test_dk_is_pair_scaling_independent():
    pairs = (
        (2 * gvec(lie.E), Fraction(1, 2) * gvec(lie.F)),
        (gvec(lie.F), gvec(lie.E)),
        (lie.H_VEC, Fraction(1, 2) * lie.H_VEC),
        (Fraction(1, 3) * lie.A_VEC, Fraction(9, 2) * lie.A_VEC),
    )
    assert _dual_pair_sum(pairs, dirac.u_vec, dirac.alpha) == dk_element()


def test_abelian_commutators_pass():
    rep = dirac.verify_abelian_commutators()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 6


def test_casimir_expressions_pass():
    rep = dirac.verify_casimir_expressions()
    assert rep.passed, rep.to_text()


def test_cub_expression_fails_when_the_polynomials_are_wrong(monkeypatch):
    """The cubic element is built from d_abc, not from a..d, so a wrong d
    in the polynomials is caught by the expression check."""
    real = symext.polynomial_invariants

    def perturbed(sym):
        a, b, c, d = real(sym)
        return a, b, c, d + a

    dirac.lifted_generators.cache_clear()
    dirac.cubic_element.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(symext, "polynomial_invariants", perturbed)
            rep = dirac.verify_casimir_expressions()
    finally:
        dirac.lifted_generators.cache_clear()
        dirac.cubic_element.cache_clear()
    passed = {c.check_id: c.passed for c in rep.checks}
    assert passed == {
        "omega-expression": True,
        "cub-expression": False,
        "omega-central": True,
        "cub-central": True,
    }


def test_product_filtration():
    lift = lifted_generators()
    assert lift.b.degree() == 2
    assert (lift.b * lift.c).degree() == 4
    assert dirac_operator().degree() == 2
