"""The tensor algebra, its distinguished invariants and the identity suites."""

import random
from fractions import Fraction

import pytest

from su21_invariants import clifford as cl
from su21_invariants import dirac
from su21_invariants import enveloping as env
from su21_invariants import lie, symext
from su21_invariants.dirac import (
    UCElement,
    diagonal_action,
    diagonal_casimir,
    dirac_from_dual_pairs,
    dirac_operator,
    dk_element,
    embed_c,
    embed_u,
    lifted_generators,
    rho_g_norm_sq,
    rho_k_norm_sq,
    sigma_tau,
    uc_one,
)
from su21_invariants.lie import gvec


def test_tensor_legs_commute():
    left = embed_u(env.u_gen(lie.E)) * embed_c(cl.c_gen(lie.E1))
    right = embed_c(cl.c_gen(lie.E1)) * embed_u(env.u_gen(lie.E))
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
        embed_u(env.u_gen(lie.E1)) * embed_c(cl.c_gen(lie.F1))
        + embed_u(env.u_gen(lie.E2)) * embed_c(cl.c_gen(lie.F2))
        + embed_u(env.u_gen(lie.F1)) * embed_c(cl.c_gen(lie.E1))
        + embed_u(env.u_gen(lie.F2)) * embed_c(cl.c_gen(lie.E2))
    )
    assert D == want


def test_dirac_operator_is_dual_basis_independent():
    e1, f1 = gvec(lie.E1), gvec(lie.F1)
    pairs = [
        (e1 + f1, Fraction(1, 2) * (e1 + f1)),
        (e1 - f1, Fraction(-1, 2) * (e1 - f1)),
        (gvec(lie.E2), gvec(lie.F2)),
        (gvec(lie.F2), gvec(lie.E2)),
    ]
    assert dirac_from_dual_pairs(pairs) == dirac_operator()


def test_dirac_from_non_dual_pairs_rejected():
    pairs = [
        (gvec(lie.E1), gvec(lie.E1)),
        (gvec(lie.E2), gvec(lie.F2)),
        (gvec(lie.F1), gvec(lie.E1)),
        (gvec(lie.F2), gvec(lie.E2)),
    ]
    with pytest.raises(ValueError):
        dirac_from_dual_pairs(pairs)


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
    piece = embed_u(env.u_gen(lie.F1)) * embed_c(cl.c_gen(lie.E1))
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
    """The U-leg coefficient of the unit blade of x."""
    return env.UElement({e: v for (e, m), v in x.coeffs.items() if m == 0})


def test_dirac_square_scalar_component():
    D = dirac_operator()
    lhs = _scalar_blade_part(D * D)
    rhs = (
        -env.casimir_omega()
        - 2 * env.u_one()
        + _scalar_blade_part(diagonal_casimir())
        + Fraction(1, 2) * env.u_one()
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
    assert dk_element(pairs) == dk_element()


def test_abelian_commutators_pass():
    rep = dirac.verify_abelian_commutators()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 6


def test_casimir_expressions_pass():
    rep = dirac.verify_casimir_expressions()
    assert rep.passed, rep.to_text()


def test_product_filtration():
    lift = lifted_generators()
    assert lift.b.degree() == 2
    assert (lift.b * lift.c).degree() == 4
    assert dirac_operator().degree() == 2
