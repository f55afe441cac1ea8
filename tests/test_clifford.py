"""Clifford products, the Chevalley map and the k -> C(p) action map."""

from fractions import Fraction

import pytest

from su21_invariants import lie, symext
from su21_invariants.clifford import (
    CElement,
    alpha,
    c_gen,
    c_one,
    c_scalar,
    chevalley_mask,
    from_p_gvector,
)
from su21_invariants.dirac import sigma_tau
from su21_invariants.lie import gvec

ALL_MASKS = list(range(16))


def _blade(mask):
    return CElement({mask: 1})


def _commutator(x, y):
    return x * y - y * x


def _chevalley(x):
    """Chevalley image of a purely exterior element of S(g) (x) Lambda(p):
    the Clifford leg of sigma x tau, whose U leg is then the unit."""
    image = sigma_tau(x)
    assert not any(any(exps) for exps, _mask in image.coeffs)
    return CElement({mask: v for (_exps, mask), v in image.coeffs.items()})


def test_defining_relation_on_all_pairs():
    for i in lie.P_INDICES:
        for j in lie.P_INDICES:
            vi, vj = c_gen(i), c_gen(j)
            b = lie.trace_form(gvec(i), gvec(j))
            assert vi * vj + vj * vi == c_scalar(-2 * b)


def test_isotropic_squares_and_pairing():
    e1, f1 = c_gen(lie.E1), c_gen(lie.F1)
    assert (e1 * e1).is_zero()
    assert e1 * f1 + f1 * e1 == c_scalar(-2)
    blade = e1 * f1
    assert blade * blade == -2 * blade


def test_associativity_on_all_basis_triples():
    for a in ALL_MASKS:
        for b in ALL_MASKS:
            ab = _blade(a) * _blade(b)
            for c in ALL_MASKS:
                assert (ab) * _blade(c) == _blade(a) * (_blade(b) * _blade(c))


def test_chevalley_degree_one_and_scalars():
    assert chevalley_mask(0) == c_one()
    for i in lie.P_INDICES:
        assert chevalley_mask(1 << (i - lie.E1)) == c_gen(i)


def test_chevalley_of_invariant_two_form():
    got = chevalley_mask(0b0101) + chevalley_mask(0b1010)
    want = _blade(0b0101) + _blade(0b1010) + 2 * c_one()
    assert got == want


def test_chevalley_leading_term():
    for mask in ALL_MASKS:
        diff = chevalley_mask(mask) - _blade(mask)
        assert diff.is_zero() or diff.degree() < mask.bit_count()


def test_chevalley_accepts_exterior_elements():
    g = symext.named_invariants().g
    got = _chevalley(g)
    assert got == _blade(0b0101) + _blade(0b1010) + 2 * c_one()


def test_chevalley_top_blade_against_permutation_sum():
    # 24-term alternating sum computed through the public product only
    from itertools import permutations

    bits = [0, 1, 2, 3]
    acc = CElement()
    count = 0
    for perm in permutations(bits):
        inv = sum(
            1
            for x in range(4)
            for y in range(x + 1, 4)
            if perm[x] > perm[y]
        )
        sign = -1 if inv & 1 else 1
        prod = c_one()
        for b in perm:
            prod = prod * c_gen(lie.E1 + b)
        acc = acc + sign * prod
        count += 1
    acc = Fraction(1, count) * acc
    assert chevalley_mask(0b1111) == acc


def test_chevalley_is_equivariant():
    for gi in lie.K_INDICES:
        z = gvec(gi)
        az = alpha(z)
        for mask in ALL_MASKS:
            ext = symext.SymTensorElement({((0,) * 8, mask): 1})
            lhs = _chevalley(symext.ad_action(z, ext))
            rhs = _commutator(az, chevalley_mask(mask))
            assert lhs == rhs, (lie.BASIS_NAMES[gi], mask)


def test_alpha_realizes_the_bracket_on_p():
    for gi in lie.K_INDICES:
        z = gvec(gi)
        az = alpha(z)
        for pi in lie.P_INDICES:
            got = _commutator(az, c_gen(pi))
            want = from_p_gvector(lie.bracket(z, gvec(pi)))
            assert got == want, (lie.BASIS_NAMES[gi], lie.BASIS_NAMES[pi])


def test_alpha_is_a_lie_homomorphism():
    for i in lie.K_INDICES:
        for j in lie.K_INDICES:
            lhs = alpha(lie.bracket(gvec(i), gvec(j)))
            rhs = _commutator(alpha(gvec(i)), alpha(gvec(j)))
            assert lhs == rhs


def test_alpha_of_center():
    # alpha of the center A = H1 + H2 and of each basis vector of k, typed
    # in; blade bits are E1, E2, F1, F2 from the low bit up (0b0101 = E1 F1).
    half = Fraction(-1, 2)
    values = (
        (lie.A_VEC, half * (_blade(0b0101) + _blade(0b1010) + 2 * c_one())),
        (gvec(lie.H1), half * (_blade(0b0101) + c_one())),
        (gvec(lie.H2), half * (_blade(0b1010) + c_one())),
        (gvec(lie.E), half * _blade(0b1001)),
        (gvec(lie.F), half * _blade(0b0110)),
    )
    for z, want in values:
        assert alpha(z) == want, z


def test_alpha_commutes_where_the_bracket_vanishes():
    # [E, F2] = 0 in g, so alpha(E) commutes with F2 in C(p); the companion
    # bracket [E, F1] = -F2 is realized too.
    a_e = alpha(gvec(lie.E))
    assert _commutator(a_e, c_gen(lie.F2)).is_zero()
    assert _commutator(a_e, c_gen(lie.F1)) == -c_gen(lie.F2)


def test_alpha_rejects_p_input():
    with pytest.raises(ValueError):
        alpha(gvec(lie.E1))
