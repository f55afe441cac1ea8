"""Clifford products, the Chevalley map and the k -> C(p) action map."""

from fractions import Fraction

import pytest

from su21_invariants import lie, symext
from su21_invariants.clifford import chevalley_items
from su21_invariants.dirac import (
    UCElement,
    alpha,
    c_gen,
    c_vec,
    sigma_tau,
    uc_one,
    uc_scalar,
)
from su21_invariants.lie import gvec

ALL_MASKS = list(range(16))


def _blade(mask):
    return UCElement({((0,) * 8, mask): 1})


def _commutator(x, y):
    return x * y - y * x


def _chevalley_blade(mask):
    """The Chevalley image of one blade as an element of C(p)."""
    return UCElement({((0,) * 8, m): v for m, v in chevalley_items(mask)})


def test_defining_relation_on_all_pairs():
    for i in lie.P_INDICES:
        for j in lie.P_INDICES:
            vi, vj = c_gen(i), c_gen(j)
            b = lie.trace_form(gvec(i), gvec(j))
            assert vi * vj + vj * vi == uc_scalar(-2 * b)


def test_isotropic_squares_and_pairing():
    e1, f1 = c_gen(lie.E1), c_gen(lie.F1)
    assert (e1 * e1).is_zero()
    assert e1 * f1 + f1 * e1 == uc_scalar(-2)
    blade = e1 * f1
    assert blade * blade == -2 * blade


def test_associativity_on_all_basis_triples():
    for a in ALL_MASKS:
        for b in ALL_MASKS:
            ab = _blade(a) * _blade(b)
            for c in ALL_MASKS:
                assert (ab) * _blade(c) == _blade(a) * (_blade(b) * _blade(c))


def test_chevalley_degree_one_and_scalars():
    assert _chevalley_blade(0) == uc_one()
    for i in lie.P_INDICES:
        assert _chevalley_blade(1 << (i - lie.E1)) == c_gen(i)


def test_chevalley_of_invariant_two_form():
    got = _chevalley_blade(0b0101) + _chevalley_blade(0b1010)
    want = _blade(0b0101) + _blade(0b1010) + 2 * uc_one()
    assert got == want


def test_chevalley_leading_term():
    for mask in ALL_MASKS:
        diff = _chevalley_blade(mask) - _blade(mask)
        assert diff.is_zero() or diff.degree() < mask.bit_count()


def test_chevalley_accepts_exterior_elements():
    g = symext.named_invariants().g
    got = sigma_tau(g)
    assert got == _blade(0b0101) + _blade(0b1010) + 2 * uc_one()


def test_chevalley_top_blade_against_permutation_sum():
    # The n!-term alternating sum of every blade, computed through the
    # public product only; the top blade has 24 terms.
    from itertools import permutations

    for mask in ALL_MASKS:
        bits = [b for b in range(4) if mask >> b & 1]
        acc = UCElement()
        count = 0
        for perm in permutations(bits):
            inv = sum(
                1
                for x in range(len(perm))
                for y in range(x + 1, len(perm))
                if perm[x] > perm[y]
            )
            sign = -1 if inv & 1 else 1
            prod = uc_one()
            for b in perm:
                prod = prod * c_gen(lie.E1 + b)
            acc = acc + sign * prod
            count += 1
        acc = Fraction(1, count) * acc
        assert _chevalley_blade(mask) == acc, mask


def test_chevalley_is_equivariant():
    for gi in lie.K_INDICES:
        z = gvec(gi)
        az = alpha(z)
        for mask in ALL_MASKS:
            ext = symext.SymTensorElement({((0,) * 8, mask): 1})
            lhs = sigma_tau(symext.ad_action(z, ext))
            rhs = _commutator(az, _chevalley_blade(mask))
            assert lhs == rhs, (lie.BASIS_NAMES[gi], mask)


def test_alpha_realizes_the_bracket_on_p():
    for gi in lie.K_INDICES:
        z = gvec(gi)
        az = alpha(z)
        for pi in lie.P_INDICES:
            got = _commutator(az, c_gen(pi))
            want = c_vec(lie.bracket(z, gvec(pi)))
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
        (lie.A_VEC, half * (_blade(0b0101) + _blade(0b1010) + 2 * uc_one())),
        (gvec(lie.H1), half * (_blade(0b0101) + uc_one())),
        (gvec(lie.H2), half * (_blade(0b1010) + uc_one())),
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


def test_clifford_letters_reject_k_input():
    with pytest.raises(ValueError):
        c_gen(lie.E)
    with pytest.raises(ValueError):
        c_vec(gvec(lie.H1))
