"""Products, the k-action and the ten invariants of S(g) (x) Lambda(p)."""

import random
from fractions import Fraction

import pytest

from su21_invariants import lie, symext
from su21_invariants.lie import gvec
from su21_invariants.symext import (
    SymTensorElement,
    ad_action,
    ext_gen,
    from_gvector,
    key_weight,
    named_invariants,
    one,
    sym_gen,
)


def _key(exps=(), mask=0):
    full = [0] * 8
    for i, e in exps:
        full[i] = e
    return (tuple(full), mask)


def test_symmetric_product_adds_exponents():
    he = from_gvector(lie.H_VEC) * sym_gen(lie.E)
    prod = he * sym_gen(lie.E)
    want = from_gvector(lie.H_VEC) * sym_gen(lie.E) * sym_gen(lie.E)
    assert prod == want
    square = sym_gen(lie.E) * sym_gen(lie.E)
    assert square == SymTensorElement({_key([(lie.E, 2)]): 1})


def test_wedge_square_is_zero():
    assert (ext_gen(lie.E1) * ext_gen(lie.E1)).is_zero()


def test_wedge_transposition_sign():
    assert ext_gen(lie.F1) * ext_gen(lie.E1) == -(ext_gen(lie.E1) * ext_gen(lie.F1))


def _random_element(rng, allow_ext=True):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * 8
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(8)] += 1
        mask = rng.randrange(16) if allow_ext else 0
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            terms[(tuple(exps), mask)] = coeff
    return SymTensorElement(terms)


def test_product_associativity_and_sign_commutativity():
    rng = random.Random(3)
    for _ in range(120):
        x = _random_element(rng)
        y = _random_element(rng)
        z = _random_element(rng)
        assert (x * y) * z == x * (y * z)
    for _ in range(120):
        ka = _key([(rng.randrange(8), 1)], rng.randrange(16))
        kb = _key([(rng.randrange(8), 1)], rng.randrange(16))
        x = SymTensorElement({ka: 1})
        y = SymTensorElement({kb: 1})
        sign = (-1) ** (ka[1].bit_count() * kb[1].bit_count())
        assert x * y == sign * (y * x)


def test_ad_action_examples():
    f_sym = sym_gen(lie.F)
    assert ad_action(gvec(lie.E), f_sym) == from_gvector(lie.H_VEC)
    assert ad_action(gvec(lie.E), f_sym * f_sym) == 2 * (from_gvector(lie.H_VEC) * f_sym)
    e1e2 = ext_gen(lie.E1) * ext_gen(lie.E2)
    assert ad_action(gvec(lie.H1), e1e2) == e1e2


def test_ad_action_is_derivation():
    rng = random.Random(5)
    for _ in range(60):
        z = gvec(rng.choice(lie.K_INDICES))
        x = _random_element(rng)
        y = _random_element(rng)
        lhs = ad_action(z, x * y)
        rhs = ad_action(z, x) * y + x * ad_action(z, y)
        assert lhs == rhs


def test_ad_action_is_a_representation():
    rng = random.Random(9)
    samples = [_random_element(rng) for _ in range(5)]
    for i in lie.K_INDICES:
        for j in lie.K_INDICES:
            z, w = gvec(i), gvec(j)
            zw = lie.bracket(z, w)
            for x in samples:
                lhs = ad_action(zw, x)
                rhs = ad_action(z, ad_action(w, x)) - ad_action(w, ad_action(z, x))
                assert lhs == rhs


def test_ad_action_rejects_p_on_exterior_leg():
    with pytest.raises(ValueError):
        ad_action(gvec(lie.E1), ext_gen(lie.F1))


def test_keys_are_weight_vectors():
    rng = random.Random(13)
    for _ in range(80):
        x = _random_element(rng)
        for key, coeff in x.coeffs.items():
            mono = SymTensorElement({key: coeff})
            w = key_weight(key)
            assert type(w.h1) is int and type(w.h2) is int
            assert ad_action(gvec(lie.H1), mono) == w.h1 * mono
            assert ad_action(gvec(lie.H2), mono) == w.h2 * mono


def test_named_invariants_structure():
    gens = named_invariants()
    assert gens.g == ext_gen(lie.E1) * ext_gen(lie.F1) + ext_gen(lie.E2) * ext_gen(lie.F2)
    assert gens.e == sym_gen(lie.F1) * ext_gen(lie.E1) + sym_gen(lie.F2) * ext_gen(lie.E2)
    degrees = {name: x.degree() for name, x in gens.as_dict().items()}
    assert degrees == {
        "a": 1, "b": 2, "c": 2, "d": 3, "e": 2,
        "f": 2, "g": 2, "h": 3, "i": 3, "j": 3,
    }


def test_named_invariants_are_invariant():
    gens = named_invariants()
    for name, x in gens.as_dict().items():
        for gi in lie.K_INDICES:
            assert ad_action(gvec(gi), x).is_zero(), (name, lie.BASIS_NAMES[gi])


# Total degrees of the sixteen products, typed in from the paper.
_T_DEGREES = {
    "1": 0, "e": 2, "f": 2, "g": 2, "h": 3, "i": 3, "j": 3,
    "ef": 4, "eg": 4, "fg": 4, "g^2": 4,
    "ei": 5, "ej": 5, "fh": 5, "fi": 5, "fj": 5,
}


def test_t_products_has_sixteen_members():
    gens = named_invariants()
    products = gens.t_products()
    assert [name for name, _ in products] == list(symext.T_ORDER)
    assert len(products) == 16
    for name, x in products:
        got = x.degree() if not x.is_zero() else 0
        assert got == _T_DEGREES[name]


def test_s_monomial_degrees():
    gens = named_invariants()
    assert gens.s_monomial(0, 0, 0, 0) == one()
    assert gens.s_monomial(2, 1, 0, 1).degree() == 2 + 2 + 3
