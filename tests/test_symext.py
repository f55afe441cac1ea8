"""Products, the k-action and the ten invariants of S(g) (x) Lambda(p)."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from su21_invariants import invariants as inv
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


def _keys_up_to(d):
    """Every key of total degree <= d."""
    out = []
    for mask in range(16):
        for s in range(d - mask.bit_count() + 1):
            for letters in combinations_with_replacement(range(lie.DIM), s):
                out.append((tuple(letters.count(i) for i in range(lie.DIM)), mask))
    return out


def test_ad_action_is_a_derivation_on_every_pair_of_low_keys():
    keys = _keys_up_to(3)
    assert len(keys) == 403
    degree = SymTensorElement.key_degree
    monomial = {key: SymTensorElement({key: 1}) for key in keys}
    cases = 0
    for i in lie.K_INDICES:
        z = gvec(i)
        image = {key: ad_action(z, x) for key, x in monomial.items()}
        for kx, x in monomial.items():
            for ky, y in monomial.items():
                if degree(kx) + degree(ky) <= 3:
                    lhs = ad_action(z, x * y)
                    assert lhs == image[kx] * y + x * image[ky], (i, kx, ky)
                    cases += 1
    assert cases == 10900


@pytest.mark.parametrize("i", [lie.E, lie.F], ids=["E", "F"])
def test_root_vector_terms_have_distinct_keys(i):
    """The slice tables and the a-free kernel rows take each term of a
    key's image as its own entry, so for E and F no two may share a key."""
    z = gvec(i)
    for n in range(9):
        keys = inv.graded_keys(n, lie.Weight(0, 0))
        for key, terms in zip(keys, symext.ad_images(z, keys)):
            targets = [t for t, u in terms if u]
            assert len(set(targets)) == len(targets) == len(terms), key


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
    with pytest.raises(ValueError) as single:
        ad_action(gvec(lie.E1), ext_gen(lie.F1))
    # The per-key images raise the same error on the same key.
    (key,) = ext_gen(lie.F1).coeffs
    with pytest.raises(ValueError) as bulk:
        list(symext.ad_images(gvec(lie.E1), [key]))
    assert str(bulk.value) == str(single.value)


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


def test_product_family_degrees_match_the_labels():
    family = named_invariants().product_family(0, 8)
    members = {label: (x, deg) for label, x, deg in family}
    assert len(members) == len(family)
    assert members["a^0 b^0 c^0 d^0 * 1"] == (one(), 0)
    assert members["a^2 b^1 c^0 d^1 * 1"][0].degree() == 2 + 2 + 3
    for label, (x, deg) in members.items():
        powers, tname = label.split(" * ")
        n1, n2, n3, n4 = (int(p.split("^")[1]) for p in powers.split())
        want = n1 + 2 * n2 + 2 * n3 + 3 * n4 + _T_DEGREES[tname]
        assert x.degree() == deg == want


# Reference k-action and product, written from the definitions: replace one
# letter at a time by its bracket (read from lie.BRACKET_TABLE), and sort
# wedge words by adjacent transpositions, one sign flip per swap.

def _word(mask):
    return [lie.E1 + k for k in range(4) if mask >> k & 1]


def _sorted_wedge(letters):
    """(sign, mask) of the wedge of the letters in order; sign 0 on a repeat."""
    word = list(letters)
    if len(set(word)) < len(word):
        return 0, 0
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for pos in range(end):
            if word[pos] > word[pos + 1]:
                word[pos], word[pos + 1] = word[pos + 1], word[pos]
                sign = -sign
    return sign, sum(1 << (i - lie.E1) for i in word)


def _bracket_items(z, i):
    """The coefficients u_j of [z, x_i] = sum_j u_j x_j."""
    out = {}
    for zi, zc in z.coeffs.items():
        for j, u in lie.BRACKET_TABLE[zi][i].coeffs.items():
            out[j] = out.get(j, 0) + Fraction(zc) * u
    return out


def _reference_ad(z, x):
    out = {}
    for (exps, mask), q in x.coeffs.items():
        for i, e in enumerate(exps):
            for j, u in _bracket_items(z, i).items():
                if e:
                    new = list(exps)
                    new[i] -= 1
                    new[j] += 1
                    key = (tuple(new), mask)
                    out[key] = out.get(key, 0) + q * e * u
        word = _word(mask)
        for pos, letter in enumerate(word):
            for j, u in _bracket_items(z, letter).items():
                assert j in lie.P_SET
                sign, new_mask = _sorted_wedge(word[:pos] + [j] + word[pos + 1:])
                if sign:
                    key = (exps, new_mask)
                    out[key] = out.get(key, 0) + sign * q * u
    return {k: v for k, v in out.items() if v}


def _reference_product(x, y):
    out = {}
    for (ea, ma), ca in x.coeffs.items():
        for (eb, mb), cb in y.coeffs.items():
            sign, mask = _sorted_wedge(_word(ma) + _word(mb))
            if sign:
                key = (tuple(a + b for a, b in zip(ea, eb)), mask)
                out[key] = out.get(key, 0) + sign * ca * cb
    return {k: v for k, v in out.items() if v}


def _draw_element(rng, mask):
    """A random element whose first term carries the given mask; the other
    terms carry random masks, or none when mask is 0; total degree <= 6."""
    terms = {}
    for t in range(rng.randint(1, 4)):
        m = mask if t == 0 or not mask else rng.randrange(16)
        exps = [0] * 8
        for _ in range(rng.randint(0, max(0, 6 - m.bit_count()))):
            exps[rng.randrange(8)] += 1
        numerator = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        terms[(tuple(exps), m)] = Fraction(numerator, rng.choice((1, 1, 2, 3)))
    return SymTensorElement(terms)


def _draw_z(rng, indices):
    coeffs = {}
    for i in rng.sample(indices, rng.randint(1, len(indices))):
        coeffs[i] = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    return lie.GVector(coeffs)


def _draws():
    """Seeded random elements of degree <= 6, six for each exterior mask."""
    rng = random.Random(17)
    return [(mask, _draw_element(rng, mask)) for mask in range(16) for _ in range(6)]


def _assert_exact_dict(got, want):
    assert got == want
    for v in got.values():
        assert type(v) is int or v.denominator != 1, v


def test_ad_action_matches_letter_replacement():
    rng = random.Random(18)
    basis = [gvec(i) for i in range(lie.DIM)]
    k_basis = [gvec(i) for i in lie.K_INDICES]
    for mask, x in _draws():
        zs = k_basis + [_draw_z(rng, list(lie.K_INDICES)) for _ in range(3)]
        if not mask:
            # Only the symmetric leg is present, so all of g may act.
            zs += basis + [_draw_z(rng, list(range(lie.DIM))) for _ in range(3)]
        for z in zs:
            _assert_exact_dict(ad_action(z, x).coeffs, _reference_ad(z, x))


def test_product_matches_wedge_sorting():
    xs = [x for _, x in _draws()]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        _assert_exact_dict((x * y).coeffs, _reference_product(x, y))
        _assert_exact_dict((x * x).coeffs, _reference_product(x, x))


def test_ad_action_rejects_p_in_a_later_term():
    # The first term has no exterior letter; only the second holds F1,
    # and [E1, F1] lies in k.
    x = SymTensorElement({_key([(lie.E, 2)]): 1, _key([(lie.H1, 1)], 0b0100): 3})
    assert list(x.coeffs)[1][1] == 0b0100
    with pytest.raises(ValueError):
        ad_action(gvec(lie.E1), x)
    with pytest.raises(ValueError):
        ad_action(gvec(lie.E) + gvec(lie.E1), x)
