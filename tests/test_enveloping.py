"""PBW arithmetic, symmetrization against the factorial oracle, and the
two central elements."""

import random
from fractions import Fraction
from itertools import permutations

from su21_invariants import enveloping as env
from su21_invariants import lie, symext
from su21_invariants.dirac import (
    UCElement,
    casimir_omega,
    cubic_element,
    sigma_tau,
    u_gen,
    u_vec,
    uc_one,
)


def _exps(*pairs):
    out = [0] * 8
    for i, e in pairs:
        out[i] = e
    return tuple(out)


def _u(terms):
    """The element of U(g) with the given {exponents: coefficient}."""
    return UCElement({(exps, 0): v for exps, v in terms.items()})


def _commutator(x, y):
    return x * y - y * x


def test_straightening_examples():
    fe = u_gen(lie.F) * u_gen(lie.E)
    assert fe == _u(
        {_exps((lie.E, 1), (lie.F, 1)): 1, _exps((lie.H1, 1)): -1, _exps((lie.H2, 1)): 1}
    )
    h1h2 = u_gen(lie.H1) * u_gen(lie.H2)
    assert h1h2 == _u({_exps((lie.H1, 1), (lie.H2, 1)): 1})
    f1e1 = u_gen(lie.F1) * u_gen(lie.E1)
    assert f1e1 == _u(
        {
            _exps((lie.E1, 1), (lie.F1, 1)): 1,
            _exps((lie.H1, 1)): -2,
            _exps((lie.H2, 1)): -1,
        }
    )


def test_commutator_examples():
    assert _commutator(u_gen(lie.E), u_gen(lie.F)) == u_vec(lie.H_VEC)
    assert _commutator(u_gen(lie.H1), u_gen(lie.H2)).is_zero()
    assert _commutator(casimir_omega(), u_gen(lie.E1)).is_zero()


def _random_monomial(rng, max_deg):
    exps = [0] * 8
    for _ in range(rng.randint(0, max_deg)):
        exps[rng.randrange(8)] += 1
    return tuple(exps)


def _random_element(rng, max_deg=4, terms=2):
    out = {}
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coeff:
            out[_random_monomial(rng, max_deg)] = coeff
    return _u(out)


def test_associativity_on_random_triples():
    rng = random.Random(17)
    for _ in range(110):
        x = _random_element(rng)
        y = _random_element(rng)
        z = _random_element(rng)
        assert (x * y) * z == x * (y * z)


def test_filtration_degree_of_products():
    rng = random.Random(19)
    for _ in range(80):
        x = _random_element(rng)
        y = _random_element(rng)
        if x.is_zero() or y.is_zero():
            continue
        dx, dy = x.degree(), y.degree()
        assert (x * y).degree() == dx + dy


def _word_of(exps):
    word = []
    for i, e in enumerate(exps):
        word.extend([i] * e)
    return tuple(word)


def _symmetrize(exps):
    """Symmetrization of one monomial: sigma x tau of the key (exps, empty
    blade)."""
    return sigma_tau(symext.SymTensorElement({(tuple(exps), 0): 1}))


def _factorial_symmetrize(exps):
    """The literal average over all orderings; independent of the module's
    last-letter recursion."""
    word = _word_of(exps)
    if not word:
        return uc_one()
    acc = UCElement()
    count = 0
    for perm in permutations(word):
        prod = uc_one()
        for g in perm:
            prod = prod * u_gen(g)
        acc = acc + prod
        count += 1
    return Fraction(1, count) * acc


def test_symmetrize_examples():
    h1_cubed = _exps((lie.H1, 3))
    assert _symmetrize(h1_cubed) == _u({h1_cubed: 1})
    ef = _exps((lie.E, 1), (lie.F, 1))
    assert _symmetrize(ef) == _u(
        {ef: 1, _exps((lie.H1, 1)): Fraction(-1, 2), _exps((lie.H2, 1)): Fraction(1, 2)}
    )


def test_symmetrize_matches_factorial_oracle():
    rng = random.Random(23)
    seen = set()
    # every monomial of degree <= 3, plus a sample in degree 4
    def all_monomials(deg):
        if deg == 0:
            yield (0,) * 8
            return
        for sub in all_monomials(deg - 1):
            for i in range(8):
                out = list(sub)
                out[i] += 1
                yield tuple(out)

    for deg in range(4):
        for exps in all_monomials(deg):
            if exps in seen:
                continue
            seen.add(exps)
            assert _symmetrize(exps) == _factorial_symmetrize(exps), exps
    for _ in range(15):
        exps = [0] * 8
        for _ in range(4):
            exps[rng.randrange(8)] += 1
        exps = tuple(exps)
        if exps not in seen:
            seen.add(exps)
            assert _symmetrize(exps) == _factorial_symmetrize(exps), exps


def test_symmetrize_is_equivariant():
    rng = random.Random(29)
    for _ in range(40):
        exps = _random_monomial(rng, 4)
        mono = symext.SymTensorElement({(exps, 0): 1})
        for gi in lie.K_INDICES:
            z = lie.gvec(gi)
            image = symext.ad_action(z, mono)
            lhs = UCElement()
            for (k, _mask), v in image.coeffs.items():
                lhs = lhs + v * _symmetrize(k)
            rhs = _commutator(u_vec(z), _symmetrize(exps))
            assert lhs == rhs, (exps, lie.BASIS_NAMES[gi])


def test_symmetrize_leading_term():
    rng = random.Random(31)
    for _ in range(40):
        exps = _random_monomial(rng, 5)
        deg = sum(exps)
        diff = _symmetrize(exps) - _u({exps: 1})
        assert diff.is_zero() or diff.degree() < deg


def test_casimir_is_central():
    omega = casimir_omega()
    for gi in range(8):
        assert _commutator(omega, u_gen(gi)).is_zero()


def test_cubic_element_is_central():
    cub = cubic_element()
    assert cub.degree() == 3
    for gi in range(8):
        assert _commutator(cub, u_gen(gi)).is_zero()


ZERO = (0,) * 8


def _inc(exps, i):
    out = list(exps)
    out[i] += 1
    return tuple(out)


def _dec(exps, i):
    out = list(exps)
    out[i] -= 1
    return tuple(out)


def _add_into(out, items, scale):
    for key, v in items.items():
        w = out.get(key, 0) + scale * v
        if w:
            out[key] = w
        else:
            del out[key]


def _ref_first_letter(exps):
    for i, e in enumerate(exps):
        if e:
            return i
    return None


def _ref_insert(g, exps, memo):
    """z_g times a normal monomial by insertion from the left: the reference
    straightening, kept here to pin the module's right insertion."""
    got = memo.get((g, exps))
    if got is not None:
        return got
    h = _ref_first_letter(exps)
    if h is None or g <= h:
        out = {_inc(exps, g): 1}
    else:
        rest = _dec(exps, h)
        out = {}
        # z_g z_h rest = z_h (z_g rest) + [z_g, z_h] rest
        for k1, c1 in _ref_insert(g, rest, memo).items():
            _add_into(out, _ref_insert(h, k1, memo), c1)
        for comp, u in lie.BRACKET_TABLE[g][h].coeffs.items():
            _add_into(out, _ref_insert(comp, rest, memo), u)
    memo[(g, exps)] = out
    return out


def _ref_pbw_product(k1, k2, memo):
    items = {k2: 1}
    for g in reversed(_word_of(k1)):
        acc = {}
        for key, c in items.items():
            _add_into(acc, _ref_insert(g, key, memo), c)
        items = acc
    return items


def _monomials_up_to(deg):
    out = [ZERO]
    frontier = [ZERO]
    for _ in range(deg):
        frontier = sorted({_inc(m, i) for m in frontier for i in range(8)})
        out.extend(frontier)
    return out


def test_pbw_product_matches_left_insertion_on_all_low_degree_pairs():
    monos = _monomials_up_to(2)
    assert len(monos) ** 2 == 2025
    memo = {}
    for k1 in monos:
        for k2 in monos:
            assert dict(env.pbw_product_items(k1, k2)) == _ref_pbw_product(
                k1, k2, memo
            ), (k1, k2)


def test_pbw_product_matches_left_insertion_on_random_pairs():
    rng = random.Random(41)
    memo = {}
    for _ in range(200):
        k1 = _random_monomial(rng, 5)
        k2 = _random_monomial(rng, 5)
        assert dict(env.pbw_product_items(k1, k2)) == _ref_pbw_product(
            k1, k2, memo
        ), (k1, k2)
