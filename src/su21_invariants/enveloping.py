"""U(sl3) in Poincare-Birkhoff-Witt normal form.

A basis monomial is the ordered product
H1^a H2^b E^c F^d E1^e E2^f F1^g F2^h, stored as its exponent vector.
Products are straightened by inserting one generator at a time from the
left, rewriting  z x -> x z + [z, x]  whenever z sits after x in the
basis order.  The insertion routine is memoized on (generator, monomial),
so repeated products share all intermediate straightening work.

Symmetrization sends a commutative monomial to the average over all
orderings of its letters.  It is computed by the first-letter recursion

    sigma(m) = (1/deg m) * sum_i  mult_i(m) * z_i * sigma(m / z_i)

which telescopes to the factorial-average definition; the tests pin it
against the literal brute-force sum in low degree.

Coefficients follow the policy of ``linalg.exact``: an ``int`` whenever
the value is integral, a ``Fraction`` otherwise.  The structure constants
are integers and the insertion cache starts from the integer 1, so
products of integral elements never touch ``Fraction``; one enters only
with the 1/deg m of symmetrization or a rational scalar.

The Casimir element comes from dual bases of the trace form, the cubic
central element from a, b, c, d in U(g) (``symext.polynomial_invariants``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import lie, symext
from .lie import GVector
from .linalg import SparseElement, add_terms

ZERO_EXPS = (0,) * 8


def _inc(exps, i):
    out = list(exps)
    out[i] += 1
    return tuple(out)


def _dec(exps, i):
    out = list(exps)
    out[i] -= 1
    return tuple(out)


def _first_letter(exps):
    for i, e in enumerate(exps):
        if e:
            return i
    return None


@lru_cache(maxsize=None)
def _insert(g: int, exps) -> tuple:
    """z_g times the normal monomial, as ((exponents, coefficient), ...)."""
    h = _first_letter(exps)
    if h is None or g <= h:
        return ((_inc(exps, g), 1),)
    rest = _dec(exps, h)
    acc = {}
    # z_g z_h rest = z_h (z_g rest) + [z_g, z_h] rest
    for k1, c1 in _insert(g, rest):
        add_terms(acc, _insert(h, k1), c1)
    for comp, u in lie.BRACKET_TABLE[g][h].coeffs.items():
        add_terms(acc, _insert(comp, rest), u)
    return tuple(acc.items())


@lru_cache(maxsize=None)
def pbw_product_items(k1, k2) -> tuple:
    """Normal form of the product of two basis monomials."""
    items = {k2: 1}
    word = []
    for i, e in enumerate(k1):
        word.extend([i] * e)
    for g in reversed(word):
        acc = {}
        for key, c in items.items():
            add_terms(acc, _insert(g, key), c)
        items = acc
    return tuple(items.items())


class UElement(SparseElement):
    """Element of U(sl3): {PBW exponent vector: coefficient}."""

    __slots__ = ()
    UNIT = ZERO_EXPS
    key_degree = staticmethod(sum)

    def _product(self, other) -> dict:
        out = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                add_terms(out, pbw_product_items(ka, kb), ca * cb)
        return out

    def __repr__(self):
        from . import expr

        return "UElement(%s)" % expr.format_u(self)


u_scalar = UElement.scalar


def u_one() -> UElement:
    return u_scalar(1)


def u_gen(i: int) -> UElement:
    return UElement({_inc(ZERO_EXPS, i): 1})


def from_gvector(v: GVector) -> UElement:
    return UElement({_inc(ZERO_EXPS, i): c for i, c in v.coeffs.items()})


def u_commutator(x: UElement, y: UElement) -> UElement:
    return x * y - y * x


@lru_cache(maxsize=None)
def _symmetrize_items(exps) -> tuple:
    n = sum(exps)
    if n == 0:
        return ((ZERO_EXPS, 1),)
    acc = {}
    for i, e in enumerate(exps):
        if not e:
            continue
        q = Fraction(e, n)
        for key, c in _symmetrize_items(_dec(exps, i)):
            add_terms(acc, _insert(i, key), q * c)
    return tuple(acc.items())


@lru_cache(maxsize=None)
def casimir_omega() -> UElement:
    """The degree-two central element built from trace-form dual bases."""
    uh = from_gvector(lie.H_VEC)
    ua = from_gvector(lie.A_VEC)
    ue, uf = u_gen(lie.E), u_gen(lie.F)
    ue1, ue2 = u_gen(lie.E1), u_gen(lie.E2)
    uf1, uf2 = u_gen(lie.F1), u_gen(lie.F2)
    return (
        Fraction(1, 2) * (uh * uh)
        + Fraction(3, 2) * (ua * ua)
        + ue * uf
        + uf * ue
        + ue1 * uf1
        + ue2 * uf2
        + uf1 * ue1
        + uf2 * ue2
    )


@lru_cache(maxsize=None)
def cubic_element() -> UElement:
    """The degree-three central element, expressed through a, b, c, d lifts."""
    ua, ub, uc, ud = symext.polynomial_invariants(u_gen)
    return (
        Fraction(-3, 2) * ua ** 3
        + Fraction(3, 2) * (ua * ub)
        - 3 * (ua * uc)
        + Fraction(9, 2) * (ua * ua)
        - 3 * ua
        + 3 * ud
        - Fraction(3, 2) * ub
    )
