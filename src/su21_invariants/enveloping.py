"""Poincare-Birkhoff-Witt rewriting in U(sl3), on basis monomials.

A basis monomial is the ordered product
H1^a H2^b E^c F^d E1^e E2^f F1^g F2^h, stored as its exponent vector.
Products are straightened from the right: the letters of the right
factor are appended to the left factor one at a time, and appending z_g
to a monomial whose last letter z_h sits after it in the basis order
rewrites

    rest z_h z_g = (rest z_g) z_h + rest [z_h, z_g].

The work then grows with the length of the right factor.  That suits
the lifted product basis, where 90% of the distinct products up to
filtration 10 have the shorter right factor (a monomial times a letter
or a generator), but not the ideal slice, where a third of the distinct
products (u D) v at bound 7 have the longer one; ROADMAP records the
counts.  The insertion routine is memoized on (generator, monomial), so
repeated products share all intermediate straightening work.

Symmetrization (``symmetrize_items``, the left leg of ``dirac.sigma_tau``)
sends a commutative monomial to the average over all orderings of its
letters.  It is computed by the last-letter recursion

    sigma(m) = (1/deg m) * sum_i  mult_i(m) * sigma(m / z_i) * z_i

which telescopes to the factorial-average definition; the tests pin it
against the literal brute-force sum in low degree.

The module holds no element class: every routine maps keys to
``((exponents, coefficient), ...)``, and an element of U(g) is a
``dirac.UCElement`` whose keys all carry the unit blade.

Coefficients follow the policy of ``linalg.exact``: an ``int`` whenever
the value is integral, a ``Fraction`` otherwise.  The structure constants
are integers and the insertion cache starts from the integer 1, so
products of integral elements never touch ``Fraction``; one enters only
with the 1/deg m of symmetrization or a rational scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import lie
from .linalg import add_terms


def _inc(exps, i):
    out = list(exps)
    out[i] += 1
    return tuple(out)


def _dec(exps, i):
    out = list(exps)
    out[i] -= 1
    return tuple(out)


def _last_letter(exps):
    for i in range(7, -1, -1):
        if exps[i]:
            return i
    return None


@lru_cache(maxsize=None)
def _insert(g: int, exps) -> tuple:
    """The normal monomial times z_g, as ((exponents, coefficient), ...)."""
    h = _last_letter(exps)
    if h is None or h <= g:
        return ((_inc(exps, g), 1),)
    rest = _dec(exps, h)
    acc = {}
    # rest z_h z_g = (rest z_g) z_h + rest [z_h, z_g]
    for k1, c1 in _insert(g, rest):
        add_terms(acc, _insert(h, k1), c1)
    for comp, u in lie.BRACKET_TABLE[h][g].coeffs.items():
        add_terms(acc, _insert(comp, rest), u)
    return tuple(acc.items())


@lru_cache(maxsize=None)
def pbw_product_items(k1, k2) -> tuple:
    """Normal form of the product of two basis monomials."""
    items = {k1: 1}
    for g, e in enumerate(k2):
        for _ in range(e):
            acc = {}
            for key, c in items.items():
                add_terms(acc, _insert(g, key), c)
            items = acc
    return tuple(items.items())


@lru_cache(maxsize=None)
def symmetrize_items(exps) -> tuple:
    n = sum(exps)
    if n == 0:
        return ((lie.ZERO_EXPS, 1),)
    acc = {}
    for i, e in enumerate(exps):
        if not e:
            continue
        q = Fraction(e, n)
        for key, c in symmetrize_items(_dec(exps, i)):
            add_terms(acc, _insert(i, key), q * c)
    return tuple(acc.items())
