"""Clifford rewriting in C(p) for the trace form, on basis blades.

Basis blades are bit masks over (E1, E2, F1, F2) in that order, and the
defining relation is

    v w + w v = -2 B(v, w)          for v, w in p,

so the isotropic basis vectors square to zero and E_i F_i + F_i E_i = -2.
The sign in the relation is the one convention in this package not forced
by linear algebra alone; it is pinned by the requirement that the
Chevalley image of E1^F1 + E2^F2 exceed the corresponding blade by +2,
which the identity suites and a dedicated test check explicitly.

The module holds no element class: every routine maps masks to
``((mask, coefficient), ...)``, and an element of C(p) is a
``dirac.UCElement`` whose keys all carry the unit PBW monomial.  The
action map ``dirac.alpha`` of k on p is built from these products.

The pairings B(v, w) of the basis are integers and the insertion cache
starts from the integer 1, so Clifford products stay in ``int``
arithmetic; the 1/n of each step of the Chevalley recursion is the only
division here, and a coefficient is a ``Fraction`` only when it is not
integral.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import lie
from .linalg import add_terms, exact

# Pairing of the p basis under the trace form, indexed by mask bits.
_BP = tuple(
    tuple(lie.FORM_TABLE[lie.E1 + i][lie.E1 + j] for j in range(4))
    for i in range(4)
)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


@lru_cache(maxsize=None)
def _cliff_insert(g: int, mask: int) -> tuple:
    """v_g times the blade of ``mask``, as ((mask, coefficient), ...)."""
    if mask == 0:
        return ((1 << g, 1),)
    h = _lowest_bit(mask)
    if g < h:
        return ((mask | (1 << g), 1),)
    rest = mask ^ (1 << h)
    if g == h:
        b = _BP[g][g]
        return ((rest, -b),) if b else ()
    # v_g v_h rest = -v_h (v_g rest) - 2 B(g,h) rest
    acc = {}
    for m1, c1 in _cliff_insert(g, rest):
        add_terms(acc, _cliff_insert(h, m1), -c1)
    add_terms(acc, ((rest, _BP[g][h]),), -2)
    return tuple(acc.items())


def _word_product(word, items: dict) -> dict:
    """v_word[0] ... v_word[-1] times the element {mask: coefficient}."""
    for g in reversed(word):
        acc = {}
        for mask, c in items.items():
            add_terms(acc, _cliff_insert(g, mask), c)
        items = acc
    return items


@lru_cache(maxsize=None)
def clifford_product_items(m1: int, m2: int) -> tuple:
    bits = [k for k in range(4) if m1 >> k & 1]
    return tuple(_word_product(bits, {m2: 1}).items())


@lru_cache(maxsize=None)
def chevalley_items(mask: int) -> tuple:
    """Alternating average of all orderings of the blade's letters, as
    ((mask, coefficient), ...), by the first-letter recursion

        tau(m) = (1/n) * sum_k (-1)^pos(k) v_k tau(m without k)

    over the n letters k of m, pos(k) being the place of k among them.
    """
    if mask == 0:
        return ((0, 1),)
    bits = [k for k in range(4) if mask >> k & 1]
    acc = {}
    for pos, k in enumerate(bits):
        sign = -1 if pos & 1 else 1
        for m, c in chevalley_items(mask ^ (1 << k)):
            add_terms(acc, _cliff_insert(k, m), sign * c)
    return tuple((m, exact(Fraction(c, len(bits)))) for m, c in acc.items())
