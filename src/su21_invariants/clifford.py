"""The Clifford algebra of p for the trace form.

Basis blades are bit masks over (E1, E2, F1, F2) in that order, and the
defining relation is

    v w + w v = -2 B(v, w)          for v, w in p,

so the isotropic basis vectors square to zero and E_i F_i + F_i E_i = -2.
The sign in the relation is the one convention in this package not forced
by linear algebra alone; it is pinned by the requirement that the
Chevalley image of E1^F1 + E2^F2 exceed the corresponding blade by +2,
which the identity suites and a dedicated test check explicitly.

The action map of k on p lands in C(p) in closed form,

    alpha(z) = -1/4 sum_i [z, b_i] d_i

over trace-form-dual bases (b_i, d_i) of p (Huang and Pandzic, Dirac
Operators in Representation Theory, 2.3); no linear system is solved.

The pairings B(v, w) of the basis are integers and the insertion cache
starts from the integer 1, so Clifford products stay in ``int``
arithmetic; the 1/n! of the Chevalley map and the -1/4 of alpha are the
only divisions, and a coefficient is a ``Fraction`` only when it is not
integral.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from . import lie
from .lie import GVector
from .linalg import SparseElement, add_terms

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


class CElement(SparseElement):
    """Element of C(p): {blade mask: coefficient}."""

    __slots__ = ()
    UNIT = 0
    key_degree = staticmethod(int.bit_count)

    def _product(self, other) -> dict:
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                add_terms(out, clifford_product_items(ma, mb), ca * cb)
        return out

    def __repr__(self):
        from . import expr

        return "CElement(%s)" % expr.format_c(self)


c_scalar = CElement.scalar


def c_one() -> CElement:
    return c_scalar(1)


def c_gen(i: int) -> CElement:
    if i not in lie.P_SET:
        raise ValueError("Clifford generators come from p")
    return CElement({1 << (i - lie.E1): 1})


def from_p_gvector(v: GVector) -> CElement:
    out = {}
    for i, c in v.coeffs.items():
        if i not in lie.P_SET:
            raise ValueError("vector is not in p")
        out[1 << (i - lie.E1)] = c
    return CElement(out)


def _perm_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


@lru_cache(maxsize=None)
def chevalley_mask(mask: int) -> CElement:
    """Alternating average of all orderings of the blade's letters."""
    bits = [k for k in range(4) if mask >> k & 1]
    n = len(bits)
    if n <= 1:
        return CElement({mask: 1})
    acc = {}
    for perm in permutations(bits):
        add_terms(acc, _word_product(perm, {0: 1}).items(), _perm_sign(perm))
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    inv = Fraction(1, fact)
    return CElement({m: inv * c for m, c in acc.items()})


@lru_cache(maxsize=None)
def _alpha_of_basis(zi: int) -> CElement:
    z = lie.gvec(zi)
    out = CElement()
    for b, d in lie.P_DUAL_PAIRS:
        out = out + from_p_gvector(lie.bracket(z, lie.gvec(b))) * c_gen(d)
    return Fraction(-1, 4) * out


def alpha(z: GVector) -> CElement:
    """The action map k -> C(p): alpha(z) = -1/4 sum_i [z, b_i] d_i.

    The sum runs over the trace-form-dual bases (b_i, d_i) of p in
    ``lie.P_DUAL_PAIRS``.  It is the closed form of the composite
    k -> so(p) -> C(p) for the relation v w + w v = -2 B(v, w)
    (Huang and Pandzic, Dirac Operators in Representation Theory, 2.3),
    and it satisfies [alpha(z), v] = [z, v] for every v in p.
    """
    out = CElement()
    for i, c in z.coeffs.items():
        if i not in lie.K_SET:
            raise ValueError("alpha is defined on k only")
        out = out + c * _alpha_of_basis(i)
    return out
