"""The commutative model: S(g) tensor Lambda(p) with its k-action.

Keys of an element are pairs (exponent vector, exterior mask): the vector
has one slot per basis element of g, and the mask packs a subset of
{E1, E2, F1, F2} as four bits in that order.  Wedge signs are always
normalized to increasing mask order; total degree is symmetric degree
plus exterior degree.  The adjoint action of k extends the bracket as a
derivation on both tensor legs: each letter x_i of a key is replaced by
its bracket [z, x_i], the diagonal part included, which gives the key
back.  It is defined for z in k only: K is connected, so K-invariance
is k-invariance.  It reads one pair of letter tables per basis letter of
k, built from ``lie.BRACKET_TABLE`` on first use: the moves of each
symmetric letter and, per exterior mask, the signed new masks.  One
per-key routine (``_key_terms``) turns them into the terms of ad(x_g) on
one key; ``ad_action`` adds these up over an element and the letters of
z, and ``ad_images`` hands them out per key, for callers that apply one
letter to many elements on the same keys.

U(g) (x) C(p) (``dirac``) keys its elements the same way, so both share
one body, ``TensorElement``, and define only their products: it holds the
unit, one ``KEYS`` intern table, powers and the letters of g and p;
``key_degree`` and ``format_tensor``, the printer behind every residual
and ``repr``, read the keys of both.

Coefficients are exact (``linalg.exact``): an ``int`` whenever the value
is integral, a ``Fraction`` otherwise, never a float.  Every weight,
structure constant and coefficient of the invariants a..j is an integer,
so products and the k-action stay in integer arithmetic; a ``Fraction``
enters only with a real division, such as an echelon-normalized kernel
vector or a scalar like 1/2.

The invariants a..j are written once, for both algebras, in the letters
of a ``TensorElement`` class (``InvariantGenerators.from_letters``):
``SymTensorElement`` gives them here, ``dirac.UCElement`` their lifts.
The bundle also enumerates the product family a^n1 b^n2 c^n3 d^n4 * t
over the sixteen module generators t.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add
from typing import NamedTuple

from . import lie
from .lie import E, E1, E2, F, F1, F2, ZERO_EXPS, GVector, Weight
from .linalg import SparseElement


def ext_bit(index: int) -> int:
    """Exterior mask bit of a p basis index."""
    return index - lie.E1


def _merge_sign(ma: int, mb: int) -> int:
    """Sign merging two disjoint sorted wedge words; 0 when they overlap."""
    if ma & mb:
        return 0
    inversions = 0
    for y in range(4):
        if mb >> y & 1:
            inversions += (ma >> (y + 1)).bit_count()
    return -1 if inversions & 1 else 1


# _MERGE_SIGNS[ma][mb] is _merge_sign(ma, mb), for all 256 pairs of masks.
_MERGE_SIGNS = tuple(
    tuple(_merge_sign(ma, mb) for mb in range(16)) for ma in range(16)
)


def _exps_str(exps) -> str | None:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(lie.BASIS_NAMES[i])
        elif e:
            parts.append("%s^%d" % (lie.BASIS_NAMES[i], e))
    return "*".join(parts) if parts else None


def _mask_str(mask, sep) -> str | None:
    names = [lie.BASIS_NAMES[lie.E1 + k] for k in range(4) if mask >> k & 1]
    return sep.join(names) if names else None


def _join_terms(terms) -> str:
    if not terms:
        return "0"
    out = []
    for i, (q, body) in enumerate(terms):
        mag = abs(q)
        if body is None:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if i == 0:
            out.append("-" + text if q < 0 else text)
        else:
            out.append((" - " if q < 0 else " + ") + text)
    return "".join(out)


def key_degree(key) -> int:
    """Total degree of a key: symmetric degree plus exterior degree."""
    exps, mask = key
    return sum(exps) + mask.bit_count()


def format_tensor(x) -> str:
    """Print an element of S(g) (x) Lambda(p) or of U(g) (x) C(p); the
    ``SEP`` of its class joins the letters of the right tensor leg."""
    terms = []
    sep = type(x).SEP
    for key in sorted(x.coeffs, key=lambda k: (key_degree(k), k), reverse=True):
        exps, mask = key
        q = x.coeffs[key]
        left = _exps_str(exps)
        right = _mask_str(mask, sep)
        if right is None:
            terms.append((q, left))
        elif left is None:
            # the magnitude stands in for the empty left leg
            terms.append((1 if q > 0 else -1, "%s (x) %s" % (abs(q), right)))
        else:
            terms.append((q, "%s (x) %s" % (left, right)))
    return _join_terms(terms)


def format_c(x) -> str:
    """Print an element of C(p): a U (x) C element whose keys all carry
    the unit monomial, written as a word in the C-leg alone."""
    terms = []
    for key in sorted(x.coeffs, key=lambda k: (k[1].bit_count(), k), reverse=True):
        terms.append((x.coeffs[key], _mask_str(key[1], type(x).SEP)))
    return _join_terms(terms)


# SYM_KEYS[i] is the key of the letter i of g in the left leg, and
# EXT_KEYS[i] that of the letter i of p in the right leg, in both algebras.
SYM_KEYS = tuple(
    (tuple(int(j == i) for j in range(lie.DIM)), 0) for i in range(lie.DIM)
)
EXT_KEYS = {i: (ZERO_EXPS, 1 << ext_bit(i)) for i in lie.P_INDICES}


class TensorElement(SparseElement):
    """Element of S(g) (x) Lambda(p) or U(g) (x) C(p): {(exponents, mask):
    coefficient}.  A subclass sets ``SEP``, which joins its right-leg
    letters in print, and defines ``_product(other) -> dict``.

    ``KEYS`` keeps one key object per distinct product key, for both
    algebras and for the process: every product builds its keys afresh,
    and the same few thousand keys recur across hundreds of thousands of
    terms.
    """

    __slots__ = ()
    UNIT = (ZERO_EXPS, 0)
    KEYS = {}

    @classmethod
    def scalar(cls, c):
        return cls({cls.UNIT: c})

    @classmethod
    def one(cls):
        return cls.scalar(1)

    @classmethod
    def vector(cls, v: GVector):
        """v in g placed in the left leg."""
        return cls({SYM_KEYS[i]: c for i, c in v.coeffs.items()})

    @classmethod
    def letter(cls, i: int):
        """The basis letter i of g in the left leg."""
        return cls({SYM_KEYS[i]: 1})

    @classmethod
    def p_vector(cls, v: GVector):
        """v in p placed in the right leg; ValueError off p."""
        if not v.coeffs.keys() <= EXT_KEYS.keys():
            raise ValueError("vector is not in p")
        return cls({EXT_KEYS[i]: c for i, c in v.coeffs.items()})

    @classmethod
    def p_letter(cls, i: int):
        """The basis letter i of p in the right leg; ValueError off p."""
        return cls.p_vector(lie.gvec(i))

    def degree(self):
        """Top degree of a key, or None for the zero element."""
        return max(map(key_degree, self.coeffs), default=None)

    def __mul__(self, other):
        if type(other) is type(self):
            return type(self)(self._product(other), TensorElement.KEYS)
        return super().__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return prod([self] * n, start=self.one())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, format_tensor(self))


class SymTensorElement(TensorElement):
    """Element of S(g) (x) Lambda(p)."""

    __slots__ = ()
    SEP = "^^"

    def _product(self, other) -> dict:
        out = {}
        get = out.get
        right = other.coeffs.items()
        for (ea, ma), ca in self.coeffs.items():
            signs = _MERGE_SIGNS[ma]
            for (eb, mb), cb in right:
                sign = signs[mb]
                if not sign:
                    continue
                key = (tuple(map(add, ea, eb)), ma | mb)
                out[key] = get(key, 0) + sign * ca * cb
        return out


scalar = SymTensorElement.scalar
one = SymTensorElement.one
sym_gen = SymTensorElement.letter
ext_gen = SymTensorElement.p_letter
from_gvector = SymTensorElement.vector


def key_weight(key) -> Weight:
    exps, mask = key
    a = b = 0
    for e, w in zip(exps, lie.WEIGHTS):
        a += e * w.h1
        b += e * w.h2
    for k in range(4):
        if mask >> k & 1:
            w = lie.WEIGHTS[lie.E1 + k]
            a += w.h1
            b += w.h2
    return Weight(a, b)


@lru_cache(maxsize=None)
def _letter_tables(g: int) -> tuple:
    """The letter tables of ad(x_g), for the basis letter g of k.

    Returns (sym_moves, mask_moves):

    * sym_moves, the pairs (i, ((j, u), ...)) of the letters i whose
      bracket [x_g, x_i] = sum_j u x_j is not zero; its diagonal part is
      the move onto the same letter, j = i;
    * mask_moves[mask], the pairs (new mask, signed u) that one exterior
      replacement makes, wedge sign included; the diagonal parts of the
      letters in mask add up in the move onto mask itself.

    [k, p] lies in p, so every exterior letter moves within p.  Built on
    first use, not at import, from ``lie.BRACKET_TABLE`` as it is then.
    """
    images = [lie.BRACKET_TABLE[g][i].coeffs for i in range(lie.DIM)]
    sym_moves = tuple((i, tuple(img.items())) for i, img in enumerate(images) if img)
    mask_moves = []
    for mask in range(16):
        moves = {}
        for k in range(4):
            if not mask >> k & 1:
                continue
            # The word is x_k ^ rest up to the sign of merging the two;
            # x_jb ^ rest is the new word up to its own sign, and jb = k
            # gives the word back with sign +1.
            rest = mask ^ (1 << k)
            for j, u in images[lie.E1 + k].items():
                jb = ext_bit(j)
                if not rest >> jb & 1:
                    sign = _MERGE_SIGNS[1 << k][rest] * _MERGE_SIGNS[1 << jb][rest]
                    new = rest | (1 << jb)
                    moves[new] = moves.get(new, 0) + sign * u
        mask_moves.append(tuple((m, u) for m, u in moves.items() if u))
    return sym_moves, tuple(mask_moves)


def _key_terms(tables: tuple, key) -> list:
    """The (new key, coeff) terms of ad(x_g) on one key, from the letter
    tables of g: each letter is replaced by its bracket, and zero terms
    are left out.

    Terms share a key only through the diagonal parts of several letters,
    that is, for H1 and H2; ``ad_action`` adds them up.  For the root
    vectors E and F, the letters that ``ad_images`` serves, no two terms
    share a key, and the a-free rows of ``invariants._next_kernel`` rely
    on this.
    """
    sym_moves, mask_moves = tables
    exps, mask = key
    terms = []
    for i, moves in sym_moves:
        e = exps[i]
        if not e:
            continue
        new = list(exps)
        new[i] = e - 1
        for j, u in moves:
            new[j] += 1
            terms.append(((tuple(new), mask), e * u))
            new[j] -= 1
    for m, u in mask_moves[mask]:
        terms.append(((exps, m), u))
    return terms


def _check_k(letters) -> None:
    if not letters <= lie.K_SET:
        raise ValueError("the k-action is defined on k only")


def ad_images(g: int, keys):
    """The terms of ad(x_g) on each key, for the basis letter g of k, one
    list of (new key, coeff) per key, yielded in the order given; ad(x_g)
    of an element is the linear combination of its keys' terms.

    For the root vectors E and F no two terms of one key share a key (see
    ``_key_terms``).  A letter g outside k raises ValueError, as
    ``ad_action`` does, before any table is built.
    """
    _check_k({g})
    tables = _letter_tables(g)
    return (_key_terms(tables, key) for key in keys)


def ad_action(z: GVector, x: SymTensorElement) -> SymTensorElement:
    """Derivation extension of the bracket to both tensor legs, for z in k.

    The terms of each key under each basis letter of z (``_key_terms``,
    the routine behind ``ad_images`` too) are added up here, so diagonal
    terms, such as those of ad(H1), meet in one coefficient.  A z outside
    k raises ValueError before any table is built.
    """
    _check_k(z.coeffs.keys())
    letters = [(_letter_tables(g), c) for g, c in z.coeffs.items()]
    out = {}
    get = out.get
    for key, q in x.coeffs.items():
        for tables, c in letters:
            qc = q * c
            for nkey, u in _key_terms(tables, key):
                out[nkey] = get(nkey, 0) + qc * u
    return SymTensorElement(out)


# The sixteen products that complement the polynomial generators a, b, c, d.
T_ORDER = (
    "1", "e", "f", "g", "h", "i", "j",
    "ef", "eg", "fg", "g^2", "ei", "ej", "fh", "fi", "fj",
)


def _letters(sym) -> tuple:
    """H = H1 - H2, E, F, E1, E2, F1, F2 in the letter constructor sym."""
    return (sym(lie.H1) - sym(lie.H2),) + tuple(map(sym, (E, F, E1, E2, F1, F2)))


def polynomial_invariants(sym) -> tuple:
    """The invariants a, b, c, d written in the letter constructor sym.

    sym(i) is the basis letter i of g in the left tensor leg: ``sym_gen``
    in S(g) (x) Lambda(p), ``dirac.u_gen`` in U(g) (x) C(p).  Products are
    taken in the order written, which fixes the lifts in U(g); b is
    written symmetrized, H H + 2 (E F + F E).
    """
    sh, se, sf, se1, se2, sf1, sf2 = _letters(sym)
    return (
        sym(lie.H1) + sym(lie.H2),
        sh * sh + 2 * (se * sf + sf * se),
        se1 * sf1 + se2 * sf2,
        2 * (se * se2 * sf1) + sh * se1 * sf1 - sh * se2 * sf2 + 2 * (sf * se1 * sf2),
    )


class InvariantGenerators(NamedTuple):
    """The ten invariants generating the K-invariant subalgebra, in
    S(g) (x) Lambda(p) or, lifted, in U(g) (x) C(p)."""

    a: TensorElement
    b: TensorElement
    c: TensorElement
    d: TensorElement
    e: TensorElement
    f: TensorElement
    g: TensorElement
    h: TensorElement
    i: TensorElement
    j: TensorElement

    @classmethod
    def from_letters(cls, algebra) -> "InvariantGenerators":
        """a..j in the letters of a ``TensorElement`` class: ``letter`` in
        the left leg (see ``polynomial_invariants``) and ``p_letter`` in the
        right one; products keep the order written."""
        sh, se, sf, se1, se2, sf1, sf2 = _letters(algebra.letter)
        we1, we2, wf1, wf2 = map(algebra.p_letter, (E1, E2, F1, F2))
        return cls(
            *polynomial_invariants(algebra.letter),
            e=sf1 * we1 + sf2 * we2,
            f=se1 * wf1 + se2 * wf2,
            g=we1 * wf1 + we2 * wf2,
            h=(2 * (se * se2) + sh * se1) * wf1 + (-(sh * se2) + 2 * (sf * se1)) * wf2,
            i=(
                2 * (se * (we2 * wf1)) + sh * (we1 * wf1) - sh * (we2 * wf2)
                + 2 * (sf * (we1 * wf2))
            ),
            j=(sh * sf1 + 2 * (sf * sf2)) * we1 + (2 * (se * sf1) - sh * sf2) * we2,
        )

    def as_dict(self):
        return dict(zip(self._fields, self))

    def t_products(self):
        """The sixteen module generators over C[a,b,c,d], in fixed order;
        a two-letter name is the product of its letters."""
        x = self.as_dict()
        x["1"], x["g^2"] = self.a.scalar(1), self.g * self.g
        return [(n, x[n] if n in x else x[n[0]] * x[n[1]]) for n in T_ORDER]

    def product_family(self, low: int, high: int, mark: str = ""):
        """The members a^n1 b^n2 c^n3 d^n4 * t of total degree low..high, as
        (label, element, degree): t in the order of ``t_products``, then
        n4, n3, n2, n1 increasing; mark follows each letter of the label.

        Each monomial is built once per call, as its prefix times one
        letter: mon(n) = mon(n - e_i) * (a, b, c, d)[i] for the last nonzero
        slot i.  The word a..a b..b c..c d..d is thus multiplied left to
        right, which needs associativity only, not commutativity, and the
        sixteen t share the monomials; the member with t = 1 is the
        monomial itself, with no product.
        """
        template = "a~^%d b~^%d c~^%d d~^%d * %s~".replace("~", mark)
        letters = (self.a, self.b, self.c, self.d)
        monomials = {(0, 0, 0, 0): self.a.scalar(1)}

        def monomial(n):
            x = monomials.get(n)
            if x is None:
                i = max(k for k in range(4) if n[k])
                prefix = n[:i] + (n[i] - 1,) + n[i + 1:]
                x = monomials[n] = monomial(prefix) * letters[i]
            return x

        out = []
        for tname, t in self.t_products():
            rem = high - t.degree()
            for n4 in range(rem // 3 + 1):
                for n3 in range((rem - 3 * n4) // 2 + 1):
                    for n2 in range((rem - 3 * n4 - 2 * n3) // 2 + 1):
                        top = rem - 3 * n4 - 2 * n3 - 2 * n2
                        for n1 in range(max(0, top - (high - low)), top + 1):
                            x = monomial((n1, n2, n3, n4))
                            if tname != "1":
                                x = x * t
                            label = template % (n1, n2, n3, n4, tname)
                            out.append((label, x, high - top + n1))
        return out


@lru_cache(maxsize=None)
def named_invariants() -> InvariantGenerators:
    return InvariantGenerators.from_letters(SymTensorElement)
