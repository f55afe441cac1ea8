"""The commutative model: S(g) tensor Lambda(p) with its k-action.

Keys of an element are pairs (exponent vector, exterior mask): the vector
has one slot per basis element of g, and the mask packs a subset of
{E1, E2, F1, F2} as four bits in that order.  Wedge signs are always
normalized to increasing mask order; total degree is symmetric degree
plus exterior degree.  The adjoint action of k extends the bracket as a
derivation on both tensor legs.  It reads letter tables built once per
acting element z, from ``lie.BRACKET_TABLE``, and kept in a small bounded
cache: the diagonal coefficient [z, x_i]_i of each letter, which adds up
to one scalar per key, and the off-diagonal moves, the only part of the
action that builds new keys.  ad(H1) and ad(H2) are diagonal and only
rescale keys.  One per-key routine (``_key_terms``) turns the tables into
the terms of ad(z) on one key; ``ad_action`` adds them up over an
element, and ``ad_images`` hands them out per key, for callers that apply
the action to many elements on the same keys.

Coefficients are exact (``linalg.exact``): an ``int`` whenever the value
is integral, a ``Fraction`` otherwise, never a float.  Every weight,
structure constant and coefficient of the invariants a..j is an integer,
so products and the k-action stay in integer arithmetic; a ``Fraction``
enters only with a real division, such as an echelon-normalized kernel
vector or a scalar like 1/2.

The invariants a..j are written once, for both algebras, in two letter
constructors (``InvariantGenerators.from_letters``): ``sym_gen`` and
``ext_gen`` give them here, the letters of U(g) (x) C(p) give their lifts
(``dirac.lifted_generators``).  The bundle also enumerates the product
family a^n1 b^n2 c^n3 d^n4 * t over the sixteen module generators t.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import add, mul

from . import lie
from .lie import E, E1, E2, F, F1, F2, GVector, Weight
from .linalg import SparseElement, add_terms

ZERO_EXPS = (0,) * 8


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


class SymTensorElement(SparseElement):
    """Element of S(g) (x) Lambda(p); {(exponents, mask): coefficient}."""

    __slots__ = ()
    UNIT = (ZERO_EXPS, 0)
    KEYS = {}

    @staticmethod
    def key_degree(key) -> int:
        exps, mask = key
        return sum(exps) + mask.bit_count()

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

    def __repr__(self):
        from . import expr

        return "SymTensorElement(%s)" % expr.format_tensor(self)


scalar = SymTensorElement.scalar


def one() -> SymTensorElement:
    return scalar(1)


def zero() -> SymTensorElement:
    return SymTensorElement()


def sym_gen(i: int) -> SymTensorElement:
    """Basis vector of g placed in the symmetric leg."""
    exps = list(ZERO_EXPS)
    exps[i] = 1
    return SymTensorElement({(tuple(exps), 0): 1})


def ext_gen(i: int) -> SymTensorElement:
    """Basis vector of p placed in the exterior leg."""
    if i not in lie.P_SET:
        raise ValueError("exterior generators come from p")
    return SymTensorElement({(ZERO_EXPS, 1 << ext_bit(i)): 1})


def from_gvector(v: GVector) -> SymTensorElement:
    out = zero()
    for i, c in v.coeffs.items():
        out = out + c * sym_gen(i)
    return out


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


@lru_cache(maxsize=64)
def _letter_tables(z_items: tuple) -> tuple:
    """The letter tables of ad(z), for z given by its sorted (index, coeff) items.

    Returns (sym_diag, sym_moves, mask_diag, mask_moves, bad):

    * sym_diag[i] = [z, x_i]_i, the diagonal coefficient of the symmetric
      letter i, or None when all eight are zero;
    * sym_moves, the pairs (i, ((j, u), ...)) of the letters i whose
      bracket [z, x_i] has an off-diagonal part sum_j u x_j;
    * mask_diag[mask], the sum of the diagonal coefficients of the
      exterior letters in mask;
    * mask_moves[mask], the pairs (new mask, signed u) that one
      off-diagonal exterior replacement makes, wedge sign included;
    * bad, the bits of the exterior letters whose bracket leaves p.
    """
    images = []
    for i in range(lie.DIM):
        acc = {}
        for zi, zc in z_items:
            add_terms(acc, lie.BRACKET_TABLE[zi][i].coeffs.items(), zc)
        images.append(acc)
    sym_diag = tuple(images[i].get(i, 0) for i in range(lie.DIM))
    sym_moves = []
    for i, img in enumerate(images):
        moves = tuple((j, u) for j, u in img.items() if j != i)
        if moves:
            sym_moves.append((i, moves))
    bad = 0
    for k in range(4):
        if not images[lie.E1 + k].keys() <= lie.P_SET:
            bad |= 1 << k
    mask_diag = []
    mask_moves = []
    for mask in range(16):
        diag = 0
        moves = {}
        for k in range(4):
            if not mask >> k & 1 or bad >> k & 1:
                continue
            for j, u in images[lie.E1 + k].items():
                jb = ext_bit(j)
                if jb == k:
                    diag += u
                elif not mask >> jb & 1:
                    # The letter moves from slot k to slot jb, past the
                    # letters strictly between the two.
                    lo, hi = (k, jb) if k < jb else (jb, k)
                    between = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
                    sign = -1 if (mask & between).bit_count() & 1 else 1
                    new = mask ^ (1 << k) ^ (1 << jb)
                    moves[new] = moves.get(new, 0) + sign * u
        mask_diag.append(diag)
        mask_moves.append(tuple((m, u) for m, u in moves.items() if u))
    return (
        sym_diag if any(sym_diag) else None,
        tuple(sym_moves),
        tuple(mask_diag),
        tuple(mask_moves),
        bad,
    )


def _key_terms(tables: tuple, key) -> list:
    """The (new key, coeff) terms of ad(z) on one key, from the letter
    tables of z; no two terms share a key, and zero terms are left out.

    The diagonal part is one scalar, sum_i e_i [z, x_i]_i over the
    symmetric letters plus the diagonal coefficients of the exterior
    letters; only the off-diagonal moves build new keys.
    """
    sym_diag, sym_moves, mask_diag, mask_moves, bad = tables
    exps, mask = key
    if mask & bad:
        raise ValueError("adjoint action on the exterior leg requires a k-element")
    s = mask_diag[mask]
    if sym_diag is not None:
        s += sum(map(mul, exps, sym_diag))
    terms = [(key, s)] if s else []
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


def _tables_of(z: GVector) -> tuple:
    return _letter_tables(tuple(sorted(z.coeffs.items())))


def ad_images(z: GVector, keys):
    """The terms of ad(z) on each key, one list of (new key, coeff) per key,
    yielded in the order given, with the letter tables of z read once;
    ad(z) of an element is the linear combination of its keys' terms.

    A z whose bracket pushes an exterior letter out of p raises ValueError
    at a key with that letter, as ``ad_action`` does.
    """
    tables = _tables_of(z)
    return (_key_terms(tables, key) for key in keys)


def ad_action(z: GVector, x: SymTensorElement) -> SymTensorElement:
    """Derivation extension of the bracket to both tensor legs.

    The letter tables of ad(z) (``_letter_tables``) are built once per z
    and kept in a small cache; each key's terms come from ``_key_terms``,
    the routine behind ``ad_images`` too, so ad(H1) and ad(H2) rescale
    each key in place and only the off-diagonal moves build new keys.

    On the exterior leg only the k-part of the action makes sense; a z
    whose bracket pushes an exterior letter out of p raises ValueError.
    """
    tables = _tables_of(z)
    out = {}
    get = out.get
    for key, q in x.coeffs.items():
        for nkey, u in _key_terms(tables, key):
            out[nkey] = get(nkey, 0) + q * u
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


@dataclass
class InvariantGenerators:
    """The ten invariants generating the K-invariant subalgebra, in
    S(g) (x) Lambda(p) or, lifted, in U(g) (x) C(p)."""

    a: SparseElement
    b: SparseElement
    c: SparseElement
    d: SparseElement
    e: SparseElement
    f: SparseElement
    g: SparseElement
    h: SparseElement
    i: SparseElement
    j: SparseElement

    @classmethod
    def from_letters(cls, sym, ext) -> "InvariantGenerators":
        """a..j written in two letter constructors: sym(i), the letter of g
        in the left leg (see ``polynomial_invariants``), and ext(i), the
        letter of p in the right leg; products keep the order written."""
        sh, se, sf, se1, se2, sf1, sf2 = _letters(sym)
        we1, we2, wf1, wf2 = map(ext, (E1, E2, F1, F2))
        return cls(
            *polynomial_invariants(sym),
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
    return InvariantGenerators.from_letters(sym_gen, ext_gen)
