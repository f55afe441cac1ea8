"""The commutative model: S(g) tensor Lambda(p) with its k-action.

Keys of an element are pairs (exponent vector, exterior mask): the vector
has one slot per basis element of g, and the mask packs a subset of
{E1, E2, F1, F2} as four bits in that order.  Wedge signs are always
normalized to increasing mask order; total degree is symmetric degree
plus exterior degree.  The adjoint action of k extends the bracket as a
derivation on both tensor legs.

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


class SymTensorElement(SparseElement):
    """Element of S(g) (x) Lambda(p); {(exponents, mask): coefficient}."""

    __slots__ = ()
    UNIT = (ZERO_EXPS, 0)

    @staticmethod
    def key_degree(key) -> int:
        exps, mask = key
        return sum(exps) + mask.bit_count()

    def _product(self, other) -> dict:
        out = {}
        for (ea, ma), ca in self.coeffs.items():
            for (eb, mb), cb in other.coeffs.items():
                sign = _merge_sign(ma, mb)
                if not sign:
                    continue
                key = (tuple(x + y for x, y in zip(ea, eb)), ma | mb)
                w = out.get(key, 0) + sign * ca * cb
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
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


def ad_action(z: GVector, x: SymTensorElement) -> SymTensorElement:
    """Derivation extension of the bracket to both tensor legs.

    On the exterior leg only the k-part of the action makes sense; a z
    whose bracket pushes an exterior letter out of p raises ValueError.
    """
    img = [None] * 8
    for i, _ in enumerate(img):
        acc = {}
        for zi, zc in z.coeffs.items():
            add_terms(acc, lie.BRACKET_TABLE[zi][i].coeffs.items(), zc)
        img[i] = acc

    out = {}

    def put(key, v):
        w = out.get(key, 0) + v
        if w:
            out[key] = w
        else:
            out.pop(key, None)

    for (exps, mask), q in x.coeffs.items():
        for i, e in enumerate(exps):
            if not e:
                continue
            for j, u in img[i].items():
                new = list(exps)
                new[i] -= 1
                new[j] += 1
                put((tuple(new), mask), q * e * u)
        for k in range(4):
            if not (mask >> k & 1):
                continue
            for j, u in img[lie.E1 + k].items():
                if j not in lie.P_SET:
                    raise ValueError(
                        "adjoint action on the exterior leg requires a k-element"
                    )
                jb = ext_bit(j)
                if jb == k:
                    put((exps, mask), q * u)
                elif mask >> jb & 1:
                    continue
                else:
                    lo, hi = (k, jb) if k < jb else (jb, k)
                    between = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
                    crossings = ((mask ^ (1 << k)) & between).bit_count()
                    sign = -1 if crossings & 1 else 1
                    put((exps, (mask ^ (1 << k)) | (1 << jb)), q * u * sign)
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
    in S(g) (x) Lambda(p), ``enveloping.u_gen`` in U(g), or its image in
    U(g) (x) C(p).  Products are taken in the order written, which fixes
    the lifts in U(g); b is written symmetrized, H H + 2 (E F + F E).
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

    def s_monomial(self, n1: int, n2: int, n3: int, n4: int):
        return self.a ** n1 * self.b ** n2 * self.c ** n3 * self.d ** n4

    def product_family(self, low: int, high: int, mark: str = ""):
        """The members a^n1 b^n2 c^n3 d^n4 * t of total degree low..high, as
        (label, element, degree): t in the order of ``t_products``, then
        n4, n3, n2, n1 increasing; mark follows each letter of the label."""
        template = "a~^%d b~^%d c~^%d d~^%d * %s~".replace("~", mark)
        out = []
        for tname, t in self.t_products():
            rem = high - t.degree()
            for n4 in range(rem // 3 + 1):
                for n3 in range((rem - 3 * n4) // 2 + 1):
                    for n2 in range((rem - 3 * n4 - 2 * n3) // 2 + 1):
                        top = rem - 3 * n4 - 2 * n3 - 2 * n2
                        for n1 in range(max(0, top - (high - low)), top + 1):
                            x = self.s_monomial(n1, n2, n3, n4) * t
                            label = template % (n1, n2, n3, n4, tname)
                            out.append((label, x, high - top + n1))
        return out


@lru_cache(maxsize=None)
def named_invariants() -> InvariantGenerators:
    return InvariantGenerators.from_letters(sym_gen, ext_gen)
