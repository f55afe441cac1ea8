"""The commutative model: S(g) tensor Lambda(p) with its k-action.

Keys of an element are pairs (exponent vector, exterior mask): the vector
has one slot per basis element of g, and the mask packs a subset of
{E1, E2, F1, F2} as four bits in that order.  Wedge signs are always
normalized to increasing mask order; total degree is symmetric degree
plus exterior degree.  The adjoint action of k extends the bracket as a
derivation on both tensor legs.

Coefficients are exact (``linalg.exact``): an ``int`` whenever the value
is integral, a ``Fraction`` otherwise, never a float.  Every weight, structure constant
and coefficient of the invariants a..j is an integer, so products and the
k-action stay in integer arithmetic; a ``Fraction`` enters only with a
real division, such as an echelon-normalized kernel vector or a scalar
like 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from . import lie
from .lie import E, E1, E2, F, F1, F2, GVector, Weight
from .linalg import SparseElement, add_terms

ZERO_EXPS = (0,) * 8
EXT_NAMES = ("E1", "E2", "F1", "F2")


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


def weight_component(x: SymTensorElement, w) -> SymTensorElement:
    target = Weight(*w)
    return SymTensorElement(
        {key: v for key, v in x.coeffs.items() if key_weight(key) == target}
    )


# Order and total degrees of the sixteen products that complement the
# polynomial generators a, b, c, d.
T_ORDER = (
    "1", "e", "f", "g", "h", "i", "j",
    "ef", "eg", "fg", "g^2", "ei", "ej", "fh", "fi", "fj",
)
T_DEGREES = {
    "1": 0, "e": 2, "f": 2, "g": 2, "h": 3, "i": 3, "j": 3,
    "ef": 4, "eg": 4, "fg": 4, "g^2": 4,
    "ei": 5, "ej": 5, "fh": 5, "fi": 5, "fj": 5,
}
S_DEGREES = (1, 2, 2, 3)  # degrees of a, b, c, d


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

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def t_products(self):
        """The sixteen module generators over C[a,b,c,d], in fixed order."""
        by_name = self.as_dict()
        out = []
        for name in T_ORDER:
            if name == "1":
                out.append((name, self.a.scalar(1)))
            elif name == "g^2":
                out.append((name, self.g * self.g))
            elif len(name) == 1:
                out.append((name, by_name[name]))
            else:
                out.append((name, by_name[name[0]] * by_name[name[1]]))
        return out

    def s_monomial(self, n1: int, n2: int, n3: int, n4: int):
        return self.a ** n1 * self.b ** n2 * self.c ** n3 * self.d ** n4


@lru_cache(maxsize=None)
def named_invariants() -> InvariantGenerators:
    h = from_gvector(lie.H_VEC)
    ea = from_gvector(lie.A_VEC)
    se, sf = sym_gen(E), sym_gen(F)
    se1, se2 = sym_gen(E1), sym_gen(E2)
    sf1, sf2 = sym_gen(F1), sym_gen(F2)
    we1, we2 = ext_gen(E1), ext_gen(E2)
    wf1, wf2 = ext_gen(F1), ext_gen(F2)

    a = ea
    b = h * h + 4 * (se * sf)
    c = se1 * sf1 + se2 * sf2
    d = 2 * (se * se2 * sf1) + h * se1 * sf1 - h * se2 * sf2 + 2 * (sf * se1 * sf2)
    e = sf1 * we1 + sf2 * we2
    f = se1 * wf1 + se2 * wf2
    g = we1 * wf1 + we2 * wf2
    h_inv = (2 * (se * se2) + h * se1) * wf1 + (-(h * se2) + 2 * (sf * se1)) * wf2
    i_inv = (
        2 * (se * (we2 * wf1))
        + h * (we1 * wf1)
        - h * (we2 * wf2)
        + 2 * (sf * (we1 * wf2))
    )
    j_inv = (h * sf1 + 2 * (sf * sf2)) * we1 + (2 * (se * sf1) - h * sf2) * we2
    return InvariantGenerators(a, b, c, d, e, f, g, h_inv, i_inv, j_inv)
