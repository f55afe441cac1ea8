"""Structure data for sl(3,C) as the complexified Lie algebra of SU(2,1).

The ordered basis, fixed once and for all (it is also the normal-form
ordering used by the enveloping algebra), is

    H1, H2, E, F,   E1, E2, F1, F2

with H1, H2 spanning the diagonal Cartan subalgebra, E, F completing
k = span{H1, H2, E, F} (the complexified maximal compact subalgebra), and
E1, E2, F1, F2 spanning p, the -1 eigenspace of the Cartan involution.

The defining 3x3 matrices X_i are kept once, as the integral matrices
3 X_i: a product of two of them is nine times that of the X_i.  Structure
constants and the trace form B(x, y) = tr(xy) are built from them at
import time, in int arithmetic.  The tables are then frozen; downstream
modules consume only the tables.  Table entries follow the coefficient
policy of ``linalg.exact``: an ``int`` when integral, else a ``Fraction``,
which only traces such as B(H1, H1) = 2/3 need.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, sub
from typing import NamedTuple

from .linalg import SparseElement, add_terms, exact

H1, H2, E, F, E1, E2, F1, F2 = range(8)
BASIS_NAMES = ("H1", "H2", "E", "F", "E1", "E2", "F1", "F2")
K_INDICES = (H1, H2, E, F)
P_INDICES = (E1, E2, F1, F2)
K_SET = frozenset(K_INDICES)
P_SET = frozenset(P_INDICES)
DIM = len(BASIS_NAMES)
ZERO_EXPS = (0,) * DIM


def _unit(r, c):
    """3 times the matrix unit at (r, c)."""
    return tuple(
        tuple(3 if (i, j) == (r, c) else 0 for j in range(3)) for i in range(3)
    )


def _diag(*vals):
    return tuple(
        tuple(vals[i] if i == j else 0 for j in range(3)) for i in range(3)
    )


# The integral matrices M_i = 3 X_i, with X_i the defining 3x3 matrix of
# the basis letter i: H1 = diag(2/3, -1/3, -1/3), H2 = diag(-1/3, 2/3, -1/3)
# and matrix units for the root vectors.  The tables below and
# ``dirac.cubic_element`` are built from them.
INTEGRAL_MATRICES = (
    _diag(2, -1, -1),  # H1
    _diag(-1, 2, -1),  # H2
    _unit(0, 1),  # E
    _unit(1, 0),  # F
    _unit(0, 2),  # E1
    _unit(1, 2),  # E2
    _unit(2, 0),  # F1
    _unit(2, 1),  # F2
)


def mat_mul(x, y):
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in x)


def mat_sub(x, y):
    return tuple(tuple(map(sub, a, b)) for a, b in zip(x, y))


def mat_trace(x):
    return x[0][0] + x[1][1] + x[2][2]


class GVector(SparseElement):
    """Element of sl(3,C) over the fixed basis; zero coefficients absent."""

    __slots__ = ()

    def in_span(self, indices) -> bool:
        allowed = set(indices)
        return all(i in allowed for i in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "GVector(0)"
        parts = []
        for i in sorted(self.coeffs):
            v = self.coeffs[i]
            parts.append("%s*%s" % (v, BASIS_NAMES[i]) if v != 1 else BASIS_NAMES[i])
        return "GVector(%s)" % " + ".join(parts)


def gvec(i: int) -> GVector:
    return GVector({i: 1})


# The trace-form dual of each basis letter: B(x_i, DUAL[j]) is 1 when
# i = j and 0 otherwise.  It maps k onto k and p onto p, so every sum over
# dual bases of g, k or p reads this one table.
DUAL = (GVector({H1: 2, H2: 1}), GVector({H1: 1, H2: 2})) + tuple(
    map(gvec, (F, E, F1, F2, E1, E2))
)


def _combination(coeffs: dict, mats):
    """The matrix sum of c * mats[i] over the items (i, c) of coeffs."""
    acc = [[0] * 3 for _ in range(3)]
    for i, c in coeffs.items():
        m = mats[i]
        for r in range(3):
            for s in range(3):
                acc[r][s] += c * m[r][s]
    return tuple(map(tuple, acc))


def _coordinates(m) -> dict:
    """The coordinates of a 3x3 matrix in the fixed basis, if it is
    traceless."""
    return {
        H1: 2 * m[0][0] + m[1][1],
        H2: m[0][0] + 2 * m[1][1],
        E: m[0][1],
        F: m[1][0],
        E1: m[0][2],
        E2: m[1][2],
        F1: m[2][0],
        F2: m[2][1],
    }


def _build_tables():
    """Brackets and traces of the basis from the integral matrices M_i =
    3 X_i: [M_i, M_j] = 9 [X_i, X_j] and tr(M_i M_j) = 9 tr(X_i X_j).
    Each commutator's coordinates are divided by 9 in ints, and the matrix
    rebuilt from them must give the commutator back: a bracket whose
    coefficients are not all ints raises."""
    mats = INTEGRAL_MATRICES
    prods = [[mat_mul(x, y) for y in mats] for x in mats]
    brackets = []
    form = []
    for i in range(DIM):
        brow = []
        frow = []
        for j in range(DIM):
            comm = mat_sub(prods[i][j], prods[j][i])
            coeffs = {k: c // 9 for k, c in _coordinates(comm).items() if c}
            if _combination({k: 3 * c for k, c in coeffs.items()}, mats) != comm:
                pair = (BASIS_NAMES[i], BASIS_NAMES[j])
                raise ValueError("[%s, %s] is not an int combination of the basis" % pair)
            brow.append(GVector(coeffs))
            trace = mat_trace(prods[i][j])
            frow.append(Fraction(trace, 9) if trace % 9 else trace // 9)
        brackets.append(tuple(brow))
        form.append(tuple(frow))
    return tuple(brackets), tuple(form)


BRACKET_TABLE, FORM_TABLE = _build_tables()

# H = H1 - H2 is the coroot of the semisimple part of k; a = H1 + H2 spans
# the center of k.
H_VEC = GVector({H1: 1, H2: -1})
A_VEC = GVector({H1: 1, H2: 1})


def bracket(x: GVector, y: GVector) -> GVector:
    out = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            add_terms(out, BRACKET_TABLE[i][j].coeffs.items(), a * b)
    return GVector(out)


def trace_form(x: GVector, y: GVector):
    """B(x, y), an int when integral, else a Fraction."""
    total = 0
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            total += a * b * FORM_TABLE[i][j]
    return exact(total)


def cartan_involution(x: GVector) -> GVector:
    return GVector(
        {i: (v if i in K_SET else -v) for i, v in x.coeffs.items()}
    )


class Weight(NamedTuple):
    """Simultaneous eigenvalue pair for the adjoint action of H1 and H2."""

    h1: int
    h2: int


WEIGHTS = tuple(
    Weight(BRACKET_TABLE[H1][i].coeffs.get(i, 0), BRACKET_TABLE[H2][i].coeffs.get(i, 0))
    for i in range(DIM)
)
