"""Structure data for sl(3,C) as the complexified Lie algebra of SU(2,1).

The ordered basis, fixed once and for all (it is also the normal-form
ordering used by the enveloping algebra), is

    H1, H2, E, F,   E1, E2, F1, F2

with H1, H2 spanning the diagonal Cartan subalgebra, E, F completing
k = span{H1, H2, E, F} (the complexified maximal compact subalgebra), and
E1, E2, F1, F2 spanning p, the -1 eigenspace of the Cartan involution.

Structure constants and the trace form B(x, y) = tr(xy) are generated at
import time from the defining 3x3 matrices and then frozen; downstream
modules consume only the tables.  Matrix and table entries follow the
coefficient policy of ``linalg.exact``: an ``int`` when integral, else a
``Fraction``, which only the diagonal entries of H1 and H2 need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import SparseElement, add_terms, exact

H1, H2, E, F, E1, E2, F1, F2 = range(8)
BASIS_NAMES = ("H1", "H2", "E", "F", "E1", "E2", "F1", "F2")
K_INDICES = (H1, H2, E, F)
P_INDICES = (E1, E2, F1, F2)
K_SET = frozenset(K_INDICES)
P_SET = frozenset(P_INDICES)
# Trace-form-dual bases of p, as index pairs (b_i, d_i): B(b_i, d_j) is 1
# when i = j and 0 otherwise.
P_DUAL_PAIRS = ((E1, F1), (E2, F2), (F1, E1), (F2, E2))
DIM = len(BASIS_NAMES)


def _unit(r, c):
    return tuple(
        tuple(1 if (i, j) == (r, c) else 0 for j in range(3)) for i in range(3)
    )


def _diag(*vals):
    return tuple(
        tuple(vals[i] if i == j else 0 for j in range(3)) for i in range(3)
    )


BASIS_MATRICES = (
    _diag(Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)),  # H1
    _diag(Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)),  # H2
    _unit(0, 1),  # E
    _unit(1, 0),  # F
    _unit(0, 2),  # E1
    _unit(1, 2),  # E2
    _unit(2, 0),  # F1
    _unit(2, 1),  # F2
)


def mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_sub(x, y):
    return tuple(tuple(x[i][j] - y[i][j] for j in range(3)) for i in range(3))


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


def matrix_of(v: GVector):
    acc = [[0] * 3 for _ in range(3)]
    for i, c in v.coeffs.items():
        m = BASIS_MATRICES[i]
        for r in range(3):
            for s in range(3):
                acc[r][s] += c * m[r][s]
    return tuple(tuple(map(exact, row)) for row in acc)


def from_matrix(m) -> GVector:
    """Express a traceless 3x3 matrix in the fixed basis, exactly."""
    v = GVector(
        {
            H1: 2 * m[0][0] + m[1][1],
            H2: m[0][0] + 2 * m[1][1],
            E: m[0][1],
            F: m[1][0],
            E1: m[0][2],
            E2: m[1][2],
            F1: m[2][0],
            F2: m[2][1],
        }
    )
    if matrix_of(v) != tuple(map(tuple, m)):
        raise ValueError("matrix is not in sl(3)")
    return v


def _build_tables():
    brackets = []
    form = []
    for i in range(DIM):
        brow = []
        frow = []
        for j in range(DIM):
            mi, mj = BASIS_MATRICES[i], BASIS_MATRICES[j]
            brow.append(from_matrix(mat_sub(mat_mul(mi, mj), mat_mul(mj, mi))))
            frow.append(exact(mat_trace(mat_mul(mi, mj))))
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


# Every eigenvalue is an integer for this basis, so int() drops nothing.
WEIGHTS = tuple(
    Weight(
        int(BRACKET_TABLE[H1][i].coeffs.get(i, 0)),
        int(BRACKET_TABLE[H2][i].coeffs.get(i, 0)),
    )
    for i in range(DIM)
)


def weight_of(i: int) -> Weight:
    return WEIGHTS[i]
