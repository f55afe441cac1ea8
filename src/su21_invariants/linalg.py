"""Exact sparse linear algebra over the rationals.

Vectors and matrix rows are ``{column: value}`` dicts with zero entries
absent; values are exact, ``int`` or ``Fraction``.  Elimination is
fraction-free: rows are rescaled to primitive integer vectors (an all-int
row needs no ``Fraction`` at all) and combined by integer
cross-multiplication, with the content divided out after every
combination, so the inner loop never performs rational division and
coefficient growth stays tame.  Only the final normalization of the
reduced echelon form divides, and its entries are ``Fraction``s.

The reduced echelon form depends only on the column order, never on the
order the rows arrive in, so every rank, kernel and solution produced
here is canonical for a fixed column order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _primitive(row) -> dict:
    """Rescale a {col: rational} row to primitive integer form."""
    if not row:
        return {}
    denom = 1
    for v in row.values():
        if type(v) is not int:
            d = Fraction(v).denominator
            denom = denom * d // gcd(denom, d)
    out = {}
    g = 0
    for c, v in row.items():
        n = v * denom if type(v) is int else (Fraction(v) * denom).numerator
        if n:
            out[c] = n
            g = gcd(g, n)
    if g > 1:
        out = {c: n // g for c, n in out.items()}
    return out


def _strip_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _combine(row: dict, piv: dict, lead) -> dict:
    """piv[lead]*row - row[lead]*piv, content removed; kills column lead."""
    a = row[lead]
    b = piv[lead]
    new = {c: b * v for c, v in row.items()}
    for c, v in piv.items():
        w = new.get(c, 0) - a * v
        if w:
            new[c] = w
        else:
            new.pop(c, None)
    return _strip_content(new)


def echelon_rows(rows) -> dict:
    """Forward elimination; returns {pivot column: primitive integer row}."""
    pivots = {}
    for row in rows:
        row = _primitive(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row = _combine(row, piv, lead)
    return pivots


def reduce_against(pivots: dict, row) -> dict:
    """Reduce a row against an echelon set; empty result means membership."""
    row = _primitive(row)
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            break
        row = _combine(row, piv, lead)
    return row


def rank_of_rows(rows) -> int:
    return len(echelon_rows(rows))


def rref_rows(rows) -> dict:
    """Reduced row echelon form: {pivot col: {col: Fraction}}, pivots = 1."""
    pivots = echelon_rows(rows)
    reduced = {}
    # Working upward from the largest pivot keeps every row used for back
    # substitution fully reduced already, so a single pass suffices.
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in sorted(c for c in row if c != lead and c in pivots):
            if c in row:
                row = _combine(row, reduced[c], c)
        reduced[lead] = row
    return {
        lead: {c: Fraction(v, row[lead]) for c, v in row.items()}
        for lead, row in reduced.items()
    }


def kernel_of_rows(rows, ncols: int) -> list:
    """Basis of {x : A x = 0}, one vector per free column, echelon-normalized."""
    red = rref_rows(rows)
    basis = []
    for f in range(ncols):
        if f in red:
            continue
        vec = {f: Fraction(1)}
        for pc, row in red.items():
            v = row.get(f)
            if v:
                vec[pc] = -v
        basis.append(vec)
    return basis


def solve_rows(rows, rhs, ncols: int):
    """Solve A x = rhs exactly.

    ``rows`` lists the equations as {col: value} dicts, ``rhs`` maps row
    index to its right-hand value.  Returns the particular solution with
    all free variables zero, or None when the system is inconsistent.
    """
    aug = ncols
    stacked = []
    for r, row in enumerate(rows):
        row = dict(row)
        v = Fraction(rhs.get(r, 0))
        if v:
            row[aug] = -v
        if row:
            stacked.append(row)
    red = rref_rows(stacked)
    if aug in red:
        return None
    sol = {}
    for pc, row in red.items():
        v = row.get(aug)
        if v:
            sol[pc] = -v
    return sol


class SparseMatrix:
    """Exact sparse rational matrix with rank/kernel/solve support."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        for (r, c), v in (entries or {}).items():
            v = Fraction(v)
            if v:
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError((r, c))
                self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "SparseMatrix":
        entries = {}
        for r, row in enumerate(rows):
            for c, v in row.items():
                entries[(r, c)] = v
        return cls(len(rows), ncols, entries)

    def row_dicts(self) -> list:
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def rank(self) -> int:
        return rank_of_rows(self.row_dicts())

    def rref(self) -> dict:
        return rref_rows(self.row_dicts())

    def kernel_basis(self) -> list:
        return kernel_of_rows(self.row_dicts(), self.ncols)

    def solve(self, rhs):
        return solve_rows(self.row_dicts(), rhs, self.ncols)

    def permuted_columns(self, perm) -> "SparseMatrix":
        """Relabel columns by perm (old index -> new index)."""
        entries = {(r, perm[c]): v for (r, c), v in self.entries.items()}
        return SparseMatrix(self.nrows, self.ncols, entries)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (
            other.nrows,
            other.ncols,
            other.entries,
        )

    def __repr__(self):
        return "SparseMatrix(%d, %d, nnz=%d)" % (
            self.nrows,
            self.ncols,
            len(self.entries),
        )
