"""Exact sparse linear algebra over the rationals, and the element core.

Vectors and matrix rows are ``{column: value}`` dicts with zero entries
absent; values are exact: an ``int`` whenever the value is integral, a
``Fraction`` otherwise, never a float (see ``exact``).  Elimination is
fraction-free: rows are rescaled to primitive integer vectors (an all-int
row needs no ``Fraction`` at all) and combined by integer
cross-multiplication, with the content divided out after every
combination, so the elimination loop never performs rational division
and coefficient growth stays tame.  The content of a row is ``math.gcd``
of its entries, and the denominator a rational row is cleared with is
``math.lcm`` of its entries' denominators.  The two multipliers are
divided by their gcd before they scale anything, so a unit pivot costs a
copy of the row and no multiplication.  Division happens only where a
result leaves the integers: the normalization of ``rref_rows`` to unit
pivots, and the kernel entries of ``kernel_of_rows``.

The rows are kept, not copied.  No row passed in is ever modified: every
combination builds a new dict.  A row that is primitive already, all
nonzero ints with gcd 1, becomes its own pivot as it is, so a pivot may
be the caller's own dict, and neither the caller nor the echelon may
modify it.

Ranks and ``rref_rows`` eliminate on the smallest column of each row, and
a membership question is a comparison of two ranks; a rank may take
another lead rule, since it does not depend on the column order.
``kernel_of_rows`` eliminates on the largest column instead and
back-substitutes in increasing pivot order; each kernel vector then has
its smallest column at its own free column, with value 1, and no other
kernel vector touches that column, so the kernel comes out in reduced
echelon form for the original column order without a second reduction.
Nothing in the package calls ``rref_rows`` any more; it stays as the
reference canonical form that the tests compare kernels with, and the
benchmark's per-layer spans (``bench/tracing.py``) still wrap it.

Reduced echelon forms depend only on the column order, never on the order
the rows arrive in, so every rank and kernel produced here is canonical
for a fixed column order.

``SparseElement`` is the same ``{key: value}`` representation seen as a
vector: the core (normalization, sums, negation, scalar multiples,
equality) that ``lie.GVector`` and ``symext.TensorElement`` build on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def exact(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def add_terms(out: dict, items, scale=1) -> None:
    """Add scale times each (key, value) of items into out, dropping zeros."""
    for key, v in items:
        w = out.get(key, 0) + scale * v
        if w:
            out[key] = w
        else:
            out.pop(key, None)


def _primitive(row) -> dict:
    """Rescale a {col: rational} row to primitive integer form.

    A row that is already primitive, all nonzero ints with gcd 1, is
    returned as it is, not copied; any other row gives a new dict with its
    zero entries dropped.
    """
    values = row.values()
    if all(type(v) is int and v for v in values) and gcd(*values) == 1:
        return row
    denom = lcm(*(Fraction(v).denominator for v in values if type(v) is not int))
    out = {}
    for c, v in row.items():
        n = v * denom if type(v) is int else (Fraction(v) * denom).numerator
        if n:
            out[c] = n
    return _strip_content(out)


def _strip_content(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _combine(row: dict, piv: dict, lead) -> dict:
    """piv[lead]*row - row[lead]*piv, content removed; kills column lead.

    Both multipliers are first divided by their gcd, which changes the
    combination by a positive scalar only, so the stripped row is the same.
    """
    a = row[lead]
    b = piv[lead]
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    new = dict(row) if b == 1 else {c: b * v for c, v in row.items()}
    get = new.get
    for c, v in piv.items():
        w = get(c, 0) - a * v
        if w:
            new[c] = w
        else:
            del new[c]
    return _strip_content(new)


def echelon_rows(rows, lead=min, pivots=None) -> dict:
    """Forward elimination; returns {pivot column: primitive integer row}.

    ``lead`` picks the column a row is eliminated on: ``min`` leaves every
    pivot row zero left of its pivot, ``max`` zero right of it; any rule
    that picks a row's first column in one fixed total order of the
    columns will do.  Given a ``pivots`` dict from an earlier call with
    the same ``lead``, the rows are added to it in place, so a rank can be
    read after each batch.

    No row passed in is modified.  A primitive row becomes its own pivot
    uncopied, so a pivot may be the caller's dict: neither the caller nor
    the echelon may modify it.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        row = _primitive(row)
        while row:
            col = lead(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            row = _combine(row, piv, col)
    return pivots


def rank_of_rows(rows, pivots=None, lead=min) -> int:
    """Rank of rows; given the ``pivots`` of earlier rows, eliminated with
    the same ``lead``, the rank of all.  The rank does not depend on the
    lead; the rows are kept as ``echelon_rows`` keeps them."""
    return len(echelon_rows(rows, lead, pivots))


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
    """Basis of {x : A x = 0} in reduced echelon form, in lead order.

    One vector per free column f: 1 at f, and -row[f]/row[pc] at each
    pivot column pc > f whose reduced row meets f.
    """
    pivots = echelon_rows(rows, lead=max)
    # A max-lead pivot row lives on columns <= its pivot, so reducing in
    # increasing pivot order leaves each row on its pivot and free columns
    # below it, using only rows that are already reduced.
    reduced = {}
    for pc in sorted(pivots):
        row = pivots[pc]
        for c in [c for c in row if c in reduced]:
            row = _combine(row, reduced[c], c)
        reduced[pc] = row
    basis = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for pc, row in reduced.items():
        a = row[pc]
        for f, v in row.items():
            if f != pc:
                basis[f][pc] = exact(Fraction(-v, a))
    return list(basis.values())


class SparseElement:
    """A vector over a basis of keys: {key: exact coefficient}.  It
    combines only with an element of its own class, and with an ``int``,
    ``Fraction`` or ``float`` scalar on either side; else a TypeError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None, keys=None):
        """Keep the nonzero coefficients, made exact; with a ``keys`` dict,
        store each kept key as the object that dict holds for it."""
        data = {}
        intern = None if keys is None else keys.setdefault
        for key, v in (coeffs or {}).items():
            if type(v) is not int:
                v = exact(v)
            if v:
                data[key if intern is None else intern(key, key)] = v
        self.coeffs = data

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        add_terms(out, other.coeffs.items())
        return type(self)(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        add_terms(out, other.coeffs.items(), -1)
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, float)):
            return NotImplemented
        scalar = exact(scalar)
        if not scalar:
            return type(self)()
        return type(self)({k: scalar * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs
