"""Exact elimination: ranks, kernels and solves, cross-checked directly."""

import random
from fractions import Fraction
from math import gcd

from su21_invariants import linalg


def _apply(rows, vec):
    out = {}
    for r, row in enumerate(rows):
        total = sum(v * vec.get(c, 0) for c, v in row.items())
        if total:
            out[r] = total
    return out


def test_rank_small_frozen():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]
    assert linalg.rank_of_rows(rows) == 2
    assert linalg.rank_of_rows([]) == 0
    assert linalg.rank_of_rows([{}]) == 0


def test_kernel_annihilates():
    rows = [
        {0: 1, 1: 1, 2: 1},
        {0: Fraction(1, 2), 2: Fraction(-1, 2)},
    ]
    kern = linalg.kernel_of_rows(rows, 3)
    assert len(kern) == 1
    for vec in kern:
        assert _apply(rows, vec) == {}


def _random_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.6:
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_rank_plus_nullity_random():
    rng = random.Random(7)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = _random_rows(rng, nrows, ncols)
        rank = linalg.rank_of_rows(rows)
        kern = linalg.kernel_of_rows(rows, ncols)
        assert rank + len(kern) == ncols
        for vec in kern:
            assert _apply(rows, vec) == {}


def test_kernel_is_its_own_reduced_echelon_form():
    rng = random.Random(23)
    for _ in range(80):
        ncols = rng.randint(1, 9)
        rows = _random_rows(rng, rng.randint(1, 7), ncols)
        kern = linalg.kernel_of_rows(rows, ncols)
        leads = [min(vec) for vec in kern]
        assert leads == sorted(set(leads))
        for vec, lead in zip(kern, leads):
            assert vec[lead] == 1
            assert all(lead not in other for other in kern if other is not vec)
            assert all(type(v) in (int, Fraction) for v in vec.values())
            assert _apply(rows, vec) == {}
        red = linalg.rref_rows(kern)
        assert kern == [red[lead] for lead in sorted(red)]


def test_rank_is_column_order_independent():
    rng = random.Random(11)
    rows = []
    for _ in range(4):
        rows.append(
            {c: Fraction(rng.randint(-3, 3)) for c in range(6) if rng.random() < 0.7}
        )
    perm = list(range(6))
    rng.shuffle(perm)
    permuted = [{perm[c]: v for c, v in row.items()} for row in rows]
    rank = linalg.rank_of_rows(rows)
    assert linalg.rank_of_rows(permuted) == rank
    kern = linalg.kernel_of_rows(rows, 6)
    kern_permuted = linalg.kernel_of_rows(permuted, 6)
    assert len(kern) == len(kern_permuted) == 6 - rank >= 2
    # Relabelled back, each kernel spans the other's: stacking them adds no rank.
    back = [{perm.index(c): v for c, v in vec.items()} for vec in kern_permuted]
    assert linalg.rank_of_rows(kern + back) == len(kern)
    for vec in back:
        assert _apply(rows, vec) == {}


def test_rref_pivots_are_one_and_reduced():
    rows = [{0: 2, 1: 4, 2: 2}, {0: 1, 1: 2, 2: 3}, {1: 5, 2: 5}]
    red = linalg.rref_rows(rows)
    for lead, row in red.items():
        assert row[lead] == 1
        for other in red:
            if other != lead:
                assert other not in row


def _odd_columns_first(row):
    """A lead in neither the min nor the max order: the largest odd column,
    else the largest even one."""
    return min(row, key=lambda c: (c % 2 == 0, -c))


def test_echelon_extended_batch_by_batch_matches_one_pass():
    rng = random.Random(31)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, rng.randint(1, 12), ncols)
        cuts = sorted(rng.randint(0, len(rows)) for _ in range(3))
        for lead in (min, max, _odd_columns_first):
            pivots = {}
            for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
                assert linalg.echelon_rows(rows[lo:hi], lead, pivots) is pivots
                assert len(pivots) == linalg.rank_of_rows(rows[:hi])
                assert len(pivots) == linalg.rank_of_rows(rows[:hi], lead=lead)
            assert pivots == linalg.echelon_rows(rows, lead)


def test_primitive_rows_become_pivots_uncopied():
    row = {0: 2, 1: -3, 4: 1}
    assert linalg.echelon_rows([row])[0] is row
    # Content 2, a Fraction, or an explicit zero (here at the smallest
    # column, where it must not lead) gives a new, normalized pivot row.
    for given, lead, primitive in (
        ({0: 4, 1: -6, 4: 2}, 0, {0: 2, 1: -3, 4: 1}),
        ({0: Fraction(2, 3), 1: -1, 4: Fraction(1, 3)}, 0, {0: 2, 1: -3, 4: 1}),
        ({0: Fraction(2), 1: -3, 4: 1}, 0, {0: 2, 1: -3, 4: 1}),
        ({0: 0, 1: 2, 4: -3}, 1, {1: 2, 4: -3}),
    ):
        before = dict(given)
        pivots = linalg.echelon_rows([given])
        assert pivots == {lead: primitive}
        assert pivots[lead] is not given
        assert given == before


def test_echelon_leaves_every_input_row_unchanged():
    rng = random.Random(53)
    for _ in range(80):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, rng.randint(1, 6), ncols) + [
            _random_int_row(rng, ncols, rng.randrange(ncols))
            for _ in range(rng.randint(1, 6))
        ]
        rows += rng.sample(rows, 2)
        rng.shuffle(rows)
        before = [dict(row) for row in rows]
        for lead in (min, max, _odd_columns_first):
            pivots = linalg.echelon_rows(rows, lead)
            assert rows == before
            assert len(pivots) == linalg.rank_of_rows(before)


def _ref_primitive(row):
    """The earlier gcd-loop rescaling of a row to primitive integer form,
    kept as the reference for ``linalg._primitive``."""
    g = 0
    for v in row.values():
        if type(v) is not int or not v:
            break
        g = gcd(g, v)
    else:
        if g == 1:
            return row
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


def _ref_strip_content(row):
    """The earlier early-exit content loop, the reference for
    ``linalg._strip_content``."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _content_rows(rng):
    """Seeded rows of every shape the content routines meet: the empty row,
    primitive int rows, rows with content > 1, negative entries, explicit
    zeros, and Fractions, integral ones included."""
    rows = [{}, {0: 0}, {3: 1}, {3: -1}, {2: 6}, {0: -4, 5: 0, 7: -6}]
    for _ in range(400):
        ncols = rng.randint(1, 7)
        scale = rng.choice((1, 1, 2, 3, 6, 12))
        row = {}
        for c in range(ncols):
            r = rng.random()
            if r < 0.15:
                row[c] = 0
            elif r < 0.3:
                row[c] = Fraction(rng.randint(-9, 9) * scale, rng.randint(1, 4))
            elif r < 0.4:
                row[c] = Fraction(rng.randint(-9, 9) * scale)
            elif r < 0.9:
                row[c] = rng.choice(_LEADS) * scale
        rows.append(row)
    return rows


def test_content_routines_match_the_gcd_loop_reference():
    rng = random.Random(59)
    seen = set()
    for row in _content_rows(rng):
        before = dict(row)
        got, want = linalg._primitive(row), _ref_primitive(row)
        assert row == before
        assert got == want, row
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
        assert all(type(v) is int and v for v in got.values())
        assert (got is row) == (want is row)
        primitive = (
            all(type(v) is int and v for v in row.values()) and gcd(*row.values()) == 1
        )
        assert (got is row) == primitive
        seen.add(
            (
                primitive,
                any(type(v) is Fraction for v in row.values()),
                0 in row.values(),
            )
        )
        if all(type(v) is int for v in row.values()):
            got, want = linalg._strip_content(row), _ref_strip_content(row)
            assert got == want, row
            assert (got is row) == (want is row)
            assert row == before
    # Every reachable (primitive, has a Fraction, has a zero) shape was met:
    # a primitive row has neither, the others all four combinations.
    assert len(seen) == 5


def _ref_combine(row, piv, lead):
    """The literal piv[lead]*row - row[lead]*piv with its content divided out."""
    a, b = row[lead], piv[lead]
    new = {}
    for c in set(row) | set(piv):
        w = b * row.get(c, 0) - a * piv.get(c, 0)
        if w:
            new[c] = w
    g = 0
    for v in new.values():
        g = gcd(g, v)
    return {c: v // g for c, v in new.items()} if g > 1 else new


def _ref_echelon(rows, lead):
    pivots = {}
    for row in rows:
        row = _ref_primitive(row)
        while row:
            col = lead(row)
            if col not in pivots:
                pivots[col] = row
                break
            row = _ref_combine(row, pivots[col], col)
    return pivots


# Leading entries: units, negatives, and values sharing factors 2, 3 and 6.
_LEADS = (1, -1, 2, -2, 3, -4, 6, -6, 9, 12, -18)


def _random_int_row(rng, ncols, lead):
    row = {c: rng.choice((0, 0) + _LEADS) for c in range(ncols)}
    row[lead] = rng.choice(_LEADS)
    return {c: v for c, v in row.items() if v}


def test_combine_matches_the_cross_multiplied_formula():
    rng = random.Random(43)
    for _ in range(400):
        ncols = rng.randint(1, 7)
        lead = rng.randrange(ncols)
        row = _random_int_row(rng, ncols, lead)
        piv = _random_int_row(rng, ncols, lead)
        before = (dict(row), dict(piv))
        got = linalg._combine(row, piv, lead)
        assert (row, piv) == before
        assert got == _ref_combine(row, piv, lead), (row, piv, lead)
        assert lead not in got


def test_echelon_pivots_match_the_cross_multiplied_elimination():
    rng = random.Random(47)
    for _ in range(80):
        ncols = rng.randint(1, 8)
        rows = [
            _random_int_row(rng, ncols, rng.randrange(ncols))
            for _ in range(rng.randint(1, 10))
        ]
        for lead in (min, max):
            assert linalg.echelon_rows(rows, lead) == _ref_echelon(rows, lead)
