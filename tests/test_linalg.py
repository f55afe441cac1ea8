"""Exact elimination: ranks, kernels and solves, cross-checked directly."""

import random
from fractions import Fraction

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


def test_membership_reduction():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    pivots = linalg.echelon_rows(rows)
    assert not linalg.reduce_against(pivots, {0: 1, 2: -1})
    assert linalg.reduce_against(pivots, {0: 1, 2: 1})
