"""Seeded algebra-property checks on random elements.

Random elements of S(g) (x) Lambda(p) and U(g) (x) C(p) are built from a
seeded generator; the package only receives them and multiplies.  Checked:
associativity, the unit on both sides, and both distributive laws.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO_EXPS = (0,) * 8
TRIPLES_PER_ALGEBRA = 2
EXTRA_TERMS = 2


def _coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _exps(*letters):
    exps = [0] * 8
    for i in letters:
        exps[i] += 1
    return tuple(exps)


def _element(cls, rng):
    """The constant and every basis letter of g, each with a random exterior
    or Clifford part, plus a few random quadratic terms: every triple of
    letters then meets in a product, so a wrong bracket or sign shows."""
    keys = [(_exps(*letters), rng.randrange(16)) for letters in [()] + [(i,) for i in range(8)]]
    keys += [(_exps(rng.randrange(8), rng.randrange(8)), rng.randrange(16))
             for _ in range(EXTRA_TERMS)]
    return cls({key: _coefficient(rng) for key in keys})


def check(seed: int) -> tuple:
    """Run the property checks; returns (number checked, failure messages)."""
    from su21_invariants.dirac import UCElement
    from su21_invariants.symext import SymTensorElement

    rng = random.Random(seed)
    checked = 0
    failures = []
    for label, cls in (("S(g)(x)L(p)", SymTensorElement), ("U(g)(x)C(p)", UCElement)):
        unit = cls({(ZERO_EXPS, 0): 1})
        for trial in range(TRIPLES_PER_ALGEBRA):
            x, y, z = (_element(cls, rng) for _ in range(3))
            laws = (
                ("associativity", (x * y) * z == x * (y * z)),
                ("left unit", unit * x == x),
                ("right unit", x * unit == x),
                ("left distributivity", x * (y + z) == x * y + x * z),
                ("right distributivity", (x + y) * z == x * z + y * z),
            )
            for law, holds in laws:
                checked += 1
                if not holds:
                    failures.append("%s %s fails on trial %d (seed %d)"
                                    % (label, law, trial, seed))
    return checked, failures
