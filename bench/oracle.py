"""Dimension oracle that shares no code with the package.

The invariants of degree n in S(g) (x) Lambda(p) under k = sl2 (+) centre
are counted from weights alone (Molien-Weyl; Sturmfels, *Algorithms in
Invariant Theory*, section 4.6).  A degree-n key is a monomial in the eight
symmetric letters times a wedge of distinct exterior letters; N_n(mu) counts
the keys of weight mu.  A finite-dimensional module of sl2 (+) centre has
as many trivial summands as it has weight-(0,0) vectors minus weight-E
vectors, so the invariant dimension in degree n is N_n(0,0) - N_n(1,-1).

The second count is the Hilbert series of the claimed free module: the
polynomial ring in a, b, c, d (degrees 1, 2, 2, 3) times sixteen module
generators.  Both counts are written here from the paper's data, not read
from the package.
"""

from __future__ import annotations

# (H1, H2)-weight of each basis letter of sl3.
WEIGHTS = {
    "H1": (0, 0), "H2": (0, 0), "E": (1, -1), "F": (-1, 1),
    "E1": (1, 0), "E2": (0, 1), "F1": (-1, 0), "F2": (0, -1),
}
SYMMETRIC_LETTERS = ("H1", "H2", "E", "F", "E1", "E2", "F1", "F2")
EXTERIOR_LETTERS = ("E1", "E2", "F1", "F2")
WEIGHT_OF_E = WEIGHTS["E"]

POLYNOMIAL_DEGREES = (1, 2, 2, 3)  # a, b, c, d
MODULE_GENERATOR_DEGREES = (0, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5)


def weight_counts(max_degree: int) -> list:
    """counts[n][mu]: number of degree-n keys of weight mu, for n <= max_degree."""
    counts = [dict() for _ in range(max_degree + 1)]
    counts[0][(0, 0)] = 1
    for letter in SYMMETRIC_LETTERS:
        w1, w2 = WEIGHTS[letter]
        # Unbounded multiplicity: the new layer n draws on the new layer n-1.
        for n in range(1, max_degree + 1):
            layer = counts[n]
            for (a, b), c in counts[n - 1].items():
                key = (a + w1, b + w2)
                layer[key] = layer.get(key, 0) + c
    for letter in EXTERIOR_LETTERS:
        w1, w2 = WEIGHTS[letter]
        # Multiplicity at most one: draw on the old layer n-1.
        for n in range(max_degree, 0, -1):
            layer = counts[n]
            for (a, b), c in counts[n - 1].items():
                key = (a + w1, b + w2)
                layer[key] = layer.get(key, 0) + c
    return counts


def invariant_dimensions(max_degree: int) -> list:
    """dims[n] = N_n(0,0) - N_n(weight of E), for n <= max_degree."""
    return [
        layer.get((0, 0), 0) - layer.get(WEIGHT_OF_E, 0)
        for layer in weight_counts(max_degree)
    ]


def product_counts(max_degree: int) -> list:
    """Coefficients of the Hilbert series of C[a,b,c,d] times the sixteen
    module generators, up to max_degree."""
    series = [0] * (max_degree + 1)
    for d in MODULE_GENERATOR_DEGREES:
        if d <= max_degree:
            series[d] += 1
    for d in POLYNOMIAL_DEGREES:
        for n in range(d, max_degree + 1):
            series[n] += series[n - d]
    return series


if __name__ == "__main__":
    import time

    start = time.perf_counter()
    dims = invariant_dimensions(40)
    products = product_counts(40)
    print("degree  weight-count  product-count")
    for n, (x, y) in enumerate(zip(dims, products)):
        print("%6d  %12d  %13d" % (n, x, y))
    print("agree through degree 40: %s (%.3f s)"
          % (dims == products, time.perf_counter() - start))
