"""Graded invariant computations in S(g) (x) Lambda(p).

K is connected, so K-invariance is k-invariance, and a weight-(0,0)
vector killed by the raising operator E generates a trivial module of the
semisimple part of k.  The invariants of each degree are therefore
computed as ker ad(E) restricted to the weight-(0,0) slice, whose keys are
enumerated directly rather than filtered out of the whole degree;
annihilation by all four k-generators is re-verified on every returned
element rather than assumed, and a failure is a FAIL check of the table.

ad(E) replaces one letter at a time and preserves the split of a key into
(k-letters, symmetric E1/E2 letters, symmetric F1/F2 letters, exterior
E-letters, exterior F-letters), so the kernel computation decomposes into
independent blocks over that signature; this is what keeps the degree-8
slice (tens of thousands of monomials) tractable.  Each block kernel comes
out of ``linalg.kernel_of_rows`` in reduced echelon form, and the blocks
occupy disjoint columns numbered in slice order, so sorting the kernel
vectors by their smallest column yields the reduced echelon basis of the
whole kernel with no global reduction.  The blocked kernel is
cross-checked against an unblocked joint-kernel computation in the tests.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import dirac, lie, linalg, symext
from .report import CheckResult, VerificationReport
from .symext import SymTensorElement


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def graded_keys(n: int, weight) -> tuple:
    """The degree-n keys of weight (w1, w2), enumerated directly, in the
    fixed deterministic order (lexicographic exponents, then mask).

    H1 and H2 have weight zero and F1, F2 have weights (-1, 0), (0, -1),
    so once the mask and the exponents of E, F, E1, E2 are chosen, the two
    weight equations

        w1 = E - F + E1 - F1 + (weight of the mask)[0]
        w2 = F - E + E2 - F2 + (weight of the mask)[1]

    fix the exponents of F1 and F2, and the degree left over is split
    between H1 and H2.  Every key has integral weight.
    """
    w1, w2 = weight
    if w1 != int(w1) or w2 != int(w2):
        return ()
    w1, w2 = int(w1), int(w2)
    keys = []
    for mask in range(16):
        sym_deg = n - mask.bit_count()
        if sym_deg < 0:
            continue
        letters = [lie.WEIGHTS[lie.E1 + k] for k in range(4) if mask >> k & 1]
        t1 = w1 - sum(w.h1 for w in letters)
        t2 = w2 - sum(w.h2 for w in letters)
        for e in range(sym_deg + 1):
            for f in range(sym_deg - e + 1):
                for e1 in range(max(0, t1 - e + f), sym_deg - e - f + 1):
                    f1 = e - f + e1 - t1
                    left = sym_deg - e - f - e1 - f1
                    if left < 0:
                        break
                    for e2 in range(max(0, t2 + e - f), left + 1):
                        f2 = f - e + e2 - t2
                        rest = left - e2 - f2
                        if rest < 0:
                            break
                        for h1 in range(rest + 1):
                            keys.append(((h1, rest - h1, e, f, e1, e2, f1, f2), mask))
    keys.sort()
    return tuple(keys)


def module_table(n: int) -> int:
    """Invariant count of the harmonic-times-exterior layer in degree n."""
    if n == 0:
        return 1
    if n == 1:
        return 0
    if n == 2:
        return 3
    return 8 if n % 3 == 2 else 4


def polynomial_layer_dim(n: int) -> int:
    """Number of monomials in three variables of degrees 1, 2, 2 adding to n."""
    half = n // 2
    return (half + 1) * (half + 2) // 2


def expected_dimension(n: int) -> int:
    """Invariant dimension in degree n: the layer table convolved with the
    polynomial layer."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return sum(module_table(k) * polynomial_layer_dim(n - k) for k in range(n + 1))


def _signature(key):
    exps, mask = key
    return (
        exps[0] + exps[1] + exps[2] + exps[3],
        exps[4] + exps[5],
        exps[6] + exps[7],
        (mask & 0b0011).bit_count(),
        (mask & 0b1100).bit_count(),
    )


def _single(key) -> SymTensorElement:
    return SymTensorElement({key: 1})


def rows_from_elements(elements, key_order=None):
    """Coordinate rows of elements over a deterministic key order."""
    if key_order is None:
        keys = sorted({k for x in elements for k in x.coeffs})
    else:
        keys = list(key_order)
    index = {k: i for i, k in enumerate(keys)}
    rows = [
        {index[k]: v for k, v in x.coeffs.items()} for x in elements
    ]
    return rows, keys


def rank_of_elements(elements) -> int:
    rows, _ = rows_from_elements(elements)
    return linalg.rank_of_rows(rows)


class InvarianceError(ArithmeticError):
    """A computed kernel element is not annihilated by all of k."""


def _ad_e_kernel(n: int) -> tuple:
    """Echelon basis of ker ad(E) on the degree-n weight-(0,0) slice."""
    src = graded_keys(n, lie.Weight(0, 0))
    if not src:
        return ()
    e_vec = lie.gvec(lie.E)
    blocks = {}
    for key in src:
        blocks.setdefault(_signature(key), []).append(key)

    col_of = {key: i for i, key in enumerate(src)}
    kernel_vectors = []
    for sig in sorted(blocks):
        block = blocks[sig]
        target_rows = {}
        for local, key in enumerate(block):
            image = symext.ad_action(e_vec, _single(key))
            for tkey, v in image.coeffs.items():
                target_rows.setdefault(tkey, {})[local] = v
        rows = [target_rows[t] for t in sorted(target_rows)]
        for vec in linalg.kernel_of_rows(rows, len(block)):
            kernel_vectors.append({col_of[block[c]]: v for c, v in vec.items()})

    # Each block kernel is in reduced echelon form and the blocks have
    # disjoint columns numbered in slice order, so the union is the reduced
    # echelon form of the whole kernel once it is put in lead order.
    kernel_vectors.sort(key=min)
    return tuple(
        SymTensorElement({src[c]: v for c, v in vec.items()})
        for vec in kernel_vectors
    )


@lru_cache(maxsize=None)
def _invariant_subspace_cached(n: int) -> tuple:
    """(ker ad(E) basis, one line per element some k-generator does not kill)."""
    basis = _ad_e_kernel(n)
    failures = []
    for idx, x in enumerate(basis):
        names = [
            lie.BASIS_NAMES[gi]
            for gi in lie.K_INDICES
            if not symext.ad_action(lie.gvec(gi), x).is_zero()
        ]
        if names:
            failures.append(
                "degree-%d kernel element %d is not annihilated by %s"
                % (n, idx, ", ".join(names))
            )
    return basis, tuple(failures)


def invariant_subspace(n: int) -> list:
    """Echelon-normalized basis of the degree-n K-invariants.

    Every element is re-checked against all four k-generators; a failure
    raises InvarianceError.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    basis, failures = _invariant_subspace_cached(n)
    if failures:
        raise InvarianceError("; ".join(failures))
    return list(basis)


def verify_table(max_degree: int = 8) -> VerificationReport:
    checks = []
    for n in range(max_degree + 1):
        expect = expected_dimension(n)
        try:
            got = len(invariant_subspace(n))
            residual = None if got == expect else "computed dimension %d" % got
        except InvarianceError as err:
            residual = str(err)
        checks.append(
            CheckResult(
                "degree-%d" % n,
                "dim of degree-%d invariants = %d" % (n, expect),
                residual is None,
                residual,
            )
        )
    return VerificationReport("table", {"max_degree": max_degree}, checks)


def _lowering_span(highest: SymTensorElement, steps: int) -> list:
    """highest together with its iterated images under ad(F)."""
    f_vec = lie.gvec(lie.F)
    out = [highest]
    cur = highest
    for _ in range(steps):
        cur = symext.ad_action(f_vec, cur)
        if cur.is_zero():
            break
        out.append(cur)
    return out


def _span_is_stable(elements) -> bool:
    rows, keys = rows_from_elements(elements)
    pivots = linalg.echelon_rows(rows)
    index = {k: i for i, k in enumerate(keys)}
    for gi in lie.K_INDICES:
        z = lie.gvec(gi)
        for x in elements:
            image = symext.ad_action(z, x)
            row = {}
            for k, v in image.coeffs.items():
                if k not in index:
                    return False
                row[index[k]] = v
            if linalg.reduce_against(pivots, row):
                return False
    return True


def _sym_power_family(gens, n: int) -> list:
    """All degree-n products of the given degree-1 commuting elements."""
    out = []
    for exps in _compositions(n, len(gens)):
        x = symext.one()
        for g, e in zip(gens, exps):
            x = x * g ** e
        out.append(x)
    return out


def verify_sym_k_decomposition(n: int) -> VerificationReport:
    """Degree-n symmetric power of the semisimple part of k splits as the
    top sl(2)-string plus b times the (n-2)nd power."""
    if n < 2:
        raise ValueError("the decomposition starts at degree 2")
    h = symext.from_gvector(lie.H_VEC)
    e = symext.sym_gen(lie.E)
    f = symext.sym_gen(lie.F)
    b = symext.named_invariants().b

    full = _sym_power_family((h, e, f), n)
    dim_full = rank_of_elements(full)
    want_full = comb(n + 2, 2)

    top = e ** n
    ad_e_kills = symext.ad_action(lie.gvec(lie.E), top).is_zero()
    w = symext.key_weight(next(iter(top.coeffs)))
    weight_ok = (w.h1 - w.h2) == 2 * n

    string = _lowering_span(top, 2 * n + 1)
    dim_string = rank_of_elements(string)

    lower = [b * x for x in _sym_power_family((h, e, f), n - 2)]
    dim_lower = rank_of_elements(lower)

    dim_sum = rank_of_elements(string + lower)

    checks = [
        CheckResult(
            "sym-k-%d-dims" % n,
            "dims %d + %d = %d in degree %d" % (2 * n + 1, comb(n, 2), want_full, n),
            dim_full == want_full
            and dim_string == 2 * n + 1
            and dim_lower == comb(n, 2),
            "got %d, %d, %d" % (dim_full, dim_string, dim_lower),
        ),
        CheckResult(
            "sym-k-%d-highest-weight" % n,
            "E^%d is a highest weight vector of weight %d" % (n, 2 * n),
            ad_e_kills and weight_ok,
        ),
        CheckResult(
            "sym-k-%d-direct-sum" % n,
            "top string and b-multiples meet trivially and fill the space",
            dim_sum == dim_string + dim_lower == want_full,
            "combined rank %d" % dim_sum,
        ),
    ]
    return VerificationReport("sym-k-%d" % n, {"n": n}, checks)


def verify_sym_p_decomposition(n: int) -> VerificationReport:
    """Degree-n symmetric power of p splits as the highest-weight modules
    generated by E1^(n-i) F2^i plus c times the (n-2)nd power."""
    if n < 2:
        raise ValueError("the decomposition starts at degree 2")
    gens = tuple(symext.sym_gen(i) for i in lie.P_INDICES)
    c = symext.named_invariants().c

    full = _sym_power_family(gens, n)
    dim_full = rank_of_elements(full)
    want_full = comb(n + 3, 3)

    hw_ok = True
    strings = []
    e1, f2 = symext.sym_gen(lie.E1), symext.sym_gen(lie.F2)
    for i in range(n + 1):
        v = e1 ** (n - i) * f2 ** i
        if not symext.ad_action(lie.gvec(lie.E), v).is_zero():
            hw_ok = False
        if symext.key_weight(next(iter(v.coeffs))) != (n - i, -i):
            hw_ok = False
        strings.extend(_lowering_span(v, n + 1))
    dim_strings = rank_of_elements(strings)

    lower = [c * x for x in _sym_power_family(gens, n - 2)]
    dim_lower = rank_of_elements(lower)
    dim_sum = rank_of_elements(strings + lower)

    checks = [
        CheckResult(
            "sym-p-%d-dims" % n,
            "dims %d + %d = %d in degree %d"
            % ((n + 1) ** 2, comb(n + 1, 3), want_full, n),
            dim_full == want_full
            and dim_strings == (n + 1) ** 2
            and dim_lower == comb(n + 1, 3),
            "got %d, %d, %d" % (dim_full, dim_strings, dim_lower),
        ),
        CheckResult(
            "sym-p-%d-highest-weights" % n,
            "E1^(%d-i) F2^i is a highest weight vector of weight (%d-i, -i)"
            % (n, n),
            hw_ok,
        ),
        CheckResult(
            "sym-p-%d-direct-sum" % n,
            "highest-weight strings and c-multiples meet trivially and fill",
            dim_sum == dim_strings + dim_lower == want_full,
            "combined rank %d" % dim_sum,
        ),
    ]
    return VerificationReport("sym-p-%d" % n, {"n": n}, checks)


def _wedge(*indices) -> SymTensorElement:
    out = symext.one()
    for i in indices:
        out = out * symext.ext_gen(i)
    return out


def verify_ext_decomposition() -> VerificationReport:
    """The sixteen-dimensional exterior algebra of p splits into ten
    k-submodules with the stated highest weights."""
    E1, E2, F1, F2 = lie.E1, lie.E2, lie.F1, lie.F2
    pieces = [
        ("deg0-trivial", [symext.one()], (0, 0)),
        ("deg2-trivial", [_wedge(E1, F1) + _wedge(E2, F2)], (0, 0)),
        ("deg4-trivial", [_wedge(E1, E2, F1, F2)], (0, 0)),
        ("deg1-(1,0)", [_wedge(E1), _wedge(E2)], (1, 0)),
        ("deg3-(1,0)", [_wedge(E1, E2, F2), _wedge(E1, E2, F1)], (1, 0)),
        ("deg1-(0,-1)", [_wedge(F2), _wedge(F1)], (0, -1)),
        ("deg3-(0,-1)", [_wedge(E1, F1, F2), _wedge(E2, F1, F2)], (0, -1)),
        ("deg2-(1,1)", [_wedge(E1, E2)], (1, 1)),
        ("deg2-(-1,-1)", [_wedge(F1, F2)], (-1, -1)),
        (
            "deg2-(1,-1)",
            [_wedge(E1, F2), _wedge(E2, F2) - _wedge(E1, F1), _wedge(E2, F1)],
            (1, -1),
        ),
    ]
    checks = []
    all_vectors = []
    for name, span, hw in pieces:
        all_vectors.extend(span)
        stable = _span_is_stable(span)
        top = span[0]
        hw_ok = symext.ad_action(lie.gvec(lie.E), top).is_zero()
        hw_ok = hw_ok and symext.key_weight(next(iter(top.coeffs))) == hw
        string = _lowering_span(top, len(span) + 1)
        generates = rank_of_elements(string) == len(span) == rank_of_elements(span)
        checks.append(
            CheckResult(
                "ext-%s" % name,
                "span is ad(k)-stable with highest weight %s and dim %d"
                % (hw, len(span)),
                stable and hw_ok and generates,
            )
        )
    total = rank_of_elements(all_vectors)
    checks.append(
        CheckResult(
            "ext-total",
            "the ten pieces are independent and fill all 16 dimensions",
            total == 16,
            None if total == 16 else "combined rank %d" % total,
        )
    )
    return VerificationReport("ext-decomposition", {}, checks)


@lru_cache(maxsize=None)
def product_basis_members(n: int) -> tuple:
    """Degree-n members of the product family: monomials in a, b, c, d
    times one of the sixteen module generators, as (label, element)."""
    family = symext.named_invariants().product_family(n, n)
    return tuple((label, x) for label, x, _ in family)


def verify_product_basis(max_degree: int = 8) -> VerificationReport:
    checks = []
    for n in range(max_degree + 1):
        members = product_basis_members(n)
        expect = expected_dimension(n)
        problems = []
        if len(members) != expect:
            problems.append("count %d != %d" % (len(members), expect))
        for label, x in members:
            for gi in lie.K_INDICES:
                if not symext.ad_action(lie.gvec(gi), x).is_zero():
                    problems.append("%s is not invariant under %s"
                                    % (label, lie.BASIS_NAMES[gi]))
                    break
        rank = rank_of_elements([x for _, x in members])
        if rank != len(members):
            problems.append("rank %d < count %d" % (rank, len(members)))
        checks.append(
            CheckResult(
                "product-basis-degree-%d" % n,
                "the %d degree-%d products are invariant and independent"
                % (expect, n),
                not problems,
                "; ".join(problems) if problems else None,
            )
        )
    return VerificationReport("st-basis", {"max_degree": max_degree}, checks)


@lru_cache(maxsize=None)
def lifted_product_members(max_degree: int) -> tuple:
    """Lifted products of total degree up to the bound, as (label, element,
    degree), by degree and then label."""
    family = dirac.lifted_generators().product_family(0, max_degree, "~")
    return tuple(sorted(family, key=lambda item: (item[2], item[0])))


def verify_lifted_basis_slice(max_filtration: int = 4) -> VerificationReport:
    checks = []
    lift = dirac.lifted_generators()
    t_elements = [x for _, x in lift.t_products()]
    rows, _ = rows_from_elements(t_elements)
    t_rank = linalg.rank_of_rows(rows)
    checks.append(
        CheckResult(
            "t-basis-rank",
            "the sixteen module generators are linearly independent",
            t_rank == 16,
            None if t_rank == 16 else "rank %d" % t_rank,
        )
    )
    members = lifted_product_members(max_filtration)
    for m in range(max_filtration + 1):
        upto = [x for _, x, deg in members if deg <= m]
        count = len(upto)
        rows, _ = rows_from_elements(upto)
        rank = linalg.rank_of_rows(rows)
        expect = sum(expected_dimension(k) for k in range(m + 1))
        checks.append(
            CheckResult(
                "products-rank-le-%d" % m,
                "all %d lifted products of degree <= %d are independent"
                % (expect, m),
                rank == count == expect,
                None if rank == count == expect
                else "count %d, rank %d" % (count, rank),
            )
        )
    return VerificationReport(
        "uc-basis", {"max_filtration": max_filtration}, checks
    )


MAX_SLICE_BOUND = 4


def check_slice_bound(bound: int) -> None:
    """Reject an ideal-slice bound above MAX_SLICE_BOUND."""
    if bound > MAX_SLICE_BOUND:
        raise ValueError("slice bound is capped at %d" % MAX_SLICE_BOUND)


def verify_ideal_slice(bound: int = 3) -> VerificationReport:
    """Products u D v cannot meet the pure-k coordinate subspace.

    Every key of D carries a p-letter in its U-leg; the same must hold for
    the whole two-sided slice of the ideal, checked by comparing the rank
    of the slice with the rank of its projection away from the pure-k
    coordinates.
    """
    check_slice_bound(bound)
    D = dirac.dirac_operator()
    checks = [
        CheckResult(
            "dirac-p-support",
            "every summand of D has a p-letter in the U-leg",
            all(any(e[4:]) for (e, _m) in D.coeffs),
        )
    ]
    members = lifted_product_members(bound)
    products = []
    for _, u, du in members:
        for _, v, dv in members:
            if du + dv <= bound:
                products.append(u * D * v)
    rows, keys = rows_from_elements(products)
    full_rank = linalg.rank_of_rows(rows)
    keep = {i for i, (e, _m) in enumerate(keys) if any(e[4:])}
    projected = [{c: v for c, v in row.items() if c in keep} for row in rows]
    proj_rank = linalg.rank_of_rows(projected)
    checks.append(
        CheckResult(
            "slice-rank-bound-%d" % bound,
            "the %d products u D v meet the pure-k subspace trivially"
            % len(products),
            full_rank == proj_rank,
            None if full_rank == proj_rank
            else "rank drops from %d to %d" % (full_rank, proj_rank),
        )
    )
    return VerificationReport("ideal-slice", {"max_filtration": bound}, checks)
