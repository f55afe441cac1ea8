"""Graded invariant computations in S(g) (x) Lambda(p).

K is connected, so K-invariance is k-invariance, and a weight-(0,0)
vector killed by the raising operator E generates a trivial module of the
semisimple part of k.  The invariants of each degree are therefore
computed as ker ad(E) restricted to the weight-(0,0) slice, whose keys are
enumerated directly rather than filtered out of the whole degree;
annihilation by all four k-generators is re-verified on every returned
element rather than assumed, and a failure is a FAIL check of the table.

H1 and H2 act on a key by its weight, so they kill every key of the
slice.  E and F are applied once to each key of the slice, and the images
are kept per degree as compressed sparse tables (``_slice_action``).  The
re-check of the kernel and of the ``st-basis`` products applies them by
linearity: the same action, read per key instead of recomputed per
element.  An element with a key off the slice is re-checked against all
four generators through ``symext.ad_action``.

ad(E) replaces one letter at a time and preserves the split of a key into
(k-letters, symmetric E1/E2 letters, symmetric F1/F2 letters, exterior
E-letters, exterior F-letters), so the row of one target key holds keys
of one signature only, and rows of two signatures share no column.  The
sparse echelon combines a row only with pivots on its own columns, so one
elimination of all rows makes the same combinations, in the same order,
as one elimination per signature would.  Each degree's kernel is built
from the one below (``_next_kernel``).  In the letters a = H1 + H2 and
H = H1 - H2 the degree-n slice is a S^(n-1) (+) (its a-free part), and
ad(E) keeps both summands: a spans the centre of k, so
ad(E)(a x) = a ad(E) x, and on the a-free part [E, H] = -2E and
[E, F] = H never make an a.  So the kernel in degree n is a times the
kernel of degree n - 1 plus the kernel on the a-free part, whose keys are
the keys with h1 = 0 read with slot 1 as the power of H; only that part
is eliminated, with one call of ``linalg.kernel_of_rows``.  Two lemmas
make one reduction pass turn the union into the reduced echelon basis for
the slice order:

* lead(a x) = H2 lead(x): every H1 k has a larger h1 than every H2 k',
  and H2 keeps the key order.  By induction every lead has h1 = 0, and
  a k is zero at every lead but its own: at another old lead H2 g' it
  reads k at g', a lead of the degree below, and every key of a k has
  h1 + h2 >= 1, unlike the leads of the a-free part.
* A nonzero a-free kernel vector x has an H-free term: if x = H w, then
  ad(E) x = -2E w + H ad(E) w, whose H-free part -2E w0 is nonzero unless
  w has no H-free part w0 either; descend.  The expansion
  H^h = sum_j C(h, j) H1^j (-H2)^(h-j) moves only the terms with H, so
  the lead of an expanded a-free vector is its smallest H-free key, which
  the other a-free kernel vectors do not meet.

Each expanded a-free vector is therefore reduced once against the a k
whose leads it meets, in integers, and divided by its lead; the result is
the unique reduced echelon basis that eliminating the whole slice gives,
which the tests keep as the reference, and the kernel is also
cross-checked there against the joint kernel of all four k-generators on
every key of the degree.  The kernel of every degree built is kept, so a
call for any degree builds only the degrees above the highest one built
before.

The expected dimensions read the paper's free-module theorem: the
invariants are free over C[a, b, c, d] on sixteen generators, so
``expected_dimension`` is a coefficient of the Hilbert series P/D of a
Hironaka decomposition (Sturmfels, *Algorithms in Invariant Theory*).

The lifted product family of ``uc-basis`` is checked at every filtration
step with one echelon carried across the steps: the degree-m rows extend
the echelon of the lower degrees, and its size after step m is the rank
of all members of degree <= m.  No rank is recomputed from scratch.  The
rows are the members' own coefficient dicts, eliminated on their key of
highest filtration degree first.  That top-degree part of a lifted member
is its ``st-basis`` member, the symbol of the ``gr`` argument (Huang and
Pandzic, Dirac Operators in Representation Theory, 2006), so rows of
one degree rarely meet: most members are primitive and become pivots
as they are, and no second copy of the members sits beside the members
and the echelon.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm, prod

from . import dirac, lie, linalg, symext
from .report import CheckResult, VerificationReport
from .symext import SymTensorElement


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


# The degrees of the sixteen module generators and of a, b, c, d, as the
# paper gives them; the ``st-basis`` count reads these, not the family.
_GENERATOR_DEGREES = (0, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5)
_POLYNOMIAL_DEGREES = (1, 2, 2, 3)


def expected_dimension(n: int) -> int:
    """Invariant dimension in degree n: [t^n] P/D, the Hilbert series of
    the free module, with P(t) = 1 + 3t^2 + 3t^3 + 4t^4 + 5t^5 from the
    generator degrees and D(t) = (1-t)(1-t^2)^2(1-t^3) from a, b, c, d.
    The series is seeded with P and divided by each factor 1 - t^d."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    series = [0] * (n + 1)
    for d in _GENERATOR_DEGREES:
        if d <= n:
            series[d] += 1
    for d in _POLYNOMIAL_DEGREES:
        for k in range(d, n + 1):
            series[k] += series[k - d]
    return series[n]


def rank_of_elements(elements) -> int:
    """Rank of elements, eliminated on their own coefficient dicts, which
    the elimination reads and never modifies."""
    return linalg.rank_of_rows([x.coeffs for x in elements])


# (name, vector) of the k-generators H1, H2, E, F.
_K_GENERATORS = tuple((lie.BASIS_NAMES[gi], lie.gvec(gi)) for gi in lie.K_INDICES)


@lru_cache(maxsize=None)
def _slice_action(n: int) -> tuple:
    """The action of E and F on the degree-n weight-(0,0) slice, one pass
    per key.  H1 and H2 act on a key by its weight, which is 0 on every
    key of the slice (``graded_keys``), so they have no table.

    Returns (keys, column of each key, tables): tables maps "E" and "F" to
    the images of the keys in compressed sparse rows (starts, targets,
    coeffs), three ``array``s of C ints.  The image of key c is the sum of
    coeffs[t] times the target numbered targets[t], over starts[c] <= t <
    starts[c + 1].  Target ids are local to the degree and the generator
    and numbered in the order first seen, since the re-check only asks
    whether an image is zero.  The tables feed only the re-check
    (``_not_annihilating``); the kernel reads the a-free action of
    ``_a_free_e_images`` instead.
    """
    keys = graded_keys(n, lie.Weight(0, 0))
    tables = {}
    for name, z in _K_GENERATORS[2:]:  # E and F
        target_id = {}
        starts, targets, coeffs = array("i", [0]), array("i"), array("i")
        for terms in symext.ad_images(z, keys):
            for t, v in terms:
                targets.append(target_id.setdefault(t, len(target_id)))
                coeffs.append(v)
            starts.append(len(targets))
        tables[name] = (starts, targets, coeffs)
    return keys, {key: c for c, key in enumerate(keys)}, tables


def _not_annihilating(x: SymTensorElement, n: int) -> list:
    """Names of the k-generators whose action on x is not zero; all four
    are applied.  An x on the degree-n slice has weight 0, which H1 and H2
    kill, and is mapped by E and F by linearity through the tables of
    ``_slice_action``; any other x goes through ``symext.ad_action``.
    """
    _, col_of, tables = _slice_action(n)
    try:
        cols = [(col_of[key], v) for key, v in x.coeffs.items()]
    except KeyError:
        return [
            name for name, z in _K_GENERATORS if not symext.ad_action(z, x).is_zero()
        ]
    names = []
    for name, (starts, targets, coeffs) in tables.items():
        image = {}
        get = image.get
        for c, v in cols:
            for t in range(starts[c], starts[c + 1]):
                tid = targets[t]
                image[tid] = get(tid, 0) + v * coeffs[t]
        if any(image.values()):
            names.append(name)
    return names


class InvarianceError(ArithmeticError):
    """A computed kernel element is not annihilated by all of k."""


_E_VEC = lie.gvec(lie.E)


def _a_free_e_images(keys):
    """ad(E) on a-free keys in the sl2 basis, one list of (key, coeff) per key.

    A key with h1 = 0 is read as H^h E^e F^f times its p-letters, with
    H = H1 - H2 and h its slot 1, and so is every key of its image:
    [E, H] = -2E and [E, F] = H, so ad(E) H^h = -2h H^(h-1) E and
    ad(E) F^f = f F^(f-1) H never make an a.  The moves of the p-letters
    keep the k-letters and come from ``symext.ad_images``.
    """
    for key, terms in zip(keys, symext.ad_images(_E_VEC, keys)):
        exps, mask = key
        k_part = exps[:4]
        out = [t for t in terms if t[0][0][:4] == k_part]
        _, h, e, f = k_part
        rest = exps[4:]
        if h:
            out.append((((0, h - 1, e + 1, f) + rest, mask), -2 * h))
        if f:
            out.append((((0, h + 1, e, f - 1) + rest, mask), f))
        yield out


@lru_cache(maxsize=None)
def _h_power(h: int) -> tuple:
    """H^h = sum_j C(h, j) H1^j (-H2)^(h-j), as the pairs (j, coefficient)."""
    return tuple((j, (-1) ** (h - j) * comb(h, j)) for j in range(h + 1))


def _next_kernel(n: int, below) -> tuple:
    """ker ad(E) on the degree-n slice from ``below``, that of degree n - 1;
    both as reduced echelon bases in lead order, where the lead of a vector
    is its smallest key.
    """
    keys, col_of, _ = _slice_action(n)
    # The old part: a k for each k below, through the key maps of H1 and H2
    # onto the slice keys; a k has its lead at H2 lead(k) and is zero at
    # every other lead.
    old = {}
    if n:
        up1, up2 = {}, {}
        for key in _slice_action(n - 1)[0]:
            exps, mask = key
            up1[key] = keys[col_of[((exps[0] + 1,) + exps[1:], mask)]]
            up2[key] = keys[col_of[((exps[0], exps[1] + 1) + exps[2:], mask)]]
        for x in below:
            coeffs = x.coeffs
            out = dict(zip(map(up2.__getitem__, coeffs), coeffs.values()))
            linalg.add_terms(out, zip(map(up1.__getitem__, coeffs), coeffs.values()))
            old[up2[min(coeffs)]] = SymTensorElement(out)

    # The new part: the kernel of ad(E) on the a-free keys in the sl2 basis,
    # one row per target key in key order, expanded into H1, H2 and reduced
    # against the old part at the old leads it meets.
    afree = [key for key in keys if not key[0][0]]
    target_rows = {}
    for local, terms in enumerate(_a_free_e_images(afree)):
        for t, u in terms:
            target_rows.setdefault(t, {})[local] = u
    rows = [target_rows[t] for t in sorted(target_rows)]
    new = []
    for vec in linalg.kernel_of_rows(rows, len(afree)):
        # Scaled to integers, with den at the lead, and divided by den once
        # reduced.  Two keys of vec differ in h1 + h2 or in a later slot, so
        # their expansions share no key.
        den = lcm(*(v.denominator for v in vec.values() if type(v) is not int))
        out = {}
        for local, v in vec.items():
            v = v * den if type(v) is int else v.numerator * (den // v.denominator)
            key = afree[local]
            exps, mask = key
            h = exps[1]
            if not h:
                out[key] = v
                continue
            rest = exps[2:]
            for j, b in _h_power(h):
                out[keys[col_of[((j, h - j) + rest, mask)]]] = b * v
        for lead in [k for k in out if k in old]:
            linalg.add_terms(out, old[lead].coeffs.items(), -out[lead])
        if den != 1:
            out = {
                k: v // den if not v % den else Fraction(v, den)
                for k, v in out.items()
            }
        new.append((afree[min(vec)], SymTensorElement(out)))
    kernel = new + list(old.items())
    kernel.sort(key=lambda item: item[0])
    return tuple(x for _, x in kernel)


@lru_cache(maxsize=None)
def _ad_e_kernel(n: int) -> tuple:
    """Reduced echelon basis of ker ad(E) on the degree-n weight-(0,0)
    slice, in lead order, built from that of degree n - 1 and kept per
    degree."""
    return _next_kernel(n, _ad_e_kernel(n - 1) if n else ())


def invariant_subspace(n: int) -> list:
    """Echelon-normalized basis of the degree-n K-invariants.

    Every element is re-checked on every call against all four
    k-generators by ``_not_annihilating``: on the weight-(0,0) slice H1
    and H2 by the weight of its keys and E and F through the slice tables,
    off the slice through ``symext.ad_action``.  A failure raises
    InvarianceError.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    basis = _ad_e_kernel(n)
    failures = []
    for idx, x in enumerate(basis):
        names = _not_annihilating(x, n)
        if names:
            failures.append(
                "degree-%d kernel element %d is not annihilated by %s"
                % (n, idx, ", ".join(names))
            )
    if failures:
        raise InvarianceError("; ".join(failures))
    return list(basis)


def verify_table(max_degree: int) -> VerificationReport:
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


def _highest_weight_string(v: SymTensorElement, weight) -> tuple:
    """(v is nonzero, killed by ad(E), and every one of its terms has the
    stated weight; its ad(F)-string).

    A highest weight vector of weight (w1, w2) has w1 - w2 + 1 terms in its
    string v, ad(F) v, ...; no more lowering steps than that are taken.
    """
    highest = (
        not v.is_zero()
        and symext.ad_action(lie.gvec(lie.E), v).is_zero()
        and all(symext.key_weight(key) == weight for key in v.coeffs)
    )
    string = [v]
    for _ in range(weight[0] - weight[1] + 1):
        lowered = symext.ad_action(lie.gvec(lie.F), string[-1])
        if lowered.is_zero():
            break
        string.append(lowered)
    return highest, string


def _is_ad_k_stable(span) -> bool:
    """The images of the span under the k-generators add nothing to its rank."""
    images = [symext.ad_action(z, x) for _, z in _K_GENERATORS for x in span]
    return rank_of_elements(span + images) == rank_of_elements(span)


def _sym_power_family(gens, n: int) -> list:
    """All degree-n products of the given degree-1 commuting elements, one
    per multiset of n letters."""
    return [
        prod(word, start=symext.one())
        for word in combinations_with_replacement(gens, n)
    ]


def _verify_sym_decomposition(suite, n, letters, invariant, highest, anchors):
    """S^n of the span of the letters is the direct sum of the ad(F)-strings
    of ``highest()``, a list of (vector, weight), and the invariant times
    S^(n-2).  With r letters, S^n has dimension C(n+r-1, n), the multiples
    C(n+r-3, n-2), and the strings the difference.  ``anchors`` holds the id
    suffix and anchor of the highest-weight check, then the anchor of the
    direct-sum check.
    """
    if n < 2:
        raise ValueError("the decomposition starts at degree 2")
    want_full = comb(n + len(letters) - 1, n)
    want_lower = comb(n + len(letters) - 3, n - 2)
    want_strings = want_full - want_lower
    hw_ok, strings = True, []
    for v, weight in highest():
        ok, string = _highest_weight_string(v, weight)
        hw_ok = hw_ok and ok
        strings += string
    lower = [invariant * x for x in _sym_power_family(letters, n - 2)]
    dim_full = rank_of_elements(_sym_power_family(letters, n))
    dim_strings = rank_of_elements(strings)
    dim_lower = rank_of_elements(lower)
    dim_sum = rank_of_elements(strings + lower)
    name = "%s-%d" % (suite, n)
    hw_id, hw_anchor, sum_anchor = anchors
    checks = [
        CheckResult(
            name + "-dims",
            "dims %d + %d = %d in degree %d" % (want_strings, want_lower, want_full, n),
            (dim_full, dim_strings, dim_lower) == (want_full, want_strings, want_lower),
            "got %d, %d, %d" % (dim_full, dim_strings, dim_lower),
        ),
        CheckResult(name + "-" + hw_id, hw_anchor, hw_ok),
        CheckResult(
            name + "-direct-sum",
            sum_anchor,
            dim_sum == dim_strings + dim_lower == want_full,
            "combined rank %d" % dim_sum,
        ),
    ]
    return VerificationReport(name, {"n": n}, checks)


def verify_sym_k_decomposition(n: int) -> VerificationReport:
    """Degree-n symmetric power of the semisimple part of k splits as the
    top sl(2)-string plus b times the (n-2)nd power."""
    h, f = symext.from_gvector(lie.H_VEC), symext.sym_gen(lie.F)
    e = symext.sym_gen(lie.E)
    return _verify_sym_decomposition(
        "sym-k", n, (h, e, f), symext.named_invariants().b,
        lambda: [(e ** n, (n, -n))],
        ("highest-weight", "E^%d is a highest weight vector of weight %d" % (n, 2 * n),
         "top string and b-multiples meet trivially and fill the space"),
    )


def verify_sym_p_decomposition(n: int) -> VerificationReport:
    """Degree-n symmetric power of p splits as the highest-weight modules
    generated by E1^(n-i) F2^i plus c times the (n-2)nd power."""
    letters = tuple(symext.sym_gen(i) for i in lie.P_INDICES)
    e1, f2 = symext.sym_gen(lie.E1), symext.sym_gen(lie.F2)
    return _verify_sym_decomposition(
        "sym-p", n, letters, symext.named_invariants().c,
        lambda: [(e1 ** (n - i) * f2 ** i, (n - i, -i)) for i in range(n + 1)],
        ("highest-weights",
         "E1^(%d-i) F2^i is a highest weight vector of weight (%d-i, -i)" % (n, n),
         "highest-weight strings and c-multiples meet trivially and fill"),
    )


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
    for name, span, hw in pieces:
        hw_ok, string = _highest_weight_string(span[0], hw)
        generates = rank_of_elements(string) == len(span) == rank_of_elements(span)
        checks.append(
            CheckResult(
                "ext-%s" % name,
                "span is ad(k)-stable with highest weight %s and dim %d"
                % (hw, len(span)),
                _is_ad_k_stable(span) and hw_ok and generates,
            )
        )
    total = rank_of_elements([x for _, span, _ in pieces for x in span])
    checks.append(
        CheckResult(
            "ext-total",
            "the ten pieces are independent and fill all 16 dimensions",
            total == 16,
            None if total == 16 else "combined rank %d" % total,
        )
    )
    return VerificationReport("ext-decomposition", {}, checks)


def product_basis_members(n: int) -> tuple:
    """Degree-n members of the product family: monomials in a, b, c, d
    times one of the sixteen module generators, as (label, element),
    built afresh on every call."""
    family = symext.named_invariants().product_family(n, n)
    return tuple((label, x) for label, x, _ in family)


def verify_product_basis(max_degree: int) -> VerificationReport:
    checks = []
    for n in range(max_degree + 1):
        members = product_basis_members(n)
        expect = expected_dimension(n)
        problems = []
        if len(members) != expect:
            problems.append("count %d != %d" % (len(members), expect))
        for label, x in members:
            names = _not_annihilating(x, n)
            if names:
                problems.append(
                    "%s is not invariant under %s" % (label, ", ".join(names))
                )
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


def lifted_product_members(max_degree: int) -> tuple:
    """Lifted products of total degree up to the bound, as (label, element,
    degree), by degree and then label, built afresh on every call."""
    family = dirac.lifted_generators().product_family(0, max_degree, "~")
    return tuple(sorted(family, key=lambda item: (item[2], item[0])))


def _top_degree_first(row):
    """The lead of a ``uc-basis`` row: its key of highest filtration
    degree, the smallest such key on a tie."""
    key_degree = dirac.UCElement.key_degree
    return min(row, key=lambda k: (-key_degree(k), k))


def verify_lifted_basis_slice(max_filtration: int) -> VerificationReport:
    checks = []
    t_rank = rank_of_elements([x for _, x in dirac.lifted_generators().t_products()])
    checks.append(
        CheckResult(
            "t-basis-rank",
            "the sixteen module generators are linearly independent",
            t_rank == 16,
            None if t_rank == 16 else "rank %d" % t_rank,
        )
    )
    members = lifted_product_members(max_filtration)
    # The degree-m rows extend one echelon; its size is the rank up to m.
    pivots = {}
    count = expect = 0
    for m in range(max_filtration + 1):
        step = [x.coeffs for _, x, deg in members if deg == m]
        count += len(step)
        rank = linalg.rank_of_rows(step, pivots, _top_degree_first)
        expect += expected_dimension(m)
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


def verify_ideal_slice(bound: int) -> VerificationReport:
    """Products u D v cannot meet the pure-k coordinate subspace.

    Every key of D carries a p-letter in its U-leg; the same must hold for
    the whole two-sided slice of the ideal, checked by comparing the rank
    of the slice with the rank of its projection away from the pure-k
    coordinates.  One elimination gives both: with the pure-k columns
    last, the echelon rows that lead on another column span the projection.
    An echelon row that leads on a pure-k column lives on pure-k columns
    only; a failing check prints the first such row as its witness.
    """
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
        ud = u * D
        for _, v, dv in members:
            if du + dv <= bound:
                products.append(ud * v)
    keys = sorted(
        {k for x in products for k in x.coeffs}, key=lambda k: (not any(k[0][4:]), k)
    )
    # Short rows first: they fill the echelon with sparse pivots, which the
    # long rows then reduce against.  The sort is stable, so rows of equal
    # length keep the product order.
    products.sort(key=lambda x: len(x.coeffs))
    # The products are mostly redundant, so nearly every row is combined,
    # and eliminating on int columns, pure-k last, takes a third of the time
    # of a lead rule on the products' own keys.  Each product gives way to
    # its row in place, so no second list of the slice is held.
    index = {k: i for i, k in enumerate(keys)}
    for i, x in enumerate(products):
        products[i] = {index[k]: v for k, v in x.coeffs.items()}
    pivots = {}
    full_rank = linalg.rank_of_rows(products, pivots)
    pure_k = sorted(col for col in pivots if not any(keys[col][0][4:]))
    residual = None
    if pure_k:
        witness = dirac.UCElement(
            {keys[c]: v for c, v in pivots[pure_k[0]].items()}
        )
        residual = "rank drops from %d to %d; witness: %s" % (
            full_rank,
            full_rank - len(pure_k),
            symext.format_tensor(witness, "*"),
        )
    checks.append(
        CheckResult(
            "slice-rank-bound-%d" % bound,
            "the %d products u D v meet the pure-k subspace trivially"
            % len(products),
            not pure_k,
            residual,
        )
    )
    return VerificationReport("ideal-slice", {"max_filtration": bound}, checks)
