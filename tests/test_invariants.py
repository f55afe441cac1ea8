"""Graded invariant dimensions, decompositions and basis rank checks.

Two independent oracles guard the main computation: the expected
dimensions are recomputed here by a direct convolution, and the
weight-zero kernel reduction is cross-checked against the unblocked
joint kernel of all four k-generators acting on the full degree slice.
"""

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from su21_invariants import invariants as inv
from su21_invariants import lie, linalg, suites, symext
from su21_invariants.lie import gvec

EXPECTED_DIMS = [1, 1, 6, 10, 23, 39, 64, 96, 141]


def _oracle_layer(n):
    if n == 0:
        return 1
    if n == 1:
        return 0
    if n == 2:
        return 3
    rem = n % 3
    return 8 if rem == 2 else 4


def _oracle_polynomial(n):
    # monomials a^i b^j c^k with i + 2j + 2k = n, counted directly
    count = 0
    for j in range(n // 2 + 1):
        for k in range((n - 2 * j) // 2 + 1):
            count += 1  # i is forced
    return count


def _oracle_expected(n):
    return sum(_oracle_layer(k) * _oracle_polynomial(n - k) for k in range(n + 1))


def test_expected_dimension_against_convolution_oracle():
    for n in range(16):
        assert inv.expected_dimension(n) == _oracle_expected(n)


def test_expected_dimension_frozen_values():
    assert [inv.expected_dimension(n) for n in range(9)] == EXPECTED_DIMS


def test_polynomial_layer_values():
    assert [inv.polynomial_layer_dim(n) for n in range(6)] == [1, 1, 3, 3, 6, 6]


def _all_keys(n):
    """All degree-n keys, in the fixed deterministic order (lexicographic
    exponents, then mask), with no weight restriction."""
    keys = []
    for mask in range(16):
        sym_deg = n - mask.bit_count()
        if sym_deg >= 0:
            keys.extend((exps, mask) for exps in inv._compositions(sym_deg, 8))
    keys.sort()
    return tuple(keys)


def _coordinate_rows(elements):
    """Rows of elements over their keys in sorted order, and that order."""
    keys = sorted({k for x in elements for k in x.coeffs})
    index = {k: i for i, k in enumerate(keys)}
    return [{index[k]: v for k, v in x.coeffs.items()} for x in elements], keys


def _unblocked_joint_kernel_dim(n):
    """Kernel of all four k-generators on the full degree-n slice, with no
    weight restriction and no signature blocking."""
    keys = _all_keys(n)
    rows_by_target = {}
    for col, key in enumerate(keys):
        mono = symext.SymTensorElement({key: 1})
        for gi in lie.K_INDICES:
            image = symext.ad_action(gvec(gi), mono)
            for tkey, v in image.coeffs.items():
                rows_by_target.setdefault((gi, tkey), {})[col] = v
    rows = [rows_by_target[t] for t in sorted(rows_by_target)]
    return len(linalg.kernel_of_rows(rows, len(keys)))


@pytest.mark.parametrize("n", range(6))
def test_invariant_subspace_matches_unblocked_kernel(n):
    assert len(inv.invariant_subspace(n)) == _unblocked_joint_kernel_dim(n)


# sha256 of repr([sorted(x.coeffs.items()) for x in invariant_subspace(n)]):
# any change of basis, order, scaling or coefficient type changes it.
BASIS_DIGESTS = (
    "fbca7fbec51d7b17f3b81afaa69ad97826fc4377cbd56c77421d5b5fa5344681",
    "d0558b7948910a5d2f07a997e8f9e6348d49c8d807ae962f2a2a7e3f2fdea1f0",
    "9975278e63ff0beee6b60cce8d098ec16e7596c9f3d11ab35b97e4626b193aea",
    "c29b5f7d8de3869e23d9e8ba25ae81b19376ae087aae02ff2a2a4e44ae5e7911",
    "099efda0a967bc5159061f131fcb70e37a8c780bc6191492e39d1ea5300b19fe",
    "6f016a056ab4cad12d10828e9375c091d8e155d0b1cdca850fc4d9d75070c4b5",
    "5fbc6dd6b549cf3cab92d1a4c0a6e3d86534ab12d8dbda7cffca1750416c12a9",
    "3794a93bd50263efa3592d6d4641139383b890291b63f032c94061ccefc6e594",
    "08e1289350cb03f19ca2c2ed8423f6926b9b82bee58717f964e4a5f607b02b86",
    "0ab79799fa8191845869a355c530e97fc423b78e0dd7463e35ddac41146484e4",
    "e92386d1844f27bfa588d3753f9f1541c3d6eb7b78a5e02361804b2cfbcffe41",
    "5090fa260dfe3d4ab987293e4c471db87979839f51ba126020832b8d6fc73d25",
    "2630dbc46af1d6485a7d660564024381b35ec3c7ba15b37e66ca3ba5b9bb272a",
)


@pytest.mark.parametrize("n", range(len(BASIS_DIGESTS)))
def test_invariant_subspace_bases_are_pinned(n):
    basis = inv.invariant_subspace(n)
    payload = repr([sorted(x.coeffs.items()) for x in basis]).encode()
    assert hashlib.sha256(payload).hexdigest() == BASIS_DIGESTS[n]


def _reference_kernel(n):
    """ker ad(E) on the degree-n slice by eliminating each signature block
    whole, with the rows read from the E table of the slice: the kernel of
    each block in reduced echelon form, put in lead order."""
    keys, _, tables = inv._slice_action(n)
    starts, targets, coeffs = tables["E"]
    blocks = {}
    for c, key in enumerate(keys):
        blocks.setdefault(inv._signature(key), []).append(c)
    kernel_vectors = []
    for block in blocks.values():
        target_rows = {}
        for local, c in enumerate(block):
            for t in range(starts[c], starts[c + 1]):
                target_rows.setdefault(targets[t], {})[local] = coeffs[t]
        rows = [target_rows[t] for t in sorted(target_rows)]
        for vec in linalg.kernel_of_rows(rows, len(block)):
            kernel_vectors.append({block[c]: v for c, v in vec.items()})
    kernel_vectors.sort(key=min)
    return tuple(
        symext.SymTensorElement({keys[c]: v for c, v in vec.items()})
        for vec in kernel_vectors
    )


def test_kernel_from_the_degree_below_matches_whole_blocks():
    # Upward, as the table walks, then down again, which reads the degrees
    # kept from the walk up.
    for n in [*range(11), 4, 10, 9]:
        got = inv._ad_e_kernel(n)
        want = _reference_kernel(n)
        assert got == want
        for x, y in zip(got, want):
            assert [type(v) for v in x.coeffs.values()] == [
                type(y.coeffs[k]) for k in x.coeffs
            ]


def test_lower_degrees_are_kept_after_a_higher_one(monkeypatch):
    inv._ad_e_kernel(10)
    built = []
    next_kernel = inv._next_kernel

    def counting(n, below):
        built.append(n)
        return next_kernel(n, below)

    monkeypatch.setattr(inv, "_next_kernel", counting)
    assert inv._ad_e_kernel(9) == _reference_kernel(9)
    assert inv._ad_e_kernel(4) == _reference_kernel(4)
    assert built == []


def _from_sl2_basis(key):
    """The element an a-free key stands for: slot 1 is the power of H1 - H2."""
    exps, mask = key
    assert exps[0] == 0, key
    h = symext.sym_gen(lie.H1) - symext.sym_gen(lie.H2)
    return h ** exps[1] * symext.SymTensorElement({((0, 0) + exps[2:], mask): 1})


@pytest.mark.parametrize("n", range(8))
def test_a_free_action_in_the_sl2_basis_matches_ad_action(n):
    keys = [k for k in inv.graded_keys(n, lie.Weight(0, 0)) if not k[0][0]]
    e = gvec(lie.E)
    for key, terms in zip(keys, inv._a_free_e_images(keys)):
        assert len({t for t, _ in terms}) == len(terms)
        got = symext.zero()
        for t, u in terms:
            assert u
            got = got + u * _from_sl2_basis(t)
        assert got == symext.ad_action(e, _from_sl2_basis(key))


def _digest(payload):
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _terms(x):
    return sorted(x.coeffs.items())


# sha256 of repr(sorted(x.coeffs.items())) of the ten invariants, taken when
# each algebra still had its own hand-typed copy of their formulas.
NAMED_DIGESTS = {
    "a": "2dffb05df36295af4ba2e5dcfa907725b6d6a36bd8e81c2fe49d79c91171b1af",
    "b": "87abef7e9c57f56c9ed92e61feef56e7241c115f60433febbbabe05981ce50a8",
    "c": "9414d405c471aca9dc298082f47b579d31b6d1bbdfde7d85b25be4c07a731a49",
    "d": "a64794224033b8f5cc2aa75a3c555e2fbd5bcd1c71ee00b82f1491c1a5589bc6",
    "e": "dadd147a19d12fea30985af4adfcdcea66ffe2e43827f5639de7c2bf22955bb4",
    "f": "f69d6f12c369f3c77eba39028c46ecb10dfeb43e72bdf02fa425cf21d5a0389d",
    "g": "f1f99860e2bc5d67c904a67709d60e6bbbfd385e90b1d76b94866f4e4b017b8b",
    "h": "77aa8ee924bde501585b26af8ad7560e25762c592744ea19f8fcc71aa162e5fe",
    "i": "44d238c6ad96e8bc5e7100624ee3e0fd9813d36527fe6d94419ce1c43f6cb8d7",
    "j": "458d6ba927f1211f7c70ff399737154ca1bc47475f2ad2e47faf9951d33c31c9",
}
# Every lift but b~ is written in PBW and blade order, so it has the keys
# and coefficients of its commutative original; b~ = H^2 + 2(EF + FE) does not.
LIFTED_DIGESTS = dict(
    NAMED_DIGESTS, b="f6e08fe8573560d25118200d7a903913515a42ca8c9f161ff38e6df99f35430a"
)
CUBIC_DIGEST = "61434086ef49a0a52a7c52a02e32e136a562a906d85dca318e9b3453c004a169"
# product_basis_members(n) for n = 0..8, labels included.
PRODUCT_DIGESTS = (
    "8c5f6fb80463e82d2ec4da3e4dce581bec0d57998fdc812348b143ca49aec1e7",
    "e8f24844697eecf0c068ad6099ccb658478c789ff06958620cc02e934b9ba2e5",
    "a18564a2d2e23c10eed4c3f2508857c740a1ca1158c2dcb0feadb1d3b0e66923",
    "afdfac67073fdf843bedbc0fe45544b48c4911fa9dd9d42369dc90b77dcb8a2b",
    "262715b0674b6efac2524d553020ce165029a997844679784ac5bfb45eb45096",
    "308e0e78c80fc3c712de8c82ac52f784e3ae263752d1fd001ee7c250dc0f1f0e",
    "bc71fb253bf82615caa7ebb0a399e0ca927a66a3c1afabbeee455435bcd06291",
    "581d7749a414e58a02dedbe0fc14b45013f272d16b789580594e9baf2542d5ca",
    "16e2bd48fdbacf624f63e94ec58484b375a6b36fef519da669c1c11c1c036d2a",
)
# lifted_product_members(f) for f = 4 and 8, labels and degrees included.
LIFTED_PRODUCTS_DIGESTS = {
    4: "5eef706449dda50f9d749eacf9037c6b057d3ab5268820c1b51bb120de5f2012",
    8: "df480455704e2a2d169deb8ee2386153053a861f853060280b906e2919c9524b",
}


def test_generators_and_product_families_are_pinned():
    from su21_invariants import dirac

    named = symext.named_invariants().as_dict()
    assert {k: _digest(_terms(x)) for k, x in named.items()} == NAMED_DIGESTS
    lifted = dirac.lifted_generators().as_dict()
    assert {k: _digest(_terms(x)) for k, x in lifted.items()} == LIFTED_DIGESTS
    cub = dirac.cubic_element()
    assert all(mask == 0 for _exps, mask in cub.coeffs)
    assert _digest(sorted((e, v) for (e, _m), v in cub.coeffs.items())) == CUBIC_DIGEST
    for n, want in enumerate(PRODUCT_DIGESTS):
        members = inv.product_basis_members(n)
        assert _digest([(label, _terms(x)) for label, x in members]) == want
    for bound, want in LIFTED_PRODUCTS_DIGESTS.items():
        members = inv.lifted_product_members(bound)
        payload = [(label, _terms(x), deg) for label, x, deg in members]
        assert _digest(payload) == want


def test_low_degree_invariants():
    assert inv.invariant_subspace(0) == [symext.one()]
    deg1 = inv.invariant_subspace(1)
    assert len(deg1) == 1
    a = symext.named_invariants().a
    # the degree-1 invariant line is spanned by a
    x = deg1[0]
    assert inv.rank_of_elements([x, a]) == 1
    assert len(inv.invariant_subspace(2)) == 6
    assert len(inv.invariant_subspace(3)) == 10


def test_rank_of_elements_leaves_the_elements_unchanged():
    # The elimination reads each element's own coefficient dict: rescaling
    # to integers, removing content and combining rows must work on copies.
    e, f, w = symext.sym_gen(lie.E), symext.sym_gen(lie.F), symext.ext_gen(lie.E1)
    elements = [
        Fraction(1, 2) * e + Fraction(1, 3) * f,
        6 * e + 4 * f,
        3 * e + 2 * f,
        e,
        2 * (e * w) - f,
    ]
    dicts = [x.coeffs for x in elements]
    before = [dict(d) for d in dicts]
    assert inv.rank_of_elements(elements) == 3
    assert [x.coeffs for x in elements] == before
    assert all(x.coeffs is d for x, d in zip(elements, dicts))


def test_invariants_are_annihilated_by_k():
    for n in range(6):
        for x in inv.invariant_subspace(n):
            for gi in lie.K_INDICES:
                assert symext.ad_action(gvec(gi), x).is_zero()


def test_table_report_low_degrees():
    rep = inv.verify_table(5)
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 6


def test_sym_k_decomposition_dimension_arithmetic():
    # 2n+1 plus C(n,2) must fill C(n+2,2)
    for n, (top, lower, full) in {
        2: (5, 1, 6),
        3: (7, 3, 10),
        6: (13, 15, 28),
    }.items():
        assert 2 * n + 1 == top
        assert comb(n, 2) == lower
        assert comb(n + 2, 2) == full
        rep = inv.verify_sym_k_decomposition(n)
        assert rep.passed, rep.to_text()


def test_sym_p_decomposition_dimension_arithmetic():
    for n, (strings, lower, full) in {
        2: (9, 1, 10),
        3: (16, 4, 20),
    }.items():
        assert (n + 1) ** 2 == strings
        assert comb(n + 1, 3) == lower
        assert comb(n + 3, 3) == full
        rep = inv.verify_sym_p_decomposition(n)
        assert rep.passed, rep.to_text()


def test_sym_p_highest_weight_vectors():
    e1, f2 = symext.sym_gen(lie.E1), symext.sym_gen(lie.F2)
    v = e1 ** 2 * f2
    assert symext.ad_action(gvec(lie.E), v).is_zero()
    assert symext.key_weight(next(iter(v.coeffs))) == (2, -1)


def test_ext_decomposition_report():
    rep = inv.verify_ext_decomposition()
    assert rep.passed, rep.to_text()
    # ten module checks plus the total-dimension check
    assert len(rep.checks) == 11


def test_sym_decompositions_start_at_degree_two():
    for verify in (inv.verify_sym_k_decomposition, inv.verify_sym_p_decomposition):
        for n in (1, 0, -1):
            with pytest.raises(ValueError, match="starts at degree 2"):
                verify(n)


def test_span_that_is_not_ad_k_stable_fails_the_rank_test():
    e1, e2, f1 = (symext.ext_gen(i) for i in (lie.E1, lie.E2, lie.F1))
    # ad(F) E1 = E2 leaves the span of E1; ad(E) (E1^^F1) = -E1^^F2 leaves
    # the span of E1^^F1.
    assert not inv._is_ad_k_stable([e1])
    assert not inv._is_ad_k_stable([e1 * f1])
    assert inv._is_ad_k_stable([e1, e2])
    ok, string = inv._highest_weight_string(e1, (1, 0))
    assert ok and string == [e1, e2]
    ok, _ = inv._highest_weight_string(e1 * f1, (0, 0))
    assert not ok


def test_ext_decomposition_highest_weight_example():
    x = symext.ext_gen(lie.E1) * symext.ext_gen(lie.F2)
    assert symext.ad_action(gvec(lie.E), x).is_zero()


def test_product_members_counts():
    for n in range(7):
        members = inv.product_basis_members(n)
        assert len(members) == inv.expected_dimension(n)


def test_product_members_degree_two():
    members = dict(inv.product_basis_members(2))
    assert len(members) == 6
    labels = sorted(members)
    assert any("* e" in label for label in labels)
    assert inv.rank_of_elements(list(members.values())) == 6


def test_product_basis_report():
    rep = inv.verify_product_basis(5)
    assert rep.passed, rep.to_text()


def test_lifted_basis_slice():
    rep = inv.verify_lifted_basis_slice(3)
    assert rep.passed, rep.to_text()


def test_lifted_basis_ranks_match_fresh_ranks(monkeypatch):
    # The suite carries one echelon across the filtration steps; each rank it
    # reads must equal a rank computed from scratch on the cumulative set.
    ranks = []
    echelons = []
    rank_of_rows = linalg.rank_of_rows

    def spy(rows, pivots=None, lead=min):
        rank = rank_of_rows(rows, pivots, lead)
        if pivots is not None:
            ranks.append(rank)
            echelons.append(pivots)
        return rank

    monkeypatch.setattr(linalg, "rank_of_rows", spy)
    rep = inv.verify_lifted_basis_slice(6)
    monkeypatch.undo()
    assert rep.passed, rep.to_text()
    members = inv.lifted_product_members(6)
    fresh = []
    for m in range(7):
        rows, _ = _coordinate_rows([x for _, x, deg in members if deg <= m])
        fresh.append(linalg.rank_of_rows(rows))
    assert ranks == fresh
    assert fresh == [sum(EXPECTED_DIMS[: m + 1]) for m in range(7)]
    # The echelon keeps the members' own rows: led by their top filtration
    # degree, 131 of the 144 members become pivots as they are, uncopied.
    pivots = echelons[-1]
    assert all(p is pivots for p in echelons)
    own = {id(x.coeffs) for _, x, _ in members}
    assert sum(id(row) in own for row in pivots.values()) == 131


def test_dependent_lifted_member_fails_every_step_from_its_degree(monkeypatch):
    # Plant 3 times one degree-3 member in place of another: the steps below
    # degree 3 pass, and each step from 3 up has exactly one member too many.
    m = 3
    members = list(inv.lifted_product_members(5))
    first = next(i for i, (_, _, deg) in enumerate(members) if deg == m)
    label, _, _ = members[first]
    _, other, deg = members[first + 1]
    assert deg == m
    members[first] = (label, 3 * other, m)
    monkeypatch.setattr(inv, "lifted_product_members", lambda bound: tuple(members))
    rep = inv.verify_lifted_basis_slice(5)
    assert rep.checks[0].passed
    steps = rep.checks[1:]
    assert len(steps) == 6
    for k, check in enumerate(steps):
        assert check.check_id == "products-rank-le-%d" % k
        if k < m:
            assert check.passed, check.residual
        else:
            count = sum(EXPECTED_DIMS[: k + 1])
            assert not check.passed
            assert check.residual == "count %d, rank %d" % (count, count - 1)
    assert not rep.passed


def test_products_share_one_key_object_per_key():
    # Products intern their keys (SparseElement.KEYS): across a whole
    # family, equal keys are one object, whichever product made them.
    families = (
        [x for _, x, _ in inv.lifted_product_members(6)],
        [x for _, x in inv.product_basis_members(6)],
    )
    for family in families:
        keys = [k for x in family for k in x.coeffs]
        assert len(keys) > len(set(keys))
        assert len({id(k) for k in keys}) == len(set(keys))


def test_lifted_family_builds_each_monomial_once(monkeypatch):
    from su21_invariants import dirac

    lift = dirac.lifted_generators()
    products = 0
    mul = dirac.UCElement.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(dirac.UCElement, "__mul__", counting)
    family = lift.product_family(0, 10, "~")
    # 836 members over 147 monomials: one product per monomial but the unit
    # and one per member but the 147 with t = 1, plus the nine two-letter t;
    # rebuilding each monomial from its powers for every t took 6 275.
    assert len(family) == 836
    assert products <= 850


def test_ideal_slice():
    for bound in (2, 3):
        rep = inv.verify_ideal_slice(bound)
        assert rep.passed, rep.to_text()
    cap = suites.SUITES["ideal-slice"].cap
    with pytest.raises(ValueError, match="max_filtration is capped at %d" % cap):
        suites.run_suite("ideal-slice", max_filtration=cap + 1)


def test_ideal_slice_meeting_pure_k_is_a_fail_check(monkeypatch):
    # D + 1 has a pure-k key, so its two-sided slice meets the pure-k
    # subspace; the residual must match the rank of the slice and the rank
    # of its projection away from the pure-k coordinates, each from scratch,
    # and its witness must be the planted 1, with no p-letter in any U-leg.
    from su21_invariants import dirac

    poisoned = dirac.dirac_operator() + dirac.uc_one()
    monkeypatch.setattr(inv.dirac, "dirac_operator", lambda: poisoned)
    for bound in (2, 3):
        rep = inv.verify_ideal_slice(bound)
        members = inv.lifted_product_members(bound)
        products = [
            u * poisoned * v
            for _, u, du in members
            for _, v, dv in members
            if du + dv <= bound
        ]
        rows, keys = _coordinate_rows(products)
        full_rank = linalg.rank_of_rows(rows)
        keep = {i for i, (e, _m) in enumerate(keys) if any(e[4:])}
        proj_rank = linalg.rank_of_rows(
            [{c: v for c, v in row.items() if c in keep} for row in rows]
        )
        assert full_rank > proj_rank
        check = rep.checks[-1]
        assert check.check_id == "slice-rank-bound-%d" % bound
        assert not check.passed
        drop, witness = check.residual.split("; witness: ")
        assert drop == "rank drops from %d to %d" % (full_rank, proj_rank)
        # The planted unit is the first pure-k echelon row, unscaled.
        assert witness == "1"
        # With the C-legs cut off, no p-letter is left in any term.
        u_legs = re.sub(r" \(x\) [\w*]+", "", witness)
        assert not any(p in u_legs for p in ("E1", "E2", "F1", "F2")), witness
        assert not rep.passed


def test_graded_keys_order_is_deterministic():
    keys = _all_keys(3)
    assert list(keys) == sorted(keys)
    zero = lie.Weight(0, 0)
    restricted = inv.graded_keys(3, zero)
    assert list(restricted) == sorted(restricted)
    assert set(restricted) <= set(keys)
    assert all(symext.key_weight(k) == (0, 0) for k in restricted)


# Weights of H1, H2, E, F, E1, E2, F1, F2, typed in from the 3x3 matrices
# rather than read from lie.WEIGHTS; the exterior letters weigh the same.
_LETTER_WEIGHTS = ((0, 0), (0, 0), (1, -1), (-1, 1), (1, 0), (0, 1), (-1, 0), (0, -1))


def _inline_weight(key):
    exps, mask = key
    letters = [i for i, e in enumerate(exps) for _ in range(e)]
    letters += [lie.E1 + k for k in range(4) if mask >> k & 1]
    return (
        sum(_LETTER_WEIGHTS[i][0] for i in letters),
        sum(_LETTER_WEIGHTS[i][1] for i in letters),
    )


@pytest.mark.parametrize("n", range(8))
def test_weight_slice_matches_brute_force_filter(n):
    every = _all_keys(n)
    for weight in ((0, 0), (1, -1), (2, -1), (-1, 0)):
        want = tuple(k for k in every if _inline_weight(k) == weight)
        assert inv.graded_keys(n, weight) == want
        assert inv.graded_keys(n, lie.Weight(*weight)) == want
    assert inv.graded_keys(n, (Fraction(1, 2), 0)) == ()


@lru_cache(maxsize=None)
def _target_keys(n, name):
    """The key of each target id in the slice table of E or F, read off the
    single-key images: ``ad_action`` lists a key's terms in the order of
    ``symext.ad_images``, so the entries of row c pair with them in order.
    The pairing must be one bijection from the ids 0, 1, ... onto the keys
    reached."""
    z = dict(inv._K_GENERATORS)[name]
    keys, _, tables = inv._slice_action(n)
    starts, targets, coeffs = tables[name]
    key_of = {}
    for c, key in enumerate(keys):
        image = symext.ad_action(z, symext.SymTensorElement({key: 1})).coeffs
        span = range(starts[c], starts[c + 1])
        assert len(span) == len(image)
        for t, (target, u) in zip(span, image.items()):
            assert coeffs[t] == u
            assert key_of.setdefault(targets[t], target) == target
    assert sorted(key_of) == list(range(len(key_of)))
    assert len(set(key_of.values())) == len(key_of)
    return key_of


def _table_image(n, name, x):
    """ad(name) x by linearity from the slice tables, as an element."""
    _, col_of, tables = inv._slice_action(n)
    starts, targets, coeffs = tables[name]
    key_of = _target_keys(n, name)
    out = {}
    for key, v in x.coeffs.items():
        c = col_of[key]
        span = range(starts[c], starts[c + 1])
        linalg.add_terms(out, [(key_of[targets[t]], coeffs[t]) for t in span], v)
    return symext.SymTensorElement(out)


def _cancelling_differences(n, name, limit=8):
    """(t, w k - u k') for pairs of slice keys k, k' whose images meet at
    the target t with coefficients u and w, so that the terms at t cancel."""
    z = dict(inv._K_GENERATORS)[name]
    seen = {}
    out = []
    for key in inv.graded_keys(n, lie.Weight(0, 0)):
        image = symext.ad_action(z, symext.SymTensorElement({key: 1}))
        for t, u in image.coeffs.items():
            if t in seen and len(out) < limit:
                other, w = seen[t]
                out.append((t, symext.SymTensorElement({key: w, other: -u})))
            seen.setdefault(t, (key, u))
    return out


@pytest.mark.parametrize("n", range(8))
def test_slice_tables_match_ad_action(n):
    keys = inv.graded_keys(n, lie.Weight(0, 0))
    rng = random.Random(1200 + n)
    combos = [
        symext.SymTensorElement(
            {k: rng.randint(-6, 6) for k in rng.sample(keys, min(len(keys), 7))}
        )
        for _ in range(12)
    ]
    singles = [symext.SymTensorElement({k: 1}) for k in keys]
    generators = dict(inv._K_GENERATORS)
    # H1 and H2 act by the weight, which is 0 on every key of the slice, so
    # only E and F have tables.
    for name in ("H1", "H2"):
        assert all(symext.ad_action(generators[name], x).is_zero() for x in singles)
    assert list(inv._slice_action(n)[2]) == ["E", "F"]
    cancelled = 0
    for name in ("E", "F"):
        z = generators[name]
        differences = _cancelling_differences(n, name)
        for t, x in differences:
            assert t not in symext.ad_action(z, x).coeffs
        cancelled += len(differences)
        for x in singles + combos + [x for _, x in differences]:
            want = symext.ad_action(z, x)
            got = _table_image(n, name, x)
            assert got == want
            assert all(type(v) is int for v in got.coeffs.values())
    for x in singles + combos:
        want = [name for name, z in inv._K_GENERATORS if symext.ad_action(z, x).coeffs]
        assert inv._not_annihilating(x, n) == want
    assert cancelled > 0 or n < 2


@pytest.fixture
def fresh_subspace_cache():
    inv._invariant_subspace_cached.cache_clear()
    yield
    inv._invariant_subspace_cached.cache_clear()


def _plant_in_degree_two(monkeypatch, bad):
    """Make the last element of the degree-2 kernel ``bad``.  The kernels
    of degrees 0..3 are built first: each degree is built from
    ``_ad_e_kernel(n - 1)``, looked up by name, so degree 3 would otherwise
    be built from the planted degree 2."""
    kernel = inv._ad_e_kernel
    kernel(3)

    def poisoned(n):
        basis = kernel(n)
        return basis[:-1] + (bad,) if n == 2 else basis

    monkeypatch.setattr(inv, "_ad_e_kernel", poisoned)


def test_failed_annihilation_recheck_is_a_fail_check(monkeypatch, fresh_subspace_cache):
    # E*F has weight (0, 0) but neither E nor F kills it.
    bad = symext.sym_gen(lie.E) * symext.sym_gen(lie.F)
    _plant_in_degree_two(monkeypatch, bad)
    rep = inv.verify_table(3)
    assert [c.passed for c in rep.checks] == [True, True, False, True]
    assert rep.checks[2].residual == (
        "degree-2 kernel element 5 is not annihilated by E, F"
    )
    assert "FAIL degree-2" in rep.to_text()
    with pytest.raises(inv.InvarianceError):
        inv.invariant_subspace(2)


def _weight_one_one(name):
    """Elements of weight (1, 1) that E and F both kill, so that only the
    diagonal part of ad(H1) and ad(H2) sees them."""
    s, x = symext.sym_gen, symext.ext_gen
    if name == "wedge":
        return x(lie.E1) * x(lie.E2)
    return s(lie.E1) * x(lie.E2) - s(lie.E2) * x(lie.E1)


@pytest.mark.parametrize("name", ["wedge", "mixed"])
def test_nonzero_weight_in_the_kernel_is_a_fail_check(
    monkeypatch, fresh_subspace_cache, name
):
    bad = _weight_one_one(name)
    assert symext.ad_action(gvec(lie.E), bad).is_zero()
    assert symext.ad_action(gvec(lie.F), bad).is_zero()
    _plant_in_degree_two(monkeypatch, bad)
    rep = inv.verify_table(3)
    assert [c.passed for c in rep.checks] == [True, True, False, True]
    assert rep.checks[2].residual == (
        "degree-2 kernel element 5 is not annihilated by H1, H2"
    )


@pytest.mark.parametrize("name", ["wedge", "mixed"])
def test_nonzero_weight_in_a_product_member_is_a_fail_check(monkeypatch, name):
    bad = _weight_one_one(name)
    members = inv.product_basis_members
    target = "a^0 b^0 c^0 d^0 * g"

    def poisoned(n):
        return tuple(
            (label, x + bad if label == target else x) for label, x in members(n)
        )

    monkeypatch.setattr(inv, "product_basis_members", poisoned)
    rep = inv.verify_product_basis(3)
    assert [c.passed for c in rep.checks] == [True, True, False, True]
    assert rep.checks[2].residual == "%s is not invariant under H1, H2" % target


def test_failed_annihilation_in_a_product_member_is_a_fail_check(monkeypatch):
    # E*F lies on the degree-2 weight-(0,0) slice, so the planted member
    # is checked through the slice tables, not through ad_action.
    bad = symext.sym_gen(lie.E) * symext.sym_gen(lie.F)
    members = inv.product_basis_members
    target = "a^0 b^0 c^0 d^0 * g"

    def poisoned(n):
        return tuple(
            (label, x + bad if label == target else x) for label, x in members(n)
        )

    planted = dict(poisoned(2))[target]
    assert set(planted.coeffs) <= set(inv.graded_keys(2, lie.Weight(0, 0)))
    monkeypatch.setattr(inv, "product_basis_members", poisoned)
    monkeypatch.setattr(symext, "ad_action", None)
    rep = inv.verify_product_basis(3)
    assert [c.passed for c in rep.checks] == [True, True, False, True]
    assert rep.checks[2].residual == "%s is not invariant under E, F" % target


def _assert_exact(x):
    for v in x.coeffs.values():
        assert type(v) in (int, Fraction), v
        if v.denominator == 1:
            assert type(v) is int, v
    assert x == type(x)({k: Fraction(v) for k, v in x.coeffs.items()})


def test_coefficients_stay_exact():
    from su21_invariants import clifford, dirac

    named = list(symext.named_invariants().as_dict().values())
    for x in named + [x for _, x in inv.product_basis_members(6)]:
        _assert_exact(x)
        assert all(type(v) is int for v in x.coeffs.values())
    for x in inv.invariant_subspace(6):
        _assert_exact(x)
    lifted = list(dirac.lifted_generators().as_dict().values())
    D = dirac.dirac_operator()
    for x in lifted + [D]:
        _assert_exact(x)
        assert all(type(v) is int for v in x.coeffs.values())
    assert all(type(v) is int for _m, v in clifford.chevalley_items(0b0101))
    _assert_exact(dirac.casimir_omega())
    integral_h = lie.GVector({lie.H1: 1, lie.H2: 2})
    matrices = lie.BASIS_MATRICES + (lie.matrix_of(integral_h),)
    for row in lie.FORM_TABLE + tuple(r for m in matrices for r in m):
        for v in row:
            assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v
    assert type(lie.FORM_TABLE[lie.E1][lie.F1]) is int
    assert type(lie.trace_form(lie.H_VEC, lie.H_VEC)) is int
    assert all(type(v) is Fraction for v in (Fraction(1, 2) * D).coeffs.values())
    a = symext.named_invariants().a
    half = Fraction(1, 2) * a
    assert all(type(v) is Fraction for v in half.coeffs.values())
    assert 2 * half == a and all(type(v) is int for v in (2 * half).coeffs.values())
    assert 0.5 * a == half
    _assert_exact(0.5 * a)
