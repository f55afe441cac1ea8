"""Graded invariant dimensions, decompositions and basis rank checks.

Two independent oracles guard the main computation: the expected
dimensions are recomputed here by a direct convolution, and the
weight-zero kernel reduction is cross-checked against the unblocked
joint kernel of all four k-generators acting on the full degree slice.
"""

import hashlib
from fractions import Fraction
from math import comb

import pytest

from su21_invariants import invariants as inv
from su21_invariants import lie, linalg, symext
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
)


@pytest.mark.parametrize("n", range(len(BASIS_DIGESTS)))
def test_invariant_subspace_bases_are_pinned(n):
    basis = inv.invariant_subspace(n)
    payload = repr([sorted(x.coeffs.items()) for x in basis]).encode()
    assert hashlib.sha256(payload).hexdigest() == BASIS_DIGESTS[n]


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
# product_basis_members(n) for n = 0..6, labels included.
PRODUCT_DIGESTS = (
    "8c5f6fb80463e82d2ec4da3e4dce581bec0d57998fdc812348b143ca49aec1e7",
    "e8f24844697eecf0c068ad6099ccb658478c789ff06958620cc02e934b9ba2e5",
    "a18564a2d2e23c10eed4c3f2508857c740a1ca1158c2dcb0feadb1d3b0e66923",
    "afdfac67073fdf843bedbc0fe45544b48c4911fa9dd9d42369dc90b77dcb8a2b",
    "262715b0674b6efac2524d553020ce165029a997844679784ac5bfb45eb45096",
    "308e0e78c80fc3c712de8c82ac52f784e3ae263752d1fd001ee7c250dc0f1f0e",
    "bc71fb253bf82615caa7ebb0a399e0ca927a66a3c1afabbeee455435bcd06291",
)
# lifted_product_members(4), labels and degrees included.
LIFTED_PRODUCTS_DIGEST = "5eef706449dda50f9d749eacf9037c6b057d3ab5268820c1b51bb120de5f2012"


def test_generators_and_product_families_are_pinned():
    from su21_invariants import dirac, enveloping

    named = symext.named_invariants().as_dict()
    assert {k: _digest(_terms(x)) for k, x in named.items()} == NAMED_DIGESTS
    lifted = dirac.lifted_generators().as_dict()
    assert {k: _digest(_terms(x)) for k, x in lifted.items()} == LIFTED_DIGESTS
    assert _digest(_terms(enveloping.cubic_element())) == CUBIC_DIGEST
    for n, want in enumerate(PRODUCT_DIGESTS):
        members = inv.product_basis_members(n)
        assert _digest([(label, _terms(x)) for label, x in members]) == want
    members = inv.lifted_product_members(4)
    payload = [(label, _terms(x), deg) for label, x, deg in members]
    assert _digest(payload) == LIFTED_PRODUCTS_DIGEST


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


def test_ideal_slice():
    for bound in (2, 3):
        rep = inv.verify_ideal_slice(bound)
        assert rep.passed, rep.to_text()
    with pytest.raises(ValueError):
        inv.verify_ideal_slice(5)


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


@pytest.fixture
def fresh_subspace_cache():
    inv._invariant_subspace_cached.cache_clear()
    yield
    inv._invariant_subspace_cached.cache_clear()


def test_failed_annihilation_recheck_is_a_fail_check(monkeypatch, fresh_subspace_cache):
    kernel = inv._ad_e_kernel
    # E*F has weight (0, 0) but neither E nor F kills it.
    bad = symext.sym_gen(lie.E) * symext.sym_gen(lie.F)

    def poisoned(n):
        basis = kernel(n)
        return basis[:-1] + (bad,) if n == 2 else basis

    monkeypatch.setattr(inv, "_ad_e_kernel", poisoned)
    rep = inv.verify_table(3)
    assert [c.passed for c in rep.checks] == [True, True, False, True]
    assert rep.checks[2].residual == (
        "degree-2 kernel element 5 is not annihilated by E, F"
    )
    assert "FAIL degree-2" in rep.to_text()
    with pytest.raises(inv.InvarianceError):
        inv.invariant_subspace(2)


def _assert_exact(x):
    for v in x.coeffs.values():
        assert type(v) in (int, Fraction), v
        if v.denominator == 1:
            assert type(v) is int, v
    assert x == type(x)({k: Fraction(v) for k, v in x.coeffs.items()})


def test_coefficients_stay_exact():
    from su21_invariants import clifford, dirac, enveloping

    named = list(symext.named_invariants().as_dict().values())
    for x in named + [x for _, x in inv.product_basis_members(6)]:
        _assert_exact(x)
        assert all(type(v) is int for v in x.coeffs.values())
    for x in inv.invariant_subspace(6):
        _assert_exact(x)
    lifted = list(dirac.lifted_generators().as_dict().values())
    D = dirac.dirac_operator()
    for x in lifted + [D, clifford.chevalley_mask(0b0101)]:
        _assert_exact(x)
        assert all(type(v) is int for v in x.coeffs.values())
    _assert_exact(enveloping.casimir_omega())
    for row in lie.FORM_TABLE:
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
