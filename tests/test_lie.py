"""Structure constants, trace form and Cartan data against a matrix oracle.

The oracle below re-implements 3x3 matrix arithmetic from scratch and
never reads the module's tables, so agreement really is a cross-check.
"""

from fractions import Fraction

import pytest

from su21_invariants import lie, suites
from su21_invariants.lie import GVector, gvec


def _zeros():
    return [[Fraction(0)] * 3 for _ in range(3)]


def _unit(r, c):
    m = _zeros()
    m[r][c] = Fraction(1)
    return m


def _scale(s, m):
    return [[Fraction(s) * m[i][j] for j in range(3)] for i in range(3)]


def _add(a, b):
    return [[a[i][j] + b[i][j] for j in range(3)] for i in range(3)]


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def _commutator(a, b):
    ab = _matmul(a, b)
    ba = _matmul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(3)] for i in range(3)]


def _trace(m):
    return m[0][0] + m[1][1] + m[2][2]


ORACLE_MATRICES = [
    _add(_scale(Fraction(2, 3), _unit(0, 0)),
         _add(_scale(Fraction(-1, 3), _unit(1, 1)), _scale(Fraction(-1, 3), _unit(2, 2)))),
    _add(_scale(Fraction(-1, 3), _unit(0, 0)),
         _add(_scale(Fraction(2, 3), _unit(1, 1)), _scale(Fraction(-1, 3), _unit(2, 2)))),
    _unit(0, 1),
    _unit(1, 0),
    _unit(0, 2),
    _unit(1, 2),
    _unit(2, 0),
    _unit(2, 1),
]


def _oracle_matrix_of(v: GVector):
    acc = _zeros()
    for i, c in v.coeffs.items():
        acc = _add(acc, _scale(c, ORACLE_MATRICES[i]))
    return acc


BASIS = [gvec(i) for i in range(8)]


def test_bracket_matches_matrix_oracle():
    for i in range(8):
        for j in range(8):
            got = _oracle_matrix_of(lie.bracket(BASIS[i], BASIS[j]))
            want = _commutator(ORACLE_MATRICES[i], ORACLE_MATRICES[j])
            assert got == want, (lie.BASIS_NAMES[i], lie.BASIS_NAMES[j])


def test_tables_match_matrix_oracle_with_exact_entry_types():
    # The tables are built in int arithmetic: every bracket coefficient is
    # an int, and a trace is a Fraction exactly when it is not integral.
    for i in range(8):
        for j in range(8):
            pair = (lie.BASIS_NAMES[i], lie.BASIS_NAMES[j])
            entry = lie.BRACKET_TABLE[i][j]
            want = _commutator(ORACLE_MATRICES[i], ORACLE_MATRICES[j])
            assert _oracle_matrix_of(entry) == want, pair
            assert all(type(v) is int for v in entry.coeffs.values()), pair
            trace = _trace(_matmul(ORACLE_MATRICES[i], ORACLE_MATRICES[j]))
            value = lie.FORM_TABLE[i][j]
            assert value == trace, pair
            assert type(value) is (int if trace.denominator == 1 else Fraction), pair


def test_table_build_refuses_a_bracket_off_the_integers(monkeypatch):
    # E as X_E instead of 3 X_E: [3 X_H1, X_E] = 3 [X_H1, X_E] is not nine
    # times an int combination of the basis, so the division by 9 drops it.
    mats = list(lie.INTEGRAL_MATRICES)
    mats[lie.E] = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    monkeypatch.setattr(lie, "INTEGRAL_MATRICES", tuple(mats))
    with pytest.raises(ValueError, match=r"\[H1, E\] is not an int combination"):
        lie._build_tables()


def test_trace_form_matches_matrix_oracle():
    for i in range(8):
        for j in range(8):
            want = _trace(_matmul(ORACLE_MATRICES[i], ORACLE_MATRICES[j]))
            assert lie.trace_form(BASIS[i], BASIS[j]) == want


CARTAN_RELATIONS = [
    (lie.H1, lie.E1, {lie.E1: 1}),
    (lie.H2, lie.E1, {}),
    (lie.H1, lie.E2, {}),
    (lie.H2, lie.E2, {lie.E2: 1}),
    (lie.H1, lie.F1, {lie.F1: -1}),
    (lie.H2, lie.F1, {}),
    (lie.H1, lie.F2, {}),
    (lie.H2, lie.F2, {lie.F2: -1}),
    (lie.H1, lie.E, {lie.E: 1}),
    (lie.H2, lie.E, {lie.E: -1}),
    (lie.H1, lie.F, {lie.F: -1}),
    (lie.H2, lie.F, {lie.F: 1}),
]


@pytest.mark.parametrize("i,j,expect", CARTAN_RELATIONS)
def test_cartan_bracket_table(i, j, expect):
    assert lie.bracket(gvec(i), gvec(j)) == GVector(expect)


def test_selected_brackets():
    assert lie.bracket(gvec(lie.E1), gvec(lie.E1)).is_zero()
    assert lie.bracket(gvec(lie.E1), gvec(lie.F1)) == GVector({lie.H1: 2, lie.H2: 1})
    assert lie.bracket(gvec(lie.E2), gvec(lie.F2)) == GVector({lie.H1: 1, lie.H2: 2})
    assert lie.bracket(gvec(lie.E), gvec(lie.F)) == lie.H_VEC
    assert lie.bracket(gvec(lie.E), gvec(lie.F1)) == -gvec(lie.F2)
    assert lie.bracket(gvec(lie.E), gvec(lie.F2)).is_zero()


def test_selected_trace_values():
    assert lie.trace_form(gvec(lie.E1), gvec(lie.F1)) == 1
    assert lie.trace_form(gvec(lie.H1), gvec(lie.H1)) == Fraction(2, 3)
    assert lie.trace_form(gvec(lie.H1), gvec(lie.H2)) == Fraction(-1, 3)
    assert lie.trace_form(gvec(lie.E), gvec(lie.E1)) == 0
    assert lie.trace_form(lie.H_VEC, lie.H_VEC) == 2
    a = GVector({lie.H1: 1, lie.H2: 1})
    assert lie.trace_form(a, a) == Fraction(2, 3)


def test_dual_table_is_trace_form_dual():
    for i in range(lie.DIM):
        for j in range(lie.DIM):
            assert lie.trace_form(gvec(i), lie.DUAL[j]) == (1 if i == j else 0)
    for indices in (lie.K_INDICES, lie.P_INDICES):
        assert all(lie.DUAL[i].in_span(indices) for i in indices)


def test_antisymmetry_all_pairs():
    for x in BASIS:
        for y in BASIS:
            assert (lie.bracket(x, y) + lie.bracket(y, x)).is_zero()


def test_jacobi_all_triples():
    for x in BASIS:
        for y in BASIS:
            for z in BASIS:
                total = (
                    lie.bracket(x, lie.bracket(y, z))
                    + lie.bracket(y, lie.bracket(z, x))
                    + lie.bracket(z, lie.bracket(x, y))
                )
                assert total.is_zero()


def test_form_invariance_all_triples():
    for x in BASIS:
        for y in BASIS:
            for z in BASIS:
                assert (
                    lie.trace_form(lie.bracket(x, y), z)
                    + lie.trace_form(y, lie.bracket(x, z))
                    == 0
                )


def test_involution_is_automorphism():
    for x in BASIS:
        assert lie.cartan_involution(lie.cartan_involution(x)) == x
        for y in BASIS:
            assert lie.cartan_involution(lie.bracket(x, y)) == lie.bracket(
                lie.cartan_involution(x), lie.cartan_involution(y)
            )


def test_involution_eigenspaces():
    assert lie.cartan_involution(gvec(lie.E)) == gvec(lie.E)
    assert lie.cartan_involution(gvec(lie.E1)) == -gvec(lie.E1)
    mixed = gvec(lie.H1) + gvec(lie.E1)
    assert lie.cartan_involution(mixed) == gvec(lie.H1) - gvec(lie.E1)


def test_bracket_respects_cartan_split():
    for i in lie.K_INDICES:
        for j in lie.K_INDICES:
            assert lie.BRACKET_TABLE[i][j].in_span(lie.K_INDICES)
        for j in lie.P_INDICES:
            assert lie.BRACKET_TABLE[i][j].in_span(lie.P_INDICES)
    for i in lie.P_INDICES:
        for j in lie.P_INDICES:
            assert lie.BRACKET_TABLE[i][j].in_span(lie.K_INDICES)


def test_form_orthogonality_of_split():
    for i in lie.K_INDICES:
        for j in lie.P_INDICES:
            assert lie.trace_form(gvec(i), gvec(j)) == 0


def test_weights():
    assert lie.WEIGHTS[lie.E1] == (1, 0)
    assert lie.WEIGHTS[lie.F2] == (0, -1)
    assert lie.WEIGHTS[lie.H1] == (0, 0)
    assert lie.WEIGHTS[lie.E] == (1, -1)
    for i in range(8):
        w = lie.WEIGHTS[i]
        assert type(w.h1) is int and type(w.h2) is int
        assert lie.bracket(gvec(lie.H1), gvec(i)) == w.h1 * gvec(i)
        assert lie.bracket(gvec(lie.H2), gvec(i)) == w.h2 * gvec(i)


def test_broken_bracket_fails_the_lie_suite(monkeypatch):
    # One wrong bracket, [H1, E1] = E1 + H1, read by both orders of the pair.
    bracket = lie.bracket
    h1, e1 = gvec(lie.H1), gvec(lie.E1)

    def broken(x, y):
        value = bracket(x, y)
        return value + h1 if (x, y) == (h1, e1) else value

    monkeypatch.setattr(lie, "bracket", broken)
    checks = {c.check_id: c for c in suites.run_suite("lie").checks}
    assert not checks["antisymmetry"].passed
    assert checks["antisymmetry"].residual == "2 failing pairs"
    assert not checks["jacobi"].passed
    assert checks["jacobi"].residual == "15 failing triples"
    assert not checks["cartan-brackets"].passed
    assert checks["cartan-brackets"].residual == "[H1,E1]"
