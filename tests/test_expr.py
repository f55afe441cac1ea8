"""Parsing, printing and the round-trip guarantees of the four contexts."""

import random
from fractions import Fraction

import pytest

from su21_invariants import dirac, lie, symext
from su21_invariants.expr import (
    ExprError,
    format_c,
    format_element,
    format_tensor,
    parse_element,
)


def test_parse_b_in_symmetric_context():
    got = parse_element("H^2 + 4*E*F", "symmetric")
    assert got == symext.named_invariants().b


def test_parse_g_in_tensor_context():
    got = parse_element("1 (x) (E1^^F1 + E2^^F2)", "tensor")
    assert got == symext.named_invariants().g


def test_parse_isotropic_square_in_clifford_context():
    assert parse_element("E1*E1", "clifford").is_zero()


def test_parse_shorthand_symbols():
    assert parse_element("a", "symmetric") == symext.from_gvector(lie.A_VEC)
    assert parse_element("H", "symmetric") == symext.from_gvector(lie.H_VEC)
    assert parse_element("H", "enveloping") == dirac.u_vec(lie.H_VEC)
    assert parse_element("1/2*H - H1", "symmetric") == symext.SymTensorElement(
        {
            ((1, 0, 0, 0, 0, 0, 0, 0), 0): Fraction(-1, 2),
            ((0, 1, 0, 0, 0, 0, 0, 0), 0): Fraction(-1, 2),
        }
    )


def test_parse_enveloping_straightens():
    got = parse_element("F*E", "enveloping")
    assert got == dirac.u_gen(lie.F) * dirac.u_gen(lie.E)
    assert got != dirac.u_gen(lie.E) * dirac.u_gen(lie.F)


def test_whitespace_insensitivity():
    a = parse_element("1(x)E1^^F1+2", "tensor")
    b = parse_element("  1 ( x )  E1 ^^ F1   +   2 ", "tensor")
    assert a == b


def test_zero_literal():
    for context in ("symmetric", "tensor", "enveloping", "clifford"):
        assert parse_element("0", context).is_zero()


def test_syntax_error_carries_position():
    with pytest.raises(ExprError) as err:
        parse_element("H^2 +* E", "symmetric")
    assert err.value.position == 5


def test_unknown_symbol_error():
    with pytest.raises(ExprError):
        parse_element("Q1 + E", "symmetric")


def test_wedge_outside_exterior_context_fails():
    with pytest.raises(ExprError):
        parse_element("E1^^F1", "symmetric")
    with pytest.raises(ExprError):
        parse_element("E1^^F1", "tensor")
    with pytest.raises(ExprError):
        parse_element("E1^^F1", "clifford")


def test_tensor_separator_outside_tensor_context_fails():
    with pytest.raises(ExprError):
        parse_element("1 (x) E1", "symmetric")
    with pytest.raises(ExprError):
        parse_element("1 (x) E1", "enveloping")


def test_second_tensor_separator_is_refused_at_its_position():
    nested = "the right (exterior) leg of '(x)' cannot hold another '(x)'"
    for text, position in (("1 (x) (E1 (x) F1)", 10), ("E (x) E1 (x) F1", 9)):
        with pytest.raises(ExprError) as err:
            parse_element(text, "tensor")
        assert str(err.value) == "%s (at position %d)" % (nested, position)
    with pytest.raises(ExprError) as err:
        parse_element("E (x) F", "symmetric")
    assert str(err.value) == (
        "'(x)' is only available in the tensor context (at position 2)"
    )
    # A parenthesized left leg may hold its own '(x)'.
    parsed = parse_element("(E (x) E1) (x) F1", "tensor")
    assert format_tensor(parsed) == "E (x) E1^^F1"


def test_bad_exponent():
    with pytest.raises(ExprError):
        parse_element("E^(2)", "symmetric")
    with pytest.raises(ExprError):
        parse_element("E^1/2", "symmetric")


def test_unknown_context():
    with pytest.raises(ValueError):
        parse_element("E", "weyl")


def _random_sym_tensor(rng, allow_ext):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * 8
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(8)] += 1
        mask = rng.randrange(16) if allow_ext else 0
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            terms[(tuple(exps), mask)] = coeff
    return symext.SymTensorElement(terms)


def test_round_trip_tensor_and_symmetric():
    rng = random.Random(43)
    for _ in range(120):
        x = _random_sym_tensor(rng, allow_ext=True)
        assert parse_element(format_tensor(x), "tensor") == x
    for _ in range(60):
        x = _random_sym_tensor(rng, allow_ext=False)
        assert parse_element(format_tensor(x), "symmetric") == x


def test_round_trip_enveloping():
    rng = random.Random(47)
    for _ in range(120):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * 8
            for _ in range(rng.randint(0, 4)):
                exps[rng.randrange(8)] += 1
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if coeff:
                terms[(tuple(exps), 0)] = coeff
        x = dirac.UCElement(terms)
        assert parse_element(format_tensor(x, "*"), "enveloping") == x


def test_round_trip_clifford():
    rng = random.Random(53)
    for _ in range(120):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if coeff:
                terms[((0,) * 8, rng.randrange(16))] = coeff
        x = dirac.UCElement(terms)
        assert parse_element(format_c(x), "clifford") == x


def test_printed_forms_of_noncommutative_contexts():
    cases = (
        ("enveloping", "F1*E1 - 3", "E1*F1 - 2*H1 - H2 - 3"),
        ("clifford", "F2*F1*E2*E1", "E1*E2*F1*F2 - 2*E2*F2 - 2*E1*F1 - 4"),
        (
            "clifford",
            "(E1+F1+E2)^3 + 3/2*F1*E1 - 2",
            "-3/2*E1*F1 - 2*F1 - 2*E2 - 2*E1 - 5",
        ),
    )
    for context, text, want in cases:
        assert format_element(parse_element(text, context), context) == want


def test_print_parse_canonicalizes():
    text = "1 (x) E1^^F1 + 1 (x) E1^^F1"
    parsed = parse_element(text, "tensor")
    assert format_tensor(parsed) == "2 (x) E1^^F1"
    again = parse_element(format_tensor(parsed), "tensor")
    assert again == parsed


def test_format_uc_mentions_both_legs():
    text = format_tensor(dirac.lifted_generators().e, "*")
    assert "(x)" in text and "F1" in text and "E1" in text


def test_format_element_dispatch():
    assert format_element(symext.one(), "tensor") == "1"
    assert format_element(dirac.uc_one(), "enveloping") == "1"
    assert format_element(dirac.uc_one(), "clifford") == "1"
    with pytest.raises(ValueError):
        format_element(symext.one(), "weyl")
