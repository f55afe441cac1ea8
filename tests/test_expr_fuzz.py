"""Fuzzing of the eval and mul commands: any input text gives a result
(exit 0) or a clean ``error: ...`` (exit 2), never a traceback."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from su21_invariants import cli, expr  # noqa: E402

SYMBOLS = ("H1", "H2", "H", "E", "F", "E1", "E2", "F1", "F2", "a", "x", "G")
# No number exceeds 2, so no exponent does; the token counts below keep a
# power of a power small as well.
NUMBERS = ("0", "1", "2", "1/2", "3/4", "2/0")
OPERATORS = ("+", "-", "*", "^", "^^", "(x)", "(", ")", "/")
NON_ASCII = ("é", "²", "∧", "Ｅ", "١", " ")
TOKENS = SYMBOLS + NUMBERS + OPERATORS + NON_ASCII
SEPARATORS = ("", "", " ", "\t", "\n")


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", "^^", "(x)")), inner).map(
            lambda t: t[0] + [t[1]] + t[2]
        ),
        inner.map(lambda t: ["-", "("] + t + [")"]),
        st.tuples(inner, st.sampled_from(("0", "1", "2"))).map(
            lambda t: ["("] + t[0] + [")", "^", t[1]]
        ),
    )


# Token lists of well-formed expressions (with at most two powers), of
# well-formed expressions with one stray token, and of free token noise.
well_formed = st.recursive(
    st.sampled_from(SYMBOLS + NUMBERS).map(lambda t: [t]), _grow, max_leaves=5
).filter(lambda t: t.count("^") <= 2)
token_lists = st.one_of(
    well_formed,
    st.tuples(well_formed, st.integers(0, 20), st.sampled_from(TOKENS)).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1]:]
    ),
    st.lists(st.sampled_from(TOKENS), max_size=16),
)


@st.composite
def expressions(draw):
    parts = []
    for token in draw(token_lists):
        sep = draw(st.sampled_from(SEPARATORS))
        # Two adjacent digit runs would merge into a larger number.
        if not sep and parts and parts[-1][-1:].isdigit() and token[:1].isdigit():
            sep = " "
        parts.append(sep + token)
    return "".join(parts)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    context=st.sampled_from(expr.CONTEXTS),
    texts=st.one_of(
        st.tuples(expressions()), st.tuples(expressions(), expressions())
    ),
)
def test_eval_and_mul_never_raise(context, texts):
    command = "eval" if len(texts) == 1 else "mul"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--context", context, "--", *texts])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    else:
        assert out.getvalue()
