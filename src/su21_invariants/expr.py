"""Element expressions: a small parser and deterministic pretty-printers.

Grammar (whitespace insensitive):

    expr    :=  ['-'] term  (('+' | '-') term)*
    term    :=  product [ '(x)' product ]        tensor separator
    product :=  wedged ('*' wedged)*
    wedged  :=  power ('^^' power)*              wedge, exterior side only
    power   :=  atom ['^' INTEGER]
    atom    :=  NUMBER | SYMBOL | '(' expr ')'
    NUMBER  :=  digits ['/' digits]

The same grammar serves four contexts which differ only in the symbols
they admit and the algebra the operators act in:

    symmetric   S(g); symbols H1 H2 H E F E1 E2 F1 F2 a
    tensor      S(g) (x) Lambda(p); right of '(x)' the symbols E1 E2 F1 F2
                denote exterior generators and '^^' is their product
    enveloping  U(sl3) with normal-form products
    clifford    C(p); symbols E1 E2 F1 F2

The enveloping and clifford contexts both parse into ``dirac.UCElement``,
U(sl3) as U(sl3) (x) 1 and C(p) as 1 (x) C(p).  An enveloping element
prints with ``format_tensor``, whose unit-blade terms show the U-leg
alone; a clifford element prints with ``format_c``, the blade of each key.

H and a abbreviate H1 - H2 and H1 + H2.  Parentheses nest at most
MAX_NESTING (100) levels deep, and an exponent is at most MAX_EXPONENT
(32): the cost of a power grows quickly with its exponent.  The size of a
power is capped as well: x^n with x of t terms may have up to
C(t + n - 1, n) terms, the number of degree-n monomials in t letters, and
that count is at most MAX_POWER_TERMS (20 000), so the power of all
eight letters of g may go to 10 (19 448 terms) but not to 14; in the
enveloping context that power takes about 2.5 seconds, and (E+F)^32
about 0.7 seconds (Python 3.11, one core of a 2-vCPU Xeon).  A product
x * y, whether by '*', '^^' or '(x)', walks every pair of terms, so the
term counts of its factors may multiply to at most MAX_PRODUCT_PAIRS
(2 000 000): in the symmetric context a product of 1 716 by 1 166 terms
(2.0 million pairs) takes about 2.2 seconds on the same machine, while
the square of the power of all eight letters to 10 (378 million pairs)
is refused.  A pair in the enveloping context costs more, and more the
higher the degrees of its two monomials.  Deeper nesting, a larger
exponent, a larger power or a larger product is an ExprError, like any
other malformed expression, and the ``mul`` command refuses the product
of its two arguments past the same cap.

Printing emits one term per canonical key, so parse(print(x)) recovers x
exactly, and print(parse(s)) canonicalizes s.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import dirac, lie, symext

CONTEXTS = ("symmetric", "enveloping", "clifford", "tensor")
MAX_NESTING = 100
MAX_EXPONENT = 32
MAX_POWER_TERMS = 20000
MAX_PRODUCT_PAIRS = 2000000


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def product_problem(x, y) -> str | None:
    """Why x * y is refused, or None: the term counts of the two factors
    may multiply to at most MAX_PRODUCT_PAIRS."""
    pairs = len(x.coeffs) * len(y.coeffs)
    if pairs <= MAX_PRODUCT_PAIRS:
        return None
    return "a product of %d by %d terms has %d term pairs, over the cap of %d" % (
        len(x.coeffs), len(y.coeffs), pairs, MAX_PRODUCT_PAIRS
    )


# Only ASCII digits form numbers: str.isdigit() also admits other scripts'
# digits and superscripts, which int() either reads or rejects untidily.
_DIGITS = "0123456789"


def tokenize(text: str) -> list:
    """Token stream of (kind, value, position) triples."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "x":
                k = j + 1
                while k < n and text[k].isspace():
                    k += 1
                if k < n and text[k] == ")":
                    out.append(("tensor", "(x)", i))
                    i = k + 1
                    continue
            out.append(("lparen", "(", i))
            i += 1
            continue
        if ch == ")":
            out.append(("rparen", ")", i))
            i += 1
            continue
        if ch == "^":
            if i + 1 < n and text[i + 1] == "^":
                out.append(("wedge", "^^", i))
                i += 2
            else:
                out.append(("power", "^", i))
                i += 1
            continue
        if ch in "+-*":
            out.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            num = int(text[i:j])
            den = 1
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or text[k] not in _DIGITS:
                    raise ExprError("expected digits after '/'", j)
                j = k
                while j < n and text[j] in _DIGITS:
                    j += 1
                den = int(text[k:j])
                if not den:
                    raise ExprError("zero denominator", k)
            out.append(("number", Fraction(num, den), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            out.append(("symbol", text[i:j], i))
            i = j
            continue
        raise ExprError("unexpected character %r" % ch, i)
    out.append(("end", "", n))
    return out


def _symbols(gen, indices=range(lie.DIM)) -> dict:
    """Symbol table of a letter constructor over the given basis indices;
    H and a join it when the Cartan letters are there."""
    table = {lie.BASIS_NAMES[i]: gen(i) for i in indices}
    if lie.H1 in indices:
        table["H"] = table["H1"] - table["H2"]
        table["a"] = table["H1"] + table["H2"]
    return table


class _Parser:
    def __init__(self, tokens, symbols, ext_symbols, scalar, allow_tensor):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.symbols = symbols
        self.ext_symbols = ext_symbols
        self.scalar = scalar
        self.allow_tensor = allow_tensor

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ExprError(message, self.peek()[2])

    def times(self, value, rhs, position):
        """value * rhs, refused at the operator's position when too large."""
        problem = product_problem(value, rhs)
        if problem:
            raise ExprError(problem, position)
        return value * rhs

    def parse(self):
        value = self.expr(False)
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")
        return value

    def expr(self, ext_mode):
        negative = False
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            negative = val == "-"
        value = self.term(ext_mode)
        if negative:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term(ext_mode)
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self, ext_mode):
        value = self.product(ext_mode)
        if self.peek()[0] == "tensor":
            if ext_mode or not self.allow_tensor:
                self.fail("'(x)' is only available in the tensor context")
            position = self.advance()[2]
            value = self.times(value, self.product(True), position)
        return value

    def product(self, ext_mode):
        value = self.wedged(ext_mode)
        while True:
            kind, val, position = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                value = self.times(value, self.wedged(ext_mode), position)
            else:
                return value

    def wedged(self, ext_mode):
        value = self.power(ext_mode)
        while self.peek()[0] == "wedge":
            if not ext_mode:
                self.fail("'^^' is only available in the exterior leg")
            position = self.advance()[2]
            value = self.times(value, self.power(ext_mode), position)
        return value

    def power(self, ext_mode):
        value = self.atom(ext_mode)
        if self.peek()[0] == "power":
            self.advance()
            kind, val, _ = self.peek()
            if kind != "number" or val.denominator != 1:
                self.fail("expected an integer exponent")
            exponent = val.numerator
            if exponent > MAX_EXPONENT:
                self.fail(
                    "exponent %d exceeds the cap of %d" % (exponent, MAX_EXPONENT)
                )
            terms = len(value.coeffs)
            size = comb(max(terms, 1) + exponent - 1, exponent)
            if size > MAX_POWER_TERMS:
                self.fail(
                    "a power of %d terms to the %d may have %d terms, over the cap of %d"
                    % (terms, exponent, size, MAX_POWER_TERMS)
                )
            self.advance()
            value = value ** exponent
        return value

    def atom(self, ext_mode):
        kind, val, _ = self.peek()
        if kind == "number":
            self.advance()
            return self.scalar(val)
        if kind == "symbol":
            table = self.ext_symbols if ext_mode else self.symbols
            if val not in table:
                self.fail("unknown symbol %r" % val)
            self.advance()
            return table[val]
        if kind == "lparen":
            if self.depth == MAX_NESTING:
                self.fail("parentheses nested deeper than %d" % MAX_NESTING)
            self.depth += 1
            self.advance()
            value = self.expr(ext_mode)
            if self.peek()[0] != "rparen":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return value
        self.fail("expected a number, symbol or '('")


def parse_element(text: str, context: str):
    """Parse an expression in the chosen context; canonical element out."""
    if context not in CONTEXTS:
        raise ValueError("unknown context %r" % context)
    tokens = tokenize(text)
    if context in ("symmetric", "tensor"):
        tensor = context == "tensor"
        ext = _symbols(symext.ext_gen, lie.P_INDICES) if tensor else {}
        parser = _Parser(tokens, _symbols(symext.sym_gen), ext, symext.scalar, tensor)
    elif context == "enveloping":
        parser = _Parser(tokens, _symbols(dirac.u_gen), {}, dirac.uc_scalar, False)
    else:
        letters = _symbols(dirac.c_gen, lie.P_INDICES)
        parser = _Parser(tokens, letters, {}, dirac.uc_scalar, False)
    return parser.parse()


def _exps_str(exps) -> str | None:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(lie.BASIS_NAMES[i])
        elif e:
            parts.append("%s^%d" % (lie.BASIS_NAMES[i], e))
    return "*".join(parts) if parts else None


def _mask_str(mask, sep) -> str | None:
    names = [lie.BASIS_NAMES[lie.E1 + k] for k in range(4) if mask >> k & 1]
    return sep.join(names) if names else None


def _join_terms(terms) -> str:
    if not terms:
        return "0"
    out = []
    for i, (q, body) in enumerate(terms):
        mag = abs(q)
        if body is None:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if i == 0:
            out.append("-" + text if q < 0 else text)
        else:
            out.append((" - " if q < 0 else " + ") + text)
    return "".join(out)


def format_tensor(x, sep="^^") -> str:
    """Print an element of S(g) (x) Lambda(p), or with sep="*" of
    U(g) (x) C(p); sep joins the letters of the right tensor leg."""
    terms = []
    for key in sorted(
        x.coeffs, key=lambda k: (sum(k[0]) + k[1].bit_count(), k), reverse=True
    ):
        exps, mask = key
        q = x.coeffs[key]
        left = _exps_str(exps)
        right = _mask_str(mask, sep)
        if right is None:
            terms.append((q, left))
        else:
            lead = left if left is not None else str(abs(q))
            body = "%s (x) %s" % (lead, right)
            if left is None:
                # magnitude already folded into the left leg
                terms.append((1 if q > 0 else -1, body))
            else:
                terms.append((q, body))
    return _join_terms(terms)


def format_c(x) -> str:
    """Print an element of C(p): a U (x) C element whose keys all carry
    the unit monomial, written as a word in the C-leg alone."""
    terms = []
    for key in sorted(x.coeffs, key=lambda k: (k[1].bit_count(), k), reverse=True):
        terms.append((x.coeffs[key], _mask_str(key[1], "*")))
    return _join_terms(terms)


def format_element(x, context: str) -> str:
    if context in ("symmetric", "tensor"):
        return format_tensor(x)
    if context == "enveloping":
        return format_tensor(x, "*")
    if context == "clifford":
        return format_c(x)
    raise ValueError("unknown context %r" % context)
