"""Element expressions: a small parser, and parsing and printing by context.

Grammar (whitespace insensitive):

    expr    :=  ['-'] term  (('+' | '-') term)*
    term    :=  product [ '(x)' product ]        tensor separator
    product :=  wedged ('*' wedged)*
    wedged  :=  power ('^^' power)*              wedge, exterior side only
    power   :=  atom ['^' INTEGER]
    atom    :=  NUMBER | SYMBOL | '(' expr ')'
    NUMBER  :=  digits ['/' digits]

The same grammar serves four contexts which differ only in the symbols
they admit and the algebra the operators act in; one table holds, per
context, the letter constructors, the scalar and the printer:

    symmetric   S(g); symbols H1 H2 H E F E1 E2 F1 F2 a
    tensor      S(g) (x) Lambda(p); right of '(x)' the symbols E1 E2 F1 F2
                denote exterior generators and '^^' is their product
    enveloping  U(sl3) with normal-form products
    clifford    C(p); symbols E1 E2 F1 F2

The enveloping and clifford contexts both parse into ``dirac.UCElement``,
U(sl3) as U(sl3) (x) 1 and C(p) as 1 (x) C(p).  An enveloping element
prints with ``symext.format_tensor``, whose unit-blade terms show the U-leg
alone; a clifford element with ``symext.format_c``, the blade of each key.

H and a abbreviate H1 - H2 and H1 + H2.  Parentheses nest at most
MAX_NESTING (100) levels deep, and an exponent is at most MAX_EXPONENT
(32): the cost of a power grows quickly with its exponent.  The size of
a power is capped as well: x^n with x of t terms may have up to
C(t + n - 1, n) terms, the number of degree-n monomials in t letters,
and that count is at most MAX_POWER_TERMS (20 000), so in the symmetric
and tensor contexts the power of all eight letters of g may go to 10
(19 448 terms) but not to 11.  In the enveloping and clifford contexts
straightening adds every lower degree, so there the count is
C(t + n, n), the monomials of degree at most n: the power L^n of all
eight letters has 12 758 terms at n = 8 against a count of 12 870,
24 073 against 24 310 at 9 and 43 469 against 43 758 at 10, and takes
0.67, 1.49 and 3.87 seconds (CPU time of the parse, Python 3.11.7, one
core of a shared 2-vCPU Xeon), so L^8 is accepted and L^9 refused;
(E+F)^32 counts 561.  A product x * y, whether by
'*', '^^' or '(x)', walks every pair of terms, so the term counts of its
factors may multiply to at most MAX_PRODUCT_PAIRS (2 000 000): in the
symmetric context a product of 1 716 by 1 166 terms (2.0 million pairs)
takes about 2.2 seconds on the same machine, while the square of the
power of all eight letters to 10 (378 million pairs) is refused.  In the
enveloping context a pair costs more the higher the degree of the right
factor, since PBW products straighten from the right, so there a pair of
factors of degrees p and q counts q (p + q) / 2 times.  CPU time of the
product alone, L the sum of the eight letters (Python 3.11.7, one core
of a shared 2-vCPU Xeon):

    product               pairs       counted as   CPU time
    L^5 * L^5             1 597 696   39 942 400   about 71 s   refused
    (E+F)^14 squared        280 900   55 056 400   37.0 s       refused
    L^2 * L^8               561 352   22 454 080   20.7 s       refused
    (E+F)^12 squared        112 225   16 160 400   9.4 s        refused
    (E1+F1)^12 squared      112 225   16 160 400   8.5 s        refused
    (E+F)^4 * (E+F)^20       32 110    7 706 400   4.1 s        refused
    L^4 * L^4               234 256    3 748 096   4.4 s        refused
    (E+F)^20 * (E+F)^4       32 110    1 541 280   0.71 s
    (E+F)^8 squared          10 000      640 000   0.41 s
    L^3 * L^3                24 336      219 024   0.34 s

Deeper nesting, a larger exponent, a larger power or a larger product is
an ExprError, like any other malformed expression, and the ``mul``
command refuses the product of its two arguments past the same cap.

Printing emits one term per canonical key, so parse(print(x)) recovers x
exactly, and print(parse(s)) canonicalizes s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb

from . import dirac, lie, symext
from .symext import format_c, format_tensor

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
    may multiply to at most MAX_PRODUCT_PAIRS.  In U(g) (x) C(p), with
    factors of degrees p and q, each pair counts q (p + q) / 2 times, so a
    pair of letters counts once."""
    pairs = len(x.coeffs) * len(y.coeffs)
    size = "%d by %d terms" % (len(x.coeffs), len(y.coeffs))
    verb = "has"
    if pairs and isinstance(x, dirac.UCElement):
        p, q = max(x.degree(), 1), max(y.degree(), 1)
        pairs = pairs * q * (p + q) // 2
        size += " of degrees %d and %d" % (p, q)
        verb = "counts as"
    if pairs <= MAX_PRODUCT_PAIRS:
        return None
    return "a product of %s %s %d term pairs, over the cap of %d" % (
        size, verb, pairs, MAX_PRODUCT_PAIRS
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


def _symbols(gen, indices) -> dict:
    """Symbol table of a letter constructor over the given basis indices;
    H and a join it when the Cartan letters are there."""
    table = {lie.BASIS_NAMES[i]: gen(i) for i in indices}
    if lie.H1 in indices:
        table["H"] = table["H1"] - table["H2"]
        table["a"] = table["H1"] + table["H2"]
    return table


_G = range(lie.DIM)
_P = lie.P_INDICES

# Per context, in CONTEXTS order: the letters (constructor, basis indices),
# the exterior letters right of '(x)' or None, the scalar and the printer.
_CONTEXTS = {
    "symmetric": ((symext.sym_gen, _G), None, symext.scalar, format_tensor),
    "enveloping": (
        (dirac.u_gen, _G), None, dirac.uc_scalar, partial(format_tensor, sep="*")
    ),
    "clifford": ((dirac.c_gen, _P), None, dirac.uc_scalar, format_c),
    "tensor": (
        (symext.sym_gen, _G), (symext.ext_gen, _P), symext.scalar, format_tensor
    ),
}
CONTEXTS = tuple(_CONTEXTS)


def _context(context: str) -> tuple:
    if context not in _CONTEXTS:
        raise ValueError("unknown context %r" % context)
    return _CONTEXTS[context]


class _Parser:
    def __init__(self, tokens, symbols, ext_symbols, scalar):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.symbols = symbols
        self.ext_symbols = ext_symbols
        self.scalar = scalar

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
        # Right of '(x)' the term goes on in the exterior leg, which a second
        # '(x)' cannot enter.
        while self.peek()[0] == "tensor":
            if not self.ext_symbols:
                self.fail("'(x)' is only available in the tensor context")
            if ext_mode:
                self.fail("the right (exterior) leg of '(x)' cannot hold another '(x)'")
            position = self.advance()[2]
            value = self.times(value, self.product(True), position)
            ext_mode = True
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
            t = max(terms, 1)
            if isinstance(value, dirac.UCElement):
                # Straightening adds every lower degree: all the monomials
                # of degree at most n.
                size = comb(t + exponent, exponent)
            else:
                size = comb(t + exponent - 1, exponent)
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
    letters, ext_letters, scalar, _ = _context(context)
    tokens = tokenize(text)
    ext = _symbols(*ext_letters) if ext_letters else {}
    return _Parser(tokens, _symbols(*letters), ext, scalar).parse()


def format_element(x, context: str) -> str:
    return _context(context)[3](x)
