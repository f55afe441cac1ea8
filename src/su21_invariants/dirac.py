"""U(sl3) (x) C(p), the one non-commutative algebra of the package.

An element pairs a PBW monomial with a Clifford blade, a key of
``symext.TensorElement``; ``UCElement`` defines only its product, which
is componentwise, as the legs commute: the PBW rewriting of ``enveloping``
on the left leg, the Clifford rewriting of ``clifford`` on the right.
U(sl3) and C(p) are the subalgebras U(sl3) (x) 1 and 1 (x) C(p), the
elements whose keys all carry the unit blade or the unit monomial; their
letters are ``u_gen`` and ``c_gen`` (``u_vec`` and ``c_vec`` for vectors).

On these letters the module builds the action map of k on p in closed
form,

    alpha(z) = -1/4 sum_i [z, b_i] d_i

over the basis b_i of p and its trace-form dual d_i (Huang and Pandzic,
Dirac Operators in Representation Theory, 2.3; no linear system is
solved); the quadratic Casimir element of U(sl3), the Casimir of the
diagonal copy of k, D and D^k, each a sum over a basis and its dual
``lie.DUAL``; the cubic central element from the symmetric invariant
d_abc = tr(X_a {X_b, X_c}) of the defining representation; and the
distinguished K-invariant elements -- the lifts of the commutative
generators a..j, the Dirac operator D and its k-analogue.  The lifts are
the formulas of ``symext.InvariantGenerators.from_letters`` with the
letters of g taken in U(sl3) and those of p in C(p), multiplied in the
order written.  The exact identity suites tie them together; they check:

  * the ten symmetrization/Chevalley transfer identities,
  * the six identities reducing the generating set to five elements,
  * the formula for D^2 against the Casimir of the diagonal copy of k,
  * the explicit form of the k-Dirac element,
  * commutativity of the subalgebra generated by the four elements that
    survive modulo the ideal generated by D,
  * the expressions of the two central elements of U(sl3).

Everything is exact arithmetic on ``int`` and ``Fraction`` coefficients
(``linalg.exact``): the lifts and D are integral, so their products stay
in integers until a rational scalar such as the -1/4 of alpha or 3/2
enters.  A failed check reports the full residual element, which is what
localizes a convention error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, mul

from . import clifford as cl
from . import enveloping as env
from . import lie
from . import symext
from .lie import GVector
from .linalg import add_terms
from .report import CheckResult, VerificationReport


class UCElement(symext.TensorElement):
    """Element of U(sl3) (x) C(p): {(PBW exponents, blade mask): coefficient}."""

    __slots__ = ()
    SEP = "*"

    def _product(self, other) -> dict:
        """Componentwise product of keys, summed in place; the zeros that
        cancellations leave are dropped by the constructor."""
        out = {}
        get = out.get
        right = other.coeffs.items()
        for (ea, ma), ca in self.coeffs.items():
            for (eb, mb), cb in right:
                q = ca * cb
                u_items = env.pbw_product_items(ea, eb)
                for cm, cc in cl.clifford_product_items(ma, mb):
                    qc = q * cc
                    for ue, uc in u_items:
                        key = (ue, cm)
                        out[key] = get(key, 0) + qc * uc
        return out


uc_scalar = UCElement.scalar
uc_one = UCElement.one
u_vec = UCElement.vector
c_vec = UCElement.p_vector
u_gen = UCElement.letter
c_gen = UCElement.p_letter


def _dual_sum(indices, left, right) -> UCElement:
    """sum_i left(x_i) right(x^i) over the basis letters x_i of the given
    indices and their trace-form duals x^i = ``lie.DUAL[i]``."""
    out = UCElement()
    for i in indices:
        out = out + left(lie.gvec(i)) * right(lie.DUAL[i])
    return out


def alpha(z: GVector) -> UCElement:
    """The action map k -> C(p): alpha(z) = -1/4 sum_i [z, b_i] d_i.

    The sum runs over the basis b_i of p and its trace-form dual d_i in
    ``lie.DUAL``.  It is the closed form of the composite
    k -> so(p) -> C(p) for the relation v w + w v = -2 B(v, w)
    (Huang and Pandzic, Dirac Operators in Representation Theory, 2.3),
    and it satisfies [alpha(z), v] = [z, v] for every v in p.
    """
    if not z.coeffs.keys() <= lie.K_SET:
        raise ValueError("alpha is defined on k only")
    return Fraction(-1, 4) * _dual_sum(
        lie.P_INDICES, lambda b: c_vec(lie.bracket(z, b)), c_vec
    )


def sigma_tau(x: symext.SymTensorElement) -> UCElement:
    """Symmetrize the symmetric leg, Chevalley-map the exterior leg."""
    out = {}
    get = out.get
    for (exps, mask), q in x.coeffs.items():
        u_items = env.symmetrize_items(exps)
        for cm, cc in cl.chevalley_items(mask):
            qc = q * cc
            for ue, uc in u_items:
                key = (ue, cm)
                out[key] = get(key, 0) + qc * uc
    return UCElement(out)


def diagonal_embed(z: GVector) -> UCElement:
    """z (x) 1 + 1 (x) alpha(z), the diagonal copy of k."""
    return u_vec(z) + alpha(z)


def diagonal_action(z: GVector, x: UCElement) -> UCElement:
    d = diagonal_embed(z)
    return d * x - x * d


@lru_cache(maxsize=None)
def dirac_operator() -> UCElement:
    """D = sum_i b_i (x) d_i over the basis b_i of p and its dual d_i."""
    return _dual_sum(lie.P_INDICES, u_vec, c_vec)


def diagonal_casimir() -> UCElement:
    """The Casimir element of the diagonal copy of k."""
    return _dual_sum(lie.K_INDICES, diagonal_embed, diagonal_embed)


def dk_element() -> UCElement:
    """The k-analogue of the Dirac element: sum z_i (x) alpha(dual z_i)."""
    return _dual_sum(lie.K_INDICES, u_vec, alpha)


@lru_cache(maxsize=None)
def casimir_omega() -> UCElement:
    """The degree-two central element of U(g): sum_i x_i x^i over the
    basis of g and its trace-form dual."""
    return _dual_sum(range(lie.DIM), u_vec, u_vec)


def cubic_element() -> UCElement:
    """The degree-three central element of U(g),

        cub = sum_abc d_abc X^a X^b X^c,  d_abc = tr(X_a {X_b, X_c}),

    with X_a the defining matrices and X^a = ``lie.DUAL[a]`` (Kostant,
    Duke Math. J. 100, 1999).  It reads none of the polynomials a..d, so
    the check ``cub-expression`` compares two separate constructions.  The
    traces are taken of the integral matrices 3 X_a, hence the 1/27."""
    mats = lie.INTEGRAL_MATRICES
    # tr(A M) is the dot product of A transposed and M, both read by rows.
    flat_t = [sum(zip(*x), ()) for x in mats]
    prods = [[sum(lie.mat_mul(x, y), ()) for y in mats] for x in mats]
    duals = [u_vec(v) for v in lie.DUAL]
    squares = [[(x * y).coeffs.items() for y in duals] for x in duals]
    out = {}
    for a in range(lie.DIM):
        quad = {}
        for b, c in product(range(lie.DIM), repeat=2):
            anti = map(add, prods[b][c], prods[c][b])
            add_terms(quad, squares[b][c], sum(map(mul, flat_t[a], anti)))
        add_terms(out, (duals[a] * UCElement(quad)).coeffs.items())
    return Fraction(1, 27) * UCElement(out)


def _half_sum_norm_sq(raising_indices):
    """B(rho, rho) for rho half the sum of the weights of the given letters;
    the Cartan element of a weight w is w1 DUAL[H1] + w2 DUAL[H2]."""
    w1 = sum(lie.WEIGHTS[i].h1 for i in raising_indices)
    w2 = sum(lie.WEIGHTS[i].h2 for i in raising_indices)
    rho = Fraction(w1, 2) * lie.DUAL[lie.H1] + Fraction(w2, 2) * lie.DUAL[lie.H2]
    return lie.trace_form(rho, rho)


def rho_g_norm_sq() -> Fraction:
    """Squared trace-form norm of the half sum of the positive g-weights."""
    return _half_sum_norm_sq((lie.E, lie.E1, lie.E2))


def rho_k_norm_sq() -> Fraction:
    """Squared trace-form norm of the half sum of the positive k-weights."""
    return _half_sum_norm_sq((lie.E,))


@lru_cache(maxsize=None)
def lifted_generators() -> symext.InvariantGenerators:
    """Lifts of the ten commutative invariants to U(sl3) (x) C(p): the same
    formulas, with the g-letters in U(sl3) and the p-letters in C(p)."""
    return symext.InvariantGenerators.from_letters(UCElement)


def _residual_check(check_id, anchor, lhs, rhs) -> CheckResult:
    diff = lhs - rhs
    if diff.is_zero():
        return CheckResult(check_id, anchor, True)
    return CheckResult(check_id, anchor, False, symext.format_tensor(diff))


def verify_sigma_tau_table() -> VerificationReport:
    """The ten transfer identities between the commutative generators and
    their lifts."""
    gens = symext.named_invariants()
    lift = lifted_generators()
    half = Fraction(1, 2)
    targets = {
        "a": (lift.a, "a~"),
        "b": (lift.b, "b~"),
        "c": (lift.c - Fraction(3, 2) * lift.a, "c~ - 3/2 a~"),
        "d": (
            lift.d - half * lift.b - Fraction(3, 2) * lift.a,
            "d~ - 1/2 b~ - 3/2 a~",
        ),
        "e": (lift.e, "e~"),
        "f": (lift.f, "f~"),
        "g": (lift.g + 2 * uc_one(), "g~ + 2"),
        "h": (lift.h - Fraction(3, 2) * lift.f, "h~ - 3/2 f~"),
        "i": (lift.i, "i~"),
        "j": (lift.j + Fraction(3, 2) * lift.e, "j~ + 3/2 e~"),
    }
    checks = []
    for name, src in gens.as_dict().items():
        target, label = targets[name]
        checks.append(
            _residual_check(
                "sigma-tau-%s" % name,
                "(sigma x tau)(%s) = %s" % (name, label),
                sigma_tau(src),
                target,
            )
        )
    return VerificationReport("sigma-tau", {}, checks)


def verify_reduction_identities() -> VerificationReport:
    """The six identities expressing e~, f~, c~, h~, j~, d~ through the
    five-element generating set."""
    lift = lifted_generators()
    a, b, c = lift.a, lift.b, lift.c
    e, f, g = lift.e, lift.f, lift.g
    h, i, j = lift.h, lift.i, lift.j
    d = lift.d
    D = dirac_operator()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    checks = [
        _residual_check(
            "reduce-e",
            "e~ = 1/2 (D + 1/2 D g~ - 1/2 g~ D)",
            e,
            half * (D + half * (D * g) - half * (g * D)),
        ),
        _residual_check(
            "reduce-f",
            "f~ = 1/2 (D - 1/2 D g~ + 1/2 g~ D)",
            f,
            half * (D - half * (D * g) + half * (g * D)),
        ),
        _residual_check(
            "reduce-c",
            "c~ = -1/4 (i~ + 2(e~ f~ + f~ e~) + 3 a~ g~)",
            c,
            -quarter * (i + 2 * (e * f + f * e) + 3 * (a * g)),
        ),
        _residual_check(
            "reduce-h",
            "h~ = 2(f~ c~ - c~ f~) - 3 a~ f~ + 6 f~",
            h,
            2 * (f * c - c * f) - 3 * (a * f) + 6 * f,
        ),
        _residual_check(
            "reduce-j",
            "j~ = 2(c~ e~ - e~ c~) - 3 a~ e~",
            j,
            2 * (c * e - e * c) - 3 * (a * e),
        ),
        _residual_check(
            "reduce-d",
            "d~ = 1/2 (-h~ e~ - e~ h~ + 2 c~ g~ - e~ f~ - 6 a~ g~"
            " - 1/2 b~ g~ - i~ - 3/2 a~ i~)",
            d,
            half
            * (
                -(h * e)
                - e * h
                + 2 * (c * g)
                - e * f
                - 6 * (a * g)
                - half * (b * g)
                - i
                - Fraction(3, 2) * (a * i)
            ),
        ),
    ]
    return VerificationReport("reduction", {}, checks)


def verify_dirac_square() -> VerificationReport:
    """D^2 against the Casimir elements and the derived rho norms."""
    rg = rho_g_norm_sq()
    rk = rho_k_norm_sq()
    ok = rg == 2 and rk == Fraction(1, 2)
    anchor = "|rho_g|^2 = 2 and |rho_k|^2 = 1/2 under the trace form"
    residual = None if ok else "got %s, %s" % (rg, rk)
    checks = [CheckResult("rho-norms", anchor, ok, residual)]
    D = dirac_operator()
    lhs = D * D
    rhs = -(casimir_omega() + rg * uc_one()) + (
        diagonal_casimir() + rk * uc_one()
    )
    checks.append(
        _residual_check(
            "parthasarathy",
            "D^2 = -(Omega (x) 1 + |rho_g|^2) + (Cas_k_diag + |rho_k|^2)",
            lhs,
            rhs,
        )
    )
    return VerificationReport("dirac-square", {}, checks)


def verify_dk_identity() -> VerificationReport:
    """The explicit form of the k-Dirac element; pins the alpha scaling."""
    lift = lifted_generators()
    lhs = dk_element()
    rhs = -Fraction(1, 4) * (lift.i + 3 * (lift.a * lift.g)) - Fraction(3, 2) * lift.a
    checks = [
        _residual_check(
            "dk-identity",
            "D^k = -1/4 (i~ + 3 a~ g~) - 3/2 a~",
            lhs,
            rhs,
        )
    ]
    return VerificationReport("dk", {}, checks)


def verify_abelian_commutators() -> VerificationReport:
    """Pairwise commutators among a~, b~, g~, i~ vanish."""
    lift = lifted_generators()
    named = [("a", lift.a), ("b", lift.b), ("g", lift.g), ("i", lift.i)]
    checks = []
    for x in range(len(named)):
        for y in range(x + 1, len(named)):
            nx, ex = named[x]
            ny, ey = named[y]
            checks.append(
                _residual_check(
                    "commute-%s-%s" % (nx, ny),
                    "[%s~, %s~] = 0" % (nx, ny),
                    ex * ey,
                    ey * ex,
                )
            )
    return VerificationReport("abelian", {}, checks)


def verify_casimir_expressions() -> VerificationReport:
    """The quadratic and cubic central elements: expressions and centrality."""
    lift = lifted_generators()
    omega = casimir_omega()
    cub = cubic_element()
    checks = [
        _residual_check(
            "omega-expression",
            "Omega = 3/2 a~^2 + b~/2 + 2 c~ - 3 a~",
            omega,
            Fraction(3, 2) * (lift.a * lift.a)
            + Fraction(1, 2) * lift.b
            + 2 * lift.c
            - 3 * lift.a,
        ),
        _residual_check(
            "cub-expression",
            "cub = -3/2 a~^3 + 3/2 a~ b~ - 3 a~ c~ + 9/2 a~^2 - 3 a~ + 3 d~ - 3/2 b~",
            cub,
            Fraction(-3, 2) * lift.a ** 3
            + Fraction(3, 2) * (lift.a * lift.b)
            - 3 * (lift.a * lift.c)
            + Fraction(9, 2) * (lift.a * lift.a)
            - 3 * lift.a
            + 3 * lift.d
            - Fraction(3, 2) * lift.b,
        ),
    ]
    for name, elt in (("omega", omega), ("cub", cub)):
        bad = []
        for gi in range(lie.DIM):
            x = u_gen(gi)
            com = elt * x - x * elt
            if not com.is_zero():
                bad.append(
                    "[%s, %s] = %s"
                    % (name, lie.BASIS_NAMES[gi], symext.format_tensor(com))
                )
        checks.append(
            CheckResult(
                "%s-central" % name,
                "%s commutes with all eight generators" % name,
                not bad,
                "; ".join(bad) if bad else None,
            )
        )
    return VerificationReport("casimir", {}, checks)
