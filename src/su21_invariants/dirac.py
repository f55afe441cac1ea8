"""U(sl3) (x) C(p), the one non-commutative algebra of the package.

An element pairs a PBW monomial with a Clifford blade; the two tensor legs
commute with each other, so multiplication is componentwise: the PBW
rewriting of ``enveloping`` on the left leg, the Clifford rewriting of
``clifford`` on the right.  U(sl3) and C(p) are the commuting subalgebras
U(sl3) (x) 1 and 1 (x) C(p): an element of either is a ``UCElement``
whose keys all carry the unit blade or the unit monomial, and their
letters are ``u_gen`` and ``c_gen`` (``u_vec`` and ``c_vec`` for vectors).

On these letters the module builds the action map of k on p in closed
form,

    alpha(z) = -1/4 sum_i [z, b_i] d_i

over trace-form-dual bases (b_i, d_i) of p (Huang and Pandzic, Dirac
Operators in Representation Theory, 2.3; no linear system is solved);
the quadratic Casimir element of U(sl3) from dual bases of the trace
form and the cubic central element from a, b, c, d; and the
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

from . import clifford as cl
from . import enveloping as env
from . import lie
from . import symext
from .lie import GVector
from .linalg import SparseElement
from .report import CheckResult, VerificationReport

ZERO_EXPS = env.ZERO_EXPS


class UCElement(SparseElement):
    """Element of U(sl3) (x) C(p): {(PBW exponents, blade mask): coefficient}."""

    __slots__ = ()
    UNIT = (ZERO_EXPS, 0)
    KEYS = {}
    key_degree = staticmethod(symext.SymTensorElement.key_degree)

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

    def __repr__(self):
        from . import expr

        return "UCElement(%s)" % expr.format_tensor(self, "*")


uc_scalar = UCElement.scalar


def uc_one() -> UCElement:
    return uc_scalar(1)


def u_vec(v: GVector) -> UCElement:
    """v in g as the element v (x) 1."""
    return UCElement({(env._inc(ZERO_EXPS, i), 0): c for i, c in v.coeffs.items()})


def c_vec(v: GVector) -> UCElement:
    """v in p as the element 1 (x) v."""
    out = {}
    for i, c in v.coeffs.items():
        if i not in lie.P_SET:
            raise ValueError("vector is not in p")
        out[(ZERO_EXPS, 1 << (i - lie.E1))] = c
    return UCElement(out)


def u_gen(i: int) -> UCElement:
    """The basis letter i of g in the U-leg."""
    return u_vec(lie.gvec(i))


def c_gen(i: int) -> UCElement:
    """The basis letter i of p in the C-leg; ValueError off p."""
    return c_vec(lie.gvec(i))


def alpha(z: GVector) -> UCElement:
    """The action map k -> C(p): alpha(z) = -1/4 sum_i [z, b_i] d_i.

    The sum runs over the trace-form-dual bases (b_i, d_i) of p in
    ``lie.P_DUAL_PAIRS``.  It is the closed form of the composite
    k -> so(p) -> C(p) for the relation v w + w v = -2 B(v, w)
    (Huang and Pandzic, Dirac Operators in Representation Theory, 2.3),
    and it satisfies [alpha(z), v] = [z, v] for every v in p.
    """
    if not z.coeffs.keys() <= lie.K_SET:
        raise ValueError("alpha is defined on k only")
    out = UCElement()
    for b, d in lie.P_DUAL_PAIRS:
        out = out + c_vec(lie.bracket(z, lie.gvec(b))) * c_gen(d)
    return Fraction(-1, 4) * out


def sigma_tau(x: symext.SymTensorElement) -> UCElement:
    """Symmetrize the symmetric leg, Chevalley-map the exterior leg."""
    out = {}
    get = out.get
    for (exps, mask), q in x.coeffs.items():
        u_items = env._symmetrize_items(exps)
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


def _check_dual(pairs) -> None:
    """Raise ValueError unless B(v_i, d_j) is 1 for i = j and 0 otherwise."""
    for i, (v, _) in enumerate(pairs):
        for j, (_, d) in enumerate(pairs):
            if lie.trace_form(v, d) != (1 if i == j else 0):
                raise ValueError("bases are not dual for the trace form")


def dirac_from_dual_pairs(pairs) -> UCElement:
    """Sum b_i (x) d_i over a trace-form-dual pair of bases of p."""
    _check_dual(pairs)
    out = UCElement()
    for v, d in pairs:
        out = out + u_vec(v) * c_vec(d)
    return out


@lru_cache(maxsize=None)
def dirac_operator() -> UCElement:
    return dirac_from_dual_pairs(
        [(lie.gvec(b), lie.gvec(d)) for b, d in lie.P_DUAL_PAIRS]
    )


@lru_cache(maxsize=None)
def k_dual_pairs() -> tuple:
    """The trace-form-dual pair of bases of k used for diagonal sums."""
    pairs = (
        (lie.gvec(lie.E), lie.gvec(lie.F)),
        (lie.gvec(lie.F), lie.gvec(lie.E)),
        (lie.H_VEC, Fraction(1, 2) * lie.H_VEC),
        (lie.A_VEC, Fraction(3, 2) * lie.A_VEC),
    )
    _check_dual(pairs)
    return pairs


def diagonal_casimir(pairs=None) -> UCElement:
    if pairs is None:
        pairs = k_dual_pairs()
    out = UCElement()
    for z, zd in pairs:
        out = out + diagonal_embed(z) * diagonal_embed(zd)
    return out


def dk_element(pairs=None) -> UCElement:
    """The k-analogue of the Dirac element: sum z_i (x) alpha(dual z_i)."""
    if pairs is None:
        pairs = k_dual_pairs()
    out = UCElement()
    for z, zd in pairs:
        out = out + u_vec(z) * alpha(zd)
    return out


@lru_cache(maxsize=None)
def casimir_omega() -> UCElement:
    """The degree-two central element of U(g): sum_i z_i z^i over the
    trace-form-dual bases of k (``k_dual_pairs``) and of p."""
    out = UCElement()
    for z, zd in k_dual_pairs():
        out = out + u_vec(z) * u_vec(zd)
    for b, d in lie.P_DUAL_PAIRS:
        out = out + u_gen(b) * u_gen(d)
    return out


@lru_cache(maxsize=None)
def cubic_element() -> UCElement:
    """The degree-three central element of U(g), expressed through the
    a, b, c, d written in U(g)."""
    ua, ub, uc, ud = symext.polynomial_invariants(u_gen)
    return (
        Fraction(-3, 2) * ua ** 3
        + Fraction(3, 2) * (ua * ub)
        - 3 * (ua * uc)
        + Fraction(9, 2) * (ua * ua)
        - 3 * ua
        + 3 * ud
        - Fraction(3, 2) * ub
    )


def _cartan_dual_of_weight(w) -> GVector:
    """The Cartan element pairing to the given weight via the trace form."""
    b11 = lie.FORM_TABLE[lie.H1][lie.H1]
    b12 = lie.FORM_TABLE[lie.H1][lie.H2]
    b22 = lie.FORM_TABLE[lie.H2][lie.H2]
    det = b11 * b22 - b12 * b12
    a, b = Fraction(w[0]), Fraction(w[1])
    x = (b22 * a - b12 * b) / det
    y = (b11 * b - b12 * a) / det
    return GVector({lie.H1: x, lie.H2: y})


def _half_sum_norm_sq(raising_indices) -> Fraction:
    s1 = Fraction(0)
    s2 = Fraction(0)
    for i in raising_indices:
        w = lie.weight_of(i)
        s1 += w.h1
        s2 += w.h2
    rho = (Fraction(1, 2) * s1, Fraction(1, 2) * s2)
    v = _cartan_dual_of_weight(rho)
    return lie.trace_form(v, v)


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
    return symext.InvariantGenerators.from_letters(u_gen, c_gen)


def _residual_check(check_id, anchor, lhs, rhs) -> CheckResult:
    from . import expr

    diff = lhs - rhs
    if diff.is_zero():
        return CheckResult(check_id, anchor, True)
    return CheckResult(check_id, anchor, False, expr.format_tensor(diff, "*"))


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
    checks = []
    rg = rho_g_norm_sq()
    rk = rho_k_norm_sq()
    checks.append(
        CheckResult(
            "rho-norms",
            "|rho_g|^2 = 2 and |rho_k|^2 = 1/2 under the trace form",
            rg == 2 and rk == Fraction(1, 2),
            None if (rg == 2 and rk == Fraction(1, 2)) else "got %s, %s" % (rg, rk),
        )
    )
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
    from . import expr

    for name, elt in (("omega", omega), ("cub", cub)):
        bad = []
        for gi in range(lie.DIM):
            x = u_gen(gi)
            com = elt * x - x * elt
            if not com.is_zero():
                bad.append(
                    "[%s, %s] = %s"
                    % (name, lie.BASIS_NAMES[gi], expr.format_tensor(com, "*"))
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
