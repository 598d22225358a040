"""Depth-2 multiple zeta functions of fields of genus g >= 1.

In the coordinates u = q^-(s+w), v = q^-w the depth-2 sum splits along the
degree thresholds 2g-1 into three pieces

    Z_2(K; s, w) = A(u, v) + B(u, v) + C(u, v):

A is the finite polynomial head, B closes the inner tail (poles only at
v = 1, 1/q), and C closes the outer tail (poles among u = 1, 1/q, 1/q^2 and
v = 1, 1/q).  The module also produces the explicit numerator/denominator
polynomial pair P, Q with Z_2 = P/Q, the degree bounds, and the genus-1
decomposition through the one-variable zeta function.

For depth >= 3 at genus >= 1 no closed form is produced here; only the
definitional truncated-series oracle covers that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import FactoredRational, LaurentPolynomial, QPowerFactor, atom_product
from .fieldspec import FunctionFieldSpec, effective_count, one_var_zeta
from .rational_field import IdentityViolationError

U, V = 0, 1  # variable indices in (u, v) values

ALLOWED_POLE_ATOMS = "u=1, u=1/q, u=1/q^2, v=1, v=1/q"


def _require_positive_genus(spec: FunctionFieldSpec) -> None:
    if spec.genus < 1:
        raise ValueError(f"need genus >= 1, got genus {spec.genus}")


_UV_ATOMS = {
    "1-u": QPowerFactor(0, (1, 0)),
    "1-qu": QPowerFactor(1, (1, 0)),
    "1-q2u": QPowerFactor(2, (1, 0)),
    "1-v": QPowerFactor(0, (0, 1)),
    "1-qv": QPowerFactor(1, (0, 1)),
}


def _uv_product(q: int, *names: str) -> LaurentPolynomial:
    return atom_product(q, 2, [_UV_ATOMS[name] for name in names])


def part_A(spec: FunctionFieldSpec) -> FactoredRational:
    """Head polynomial: sum_{n<=2g-2} sum_{m<=2g-2-n} b_n b_(m+n) u^n v^m."""
    _require_positive_genus(spec)
    g = spec.genus
    terms = {}
    for n in range(0, 2 * g - 1):
        for m in range(0, 2 * g - 1 - n):
            terms[(n, m)] = effective_count(spec, n) * effective_count(spec, m + n)
    return FactoredRational(spec.q, LaurentPolynomial(2, terms))


def part_B(spec: FunctionFieldSpec) -> FactoredRational:
    """Inner tail: (h/(q-1)) [q^g/(1-qv) - 1/(1-v)] v^(2g-1) sum_n b_n (u/v)^n.

    The Laurent sum is cleared against the v^(2g-1) prefactor before assembly
    (n <= 2g-2 keeps every v-exponent >= 1), so the result is a polynomial
    over the atoms (1-v)(1-qv).
    """
    _require_positive_genus(spec)
    q, g, h = spec.q, spec.genus, spec.class_number
    cleared = LaurentPolynomial(
        2,
        {
            (n, 2 * g - 1 - n): effective_count(spec, n)
            for n in range(0, 2 * g - 1)
        },
    )
    bracket = _uv_product(q, "1-v").scale(q**g) - _uv_product(q, "1-qv")
    num = (bracket * cleared).scale(Fraction(h, q - 1))
    return FactoredRational(q, num, [_UV_ATOMS["1-v"], _UV_ATOMS["1-qv"]])


def part_C(spec: FunctionFieldSpec) -> FactoredRational:
    """Outer tail: (h/(q-1))^2 u^(2g-1) times

        [ q^(2g)/((1-qv)(1-q^2 u)) - q^g/((1-qv)(1-qu))
          - q^g/((1-v)(1-qu))      + 1/((1-v)(1-u)) ].
    """
    _require_positive_genus(spec)
    q, g, h = spec.q, spec.genus, spec.class_number
    atoms = _UV_ATOMS
    u_pref = (2 * g - 1, 0)
    pieces = [
        (q ** (2 * g), [atoms["1-qv"], atoms["1-q2u"]]),
        (-(q**g), [atoms["1-qv"], atoms["1-qu"]]),
        (-(q**g), [atoms["1-v"], atoms["1-qu"]]),
        (1, [atoms["1-v"], atoms["1-u"]]),
    ]
    total = None
    for coeff, den in pieces:
        value = FactoredRational(q, LaurentPolynomial.monomial(2, coeff, u_pref), den)
        total = value if total is None else total + value
    return total.scale(Fraction(h, q - 1) ** 2)


@dataclass(frozen=True)
class GenusTwoVarForm:
    """The split closed form of the depth-2 zeta in the coordinates (u, v)."""

    spec: FunctionFieldSpec
    A: FactoredRational
    B: FactoredRational
    C: FactoredRational
    total: FactoredRational


def closed_form_genus_d2(spec: FunctionFieldSpec) -> GenusTwoVarForm:
    _require_positive_genus(spec)
    a, b, c = part_A(spec), part_B(spec), part_C(spec)
    return GenusTwoVarForm(spec, a, b, c, a + b + c)


# ---------------------------------------------------------------------------
# Explicit numerator/denominator polynomials


def monomial_tower_exponent(genus: int) -> int:
    """v-exponent of prod_{n=0}^{2g-2} v^n, i.e. (2g-2)(2g-1)/2."""
    return (2 * genus - 2) * (2 * genus - 1) // 2


def denominator_polynomial_q(spec: FunctionFieldSpec) -> LaurentPolynomial:
    """Q(u, v) = (1-u)(1-qu)(1-q^2 u)(1-v)(1-qv) * v^((2g-2)(2g-1)/2)."""
    return _uv_product(spec.q, *_UV_ATOMS).shift((0, monomial_tower_exponent(spec.genus)))


def pq_polynomials(spec: FunctionFieldSpec) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """The explicit pair (P, Q) with Z_2 = P/Q, built as P = P1 + P2 + P3.

    P1 clears the head A, P2 the inner tail B, P3 the outer tail C; the
    product structure of the cleared tails uses the single monomial
    v^((2g-2)(2g-1)/2) for the tower prod v^n.  The identity P/Q = A+B+C is
    verified by cross-multiplication before returning.
    """
    _require_positive_genus(spec)
    q, g, h = spec.q, spec.genus, spec.class_number
    tower = monomial_tower_exponent(g)
    q_poly = denominator_polynomial_q(spec)

    form = closed_form_genus_d2(spec)
    p1 = q_poly * form.A.num  # A is a polynomial: Q * A

    u_cubic = _uv_product(q, "1-u", "1-qu", "1-q2u")
    bracket_b = _uv_product(q, "1-v").scale(q**g) - _uv_product(q, "1-qv")
    tail_sum = LaurentPolynomial(
        2,
        {
            (k, tower - k): effective_count(spec, k)
            for k in range(0, 2 * g - 1)
        },
    )
    v_pref = LaurentPolynomial.monomial(2, 1, (0, 2 * g - 1))
    p2 = (u_cubic * bracket_b * v_pref * tail_sum).scale(Fraction(h, q - 1))

    bracket_c = (
        _uv_product(q, "1-qu", "1-v", "1-u").scale(q ** (2 * g))
        - _uv_product(q, "1-q2u", "1-v", "1-u").scale(q**g)
        - _uv_product(q, "1-qv", "1-q2u", "1-u").scale(q**g)
        + _uv_product(q, "1-qv", "1-q2u", "1-qu")
    )
    p3 = (
        LaurentPolynomial.monomial(2, 1, (2 * g - 1, tower)) * bracket_c
    ).scale(Fraction(h, q - 1) ** 2)

    p = p1 + p2 + p3

    # P/Q against A+B+C: Q carries the monomial v^tower, which is a unit, so
    # P/Q is the factored value with numerator P * v^(-tower) over the five atoms.
    ratio = FactoredRational(q, p.shift((0, -tower)), _UV_ATOMS.values())
    if not ratio.equal(form.total):
        raise IdentityViolationError("P/Q does not reproduce the assembled closed form")
    return p, q_poly


@dataclass(frozen=True)
class DegreeReport:
    genus: int
    deg_u_p: int
    deg_v_p: int
    deg_u_q: int
    deg_v_q: int

    @property
    def bound_u(self) -> int:
        return 2 * self.genus + 1

    @property
    def bound_v(self) -> int:
        return self.genus * (2 * self.genus + 1) + 2 * self.genus - 2


def degree_report(spec: FunctionFieldSpec) -> DegreeReport:
    """Degrees of P and Q; the P bounds (2g+1 in u, (1+...+2g)+2g-2 in v) are
    enforced, the actual degrees may be strictly smaller."""
    p, q_poly = pq_polynomials(spec)
    report = DegreeReport(
        genus=spec.genus,
        deg_u_p=p.degree(U),
        deg_v_p=p.degree(V),
        deg_u_q=q_poly.degree(U),
        deg_v_q=q_poly.degree(V),
    )
    if report.deg_u_p > report.bound_u:
        raise IdentityViolationError(
            f"deg_u(P) = {report.deg_u_p} exceeds the bound {report.bound_u}"
        )
    if report.deg_v_p > report.bound_v:
        raise IdentityViolationError(
            f"deg_v(P) = {report.deg_v_p} exceeds the bound {report.bound_v}"
        )
    return report


def lift_one_var_to_v(value: FactoredRational) -> FactoredRational:
    """Embed a one-variable rational function t -> f(t) as f(v) in (u, v)."""
    num = LaurentPolynomial(2, {(0, e[0]): c for e, c in value.num.terms.items()})
    den = [QPowerFactor(f.qpow, (0, f.exponent[0])) for f in value.den]
    return FactoredRational(value.q, num, den)


def genus_one_decomposition_check(spec: FunctionFieldSpec) -> bool:
    """For genus 1 the closed form splits as Z(K, w) plus the outer tail:
    A + B equals the one-variable zeta in v, so the total equals
    Z(K, v) + C(u, v).  Verified, not assumed."""
    if spec.genus != 1:
        raise ValueError(f"decomposition requires genus 1, got genus {spec.genus}")
    form = closed_form_genus_d2(spec)
    rhs = lift_one_var_to_v(one_var_zeta(spec)) + part_C(spec)
    return form.total.equal(rhs)


def reduced_pole_atoms(spec: FunctionFieldSpec) -> list[QPowerFactor]:
    """Denominator atoms of the reduced closed form; must sit inside
    {1-u, 1-qu, 1-q^2 u, 1-v, 1-qv}, each at most once."""
    reduced = closed_form_genus_d2(spec).total.reduce()
    allowed = set(_UV_ATOMS.values())
    seen = []
    for factor in reduced.den:
        if factor not in allowed:
            raise IdentityViolationError(
                f"pole atom {factor} outside the allowed set {ALLOWED_POLE_ATOMS}"
            )
        if factor in seen:
            raise IdentityViolationError(f"pole atom {factor} has multiplicity > 1")
        seen.append(factor)
    return seen
