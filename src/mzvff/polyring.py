"""Multiple zeta functions of the polynomial ring F_q[T], all depths.

The depth-d sum over monic tuples with nondecreasing degrees collapses under
the change of coordinates y_k = x_k x_(k+1) ... x_d (that is, q^-(s_k+...+s_d))
into a product of geometric series:

    Z_d = prod_{k=1}^{d} 1 / (1 - q^(d-k+1) y_k),

which this module exposes together with its factorization into shifted
one-variable zetas, the completed form and its functional equations, the
Euler product over monic irreducibles, the three double-zeta residues, and
the zero-freeness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .exactalg import (
    FactoredRational,
    LaurentPolynomial,
    QPowerFactor,
    TruncatedSeries,
    UsageError,
    atom_product,
    render_rational,
)


@dataclass(frozen=True)
class PolyZetaContext:
    """Base q >= 2 and depth d >= 1."""

    q: int
    depth: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise UsageError(f"q must be an integer >= 2, got {self.q!r}")
        if not isinstance(self.depth, int) or self.depth < 1:
            raise UsageError(f"depth must be an integer >= 1, got {self.depth!r}")


def y_exponent(depth: int, k: int) -> tuple[int, ...]:
    """Exponent vector of y_k = x_k ... x_d (k is 1-based)."""
    return tuple(1 if i >= k else 0 for i in range(1, depth + 1))


def sum_label(depth: int, k: int, offset: int = 0) -> str:
    """Human name of the variable sum s_k + ... + s_d plus an integer offset."""
    body = "+".join(f"s{j}" for j in range(k, depth + 1))
    if offset > 0:
        return f"{body}+{offset}"
    if offset < 0:
        return f"{body}{offset}"
    return body


def closed_form_poly(ctx: PolyZetaContext) -> FactoredRational:
    """prod_k 1/(1 - q^(d-k+1) y_k) with numerator 1."""
    d = ctx.depth
    den = [QPowerFactor(d - k + 1, y_exponent(d, k)) for k in range(1, d + 1)]
    return FactoredRational(ctx.q, LaurentPolynomial.one(d), den)


@dataclass(frozen=True)
class ZetaShift:
    """Descriptor of one factor Z(F_q[T], s_k+...+s_d - offset).

    Substituting t -> q^offset * y_k into 1/(1 - q t) realizes the factor in
    the x-variables.
    """

    k: int
    offset: int
    label: str
    monomial: tuple[int, ...]

    def as_rational(self, q: int) -> FactoredRational:
        return FactoredRational.inverse_factor(q, 1 + self.offset, self.monomial)


def factorization_list(ctx: PolyZetaContext) -> list[ZetaShift]:
    """The d shifted one-variable zeta factors whose product is the closed form."""
    d = ctx.depth
    return [
        ZetaShift(k, d - k, sum_label(d, k, -(d - k)), y_exponent(d, k))
        for k in range(1, d + 1)
    ]


def completed_xi(ctx: PolyZetaContext) -> FactoredRational:
    """The completed form: prod_k [q^(d-k) y_k / (1 - q^(d-k) y_k)] times the zeta.

    Its numerator is the single monomial q^(sum (d-k)) x_1 x_2^2 ... x_d^d.
    """
    d, q = ctx.depth, ctx.q
    value = closed_form_poly(ctx)
    for k in range(1, d + 1):
        gamma = FactoredRational(
            q,
            LaurentPolynomial.monomial(d, q ** (d - k), y_exponent(d, k)),
            [QPowerFactor(d - k, y_exponent(d, k))],
        )
        value = value * gamma
    return value


def involution_substitution(ctx: PolyZetaContext) -> tuple[int, Fraction, tuple[int, ...]]:
    """The map s_1 -> 2d-1 - 2(s_2+...+s_d) - s_1 in x-coordinates:
    x_1 -> q^-(2d-1) * x_1^-1 * (x_2...x_d)^-2.
    """
    d = ctx.depth
    coeff = Fraction(1, ctx.q ** (2 * d - 1))
    exps = tuple(-1 if i == 0 else -2 for i in range(d))
    return 0, coeff, exps


def check_involution(ctx: PolyZetaContext) -> bool:
    """The completed form is invariant under the depth-d involution."""
    xi = completed_xi(ctx)
    j, coeff, exps = involution_substitution(ctx)
    return xi.substitute(j, coeff, exps).equal(xi)


def mixed_relation_d2(q: int) -> bool:
    """Depth-2 variable-mixing relation on the completed form:
    applying w -> 1-w equals applying s -> s-2w+1.

    Both substitutions drive individual denominator atoms outside the
    1 - q^a x^e shape (their exponents acquire mixed signs), so the equality
    is checked by cross-multiplying the substituted numerator and denominator
    atoms at the Laurent-polynomial level, which is exactly the factored-form
    equality test with the atoms kept as plain polynomials.
    """
    xi = completed_xi(PolyZetaContext(q, 2))
    left = _substituted_pair(xi, 1, Fraction(1, q), (0, -1))     # w -> 1 - w
    right = _substituted_pair(xi, 0, Fraction(1, q), (1, -2))    # s -> s - 2w + 1
    lnum, lden = left
    rnum, rden = right
    lhs = lnum
    for atom in rden:
        lhs = lhs * atom
    rhs = rnum
    for atom in lden:
        rhs = rhs * atom
    return lhs == rhs


def _substituted_pair(value, j, coeff, exps):
    num = value.num.substitute_monomial(j, coeff, exps)
    den = [
        atom_product(value.q, value.arity, [f]).substitute_monomial(j, coeff, exps)
        for f in value.den
    ]
    return num, den


def euler_truncation(ctx: PolyZetaContext, max_degree: int) -> TruncatedSeries:
    """Euler product over monic irreducibles of degree <= max_degree, expanded.

    Each irreducible of degree n contributes prod_k (1 - q^(n(d-k)) y_k^n)^-1,
    and there are I_n of them (counted by the enumeration oracle, so q must be
    prime).  The expansion is exact at every monomial whose y-degrees are all
    <= max_degree: primes of larger degree cannot touch that box.
    """
    if not oracle.is_prime(ctx.q):
        raise UsageError(f"Euler product enumeration needs prime q, got {ctx.q}")
    if max_degree < 1:
        raise UsageError("max irreducible degree must be at least 1")
    d = ctx.depth
    den = []
    for n in range(1, max_degree + 1):
        count = oracle.irreducible_count(ctx.q, n)
        for k in range(1, d + 1):
            atom = QPowerFactor(n * (d - k), tuple(n * e for e in y_exponent(d, k)))
            den.extend([atom] * count)
    value = FactoredRational(ctx.q, LaurentPolynomial.one(d), den)
    return value.series(d * max_degree)


def euler_agreement_box(depth: int, max_degree: int):
    """x-exponent vectors on which the truncated Euler product is exact:
    images of the y-degree box 0..max_degree."""
    from itertools import product as iproduct

    for c in iproduct(range(max_degree + 1), repeat=depth):
        m = []
        total = 0
        for ck in c:
            total += ck
            m.append(total)
        yield tuple(m)


POLE_W1 = "w=1"
POLE_SW2 = "s+w=2"


@dataclass(frozen=True)
class ScaledResidue:
    """log(q) times a residue of the depth-2 zeta at a simple pole.

    The transcendental 1/log(q) factor is kept as an annotation so the value
    itself stays an exact rational function of the surviving variable.
    """

    pole: str
    residue_in: str
    value: FactoredRational
    display: str

    def annotation(self) -> str:
        return f"1/log({self.value.q})"


def scaled_residue_d2(q: int, pole: str, residue_in: str | None = None) -> ScaledResidue:
    """Exact scaled residues of the depth-2 zeta over F_q[T].

    Supported poles: "w=1" (residue in w) and "s+w=2" (residue in s or in w).
    The vanishing denominator atom is removed and the pole relation is
    substituted into the remaining factor, leaving a rational function of the
    surviving variable:

        w=1          -> 1/(1 - q^(1-s))   = 1/(1 - q x1)
        s+w=2, in s  -> 1/(1 - q^(1-w))   = 1/(1 - q x2)
        s+w=2, in w  -> 1/(1 - q^(s-1))   = -q x1/(1 - q x1)
    """
    zeta = closed_form_poly(PolyZetaContext(q, 2))
    if pole == POLE_W1:
        if residue_in not in (None, "w"):
            raise UsageError("the pole w=1 only supports the residue in w")
        vanishing = QPowerFactor(1, (0, 1))
        remainder = _remove_atom(zeta, vanishing)
        value = remainder.substitute(1, Fraction(1, q), (0, 0))
        return ScaledResidue(pole, "w", value, render_rational(value))
    if pole == POLE_SW2:
        vanishing = QPowerFactor(2, (1, 1))
        remainder = _remove_atom(zeta, vanishing)
        if residue_in == "s":
            value = remainder.substitute(0, Fraction(1, q**2), (0, -1))
            return ScaledResidue(pole, "s", value, render_rational(value))
        if residue_in == "w":
            value = remainder.substitute(1, Fraction(1, q**2), (-1, 0))
            return ScaledResidue(pole, "w", value, f"1/(1 - {q}^(s-1))")
        raise UsageError("the pole s+w=2 needs the residue variable: s or w")
    raise UsageError(f"no simple pole of the depth-2 zeta at {pole!r}")


def _remove_atom(value: FactoredRational, atom: QPowerFactor) -> FactoredRational:
    den = list(value.den)
    den.remove(atom)
    return FactoredRational(value.q, value.num, den)


def zero_free_check(ctx: PolyZetaContext) -> bool:
    """True when the reduced closed form has a nonzero monomial numerator,
    hence no zeros anywhere."""
    reduced = closed_form_poly(ctx).reduce()
    return reduced.num.is_monomial()
