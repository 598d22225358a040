"""Multiple zeta functions of the rational function field F_q(T) (genus 0).

Here the degree-n divisor count is b_n = (q^(n+1)-1)/(q-1).  Expanding the
product prod_k (q^(m_k+1)-1) over subsets S of {1..d} and summing geometric
series in the coordinates y_j = x_j...x_d gives the 2^d-term closed form

    Z_d = (q-1)^-d * sum_S (-1)^(d-|S|) q^|S| prod_j 1/(1 - q^(c_j(S)) y_j),

with c_j(S) = #{k in S : k >= j}.  Its denominator is the pole ladder
{1 - q^c y_j : c = 0..d-j+1}; closed_form_genus0 sums the expansion straight
over that ladder by a recursion over the O(d^2) states c_j, and the subset
terms stay available as the stated expansion.  The module also builds the
clearing polynomial whose product with Z_d is a polynomial (of degree <= 2d-1
in each x-variable for d <= 3 only), the depth-2 decomposition into shifted
one-variable zetas, and the reduced pole-subvariety report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exactalg import (
    BudgetExceededError,
    FactoredRational,
    LaurentPolynomial,
    QPowerFactor,
    UsageError,
    _multiset_split,
    atom_product,
    configured_budget,
)
from .polyring import sum_label, y_exponent


class IdentityViolationError(ArithmeticError):
    """An identity that must hold by construction failed to verify."""


@dataclass(frozen=True)
class SubsetTerm:
    """One of the 2^d terms of the genus-0 expansion.

    Value: sign * q^size/(q-1)^depth * prod_j 1/(1 - q^(c_j) y_j), where
    c_j counts the members of the subset that are >= j.
    """

    depth: int
    subset: tuple[int, ...]
    sign: int
    exponents: tuple[int, ...]

    @classmethod
    def for_subset(cls, depth: int, subset: tuple[int, ...]) -> "SubsetTerm":
        c = tuple(sum(1 for k in subset if k >= j) for j in range(1, depth + 1))
        return cls(depth, subset, (-1) ** (depth - len(subset)), c)

    def prefactor(self, q: int) -> Fraction:
        return Fraction(self.sign * q ** len(self.subset), (q - 1) ** self.depth)

    def as_rational(self, q: int) -> FactoredRational:
        den = [
            QPowerFactor(c, y_exponent(self.depth, j + 1))
            for j, c in enumerate(self.exponents)
        ]
        num = LaurentPolynomial.constant(self.depth, self.prefactor(q))
        return FactoredRational(q, num, den)


def subset_terms(depth: int) -> list[SubsetTerm]:
    return [
        SubsetTerm.for_subset(depth, subset)
        for r in range(depth + 1)
        for subset in combinations(range(1, depth + 1), r)
    ]


def closed_form_genus0(q: int, depth: int) -> FactoredRational:
    """The subset expansion summed over the pole ladder by a state recursion.

    Going j = d..1, subsets of {j..d} that share c = #{k in S : k >= j} share
    every later factor, so they are summed early.  State c keeps its numerator
    over the ladder rows of y_j..y_d:

        N_j[c] = (q N_(j+1)[c-1] - N_(j+1)[c]) * prod_(c' != c) (1 - q^c' y_j),

    from N_(d+1)[0] = 1, and Z_d = sum_c N_1[c] / ((q-1)^d * ladder).

    The numerator has degree <= d-j+1 in y_j, so at most (d+1)! terms, and
    the ladder has d(d+3)/2 atoms; a depth whose term bound times ladder
    length exceeds the work budget (``MZVFF_BUDGET``) is refused up front
    with BudgetExceededError (the default budget admits d <= 8).
    """
    if q < 2 or depth < 1:
        raise UsageError("need q >= 2 and depth >= 1")
    terms, ladder = math.factorial(depth + 1), depth * (depth + 3) // 2
    cost, budget = terms * ladder, configured_budget()
    if cost > budget:
        raise BudgetExceededError(
            f"closed form at depth {depth} may have {terms} numerator terms x "
            f"{ladder} ladder atoms = {cost}, budget is {budget}"
        )
    zero = LaurentPolynomial.zero(depth)
    states = [LaurentPolynomial.one(depth)]
    for j in range(depth, 0, -1):
        row = _ladder_row(depth, j)
        padded = [zero] + states + [zero]
        states = [
            (padded[c] * q - padded[c + 1]) * atom_product(q, depth, row[:c] + row[c + 1:])
            for c in range(len(row))
        ]
    num = sum(states, zero).scale(Fraction(1, (q - 1) ** depth))
    return FactoredRational(q, num, _pole_ladder(depth))


def q_polynomial(q: int, depth: int) -> LaurentPolynomial:
    """Clearing polynomial: (q-1)^d times one atom 1 - q^c y_j for every
    pole level c = 0..d-j+1 of every coordinate y_j, expanded.

    For depth <= 2 this is exactly (q-1)^d (1-y_d)(1-q y_d) times the triples
    (1-y_k)(1-q y_k)(1-q^2 y_k) over k < d; deeper sums also reach levels
    c > 2 on the early coordinates (the full subset contributes 1 - q^d y_1),
    so the ladder runs to d-j+1 — with fewer atoms the product would not be a
    polynomial.  The cleared product has degree <= 2d-1 in each variable only
    for d <= 3 (see q_times_z_is_polynomial).
    """
    if q < 2 or depth < 1:
        raise UsageError("need q >= 2 and depth >= 1")
    return atom_product(q, depth, _pole_ladder(depth)).scale((q - 1) ** depth)


def _ladder_row(depth: int, j: int) -> list[QPowerFactor]:
    """The atoms 1 - q^c y_j for c = 0..d-j+1."""
    return [QPowerFactor(c, y_exponent(depth, j)) for c in range(depth - j + 2)]


def _pole_ladder(depth: int) -> tuple[QPowerFactor, ...]:
    return tuple(atom for j in range(1, depth + 1) for atom in _ladder_row(depth, j))


def q_times_z_is_polynomial(q: int, depth: int) -> tuple[bool, tuple[int, ...]]:
    """Clear the closed form with q_polynomial, cancelling first: the ladder
    atoms shared with the denominator drop out symbolically, and the cleared
    numerator is (q-1)^d * num * (the ladder atoms not in the denominator).

    Returns (all per-variable degrees <= 2d-1, the degrees).  The bound holds
    for d <= 3 and fails beyond, a recorded reproduction finding: the degrees
    are (3, 6, 8, 9) at d = 4 and (4, 8, 11, 13, 14) at d = 5.  A denominator
    atom off the ladder cannot happen and raises IdentityViolationError.
    """
    zeta = closed_form_genus0(q, depth)
    _, ladder_only, off_ladder = _multiset_split(_pole_ladder(depth), zeta.den)
    if off_ladder:
        raise IdentityViolationError(
            f"denominator atom {off_ladder[0]} is not on the pole ladder"
        )
    product = zeta.num.scale((q - 1) ** depth) * atom_product(q, depth, ladder_only)
    degrees = product.degrees()
    return all(deg <= 2 * depth - 1 for deg in degrees), degrees


def one_var_zeta_shifted(q: int, depth: int, k: int, offset: int) -> FactoredRational:
    """Z(F_q[T], s_k+...+s_d + offset) = 1/(1 - q^(1-offset) y_k) in d variables."""
    return FactoredRational.inverse_factor(q, 1 - offset, y_exponent(depth, k))


def decomposition_check_d2(q: int) -> bool:
    """Depth-2 decomposition into one-variable zetas over F_q[T]:

        Z_2 = q^2/(q-1)^2 Z(s+w-1) Z(w) - q/(q-1)^2 Z(s+w) Z(w+1)
            - q/(q-1)^2 Z(s+w) Z(w)   + 1/(q-1)^2 Z(s+w+1) Z(w+1),

    built term by term from the shifted one-variable closed forms and compared
    against the generic subset expansion.
    """
    square = Fraction((q - 1) ** 2)
    terms = [
        (Fraction(q**2) / square, -1, 0),
        (Fraction(-q) / square, 0, 1),
        (Fraction(-q) / square, 0, 0),
        (Fraction(1) / square, 1, 1),
    ]
    total = None
    for coeff, first_offset, second_offset in terms:
        value = (
            one_var_zeta_shifted(q, 2, 1, first_offset)
            * one_var_zeta_shifted(q, 2, 2, second_offset)
        ).scale(coeff)
        total = value if total is None else total + value
    return total.equal(closed_form_genus0(q, 2))


@dataclass(frozen=True)
class PoleSubvariety:
    """A surviving simple pole on s_k + ... + s_d = level."""

    k: int
    level: int
    depth: int

    def label(self) -> str:
        return f"{sum_label(self.depth, self.k)}={self.level}"


def pole_subvarieties_genus0(q: int, depth: int) -> list[PoleSubvariety]:
    """Denominator atoms surviving reduction, mapped to their subvarieties.

    Containment in the ladder level <= d-k+1 and multiplicity one are
    enforced; the closed form promises nothing stronger than containment.
    """
    reduced = closed_form_genus0(q, depth).reduce()
    seen = set()
    poles = []
    for factor in reduced.den:
        k = _coordinate_of(factor.exponent, depth)
        if factor in seen:
            raise IdentityViolationError(f"pole atom {factor} has multiplicity > 1")
        seen.add(factor)
        if not 0 <= factor.qpow <= depth - k + 1:
            raise IdentityViolationError(
                f"pole level {factor.qpow} outside 0..{depth - k + 1} for k={k}"
            )
        poles.append(PoleSubvariety(k, factor.qpow, depth))
    return sorted(poles, key=lambda p: (p.k, p.level))


def _coordinate_of(exponent: tuple[int, ...], depth: int) -> int:
    for k in range(1, depth + 1):
        if exponent == y_exponent(depth, k):
            return k
    raise IdentityViolationError(f"denominator exponent {exponent} is not a y-coordinate")
