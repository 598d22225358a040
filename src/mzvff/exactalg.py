"""Exact sparse arithmetic for Laurent polynomials and factored rational functions.

Values live in d variables x_1..x_d with exact rational coefficients and
integer exponents that may be negative.  A coefficient is stored as an ``int``
when it is integral and as a ``Fraction`` otherwise, so integer arithmetic
(the common case: the genus-0 numerator is integral until one final
``(q-1)^-d``) never pays for ``Fraction``; equal values compare, hash and
print the same either way.

Rational functions are kept in factored form: a Laurent-polynomial numerator
over a multiset of binomial denominator atoms ``1 - q^a * x^e`` with a fixed
integer base ``q >= 2`` and nonnegative exponent vector ``e != 0``.  Every
denominator arising in this package has that shape, which makes pole
bookkeeping and formal power-series expansion trivial and avoids multivariate
GCDs: equality is decided by cross-multiplication, and reduction only ever
divides the numerator by a denominator atom.  A series expansion divides by
one atom at a time, as a linear recurrence over a dense box of integer cells,
and is refused with ``BudgetExceededError`` when the box times the number of
passes exceeds the work budget (``MZVFF_BUDGET``, shared with the enumeration
oracle).

The public constructors validate and normalise their input; every result an
operation builds itself goes through a trusted ``_make`` that does not check
it again.  All values are immutable after construction and all operations are
pure, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import product
from operator import add
from typing import Iterable, Mapping, NamedTuple, Sequence

Exponents = tuple[int, ...]
Coefficient = int | Fraction

DEFAULT_BUDGET = 20_000_000
BUDGET_ENV_VAR = "MZVFF_BUDGET"


class UsageError(ValueError):
    """Operands do not fit together (arity or base mismatch, bad argument)."""


class NotAPowerSeriesError(ValueError):
    """The value has a negative numerator exponent and no series expansion."""


class PoleProximityError(ArithmeticError):
    """Numeric evaluation was requested too close to a denominator zero."""


class SubstitutionError(ValueError):
    """A substitution produced a denominator atom outside the 1 - q^a*x^e shape."""


class BudgetExceededError(RuntimeError):
    """The requested enumeration or series box would exceed the work budget."""


def configured_budget() -> int:
    """The work budget: ``MZVFF_BUDGET`` when set, else DEFAULT_BUDGET."""
    value = os.environ.get(BUDGET_ENV_VAR)
    if value is None:
        return DEFAULT_BUDGET
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {value!r}") from None


def _exact(value) -> Coefficient:
    """value as a coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _ratio(a: Coefficient, b: Coefficient) -> Coefficient:
    """The exact quotient a/b (never a float)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _exact(Fraction(a, b))


def _cleaned(terms: dict) -> dict:
    """terms without its zero entries, with integral Fractions stored as int."""
    return {e: c if type(c) is int else _exact(c) for e, c in terms.items() if c}


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Graded-lexicographic sort key (total degree first, then left-to-right)."""
    return (sum(exponents), exponents)


def _unit(arity: int, j: int) -> Exponents:
    return tuple(1 if i == j else 0 for i in range(arity))


def default_names(arity: int) -> list[str]:
    return [f"x{i + 1}" for i in range(arity)]


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPolynomial:
    """Sparse Laurent polynomial: a map from exponent vectors to coefficients.

    Invariants: every stored coefficient is nonzero, an ``int`` when integral
    and a ``Fraction`` otherwise, and every exponent vector is a tuple of
    length ``arity``.  The constructor checks and normalises its input; the
    operations build their results with ``_make``, which trusts them.
    Treated as immutable.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Exponents, Coefficient] | None = None):
        if arity < 1:
            raise UsageError(f"arity must be positive, got {arity}")
        clean: dict[Exponents, Coefficient] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise UsageError(f"exponent vector {exps} does not have arity {arity}")
            coeff = _exact(coeff)
            if coeff:
                clean[exps] = coeff
        self.arity = arity
        self.terms = clean

    @classmethod
    def _make(cls, arity: int, terms: dict[Exponents, Coefficient]) -> "LaurentPolynomial":
        """Wrap terms that already meet the invariants, without checking them."""
        poly = object.__new__(cls)
        poly.arity = arity
        poly.terms = terms
        return poly

    # -- constructors

    @classmethod
    def zero(cls, arity: int) -> "LaurentPolynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "LaurentPolynomial":
        return cls(arity, {tuple([0] * arity): value})

    @classmethod
    def one(cls, arity: int) -> "LaurentPolynomial":
        return cls.constant(arity, 1)

    @classmethod
    def monomial(cls, arity: int, coeff, exponents: Sequence[int]) -> "LaurentPolynomial":
        return cls(arity, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, arity: int, j: int) -> "LaurentPolynomial":
        """The variable x_{j+1} (0-based index j)."""
        return cls.monomial(arity, 1, _unit(arity, j))

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        return self.terms.get(tuple(exponents), 0)

    def constant_coefficient(self) -> Coefficient:
        return self.coefficient([0] * self.arity)

    def degree(self, j: int) -> int:
        """Largest exponent of variable j; zero polynomial has degree 0 here."""
        if not self.terms:
            return 0
        return max(exps[j] for exps in self.terms)

    def valuation(self, j: int) -> int:
        """Smallest exponent of variable j; zero polynomial has valuation 0."""
        if not self.terms:
            return 0
        return min(exps[j] for exps in self.terms)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(j) for j in range(self.arity))

    def content_exponent(self) -> Exponents:
        """Componentwise minimum exponent over the support (0 for the zero poly)."""
        if not self.terms:
            return tuple([0] * self.arity)
        return tuple(min(exps[j] for exps in self.terms) for j in range(self.arity))

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def leading(self) -> tuple[Exponents, Coefficient]:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic

    def _check(self, other: "LaurentPolynomial") -> None:
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return LaurentPolynomial._make(self.arity, _cleaned(out))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._make(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Exponents, Coefficient] = {}
        get = out.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(map(add, ea, eb))
                out[exps] = get(exps, 0) + ca * cb
        return LaurentPolynomial._make(self.arity, _cleaned(out))

    def __rmul__(self, other) -> "LaurentPolynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise UsageError("negative polynomial power")
        result = LaurentPolynomial.one(self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, value) -> "LaurentPolynomial":
        value = _exact(value)
        if not value:
            return LaurentPolynomial.zero(self.arity)
        return LaurentPolynomial._make(
            self.arity, _cleaned({e: c * value for e, c in self.terms.items()})
        )

    def shift(self, exponents: Sequence[int]) -> "LaurentPolynomial":
        """Multiply by the monomial x^exponents."""
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.arity:
            raise UsageError("shift exponent vector has wrong arity")
        return LaurentPolynomial._make(
            self.arity, {tuple(map(add, e, exponents)): c for e, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity hashing would be misleading

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.render()!r})"

    # -- substitution, division, evaluation

    def substitute_monomial(self, j: int, coeff, exponents: Sequence[int]) -> "LaurentPolynomial":
        """Map x_{j+1} -> coeff * x^exponents in every term.

        The replacement coefficient must be nonzero; the replacement exponent
        vector is unrestricted (entries may be negative or zero, so a variable
        can also be specialized to a constant).
        """
        coeff = _exact(coeff)
        if not coeff:
            raise UsageError("substitution coefficient must be nonzero")
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.arity:
            raise UsageError("substitution exponent vector has wrong arity")
        powers: dict[int, Coefficient] = {}
        out: dict[Exponents, Coefficient] = {}
        for exps, c in self.terms.items():
            k = exps[j]
            new = tuple(
                (e - k if i == j else e) + k * exponents[i] for i, e in enumerate(exps)
            )
            if k not in powers:
                # an int to a negative power would be a float
                powers[k] = _exact(coeff**k if k >= 0 else Fraction(coeff) ** k)
            out[new] = out.get(new, 0) + c * powers[k]
        return LaurentPolynomial._make(self.arity, _cleaned(out))

    def divide_exact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial | None":
        """Exact quotient self/divisor, or None when the division is not exact.

        Works in the Laurent ring: monomial content is pulled off both sides,
        the polynomial parts are divided by the single-divisor graded-lex
        division algorithm, and the content quotient is re-attached.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise UsageError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.arity)
        c_num = self.content_exponent()
        c_div = divisor.content_exponent()
        rem = dict(self.shift(tuple(-e for e in c_num)).terms)
        div = divisor.shift(tuple(-e for e in c_div))
        lead_e, lead_c = div.leading()
        quotient: dict[Exponents, Coefficient] = {}
        while rem:
            r_lead = max(rem, key=grlex_key)
            diff = tuple(x - y for x, y in zip(r_lead, lead_e))
            if any(e < 0 for e in diff):
                return None
            coeff = _ratio(rem[r_lead], lead_c)
            quotient[diff] = quotient.get(diff, 0) + coeff
            for e_div, c_div2 in div.terms.items():
                exps = tuple(map(add, diff, e_div))
                total = rem.get(exps, 0) - coeff * c_div2
                if total:
                    rem[exps] = total
                else:
                    rem.pop(exps, None)
        shift_back = tuple(a - b for a, b in zip(c_num, c_div))
        return LaurentPolynomial._make(self.arity, _cleaned(quotient)).shift(shift_back)

    def evaluate(self, point: Sequence[complex]) -> complex:
        if len(point) != self.arity:
            raise UsageError("evaluation point has wrong arity")
        total = 0j
        for exps, coeff in self.terms.items():
            value = complex(coeff)
            for z, e in zip(point, exps):
                value *= complex(z) ** e
            total += value
        return total

    def render(self, names: Sequence[str] | None = None) -> str:
        return render_polynomial(self, names)


# ---------------------------------------------------------------------------
# Denominator atoms and factored rational functions


class QPowerFactor(NamedTuple):
    """The binomial 1 - q^qpow * x^exponent with exponent >= 0, != 0."""

    qpow: int
    exponent: Exponents

    def validate(self, arity: int) -> None:
        if len(self.exponent) != arity:
            raise UsageError(f"factor exponent {self.exponent} has wrong arity")
        if any(e < 0 for e in self.exponent):
            raise UsageError(f"factor exponent {self.exponent} has a negative entry")
        if not any(self.exponent):
            raise UsageError("factor exponent must not be the zero vector")


def atom_product(q: int, arity: int, factors: Iterable[QPowerFactor]) -> LaurentPolynomial:
    """prod (1 - q^a * x^e) over the factors, expanded (1 for no factors)."""
    zero = tuple([0] * arity)
    product = LaurentPolynomial.one(arity)
    for qpow, exponent in factors:
        coeff = q**qpow if qpow >= 0 else Fraction(1, q**-qpow)
        product = product * LaurentPolynomial(arity, {zero: 1, tuple(exponent): -coeff})
    return product


def _factor_sort_key(factor: QPowerFactor):
    # Display order: graded-lex descending on exponent, then ascending q-power.
    degree, exps = grlex_key(factor.exponent)
    return (-degree, tuple(-e for e in exps), factor.qpow)


def _as_q_power(value: Fraction, q: int) -> int | None:
    """Write value as q**k for an integer k, or return None."""
    if value <= 0:
        return None
    if value == 1:
        return 0
    if value.denominator == 1:
        n, k = value.numerator, 0
        while n % q == 0:
            n //= q
            k += 1
        return k if n == 1 else None
    if value.numerator == 1:
        k = _as_q_power(Fraction(value.denominator), q)
        return -k if k is not None else None
    return None


class FactoredRational:
    """num / prod(1 - q^a * x^e) with an exact Laurent-polynomial numerator.

    The base q is a concrete integer >= 2 fixed per value; operations require
    operands to share both arity and q.  The denominator is a multiset, stored
    as a sorted tuple; no canonical form is maintained beyond that ordering,
    and equality is decided by cross-multiplication.
    """

    __slots__ = ("q", "num", "den")

    def __init__(self, q: int, num: LaurentPolynomial, den: Iterable[QPowerFactor] = ()):
        if not isinstance(q, int) or q < 2:
            raise UsageError(f"base q must be an integer >= 2, got {q!r}")
        factors = []
        for factor in den:
            factor = QPowerFactor(int(factor[0]), tuple(factor[1]))
            factor.validate(num.arity)
            factors.append(factor)
        self.q = q
        self.num = num
        self.den = tuple(sorted(factors, key=_factor_sort_key))

    # -- constructors

    @classmethod
    def from_constant(cls, q: int, arity: int, value) -> "FactoredRational":
        return cls(q, LaurentPolynomial.constant(arity, value))

    @classmethod
    def one(cls, q: int, arity: int) -> "FactoredRational":
        return cls.from_constant(q, arity, 1)

    @classmethod
    def inverse_factor(cls, q: int, qpow: int, exponent: Sequence[int]) -> "FactoredRational":
        """1 / (1 - q^qpow * x^exponent)."""
        exponent = tuple(exponent)
        return cls(q, LaurentPolynomial.one(len(exponent)), [QPowerFactor(qpow, exponent)])

    @property
    def arity(self) -> int:
        return self.num.arity

    def _check(self, other: "FactoredRational") -> None:
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.q != other.q:
            raise UsageError(f"base mismatch: q={self.q} vs q={other.q}")

    def denominator_polynomial(self, factors: Iterable[QPowerFactor] | None = None) -> LaurentPolynomial:
        return atom_product(self.q, self.arity, self.den if factors is None else factors)

    # -- ring operations

    def __mul__(self, other) -> "FactoredRational":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return FactoredRational(self.q, self.num * other.num, self.den + other.den)

    def __rmul__(self, other) -> "FactoredRational":
        return self.__mul__(other)

    def scale(self, value) -> "FactoredRational":
        return FactoredRational(self.q, self.num.scale(value), self.den)

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        common, only_self, only_other = _multiset_split(self.den, other.den)
        num = self.num * self.denominator_polynomial(only_other) + other.num * self.denominator_polynomial(only_self)
        return FactoredRational(self.q, num, common + only_self + only_other)

    def __neg__(self) -> "FactoredRational":
        return FactoredRational(self.q, -self.num, self.den)

    def __sub__(self, other: "FactoredRational") -> "FactoredRational":
        return self + (-other)

    def __repr__(self) -> str:
        return f"FactoredRational({self.render()!r})"

    # -- comparisons and normalization

    def equal(self, other: "FactoredRational") -> bool:
        """Value equality by cross-multiplication (common atoms cancelled first)."""
        self._check(other)
        _, only_self, only_other = _multiset_split(self.den, other.den)
        left = self.num * self.denominator_polynomial(only_other)
        right = other.num * other.denominator_polynomial(only_self)
        return left == right

    def reduce(self) -> "FactoredRational":
        """Cancel every denominator atom that divides the numerator exactly.

        An atom 1 - q^a x^e with some e_j == 1 is linear in x_j, so it divides
        the numerator iff the numerator vanishes at x_j = q^-a x^-e', where e'
        is e with its j-th entry set to 0; that substitution settles such an
        atom before any division is tried.
        An atom that does not divide the numerator cannot divide it after
        other atoms are cancelled, so one pass over the atoms suffices.
        """
        num = self.num
        remaining: list[QPowerFactor] = []
        for factor in self.den:
            quotient = None
            if not num.is_zero() and _may_divide(self.q, num, factor):
                quotient = num.divide_exact(atom_product(self.q, self.arity, [factor]))
            if quotient is None:
                remaining.append(factor)
            else:
                num = quotient
        return FactoredRational(self.q, num, remaining)

    # -- series, substitution, evaluation

    def series(self, bound: int) -> "TruncatedSeries":
        """Formal power-series expansion, exact on the box of exponents <= bound.

        The numerator, scaled to integers by the lcm D of its coefficient
        denominators, is placed on a dense flat box of (bound+1)^arity cells
        with strides (bound+1)^i.  Dividing by an atom 1 - q^a x^e is then the
        recurrence c[n] += q^a * c[n - e], one pass in increasing flat order
        over the cells with n >= e; the nonzero cells, divided by D, are the
        coefficients.  The numerator must have no negative exponents for the
        value to be a power series at the origin, and the box times
        (atoms + 1) must fit the configured budget (``MZVFF_BUDGET``).
        """
        if bound < 0:
            raise UsageError("series bound must be nonnegative")
        arity, side = self.arity, bound + 1
        for exps in self.num.terms:
            if any(e < 0 for e in exps):
                raise NotAPowerSeriesError(
                    f"numerator term x^{exps} has a negative exponent; no power series at 0"
                )
        size = side**arity
        cost, budget = size * (len(self.den) + 1), configured_budget()
        if cost > budget:
            raise BudgetExceededError(
                f"series box needs {size} cells x {len(self.den) + 1} passes = {cost}, "
                f"budget is {budget}"
            )
        strides = [side**i for i in range(arity)]
        scale = math.lcm(*(c.denominator for c in self.num.terms.values()))
        cells: list = [0] * size
        for exps, coeff in self.num.terms.items():
            if all(e <= bound for e in exps):
                cells[sum(e * s for e, s in zip(exps, strides))] += (
                    coeff.numerator * (scale // coeff.denominator)
                )
        for qpow, step in self.den:
            c = self.q**qpow if qpow >= 0 else Fraction(1, self.q**-qpow)
            off = sum(e * s for e, s in zip(step, strides))
            # The last axis has the largest stride, so it leads the product.
            axes = [range(e * s, side * s, s) for e, s in zip(step, strides)]
            for parts in product(*reversed(axes)):
                k = sum(parts)
                cells[k] += c * cells[k - off]
        coeffs: dict[Exponents, Coefficient] = {}
        for k, value in enumerate(cells):
            if value:
                exps = []
                for _ in range(arity):
                    k, e = divmod(k, side)
                    exps.append(e)
                coeffs[tuple(exps)] = _ratio(value, scale)
        return TruncatedSeries._make(arity, bound, coeffs)

    def substitute(self, j: int, coeff, exponents: Sequence[int]) -> "FactoredRational":
        """Map x_{j+1} -> coeff * x^exponents, restoring all representation invariants.

        A transformed denominator atom whose exponent vector goes entirely
        nonpositive is flipped through 1 - q^b x^f = (-q^b x^f)(1 - q^-b x^-f)
        and the extracted monomial is folded into the numerator; an atom whose
        exponent vector becomes zero is a constant and is likewise folded in.
        An atom with mixed-sign exponents, or a coefficient that is not an
        exact power of q, cannot be represented and raises SubstitutionError.
        """
        coeff = Fraction(coeff)
        if not coeff:
            raise UsageError("substitution coefficient must be nonzero")
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.arity or not 0 <= j < self.arity:
            raise UsageError("substitution target does not match arity")
        num = self.num.substitute_monomial(j, coeff, exponents)
        new_den: list[QPowerFactor] = []
        for factor in self.den:
            k = factor.exponent[j]
            if k == 0:
                new_den.append(factor)
                continue
            new_exps = tuple(
                (e - k if i == j else e) + k * exponents[i]
                for i, e in enumerate(factor.exponent)
            )
            value = Fraction(self.q) ** factor.qpow * coeff**k
            power = _as_q_power(value, self.q)
            if power is None:
                raise SubstitutionError(
                    f"transformed factor coefficient {value} is not a power of q={self.q}"
                )
            if not any(new_exps):
                # constant atom 1 - q^power
                constant = 1 - Fraction(self.q) ** power
                if not constant:
                    raise SubstitutionError("substitution makes a denominator atom vanish")
                num = num.scale(Fraction(1) / constant)
            elif all(e >= 0 for e in new_exps):
                new_den.append(QPowerFactor(power, new_exps))
            elif all(e <= 0 for e in new_exps):
                # fold the extracted monomial's inverse into the numerator
                num = num * LaurentPolynomial.monomial(
                    self.arity, -(Fraction(self.q) ** (-power)), tuple(-e for e in new_exps)
                )
                new_den.append(QPowerFactor(-power, tuple(-e for e in new_exps)))
            else:
                raise SubstitutionError(
                    f"transformed factor exponent {new_exps} has mixed signs and cannot "
                    "be written as a monomial times 1 - q^a*x^e"
                )
        return FactoredRational(self.q, num, new_den)

    def evaluate(self, point: Sequence[complex], tolerance: float = 1e-12) -> complex:
        """Float evaluation of num/prod(atoms); near-vanishing atoms are poles."""
        if len(point) != self.arity:
            raise UsageError("evaluation point has wrong arity")
        denominator = 1 + 0j
        for factor in self.den:
            value = 1 - self.factor_value(factor, point)
            if abs(value) < tolerance:
                raise PoleProximityError(
                    f"denominator atom {render_factor(self.q, factor)} vanishes at the point"
                )
            denominator *= value
        return self.num.evaluate(point) / denominator

    def factor_value(self, factor: QPowerFactor, point: Sequence[complex]) -> complex:
        value = complex(Fraction(self.q) ** factor.qpow)
        for z, e in zip(point, factor.exponent):
            value *= complex(z) ** e
        return value

    def render(self, names: Sequence[str] | None = None) -> str:
        return render_rational(self, names)

    # -- JSON round-trip

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "arity": self.arity,
            "num": [[list(e), str(c)] for e, c in self.num.sorted_terms()],
            "den": [[f.qpow, list(f.exponent)] for f in self.den],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FactoredRational":
        arity = int(data["arity"])
        num = LaurentPolynomial(arity, {tuple(e): Fraction(c) for e, c in data["num"]})
        den = [QPowerFactor(int(a), tuple(e)) for a, e in data["den"]]
        return cls(int(data["q"]), num, den)


def _may_divide(q: int, num: LaurentPolynomial, factor: QPowerFactor) -> bool:
    """False when the atom is linear in some x_j and misses a zero of num."""
    qpow, exponent = factor
    for j, e in enumerate(exponent):
        if e == 1:
            root = tuple(0 if i == j else -x for i, x in enumerate(exponent))
            return num.substitute_monomial(j, Fraction(q) ** -qpow, root).is_zero()
    return True


def _multiset_split(
    left: tuple[QPowerFactor, ...], right: tuple[QPowerFactor, ...]
) -> tuple[tuple[QPowerFactor, ...], tuple[QPowerFactor, ...], tuple[QPowerFactor, ...]]:
    """Split two multisets into (intersection, left-only, right-only)."""
    from collections import Counter

    cl, cr = Counter(left), Counter(right)
    common = cl & cr
    return (
        tuple(common.elements()),
        tuple((cl - common).elements()),
        tuple((cr - common).elements()),
    )


def _mul_box(
    a: dict[Exponents, Coefficient], b: dict[Exponents, Coefficient], bound: int
) -> dict[Exponents, Coefficient]:
    out: dict[Exponents, Coefficient] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(map(add, ea, eb))
            if any(e > bound for e in exps):
                continue
            out[exps] = out.get(exps, 0) + ca * cb
    return _cleaned(out)


# ---------------------------------------------------------------------------
# Truncated series


class TruncatedSeries:
    """Exact series coefficients on the box of exponent vectors with entries in 0..bound.

    Absent entries mean coefficient zero; stored coefficients are nonzero,
    ``int`` when integral and ``Fraction`` otherwise.  The constructor checks
    and normalises its input; ``FactoredRational.series`` and ``__mul__``
    build their results with ``_make``, which trusts them.  Multiplication of
    box-truncated series is again exact on the box because exponents are
    nonnegative.
    """

    __slots__ = ("arity", "bound", "coefficients")

    def __init__(self, arity: int, bound: int, coefficients: Mapping[Exponents, Coefficient]):
        if bound < 0:
            raise UsageError("bound must be nonnegative")
        clean: dict[Exponents, Coefficient] = {}
        for exps, coeff in coefficients.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise UsageError("coefficient exponent vector has wrong arity")
            if any(e < 0 or e > bound for e in exps):
                raise UsageError(f"exponent vector {exps} outside the 0..{bound} box")
            coeff = _exact(coeff)
            if coeff:
                clean[exps] = coeff
        self.arity = arity
        self.bound = bound
        self.coefficients = clean

    @classmethod
    def _make(
        cls, arity: int, bound: int, coefficients: dict[Exponents, Coefficient]
    ) -> "TruncatedSeries":
        """Wrap coefficients that already meet the invariants, without checking them."""
        series = object.__new__(cls)
        series.arity = arity
        series.bound = bound
        series.coefficients = coefficients
        return series

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        exponents = tuple(exponents)
        if any(e < 0 or e > self.bound for e in exponents):
            raise UsageError(f"exponent vector {exponents} outside the truncation box")
        return self.coefficients.get(exponents, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.bound == other.bound
            and self.coefficients == other.coefficients
        )

    __hash__ = None

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.arity != other.arity or self.bound != other.bound:
            raise UsageError("series shapes do not match")
        return TruncatedSeries._make(
            self.arity, self.bound, _mul_box(self.coefficients, other.coefficients, self.bound)
        )

    def sorted_items(self) -> list[tuple[Exponents, Coefficient]]:
        return sorted(self.coefficients.items(), key=lambda item: grlex_key(item[0]))

    def evaluate(self, point: Sequence[complex]) -> complex:
        total = 0j
        for exps, coeff in self.coefficients.items():
            value = complex(coeff)
            for z, e in zip(point, exps):
                value *= complex(z) ** e
            total += value
        return total

    def __repr__(self) -> str:
        return f"TruncatedSeries(arity={self.arity}, bound={self.bound}, {len(self.coefficients)} terms)"

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "bound": self.bound,
            "coefficients": [[list(e), str(c)] for e, c in self.sorted_items()],
        }


# ---------------------------------------------------------------------------
# Canonical text rendering


def render_monomial(exponents: Exponents, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exponents):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _render_term(coeff: Coefficient, exponents: Exponents, names: Sequence[str]) -> str:
    monomial = render_monomial(exponents, names)
    if monomial == "1":
        return str(coeff)
    if coeff == 1:
        return monomial
    if coeff == -1:
        return f"-{monomial}"
    return f"{coeff}*{monomial}"


def render_polynomial(poly: LaurentPolynomial, names: Sequence[str] | None = None) -> str:
    """Terms in ascending graded-lex order, joined with explicit signs."""
    if names is None:
        names = default_names(poly.arity)
    if poly.is_zero():
        return "0"
    pieces = []
    for exps, coeff in poly.sorted_terms():
        text = _render_term(abs(coeff), exps, names)
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(pieces)


def render_factor(q: int, factor: QPowerFactor, names: Sequence[str] | None = None) -> str:
    if names is None:
        names = default_names(len(factor.exponent))
    coeff = Fraction(q) ** factor.qpow
    monomial = render_monomial(factor.exponent, names)
    if coeff == 1:
        return f"1 - {monomial}"
    return f"1 - {coeff}*{monomial}"


def render_rational(value: FactoredRational, names: Sequence[str] | None = None) -> str:
    if names is None:
        names = default_names(value.arity)
    num = render_polynomial(value.num, names)
    if not value.den:
        return num
    if len(value.num.terms) > 1:
        num = f"({num})"
    if len(value.den) == 1:
        return f"{num}/({render_factor(value.q, value.den[0], names)})"
    atoms = "".join(f"({render_factor(value.q, f, names)})" for f in value.den)
    return f"{num}/({atoms})"


def render_series(series: TruncatedSeries, names: Sequence[str] | None = None) -> str:
    """One line per nonzero coefficient, ascending graded-lex."""
    if names is None:
        names = default_names(series.arity)
    lines = [
        f"{render_monomial(exps, names)}: {coeff}" for exps, coeff in series.sorted_items()
    ]
    return "\n".join(lines)
