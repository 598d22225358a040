"""Brute-force ground truth, independent of every closed form.

Three oracles live here: the definitional truncated multi-series built from
divisor-count weights b_n, literal enumeration of tuples of monic polynomials
over a prime field, and exhaustive point counting on small elliptic curves.
None of them uses a rational-function identity, so they can sit on the other
side of every verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable

from .exactalg import BudgetExceededError, TruncatedSeries, configured_budget
from .fieldspec import FunctionFieldSpec, effective_count


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomials over a prime field


@dataclass(frozen=True)
class PrimeFieldPoly:
    """Polynomial over F_p: ascending coefficients in 0..p-1, no leading zeros.

    The empty coefficient tuple is the zero polynomial.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))
        coeffs = self.coeffs
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        coeffs = [0] * max(len(self.coeffs), len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            coeffs[i] = c
        for i, c in enumerate(other.coeffs):
            coeffs[i] = (coeffs[i] + c) % self.p
        return PrimeFieldPoly(self.p, tuple(coeffs))

    def __mul__(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        if self.is_zero() or other.is_zero():
            return PrimeFieldPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return PrimeFieldPoly(self.p, tuple(out))

    def divmod(self, divisor: "PrimeFieldPoly") -> tuple["PrimeFieldPoly", "PrimeFieldPoly"]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        inv_lead = pow(dcs[-1], -1, p)
        quot = [0] * max(0, len(rem) - len(dcs) + 1)
        while len(rem) >= len(dcs):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(dcs):
                break
            shift = len(rem) - len(dcs)
            factor = rem[-1] * inv_lead % p
            quot[shift] = factor
            for i, c in enumerate(dcs):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
        return PrimeFieldPoly(p, tuple(quot)), PrimeFieldPoly(p, tuple(rem))

    def divisible_by(self, divisor: "PrimeFieldPoly") -> bool:
        return self.divmod(divisor)[1].is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("T" if c == 1 else f"{c}*T")
            else:
                parts.append(f"T^{i}" if c == 1 else f"{c}*T^{i}")
        return " + ".join(reversed(parts))


def enumerate_monic(p: int, n: int) -> list[PrimeFieldPoly]:
    """All p^n monic polynomials of degree n over F_p, lexicographically.

    The lower coefficients run through base-p counting with the constant term
    least significant, so for p=2, n=1 the list is [T, T+1].
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    polys = []
    for code in range(p**n):
        coeffs = []
        rest = code
        for _ in range(n):
            rest, digit = divmod(rest, p)
            coeffs.append(digit)
        polys.append(PrimeFieldPoly(p, tuple(coeffs) + (1,)))
    return polys


@lru_cache(maxsize=None)
def monic_irreducibles(p: int, n: int) -> tuple[PrimeFieldPoly, ...]:
    """Monic irreducibles of degree n over F_p, by trial division."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return tuple(enumerate_monic(p, 1))
    divisors = [f for m in range(1, n // 2 + 1) for f in monic_irreducibles(p, m)]
    return tuple(
        cand for cand in enumerate_monic(p, n)
        if not any(cand.divisible_by(d) for d in divisors)
    )


def irreducible_count(p: int, n: int) -> int:
    return len(monic_irreducibles(p, n))


def necklace_irreducible_count(p: int, n: int) -> int:
    """(1/n) * sum over e | n of mu(e) * p^(n/e); independent of the enumeration."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    total = 0
    for e in range(1, n + 1):
        if n % e == 0:
            mu = _moebius(e)
            if mu:
                total += mu * p ** (n // e)
    count, remainder = divmod(total, n)
    if remainder:
        raise ArithmeticError(f"necklace sum {total} not divisible by {n}")
    return count


def _moebius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


# ---------------------------------------------------------------------------
# Definitional truncated series

Weights = Callable[[int], int]


def monic_weights(q: int) -> Weights:
    """Weights counting monic polynomials of each degree over F_q: n -> q^n."""
    return lambda n: q**n


def genus0_weights(q: int) -> Weights:
    """Effective-divisor counts of the genus-0 field: n -> (q^(n+1)-1)/(q-1)."""
    return lambda n: (q ** (n + 1) - 1) // (q - 1)


def _resolve_weights(spec_or_weights) -> Weights:
    if isinstance(spec_or_weights, FunctionFieldSpec):
        spec = spec_or_weights
        return lambda n: effective_count(spec, n)
    if callable(spec_or_weights):
        return spec_or_weights
    raise TypeError("expected a FunctionFieldSpec or a weight function")


def truncated_series_b(spec_or_weights, d: int, bound: int) -> TruncatedSeries:
    """Definitional nested sum: coefficient of prod x_k^(m_k) is prod b_(m_k)
    when 0 <= m_1 <= ... <= m_d, and 0 otherwise.

    Computed by direct iteration over nondecreasing degree tuples; no closed
    form enters.
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    weights = _resolve_weights(spec_or_weights)
    cache = {n: int(weights(n)) for n in range(bound + 1)}
    coeffs = {}
    for m in combinations_with_replacement(range(bound + 1), d):
        value = 1
        for mk in m:
            value *= cache[mk]
        coeffs[m] = Fraction(value)
    return TruncatedSeries(d, bound, coeffs)


def enum_tuple_workload(p: int, d: int, bound: int) -> int:
    """Exact number of monic tuples truncated_series_enum would touch."""
    total = 0
    for m in combinations_with_replacement(range(bound + 1), d):
        total += p ** sum(m)
    return total


def truncated_series_enum(
    p: int, d: int, bound: int, budget: int | None = None
) -> TruncatedSeries:
    """Literal enumeration of tuples (f_1..f_d) of monic polynomials over F_p
    with nondecreasing degrees, counting one per tuple.

    A precomputed workload check guards against exponential blowups: if the
    tuple count exceeds the budget the call fails cleanly instead of running
    away.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("depth must be at least 1")
    if budget is None:
        budget = configured_budget()
    workload = enum_tuple_workload(p, d, bound)
    if workload > budget:
        raise BudgetExceededError(
            f"enumeration needs {workload} tuples, budget is {budget}"
        )
    by_degree = {n: enumerate_monic(p, n) for n in range(bound + 1)}
    coeffs = {}
    for m in combinations_with_replacement(range(bound + 1), d):
        count = 0
        for _ in product(*(by_degree[mk] for mk in m)):
            count += 1
        coeffs[m] = Fraction(count)
    return TruncatedSeries(d, bound, coeffs)


# ---------------------------------------------------------------------------
# Elliptic point counts (class numbers for genus-1 examples)


def elliptic_point_count(p: int, a: int, b: int) -> int:
    """#{(x, y) in F_p^2 : y^2 = x^3 + a x + b} + 1, by full enumeration."""
    if not is_prime(p) or p <= 3:
        raise ValueError(f"need a prime p > 3, got {p}")
    a %= p
    b %= p
    if (4 * a**3 + 27 * b**2) % p == 0:
        raise ValueError(f"curve y^2 = x^3 + {a}x + {b} is singular mod {p}")
    count = 0
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                count += 1
    return count + 1
