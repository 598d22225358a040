"""Function field data model: (q, genus, class number, initial divisor counts).

A global function field enters every computation through four numbers and a
short list: the constant field size q, the genus g, the class number h, and
the counts b_0..b_(2g-2) of effective divisors of small degree.  Beyond
degree 2g-2 the count is forced:

    b_n = h * (q^(n-g+1) - 1) / (q - 1)      for n > 2g - 2,

so the spec extends to all degrees.  The degree-2g polynomial L(t) with
L(0) = 1 whose ratio L(t)/((1-t)(1-q t)) generates the b_n is accepted as an
alternative input and validated against the forced tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import FactoredRational, LaurentPolynomial, QPowerFactor, atom_product


class InvalidSpecError(ValueError):
    """A field spec document or constructor argument is inconsistent."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class FunctionFieldSpec:
    """Everything the multiple zeta functions of a field depend on.

    ``b_initial`` holds b_0..b_(2g-2) (empty for genus 0, where the class
    number must be 1 and every b_n follows the closed formula).
    """

    q: int
    genus: int
    class_number: int
    b_initial: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "b_initial", tuple(int(b) for b in self.b_initial))
        if not isinstance(self.q, int) or self.q < 2:
            raise InvalidSpecError("q", f"must be an integer >= 2, got {self.q!r}")
        if not isinstance(self.genus, int) or self.genus < 0:
            raise InvalidSpecError("genus", f"must be an integer >= 0, got {self.genus!r}")
        if not isinstance(self.class_number, int) or self.class_number < 1:
            raise InvalidSpecError(
                "class_number", f"must be an integer >= 1, got {self.class_number!r}"
            )
        expected = max(0, 2 * self.genus - 1)
        if len(self.b_initial) != expected:
            raise InvalidSpecError(
                "b", f"expected {expected} initial counts b_0..b_{2 * self.genus - 2}, "
                f"got {len(self.b_initial)}"
            )
        if self.genus == 0 and self.class_number != 1:
            raise InvalidSpecError("class_number", "genus 0 forces class number 1")
        if self.b_initial:
            if self.b_initial[0] != 1:
                raise InvalidSpecError("b", "b_0 must be 1 (the zero divisor)")
            if any(b < 0 for b in self.b_initial):
                raise InvalidSpecError("b", "all divisor counts must be nonnegative")

    def label(self) -> str:
        return f"q={self.q} g={self.genus} h={self.class_number}"


def effective_count(spec: FunctionFieldSpec, n: int) -> int:
    """Number of effective divisors of degree n."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n <= 2 * spec.genus - 2:
        return spec.b_initial[n]
    power = spec.q ** (n - spec.genus + 1) - 1
    count, remainder = divmod(spec.class_number * power, spec.q - 1)
    if remainder:
        raise InvalidSpecError("b", f"count at degree {n} is not an integer")
    return count


@dataclass(frozen=True)
class LPolynomial:
    """Integer polynomial of even degree 2g with constant term 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))
        coeffs = self.coefficients
        if not coeffs or coeffs[0] != 1:
            raise InvalidSpecError("L", "constant term must be 1")
        if coeffs[-1] == 0 and len(coeffs) > 1:
            raise InvalidSpecError("L", "leading coefficient must be nonzero")
        if (len(coeffs) - 1) % 2 != 0:
            raise InvalidSpecError("L", f"degree {len(coeffs) - 1} is odd; must be 2g")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t: int) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * t + c
        return total


def from_l_polynomial(q: int, lpoly: LPolynomial | Sequence[int]) -> FunctionFieldSpec:
    """Build a spec from L(t): counts are the series of L(t)/((1-t)(1-q t)).

    The class number is recovered from the first forced-tail coefficient
    (degree 2g-1) and cross-checked against L(1); the next three coefficients
    must match the forced formula or the input is rejected.
    """
    if not isinstance(lpoly, LPolynomial):
        lpoly = LPolynomial(tuple(lpoly))
    if not isinstance(q, int) or q < 2:
        raise InvalidSpecError("q", f"must be an integer >= 2, got {q!r}")
    genus = lpoly.degree // 2
    bound = 2 * genus + 2
    numerator = LaurentPolynomial(1, {(i,): c for i, c in enumerate(lpoly.coefficients)})
    ratio = FactoredRational(q, numerator, [QPowerFactor(0, (1,)), QPowerFactor(1, (1,))])
    series = ratio.series(bound)
    counts = [series.coefficient((n,)) for n in range(bound + 1)]
    if any(c.denominator != 1 or c < 0 for c in counts):
        raise InvalidSpecError("L", "series coefficients must be nonnegative integers")
    counts = [int(c) for c in counts]

    if genus == 0:
        spec = FunctionFieldSpec(q=q, genus=0, class_number=1, b_initial=())
    else:
        tail = counts[2 * genus - 1]
        h, remainder = divmod(tail * (q - 1), q**genus - 1)
        if remainder or h < 1:
            raise InvalidSpecError(
                "L", f"coefficient {tail} at degree {2 * genus - 1} does not determine "
                "an integer class number"
            )
        if lpoly(1) != h:
            raise InvalidSpecError(
                "L", f"class number {h} from the series tail disagrees with L(1)={lpoly(1)}"
            )
        spec = FunctionFieldSpec(
            q=q, genus=genus, class_number=h, b_initial=tuple(counts[: 2 * genus - 1])
        )

    for n in range(2 * genus, bound + 1):
        if counts[n] != effective_count(spec, n):
            raise InvalidSpecError(
                "L", f"series coefficient {counts[n]} at degree {n} contradicts the "
                f"forced count {effective_count(spec, n)}"
            )
    return spec


def one_var_zeta(spec: FunctionFieldSpec) -> FactoredRational:
    """The one-variable zeta function of the field as a rational function in t.

    Summing the divisor-count series and closing the forced tail by geometric
    series gives

        sum_{n<=2g-2} b_n t^n
          + (h/(q-1)) * (q^g t^(2g-1)/(1-q t) - t^(2g-1)/(1-t)),

    assembled here over the common denominator (1-t)(1-q t).  For genus 0 the
    numerator collapses to the constant 1.
    """
    q, g, h = spec.q, spec.genus, spec.class_number
    atoms = [QPowerFactor(0, (1,)), QPowerFactor(1, (1,))]
    one_minus_t, one_minus_qt = (atom_product(q, 1, [atom]) for atom in atoms)
    head = LaurentPolynomial(1, {(n,): spec.b_initial[n] for n in range(2 * g - 1)})
    t_pow = LaurentPolynomial.monomial(1, 1, (2 * g - 1,))
    tail = (
        t_pow.scale(q**g) * one_minus_t - t_pow * one_minus_qt
    ).scale(Fraction(h, q - 1))
    num = head * one_minus_t * one_minus_qt + tail
    return FactoredRational(q, num, atoms)


# ---------------------------------------------------------------------------
# JSON documents: {"q":…, "genus":…, "class_number":…, "b":[…]} or {"q":…, "L":[…]}


def spec_from_dict(document: dict) -> FunctionFieldSpec:
    if not isinstance(document, dict):
        raise InvalidSpecError("document", "expected a JSON object")
    keys = set(document)
    if "L" in keys:
        extra = keys - {"q", "L"}
        if extra:
            raise InvalidSpecError(sorted(extra)[0], "unexpected field alongside L")
        return from_l_polynomial(_require_int(document, "q"), _require_int_list(document, "L"))
    extra = keys - {"q", "genus", "class_number", "b"}
    if extra:
        raise InvalidSpecError(sorted(extra)[0], "unknown field")
    missing = {"q", "genus", "class_number", "b"} - keys
    if missing:
        raise InvalidSpecError(sorted(missing)[0], "missing field")
    return FunctionFieldSpec(
        q=_require_int(document, "q"),
        genus=_require_int(document, "genus"),
        class_number=_require_int(document, "class_number"),
        b_initial=tuple(_require_int_list(document, "b")),
    )


def spec_to_dict(spec: FunctionFieldSpec) -> dict:
    return {
        "q": spec.q,
        "genus": spec.genus,
        "class_number": spec.class_number,
        "b": list(spec.b_initial),
    }


def _require_int(document: dict, field: str) -> int:
    value = document.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidSpecError(field, f"must be an integer, got {value!r}")
    return value


def _require_int_list(document: dict, field: str) -> list[int]:
    value = document.get(field)
    if not isinstance(value, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in value
    ):
        raise InvalidSpecError(field, f"must be a list of integers, got {value!r}")
    return value
