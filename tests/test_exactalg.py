from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvff import oracle
from mzvff.bundled import genus_specs
from mzvff.exactalg import (
    BudgetExceededError,
    FactoredRational,
    LaurentPolynomial,
    NotAPowerSeriesError,
    PoleProximityError,
    QPowerFactor,
    TruncatedSeries,
    UsageError,
    atom_product,
    render_polynomial,
    render_rational,
)
from mzvff.higher_genus import closed_form_genus_d2
from mzvff.polyring import PolyZetaContext, closed_form_poly, euler_truncation, y_exponent
from mzvff.rational_field import closed_form_genus0


def poly(arity, terms):
    return LaurentPolynomial(arity, {tuple(e): Fraction(c) for e, c in terms.items()})


class TestLaurentPolynomial:
    def test_difference_of_squares(self):
        one_plus = poly(1, {(0,): 1, (1,): 1})
        one_minus = poly(1, {(0,): 1, (1,): -1})
        assert one_plus * one_minus == poly(1, {(0,): 1, (2,): -1})

    def test_multiplicative_identity(self):
        p = poly(2, {(0, 0): 3, (1, 2): Fraction(-1, 2), (-1, 0): 7})
        assert p * LaurentPolynomial.one(2) == p

    def test_hand_expansion_cube(self):
        # (1 - 2v)(1 + 2v + 4v^2) = 1 - 8v^3
        left = poly(1, {(0,): 1, (1,): -2})
        right = poly(1, {(0,): 1, (1,): 2, (2,): 4})
        assert left * right == poly(1, {(0,): 1, (3,): -8})

    def test_arity_mismatch(self):
        with pytest.raises(UsageError):
            poly(1, {(0,): 1}) * poly(2, {(0, 0): 1})

    @pytest.mark.parametrize("exponents", [(1,), (1, 2, 3)])
    def test_shift_arity_mismatch(self, exponents):
        with pytest.raises(UsageError):
            poly(2, {(0, 0): 1}).shift(exponents)

    def test_zero_terms_dropped(self):
        p = poly(1, {(0,): 1}) + poly(1, {(0,): -1})
        assert p.is_zero()
        assert p.terms == {}

    def test_laurent_division(self):
        # (x - x^2) / (1 - x) = x, via content extraction
        num = poly(1, {(1,): 1, (2,): -1})
        div = poly(1, {(0,): 1, (1,): -1})
        assert num.divide_exact(div) == poly(1, {(1,): 1})

    def test_division_not_exact(self):
        num = poly(1, {(0,): 1, (1,): 1})
        div = poly(1, {(0,): 1, (1,): -1})
        assert num.divide_exact(div) is None

    def test_binomial_division(self):
        # (1 - 4u^2)/(1 - 2u) = 1 + 2u
        num = poly(1, {(0,): 1, (2,): -4})
        div = poly(1, {(0,): 1, (1,): -2})
        assert num.divide_exact(div) == poly(1, {(0,): 1, (1,): 2})

    def test_substitute_monomial_identity(self):
        p = poly(2, {(1, 0): 2, (0, 3): -1, (-2, 1): Fraction(1, 3)})
        assert p.substitute_monomial(0, 1, (1, 0)) == p

    def test_render_ascending_graded_lex(self):
        p = poly(2, {(1, 1): 4, (0, 0): 1, (0, 1): 2, (1, 0): -3})
        assert render_polynomial(p) == "1 + 2*x2 - 3*x1 + 4*x1*x2"


coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
).filter(bool)


def polynomials(arity, min_exp=0, max_exp=3, max_terms=4):
    exps = st.tuples(*([st.integers(min_exp, max_exp)] * arity))
    return st.dictionaries(exps, coeffs, min_size=0, max_size=max_terms).map(
        lambda terms: LaurentPolynomial(arity, terms)
    )


def atoms(arity):
    exps = st.tuples(*([st.integers(0, 2)] * arity)).filter(any)
    return st.tuples(st.integers(-2, 3), exps).map(lambda t: QPowerFactor(*t))


def rationals(arity, q=2, min_exp=0):
    return st.tuples(
        polynomials(arity, min_exp=min_exp),
        st.lists(atoms(arity), min_size=0, max_size=2),
    ).map(lambda t: FactoredRational(q, t[0], t[1]))


class TestPolynomialAlgebra:
    @given(polynomials(2), polynomials(2), polynomials(2))
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polynomials(2), polynomials(2))
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polynomials(1, min_exp=-2), polynomials(1, min_exp=-2).filter(lambda p: not p.is_zero()))
    def test_division_inverts_multiplication(self, a, b):
        assert (a * b).divide_exact(b) == a


class TestFactoredRational:
    def test_additive_inverse_keeps_denominator(self):
        value = FactoredRational.inverse_factor(2, 1, (1,))
        total = value + (-value)
        assert total.num.is_zero()
        assert total.den == value.den

    def test_mul_merges_denominators(self):
        a = FactoredRational.inverse_factor(2, 0, (1, 0))
        b = FactoredRational.inverse_factor(2, 0, (0, 1))
        product = a * b
        assert product.num == LaurentPolynomial.one(2)
        assert sorted(f.exponent for f in product.den) == [(0, 1), (1, 0)]

    def test_add_cross_multiplies(self):
        # 1/(1-v) + 1/(1-2v) = (2 - 3v)/((1-v)(1-2v)) at q=2
        a = FactoredRational.inverse_factor(2, 0, (1,))
        b = FactoredRational.inverse_factor(2, 1, (1,))
        total = a + b
        assert total.num == poly(1, {(0,): 2, (1,): -3})
        assert len(total.den) == 2

    def test_equal_equivalent_fractions(self):
        # 1/(1-v) == (1+v)/(1-v^2)
        a = FactoredRational.inverse_factor(2, 0, (1,))
        b = FactoredRational(2, poly(1, {(0,): 1, (1,): 1}), [QPowerFactor(0, (2,))])
        assert a.equal(b)
        assert b.equal(a)

    def test_equal_distinct_poles(self):
        a = FactoredRational.inverse_factor(2, 0, (1,))
        b = FactoredRational.inverse_factor(2, 1, (1,))
        assert not a.equal(b)

    def test_base_mismatch(self):
        a = FactoredRational.inverse_factor(2, 0, (1,))
        b = FactoredRational.inverse_factor(3, 0, (1,))
        with pytest.raises(UsageError):
            a.equal(b)

    def test_reduce_full_cancellation(self):
        num = poly(1, {(0,): 1, (1,): -1})
        value = FactoredRational(2, num, [QPowerFactor(0, (1,))])
        reduced = value.reduce()
        assert reduced.num == LaurentPolynomial.one(1)
        assert reduced.den == ()

    def test_reduce_binomial_division(self):
        # (1 - 4u^2)/(1 - 2u) -> 1 + 2u at q=2
        num = poly(1, {(0,): 1, (2,): -4})
        value = FactoredRational(2, num, [QPowerFactor(1, (1,))])
        reduced = value.reduce()
        assert reduced.den == ()
        assert reduced.num == poly(1, {(0,): 1, (1,): 2})

    def test_reduce_single_factor(self):
        # (1 - 3v)/((1-v)(1-3v)) -> 1/(1-v) at q=3
        num = poly(1, {(0,): 1, (1,): -3})
        value = FactoredRational(3, num, [QPowerFactor(0, (1,)), QPowerFactor(1, (1,))])
        reduced = value.reduce()
        assert reduced.num == LaurentPolynomial.one(1)
        assert reduced.den == (QPowerFactor(0, (1,)),)


class TestSeries:
    def test_geometric(self):
        series = FactoredRational.inverse_factor(2, 1, (1,)).series(3)
        assert [series.coefficient((n,)) for n in range(4)] == [1, 2, 4, 8]

    def test_product_of_geometrics(self):
        value = FactoredRational.inverse_factor(2, 0, (1, 0)) * FactoredRational.inverse_factor(
            2, 0, (0, 1)
        )
        series = value.series(1)
        assert series.coefficients == {
            (0, 0): 1,
            (1, 0): 1,
            (0, 1): 1,
            (1, 1): 1,
        }

    def test_monic_pair_coefficient(self):
        # coefficient of u^1 v^0 in 1/((1-4u)(1-2v)) equals the number of
        # monic-pair choices counted in the oracle tests: 4
        value = FactoredRational.inverse_factor(2, 2, (1, 0)) * FactoredRational.inverse_factor(
            2, 1, (0, 1)
        )
        assert value.series(2).coefficient((1, 0)) == 4

    def test_negative_exponent_rejected(self):
        value = FactoredRational(2, poly(1, {(-1,): 1}), [QPowerFactor(0, (1,))])
        with pytest.raises(NotAPowerSeriesError):
            value.series(2)

    @given(rationals(2), rationals(2), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_series_multiplicative(self, a, b, bound):
        assert (a * b).series(bound) == a.series(bound) * b.series(bound)


class TestSubstitute:
    def test_identity_substitution(self):
        value = FactoredRational(
            2, poly(2, {(1, 0): 1, (0, 2): -3}), [QPowerFactor(1, (1, 1))]
        )
        assert value.substitute(0, 1, (1, 0)).equal(value)

    def test_forced_rewrite(self):
        # (1 - q x) under x -> x^-1/q becomes (-x^-1)(1 - x); as a value,
        # 1/(1 - q x) goes to -x/(1 - x)
        value = FactoredRational.inverse_factor(2, 1, (1,))
        image = value.substitute(0, Fraction(1, 2), (-1,))
        expected = FactoredRational(2, poly(1, {(1,): -1}), [QPowerFactor(0, (1,))])
        assert image.equal(expected)

    def test_zero_coefficient_rejected(self):
        value = FactoredRational.inverse_factor(2, 1, (1,))
        with pytest.raises(UsageError):
            value.substitute(0, 0, (1,))

    def test_constant_specialization(self):
        # x2 -> 1/q in 1/(1 - q x2) would hit the pole
        value = FactoredRational.inverse_factor(2, 1, (0, 1))
        from mzvff.exactalg import SubstitutionError

        with pytest.raises(SubstitutionError):
            value.substitute(1, Fraction(1, 2), (0, 0))

    @given(rationals(2, min_exp=-2))
    @settings(max_examples=40, deadline=None)
    def test_depth2_involution_is_involutive(self, value):
        # x1 -> q^-3 x1^-1 x2^-2 applied twice returns the original value
        coeff = Fraction(1, 8)
        exps = (-1, -2)
        try:
            once = value.substitute(0, coeff, exps)
            twice = once.substitute(0, coeff, exps)
        except (ArithmeticError, ValueError):
            return  # substitution hit an unrepresentable atom; nothing to check
        assert twice.equal(value)


class TestEquivalenceRelation:
    @given(rationals(2))
    @settings(max_examples=30, deadline=None)
    def test_reflexive(self, a):
        assert a.equal(a)

    @given(rationals(2), st.lists(atoms(2), min_size=1, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_transitive_on_rewrites(self, a, extra):
        # b and c rewrite a by multiplying numerator and denominator by the
        # same atoms; equality must hold along the chain and across it
        b = FactoredRational(a.q, a.num * a.denominator_polynomial(extra[:1]), a.den + tuple(extra[:1]))
        c = FactoredRational(a.q, a.num * a.denominator_polynomial(extra), a.den + tuple(extra))
        assert a.equal(b) and b.equal(a)
        assert b.equal(c) and c.equal(b)
        assert a.equal(c) and c.equal(a)

    @given(rationals(2))
    @settings(max_examples=30, deadline=None)
    def test_reduce_preserves_value(self, a):
        assert a.reduce().equal(a)


class TestEvaluate:
    def test_constant_term(self):
        value = FactoredRational.inverse_factor(2, 1, (1,))
        assert value.evaluate((0,)) == pytest.approx(1.0)

    def test_geometric_value(self):
        value = FactoredRational.inverse_factor(2, 1, (1,))
        assert value.evaluate((0.25,)) == pytest.approx(2.0)

    def test_pole_proximity(self):
        value = FactoredRational.inverse_factor(2, 1, (1,))
        with pytest.raises(PoleProximityError):
            value.evaluate((0.5,))

    def test_series_approaches_closed_form(self):
        value = FactoredRational.inverse_factor(2, 1, (1,))
        target = value.evaluate((0.25,))
        errors = [
            abs(value.series(bound).evaluate((0.25,)) - target) for bound in (4, 8, 32)
        ]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-9


class TestRendering:
    def test_rational_with_two_atoms(self):
        value = FactoredRational.inverse_factor(2, 2, (1, 1)) * FactoredRational.inverse_factor(
            2, 1, (0, 1)
        )
        assert render_rational(value) == "1/((1 - 4*x1*x2)(1 - 2*x2))"

    def test_rational_single_atom(self):
        value = FactoredRational.inverse_factor(3, 1, (1,))
        assert render_rational(value) == "1/(1 - 3*x1)"

    def test_negative_qpow_renders_fraction(self):
        value = FactoredRational.inverse_factor(2, -1, (1,))
        assert render_rational(value) == "1/(1 - 1/2*x1)"

    def test_json_round_trip(self):
        value = FactoredRational(
            3, poly(2, {(0, 0): 1, (1, 2): Fraction(-7, 3)}), [QPowerFactor(2, (1, 1))]
        )
        clone = FactoredRational.from_dict(value.to_dict())
        assert clone.to_dict() == value.to_dict()
        assert clone.equal(value)
        assert render_rational(clone) == render_rational(value)


class TestTruncatedSeries:
    def test_out_of_box_rejected(self):
        series = TruncatedSeries(1, 2, {(0,): Fraction(1)})
        with pytest.raises(UsageError):
            series.coefficient((3,))

    def test_box_product(self):
        a = TruncatedSeries(1, 2, {(0,): 1, (1,): 1, (2,): 1})
        product = a * a
        assert product.coefficient((2,)) == 3


def reference_series(value, bound):
    """The numerator's box times each atom's own series, by TruncatedSeries.__mul__."""
    inside = {e: c for e, c in value.num.terms.items() if all(x <= bound for x in e)}
    product = TruncatedSeries(value.arity, bound, inside)
    for factor in value.den:
        product = product * FactoredRational.inverse_factor(
            value.q, factor.qpow, factor.exponent
        ).series(bound)
    return product


def euler_value(q, depth, max_degree):
    """The product that euler_truncation expands, rebuilt from its atoms."""
    den = []
    for n in range(1, max_degree + 1):
        for k in range(1, depth + 1):
            atom = QPowerFactor(n * (depth - k), tuple(n * e for e in y_exponent(depth, k)))
            den.extend([atom] * oracle.irreducible_count(q, n))
    return FactoredRational(q, LaurentPolynomial.one(depth), den)


def boxed_rationals():
    """Any arity 1..3, Fraction numerators reaching past small boxes, atoms with q^-2..q^3."""
    return st.integers(1, 3).flatmap(
        lambda arity: st.tuples(
            st.sampled_from((2, 3, 5)),
            polynomials(arity, max_exp=6, max_terms=5),
            st.lists(atoms(arity), max_size=4),
        )
    ).map(lambda t: FactoredRational(*t))


def reduce_by_division(value):
    """Cancel atoms by trying divide_exact on each, with no shortcut."""
    num, remaining = value.num, list(value.den)
    progress = True
    while progress and not num.is_zero():
        progress = False
        for i, factor in enumerate(remaining):
            quotient = num.divide_exact(atom_product(value.q, value.arity, [factor]))
            if quotient is not None:
                num = quotient
                del remaining[i]
                progress = True
                break
    return FactoredRational(value.q, num, remaining)


class TestSeriesRecurrence:
    @pytest.mark.parametrize("qpow", [-2, 0, 3])
    def test_single_atom_is_geometric(self, qpow):
        series = FactoredRational.inverse_factor(3, qpow, (2, 1)).series(5)
        assert series.coefficients == {(2 * n, n): Fraction(3) ** (qpow * n) for n in range(3)}

    @pytest.mark.parametrize("q,d,bound", [(2, 1, 12), (3, 2, 9), (5, 3, 5), (2, 4, 3)])
    def test_poly_closed_form(self, q, d, bound):
        value = closed_form_poly(PolyZetaContext(q, d))
        assert value.series(bound) == reference_series(value, bound)

    @pytest.mark.parametrize("q,d,bound", [(2, 1, 12), (3, 2, 9), (4, 3, 5), (3, 4, 3)])
    def test_rational_closed_form(self, q, d, bound):
        value = closed_form_genus0(q, d)
        assert value.series(bound) == reference_series(value, bound)

    @pytest.mark.parametrize("name", sorted(genus_specs()))
    def test_genus_closed_form(self, name):
        value = closed_form_genus_d2(genus_specs()[name]).total
        assert value.series(7) == reference_series(value, 7)

    @pytest.mark.parametrize("q,d,max_degree", [(2, 1, 5), (2, 2, 3), (3, 2, 2), (3, 3, 2)])
    def test_euler_product(self, q, d, max_degree):
        value = euler_value(q, d, max_degree)
        expected = reference_series(value, d * max_degree)
        assert value.series(d * max_degree) == expected
        assert euler_truncation(PolyZetaContext(q, d), max_degree) == expected

    @given(boxed_rationals(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_product_of_atom_series(self, value, bound):
        assert value.series(bound) == reference_series(value, bound)

    def test_budget_counts_box_times_passes(self, monkeypatch):
        value = closed_form_poly(PolyZetaContext(2, 2))  # two atoms: three passes
        monkeypatch.setenv("MZVFF_BUDGET", str(5 * 5 * 3))
        assert value.series(4) == reference_series(value, 4)
        with pytest.raises(BudgetExceededError, match="budget is 75"):
            value.series(5)


class TestReduceShortcut:
    def test_cancelling_atoms_match_plain_division(self):
        # numerator carries two unit-entry atoms and one without a unit entry
        q = 3
        cancel = [QPowerFactor(1, (1, 1)), QPowerFactor(-1, (0, 1)), QPowerFactor(2, (2, 2))]
        keep = [QPowerFactor(0, (1, 0)), QPowerFactor(1, (1, 1)), QPowerFactor(0, (0, 2))]
        num = poly(2, {(0, 0): 1, (1, 2): Fraction(-2, 3)}) * atom_product(q, 2, cancel)
        value = FactoredRational(q, num, cancel + keep)
        reduced = value.reduce()
        assert reduced.to_dict() == reduce_by_division(value).to_dict()
        assert sorted(reduced.den) == sorted(keep)
        assert reduced.equal(value)

    @pytest.mark.parametrize("q,d", [(2, 3), (3, 4)])
    def test_genus0_closed_form(self, q, d):
        value = closed_form_genus0(q, d)
        assert value.reduce().to_dict() == reduce_by_division(value).to_dict()

    @given(rationals(2), st.lists(atoms(2), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_division(self, a, extra):
        value = FactoredRational(a.q, a.num * atom_product(a.q, 2, extra), a.den + tuple(extra))
        assert value.reduce().to_dict() == reduce_by_division(value).to_dict()


# The all-Fraction kernel that int coefficients replaced, ported to plain
# term dicts: the reference for TestIntCoefficients.


def _ref_accumulate(out, exps, value):
    total = out.get(exps, Fraction(0)) + value
    if total:
        out[exps] = total
    else:
        out.pop(exps, None)


def ref_terms(poly):
    return {e: Fraction(c) for e, c in poly.terms.items()}


def ref_add(a, b):
    out = dict(a)
    for exps, coeff in b.items():
        _ref_accumulate(out, exps, coeff)
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _ref_accumulate(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def ref_scale(a, value):
    value = Fraction(value)
    return {e: c * value for e, c in a.items()} if value else {}


def ref_shift(a, exponents):
    return {tuple(x + y for x, y in zip(e, exponents)): c for e, c in a.items()}


def ref_substitute(a, j, coeff, exponents):
    coeff = Fraction(coeff)
    out = {}
    for exps, c in a.items():
        k = exps[j]
        new = tuple((e - k if i == j else e) + k * exponents[i] for i, e in enumerate(exps))
        _ref_accumulate(out, new, c * coeff**k)
    return out


def ref_divide_exact(a, b):
    if not a:
        return {}
    arity = len(next(iter(b)))
    c_num = tuple(min(e[j] for e in a) for j in range(arity))
    c_div = tuple(min(e[j] for e in b) for j in range(arity))
    rem = ref_shift(a, tuple(-e for e in c_num))
    div = ref_shift(b, tuple(-e for e in c_div))
    lead_e = max(div, key=lambda e: (sum(e), e))
    lead_c = div[lead_e]
    quotient = {}
    while rem:
        r_lead = max(rem, key=lambda e: (sum(e), e))
        diff = tuple(x - y for x, y in zip(r_lead, lead_e))
        if any(e < 0 for e in diff):
            return None
        coeff = rem[r_lead] / lead_c
        _ref_accumulate(quotient, diff, coeff)
        for e_div, c_div2 in div.items():
            _ref_accumulate(rem, tuple(x + y for x, y in zip(diff, e_div)), -coeff * c_div2)
    return ref_shift(quotient, tuple(a - b for a, b in zip(c_num, c_div)))


def ref_series(value, bound):
    arity, side = value.arity, bound + 1
    strides = [side**i for i in range(arity)]
    cells = [Fraction(0)] * side**arity
    for exps, coeff in ref_terms(value.num).items():
        if all(e <= bound for e in exps):
            cells[sum(e * s for e, s in zip(exps, strides))] += coeff
    for qpow, step in value.den:
        c = Fraction(value.q) ** qpow
        off = sum(e * s for e, s in zip(step, strides))
        axes = [range(e * s, side * s, s) for e, s in zip(step, strides)]
        for parts in product(*reversed(axes)):
            k = sum(parts)
            cells[k] += c * cells[k - off]
    out = {}
    for k, v in enumerate(cells):
        if v:
            exps = []
            for _ in range(arity):
                k, e = divmod(k, side)
                exps.append(e)
            out[tuple(exps)] = v
    return out


def assert_exact(terms, reference):
    """Same values as the reference, each integral one stored as an int."""
    assert terms == reference
    for c in terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


# ints, proper Fractions and integral Fractions, all nonzero
mixed_coeffs = st.one_of(
    st.integers(-6, 6), coeffs, st.integers(-6, 6).map(Fraction)
).filter(bool)


def mixed_polynomials(arity, min_exp=0, max_exp=3, max_terms=4):
    exps = st.tuples(*([st.integers(min_exp, max_exp)] * arity))
    return st.dictionaries(exps, mixed_coeffs, max_size=max_terms).map(
        lambda terms: LaurentPolynomial(arity, terms)
    )


class TestIntCoefficients:
    @given(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           st.one_of(mixed_coeffs, st.just(0), st.just(Fraction(0)))))
    def test_constructor_normalises(self, raw):
        poly = LaurentPolynomial(2, raw)
        assert_exact(poly.terms, {e: Fraction(c) for e, c in raw.items() if c})
        boxed = {(e[0] % 3, e[1] % 3): c for e, c in raw.items()}
        series = TruncatedSeries(2, 2, boxed)
        assert_exact(series.coefficients, {e: Fraction(c) for e, c in boxed.items() if c})

    @given(mixed_polynomials(2, min_exp=-1), mixed_polynomials(2, min_exp=-1))
    def test_add_neg_sub_mul(self, a, b):
        ra, rb = ref_terms(a), ref_terms(b)
        neg_b = {e: -c for e, c in rb.items()}
        assert_exact((a + b).terms, ref_add(ra, rb))
        assert_exact((-b).terms, neg_b)
        assert_exact((a - b).terms, ref_add(ra, neg_b))
        assert_exact((a * b).terms, ref_mul(ra, rb))

    @given(mixed_polynomials(2, min_exp=-1), st.one_of(mixed_coeffs, st.just(0)))
    def test_scale(self, a, value):
        assert_exact(a.scale(value).terms, ref_scale(ref_terms(a), value))
        assert_exact((a * value).terms, ref_scale(ref_terms(a), value))

    @given(mixed_polynomials(3, min_exp=-2), st.tuples(*([st.integers(-2, 2)] * 3)))
    def test_shift(self, a, exponents):
        assert_exact(a.shift(exponents).terms, ref_shift(ref_terms(a), exponents))

    @given(
        mixed_polynomials(2, min_exp=-3),
        st.integers(0, 1),
        mixed_coeffs,
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_substitute_monomial(self, a, j, coeff, exponents):
        # negative exponents of x_j raise int and Fraction coefficients to
        # negative powers
        expected = ref_substitute(ref_terms(a), j, coeff, exponents)
        assert_exact(a.substitute_monomial(j, coeff, exponents).terms, expected)

    @given(
        mixed_polynomials(2, min_exp=-1),
        mixed_polynomials(2, min_exp=-1).filter(lambda p: not p.is_zero()),
    )
    def test_divide_exact(self, a, b):
        ra, rb = ref_terms(a), ref_terms(b)
        assert_exact((a * b).divide_exact(b).terms, ref_divide_exact(ref_mul(ra, rb), rb))
        quotient, expected = a.divide_exact(b), ref_divide_exact(ra, rb)
        if expected is None:
            assert quotient is None
        else:
            assert_exact(quotient.terms, expected)

    @given(
        st.integers(1, 3).flatmap(
            lambda arity: st.tuples(
                st.sampled_from((2, 3, 5)),
                mixed_polynomials(arity, max_exp=5, max_terms=5),
                st.lists(atoms(arity), max_size=3),
            )
        ).map(lambda t: FactoredRational(*t)),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_series(self, value, bound):
        series = value.series(bound)
        assert_exact(series.coefficients, ref_series(value, bound))
        product_series = series * series
        assert_exact(
            product_series.coefficients,
            {e: c for e, c in ref_mul(series.coefficients, series.coefficients).items()
             if all(x <= bound for x in e)},
        )


class TestIntFastPath:
    @pytest.mark.parametrize("q,d", [(2, 4), (3, 5), (4, 3), (5, 4), (7, 5)])
    def test_cleared_genus0_numerator_is_integral(self, q, d):
        num = closed_form_genus0(q, d).num.scale((q - 1) ** d)
        assert all(type(c) is int for c in num.terms.values())

    @given(st.sampled_from((2, 3, 5)), st.lists(atoms(3), max_size=4))
    def test_atom_product_with_nonnegative_qpow_is_integral(self, q, factors):
        factors = [QPowerFactor(abs(a), e) for a, e in factors]
        assert all(type(c) is int for c in atom_product(q, 3, factors).terms.values())
