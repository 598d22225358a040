import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvff import oracle
from mzvff.exactalg import BudgetExceededError, LaurentPolynomial, QPowerFactor, render_rational
from mzvff.fieldspec import FunctionFieldSpec, one_var_zeta
from mzvff.rational_field import (
    closed_form_genus0,
    decomposition_check_d2,
    pole_subvarieties_genus0,
    q_polynomial,
    q_times_z_is_polynomial,
    subset_terms,
)

QS = (2, 3, 5)
DEPTHS = (1, 2, 3)


class TestSubsetTerms:
    def test_depth2_term_table(self):
        # the four depth-2 terms: (subset, sign, c_1, c_2)
        table = {
            term.subset: (term.sign, term.exponents) for term in subset_terms(2)
        }
        assert table == {
            (1, 2): (1, (2, 1)),
            (1,): (-1, (1, 0)),
            (2,): (-1, (1, 1)),
            (): (1, (0, 0)),
        }

    def test_depth2_prefactors(self):
        q = 7
        prefactors = {term.subset: term.prefactor(q) for term in subset_terms(2)}
        assert prefactors[(1, 2)] == Fraction(q**2, (q - 1) ** 2)
        assert prefactors[(1,)] == Fraction(-q, (q - 1) ** 2)
        assert prefactors[(2,)] == Fraction(-q, (q - 1) ** 2)
        assert prefactors[()] == Fraction(1, (q - 1) ** 2)

    @given(st.integers(2, 9), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_signed_prefactors_sum_to_one(self, q, d):
        # sum of sign * q^|S| over all subsets is (q-1)^d, so the constant
        # series coefficient comes out as b_0^d = 1
        total = sum(term.sign * q ** len(term.subset) for term in subset_terms(d))
        assert total == (q - 1) ** d


class TestClosedForm:
    def test_depth1_renders_as_two_atoms(self):
        assert render_rational(closed_form_genus0(2, 1)) == "1/((1 - x1)(1 - 2*x1))"

    def test_depth1_equals_one_var_zeta(self):
        spec = FunctionFieldSpec(q=3, genus=0, class_number=1)
        assert closed_form_genus0(3, 1).equal(one_var_zeta(spec))

    def test_constant_coefficient(self):
        assert closed_form_genus0(2, 2).series(0).coefficient((0, 0)) == 1

    def test_coefficient_of_x2(self):
        # 4*2 - 2*1 - 2*2 + 1 = 3 = b_0 * b_1 at q = 2
        assert closed_form_genus0(2, 2).series(1).coefficient((0, 1)) == 3

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("d", DEPTHS)
    def test_series_equals_divisor_count_sum(self, q, d):
        closed = closed_form_genus0(q, d).series(8)
        assert closed == oracle.truncated_series_b(oracle.genus0_weights(q), d, 8)


    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 5))
    def test_recursion_matches_pairwise_subset_sum(self, q, d):
        # the subset terms added pairwise with +, as stated in the paper
        total = None
        for term in subset_terms(d):
            value = term.as_rational(q)
            total = value if total is None else total + value
        closed = closed_form_genus0(q, d)
        assert closed.to_dict() == total.to_dict()
        assert render_rational(closed) == render_rational(total)

    @pytest.mark.parametrize("d", (1, 2, 3, 4, 5, 6))
    def test_term_bound_of_the_cost_guard(self, d):
        # the guard counts (d+1)! numerator terms and d(d+3)/2 ladder atoms
        closed = closed_form_genus0(3, d)
        assert len(closed.num.terms) <= math.factorial(d + 1)
        assert len(closed.den) == d * (d + 3) // 2

    def test_budget_counts_terms_times_ladder(self, monkeypatch):
        cost = math.factorial(4) * 9  # depth 3: 4! terms x 9 ladder atoms
        monkeypatch.setenv("MZVFF_BUDGET", str(cost))
        assert len(closed_form_genus0(2, 3).den) == 9
        monkeypatch.setenv("MZVFF_BUDGET", str(cost - 1))
        with pytest.raises(BudgetExceededError, match=f"= {cost}, budget is {cost - 1}"):
            closed_form_genus0(2, 3)


class TestQPolynomial:
    def test_depth1(self):
        q = 3
        expected = (
            LaurentPolynomial.constant(1, q - 1)
            * LaurentPolynomial(1, {(0,): Fraction(1), (1,): Fraction(-1)})
            * LaurentPolynomial(1, {(0,): Fraction(1), (1,): Fraction(-q)})
        )
        assert q_polynomial(q, 1) == expected

    def test_depth2_q2_atom_count(self):
        # (q-1)^2 (1-v)(1-qv)(1-u)(1-qu)(1-q^2 u) with u = x1x2, v = x2
        poly = q_polynomial(2, 2)
        assert poly.degrees() == (3, 5)
        assert poly.coefficient((0, 0)) == 1  # (q-1)^2 = 1 at q = 2

    def test_depth2_degree_in_x2_is_five(self):
        assert q_polynomial(2, 2).degree(1) == 5

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("d", DEPTHS)
    def test_clearing_gives_polynomial_in_degree_bound(self, q, d):
        ok, degrees = q_times_z_is_polynomial(q, d)
        assert ok, degrees
        assert all(deg <= 2 * d - 1 for deg in degrees)

    @pytest.mark.parametrize("q", (2, 3))
    @pytest.mark.parametrize(
        "d, degrees", [(4, (3, 6, 8, 9)), (5, (4, 8, 11, 13, 14))]
    )
    def test_degree_bound_fails_beyond_depth_three(self, q, d, degrees):
        # recorded finding: the stated 2d-1 bound holds for d <= 3 only
        assert q_times_z_is_polynomial(q, d) == (False, degrees)

    def test_depth3_reaches_level_three(self):
        # the full-subset term carries the atom 1 - q^3 y_1, so the clearing
        # polynomial must include it: degree in x1 is 4, not 3
        assert q_polynomial(2, 3).degree(0) == 4


class TestDecomposition:
    @pytest.mark.parametrize("q", QS)
    def test_four_product_decomposition(self, q):
        assert decomposition_check_d2(q)


class TestPoleSubvarieties:
    def test_depth1(self):
        poles = pole_subvarieties_genus0(3, 1)
        assert [(p.k, p.level) for p in poles] == [(1, 0), (1, 1)]
        assert [p.label() for p in poles] == ["s1=0", "s1=1"]

    def test_depth2_containment(self):
        poles = {(p.k, p.level) for p in pole_subvarieties_genus0(2, 2)}
        allowed = {(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)}
        assert poles <= allowed

    @pytest.mark.parametrize("q", (2, 3))
    @pytest.mark.parametrize("d", DEPTHS)
    def test_containment_and_simplicity(self, q, d):
        poles = pole_subvarieties_genus0(q, d)
        assert len(poles) == len(set((p.k, p.level) for p in poles))
        for pole in poles:
            assert 0 <= pole.level <= d - pole.k + 1
