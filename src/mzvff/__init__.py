"""Exact multiple zeta functions over function fields.

Closed forms for the polynomial ring F_q[T] (every depth), the rational
function field F_q(T) (every depth), and genus >= 1 global function fields
(depth 2), as exact rational functions in the variables x_k = q^(-s_k),
together with brute-force oracles and a verification suite pairing each
closed form with an independent computation.
"""

from .exactalg import (
    BudgetExceededError,
    FactoredRational,
    LaurentPolynomial,
    NotAPowerSeriesError,
    PoleProximityError,
    QPowerFactor,
    SubstitutionError,
    TruncatedSeries,
    UsageError,
    configured_budget,
    render_factor,
    render_monomial,
    render_polynomial,
    render_rational,
    render_series,
)
from .fieldspec import (
    FunctionFieldSpec,
    InvalidSpecError,
    LPolynomial,
    effective_count,
    from_l_polynomial,
    one_var_zeta,
    spec_from_dict,
    spec_to_dict,
)
from .polyring import (
    PolyZetaContext,
    ScaledResidue,
    check_involution,
    closed_form_poly,
    completed_xi,
    euler_truncation,
    factorization_list,
    mixed_relation_d2,
    scaled_residue_d2,
    zero_free_check,
)
from .rational_field import (
    IdentityViolationError,
    closed_form_genus0,
    decomposition_check_d2,
    pole_subvarieties_genus0,
    q_polynomial,
    q_times_z_is_polynomial,
)
from .higher_genus import (
    GenusTwoVarForm,
    closed_form_genus_d2,
    degree_report,
    genus_one_decomposition_check,
    part_A,
    part_B,
    part_C,
    pq_polynomials,
)
from .oracle import (
    elliptic_point_count,
    enumerate_monic,
    irreducible_count,
    necklace_irreducible_count,
    truncated_series_b,
    truncated_series_enum,
)
from .bundled import bundled_specs

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
