"""Exact Rankin-Cohen bracket calculus over rationals.

Public surface: exact rational primitives, sparse polynomials, terminating
hypergeometric and Jacobi evaluation, weighted brackets and bracket trees,
Racah-type transition coefficients, sl2 polynomial module models with the
Fischer pairing, the truncated Eholzer star product, a bracket-expression
rewriter, and the batch verification engine behind the ``rcbrackets`` CLI.
"""

from .brackets import (
    BracketExpr,
    DuplicateSlotError,
    Leaf,
    Node,
    UnboundSlotError,
    WeightedForm,
    eval_bracket_tree,
    expr_slots,
    expr_total_order,
    expr_weight,
    format_expr,
    monomial_form,
    rc_bracket,
)
from .hypergeom import (
    BottomPoleError,
    HypSpec,
    NonTerminatingError,
    hyp_terminating_at_one,
    hyp_terminating_poly,
    jacobi_basis_admissible,
    jacobi_operator,
    jacobi_poly,
    jacobi_poly_hyp,
    jacobi_two_var,
    racah_value,
)
from .identities import (
    SUITE_NAMES,
    cmz_reports,
    run_suite,
    solve_u_from_brackets,
    verify_block,
    verify_classical,
    verify_four_function,
    verify_on_monomials,
)
from .poly import (
    MAX_NESTING,
    NestingTooDeepError,
    Poly,
    PolySyntaxError,
    UnknownVariableError,
    VAR_ORDER,
    VarsetMismatchError,
    poly_from_string,
)
from .rationals import (
    Rational,
    as_rational,
    binom_general,
    factorial,
    format_rational,
    is_nonpositive_integer,
    parse_rational,
    pochhammer,
)
from .report import VerificationReport, merge_reports
from .rewrite import (
    BracketSyntaxError,
    InadmissibleLocalWeightsError,
    LinearCombo,
    StandardTerm,
    bind_terms,
    check_identity,
    format_combo,
    parse_bracket,
    standard_tree,
    to_standard,
)
from .samples import base_triples, default_triples, seeded_rows, seeded_triples
from .star import StarSeries, TruncationMismatchError, assoc_defect, star
from .transition import (
    InadmissibleParametersError,
    ParamTriple,
    RacahQuery,
    VanishingDenominatorError,
    admissible_scaled,
    cmz_t_closed,
    cmz_t_pair,
    cmz_t_sum,
    u_coefficient,
    u_generating_poly,
    u_matrix,
    u_reverse,
    u_reverse_matrix,
    u_row,
    u_row_scaled,
)
from .verma import (
    Highest,
    Lowest,
    NonPolynomialResultError,
    TensorLowest,
    TensorLowestTV,
    act,
    adjoint_phi_tilde,
    divide_by_t,
    fischer,
    intertwiner_phi_tilde,
    psi_map,
)
from .zagier import verify_zagier_invariance, zagier_suite

__all__ = [name for name in dir() if not name.startswith("_")]
