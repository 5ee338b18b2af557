"""Tests for the batch identity verifiers and the suite driver."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from hypothesis import given, strategies as st

from rcbrackets import identities, transition, zagier
from rcbrackets.brackets import (
    Leaf,
    Node,
    eval_bracket_tree,
    format_expr,
    left_nest,
    monomial_form,
    right_nest,
    tabulate_trees,
    tree_symbol,
)
from rcbrackets.hypergeom import jacobi_two_var
from rcbrackets.poly import Poly
from rcbrackets.star import assoc_defect
from rcbrackets.verma import intertwiner_phi_tilde
from rcbrackets.identities import (
    SUITE_NAMES,
    cmz_reports,
    run_suite,
    solve_u_from_brackets,
    verify_classical,
    verify_convolution,
    verify_eholzer_associativity,
    verify_four_function,
    verify_main_identity,
    verify_on_monomials,
    verify_operator_convolution,
    verify_reverse_identity,
)
from rcbrackets.rationals import factorial, pochhammer
from rcbrackets.report import merge_reports
from rcbrackets.transition import (
    InadmissibleParametersError,
    ParamTriple,
    RacahQuery,
    u_coefficient,
    u_row,
)
from rcbrackets.zagier import verify_zagier_invariance, zagier_suite

GENERIC = ParamTriple(Fraction(1, 2), Fraction(1), Fraction(7, 3))
ONES = ParamTriple(Fraction(1), Fraction(1), Fraction(1))


def test_main_identity_small() -> None:
    report = verify_main_identity(GENERIC, n=2, max_degree=2)[1]
    assert report.status == "pass"
    assert report.instances_checked == 27
    assert report.failures == []


def test_main_identity_integer_weights() -> None:
    for n in range(4):
        reports = verify_main_identity(ONES, n, max_degree=1)
        assert [report.status for report in reports] == ["pass"] * (n + 1)


def test_reverse_identity_small() -> None:
    reports = verify_reverse_identity(GENERIC, n=2, max_degree=2)
    assert [(report.status, report.instances_checked) for report in reports] == [("pass", 27)] * 3


def test_classical_identities() -> None:
    report = verify_classical(GENERIC, max_degree=3)
    assert report.status == "pass"
    assert report.instances_checked == 128
    assert report.identity_id == "classical-first-order"


def test_four_function_identity() -> None:
    weights = (Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(3, 2))
    report = verify_four_function(weights, max_degree=1)
    assert report.status == "pass"
    assert report.instances_checked == 16


def test_convolution_small() -> None:
    for n in range(4):
        reports = verify_convolution(GENERIC, n)
        assert len(reports) == n + 1
        for report in reports:
            assert report.status == "pass"
            assert report.instances_checked == 1


def test_operator_convolution_small() -> None:
    reports = verify_operator_convolution(GENERIC, n=2, max_degree=2)
    assert [(report.status, report.instances_checked) for report in reports] == [("pass", 3)] * 3


def test_eholzer_associativity_small() -> None:
    report = verify_eholzer_associativity(GENERIC, order=4, max_degree=1)
    assert report.status == "pass"
    assert report.instances_checked == 8


CROSS_TRIPLES = (GENERIC, ONES, ParamTriple(Fraction(3, 5), Fraction(5, 4), Fraction(2, 3)))


def _flat_defect(params: ParamTriple, degrees, order: int) -> Poly:
    """All hbar layers of the star route's associativity defect, summed in z."""
    forms = (monomial_form(w, d) for w, d in zip((params.lam1, params.lam2, params.lam3), degrees))
    defect = assoc_defect(*forms, order)
    return sum((p for layer in defect.coeffs for p in layer.values()), Poly.zero(("z",)))


@pytest.mark.parametrize("params", CROSS_TRIPLES, ids=str)
def test_eholzer_table_agrees_with_star_route(params) -> None:
    order, max_degree = 3, 2
    weights = (params.lam1, params.lam2, params.lam3)
    terms = identities.eholzer_terms(order)
    (full,) = verify_on_monomials("eholzer", weights, [[({}, terms)]], max_degree)
    degree_tuples = [(0, 0, 0), (1, 2, 0), (2, 1, 2), (2, 2, 2)]
    assert full.failures == []
    assert all(_flat_defect(params, degs, order).is_zero() for degs in degree_tuples)
    for dropped in (0, 5, len(terms) - 1):
        coeff, expr = terms[dropped]
        broken = terms[:dropped] + terms[dropped + 1 :]
        (report,) = verify_on_monomials("eholzer", weights, [[({}, broken)]], max_degree)
        failing = {tuple(record["degrees"]): record for record in report.failures}
        assert failing, format_expr(expr)
        for degs in degree_tuples:
            leaves = {slot: monomial_form(w, d) for slot, w, d in zip((1, 2, 3), weights, degs)}
            dropped_value = coeff * eval_bracket_tree(expr, leaves).form
            expected = _flat_defect(params, degs, order) - dropped_value
            if expected.is_zero():
                assert degs not in failing
            else:
                record = failing[degs]
                assert set(record) == {"sample", "degrees", "value"}
                assert record["value"] == str(expected)


def test_eholzer_rejects_negative_order() -> None:
    with pytest.raises(ValueError, match="nonnegative"):
        verify_eholzer_associativity(GENERIC, order=-1, max_degree=1)


def test_eholzer_failure_record_shape(monkeypatch) -> None:
    terms = identities.eholzer_terms
    monkeypatch.setattr(identities, "eholzer_terms", lambda order: terms(order)[1:])
    report = verify_eholzer_associativity(GENERIC, order=2, max_degree=1)
    assert report.status == "fail"
    assert report.instances_checked == 8
    assert len(report.failures) == 8  # the dropped [[f1,f2]_0,f3]_0 is f1 f2 f3
    for record in report.failures:
        assert set(record) == {"sample", "degrees", "value"}
        assert record["sample"] == identities.sample_dict(GENERIC)


def test_solved_coefficients_match_formula() -> None:
    for params in CROSS_TRIPLES:
        for n in range(8):
            for k in range(n + 1):
                solved = solve_u_from_brackets(params, n, k)
                formula = [
                    u_coefficient(params, RacahQuery(n, k, p)) for p in range(n + 1)
                ]
                assert solved == formula
    with pytest.raises(InadmissibleParametersError):
        solve_u_from_brackets(ParamTriple(0, 1, 1), 2, 0)
    with pytest.raises(ValueError, match="need 0 <= k, p <= n, got k=3, p=0, n=2"):
        solve_u_from_brackets(GENERIC, 2, 3)
    with pytest.raises(ValueError, match="n must be a nonnegative integer, got -1"):
        solve_u_from_brackets(GENERIC, -1, 0)


def test_solver_reads_no_entry_of_u(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read the formula it checks")

    expected = u_row(GENERIC, 4, 2)
    monkeypatch.setattr(transition, "_u_cached", refuse)
    monkeypatch.setattr(identities, "u_row", refuse)
    monkeypatch.setattr(identities, "u_matrix", refuse)
    assert solve_u_from_brackets(GENERIC, 4, 2) == expected


signed_weights = st.fractions(min_value=-5, max_value=5, max_denominator=6)
admissible_triples = (
    st.tuples(signed_weights, signed_weights, signed_weights)
    .map(lambda t: ParamTriple(*t))
    .filter(ParamTriple.is_admissible)
)


@given(admissible_triples, st.integers(min_value=0, max_value=6))
def test_right_nests_are_triangular_at_solver_degrees(params, n) -> None:
    """At degrees (n-j, 0, j) the right nest of order q vanishes for q > j,
    and at q = j equals (-1)^(n-j) (l2)_j (l2+l3+2j)_(n-j)."""
    l2, l3 = params.lam2, params.lam3
    weights = dict(enumerate((params.lam1, l2, l3), start=1))
    for q in range(n + 1):
        grid = [(n - j, 0, j) for j in range(q + 1)]
        ((values, den),) = tabulate_trees([right_nest(n, q)], weights, grid)
        for j, (degree, numerator) in enumerate(values):
            value = Fraction(numerator, den)
            if j < q:
                assert value == 0
            else:
                assert degree == 0
                assert value == (-1) ** (n - j) * pochhammer(l2, j) * pochhammer(
                    l2 + l3 + 2 * j, n - j
                )


def test_zagier_survey_adjudicates_between_readings() -> None:
    for params, n in ((ONES, 1), (GENERIC, 2)):
        report = verify_zagier_invariance(params, n)
        assert report.status == "report_only"
        assert report.instances_checked == 4
        assert report.findings["corrected"] == {
            "cycle_invariant": True,
            "swap_invariant": True,
        }
        assert report.findings["printed"] == {
            "cycle_invariant": False,
            "swap_invariant": False,
        }


def test_zagier_survey_skips_vanishing_normalizer() -> None:
    params = ParamTriple(Fraction(1, 2), Fraction(1, 2), Fraction(1))
    report = verify_zagier_invariance(params, 1)
    assert report.status == "report_only"
    assert report.instances_checked == 0
    assert report.findings["skipped"] == "pairwise weight sum equals 1"


def test_zagier_suite_aggregates() -> None:
    report = zagier_suite([ONES], max_n=1)
    assert report.status == "report_only"
    assert report.findings["corrected_invariant_all"] is True
    assert report.findings["printed_invariant_all"] is False
    assert report.findings["corrected_violation_count"] == 0
    assert report.findings["printed_violation_count"] == 1


def test_cmz_gated_report_passes() -> None:
    gated, survey = cmz_reports([GENERIC, ONES], max_n=3)
    assert gated.identity_id == "cmz-sum-vs-closed-special-kappas"
    assert gated.status == "pass"
    assert gated.instances_checked == 16
    assert survey.identity_id == "cmz-deformation-findings"
    assert survey.status == "report_only"


def test_cmz_survey_findings_structure() -> None:
    _, survey = cmz_reports([GENERIC], max_n=3)
    findings = survey.findings
    assert findings["generic_kappa_sum_vs_closed_all_equal"] is True
    assert findings["generic_kappa_mismatches"] == []
    assert findings["transition_compatibility_by_kappa"] == {
        "1/2": True,
        "3/2": True,
        "5/7": False,
    }
    assert findings["transition_compatibility_halfweight_by_kappa"] == {
        "1/2": True,
        "3/2": True,
        "5/7": True,
    }
    assert findings["transition_compatibility_mismatch_examples"]
    assert findings["kappas_surveyed"] == ["1/2", "3/2", "5/7"]
    assert "half-weight" in findings["note"]


def test_cmz_mismatch_split_by_kappa(monkeypatch) -> None:
    clean_gated, clean_survey = cmz_reports([GENERIC, ONES], max_n=3)
    closed = identities.cmz_t_closed
    monkeypatch.setattr(
        identities,
        "cmz_t_closed",
        lambda kappa, lam1, lam2, n: closed(kappa, lam1, lam2, n) + (1 if n == 2 else 0),
    )
    gated, survey = cmz_reports([GENERIC, ONES], max_n=3)
    assert gated.status == "fail"
    assert {f["kappa"] for f in gated.failures} == {"1/2", "3/2"}
    assert len(gated.failures) == 4
    for failure in gated.failures:
        assert set(failure) == {"sample", "kappa", "n", "sum_form", "closed_form"}
        assert failure["n"] == 2
    generic = survey.findings["generic_kappa_mismatches"]
    assert survey.findings["generic_kappa_sum_vs_closed_all_equal"] is False
    assert [(g["kappa"], g["n"]) for g in generic] == [("5/7", 2), ("5/7", 2)]
    assert all(set(g) == {"sample", "kappa", "n"} for g in generic)
    assert gated.instances_checked == clean_gated.instances_checked
    assert survey.instances_checked == clean_survey.instances_checked


# odd denominators only, so that scale 1/2 gives the scaled weights a new common scale
ODD_DENOMINATORS = ParamTriple(Fraction(1, 3), Fraction(5, 7), Fraction(9, 5))


def _compatible_by_fractions(kappa, scale, params, matrix):
    """``_deformation_compatible``'s bools, one ``Fraction`` t_n at a time from
    public ``cmz_t_sum``."""
    n = len(matrix) - 1
    l1, l2, l3 = (scale * lam for lam in (params.lam1, params.lam2, params.lam3))

    def t(lam1, lam2, order):
        return transition.cmz_t_sum(kappa, lam1, lam2, order)

    left = [t(l1, l2, k) * t(l1 + l2 + 2 * scale * k, l3, n - k) for k in range(n + 1)]
    return [
        sum(matrix[k][p] * left[k] for k in range(n + 1))
        == t(l2, l3, p) * t(l1, l2 + l3 + 2 * scale * p, n - p)
        for p in range(n + 1)
    ]


@pytest.mark.parametrize("params", CROSS_TRIPLES + (ODD_DENOMINATORS,), ids=str)
def test_deformation_compatible_equals_fraction_reference(params) -> None:
    for kappa, scale, n in product(
        identities.ASSERTED_KAPPAS + identities.GENERIC_KAPPAS,
        (Fraction(1), Fraction(1, 2)),
        range(5),
    ):
        matrix = transition.u_matrix(params, n)
        clean = identities._deformation_compatible(kappa, scale, params, matrix)
        assert clean == _compatible_by_fractions(kappa, scale, params, matrix)
        k, p = n // 2, (n + 1) // 2
        nudged = [list(row) for row in matrix]
        nudged[k][p] += Fraction(1, 1000)
        bools = identities._deformation_compatible(kappa, scale, params, nudged)
        assert bools == _compatible_by_fractions(kappa, scale, params, nudged)
        if kappa in identities.ASSERTED_KAPPAS:
            # t_n = (-1/4)^n here, so the identity holds and the nudge breaks column p only
            assert clean == [True] * (n + 1)
            assert bools == [q != p for q in range(n + 1)]


def test_run_suite_dispatch_and_order() -> None:
    reports = run_suite("all", [GENERIC], max_n=2, max_degree=1, hbar_order=2)
    ids = [report.identity_id for report in reports]
    assert ids == [
        "main-recoupling",
        "classical-first-order",
        "four-function-first-order",
        "reverse-recoupling",
        "jacobi-convolution",
        "operator-convolution",
        "zagier-invariance",
        "cmz-sum-vs-closed-special-kappas",
        "cmz-deformation-findings",
        "eholzer-associativity",
    ]
    by_id = {report.identity_id: report for report in reports}
    assert by_id["main-recoupling"].status == "pass"
    assert by_id["main-recoupling"].instances_checked == 48
    assert by_id["zagier-invariance"].status == "report_only"
    assert by_id["cmz-deformation-findings"].status == "report_only"
    gated = [r for r in reports if r.status != "report_only"]
    assert all(report.status == "pass" for report in gated)


def test_run_suite_single_names() -> None:
    assert set(SUITE_NAMES) == {
        "main",
        "classical",
        "reverse",
        "convolution",
        "operator",
        "zagier",
        "cmz",
        "eholzer",
    }
    for name in SUITE_NAMES:
        reports = run_suite(name, [GENERIC], max_n=1, max_degree=1)
        assert reports
        assert all(report.status in {"pass", "report_only"} for report in reports)


def test_run_suite_unknown_name() -> None:
    with pytest.raises(ValueError):
        run_suite("spectral", [GENERIC])


def test_convolution_failure_records_residual(monkeypatch) -> None:
    n, k, max_degree = 2, 1, 2
    clean_conv = verify_convolution(GENERIC, n)[k]
    clean_op = verify_operator_convolution(GENERIC, n, max_degree)[k]
    formula = identities.u_row
    monkeypatch.setattr(
        identities,
        "u_row",
        lambda params, n, k: [u + (1 if p == 0 else 0) for p, u in enumerate(formula(params, n, k))],
    )
    # the extra term is -[f1, [f2,f3]_0]_n, whose symbol is G_n(x, y+z) at (l1, l2+l3)
    x, y, z = (Poly.variable(name, identities.GEOMETRIC_VARS) for name in "xyz")
    l1, l2, l3 = GENERIC.lam1, GENERIC.lam2, GENERIC.lam3
    extra = jacobi_two_var(n, l1, l2 + l3).subst({"x": x, "y": y + z})

    conv = verify_convolution(GENERIC, n)[k]
    assert conv.status == "fail"
    assert conv.instances_checked == clean_conv.instances_checked
    assert conv.failures == [
        {"sample": identities.sample_dict(GENERIC), "n": n, "k": k, "value": str(-extra)}
    ]

    op = verify_operator_convolution(GENERIC, n, max_degree)[k]
    assert op.status == "fail"
    assert op.instances_checked == clean_op.instances_checked
    assert [record["input_degree"] for record in op.failures] == list(range(max_degree + 1))
    for m, record in enumerate(op.failures):
        assert set(record) == {"sample", "n", "k", "input_degree", "value"}
        assert record["value"] == str(-(extra * (x + y + z) ** m))


def _operator_residuals_by_poly(params, n, k, max_degree):
    """verify_operator_convolution's residual at each input degree, by public
    ``Poly`` arithmetic: ``.subst(bindings)``, then ``scale * image``, then ``+``."""
    weights = dict(enumerate((params.lam1, params.lam2, params.lam3), start=1))
    leaves = identities.SYMBOL_LEAVES
    residuals = []
    for m in range(max_degree + 1):
        q = Poly.monomial(("t",), {"t": m})
        residual = Poly.zero(identities.GEOMETRIC_VARS)
        for coeff, expr in identities.main_terms(params, n, k):
            sum1, symbol1, weight1 = tree_symbol(expr.left, weights, leaves)
            sum2, symbol2, weight2 = tree_symbol(expr.right, weights, leaves)
            scale = Poly.const(identities.GEOMETRIC_VARS, coeff)
            for symbol in (symbol1, symbol2):
                if symbol is not None:
                    scale = scale * symbol
            image = intertwiner_phi_tilde(expr.order, weight1, weight2, q)
            residual = residual + scale * image.subst({"x": sum1, "y": sum2})
        residuals.append(residual)
    return residuals


def test_operator_failure_records_match_poly_chain(monkeypatch) -> None:
    broken, n, k, max_degree = CROSS_TRIPLES[2], 3, 1, 3
    formula = identities.u_row

    def off_by_a_thousandth(params, n_, k_):
        row = formula(params, n_, k_)
        if (params, n_, k_) == (broken, n, k):
            row[2] += Fraction(1, 1000)
        return row

    monkeypatch.setattr(identities, "u_row", off_by_a_thousandth)
    residuals = _operator_residuals_by_poly(broken, n, k, max_degree)
    assert not any(residual.is_zero() for residual in residuals)
    report = verify_operator_convolution(broken, n, max_degree)[k]
    assert report.status == "fail"
    assert report.failures == [
        {
            "sample": identities.sample_dict(broken),
            "n": n,
            "k": k,
            "input_degree": m,
            "value": str(residual),
        }
        for m, residual in enumerate(residuals)
    ]
    for params, n_, k_ in ((GENERIC, n, k), (broken, n, 2), (broken, 2, k)):
        assert verify_operator_convolution(params, n_, max_degree)[k_].failures == []


def _zagier_scalar(l1, l2, l3, n, k):
    """The pair scalar of ``zagier._zagier_pair_scalar``'s docstring, as one
    Fraction from public ``pochhammer`` and ``factorial``."""
    numerator = (
        (2 * k + l1 + l2 - 1)
        * (2 * n + l1 + l2 + l3 - 1)
        * factorial(k)
        * factorial(n - k)
        * pochhammer(l1 + l2 + l3 - 1, n + k)
    )
    denominator = (
        pochhammer(l1, k)
        * pochhammer(l2, k)
        * pochhammer(l3, n - k)
        * pochhammer(k + l1 + l2 - 1, n + 1)
    )
    return numerator / denominator


def _zagier_sum_by_poly(lams, degrees, slots, n, reading):
    """``zagier._zagier_sums`` by public ``Poly`` arithmetic, one reduction per step."""
    l1, l2, l3 = lams
    s1, s2, s3 = slots
    leaves = {slot: monomial_form(w, d) for slot, w, d in zip((1, 2, 3), lams, degrees)}
    total = Poly.zero(zagier.ZAGIER_VARS)
    for k in range(n + 1):
        scalar = _zagier_scalar(l1, l2, l3, n, k)
        d_first, d_second = (k, n - k) if reading == "corrected" else (n, n)
        first = jacobi_two_var(d_first, l1, l2).subst({"x": s1, "y": s2})
        second = jacobi_two_var(d_second, l1 + l2 + 2 * k, l3).subst({"x": s1 + s2, "y": s3})
        bracket = eval_bracket_tree(left_nest(n, k), leaves).form
        total = total + scalar * (first * second * bracket.lift(zagier.ZAGIER_VARS))
    return total


@pytest.mark.parametrize("params", CROSS_TRIPLES, ids=str)
def test_zagier_sum_matches_poly_route(params) -> None:
    lams = (params.lam1, params.lam2, params.lam3)
    slots = tuple(Poly.variable(name, zagier.ZAGIER_VARS) for name in ("x", "y", "t"))
    for n in range(4):
        degrees = (n + 1, n + 2, n + 3)
        for perm in ((0, 1, 2), (1, 2, 0), (1, 0, 2)):
            args = [tuple(seq[i] for i in perm) for seq in (lams, degrees, slots)]
            for reading in ("corrected", "printed"):
                want = _zagier_sum_by_poly(*args, n, reading)
                assert zagier._zagier_sums(*args, n)[reading] == want


@pytest.mark.parametrize(
    "lams",
    [
        (Fraction(1, 2), Fraction(1), Fraction(7, 3)),
        (Fraction(3, 4), Fraction(5, 6), Fraction(2, 5)),
        (Fraction(-1, 3), Fraction(9, 2), Fraction(5, 7)),
        (Fraction(4), Fraction(1, 9), Fraction(11, 6)),
    ],
    ids=str,
)
def test_zagier_pair_scalar_is_the_pochhammer_ratio(lams) -> None:
    assert lcm(*(lam.denominator for lam in lams)) > 1
    for n in range(6):
        for k in range(n + 1):
            num, den = zagier._zagier_pair_scalar(*lams, n, k)
            assert isinstance(num, int) and isinstance(den, int)
            assert Fraction(num, den) == _zagier_scalar(*lams, n, k)


def test_zagier_pair_scalar_raises_where_the_ratio_divides_by_zero() -> None:
    # (l1)_k vanishes for l1 = -1, k >= 2; (k+l1+l2-1)_{n+1} at l1+l2 = 1
    cases = (
        ((Fraction(-1), Fraction(1, 2), Fraction(2)), 2, 2),
        ((Fraction(1, 3), Fraction(2, 3), Fraction(2)), 1, 0),
    )
    for lams, n, k in cases:
        with pytest.raises(ZeroDivisionError):
            _zagier_scalar(*lams, n, k)
        with pytest.raises(ZeroDivisionError):
            zagier._zagier_pair_scalar(*lams, n, k)


# -- blocks: one (triple, n) at a time, every row of it ------------------------------

BLOCK_TRIPLES = (GENERIC, CROSS_TRIPLES[2])
BLOCK_DEGREE = 2
# suite -> (merged report id, the public block verifier at (triple, n): one report per row)
PER_ROW = {
    "main": ("main-recoupling", lambda tr, n: verify_main_identity(tr, n, BLOCK_DEGREE)),
    "reverse": ("reverse-recoupling", lambda tr, n: verify_reverse_identity(tr, n, BLOCK_DEGREE)),
    "convolution": ("jacobi-convolution", verify_convolution),
    "operator": (
        "operator-convolution",
        lambda tr, n: verify_operator_convolution(tr, n, BLOCK_DEGREE),
    ),
}


@pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "perturbed"])
@pytest.mark.parametrize("suite", sorted(PER_ROW))
def test_blocks_equal_per_row_verifiers(monkeypatch, suite, perturbed) -> None:
    identity_id, verify_block = PER_ROW[suite]
    if perturbed:
        formula = identities.u_row

        def nudged(params, n, k):
            row = formula(params, n, k)
            if (n, k) == (2, 1):
                row[0] += Fraction(1, 1000)
            return row

        monkeypatch.setattr(identities, "u_row", nudged)
    (merged,) = run_suite(suite, BLOCK_TRIPLES, max_n=3, max_degree=BLOCK_DEGREE)
    blocks = [verify_block(tr, n) for tr in BLOCK_TRIPLES for n in range(4)]
    assert [len(block) for block in blocks] == [n + 1 for _ in BLOCK_TRIPLES for n in range(4)]
    rows = [row for block in blocks for row in block]
    assert merged.identity_id == identity_id
    assert merged.to_dict() == merge_reports(identity_id, rows).to_dict()
    assert merged.instances_checked == sum(row.instances_checked for row in rows)
    assert merged.status == ("fail" if perturbed else "pass")
    # the nudge reaches every suite, and only its rows, (n, k) or (n, p) = (2, 1), fail,
    # from both triples
    failing = [row for row in rows if row.failures]
    assert bool(failing) == perturbed
    for row in failing:
        rows_hit = {(record["n"], record.get("k", record.get("p"))) for record in row.failures}
        assert rows_hit == {(2, 1)}
    samples = {tuple(record["sample"].items()) for record in merged.failures}
    expected = {tuple(identities.sample_dict(tr).items()) for tr in BLOCK_TRIPLES}
    assert samples == (expected if perturbed else set())


def test_failures_are_degree_major_across_tables() -> None:
    # at unit weights [z^a, z^b]_0 = z^(a+b) and [z^a, z^b]_1 = (b - a) z^(a+b-1),
    # so table a fails on every tuple and table b off the diagonal
    weights = (Fraction(1), Fraction(1))
    tables = [
        ({"table": name}, [(Fraction(1), Node(Leaf(1), Leaf(2), j))])
        for name, j in (("a", 0), ("b", 1))
    ]
    (report,) = verify_on_monomials("two-tables", weights, [tables], 2)
    expected = []
    for degrees in product(range(3), repeat=2):
        leaves = {slot: monomial_form(1, d) for slot, d in enumerate(degrees, start=1)}
        for label, ((_, expr),) in tables:
            value = eval_bracket_tree(expr, leaves).form
            if not value.is_zero():
                expected.append((list(degrees), label["table"], str(value)))
    assert [(r["degrees"], r["table"], r["value"]) for r in report.failures] == expected
    assert {name for _, name, _ in expected} == {"a", "b"}
    assert report.instances_checked == 2 * 9


CONVOLUTION_TRIPLES = (GENERIC, CROSS_TRIPLES[2])


def _convolution_residual(params, n, k):
    """sum_T c_T S_T of the main table, with every S_T from ``tree_symbol``."""
    weights = dict(enumerate((params.lam1, params.lam2, params.lam3), start=1))
    residual = Poly.zero(identities.GEOMETRIC_VARS)
    for coeff, expr in identities.main_terms(params, n, k):
        residual = residual + coeff * tree_symbol(expr, weights, identities.SYMBOL_LEAVES)[1]
    return residual


def test_convolution_failures_are_the_tree_symbol_residual(monkeypatch) -> None:
    blocks = [(tr, n) for tr in CONVOLUTION_TRIPLES for n in range(5)]
    for params, n in blocks:
        assert all(report.failures == [] for report in verify_convolution(params, n))
    formula = identities.u_row

    def nudged(params, n, k):
        # one entry of every row at n >= 1, a different column per row
        row = formula(params, n, k)
        if n >= 1:
            row[(n + k) % (n + 1)] += Fraction(1, 1000)
        return row

    monkeypatch.setattr(identities, "u_row", nudged)
    for params, n in blocks:
        for k, report in enumerate(verify_convolution(params, n)):
            if n == 0:
                assert report.failures == []
                continue
            residual = _convolution_residual(params, n, k)
            assert not residual.is_zero()
            sample = identities.sample_dict(params)
            assert report.failures == [{"sample": sample, "n": n, "k": k, "value": str(residual)}]
