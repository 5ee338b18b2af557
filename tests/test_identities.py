"""Tests for the batch identity verifiers and the suite driver."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from hypothesis import given, settings, strategies as st

from rcbrackets import cmz, engine, identities, transition, zagier
from rcbrackets.brackets import (
    Leaf,
    Node,
    eval_bracket_tree,
    format_expr,
    left_nest,
    monomial_form,
    right_nest,
    tabulate_by_order,
    tree_symbol,
)
from rcbrackets.hypergeom import jacobi_two_var
from rcbrackets.poly import Poly
from rcbrackets.star import assoc_defect
from rcbrackets.verma import intertwiner_phi_tilde
from rcbrackets.cmz import cmz_reports
from rcbrackets.engine import (
    solve_u_from_brackets,
    verify_on_monomials,
)
from rcbrackets.identities import SUITE_NAMES, run_suite, verify_block
from rcbrackets.rationals import common_scale, factorial, pochhammer
from rcbrackets.report import merge_reports
from rcbrackets.samples import sample_dict
from rcbrackets.transition import (
    InadmissibleParametersError,
    ParamTriple,
    RacahQuery,
    VanishingDenominatorError,
    u_coefficient,
    u_row,
)
from rcbrackets.zagier import verify_zagier_invariance, zagier_suite

GENERIC = ParamTriple(Fraction(1, 2), Fraction(1), Fraction(7, 3))
ONES = ParamTriple(Fraction(1), Fraction(1), Fraction(1))


def test_main_identity_small() -> None:
    report = verify_block("main", GENERIC, 2, max_degree=2)[1]
    assert report.status == "pass"
    assert report.instances_checked == 27
    assert report.failures == []


def test_main_identity_integer_weights() -> None:
    for n in range(4):
        reports = verify_block("main", ONES, n, max_degree=1)
        assert [report.status for report in reports] == ["pass"] * (n + 1)


def test_reverse_identity_small() -> None:
    reports = verify_block("reverse", GENERIC, 2, max_degree=2)
    assert [(report.status, report.instances_checked) for report in reports] == [("pass", 27)] * 3


def test_classical_identities() -> None:
    plan = {"classical-first-order": ("classical", "grid", [None], 3)}
    [report] = engine.plan_reports(GENERIC, plan)["classical-first-order"]
    assert report.status == "pass"
    assert report.instances_checked == 128
    assert report.identity_id == "classical-first-order"


def test_four_function_identity() -> None:
    # the fixed table is read at (l1, l2, l3, l1 + 1) = (1/2, 1, 7/3, 3/2)
    plan = {"four-function-first-order": ("four-function", "grid", [None], 1)}
    [report] = engine.plan_reports(GENERIC, plan)["four-function-first-order"]
    assert report.status == "pass"
    assert report.instances_checked == 16


def test_convolution_small() -> None:
    for n in range(4):
        reports = verify_block("convolution", GENERIC, n)
        assert len(reports) == n + 1
        for report in reports:
            assert report.status == "pass"
            assert report.instances_checked == 1


def test_operator_convolution_small() -> None:
    reports = verify_block("operator", GENERIC, 2, max_degree=2)
    assert [(report.status, report.instances_checked) for report in reports] == [("pass", 3)] * 3


def test_eholzer_associativity_small() -> None:
    (report,) = verify_block("eholzer", GENERIC, 4, max_degree=1)
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
    terms = engine.eholzer_terms(order)
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
    with pytest.raises(ValueError, match="^truncation order must be a nonnegative integer, got -1$"):
        verify_block("eholzer", GENERIC, -1, max_degree=1)


def test_eholzer_failure_record_shape(monkeypatch) -> None:
    terms = engine.eholzer_terms
    monkeypatch.setattr(engine, "eholzer_terms", lambda order: terms(order)[1:])
    (report,) = verify_block("eholzer", GENERIC, 2, max_degree=1)
    assert report.status == "fail"
    assert report.instances_checked == 8
    assert len(report.failures) == 8  # the dropped [[f1,f2]_0,f3]_0 is f1 f2 f3
    for record in report.failures:
        assert set(record) == {"sample", "degrees", "value"}
        assert record["sample"] == sample_dict(GENERIC)


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
    monkeypatch.setattr(engine, "u_row_scaled", refuse)
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
        # the degrees (n-j, 0, j) lie on the slice of total order n
        tree = right_nest(n, q)
        tables, slices = tabulate_by_order([tree], weights)
        _, (values, den) = tables[tree]
        on_slice = dict(zip(slices[n], values))
        for j in range(q + 1):
            value = Fraction(on_slice[n - j, 0, j], den)
            if j < q:
                assert value == 0
            else:
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
    for params in (
        ParamTriple(Fraction(1, 2), Fraction(1, 2), Fraction(1)),
        ParamTriple(Fraction(-1), Fraction(1, 2), Fraction(2)),
    ):
        report = verify_zagier_invariance(params, 1)
        assert report.status == "report_only"
        assert report.instances_checked == 0
        assert report.findings["skipped"] == "pairwise weight sum equals 1"


def test_zagier_survey_skips_where_no_pair_sum_is_one() -> None:
    # l1 + l2 = 0 escapes the pair-sum rule, but (k+l1+l2-1)_{n+1} vanishes at n=1, k=0
    params = ParamTriple(Fraction(1, 2), Fraction(-1, 2), Fraction(2))
    report = verify_zagier_invariance(params, 1)
    assert report.status == "report_only"
    assert report.instances_checked == 0
    assert report.findings["skipped"] == "pair scalar denominator vanishes"
    # (l2)_k vanishes at l2 = -1, k = 2, for the identity and the cycle
    params = ParamTriple(Fraction(1, 3), Fraction(-1), Fraction(5, 2))
    assert verify_zagier_invariance(params, 1).findings["corrected"]
    skipped = verify_zagier_invariance(params, 2).findings["skipped"]
    assert skipped == "pair scalar denominator vanishes"


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
    closed = cmz.cmz_t_closed
    monkeypatch.setattr(
        cmz,
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
    # one rows dict for every call, so rows are shared across kappas and scales
    # and grow with n, as across the triples of one survey
    rows = {}
    for kappa, scale, n in product(
        cmz.ASSERTED_KAPPAS + cmz.GENERIC_KAPPAS,
        (Fraction(1), Fraction(1, 2)),
        range(5),
    ):
        matrices = [transition.u_matrix(params, m) for m in range(n + 1)]
        columns, matrix = [cmz._columns(m) for m in matrices], matrices[n]
        clean = cmz._deformation_compatible(kappa, scale, params.scaled(), columns, rows)[n]
        assert clean == _compatible_by_fractions(kappa, scale, params, matrix)
        k, p = n // 2, (n + 1) // 2
        nudged = [list(row) for row in matrix]
        nudged[k][p] += Fraction(1, 1000)
        columns[n] = cmz._columns(nudged)
        bools = cmz._deformation_compatible(kappa, scale, params.scaled(), columns, rows)[n]
        assert bools == _compatible_by_fractions(kappa, scale, params, nudged)
        if kappa in cmz.ASSERTED_KAPPAS:
            # t_n = (-1/4)^n here, so the identity holds and the nudge breaks column p only
            assert clean == [True] * (n + 1)
            assert bools == [q != p for q in range(n + 1)]


def test_cmz_scales_each_column_once_and_shares_rows(monkeypatch) -> None:
    # U's columns are the only Fractions scaled, once per (triple, n, p) for
    # every kappa and scale; each t_n of one weight pair, keyed on canonical
    # integers, is computed once per survey, gated sums and survey together
    triples, max_n = (GENERIC, ONES, CROSS_TRIPLES[2], ParamTriple(1, 1, Fraction(1, 2))), 3
    scalings, orders = [], []
    scale, row = cmz.common_scale, cmz.cmz_t_row

    def counting_scale(*values):
        scalings.append(values)
        return scale(*values)

    def counting_row(k, x, y, d, span):
        # (kappa, l1, l2, n), so one pair read at two scales counts twice
        orders.extend((Fraction(k, d), Fraction(x, d), Fraction(y, d), n) for n in span)
        return row(k, x, y, d, span)

    monkeypatch.setattr(cmz, "common_scale", counting_scale)
    monkeypatch.setattr(cmz, "cmz_t_row", counting_row)
    cmz_reports(triples, max_n)
    cases = len(triples) * sum(n + 1 for n in range(max_n + 1))
    kappas = len(cmz.ASSERTED_KAPPAS + cmz.GENERIC_KAPPAS)
    assert len(scalings) == cases
    assert orders and len(set(orders)) == len(orders)
    # ONES and (1, 1, 1/2) share the pair (1, 1) at every kappa
    assert len(orders) < len(triples) * kappas * 2 * (2 * (max_n + 1) + (max_n + 1) * (max_n + 2))


VANISHING_C0 = "denominator C(-2*l1, 0) * C(2n+2*l1+2*l2-2, 1) vanishes"


@pytest.mark.parametrize(
    "triples, error, message",
    [
        # t_2(1, -1/2) has no lead
        (
            [ParamTriple(1, Fraction(-1, 2), 1)],
            VanishingDenominatorError,
            "leading factor C(-2*l2, 2) vanishes",
        ),
        # the gated sum t_1(1, -1) raises before U at (1, -1, 3) fails the gate
        ([ParamTriple(1, -1, 3)], VanishingDenominatorError, VANISHING_C0),
        (
            [ParamTriple(1, -1, 3), ParamTriple(1, Fraction(-1, 2), 1)],
            VanishingDenominatorError,
            VANISHING_C0,
        ),
        # U at (1/2, 1, -1) fails the gate before the survey reaches t_3(1, -1)
        (
            [ParamTriple(1, 1, 1), ParamTriple(Fraction(1, 2), 1, -1)],
            InadmissibleParametersError,
            "weights (1/2, 1, -1) fail the gate: no weight or consecutive partial sum"
            " may be a nonpositive integer",
        ),
    ],
    ids=["lead", "sum-before-U", "first-triple-first", "U-before-survey"],
)
def test_cmz_reports_raises_gated_sums_then_u_then_survey(triples, error, message) -> None:
    # every gated sum is read before any U matrix, and every U before the survey
    with pytest.raises(error) as got:
        cmz_reports(triples, 3)
    assert type(got.value) is error
    assert str(got.value) == message


def test_cmz_mismatch_examples_are_kappa_major(monkeypatch) -> None:
    # a nudged U entry at (ONES, n = 1) breaks every kappa there; the examples
    # run kappa first, then (triple, n, p)
    matrix = transition.u_matrix

    def nudged(params, n):
        out = matrix(params, n)
        if params == ONES and n == 1:
            out[0][1] += Fraction(1, 1000)
        return out

    monkeypatch.setattr(cmz, "u_matrix", nudged)
    _, survey = cmz_reports([GENERIC, ONES], 3)
    findings = survey.findings
    assert findings["transition_compatibility_by_kappa"] == {
        "1/2": False,
        "3/2": False,
        "5/7": False,
    }
    examples = [
        (e["kappa"], e["sample"]["lam1"], e["n"], e["p"])
        for e in findings["transition_compatibility_mismatch_examples"]
    ]
    assert examples == [
        ("1/2", "1", 1, 1),
        ("3/2", "1", 1, 1),
        *(("5/7", "1/2", n, p) for n in (2, 3) for p in range(n + 1)),
        ("5/7", "1", 1, 1),
    ]


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
        assert [report.identity_id for report in reports] == list(identities.SUITES[name].reports)
        assert all(report.status in {"pass", "report_only"} for report in reports)


@pytest.mark.parametrize("name", SUITE_NAMES + ("all",))
def test_run_suite_rejects_negative_scopes(monkeypatch, name) -> None:
    # every suite and ``all`` checks its scope before it builds a plan, reads the
    # default triples or runs a survey
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the scope check")

    for target in ("plan_reports", "default_triples", "zagier_suite", "cmz_reports"):
        monkeypatch.setattr(identities, target, refuse)
    for key in ("max_n", "max_degree", "hbar_order"):
        for value in (-1, -3):
            with pytest.raises(ValueError) as info:
                run_suite(name, **{key: value})
            assert str(info.value) == f"{key} must be nonnegative, got {value}"


def test_run_suite_skips_an_empty_plan(monkeypatch) -> None:
    # the surveys plan no report, so a run of one of them reads no triple's plan
    calls = []
    plan_reports = identities.plan_reports

    def counting(params, plan):
        calls.append(params)
        return plan_reports(params, plan)

    monkeypatch.setattr(identities, "plan_reports", counting)
    triples = [GENERIC, ONES]
    for name in ("zagier", "cmz"):
        run_suite(name, triples, max_n=1, max_degree=1)
        assert calls == []
    run_suite("main", triples, max_n=1, max_degree=1)
    assert calls == triples


def test_plan_rejects_an_unknown_reader(monkeypatch) -> None:
    # the reader is checked before any table is built
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built before the reader check")

    monkeypatch.setattr(engine, "_source_rows", refuse)
    plan = {"main-recoupling": ("main", "grid", [1], 1), "typo": ("main", "opertor", [1], 1)}
    with pytest.raises(ValueError) as info:
        engine.plan_reports(GENERIC, plan)
    assert str(info.value) == "unknown reader 'opertor'"


def _count_u_reads(monkeypatch) -> list:
    """The rows of U that ``engine`` reads from here on, one entry per read."""
    reads = []
    formula = engine.u_row_scaled

    def counting(*args):
        reads.append(args)
        return formula(*args)

    monkeypatch.setattr(engine, "u_row_scaled", counting)
    return reads


def test_plan_rejects_an_unknown_source_before_reading_u(monkeypatch) -> None:
    # the sources are checked in the readers' loop, before main reads a row of U
    reads = _count_u_reads(monkeypatch)
    plan = {"a": ("main", "grid", [3], 2), "b": ("mian", "grid", [1], 2)}
    with pytest.raises(ValueError) as info:
        engine.plan_reports(GENERIC, plan)
    assert str(info.value) == "unknown table source 'mian'"
    assert reads == []


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            ("eholzer", "convolution", [2], 2),
            "the convolution reader reads main or reverse, not 'eholzer'",
        ),
        (
            ("classical", "operator", [None], 2),
            "the operator reader reads main or reverse, not 'classical'",
        ),
        (("main", "grid", [None], 2), "n must be a nonnegative integer, got None"),
        (("main", "grid", [-1], 2), "n must be a nonnegative integer, got -1"),
        (("reverse", "operator", [1, -2], 2), "n must be a nonnegative integer, got -2"),
        (("eholzer", "grid", [-1], 2), "truncation order must be a nonnegative integer, got -1"),
        (("four-function", "grid", [0], 1), "the four-function table takes no n, got 0"),
        (("main", "grid", [1], -1), "max_degree must be nonnegative, got -1"),
    ],
    ids=[
        "eholzer-convolution",
        "classical-operator",
        "main-n-none",
        "main-n-negative",
        "reverse-n-negative",
        "eholzer-n-negative",
        "four-function-n",
        "negative-degree",
    ],
)
def test_plan_refuses_a_bad_entry_before_reading_u(monkeypatch, entry, message) -> None:
    # every entry's source, reader, n and degree are checked before main reads a row of U
    reads = _count_u_reads(monkeypatch)
    with pytest.raises(ValueError) as info:
        engine.plan_reports(GENERIC, {"a": ("main", "grid", [3], 2), "b": entry})
    assert str(info.value) == message
    assert reads == []


def test_main_block_refuses_a_negative_n() -> None:
    # as eholzer's block does (test_eholzer_rejects_negative_order); main's
    # once returned no report at n = -1
    with pytest.raises(ValueError, match="^n must be a nonnegative integer, got -1$"):
        verify_block("main", GENERIC, -1)


def test_negative_grid_degree_is_refused() -> None:
    # a grid of degree -1 has no point, so it once gave fail reports with no record
    message = "^max_degree must be nonnegative, got -1$"
    with pytest.raises(ValueError, match=message):
        verify_block("main", GENERIC, 2, max_degree=-1)
    weights = (GENERIC.lam1, GENERIC.lam2, GENERIC.lam3)
    rows = [[({}, engine.main_terms(GENERIC, 1, 0))]]
    with pytest.raises(ValueError, match=message):
        verify_on_monomials("main-recoupling", weights, rows, -1)


def test_reverse_residual_reads_as_a_symbol() -> None:
    plan = {
        "convolution": ("reverse", "convolution", [0, 1, 2], 0),
        "operator": ("reverse", "operator", [2], 2),
    }
    reports = engine.plan_reports(GENERIC, plan)
    assert [(r.status, r.instances_checked) for r in reports["convolution"]] == [("pass", 1)] * 6
    assert [(r.status, r.instances_checked) for r in reports["operator"]] == [("pass", 3)] * 3


def test_run_suite_unknown_name() -> None:
    with pytest.raises(ValueError):
        run_suite("spectral", [GENERIC])


def test_convolution_failure_records_residual(monkeypatch) -> None:
    n, k, max_degree = 2, 1, 2
    clean_conv = verify_block("convolution", GENERIC, n)[k]
    clean_op = verify_block("operator", GENERIC, n, max_degree)[k]
    formula = engine.u_row_scaled
    monkeypatch.setattr(
        engine,
        "u_row_scaled",
        lambda *args: [u + (1 if p == 0 else 0) for p, u in enumerate(formula(*args))],
    )
    # the extra term is -[f1, [f2,f3]_0]_n, whose symbol is G_n(x, y+z) at (l1, l2+l3)
    x, y, z = (Poly.variable(name, engine.GEOMETRIC_VARS) for name in "xyz")
    l1, l2, l3 = GENERIC.lam1, GENERIC.lam2, GENERIC.lam3
    extra = jacobi_two_var(n, l1, l2 + l3).subst({"x": x, "y": y + z})

    conv = verify_block("convolution", GENERIC, n)[k]
    assert conv.status == "fail"
    assert conv.instances_checked == clean_conv.instances_checked
    assert conv.failures == [
        {"sample": sample_dict(GENERIC), "n": n, "k": k, "value": str(-extra)}
    ]

    op = verify_block("operator", GENERIC, n, max_degree)[k]
    assert op.status == "fail"
    assert op.instances_checked == clean_op.instances_checked
    assert [record["input_degree"] for record in op.failures] == list(range(max_degree + 1))
    for m, record in enumerate(op.failures):
        assert set(record) == {"sample", "n", "k", "input_degree", "value"}
        assert record["value"] == str(-(extra * (x + y + z) ** m))


def _operator_residuals_by_poly(params, n, k, max_degree):
    """The operator block's residual at each input degree, by public
    ``Poly`` arithmetic: ``.subst(bindings)``, then ``scale * image``, then ``+``."""
    weights = dict(enumerate((params.lam1, params.lam2, params.lam3), start=1))
    leaves = engine.SYMBOL_LEAVES
    residuals = []
    for m in range(max_degree + 1):
        q = Poly.monomial(("t",), {"t": m})
        residual = Poly.zero(engine.GEOMETRIC_VARS)
        for coeff, expr in engine.main_terms(params, n, k):
            sum1, symbol1, weight1 = tree_symbol(expr.left, weights, leaves)
            sum2, symbol2, weight2 = tree_symbol(expr.right, weights, leaves)
            scale = Poly.const(engine.GEOMETRIC_VARS, coeff)
            for symbol in (symbol1, symbol2):
                if symbol is not None:
                    scale = scale * symbol
            image = intertwiner_phi_tilde(expr.order, weight1, weight2, q)
            residual = residual + scale * image.subst({"x": sum1, "y": sum2})
        residuals.append(residual)
    return residuals


def test_operator_failure_records_match_poly_chain(monkeypatch) -> None:
    broken, n, k, max_degree = CROSS_TRIPLES[2], 3, 1, 3
    formula = engine.u_row_scaled

    def off_by_a_thousandth(l1, l2, l3, d, n_, k_):
        row = list(formula(l1, l2, l3, d, n_, k_))
        if (l1, l2, l3, d, n_, k_) == (*broken.scaled(), n, k):
            row[2] += Fraction(1, 1000)
        return row

    monkeypatch.setattr(engine, "u_row_scaled", off_by_a_thousandth)
    residuals = _operator_residuals_by_poly(broken, n, k, max_degree)
    assert not any(residual.is_zero() for residual in residuals)
    report = verify_block("operator", broken, n, max_degree)[k]
    assert report.status == "fail"
    assert report.failures == [
        {
            "sample": sample_dict(broken),
            "n": n,
            "k": k,
            "input_degree": m,
            "value": str(residual),
        }
        for m, residual in enumerate(residuals)
    ]
    for params, n_, k_ in ((GENERIC, n, k), (broken, n, 2), (broken, 2, k)):
        assert verify_block("operator", params, n_, max_degree)[k_].failures == []


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


ZAGIER_VARS = ("z", "x", "y", "t")
ZAGIER_PERMS = {"identity": (0, 1, 2), "cycle": (1, 2, 0), "swap": (1, 0, 2)}


def _zagier_sum_by_poly(lams, degrees, slots, n, reading):
    """The survey's combination by public ``Poly`` arithmetic over ``ZAGIER_VARS``,
    at weights, degrees and slot variables already permuted."""
    l1, l2, l3 = lams
    s1, s2, s3 = slots
    leaves = {slot: monomial_form(w, d) for slot, w, d in zip((1, 2, 3), lams, degrees)}
    total = Poly.zero(ZAGIER_VARS)
    for k in range(n + 1):
        scalar = _zagier_scalar(l1, l2, l3, n, k)
        d_first, d_second = (k, n - k) if reading == "corrected" else (n, n)
        first = jacobi_two_var(d_first, l1, l2).subst({"x": s1, "y": s2})
        second = jacobi_two_var(d_second, l1 + l2 + 2 * k, l3).subst({"x": s1 + s2, "y": s3})
        bracket = eval_bracket_tree(left_nest(n, k), leaves).form
        total = total + scalar * (first * second * bracket.lift(ZAGIER_VARS))
    return total


def _zagier_sums_by_poly(lams, n, reading):
    """``_zagier_sum_by_poly`` per permutation of the weights, degrees and variables."""
    degrees = (n + 1, n + 2, n + 3)
    slots = tuple(Poly.variable(name, ZAGIER_VARS) for name in ("x", "y", "t"))
    sums = {}
    for name, perm in ZAGIER_PERMS.items():
        args = [tuple(seq[i] for i in perm) for seq in (lams, degrees, slots)]
        sums[name] = _zagier_sum_by_poly(*args, n, reading)
    return sums


@pytest.mark.parametrize("params", CROSS_TRIPLES, ids=str)
def test_zagier_sum_matches_poly_route(params) -> None:
    lams = (params.lam1, params.lam2, params.lam3)
    for n in range(4):
        # every term carries the bracket's z^(2n+6), which the survey drops
        degree = 2 * n + 6
        readings = zagier._zagier_readings(lams, n, *common_scale(*lams))
        printed = _zagier_sums_by_poly(lams, n, "printed")
        corrected = _zagier_sums_by_poly(lams, n, "corrected")
        for name in ZAGIER_PERMS:
            nums, den = readings[name]["printed"]
            assert {exps[0] for exps in printed[name].terms} <= {degree}
            want = Poly(("x", "y", "t"), {exps[1:]: c for exps, c in printed[name].terms.items()})
            assert Poly(("x", "y", "t"), {e: Fraction(v, den) for e, v in nums.items()}) == want
            # the corrected reading is read on the slice: its value at a is
            # a1! a2! a3! times the coefficient of z^degree x^a1 y^a2 t^a3
            nums, den = readings[name]["corrected"]
            assert set(corrected[name].terms) <= {(degree, *a) for a in nums}
            for (a1, a2, a3), value in nums.items():
                coeff = corrected[name].coeff({"z": degree, "x": a1, "y": a2, "t": a3})
                assert coeff * factorial(a1) * factorial(a2) * factorial(a3) == Fraction(value, den)


def test_zagier_tabulates_one_slice_per_triple_and_order(monkeypatch) -> None:
    # the permutations act on the trees, so one call at the triple's own
    # weights serves all three, and the identity's nests are the plan's
    calls = []
    tabulate = zagier.tabulate_by_order

    def counting(trees, weights):
        tables, slices = tabulate(trees, weights)
        calls.append((list(trees), dict(weights), list(slices)))
        return tables, slices

    monkeypatch.setattr(zagier, "tabulate_by_order", counting)
    for params in (GENERIC, CROSS_TRIPLES[2]):
        for n in range(4):
            calls.clear()
            report = verify_zagier_invariance(params, n)
            assert "skipped" not in report.findings
            assert len(calls) == 1
            trees, weights, orders = calls[0]
            assert weights == {1: params.lam1, 2: params.lam2, 3: params.lam3}
            assert orders == [n] and len(trees) == 3 * (n + 1)
            assert trees[: n + 1] == [left_nest(n, k) for k in range(n + 1)]


positive_weights = st.builds(
    Fraction, st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20)
)


@settings(max_examples=25)
@given(positive_weights, positive_weights, positive_weights, st.integers(min_value=0, max_value=2))
def test_zagier_findings_match_poly_route(l1, l2, l3, n) -> None:
    lams = (l1, l2, l3)
    report = verify_zagier_invariance(ParamTriple(*lams), n)
    if 1 in (l1 + l2, l2 + l3, l1 + l3):
        assert report.findings["skipped"] == "pairwise weight sum equals 1"
        return
    for reading in ("corrected", "printed"):
        sums = _zagier_sums_by_poly(lams, n, reading)
        assert report.findings[reading] == {
            "cycle_invariant": sums["identity"] == sums["cycle"],
            "swap_invariant": sums["identity"] == sums["swap"],
        }


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
    d, scaled = common_scale(*lams)
    for n in range(6):
        for k in range(n + 1):
            num, den = zagier._zagier_pair_scalar(*scaled, d, n, k)
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
        d, scaled = common_scale(*lams)
        with pytest.raises(ZeroDivisionError):
            zagier._zagier_pair_scalar(*scaled, d, n, k)


# -- blocks: the shared plan against one (triple, n) at a time ---------------------

BLOCK_TRIPLES = (GENERIC, CROSS_TRIPLES[2])
BLOCK_DEGREE = 2


@pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "perturbed"])
@pytest.mark.parametrize("suite", ["convolution", "main", "operator", "reverse"])
def test_blocks_equal_per_row_verifiers(monkeypatch, suite, perturbed) -> None:
    # run_suite("all") tabulates every n of every block suite in one call per triple,
    # shared across suites; verify_block tabulates one suite at one n
    (identity_id,) = identities.SUITES[suite].reports
    if perturbed:
        formula = engine.u_row_scaled

        def nudged(l1, l2, l3, d, n, k):
            row = list(formula(l1, l2, l3, d, n, k))
            if (n, k) == (2, 1):
                row[0] += Fraction(1, 1000)
            return row

        monkeypatch.setattr(engine, "u_row_scaled", nudged)
    reports = run_suite("all", BLOCK_TRIPLES, max_n=3, max_degree=BLOCK_DEGREE, hbar_order=2)
    (merged,) = [report for report in reports if report.identity_id == identity_id]
    blocks = [verify_block(suite, tr, n, BLOCK_DEGREE) for tr in BLOCK_TRIPLES for n in range(4)]
    assert [len(block) for block in blocks] == [n + 1 for _ in BLOCK_TRIPLES for n in range(4)]
    rows = [row for block in blocks for row in block]
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
    expected = {tuple(sample_dict(tr).items()) for tr in BLOCK_TRIPLES}
    assert samples == (expected if perturbed else set())


def test_plan_tabulates_each_tree_once_per_triple(monkeypatch) -> None:
    # one _residuals call per weight vector: the triple's (main, reverse,
    # eholzer, classical) and four-function's (l1, l2, l3, l1+1)
    triples = (GENERIC, CROSS_TRIPLES[2])
    residuals, tabulate = engine._residuals, engine.tabulate_by_order
    calls = []  # the weights of each _residuals call
    tabulated = []  # (weights, tree) for each tree the plan's calls tabulate

    def counting_residuals(weights, tables):
        calls.append(tuple(weights))
        return residuals(weights, tables)

    def counting_tabulate(trees, weights):
        tabulated.extend((tuple(weights.items()), tree) for tree in trees)
        return tabulate(trees, weights)

    monkeypatch.setattr(engine, "_residuals", counting_residuals)
    monkeypatch.setattr(engine, "tabulate_by_order", counting_tabulate)
    reports = run_suite("all", triples, max_n=3, max_degree=1, hbar_order=3)
    assert all(report.status in ("pass", "report_only") for report in reports)
    assert len(calls) == 2 * len(triples)
    assert sorted(calls) == sorted(
        weights
        for tr in triples
        for weights in ((tr.lam1, tr.lam2, tr.lam3), (tr.lam1, tr.lam2, tr.lam3, tr.lam1 + 1))
    )
    assert tabulated and len(set(tabulated)) == len(tabulated)


def test_plan_scales_the_triple_once_per_table(monkeypatch) -> None:
    # main and reverse read each row of U at the triple scaled once per (source, n)
    calls = []
    scaled = ParamTriple.scaled

    def counting(params):
        calls.append(params)
        return scaled(params)

    monkeypatch.setattr(ParamTriple, "scaled", counting)
    plan = {"m": ("main", "grid", [0, 1, 2, 3], 1), "r": ("reverse", "grid", [3], 1)}
    reports = engine.plan_reports(CROSS_TRIPLES[2], plan)
    assert calls == [CROSS_TRIPLES[2]] * 5
    assert [len(reports[key]) for key in plan] == [10, 4]


def test_verify_block_input_checks() -> None:
    listed = "choose from ('main', 'reverse', 'convolution', 'operator', 'eholzer')"
    for name in ("classical", "zagier", "cmz", "spectral", "all"):
        with pytest.raises(ValueError) as info:
            verify_block(name, GENERIC, 1)
        assert str(info.value) == f"unknown block suite {name!r}; {listed}"
    for order in (-1, -3):
        with pytest.raises(ValueError) as info:
            verify_block("eholzer", GENERIC, order, max_degree=1)
        assert str(info.value) == f"truncation order must be a nonnegative integer, got {order}"
    with pytest.raises(ValueError) as info:
        run_suite("spectral", [GENERIC])
    assert str(info.value) == (
        "unknown suite 'spectral'; choose from ('main', 'classical', 'reverse',"
        " 'convolution', 'operator', 'zagier', 'cmz', 'eholzer', 'all')"
    )


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
    residual = Poly.zero(engine.GEOMETRIC_VARS)
    for coeff, expr in engine.main_terms(params, n, k):
        residual = residual + coeff * tree_symbol(expr, weights, engine.SYMBOL_LEAVES)[1]
    return residual


def test_convolution_failures_are_the_tree_symbol_residual(monkeypatch) -> None:
    blocks = [(tr, n) for tr in CONVOLUTION_TRIPLES for n in range(5)]
    for params, n in blocks:
        assert all(report.failures == [] for report in verify_block("convolution", params, n))
    formula = engine.u_row_scaled

    def nudged(l1, l2, l3, d, n, k):
        # one entry of every row at n >= 1, a different column per row
        row = list(formula(l1, l2, l3, d, n, k))
        if n >= 1:
            row[(n + k) % (n + 1)] += Fraction(1, 1000)
        return row

    monkeypatch.setattr(engine, "u_row_scaled", nudged)
    for params, n in blocks:
        for k, report in enumerate(verify_block("convolution", params, n)):
            if n == 0:
                assert report.failures == []
                continue
            residual = _convolution_residual(params, n, k)
            assert not residual.is_zero()
            sample = sample_dict(params)
            assert report.failures == [{"sample": sample, "n": n, "k": k, "value": str(residual)}]
