"""Tests for the term-table engine behind the bracket-tree identities."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from rcbrackets.brackets import Leaf, Node, eval_bracket_tree, monomial_form
from rcbrackets.identities import (
    CLASSICAL_TERMS,
    FOUR_FUNCTION_TERMS,
    _residuals,
    verify_block,
    verify_on_monomials,
)
from rcbrackets.poly import Poly
from rcbrackets.rewrite import BracketSyntaxError, bind_terms, check_identity, parse_coeff
from rcbrackets.transition import ParamTriple, RacahQuery, u_coefficient

GENERIC = ParamTriple(Fraction(1, 2), Fraction(1), Fraction(7, 3))
WEIGHTS = (GENERIC.lam1, GENERIC.lam2, GENERIC.lam3)
SLOT_WEIGHTS = {1: GENERIC.lam1, 2: GENERIC.lam2, 3: GENERIC.lam3}
F1, F2, F3 = Leaf(1), Leaf(2), Leaf(3)


def main_table(n: int, k: int, bumped_p: int | None = None, bump: Fraction = Fraction(1)) -> list:
    """LHS minus the U-weighted right nests; ``bumped_p`` gets U_p + bump."""
    terms = [(Fraction(1), Node(Node(F1, F2, k), F3, n - k))]
    for p in range(n + 1):
        u = u_coefficient(GENERIC, RacahQuery(n, k, p)) + (bump if p == bumped_p else 0)
        terms.append((-u, Node(F1, Node(F2, F3, p), n - p)))
    return terms


def test_engine_matches_main_identity_report() -> None:
    rows = [[({"n": 2, "k": 1}, main_table(2, 1))]]
    (report,) = verify_on_monomials("main-recoupling", WEIGHTS, rows, 2)
    assert report.status == "pass"
    assert report.instances_checked == 27
    assert report.to_dict() == verify_block("main", GENERIC, 2, max_degree=2)[1].to_dict()


def test_engine_records_off_by_one_coefficient() -> None:
    table = main_table(2, 1, bumped_p=0)
    (report,) = verify_on_monomials("main-recoupling", WEIGHTS, [[({"n": 2, "k": 1}, table)]], 2)
    assert report.status == "fail"
    assert report.instances_checked == 27
    assert report.failures
    for record in report.failures:
        assert set(record) == {"sample", "n", "k", "degrees", "value"}
        assert record["sample"] == {"lam1": "1/2", "lam2": "1", "lam3": "7/3"}
        assert (record["n"], record["k"]) == (2, 1)
        # the residual is exactly the bumped term: -[f1,[f2,f3]_0]_2
        leaves = {slot: monomial_form(w, d) for slot, w, d in zip((1, 2, 3), WEIGHTS, record["degrees"])}
        expected = -eval_bracket_tree(Node(F1, Node(F2, F3, 0), 2), leaves).form
        assert record["value"] == str(expected)


def test_engine_is_exact_over_one_common_denominator() -> None:
    # a bump far below float resolution must still fail, with the exact residual
    table = main_table(5, 2, bumped_p=3, bump=Fraction(1, 10**40 + 7))
    (report,) = verify_on_monomials("main-recoupling", WEIGHTS, [[({"n": 5, "k": 2}, table)]], 3)
    assert report.status == "fail"
    assert report.instances_checked == 64
    failed = {tuple(record["degrees"]): record["value"] for record in report.failures}
    for degs in product(range(4), repeat=3):
        leaves = {slot: monomial_form(w, d) for slot, w, d in zip((1, 2, 3), WEIGHTS, degs)}
        residual = sum(
            (coeff * eval_bracket_tree(expr, leaves).form for coeff, expr in table),
            Poly.zero(("z",)),
        )
        if residual.is_zero():
            assert degs not in failed
        else:
            assert failed.pop(degs) == str(residual)
    assert not failed


def test_engine_labels_broken_classical_table() -> None:
    (name, cyclic), _ = CLASSICAL_TERMS
    broken = list(cyclic[:2]) + [("-1", cyclic[2][1])]
    (report,) = verify_on_monomials(
        "classical-first-order",
        WEIGHTS,
        [[({"identity": name}, bind_terms(broken, SLOT_WEIGHTS))]],
        2,
    )
    assert report.status == "fail"
    assert report.failures
    for record in report.failures:
        assert set(record) == {"sample", "identity", "degrees", "value"}
        assert record["identity"] == "cyclic-first-order"


def test_each_row_is_one_report_of_its_tables() -> None:
    rows = [[({"n": 2, "k": k}, main_table(2, k))] for k in range(3)]
    rows[2].append(({"n": 2, "k": 2, "bumped": True}, main_table(2, 2, bumped_p=1)))
    reports = verify_on_monomials("main-recoupling", WEIGHTS, rows, 1)
    assert [r.instances_checked for r in reports] == [8, 8, 16]
    assert [r.status for r in reports] == ["pass", "pass", "fail"]
    assert {record["bumped"] for record in reports[2].failures} == {True}


def test_table_zero_on_the_grid_passes_though_its_slice_residual_is_not() -> None:
    # [f1,f2]_4 takes four derivatives in all, so it kills z^a z^b with a, b <= 1
    table = [(Fraction(1), Node(F1, F2, 4))]
    ((_, residual),) = _residuals(WEIGHTS[:2], [table])
    assert residual and set(residual) == {4}
    (report,) = verify_on_monomials("order-four", WEIGHTS[:2], [[({}, table)]], 1)
    assert (report.status, report.instances_checked, report.failures) == ("pass", 4, [])
    (report,) = verify_on_monomials("order-four", WEIGHTS[:2], [[({}, table)]], 2)
    assert [record["degrees"] for record in report.failures] == [[2, 2]]


def test_table_with_a_tree_missing_a_slot_is_refused() -> None:
    table = [(Fraction(1), Node(Node(F1, F2, 0), F3, 1)), (Fraction(-1), Node(F1, F2, 1))]
    with pytest.raises(ValueError, match=r"needs the slots 1\.\.3, got \(1, 2\)"):
        verify_on_monomials("missing-slot", WEIGHTS, [[({}, table)]], 1)


def test_fixed_tables_certify_through_the_rewriter() -> None:
    for name, terms in CLASSICAL_TERMS:
        assert check_identity(terms, SLOT_WEIGHTS, identity_id=name).status == "pass"
    four = {**SLOT_WEIGHTS, 4: GENERIC.lam1 + 1}
    assert check_identity(FOUR_FUNCTION_TERMS, four).status == "pass"


def test_bind_terms_evaluates_coefficients_at_slot_weights() -> None:
    bound = bind_terms([("2*l1-1/2", "[f1,f2]_1"), ("l2", "f3")], {1: Fraction(3), 2: Fraction(1, 4)})
    assert bound == [(Fraction(11, 2), Node(F1, F2, 1)), (Fraction(1, 4), F3)]
    with pytest.raises(BracketSyntaxError):
        bind_terms([("1", "[f1,f2]")], SLOT_WEIGHTS)


def test_coeff_language_names_and_powers() -> None:
    assert parse_coeff("l12") == ("slot", 12)
    for src, position in [("x", 0), ("l1*lx", 3), ("z1", 0), ("l1^2", 2), ("2**l1", 1)]:
        with pytest.raises(BracketSyntaxError) as info:
            parse_coeff(src)
        assert info.value.position == position
