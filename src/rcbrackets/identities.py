"""Batch verification engine for the bracket identities, at desk scale.

Every verifier works over exact rationals and compares polynomials for
equality, so a pass is a machine check with zero tolerance.  Checked suites
return pass/fail reports; survey suites (``zagier``, parts of ``cmz``)
return ``report_only`` findings without gating.

The bracket-tree identities (main and reverse recoupling, the classical
first-order pair, the four-function identity and Eholzer associativity) are
term tables: (coefficient, BracketExpr) pairs whose sum vanishes, the fixed
ones written in the languages of ``rcbrackets check`` files.  A tree of
total order N is the operator sum_{|j|=N} s_j prod f_i^(j_i), so a table
vanishes on every input iff it vanishes on the simplex slices |a| = N of its
trees.  One engine, ``_residuals``, tabulates each total order's distinct
trees once on its slice (``brackets.tabulate_on_slice``) and sums each
table's integer residuals over one denominator.  ``verify_on_monomials``
reads them as reports on the leaf-degree grid {0..max_degree}^slots, reading
only a nonzero residual at each tuple (``brackets.read_off_slice``), and
``convolution`` and ``operator`` read the main table's as symbols, so their
pass means the main identity holds for every polynomial input at that triple.

For each triple and n, the main identity is the matrix identity L = U R
(row k of U takes the right nests R_p to the left nest L_k), checked as one
block per (triple, n) whose public verifier (``verify_main_identity`` and
the like) returns one report per row 0..n and reads U through ``u_row``.
``brackets.tree_symbol``, ``verma.intertwiner_phi_tilde`` and
``star.assoc_defect`` stay the tests' independent routes.

The ``zagier`` survey lives in its own module, ``zagier``, and ``run_suite``
runs it.  ``cmz`` reads each U matrix once per (triple, n) and the left side
of its compatibility identity once per (kappa, scale, triple, n), with every
t_n a ``transition.cmz_t_pair`` integer pair over one common scale, so the
identity is compared on integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product, repeat
from math import factorial, lcm
from typing import Callable, Sequence

from .brackets import (
    BracketExpr,
    expr_total_order,
    left_nest,
    read_off_slice,
    right_nest,
    tabulate_on_slice,
    tabulate_trees,
)
from .poly import Poly
from .rationals import RationalLike, as_rational, common_scale
from .report import VerificationReport, merge_reports
from .rewrite import bind_terms
from .samples import default_triples, sample_dict
from .transition import ParamTriple, check_row, cmz_t_closed, cmz_t_pair, cmz_t_sum, u_matrix, u_row
from .zagier import zagier_suite

SUITE_NAMES = (
    "main",
    "classical",
    "reverse",
    "convolution",
    "operator",
    "zagier",
    "cmz",
    "eholzer",
)

GEOMETRIC_VARS = ("z", "x", "y")
# slots 1, 2, 3 of a symbol read the variables x, y, z
SYMBOL_LEAVES = {slot: Poly.variable(v, GEOMETRIC_VARS) for slot, v in enumerate("xyz", 1)}

ASSERTED_KAPPAS = (Fraction(1, 2), Fraction(3, 2))
GENERIC_KAPPAS = (Fraction(5, 7),)


def _blocks(
    block: Callable[..., list[VerificationReport]],
    triples: Sequence[ParamTriple],
    bound: int,
    *args: object,
) -> list[VerificationReport]:
    """``block(triple, n, *args)`` for every triple and n <= bound: one report
    per (triple, n, row), triple-major."""
    return [report for tr in triples for n in range(bound + 1) for report in block(tr, n, *args)]


# -- checked identities -----------------------------------------------------------

Terms = list[tuple[Fraction, BracketExpr]]

CLASSICAL_TERMS = (
    (
        "cyclic-first-order",
        (("1", "[[f1,f2]_1,f3]_1"), ("1", "[[f2,f3]_1,f1]_1"), ("1", "[[f3,f1]_1,f2]_1")),
    ),
    (
        "weighted-first-order",
        (("l3", "[[f1,f2]_1,f3]_0"), ("l1", "[[f2,f3]_1,f1]_0"), ("l2", "[[f3,f1]_1,f2]_0")),
    ),
)

FOUR_FUNCTION_TERMS = (
    ("1", "[[[f1,f2]_0,f3]_0,f4]_1"),
    ("1", "[[[f2,f3]_0,f4]_0,f1]_1"),
    ("1", "[[[f4,f3]_0,f1]_0,f2]_1"),
    ("1", "[[[f4,f1]_0,f2]_0,f3]_1"),
)


def _residuals(
    weights: Sequence[RationalLike], tables: Sequence[Terms]
) -> list[tuple[int, dict[int, dict[tuple[int, ...], int]]]]:
    """``(den, {N: {a: r}})`` for each term table: its nonzero integer residuals
    on the simplex slices, r / den = sum_T c_T T(z^a) over its trees T of total
    order N, at each a with |a| = N.

    The distinct trees of all tables are grouped by total order, and each
    group is tabulated once on its slice (``brackets.tabulate_on_slice``), so
    every tree must have the slots 1..len(weights).  Each coefficient over its
    tree's denominator becomes an integer multiplier over one lcm ``den`` per
    table.  A table vanishes on every input iff its residual is empty.
    """
    slot_weights = dict(enumerate(weights, start=1))
    groups: dict[int, dict[BracketExpr, None]] = {}
    for _, expr in chain.from_iterable(tables):
        groups.setdefault(expr_total_order(expr), {})[expr] = None
    slices, tabulated = {}, {}
    for order, trees in groups.items():
        values, slices[order], _ = tabulate_on_slice(list(trees), slot_weights, order)
        tabulated.update((tree, (order, *table)) for tree, table in zip(trees, values))
    out = []
    for terms in tables:
        den, multipliers = common_scale(*(as_rational(c) / tabulated[e][2] for c, e in terms))
        sums: dict[int, list[int]] = {}
        for m, (_, expr) in zip(multipliers, terms):
            order, values, _ = tabulated[expr]
            sums[order] = [r + m * v for r, (_, v) in zip(sums.get(order, repeat(0)), values)]
        residual = {
            order: {a: r for a, r in zip(slices[order], rs) if r}
            for order, rs in sums.items()
            if any(rs)
        }
        out.append((den, residual))
    return out


def verify_on_monomials(
    identity_id: str,
    weights: Sequence[RationalLike],
    rows: Sequence[Sequence[tuple[dict[str, object], Terms]]],
    max_degree: int,
) -> list[VerificationReport]:
    """Check that every term table sums to zero on all monomial leaf bindings,
    one report per row of ``rows``, a row being (failure label, terms) pairs.

    Slot i carries ``weights[i-1]``, and every tree must have the slots
    1..len(weights).  Each degree tuple b in {0..max_degree}^slots is one
    instance per table.  A table whose slice residual (:func:`_residuals`) is
    empty passes them all, and nothing is evaluated on the grid.  A nonzero
    residual is read at each b (``brackets.read_off_slice``, at z-degree
    |b| - N), and each nonzero value is a failure recording the sample, the
    label's fields, the degrees and the value, degree-major across the row's
    tables.
    """
    weights = [as_rational(w) for w in weights]
    sample = {f"lam{slot}": str(w) for slot, w in enumerate(weights, start=1)}
    residuals = iter(_residuals(weights, [terms for row in rows for _, terms in row]))
    grid = list(product(range(max_degree + 1), repeat=len(weights)))
    reports = []
    for row in rows:
        tables = zip((label for label, _ in row), residuals)
        failing = [(label, den, residual) for label, (den, residual) in tables if residual]
        failures = []
        for degrees in grid if failing else ():
            for label, den, residual in failing:
                value = {
                    (sum(degrees) - order,): Fraction(v, den)
                    for order, values in residual.items()
                    if (v := read_off_slice(values, degrees))
                }
                if value:
                    record = {"sample": sample, **label, "degrees": list(degrees)}
                    failures.append({**record, "value": str(Poly._trusted(("z",), value))})
        instances = len(grid) * len(row)
        reports.append(VerificationReport.checked(identity_id, [sample], instances, failures))
    return reports


def _triple(params: ParamTriple) -> tuple[Fraction, Fraction, Fraction]:
    return params.lam1, params.lam2, params.lam3


def main_terms(params: ParamTriple, n: int, k: int) -> Terms:
    """[[f1,f2]_k, f3]_{n-k} - sum_p U_p [f1, [f2,f3]_p]_{n-p} as a term table, U_p != 0."""
    terms = [(Fraction(1), left_nest(n, k))]
    return terms + [(-u, right_nest(n, p)) for p, u in enumerate(u_row(params, n, k)) if u]


def reverse_terms(params: ParamTriple, n: int, p: int) -> Terms:
    """[f1, [f2,f3]_p]_{n-p} - sum_k Utilde_k [[f1,f2]_k, f3]_{n-k} as a term table,
    Utilde the U row at the outer-swapped triple, Utilde_k != 0."""
    terms = [(Fraction(1), right_nest(n, p))]
    row = u_row(params.swapped_outer(), n, p)
    return terms + [(-u, left_nest(n, k)) for k, u in enumerate(row) if u]


def verify_main_identity(
    params: ParamTriple, n: int, max_degree: int = 3
) -> list[VerificationReport]:
    """[[f1,f2]_k, f3]_{n-k} = sum_p U_{k,p} [f1, [f2,f3]_p]_{n-p} on monomials,
    one report per row k = 0..n: L = U R at (params, n) as one block."""
    rows = [[({"n": n, "k": k}, main_terms(params, n, k))] for k in range(n + 1)]
    return verify_on_monomials("main-recoupling", _triple(params), rows, max_degree)


def verify_reverse_identity(
    params: ParamTriple, n: int, max_degree: int = 3
) -> list[VerificationReport]:
    """[f1, [f2,f3]_p]_{n-p} = sum_k Utilde_{p,k} [[f1,f2]_k, f3]_{n-k} on monomials,
    one report per row p = 0..n, as one block."""
    rows = [[({"n": n, "p": p}, reverse_terms(params, n, p))] for p in range(n + 1)]
    return verify_on_monomials("reverse-recoupling", _triple(params), rows, max_degree)


def verify_classical(params: ParamTriple, max_degree: int = 4) -> VerificationReport:
    """First-bracket Jacobi-type cyclic identity and its weighted order-0 variant."""
    weights = _triple(params)
    slot_weights = dict(enumerate(weights, start=1))
    row = [({"identity": name}, bind_terms(terms, slot_weights)) for name, terms in CLASSICAL_TERMS]
    return verify_on_monomials("classical-first-order", weights, [row], max_degree)[0]


def verify_four_function(weights: Sequence[Fraction], max_degree: int = 2) -> VerificationReport:
    """Four-slot identity: the sum of the four order-(0,0,1) triple products vanishes."""
    rows = [[({}, bind_terms(FOUR_FUNCTION_TERMS, {}))]]
    return verify_on_monomials("four-function-first-order", weights, rows, max_degree)[0]


def _slice_residuals(params: ParamTriple, n: int) -> list[Poly]:
    """The residual symbol sum_T c_T S_T of the main table at (params, n), for
    each row k = 0..n: the symbol view of :func:`_residuals`, whose
    coefficient of x^a1 y^a2 z^a3 is r / (den prod a_i!)."""
    rows = [main_terms(params, n, k) for k in range(n + 1)]
    symbols = []
    for den, residual in _residuals(_triple(params), rows):
        # slots 1, 2, 3 read x, y, z (SYMBOL_LEAVES), and z leads GEOMETRIC_VARS
        symbol = {
            (a3, a1, a2): Fraction(r, den * factorial(a1) * factorial(a2) * factorial(a3))
            for (a1, a2, a3), r in residual.get(n, {}).items()
        }
        symbols.append(Poly._trusted(GEOMETRIC_VARS, symbol))
    return symbols


def verify_convolution(params: ParamTriple, n: int) -> list[VerificationReport]:
    """The main table on symbols (slots x, y, z): sum_T c_T S_T = 0 in Poly(z, x, y),
    one report per row k = 0..n.

    This is the convolution identity between products of homogeneous Jacobi
    forms: row k passes iff its residual symbol (:func:`_slice_residuals`) is
    0, and a failure records that symbol.
    """
    sample = sample_dict(params)
    reports = []
    for k, symbol in enumerate(_slice_residuals(params, n)):
        record = {"sample": sample, "n": n, "k": k}
        failures = [] if symbol.is_zero() else [{**record, "value": str(symbol)}]
        reports.append(VerificationReport.checked("jacobi-convolution", [sample], 1, failures))
    return reports


def verify_operator_convolution(
    params: ParamTriple, n: int, max_degree: int = 3
) -> list[VerificationReport]:
    """The main table as an operator on inputs t^m, m <= ``max_degree``, one
    report per row k = 0..n.

    Row k's residual on t^m is its ``convolution`` residual symbol times
    (x+y+z)^m: one instance per m, each a pass iff that symbol is 0.
    """
    sample = sample_dict(params)
    leaf_sum = sum(SYMBOL_LEAVES.values(), Poly.zero(GEOMETRIC_VARS))
    reports = []
    for k, symbol in enumerate(_slice_residuals(params, n)):
        record = {"sample": sample, "n": n, "k": k}
        failures = [
            {**record, "input_degree": m, "value": str(symbol * leaf_sum**m)}
            for m in range(max_degree + 1)
            if not symbol.is_zero()
        ]
        reports.append(
            VerificationReport.checked("operator-convolution", [sample], max_degree + 1, failures)
        )
    return reports


def eholzer_terms(order: int) -> Terms:
    """Associativity defect (f1 * f2) * f3 - f1 * (f2 * f3) of the unit-coefficient
    star product, truncated at hbar order ``order``, as one term table:

        sum_{m <= order} (sum_k [[f1,f2]_k, f3]_{m-k} - sum_p [f1, [f2,f3]_p]_{m-p}).

    On monomial leaves the hbar^m layer lands on z-degree sum(d) - m, so the
    table vanishes iff every layer of ``star.assoc_defect`` does.
    """
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"truncation order must be a nonnegative integer, got {order!r}")
    terms: Terms = []
    for m in range(order + 1):
        terms += [(Fraction(1), left_nest(m, k)) for k in range(m + 1)]
        terms += [(Fraction(-1), right_nest(m, p)) for p in range(m + 1)]
    return terms


def verify_eholzer_associativity(
    params: ParamTriple, order: int = 6, max_degree: int = 3
) -> VerificationReport:
    """Associativity of the truncated star product on monomial symbols."""
    rows = [[({}, eholzer_terms(order))]]
    return verify_on_monomials("eholzer-associativity", _triple(params), rows, max_degree)[0]


# -- independent oracle ------------------------------------------------------------


def solve_u_from_brackets(params: ParamTriple, n: int, k: int) -> list[Fraction]:
    """Recover the transition row U_{k, p=0..n} from bracket evaluations alone.

    At leaf degrees a_j = (n-j, 0, j), j = 0..n, every nesting lands on a
    constant, and since f2 = 1 has no derivatives the right nest of inner
    order q, R_q, vanishes there for q > j.  At q = j it is
    (-1)^(n-j) (l2)_j (l2+l3+2j)_(n-j), which the gate keeps nonzero.  So the
    n+1 evaluations of the left nest L form a lower-triangular system, solved
    by forward substitution:

        U_j = (L(a_j) - sum_{q<j} R_q(a_j) U_q) / R_j(a_j).

    The oracle reads no entry of U; it validates like ``u_row``.
    """
    check_row(params, n, k)
    weights = dict(enumerate(_triple(params), start=1))
    trees = [left_nest(n, k)] + [right_nest(n, q) for q in range(n + 1)]
    grid = [(n - j, 0, j) for j in range(n + 1)]
    # tables[t][j]: tree t at a_j, with L first and R_q at t = q + 1
    tables = [
        [Fraction(v, den) for _, v in values]
        for values, den in tabulate_trees(trees, weights, grid)
    ]
    lhs, rhs = tables[0], tables[1:]
    row: list[Fraction] = []
    for j in range(n + 1):
        known = sum(rhs[q][j] * u for q, u in enumerate(row))
        row.append((lhs[j] - known) / rhs[j][j])
    return row


# -- survey suites -----------------------------------------------------------------


def _deformation_compatible(
    kappa: Fraction, scale: Fraction, params: ParamTriple, matrix: Sequence[Sequence[Fraction]]
) -> list[bool]:
    """Coefficient identity equivalent to associativity of the deformed product,
    with the deformation coefficients taken at the weights times ``scale``, one
    bool per p = 0..n:

    sum_k U_{k,p} t_k(l1, l2) t_{n-k}(l1+l2+2k, l3) = t_p(l2, l3) t_{n-p}(l1, l2+l3+2p),
    where ``matrix`` is U and every shift 2j is scaled too.  Kappa, ``scale``
    and the scaled weights share one common scale d, so each t_n is a
    ``cmz_t_pair`` integer pair, and both sides are compared on integers.  The
    factor t_k t_{n-k} of U_{k,p} does not depend on p, so it is read once per k.
    """
    n = len(matrix) - 1
    # kappa = k/d, scale = s/d and the scaled weights a/d, b/d, c/d
    d, (k, s, a, b, c) = common_scale(kappa, scale, *(scale * lam for lam in _triple(params)))
    left = [
        (cmz_t_pair(k, a, b, d, j), cmz_t_pair(k, a + b + 2 * s * j, c, d, n - j))
        for j in range(n + 1)
    ]
    den = lcm(*(v1 * v2 for (_, v1), (_, v2) in left))
    left = [u1 * u2 * (den // (v1 * v2)) for (u1, v1), (u2, v2) in left]
    out = []
    for p in range(n + 1):
        column_den, column = common_scale(*(row[p] for row in matrix))
        total = sum(u * v for u, v in zip(column, left))
        u1, v1 = cmz_t_pair(k, b, c, d, p)
        u2, v2 = cmz_t_pair(k, a, b + c + 2 * s * p, d, n - p)
        out.append(total * v1 * v2 == u1 * u2 * den * column_den)
    return out


def cmz_reports(triples: Sequence[ParamTriple], max_n: int = 4) -> list[VerificationReport]:
    """Deformation-coefficient checks: one gated report, one survey report.

    Gated: the binomial-sum and closed forms of t_n^kappa agree at the two
    special kappas 1/2 and 3/2.  Survey: agreement at a generic kappa, and
    compatibility of the deformation coefficients with the transition matrix
    (the coefficient identity equivalent to associativity of the deformed
    product), using index n-p in the final factor.
    """
    samples = [sample_dict(tr) for tr in triples]
    kappas = ASSERTED_KAPPAS + GENERIC_KAPPAS
    failures, generic_mismatches = [], []
    for tr in triples:
        for kappa in kappas:
            for n in range(max_n + 1):
                left = cmz_t_sum(kappa, tr.lam1, tr.lam2, n)
                right = cmz_t_closed(kappa, tr.lam1, tr.lam2, n)
                if left == right:
                    continue
                record = {"sample": sample_dict(tr), "kappa": str(kappa), "n": n}
                if kappa in ASSERTED_KAPPAS:
                    failures.append({**record, "sum_form": str(left), "closed_form": str(right)})
                else:
                    generic_mismatches.append(record)
    per_kappa = len(triples) * len(range(max_n + 1))
    gated = VerificationReport.checked(
        "cmz-sum-vs-closed-special-kappas", samples, per_kappa * len(ASSERTED_KAPPAS), failures
    )

    cases = [(tr, n, p) for tr in triples for n in range(max_n + 1) for p in range(n + 1)]
    matrices = {(tr, n): u_matrix(tr, n) for tr in triples for n in range(max_n + 1)}
    scales = (Fraction(1), Fraction(1, 2))
    # one (literal, half-weight) pair per case, in the (triple, n, p) order of ``cases``
    compatible = {
        kappa: [
            pair
            for (tr, _), matrix in matrices.items()
            for pair in zip(*(_deformation_compatible(kappa, s, tr, matrix) for s in scales))
        ]
        for kappa in kappas
    }
    racah_mismatches = [
        {"sample": sample_dict(tr), "kappa": str(kappa), "n": n, "p": p}
        for kappa in kappas
        for (tr, n, p), (literal, _) in zip(cases, compatible[kappa])
        if not literal
    ]
    survey = VerificationReport.survey(
        "cmz-deformation-findings",
        samples,
        per_kappa * len(GENERIC_KAPPAS) + len(kappas) * len(cases) * len(scales),
        {
            "generic_kappa_sum_vs_closed_all_equal": not generic_mismatches,
            "generic_kappa_mismatches": generic_mismatches,
            "transition_compatibility_by_kappa": {
                str(kappa): all(literal for literal, _ in compatible[kappa]) for kappa in kappas
            },
            "transition_compatibility_halfweight_by_kappa": {
                str(kappa): all(half for _, half in compatible[kappa]) for kappa in kappas
            },
            "transition_compatibility_mismatch_examples": racah_mismatches[:10],
            "kappas_surveyed": [str(k) for k in kappas],
            "note": (
                "At the special kappas 1/2 and 3/2 the deformation coefficients collapse"
                " to (-1/4)^n and the compatibility identity reduces to the sum-to-one"
                " property, which holds.  At generic kappa the identity fails for the"
                " coefficients taken at the weights themselves but holds exactly when"
                " both weight arguments are halved, suggesting the printed formulas use"
                " a half-weight parameter convention."
            ),
        },
    )
    return [gated, survey]


# -- suite driver ------------------------------------------------------------------


def run_suite(
    name: str,
    triples: Sequence[ParamTriple] | None = None,
    max_n: int = 5,
    max_degree: int = 3,
    hbar_order: int = 6,
) -> list[VerificationReport]:
    """Run one named suite (or ``all``) and return its aggregated reports."""
    if triples is None:
        triples = default_triples()
    if name == "all":
        out: list[VerificationReport] = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, triples, max_n, max_degree, hbar_order))
        return out
    if name == "main":
        reports = _blocks(verify_main_identity, triples, max_n, max_degree)
        return [merge_reports("main-recoupling", reports)]
    if name == "reverse":
        reports = _blocks(verify_reverse_identity, triples, min(max_n, 4), max_degree)
        return [merge_reports("reverse-recoupling", reports)]
    if name == "classical":
        first = [verify_classical(tr, max_degree=4) for tr in triples]
        second = [
            verify_four_function((tr.lam1, tr.lam2, tr.lam3, tr.lam1 + 1), max_degree=2)
            for tr in triples
        ]
        return [
            merge_reports("classical-first-order", first),
            merge_reports("four-function-first-order", second),
        ]
    if name == "convolution":
        reports = _blocks(verify_convolution, triples, min(max_n, 4))
        return [merge_reports("jacobi-convolution", reports)]
    if name == "operator":
        reports = _blocks(verify_operator_convolution, triples, min(max_n, 3), max_degree)
        return [merge_reports("operator-convolution", reports)]
    if name == "zagier":
        return [zagier_suite(triples, max_n=min(max_n, 3))]
    if name == "cmz":
        return cmz_reports(triples, max_n=min(max_n, 4))
    if name == "eholzer":
        reports = [verify_eholzer_associativity(tr, hbar_order, max_degree) for tr in triples]
        return [merge_reports("eholzer-associativity", reports)]
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
