"""Batch verification engine for the bracket identities, at desk scale.

Every verifier works over exact rationals and compares polynomials for
equality, so a pass is a machine check with zero tolerance.  Checked suites
return pass/fail reports; survey suites (``zagier``, parts of ``cmz``)
return ``report_only`` findings without gating.

The bracket-tree identities (main and reverse recoupling, the classical
first-order pair, the four-function identity and Eholzer associativity) are
term tables: (coefficient, BracketExpr) pairs whose sum vanishes, the fixed
ones written in the languages of ``rcbrackets check`` files, parsed once per
process and bound at each triple's weights.  A tree of total order N is the
operator sum_{|j|=N} s_j prod f_i^(j_i), so a table vanishes on every input
iff it vanishes on the simplex slices |a| = N of its trees.  One engine,
``_residuals``, tabulates each total order's distinct trees once on its
slice (``brackets.tabulate_on_slice``) and sums each table's integer
residuals over one denominator.  ``verify_on_monomials`` reads them on the
leaf-degree grid {0..max_degree}^slots, reading only a nonzero residual at
each tuple (``brackets.read_off_slice``).

The main identity is the matrix identity L = U R (row k of U takes the right
nests R_p to the left nest L_k), one block per (triple, n).  The block suites
(``main``, ``reverse``, ``convolution``, ``operator``, ``eholzer``) run as
one plan, the n of each suite: ``_tree_reports`` builds each of a triple's
tables once and makes one ``_residuals`` call, so shared nests are
tabulated once; ``verify_block`` runs one suite at one n.  ``convolution``
and ``operator`` are views of the main residual as a symbol, not independent
routes: a pass means the main identity holds for every polynomial input at
that triple.  ``run_suite`` builds every plan table of a triple before
reading any, so on a bad triple the error may come from another suite than
when each suite ran alone, with the same exception types.
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
from math import factorial, gcd, lcm
from typing import Mapping, Sequence

from .brackets import (
    BracketExpr,
    expr_total_order,
    left_nest,
    read_off_slice,
    right_nest,
    tabulate_on_slice,
)
from .poly import Poly
from .rationals import RationalLike, as_rational, common_scale
from .report import VerificationReport, merge_reports
from .rewrite import eval_coeff, parse_bracket, parse_coeff
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


# -- checked identities -----------------------------------------------------------

Terms = list[tuple[Fraction, BracketExpr]]
# (den, {N: {a: r}}): a table's nonzero integer residuals on its slices (:func:`_residuals`)
Residual = tuple[int, dict[int, dict[tuple[int, ...], int]]]

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


def _parsed(terms: Sequence[tuple[str, str]]) -> list[tuple[object, BracketExpr]]:
    """(coefficient AST, tree) pairs of check-file texts; ``_bind`` reads them at weights."""
    return [(parse_coeff(c), parse_bracket(e)) for c, e in terms]


def _bind(parsed: Sequence[tuple[object, BracketExpr]], weights: Mapping[int, Fraction]) -> Terms:
    return [(eval_coeff(ast, weights), tree) for ast, tree in parsed]


# the fixed tables, parsed once per process and bound at each triple's weights
_CLASSICAL_PARSED = [(name, _parsed(terms)) for name, terms in CLASSICAL_TERMS]
_FOUR_FUNCTION_PARSED = _parsed(FOUR_FUNCTION_TERMS)


def _residuals(weights: Sequence[RationalLike], tables: Sequence[Terms]) -> list[Residual]:
    """``(den, {N: {a: r}})`` for each term table: its nonzero integer residuals
    on the simplex slices, r / den = sum_T c_T T(z^a) over its trees T of total
    order N, at each a with |a| = N.

    The distinct trees of all tables are grouped by total order, and each
    group is tabulated once on its slice (``brackets.tabulate_on_slice``), so
    every tree must have the slots 1..len(weights).  Each coefficient p/q over
    its tree's denominator t is the reduced p' / t' with g = gcd(p, t),
    p' = p/g and t' = q t/g; ``den`` is the lcm of a table's t', and each
    multiplier p' den/t' is formed on integers.  A table vanishes on every
    input iff its residual is empty.
    """
    slot_weights = dict(enumerate(weights, start=1))
    groups: dict[int, dict[BracketExpr, None]] = {}
    for _, expr in chain.from_iterable(tables):
        groups.setdefault(expr_total_order(expr), {})[expr] = None
    slices, tabulated = {}, {}
    for order, trees in groups.items():
        values, slices[order] = tabulate_on_slice(list(trees), slot_weights, order)
        tabulated.update((tree, (order, *table)) for tree, table in zip(trees, values))
    out = []
    for terms in tables:
        reduced = []
        for c, expr in terms:
            order, values, t = tabulated[expr]
            g = gcd(c.numerator, t)
            reduced.append((c.numerator // g, c.denominator * t // g, order, values))
        den = lcm(*(t for _, t, _, _ in reduced))
        sums: dict[int, list[int]] = {}
        for p, t, order, values in reduced:
            m = p * (den // t)
            sums[order] = [r + m * v for r, v in zip(sums.get(order, repeat(0)), values)]
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
    1..len(weights).  The residuals are read by :func:`_grid_reports`."""
    weights = [as_rational(w) for w in weights]
    residuals = iter(_residuals(weights, [terms for row in rows for _, terms in row]))
    read = [[(label, next(residuals)) for label, _ in row] for row in rows]
    return _grid_reports(identity_id, weights, read, max_degree)


def _grid_reports(
    identity_id: str,
    weights: Sequence[Fraction],
    rows: Sequence[Sequence[tuple[dict[str, object], Residual]]],
    max_degree: int,
) -> list[VerificationReport]:
    """One report per row of (failure label, slice residual) pairs, each table
    checked on the degree grid {0..max_degree}^slots, one instance per tuple b.

    A table whose residual is empty passes them all, and nothing is evaluated
    on the grid.  A nonzero residual is read at each b (``read_off_slice``, at
    z-degree |b| - N); each nonzero value is a failure recording the sample,
    the label's fields, the degrees and the value, degree-major in the row.
    """
    sample = {f"lam{slot}": str(w) for slot, w in enumerate(weights, start=1)}
    grid = list(product(range(max_degree + 1), repeat=len(weights)))
    reports = []
    for row in rows:
        failing = [(label, den, residual) for label, (den, residual) in row if residual]
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


def verify_classical(params: ParamTriple, max_degree: int = 4) -> VerificationReport:
    """First-bracket Jacobi-type cyclic identity and its weighted order-0 variant."""
    weights = _triple(params)
    slot_weights = dict(enumerate(weights, start=1))
    row = [({"identity": name}, _bind(parsed, slot_weights)) for name, parsed in _CLASSICAL_PARSED]
    return verify_on_monomials("classical-first-order", weights, [row], max_degree)[0]


def verify_four_function(weights: Sequence[Fraction], max_degree: int = 2) -> VerificationReport:
    """Four-slot identity: the sum of the four order-(0,0,1) triple products vanishes."""
    rows = [[({}, _bind(_FOUR_FUNCTION_PARSED, {}))]]
    return verify_on_monomials("four-function-first-order", weights, rows, max_degree)[0]


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


# the block suites, read off the term tables of one (triple, n), and their report ids
BLOCK_IDS = {
    "main": "main-recoupling",
    "reverse": "reverse-recoupling",
    "convolution": "jacobi-convolution",
    "operator": "operator-convolution",
    "eholzer": "eholzer-associativity",
}


def _tree_reports(
    params: ParamTriple, plan: Mapping[str, Sequence[int]], max_degree: int
) -> dict[str, list[VerificationReport]]:
    """Each block suite's reports at one triple, one per row of each n that
    ``plan`` maps the suite to, n-major (for ``eholzer``, one per order).

    Every table is built once and all go through one :func:`_residuals` call.
    ``main``, ``reverse`` and ``eholzer`` read the degree grid.  Main row k's
    residual symbol sum_T c_T S_T in Poly(z, x, y), with coefficient
    r / (den prod a_i!) at x^a1 y^a2 z^a3, is one ``convolution`` instance
    and one ``operator`` instance per input t^m, m <= ``max_degree``, where
    it acts as the symbol times (x+y+z)^m; each passes iff the symbol is 0.
    """
    weights = _triple(params)
    main_ns = {n for suite in ("main", "convolution", "operator") for n in plan.get(suite, ())}
    # (table source, n) -> its rows, one (label, table) each; convolution and operator read main's
    rows = {
        ("main", n): [({"n": n, "k": k}, main_terms(params, n, k)) for k in range(n + 1)]
        for n in sorted(main_ns)
    }
    for n in plan.get("reverse", ()):
        rows["reverse", n] = [({"n": n, "p": p}, reverse_terms(params, n, p)) for p in range(n + 1)]
    for order in plan.get("eholzer", ()):
        rows["eholzer", order] = [({}, eholzer_terms(order))]
    residuals = iter(_residuals(weights, [terms for block in rows.values() for _, terms in block]))
    read = {key: [(label, next(residuals)) for label, _ in block] for key, block in rows.items()}
    sample = sample_dict(params)
    leaf_sum = sum(SYMBOL_LEAVES.values(), Poly.zero(GEOMETRIC_VARS))
    out = {}
    for suite, ns in plan.items():
        identity_id = BLOCK_IDS[suite]
        if suite not in ("convolution", "operator"):
            grid_rows = [[row] for n in ns for row in read[suite, n]]
            out[suite] = _grid_reports(identity_id, weights, grid_rows, max_degree)
            continue
        instances = 1 if suite == "convolution" else max_degree + 1
        out[suite] = []
        for n in ns:
            for label, (den, residual) in read["main", n]:
                # slots 1, 2, 3 read x, y, z (SYMBOL_LEAVES), and z leads GEOMETRIC_VARS
                symbol = {
                    (a3, a1, a2): Fraction(r, den * factorial(a1) * factorial(a2) * factorial(a3))
                    for (a1, a2, a3), r in residual.get(n, {}).items()
                }
                symbol = Poly._trusted(GEOMETRIC_VARS, symbol)
                record = {"sample": sample, **label}
                if symbol.is_zero():
                    failures = []
                elif suite == "convolution":
                    failures = [{**record, "value": str(symbol)}]
                else:
                    failures = [
                        {**record, "input_degree": m, "value": str(symbol * leaf_sum**m)}
                        for m in range(instances)
                    ]
                report = VerificationReport.checked(identity_id, [sample], instances, failures)
                out[suite].append(report)
    return out


def verify_block(
    suite: str, params: ParamTriple, n: int, max_degree: int = 3
) -> list[VerificationReport]:
    """One block suite of ``BLOCK_IDS`` at (params, n), one report per row 0..n
    of its tables (:func:`main_terms`, :func:`reverse_terms`; ``convolution``
    and ``operator`` read main's).  For ``eholzer``, n is the truncation order
    of :func:`eholzer_terms`, and there is one report."""
    if suite not in BLOCK_IDS:
        raise ValueError(f"unknown block suite {suite!r}; choose from {tuple(BLOCK_IDS)}")
    return _tree_reports(params, {suite: [n]}, max_degree)[suite]


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
    # every tree has total order n, so the a_j lie on its slice
    tabulated, grid = tabulate_on_slice(trees, weights, n)
    at = {a: i for i, a in enumerate(grid)}
    points = [at[n - j, 0, j] for j in range(n + 1)]
    # tables[t][j]: tree t at a_j, with L first and R_q at t = q + 1
    tables = [[Fraction(values[i], den) for i in points] for values, den in tabulated]
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
    """Run one named suite (or ``all``) and return its aggregated reports, the
    block suites as one plan at the scopes below, one :func:`_tree_reports`
    call per triple."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if triples is None:
        triples = default_triples()
    suites = SUITE_NAMES if name == "all" else (name,)
    scopes = {
        "main": range(max_n + 1),
        "reverse": range(min(max_n, 4) + 1),
        "convolution": range(min(max_n, 4) + 1),
        "operator": range(min(max_n, 3) + 1),
        "eholzer": [hbar_order],
    }
    plan = {suite: scopes[suite] for suite in suites if suite in scopes}
    per_triple = [_tree_reports(tr, plan, max_degree) for tr in triples]
    out: list[VerificationReport] = []
    for suite in suites:
        if suite in plan:
            reports = [report for by_suite in per_triple for report in by_suite[suite]]
            out.append(merge_reports(BLOCK_IDS[suite], reports))
        elif suite == "classical":
            first = [verify_classical(tr, max_degree=4) for tr in triples]
            second = [
                verify_four_function((tr.lam1, tr.lam2, tr.lam3, tr.lam1 + 1), max_degree=2)
                for tr in triples
            ]
            out.append(merge_reports("classical-first-order", first))
            out.append(merge_reports("four-function-first-order", second))
        elif suite == "zagier":
            out.append(zagier_suite(triples, max_n=min(max_n, 3)))
        else:
            out.extend(cmz_reports(triples, max_n=min(max_n, 4)))
    return out
