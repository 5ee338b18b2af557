"""The slice engine: the bracket-tree identities (main and reverse recoupling,
the classical first-order pair, the four-function identity, Eholzer
associativity) as term tables, (coefficient, BracketExpr) pairs whose sum
vanishes, their exact residuals on simplex slices, and the plan that reads them.

A tree of total order N is the operator sum_{|j|=N} s_j prod f_i^(j_i), so a
table vanishes on every input iff it vanishes on the slices |a| = N of its
trees.  The main identity is L = U R (row k of U takes the right nests R_p to
the left nest L_k), one block per (triple, n).  ``convolution`` and
``operator`` read its residual as a symbol: views of it, not independent
routes, whose pass means it holds for every polynomial input at that triple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product, repeat
from math import factorial, gcd, lcm
from typing import Mapping, Sequence

from .brackets import BracketExpr, expr_total_order, left_nest, right_nest
from .brackets import read_off_slice, tabulate_by_order
from .poly import Poly
from .rationals import RationalLike, as_rational
from .report import VerificationReport
from .rewrite import bind_terms, eval_coeff, parse_bracket, parse_coeff
from .transition import ParamTriple, check_row, u_row_scaled

GEOMETRIC_VARS = ("z", "x", "y")
# slots 1, 2, 3 of a symbol read the variables x, y, z, and z leads GEOMETRIC_VARS
SYMBOL_LEAVES = {slot: Poly.variable(v, GEOMETRIC_VARS) for slot, v in enumerate("xyz", 1)}

Terms = list[tuple[Fraction, BracketExpr]]
# (den, {N: {a: r}}): a table's nonzero integer residuals on its slices (:func:`_residuals`)
Residual = tuple[int, dict[int, dict[tuple[int, ...], int]]]
# a report's tables, or their residuals, each with the fields its failure records carry
Row = Sequence[tuple[dict[str, object], Terms]]
ResidualRow = Sequence[tuple[dict[str, object], Residual]]

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

# the fixed tables, parsed once per process: the classical pair's labels with (coefficient
# AST, tree) pairs, bound at each triple's weights, and the four-function table's one row
_CLASSICAL = [
    ({"identity": name}, [(parse_coeff(c), parse_bracket(e)) for c, e in terms])
    for name, terms in CLASSICAL_TERMS
]
_FOUR_ROWS = [[({}, bind_terms(FOUR_FUNCTION_TERMS, {}))]]


def _residuals(weights: Sequence[RationalLike], tables: Sequence[Terms]) -> list[Residual]:
    """``(den, {N: {a: r}})`` for each term table: its nonzero integer residuals
    on the simplex slices, r / den = sum_T c_T T(z^a) over its trees T of total
    order N, at each a with |a| = N.  The distinct trees of all tables, whose
    nesting the caller has bounded, go to one ``brackets.tabulate_by_order``
    call, which walks each once, for its order and its slot check, and
    tabulates each order's trees once on its slice, so every tree must have
    the slots 1..len(weights).  Each coefficient p/q over its tree's
    denominator t is the reduced p' / t' with g = gcd(p, t), p' = p/g and
    t' = q t/g; ``den`` is the lcm of a table's t', and each multiplier
    p' den/t' is formed on integers.  A table vanishes on every input iff its
    residual is empty."""
    trees = list(dict.fromkeys(expr for _, expr in chain.from_iterable(tables)))
    tabulated, slices = tabulate_by_order(trees, dict(enumerate(weights, start=1)))
    out = []
    for terms in tables:
        reduced = []
        for c, expr in terms:
            order, (values, t) = tabulated[expr]
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


def _read(weights: Sequence[Fraction], rows: Sequence[Row]) -> list[ResidualRow]:
    """``rows`` with every table replaced by its residual, from one :func:`_residuals` call."""
    residuals = iter(_residuals(weights, [terms for row in rows for _, terms in row]))
    return [[(label, next(residuals)) for label, _ in row] for row in rows]


def verify_on_monomials(
    identity_id: str, weights: Sequence[RationalLike], rows: Sequence[Row], max_degree: int
) -> list[VerificationReport]:
    """Check that every term table sums to zero on all monomial leaf bindings, one report
    per row, a row being (failure label, terms) pairs.  Slot i carries ``weights[i-1]``,
    and every tree must have the slots 1..len(weights); :func:`_grid_reports` reads them.
    A tuple hash recurses in C with no guard, so every caller tree is first walked
    with the nesting bound (``expr_total_order``), before :func:`_residuals` hashes it.
    A negative ``max_degree`` raises ``ValueError`` first."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    weights = [as_rational(w) for w in weights]
    for row in rows:
        for _, terms in row:
            for _, expr in terms:
                expr_total_order(expr)
    return _grid_reports(identity_id, weights, _read(weights, rows), max_degree)


def _grid_reports(
    identity_id: str, weights: Sequence[Fraction], rows: Sequence[ResidualRow], max_degree: int
) -> list[VerificationReport]:
    """One report per row of (failure label, slice residual) pairs, each table
    checked on the degree grid {0..max_degree}^slots, one instance per tuple b.
    A table whose residual is empty passes them all, and nothing is evaluated
    on the grid.  A nonzero residual is read at each b (``read_off_slice``, at
    z-degree |b| - N); each nonzero value is a failure recording the sample,
    the label's fields, the degrees and the value, degree-major in the row."""
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


def main_terms(params: ParamTriple, n: int, k: int) -> Terms:
    """[[f1,f2]_k, f3]_{n-k} - sum_p U_p [f1, [f2,f3]_p]_{n-p} as a term table, U_p != 0."""
    return _main_table(params.scaled(), n, k)


# the tables above at a triple scaled once: (l1, l2, l3, d) from ``ParamTriple.scaled``
Scaled = tuple[int, int, int, int]


def _main_table(scaled: Scaled, n: int, k: int) -> Terms:
    terms = [(Fraction(1), left_nest(n, k))]
    row = u_row_scaled(*scaled, n, k)
    return terms + [(-u, right_nest(n, p)) for p, u in enumerate(row) if u]


def _reverse_table(scaled: Scaled, n: int, p: int) -> Terms:
    l1, l2, l3, d = scaled
    terms = [(Fraction(1), right_nest(n, p))]
    row = u_row_scaled(l3, l2, l1, d, n, p)
    return terms + [(-u, left_nest(n, k)) for k, u in enumerate(row) if u]


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


def _source_rows(source: str, params: ParamTriple, n: int | None) -> tuple[tuple, list[Row]]:
    """(weight vector, report rows) of one table source, which ``plan_reports``
    has checked, at one triple and n."""
    weights = (params.lam1, params.lam2, params.lam3)
    if source == "main":
        scaled = params.scaled()
        rows = [[({"n": n, "k": k}, _main_table(scaled, n, k))] for k in range(n + 1)]
    elif source == "reverse":
        scaled = params.scaled()
        rows = [[({"n": n, "p": p}, _reverse_table(scaled, n, p))] for p in range(n + 1)]
    elif source == "eholzer":
        rows = [[({}, eholzer_terms(n))]]
    elif source == "classical":
        at = dict(enumerate(weights, start=1))
        row = [(label, [(eval_coeff(c, at), t) for c, t in table]) for label, table in _CLASSICAL]
        rows = [row]
    else:  # four-function
        return (*weights, params.lam1 + 1), _FOUR_ROWS
    return weights, rows


def plan_reports(
    params: ParamTriple, plan: Mapping[str, tuple[str, str, Sequence[int | None], int]]
) -> dict[str, list[VerificationReport]]:
    """The reports at one triple of each id that ``plan`` maps to (table source,
    reader, n values, grid degree), one per row of each n, n-major.  The sources
    are main, reverse, eholzer (n the truncation order, an int >= 0 for all three)
    and the fixed tables classical and four-function (n None); the readers are
    "grid" and, of main's or reverse's residual as a symbol, "convolution" and
    "operator".  Each table is built once per (source, n), and the tables of one
    weight vector go through one :func:`_residuals` call, so trees they share are
    tabulated once.  An entry outside these, or of negative degree, raises
    ``ValueError`` before any work."""
    for source, reader, ns, degree in plan.values():
        if source not in ("main", "reverse", "eholzer", "classical", "four-function"):
            raise ValueError(f"unknown table source {source!r}")
        if reader not in ("grid", "convolution", "operator"):
            raise ValueError(f"unknown reader {reader!r}")
        if reader != "grid" and source not in ("main", "reverse"):
            raise ValueError(f"the {reader} reader reads main or reverse, not {source!r}")
        fixed = source in ("classical", "four-function")
        for n in ns:
            if fixed and n is not None:
                raise ValueError(f"the {source} table takes no n, got {n!r}")
            if not fixed and (not isinstance(n, int) or n < 0):
                name = "truncation order" if source == "eholzer" else "n"
                raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
        if degree < 0:
            raise ValueError(f"max_degree must be nonnegative, got {degree}")
    blocks: dict[tuple, dict[tuple, list[Row]]] = {}  # weights -> (source, n) -> rows
    keys = dict.fromkeys((source, n) for source, _, ns, _ in plan.values() for n in ns)
    for source, n in keys:
        weights, rows = _source_rows(source, params, n)
        blocks.setdefault(weights, {})[source, n] = rows
    read = {}
    for weights, keyed in blocks.items():
        residuals = iter(_read(weights, [row for rows in keyed.values() for row in rows]))
        for key, rows in keyed.items():
            read[key] = weights, [next(residuals) for _ in rows]
    if any(reader == "operator" for _, reader, _, _ in plan.values()):
        leaf_sum = sum(SYMBOL_LEAVES.values(), Poly.zero(GEOMETRIC_VARS))
    out: dict[str, list[VerificationReport]] = {}
    for report_id, (source, reader, ns, degree) in plan.items():
        out[report_id] = reports = []
        for weights, rows in (read[source, n] for n in ns):
            if reader == "grid":
                reports += _grid_reports(report_id, weights, rows, degree)
                continue
            # main's residual symbol, r / (den prod a_i!) at x^a1 y^a2 z^a3 (SYMBOL_LEAVES), is
            # one convolution instance, or acts on each operator input t^m as it times (x+y+z)^m
            inputs = 1 if reader == "convolution" else degree + 1
            sample = {f"lam{slot}": str(w) for slot, w in enumerate(weights, start=1)}
            for ((label, (den, residual)),) in rows:
                symbol = {
                    (a3, a1, a2): Fraction(r, den * factorial(a1) * factorial(a2) * factorial(a3))
                    for (a1, a2, a3), r in residual.get(label["n"], {}).items()
                }
                symbol = Poly._trusted(GEOMETRIC_VARS, symbol)
                record = {"sample": sample, **label}
                if symbol.is_zero():
                    failures = []
                elif reader == "convolution":
                    failures = [{**record, "value": str(symbol)}]
                else:
                    failures = [
                        {**record, "input_degree": m, "value": str(symbol * leaf_sum**m)}
                        for m in range(inputs)
                    ]
                reports.append(VerificationReport.checked(report_id, [sample], inputs, failures))
    return out


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
    weights = {1: params.lam1, 2: params.lam2, 3: params.lam3}
    trees = [left_nest(n, k)] + [right_nest(n, q) for q in range(n + 1)]
    # every tree has total order n, so the a_j lie on its slice
    tabulated, slices = tabulate_by_order(trees, weights)
    at = {a: i for i, a in enumerate(slices[n])}
    points = [at[n - j, 0, j] for j in range(n + 1)]
    # tables[t][j]: tree t at a_j, with L first and R_q at t = q + 1
    tables = []
    for tree in trees:
        _, (values, den) = tabulated[tree]
        tables.append([Fraction(values[i], den) for i in points])
    lhs, rhs = tables[0], tables[1:]
    row: list[Fraction] = []
    for j in range(n + 1):
        known = sum(rhs[q][j] * u for q, u in enumerate(row))
        row.append((lhs[j] - known) / rhs[j][j])
    return row
