"""Batch verification engine for the bracket identities, at desk scale.

Every verifier works over exact rationals and compares polynomials for
equality, so a pass is a machine check with zero tolerance.  Checked suites
return pass/fail reports; survey suites (``zagier``, parts of ``cmz``)
return ``report_only`` findings without gating.

The bracket-tree identities (main and reverse recoupling, the classical
first-order pair, the four-function identity and the associativity of the
Eholzer product) are term tables: lists of (coefficient, BracketExpr) pairs
whose sum vanishes.  Their verifiers only build tables, and one engine,
``verify_on_monomials``, evaluates every table on monomial leaves through
compiled integer evaluators (``brackets.integer_evaluator``), summing
integer residuals over one denominator per table.  The fixed
tables are written in the coefficient and bracket languages of ``rcbrackets
check`` files, so the rewriter can certify the same text.  The star product
(``star.assoc_defect``) stays an independent route to the Eholzer table,
cross-checked in the tests.

The main table, ``main_terms``, also runs on symbols (``brackets.tree_symbol``)
in ``convolution``, and with each outer bracket taken from the raising
intertwiner on inputs t^m in ``operator``.  Equal symbols are equal
tri-differential operators, so a convolution pass at (triple, n, k) means the
main identity holds for every polynomial input at that triple.

The ``operator`` and ``zagier`` suites keep their polynomials as
``poly.Numerators`` from the first product to the final test: ``operator``
tests each residual for zero on integers and reduces only a failure's, and
``zagier`` builds both readings in one pass per permutation and reduces each
(reading, permutation) sum once before comparing.  ``cmz`` reads each U
matrix once per (triple, n) and the left side of its compatibility identity
once per (kappa, scale, triple, n); its binomial sum
(``transition.cmz_t_sum``) builds one ``Fraction`` per t_n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Sequence

from .brackets import BracketExpr, Leaf, Node, integer_evaluator, monomial_evaluator, tree_symbol
from .hypergeom import jacobi_two_var
from .poly import Numerators, Poly, _numerators, _reduced, _substituted, _sum, _times
from .rationals import RationalLike, as_rational, factorial, pochhammer
from .report import VerificationReport, merge_reports
from .rewrite import bind_terms
from .samples import default_triples
from .transition import (
    ParamTriple,
    check_row,
    cmz_t_closed,
    cmz_t_sum,
    u_matrix,
    u_row,
)
from .verma import intertwiner_phi_tilde

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


def sample_dict(params: ParamTriple) -> dict[str, str]:
    return {"lam1": str(params.lam1), "lam2": str(params.lam2), "lam3": str(params.lam3)}


def _grid(triples: Sequence[ParamTriple], bound: int) -> list[tuple[ParamTriple, int, int]]:
    """Every (triple, n, j) with n <= bound and j <= n, triple-major."""
    return [(tr, n, j) for tr in triples for n in range(bound + 1) for j in range(n + 1)]


# -- checked identities -----------------------------------------------------------

Terms = list[tuple[Fraction, BracketExpr]]

F1, F2, F3 = Leaf(1), Leaf(2), Leaf(3)

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


def verify_on_monomials(
    identity_id: str,
    weights: Sequence[RationalLike],
    identities: Sequence[tuple[dict[str, object], Terms]],
    max_degree: int,
) -> VerificationReport:
    """Check that every term table sums to zero on all monomial leaf bindings.

    Slot i carries ``weights[i-1]``; each degree tuple in {0..max_degree}^slots
    binds slot i to z^(degree i) once and checks every (failure label, terms)
    pair in ``identities`` as one instance.  A failure records the sample, the
    label's fields, the degrees and the nonzero residual sum.  Every tree is
    compiled once per call, and each coefficient over its tree's denominator
    becomes an integer multiplier over one lcm per table, so the degree loop
    sums integers; only a failure's residual becomes Fractions.
    """
    weights = [as_rational(w) for w in weights]
    sample = {f"lam{slot}": str(w) for slot, w in enumerate(weights, start=1)}
    slot_weights = dict(enumerate(weights, start=1))
    compiled = []
    for label, terms in identities:
        scaled = []
        for coeff, expr in terms:
            evaluate, tree_den = integer_evaluator(expr, slot_weights)
            scaled.append((as_rational(coeff) / tree_den, evaluate))
        den = lcm(*(scale.denominator for scale, _ in scaled))
        multipliers = [(s.numerator * (den // s.denominator), evaluate) for s, evaluate in scaled]
        compiled.append((label, den, multipliers))
    failures = []
    instances = 0
    for degs in product(range(max_degree + 1), repeat=len(weights)):
        for label, den, terms in compiled:
            residual: dict[int, int] = {}
            for multiplier, evaluate in terms:
                degree, v = evaluate(degs)
                if v:
                    residual[degree] = residual.get(degree, 0) + multiplier * v
            instances += 1
            if any(residual.values()):
                value = str(Poly(("z",), {(d,): Fraction(v, den) for d, v in residual.items()}))
                failures.append({"sample": sample, **label, "degrees": list(degs), "value": value})
    return VerificationReport.checked(identity_id, [sample], instances, failures)


def _triple(params: ParamTriple) -> tuple[Fraction, Fraction, Fraction]:
    return params.lam1, params.lam2, params.lam3


def _left_nest(n: int, k: int) -> Node:
    return Node(Node(F1, F2, k), F3, n - k)


def _right_nest(n: int, p: int) -> Node:
    return Node(F1, Node(F2, F3, p), n - p)


def main_terms(params: ParamTriple, n: int, k: int) -> Terms:
    """[[f1,f2]_k, f3]_{n-k} - sum_p U_p [f1, [f2,f3]_p]_{n-p} as a term table, U_p != 0."""
    terms = [(Fraction(1), _left_nest(n, k))]
    return terms + [(-u, _right_nest(n, p)) for p, u in enumerate(u_row(params, n, k)) if u]


def verify_main_identity(
    params: ParamTriple, n: int, k: int, max_degree: int = 3
) -> VerificationReport:
    """[[f1,f2]_k, f3]_{n-k} = sum_p U_p [f1, [f2,f3]_p]_{n-p} on monomials."""
    identity = ({"n": n, "k": k}, main_terms(params, n, k))
    return verify_on_monomials("main-recoupling", _triple(params), [identity], max_degree)


def verify_reverse_identity(
    params: ParamTriple, n: int, p: int, max_degree: int = 3
) -> VerificationReport:
    """[f1, [f2,f3]_p]_{n-p} = sum_k Utilde_k [[f1,f2]_k, f3]_{n-k} on monomials."""
    row = u_row(params.swapped_outer(), n, p)
    terms = [(Fraction(1), _right_nest(n, p))]
    terms += [(-u, _left_nest(n, k)) for k, u in enumerate(row) if u]
    return verify_on_monomials(
        "reverse-recoupling", _triple(params), [({"n": n, "p": p}, terms)], max_degree
    )


def verify_classical(params: ParamTriple, max_degree: int = 4) -> VerificationReport:
    """First-bracket Jacobi-type cyclic identity and its weighted order-0 variant."""
    weights = _triple(params)
    slot_weights = dict(enumerate(weights, start=1))
    identities = [
        ({"identity": name}, bind_terms(terms, slot_weights)) for name, terms in CLASSICAL_TERMS
    ]
    return verify_on_monomials("classical-first-order", weights, identities, max_degree)


def verify_four_function(
    weights: Sequence[Fraction], max_degree: int = 2
) -> VerificationReport:
    """Four-slot identity: the sum of the four order-(0,0,1) triple products vanishes."""
    terms = bind_terms(FOUR_FUNCTION_TERMS, {})
    return verify_on_monomials("four-function-first-order", weights, [({}, terms)], max_degree)


def verify_convolution(params: ParamTriple, n: int, k: int) -> VerificationReport:
    """The main table on symbols (slots x, y, z): sum_T c_T S_T = 0 in Poly(z, x, y).

    This is the convolution identity between products of homogeneous Jacobi
    forms; a failure records the nonzero residual.
    """
    weights = dict(enumerate(_triple(params), start=1))
    residual = Poly.zero(GEOMETRIC_VARS)
    for coeff, expr in main_terms(params, n, k):
        residual = residual + coeff * tree_symbol(expr, weights, SYMBOL_LEAVES)[1]
    sample = sample_dict(params)
    failures = []
    if not residual.is_zero():
        failures.append({"sample": sample, "n": n, "k": k, "value": str(residual)})
    return VerificationReport.checked("jacobi-convolution", [sample], 1, failures)


def verify_operator_convolution(
    params: ParamTriple,
    n: int,
    k: int,
    max_degree: int = 3,
    *,
    images: dict[tuple[BracketExpr, Fraction, Fraction, int], Numerators] | None = None,
) -> VerificationReport:
    """The main table through the raising intertwiners, on inputs t^m.

    A term c [A, B]_j acts on t^m as c S_A S_B intertwiner_phi_tilde(j, w_A,
    w_B, t^m) at (x, y) = (leaf sum of A, leaf sum of B): the outer bracket
    comes from the verma route.  The child symbols do not depend on m and
    are computed once, as integer numerators; each residual is summed and
    tested on integers, and only a failure's residual becomes Fractions.
    The substituted image of each (term, w_A, w_B, m) is built once in
    ``images`` (the term's slots fix the leaf sums); a suite run passes one
    dict to all of its reports.
    """
    if images is None:
        images = {}
    weights = dict(enumerate(_triple(params), start=1))
    outer = []
    for coeff, expr in main_terms(params, n, k):
        sum1, symbol1, weight1 = tree_symbol(expr.left, weights, SYMBOL_LEAVES)
        sum2, symbol2, weight2 = tree_symbol(expr.right, weights, SYMBOL_LEAVES)
        children = [symbol for symbol in (symbol1, symbol2) if symbol is not None]
        scale = _numerators(prod(children, start=Poly.const(GEOMETRIC_VARS, coeff)).terms)
        outer.append((scale, expr, weight1, weight2, {"x": sum1, "y": sum2}))
    sample = sample_dict(params)
    record = {"sample": sample, "n": n, "k": k}
    failures = []
    for m in range(max_degree + 1):
        q = Poly.monomial(("t",), {"t": m})
        pieces = []
        for scale, expr, w1, w2, bindings in outer:
            key = (expr, w1, w2, m)
            if key not in images:
                images[key] = _substituted(intertwiner_phi_tilde(expr.order, w1, w2, q), bindings)
            pieces.append(_times(scale, images[key]))
        residual = _sum(pieces)
        if any(residual[0].values()):
            value = str(_reduced(GEOMETRIC_VARS, residual))
            failures.append({**record, "input_degree": m, "value": value})
    return VerificationReport.checked("operator-convolution", [sample], max_degree + 1, failures)


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
        terms += [(Fraction(1), _left_nest(m, k)) for k in range(m + 1)]
        terms += [(Fraction(-1), _right_nest(m, p)) for p in range(m + 1)]
    return terms


def verify_eholzer_associativity(
    params: ParamTriple, order: int = 6, max_degree: int = 3
) -> VerificationReport:
    """Associativity of the truncated star product on monomial symbols."""
    return verify_on_monomials(
        "eholzer-associativity", _triple(params), [({}, eholzer_terms(order))], max_degree
    )


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
    lhs = monomial_evaluator(_left_nest(n, k), weights)
    rhs = [monomial_evaluator(_right_nest(n, q), weights) for q in range(n + 1)]
    row: list[Fraction] = []
    for j in range(n + 1):
        degs = (n - j, 0, j)
        known = sum(rhs[q](degs)[1] * u for q, u in enumerate(row))
        row.append((lhs(degs)[1] - known) / rhs[j](degs)[1])
    return row


# -- survey suites -----------------------------------------------------------------


def _zagier_pair_scalar(l1: Fraction, l2: Fraction, l3: Fraction, n: int, k: int) -> Fraction:
    # Gamma-ratio content of c_k(l1,l2) c_{n-k}(l1+l2+2k,l3) reduced to
    # Pochhammers, with the k-independent symmetric Gamma factor dropped.
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


def _zagier_sums(
    lams: tuple[Fraction, Fraction, Fraction],
    degrees: tuple[int, int, int],
    slots: tuple[Poly, Poly, Poly],
    n: int,
) -> dict[str, Poly]:
    """Per reading, sum_k scalar_k G_first(s1,s2) G_second(s1+s2,s3) [[f1,f2]_k,f3]_{n-k},
    the bracket read at monomials of ``degrees``.  The scalar and the bracket
    are computed once per k for both readings; every piece stays integer
    numerators until the one reduction of each sum."""
    l1, l2, l3 = lams
    s1, s2, s3 = slots
    s12 = s1 + s2
    weights = dict(enumerate(lams, start=1))
    pieces: dict[str, list] = {"corrected": [], "printed": []}
    for k in range(n + 1):
        scalar = _zagier_pair_scalar(l1, l2, l3, n, k)
        evaluate, den = integer_evaluator(_left_nest(n, k), weights)
        degree, v = evaluate(degrees)
        # scalar * v / den * z^degree; z leads ZAGIER_VARS
        bracket = ({(degree, 0, 0, 0): scalar.numerator * v}, scalar.denominator * den)
        for reading, d_first, d_second in (("corrected", k, n - k), ("printed", n, n)):
            first = _substituted(jacobi_two_var(d_first, l1, l2), {"x": s1, "y": s2})
            second = _substituted(
                jacobi_two_var(d_second, l1 + l2 + 2 * k, l3), {"x": s12, "y": s3}
            )
            pieces[reading].append(_times(_times(first, second), bracket))
    return {reading: _reduced(ZAGIER_VARS, _sum(group)) for reading, group in pieces.items()}


def verify_zagier_invariance(params: ParamTriple, n: int) -> VerificationReport:
    """Survey: permutation invariance of the paired-bracket combination.

    Two readings of the geometric factor are compared (degrees (k, n-k)
    versus degree n in both slots); findings are recorded without gating.
    Samples with a pairwise weight sum equal to 1 are skipped because the
    scalar normalization divides by a Pochhammer that vanishes there.
    """
    sample = sample_dict(params)
    pair_sums = (
        params.lam1 + params.lam2,
        params.lam2 + params.lam3,
        params.lam1 + params.lam3,
    )
    if any(value == 1 for value in pair_sums):
        return VerificationReport.survey(
            "zagier-invariance",
            [sample],
            0,
            {"sample": sample, "n": n, "skipped": "pairwise weight sum equals 1"},
        )
    lams = (params.lam1, params.lam2, params.lam3)
    degrees = (n + 1, n + 2, n + 3)
    slots = tuple(Poly.variable(name, ZAGIER_VARS) for name in ("x", "y", "t"))
    perms = {"identity": (0, 1, 2), "cycle": (1, 2, 0), "swap": (1, 0, 2)}
    findings: dict[str, object] = {"sample": sample, "n": n}
    sums = {
        name: _zagier_sums(
            tuple(lams[i] for i in perm),
            tuple(degrees[i] for i in perm),
            tuple(slots[i] for i in perm),
            n,
        )
        for name, perm in perms.items()
    }
    for reading in ("corrected", "printed"):
        findings[reading] = {
            "cycle_invariant": sums["identity"][reading] == sums["cycle"][reading],
            "swap_invariant": sums["identity"][reading] == sums["swap"][reading],
        }
    return VerificationReport.survey("zagier-invariance", [sample], 4, findings)


def zagier_suite(triples: Sequence[ParamTriple], max_n: int = 3) -> VerificationReport:
    """Aggregate the invariance survey with per-reading summary flags."""
    reports = [
        verify_zagier_invariance(tr, n) for tr in triples for n in range(max_n + 1)
    ]
    entries = [report.findings for report in reports]
    checked = [entry for entry in entries if "skipped" not in entry]

    def broken(entry: dict, reading: str) -> bool:
        return not (entry[reading]["cycle_invariant"] and entry[reading]["swap_invariant"])

    corrected_violations = [e for e in checked if broken(e, "corrected")]
    printed_violations = [e for e in checked if broken(e, "printed")]
    findings = {
        "instances": len(checked),
        "skipped": [entry for entry in entries if "skipped" in entry],
        "corrected_invariant_all": not corrected_violations,
        "printed_invariant_all": not printed_violations,
        "corrected_violation_count": len(corrected_violations),
        "printed_violation_count": len(printed_violations),
        "corrected_violation_examples": corrected_violations[:5],
        "printed_violation_examples": printed_violations[:5],
    }
    merged = merge_reports("zagier-invariance", reports)
    return VerificationReport.survey(
        "zagier-invariance", merged.parameter_samples, merged.instances_checked, findings
    )


def _deformation_compatible(
    kappa: Fraction, scale: Fraction, params: ParamTriple, matrix: Sequence[Sequence[Fraction]]
) -> list[bool]:
    """Coefficient identity equivalent to associativity of the deformed product,
    with the deformation coefficients taken at the weights times ``scale``, one
    bool per p = 0..n:

    sum_k U_{k,p} t_k(l1, l2) t_{n-k}(l1+l2+2k, l3) = t_p(l2, l3) t_{n-p}(l1, l2+l3+2p),
    where ``matrix`` is U.  The factor t_k t_{n-k} of U_{k,p} does not depend
    on p, so it is read once per k.
    """
    n = len(matrix) - 1
    l1, l2, l3 = (scale * lam for lam in _triple(params))
    left = [
        cmz_t_sum(kappa, l1, l2, k) * cmz_t_sum(kappa, l1 + l2 + 2 * scale * k, l3, n - k)
        for k in range(n + 1)
    ]
    return [
        sum(row[p] * v for row, v in zip(matrix, left))
        == cmz_t_sum(kappa, l2, l3, p) * cmz_t_sum(kappa, l1, l2 + l3 + 2 * scale * p, n - p)
        for p in range(n + 1)
    ]


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

    cases = _grid(triples, max_n)
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
        reports = [verify_main_identity(tr, n, k, max_degree) for tr, n, k in _grid(triples, max_n)]
        return [merge_reports("main-recoupling", reports)]
    if name == "reverse":
        cases = _grid(triples, min(max_n, 4))
        reports = [verify_reverse_identity(tr, n, p, max_degree) for tr, n, p in cases]
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
        reports = [verify_convolution(tr, n, k) for tr, n, k in _grid(triples, min(max_n, 4))]
        return [merge_reports("jacobi-convolution", reports)]
    if name == "operator":
        cases = _grid(triples, min(max_n, 3))
        images: dict = {}
        reports = [
            verify_operator_convolution(tr, n, k, max_degree, images=images) for tr, n, k in cases
        ]
        return [merge_reports("operator-convolution", reports)]
    if name == "zagier":
        return [zagier_suite(triples, max_n=min(max_n, 3))]
    if name == "cmz":
        return cmz_reports(triples, max_n=min(max_n, 4))
    if name == "eholzer":
        reports = [
            verify_eholzer_associativity(tr, hbar_order, max_degree) for tr in triples
        ]
        return [merge_reports("eholzer-associativity", reports)]
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
