"""The ``cmz`` suite: the deformation coefficients t_n^kappa in their two
published forms, gated at the special kappas 1/2 and 3/2, and surveyed at a
generic kappa and against U.  Each U matrix is read once per (triple, n) and
its columns are scaled to integers once, for every kappa and scale; kappa,
the scale and the scaled weights share one common scale per (triple, kappa,
scale), and every t_n is read by rows (``transition.cmz_t_row``, one row of
integer pairs per weight pair for all the orders it reaches, uncached), so
the compatibility identity is compared on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rationals import common_scale
from .report import VerificationReport
from .samples import sample_dict
from .transition import ParamTriple, cmz_t_closed, cmz_t_row, cmz_t_sum, u_matrix

ASSERTED_KAPPAS = (Fraction(1, 2), Fraction(3, 2))
GENERIC_KAPPAS = (Fraction(5, 7),)


# one column of U on integers: (den, numerators), entry k = numerators[k] / den
Column = tuple[int, list[int]]


def _columns(matrix: Sequence[Sequence[Fraction]]) -> list[Column]:
    """The columns p = 0..n of U, each on integers over its own common denominator."""
    return [common_scale(*(row[p] for row in matrix)) for p in range(len(matrix))]


# t_0..t_m of one weight pair, keyed (k, x, y, d) with gcd 1: kappa = k/d, l1 = x/d, l2 = y/d
Rows = dict[tuple[int, int, int, int], list[tuple[int, int]]]


def _deformation_compatible(
    kappa: Fraction,
    scale: Fraction,
    params: ParamTriple,
    columns: Sequence[Sequence[Column]],
    rows: Rows,
) -> list[list[bool]]:
    """Coefficient identity equivalent to associativity of the deformed product,
    with the deformation coefficients taken at the weights times ``scale``, one
    list per n = 0..top, of one bool per p = 0..n,
    sum_k U_{k,p} t_k(l1, l2) t_{n-k}(l1+l2+2k, l3) = t_p(l2, l3) t_{n-p}(l1, l2+l3+2p),
    where ``columns[n]`` is U at n by columns (``_columns``) and every shift 2j
    is scaled too.  Kappa, ``scale`` and the scaled weights share one common
    scale d, so every t_n is read off a row of integer pairs
    (``transition.cmz_t_row``), one per weight pair for all the orders it
    reaches up to n = top, and both sides are compared on integers.  The rows
    are read from ``rows``, or added to it, under the pair's canonical key, so
    the triples of one survey share the rows of the weight pairs they share.
    The factor t_k t_{n-k} of U_{k,p} does not depend on p, so it is read once
    per (n, k).
    """
    top = len(columns) - 1
    # kappa = k/d, scale = s/d and the scaled weights a/d, b/d, c/d
    lams = (params.lam1, params.lam2, params.lam3)
    d, (k, s, a, b, c) = common_scale(kappa, scale, *(scale * lam for lam in lams))

    def row(x: int, y: int, last: int) -> list[tuple[int, int]]:
        g = gcd(k, x, y, d)
        key = (k // g, x // g, y // g, d // g)
        known = rows.get(key, [])
        if len(known) <= last:
            known = rows[key] = known + cmz_t_row(*key, range(len(known), last + 1))
        return known

    # t_j(l1, l2) and t_p(l2, l3) to the top order, t_{n-j}(l1+l2+2j, l3) and
    # t_{n-p}(l1, l2+l3+2p) to order top - j and top - p
    first, second = row(a, b, top), row(b, c, top)
    left_rows = [row(a + b + 2 * s * j, c, top - j) for j in range(top + 1)]
    right_rows = [row(a, b + c + 2 * s * p, top - p) for p in range(top + 1)]
    out = []
    for n, by_column in enumerate(columns):
        left = [(first[j], left_rows[j][n - j]) for j in range(n + 1)]
        den = lcm(*(v1 * v2 for (_, v1), (_, v2) in left))
        left = [u1 * u2 * (den // (v1 * v2)) for (u1, v1), (u2, v2) in left]
        checks = []
        for p, (column_den, column) in enumerate(by_column):
            total = sum(u * v for u, v in zip(column, left))
            (u1, v1), (u2, v2) = second[p], right_rows[p][n - p]
            checks.append(total * v1 * v2 == u1 * u2 * den * column_den)
        out.append(checks)
    return out


def cmz_reports(triples: Sequence[ParamTriple], max_n: int = 4) -> list[VerificationReport]:
    """One gated report, the binomial-sum and closed forms of t_n^kappa agreeing at
    the special kappas, and one survey: agreement at a generic kappa, and the
    compatibility identity with U, using index n-p in the final factor."""
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
    # U by columns, scaled to integers once per (triple, n) for every kappa and scale
    columns = [[_columns(u_matrix(tr, n)) for n in range(max_n + 1)] for tr in triples]
    scales = (Fraction(1), Fraction(1, 2))
    rows: Rows = {}
    # one (literal, half-weight) pair per case, in the (triple, n, p) order of ``cases``
    compatible = {
        kappa: [
            pair
            for tr, by_n in zip(triples, columns)
            for checks in zip(
                *(_deformation_compatible(kappa, s, tr, by_n, rows) for s in scales)
            )
            for pair in zip(*checks)
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
