"""The ``cmz`` suite: the deformation coefficients t_n^kappa in their two
published forms, gated at the special kappas 1/2 and 3/2, and surveyed at a
generic kappa and against U.  The weights are scaled to integers once per
triple, and put over one common scale with kappa and the scale by integer
lcms.  Every binomial-sum t_n is read from one row store per run (``_t_row``),
so the gated sums and the survey compute each t_n of one weight pair once;
each U matrix is read once per (triple, n) and its columns are scaled to
integers once, so the compatibility identity is compared on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rationals import common_scale
from .report import VerificationReport
from .samples import sample_dict
from .transition import ParamTriple, cmz_t_closed, cmz_t_row, u_matrix

ASSERTED_KAPPAS = (Fraction(1, 2), Fraction(3, 2))
GENERIC_KAPPAS = (Fraction(5, 7),)
SCALES = (Fraction(1), Fraction(1, 2))


# one column of U on integers: (den, numerators), entry k = numerators[k] / den
Column = tuple[int, list[int]]


def _columns(matrix: Sequence[Sequence[Fraction]]) -> list[Column]:
    """The columns p = 0..n of U, each on integers over its own common denominator."""
    return [common_scale(*(row[p] for row in matrix)) for p in range(len(matrix))]


# t_0..t_m of one weight pair, keyed (k, x, y, d) with gcd 1: kappa = k/d, l1 = x/d, l2 = y/d
Rows = dict[tuple[int, int, int, int], list[tuple[int, int]]]


def _t_row(rows: Rows, k: int, x: int, y: int, d: int, last: int) -> list[tuple[int, int]]:
    """t_0..t_last^kappa(l1, l2), or more, at kappa = k/d, l1 = x/d, l2 = y/d as
    reduced integer pairs, read from ``rows`` under the pair's canonical key,
    so every scale of one pair reads one row; one ``cmz_t_row`` pass adds the
    missing orders."""
    g = gcd(k, x, y, d)
    key = (k // g, x // g, y // g, d // g)
    known = rows.setdefault(key, [])
    if len(known) <= last:
        known += cmz_t_row(*key, range(len(known), last + 1))
    return known


# a triple's ``ParamTriple.scaled()``: the weights (l1, l2, l3) / w
Weights = tuple[int, int, int, int]


def _scaled(kappa: Fraction, scale: Fraction, weights: Weights) -> tuple[int, ...]:
    """(k, s, a, b, c, d): kappa = k/d, scale = s/d and the weights times scale,
    a/d, b/d and c/d, over one d."""
    l1, l2, l3, w = weights
    w *= scale.denominator
    d = lcm(w, kappa.denominator)
    up = scale.numerator * (d // w)
    k, s = kappa.numerator * (d // kappa.denominator), scale.numerator * (d // scale.denominator)
    return k, s, l1 * up, l2 * up, l3 * up, d


def _deformation_compatible(
    kappa: Fraction,
    scale: Fraction,
    weights: Weights,
    columns: Sequence[Sequence[Column]],
    rows: Rows,
) -> list[list[bool]]:
    """Coefficient identity equivalent to associativity of the deformed product,
    with the deformation coefficients taken at the weights times ``scale``, one
    list per n = 0..top, of one bool per p = 0..n,
    sum_k U_{k,p} t_k(l1, l2) t_{n-k}(l1+l2+2k, l3) = t_p(l2, l3) t_{n-p}(l1, l2+l3+2p),
    where ``weights`` is the triple's ``ParamTriple.scaled()``, ``columns[n]``
    is U at n by columns (``_columns``) and every shift 2j is scaled too.
    Kappa, ``scale`` and the scaled weights share one common scale d
    (``_scaled``), so every t_n is read off a row of integer pairs from
    ``rows`` (``_t_row``), one per weight pair for all the orders it reaches up
    to n = top, and both sides are compared on integers.  The factor
    t_k t_{n-k} of U_{k,p} does not depend on p, so it is read once per (n, k).
    """
    top = len(columns) - 1
    k, s, a, b, c, d = _scaled(kappa, scale, weights)
    # t_j(l1, l2) and t_p(l2, l3) to the top order, t_{n-j}(l1+l2+2j, l3) and
    # t_{n-p}(l1, l2+l3+2p) to order top - j and top - p
    first, second = _t_row(rows, k, a, b, d, top), _t_row(rows, k, b, c, d, top)
    left_rows = [_t_row(rows, k, a + b + 2 * s * j, c, d, top - j) for j in range(top + 1)]
    right_rows = [_t_row(rows, k, a, b + c + 2 * s * p, d, top - p) for p in range(top + 1)]
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
    compatibility identity with U, using index n-p in the final factor.

    Every gated sum is read before any U matrix, and every U matrix before the
    survey's sums, so the first error raised is the first in that order."""
    samples = [sample_dict(tr) for tr in triples]
    weights = [tr.scaled() for tr in triples]
    kappas = ASSERTED_KAPPAS + GENERIC_KAPPAS
    rows: Rows = {}
    failures, generic_mismatches = [], []
    for tr, sample, scaled in zip(triples, samples, weights):
        for kappa in kappas:
            k, _, a, b, _, d = _scaled(kappa, SCALES[0], scaled)
            # one order at a time, so the first order where either form fails raises
            for n in range(max_n + 1):
                pair = _t_row(rows, k, a, b, d, n)[n]
                closed = cmz_t_closed(kappa, tr.lam1, tr.lam2, n)
                if pair == (closed.numerator, closed.denominator):
                    continue
                record = {"sample": sample, "kappa": str(kappa), "n": n}
                if kappa in ASSERTED_KAPPAS:
                    record.update(sum_form=str(Fraction(*pair)), closed_form=str(closed))
                    failures.append(record)
                else:
                    generic_mismatches.append(record)
    per_kappa = len(triples) * (max_n + 1)
    gated = VerificationReport.checked(
        "cmz-sum-vs-closed-special-kappas", samples, per_kappa * len(ASSERTED_KAPPAS), failures
    )

    # U by columns, scaled to integers once per (triple, n) for every kappa and scale
    columns = [[_columns(u_matrix(tr, n)) for n in range(max_n + 1)] for tr in triples]
    # per kappa: where the literal identity fails, and if the half-weight one holds
    mismatches: dict[Fraction, list[dict]] = {kappa: [] for kappa in kappas}
    halfweight = dict.fromkeys(kappas, True)
    for kappa in kappas:
        for sample, scaled, by_n in zip(samples, weights, columns):
            literal, half = (
                _deformation_compatible(kappa, scale, scaled, by_n, rows) for scale in SCALES
            )
            mismatches[kappa] += [
                {"sample": sample, "kappa": str(kappa), "n": n, "p": p}
                for n, checks in enumerate(literal)
                for p, holds in enumerate(checks)
                if not holds
            ]
            halfweight[kappa] &= all(map(all, half))
    cases = len(triples) * sum(n + 1 for n in range(max_n + 1))
    survey = VerificationReport.survey(
        "cmz-deformation-findings",
        samples,
        per_kappa * len(GENERIC_KAPPAS) + len(kappas) * cases * len(SCALES),
        {
            "generic_kappa_sum_vs_closed_all_equal": not generic_mismatches,
            "generic_kappa_mismatches": generic_mismatches,
            "transition_compatibility_by_kappa": {str(k): not mismatches[k] for k in kappas},
            "transition_compatibility_halfweight_by_kappa": {str(k): halfweight[k] for k in kappas},
            "transition_compatibility_mismatch_examples": [
                record for kappa in kappas for record in mismatches[kappa]
            ][:10],
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
