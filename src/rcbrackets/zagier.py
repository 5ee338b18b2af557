"""The zagier survey: permutation invariance of the paired-bracket combination.

For weights (l1, l2, l3) and order n, the combination is

    sum_k scalar_k G_first(s1,s2) G_second(s1+s2,s3) [[f1,f2]_k, f3]_{n-k},

with the bracket read at monomials, the scalar from the normalizations
c_k(l1,l2) c_{n-k}(l1+l2+2k,l3) (Zagier, Modular forms and differential
operators, 1994) and the G two-variable Jacobi forms.  Two readings of the
geometric factor are compared: the corrected one, G_k(s1,s2)
G_{n-k}(s1+s2,s3), and the printed one, of degree n in both slots.  The
survey records, without gating, whether each reading is invariant under a
cycle and a swap of the three slots.

The corrected reading is the symbol of the left nest [[f1,f2]_k, f3]_{n-k},
so the nests are tabulated on the simplex slice, and their brackets are
read back off it (``brackets.read_off_slice``); the printed reading
substitutes each of its two factors once per permutation.  Every piece stays
``poly.Numerators`` until one reduction per (reading, permutation), and the
scalars are integer pairs, so no ``Fraction`` Pochhammer is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .brackets import Leaf, Node, read_off_slice, tabulate_on_slice
from .hypergeom import bracket_coeff_row, jacobi_two_var
from .poly import Poly, _reduced, _substituted, _sum, _times
from .rationals import common_scale, rising
from .report import VerificationReport, merge_reports
from .samples import sample_dict
from .transition import ParamTriple


def _zagier_pair_scalar(
    l1: Fraction, l2: Fraction, l3: Fraction, n: int, k: int
) -> tuple[int, int]:
    """``(num, den)``, integers with num / den the Gamma-ratio content of
    c_k(l1,l2) c_{n-k}(l1+l2+2k,l3) reduced to Pochhammers, with the
    k-independent symmetric Gamma factor dropped:

        (2k+l1+l2-1) (2n+l1+l2+l3-1) k! (n-k)! (l1+l2+l3-1)_{n+k}
        / [(l1)_k (l2)_k (l3)_{n-k} (k+l1+l2-1)_{n+1}].

    With d the lcm of the weights' denominators, a linear factor x is (d x) / d
    and a Pochhammer (x)_m is ``rising(d x, d, m)`` / d^m; the powers of d net
    to d^(n-1).  The pair is not reduced, and a vanishing ``den`` raises
    ZeroDivisionError.
    """
    d, (a, b, c) = common_scale(l1, l2, l3)
    total = a + b + c
    num = (
        (2 * k * d + a + b - d)
        * (2 * n * d + total - d)
        * factorial(k)
        * factorial(n - k)
        * rising(total - d, d, n + k)
    )
    den = (
        rising(a, d, k)
        * rising(b, d, k)
        * rising(c, d, n - k)
        * rising(k * d + a + b - d, d, n + 1)
    )
    if not den:
        raise ZeroDivisionError(f"the pair scalar at n={n}, k={k} has a vanishing Pochhammer")
    # d^(n-1), as d^n over d
    return num * d**n, den * d


ZAGIER_VARS = ("z", "x", "y", "t")


def _zagier_sums(
    lams: tuple[Fraction, Fraction, Fraction],
    degrees: tuple[int, int, int],
    slots: tuple[Poly, Poly, Poly],
    n: int,
) -> dict[str, Poly]:
    """Per reading, sum_k scalar_k G_first(s1,s2) G_second(s1+s2,s3) [[f1,f2]_k,f3]_{n-k},
    the bracket read at monomials of ``degrees``.

    The corrected reading's G_k(s1,s2) G_{n-k}(s1+s2,s3) is the symbol of the
    left nest [[f1,f2]_k,f3]_{n-k}, so one tabulation of the n+1 nests on
    the slice |a| = n (:func:`tabulate_on_slice`) gives the symbols, and the
    brackets at ``degrees`` are read off it (:func:`read_off_slice`).  The
    printed reading's first factor G_n(s1,s2) does not depend on k, and its
    second G_n(s1+s2,s3) only through its weight l1+l2+2k, so the integer
    rows of the second are summed over k, scaled by scalar_k times the
    bracket, before each factor is substituted once.  Every piece stays
    integer numerators until the one reduction of each sum.
    """
    l1, l2, l3 = lams
    s1, s2, s3 = slots
    weights = dict(enumerate(lams, start=1))
    nests = [Node(Node(Leaf(1), Leaf(2), k), Leaf(3), n - k) for k in range(n + 1)]
    tables, grid, factorials = tabulate_on_slice(nests, weights, n)
    # every nest has total order n, so the brackets are multiples of z^degree
    degree = sum(degrees) - n
    # z^degree s^a for each slice tuple a; z leads ZAGIER_VARS
    positions = [exps.index(1) for slot in slots for exps in slot.terms]
    monomials = []
    for a in grid:
        exps = [degree, 0, 0, 0]
        for pos, e in zip(positions, a):
            exps[pos] = e
        monomials.append(tuple(exps))
    full = factorial(n)
    corrected, second_rows = [], []
    for k, (symbol, den) in enumerate(tables):
        v = read_off_slice({a: w for a, (_, w) in zip(grid, symbol)}, degrees)
        num, scalar_den = _zagier_pair_scalar(l1, l2, l3, n, k)
        # scalar_k v / den z^degree times the symbol s_a = w / (den prod a!),
        # over one denominator: prod a! divides n!
        terms = zip(monomials, symbol, factorials)
        corrected.append(
            (
                {exps: num * v * w * (full // f) for exps, (_, w), f in terms},
                scalar_den * den * den * full,
            )
        )
        row, row_den = bracket_coeff_row(l1 + l2 + 2 * k, l3, n)
        second_rows.append(
            ({(s, n - s): num * v * c for s, c in enumerate(row)}, scalar_den * den * row_den)
        )
    first = _substituted(jacobi_two_var(n, l1, l2), {"x": s1, "y": s2})
    second = _substituted(_reduced(("x", "y"), _sum(second_rows)), {"x": s1 + s2, "y": s3})
    printed = _times(_times(first, second), ({(degree, 0, 0, 0): 1}, 1))
    return {
        "corrected": _reduced(ZAGIER_VARS, _sum(corrected)),
        "printed": _reduced(ZAGIER_VARS, printed),
    }


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
