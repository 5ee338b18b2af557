"""The zagier survey: permutation invariance of the paired-bracket combination.

For weights (l1, l2, l3) and order n, the combination is

    sum_k scalar_k G_first(s1,s2) G_second(s1+s2,s3) [[f1,f2]_k, f3]_{n-k},

with the bracket read at monomials of degrees (n+1, n+2, n+3), the scalar
from the normalizations c_k(l1,l2) c_{n-k}(l1+l2+2k,l3) (Zagier, Modular
forms and differential operators, 1994) and the G two-variable Jacobi forms.  Two readings of the
geometric factor are compared: the corrected one, G_k(s1,s2)
G_{n-k}(s1+s2,s3), and the printed one, of degree n in both slots.  The
survey records, without gating, whether each reading is invariant under a
cycle and a swap of the three slots.

A permutation (i, j, m) of the slots acts on the trees, not on the
weights: each (triple, n) tabulates the 3(n+1) nests
[[f_i,f_j]_k, f_m]_{n-k} at the triple's own weights in one call, on the
simplex slice |a| = n (``brackets.tabulate_by_order``), and reads every
nest's bracket off it at the unpermuted degrees (n+1, n+2, n+3)
(``brackets.read_off_slice``).  The identity's nests are ``left_nest(n, k)``.

Why the slice decides the corrected reading: its G_k G_{n-k} is the symbol of
the nest.  With x, y, t the variables of slots 1, 2, 3, (values_k, den_k) the
nest's table and v_k / den_k its bracket, the reading's coefficient at
z^(2n+6) x^a1 y^a2 t^a3 is sum_k scalar_k v_k values_k[a] / den_k^2, divided
by a1! a2! a3!.  That divisor is the same for every permutation, so two
corrected readings are equal iff their vectors on the slice are.  The printed
reading is no tree symbol: it is the product (``poly._times``) of integer
coefficient maps over (x, y, t), read off bracket rows at the weights scaled
once (``hypergeom.bracket_row_scaled``): G_n(s_i, s_j), and the k-sum of
G_n(s_i+s_j, s_m), sum_r e_r (x_i+x_j)^r x_m^(n-r) expanded with binomials.
Both readings stay ``poly.Numerators`` and are compared by cross
multiplication, and the scalars are integer pairs, so no ``Fraction``
Pochhammer is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import itemgetter
from typing import Sequence

from .brackets import F1, F2, F3, Node, read_off_slice, tabulate_by_order
from .hypergeom import bracket_row_scaled
from .poly import Numerators, _sum, _times
from .rationals import common_scale, rising
from .report import VerificationReport, merge_reports
from .samples import sample_dict
from .transition import ParamTriple


# the permutations (i, j, m) of the slots that the survey reads
PERMUTATIONS = {"identity": (0, 1, 2), "cycle": (1, 2, 0), "swap": (1, 0, 2)}


def _scalar_den(a: int, b: int, c: int, d: int, n: int, k: int) -> int:
    """(l1)_k (l2)_k (l3)_{n-k} (k+l1+l2-1)_{n+1} at l = (a, b, c) / d, times
    d^(2n+k+1): an integer that vanishes iff one of those Pochhammers does."""
    return (
        rising(a, d, k)
        * rising(b, d, k)
        * rising(c, d, n - k)
        * rising(k * d + a + b - d, d, n + 1)
    )


def _zagier_pair_scalar(a: int, b: int, c: int, d: int, n: int, k: int) -> tuple[int, int]:
    """``(num, den)``, integers with num / den the Gamma-ratio content of
    c_k(l1,l2) c_{n-k}(l1+l2+2k,l3) at l = (a, b, c) / d, for an integer d > 0,
    reduced to Pochhammers, with the k-independent symmetric Gamma factor dropped:

        (2k+l1+l2-1) (2n+l1+l2+l3-1) k! (n-k)! (l1+l2+l3-1)_{n+k}
        / [(l1)_k (l2)_k (l3)_{n-k} (k+l1+l2-1)_{n+1}].

    A linear factor x is (d x) / d and a Pochhammer (x)_m is ``rising(d x, d, m)``
    / d^m; the powers of d net to d^(n-1).  The pair is not reduced, and a
    vanishing ``den`` raises ZeroDivisionError.
    """
    total = a + b + c
    num = (
        (2 * k * d + a + b - d)
        * (2 * n * d + total - d)
        * factorial(k)
        * factorial(n - k)
        * rising(total - d, d, n + k)
    )
    den = _scalar_den(a, b, c, d, n, k)
    if not den:
        raise ZeroDivisionError(f"the pair scalar at n={n}, k={k} has a vanishing Pochhammer")
    # d^(n-1), as d^n over d
    return num * d**n, den * d


def _same(a: Numerators, b: Numerators) -> bool:
    """Whether two numerator maps over their denominators hold the same values."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    return all(
        a_nums.get(key, 0) * b_den == b_nums.get(key, 0) * a_den
        for key in a_nums.keys() | b_nums.keys()
    )


def _zagier_readings(
    lams: tuple[Fraction, Fraction, Fraction], n: int, d: int, scaled: Sequence[int]
) -> dict[str, dict[str, Numerators]]:
    """Per permutation (i, j, m), the two readings of the combination
    sum_k scalar_k G_first G_second [[f_i,f_j]_k, f_m]_{n-k}, without the
    factor z^(2n+6) that every permutation shares; ``scaled`` is ``lams``
    times d, the lcm of their denominators (``rationals.common_scale``), and
    the scalars and the bracket rows are read at it.

    "corrected" maps each slice tuple a to a1! a2! a3! times the coefficient of
    x^a1 y^a2 t^a3, and "printed" maps exponents of (x, y, t) to coefficients.
    """
    leaves, degrees = (F1, F2, F3), (n + 1, n + 2, n + 3)
    trees = [
        Node(Node(leaves[i], leaves[j], k), leaves[m], n - k)
        for i, j, m in PERMUTATIONS.values()
        for k in range(n + 1)
    ]
    tables, slices = tabulate_by_order(trees, dict(enumerate(lams, start=1)))
    grid = slices[n]
    readings = {}
    for p, (name, slots) in enumerate(PERMUTATIONS.items()):
        i, j, m = slots
        # at(powers): the exponents over (x, y, t), powers[r] on the variable of slot slots[r]
        at = itemgetter(*map(slots.index, range(3)))
        corrected, second_rows = [], []
        for k, tree in enumerate(trees[p * (n + 1) : (p + 1) * (n + 1)]):
            _, (values, den) = tables[tree]
            on_slice = dict(zip(grid, values))
            v = read_off_slice(on_slice, degrees)
            num, scalar_den = _zagier_pair_scalar(scaled[i], scaled[j], scaled[m], d, n, k)
            # scalar_k v / den, times the symbol's value w / den at a or a row entry
            num, scalar_den = num * v, scalar_den * den
            corrected.append(({a: num * w for a, w in on_slice.items()}, scalar_den * den))
            row, row_den = bracket_row_scaled(scaled[i] + scaled[j] + 2 * k * d, scaled[m], d, n)
            second_rows.append(({(r,): num * c for r, c in enumerate(row)}, scalar_den * row_den))
        # G_n(s_i, s_j) does not depend on k, and G_n(s_i+s_j, s_m) only through its
        # weight: its k-sum is sum_r e_r (x_i + x_j)^r x_m^(n-r), expanded with binomials
        row, row_den = bracket_row_scaled(scaled[i], scaled[j], d, n)
        first = {at((s, n - s, 0)): c for s, c in enumerate(row)}, row_den
        nums, e_den = _sum(second_rows)
        second = {
            at((q, r - q, n - r)): comb(r, q) * e for (r,), e in nums.items() for q in range(r + 1)
        }
        readings[name] = {"corrected": _sum(corrected), "printed": _times(first, (second, e_den))}
    return readings


def _skip_reason(n: int, d: int, scaled: Sequence[int]) -> str | None:
    """Why some pair scalar of the survey at the weights ``scaled`` / d and n
    has no value, or None."""
    if any(scaled[i] + scaled[j] == d for i, j in ((0, 1), (1, 2), (0, 2))):
        return "pairwise weight sum equals 1"
    for i, j, m in PERMUTATIONS.values():
        for k in range(n + 1):
            if not _scalar_den(scaled[i], scaled[j], scaled[m], d, n, k):
                return "pair scalar denominator vanishes"
    return None


def verify_zagier_invariance(params: ParamTriple, n: int) -> VerificationReport:
    """Survey: permutation invariance of the paired-bracket combination.

    Two readings of the geometric factor are compared (degrees (k, n-k)
    versus degree n in both slots); findings are recorded without gating.
    The scalar normalization divides by (l_i)_k (l_j)_k (l_m)_{n-k}
    (k+l_i+l_j-1)_{n+1}, so a sample where that vanishes for some
    permutation and k is skipped, before anything is read: with the reason
    "pairwise weight sum equals 1" where one does (the last factor vanishes
    at k = 0), else "pair scalar denominator vanishes".
    """
    sample = sample_dict(params)
    lams = (params.lam1, params.lam2, params.lam3)
    findings: dict[str, object] = {"sample": sample, "n": n}
    # one scale for the skip test and both readings
    d, scaled = common_scale(*lams)
    skipped = _skip_reason(n, d, scaled)
    if skipped:
        findings["skipped"] = skipped
        return VerificationReport.survey("zagier-invariance", [sample], 0, findings)
    sums = _zagier_readings(lams, n, d, scaled)
    for reading in ("corrected", "printed"):
        findings[reading] = {
            "cycle_invariant": _same(sums["identity"][reading], sums["cycle"][reading]),
            "swap_invariant": _same(sums["identity"][reading], sums["swap"][reading]),
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
