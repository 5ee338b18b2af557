"""Acceptance gate: one machine-checked criterion per test.

Every check runs in exact rational arithmetic, so the tolerance is zero
everywhere: a pass means literal equality of Fractions or polynomials.
Each test prints a single `acceptance NN ... PASS/FAIL` line through the
capture bypass so the per-criterion outcome is visible in any pytest run,
then asserts, so a regression fails the suite as well.

Scopes and time budgets are pinned; the sample set is the deterministic
default (27 grid triples plus 20 seeded admissible triples, seed 42).
"""
from __future__ import annotations

import hashlib
import time
from fractions import Fraction

from rcbrackets.brackets import WeightedForm, rc_bracket
from rcbrackets.cli import main
from rcbrackets.cmz import cmz_reports
from rcbrackets.engine import solve_u_from_brackets
from rcbrackets.hypergeom import jacobi_poly
from rcbrackets.identities import run_suite
from rcbrackets.poly import Poly
from rcbrackets.rewrite import check_identity, parse_bracket, to_standard
from rcbrackets.samples import default_triples
from rcbrackets.transition import (
    ParamTriple,
    RacahQuery,
    u_coefficient,
    u_generating_poly,
    u_matrix,
    u_reverse_matrix,
)
from rcbrackets.verma import (
    Lowest,
    TensorLowest,
    TensorLowestTV,
    act,
    adjoint_phi_tilde,
    intertwiner_phi_tilde,
)
from rcbrackets.zagier import zagier_suite

TRIPLES = default_triples(seed=42, count=20)


def finish(capsys, index: int, label: str, started: float, budget: float, problems: list) -> None:
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < budget
    with capsys.disabled():
        print(
            f"acceptance {index:02d} {label}: {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.1f}s, budget {budget:.0f}s)"
        )
    assert not problems, problems[:3]
    assert elapsed < budget, f"{elapsed:.1f}s exceeded the {budget:.0f}s budget"


def test_criterion_01_main_recoupling(capsys) -> None:
    started = time.perf_counter()
    problems = []
    reports = run_suite("main", TRIPLES, max_n=5, max_degree=3)
    for report in reports:
        if report.status != "pass":
            problems.append(report.failures[:2])
    checked = sum(report.instances_checked for report in reports)
    if checked != len(TRIPLES) * 21 * 64:  # 21 (n,k) pairs, 4^3 degree triples
        problems.append(f"unexpected instance count {checked}")
    finish(capsys, 1, "main recoupling identity (n<=5, deg<=3, 47 samples)", started, 60.0, problems)


def test_criterion_02_sum_to_one(capsys) -> None:
    started = time.perf_counter()
    problems = []
    assert len(TRIPLES) >= 20
    for tr in TRIPLES:
        for n in range(9):
            table = u_matrix(tr, n)
            for p in range(n + 1):
                total = sum(table[k][p] for k in range(n + 1))
                if total != 1:
                    problems.append((tr, n, p, total))
    finish(capsys, 2, "transition rows sum to one (p<=n<=8)", started, 5.0, problems)


def test_criterion_03_generating_polynomial(capsys) -> None:
    started = time.perf_counter()
    problems = []
    for tr in TRIPLES:
        for n in range(6):
            for p in range(n + 1):
                poly = u_generating_poly(tr, n, p)
                for k in range(n + 1):
                    if poly.coeff({"t": k}) != u_coefficient(tr, RacahQuery(n, k, p)):
                        problems.append((tr, n, p, k))
                if poly.eval_at({"t": Fraction(1)}) != 1:
                    problems.append((tr, n, p, "value at 1"))
    finish(capsys, 3, "generating polynomial matches coefficients (n<=5)", started, 5.0, problems)


def test_criterion_04_inverse_pair(capsys) -> None:
    started = time.perf_counter()
    problems = []
    for tr in TRIPLES:
        for n in range(5):
            forward = u_matrix(tr, n)
            backward = u_reverse_matrix(tr, n)
            size = n + 1
            for i in range(size):
                for j in range(size):
                    entry = sum(forward[i][m] * backward[m][j] for m in range(size))
                    if entry != (1 if i == j else 0):
                        problems.append((tr, n, i, j, entry))
    finish(capsys, 4, "transition matrices are mutually inverse (n<=4)", started, 5.0, problems)


CYCLIC_TERMS = [
    ("1", "[[f1,f2]_1,f3]_1"),
    ("1", "[[f2,f3]_1,f1]_1"),
    ("1", "[[f3,f1]_1,f2]_1"),
]
WEIGHTED_TERMS = [
    ("l3", "[[f1,f2]_1,f3]_0"),
    ("l1", "[[f2,f3]_1,f1]_0"),
    ("l2", "[[f3,f1]_1,f2]_0"),
]
FOUR_FUNCTION_TERMS = [
    ("1", "[[[f1,f2]_0,f3]_0,f4]_1"),
    ("1", "[[[f2,f3]_0,f4]_0,f1]_1"),
    ("1", "[[[f4,f3]_0,f1]_0,f2]_1"),
    ("1", "[[[f4,f1]_0,f2]_0,f3]_1"),
]


def test_criterion_05_classical_identities_both_routes(capsys) -> None:
    started = time.perf_counter()
    problems = []
    # route 1: direct monomial evaluation
    for report in run_suite("classical", TRIPLES):
        if report.status != "pass":
            problems.append((report.identity_id, report.failures[:2]))
    # route 2: rewriter certification (coefficient cancellation in the standard basis)
    for tr in TRIPLES:
        three = {1: tr.lam1, 2: tr.lam2, 3: tr.lam3}
        four = {1: tr.lam1, 2: tr.lam2, 3: tr.lam3, 4: tr.lam1 + 1}
        for terms, weights, name in (
            (CYCLIC_TERMS, three, "cyclic"),
            (WEIGHTED_TERMS, three, "weighted"),
            (FOUR_FUNCTION_TERMS, four, "four-function"),
        ):
            report = check_identity(terms, weights, identity_id=name)
            if report.status != "pass":
                problems.append((name, tr, report.failures))
    finish(capsys, 5, "classical identities by rewriter and by evaluation", started, 10.0, problems)


def test_criterion_06_convolution(capsys) -> None:
    started = time.perf_counter()
    problems = []
    reports = run_suite("convolution", TRIPLES, max_n=4)
    for report in reports:
        if report.status != "pass":
            problems.append(report.failures[:2])
    checked = sum(report.instances_checked for report in reports)
    if checked != len(TRIPLES) * 15:  # 15 (n,k) pairs with k<=n<=4
        problems.append(f"unexpected instance count {checked}")
    finish(capsys, 6, "trivariate convolution identity (k<=n<=4)", started, 30.0, problems)


def test_criterion_07_intertwiner_bridge(capsys) -> None:
    started = time.perf_counter()
    problems = []
    pairs = [(tr.lam1, tr.lam2) for tr in TRIPLES[:6]]
    for lam1, lam2 in pairs:
        target = TensorLowest(lam1, lam2)
        for ell in range(4):
            source = Lowest(lam1 + lam2 + 2 * ell)
            for d in range(5):
                q = Poly.monomial(("x",), {"x": d})
                for gen in ("H", "E", "F"):
                    lhs = intertwiner_phi_tilde(ell, lam1, lam2, act(source, gen, q))
                    rhs = act(target, gen, intertwiner_phi_tilde(ell, lam1, lam2, q))
                    if lhs != rhs:
                        problems.append(("equivariance", lam1, lam2, ell, d, gen))
    for lam1, lam2 in pairs[:5]:
        for ell in range(5):
            for a in range(7):
                for b in range(7 - a):
                    split = Poly.monomial(("x", "y"), {"x": a, "y": b})
                    f = WeightedForm(lam1, Poly.monomial(("z",), {"z": a}))
                    g = WeightedForm(lam2, Poly.monomial(("z",), {"z": b}))
                    if adjoint_phi_tilde(ell, lam1, lam2, split) != rc_bracket(f, g, ell).form:
                        problems.append(("adjoint", lam1, lam2, ell, a, b))
    finish(capsys, 7, "intertwiner equivariance and adjoint bracket", started, 10.0, problems)


def test_criterion_08_casimir_spectrum(capsys) -> None:
    started = time.perf_counter()
    problems = []
    pairs = [(tr.lam1, tr.lam2) for tr in TRIPLES[:8]]
    for lam1, lam2 in pairs:
        model = TensorLowestTV(lam1, lam2)
        t = Poly.variable("t", ("t", "v"))
        mus = [
            Fraction((lam1 + lam2 + 2 * ell) * (lam1 + lam2 + 2 * ell - 2), 4)
            for ell in range(9)
        ]
        if len(set(mus)) != 9:
            problems.append(("collision", lam1, lam2))
        for ell in range(5):
            slice_basis = jacobi_poly(ell, lam1 - 1, lam2 - 1).lift(("t", "v"))
            for d in range(4):
                vector = t ** (ell + d) * slice_basis
                if act(model, "C", vector) != vector * mus[ell]:
                    problems.append(("eigenvalue", lam1, lam2, ell, d))
    finish(capsys, 8, "Casimir spectrum on graded slices (l<=4, distinct l<=8)", started, 5.0, problems)


def test_criterion_09_star_associativity(capsys) -> None:
    started = time.perf_counter()
    problems = []
    reports = run_suite("eholzer", TRIPLES, max_degree=3, hbar_order=6)
    for report in reports:
        if report.status != "pass":
            problems.append(report.failures[:2])
    checked = sum(report.instances_checked for report in reports)
    if checked != len(TRIPLES) * 64:
        problems.append(f"unexpected instance count {checked}")
    finish(capsys, 9, "star product associativity (order 6, deg<=3)", started, 60.0, problems)


def test_criterion_10_oracle_and_worked_values(capsys) -> None:
    started = time.perf_counter()
    problems = []
    assert len(TRIPLES) >= 10
    for tr in TRIPLES:
        for n in range(4):
            for k in range(n + 1):
                solved = solve_u_from_brackets(tr, n, k)
                formula = [u_coefficient(tr, RacahQuery(n, k, p)) for p in range(n + 1)]
                if solved != formula:
                    problems.append(("oracle", tr, n, k))
    # worked-value adjudication at n=2, k=1: the middle printed value is
    # confirmed, the outer two printed values are flagged against their
    # denominator-corrected forms
    adjudication = [ParamTriple(Fraction(1, 2), Fraction(1), Fraction(7, 3))] + TRIPLES[27:32]
    for tr in adjudication:
        l1, l2, l3 = tr.lam1, tr.lam2, tr.lam3
        u = [u_coefficient(tr, RacahQuery(2, 1, p)) for p in range(3)]
        printed = [
            2 * l2 * l3 / (l2 + l3),
            (l1 * l2 + l2 * l3 - l3 * l1 + 2 * l2 + l2**2) / ((l2 + l3) * (l2 + l3 + 2)),
            -2 * l1 * (l1 + l2 + l3 + 2) / ((l2 + l3 + 1) * (l2 + l3 + 2) * (l2 + l3 + 4)),
        ]
        corrected = [
            2 * l2 * l3 / ((l2 + l3) * (l2 + l3 + 1)),
            printed[1],
            -2 * l1 * (l1 + l2 + l3 + 2) / ((l2 + l3 + 1) * (l2 + l3 + 2)),
        ]
        if printed[1] != u[1]:
            problems.append(("middle printed value not confirmed", tr))
        if printed[0] == u[0] or printed[2] == u[2]:
            problems.append(("outer printed value unexpectedly matches", tr))
        if corrected[0] != u[0] or corrected[2] != u[2]:
            problems.append(("corrected value does not match", tr))
    finish(capsys, 10, "linear-solve oracle and worked-value adjudication", started, 10.0, problems)


def test_criterion_11_report_only_surveys(capsys) -> None:
    started = time.perf_counter()
    problems = []
    zagier = zagier_suite(TRIPLES, max_n=3)
    if zagier.status != "report_only":
        problems.append(("zagier status", zagier.status))
    for key in (
        "corrected_invariant_all",
        "printed_invariant_all",
        "corrected_violation_count",
        "printed_violation_count",
    ):
        if key not in zagier.findings:
            problems.append(("zagier missing finding", key))
    gated, survey = cmz_reports(TRIPLES, max_n=4)
    if survey.status != "report_only":
        problems.append(("cmz survey status", survey.status))
    for key in (
        "generic_kappa_sum_vs_closed_all_equal",
        "transition_compatibility_by_kappa",
        "transition_compatibility_halfweight_by_kappa",
        "kappas_surveyed",
        "note",
    ):
        if key not in survey.findings:
            problems.append(("cmz missing finding", key))
    if gated.status not in {"pass", "fail"}:
        problems.append(("cmz gated status", gated.status))
    finish(capsys, 11, "report-only surveys complete with findings", started, 60.0, problems)


COMB_WEIGHTS = {
    slot: Fraction(w)
    for slot, w in enumerate(("1/2", "1", "7/3", "3/5", "5/4", "2/3"), start=1)
}


def test_criterion_12_descending_combs_equal_signed_left_combs(capsys) -> None:
    started = time.perf_counter()
    problems = []
    # the left comb needs only left-nest moves, the descending comb only
    # transpositions and flips: flipping its D-1 nodes gives the left comb
    scope = [(leaves, m) for leaves in range(3, 6) for m in range(4)]
    scope += [(6, m) for m in range(3)]
    for leaves, m in scope:
        left = "f1"
        for slot in range(2, leaves + 1):
            left = f"[{left},f{slot}]_{m}"
        descending = "f1"
        for slot in range(2, leaves + 1):
            descending = f"[f{slot},{descending}]_{m}"
        weights = {slot: COMB_WEIGHTS[slot] for slot in range(1, leaves + 1)}
        sign = (-1) ** ((leaves - 1) * m)
        left_nf = to_standard(parse_bracket(left), weights)
        descending_nf = to_standard(parse_bracket(descending), weights)
        if descending_nf != {term: sign * c for term, c in left_nf.items()}:
            problems.append((leaves, m))
    finish(capsys, 12, "descending combs equal signed left combs (D<=5 m<=3, D=6 m<=2)", started, 10.0, problems)


# sha256 of the default `verify --suite all --output json` stdout; every
# change must keep these bytes unless it records a new checksum on purpose
DEFAULT_VERIFY_SHA256 = "888e45ddee00cbb672234d1f9b9447c93b9a38e0900e6358703e9ccdffa84d70"


def test_criterion_13_default_verify_output_is_byte_identical(capsys) -> None:
    started = time.perf_counter()
    problems = []
    code = main(["verify", "--suite", "all", "--output", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    if code != 0:
        problems.append(f"exit code {code}")
    if digest != DEFAULT_VERIFY_SHA256:
        problems.append(f"sha256 {digest}")
    finish(capsys, 13, "default verify --suite all JSON is byte-identical", started, 60.0, problems)
