"""Seeded inputs, item runners and output checks for the four workloads.

Every workload is a list of items run in sequence by one fresh interpreter.
An item is one call a user would make: a CLI invocation (``verify``,
``u-table``, ``rewrite``) or a public API call (``assoc_defect``).  Its check
runs after the timed loop and returns ``None`` when the output is right, or a
one-line reason.  ``corrupt=True`` makes every check compare against a
deliberately wrong expected value; the self-test uses it to prove that the
checks can fail.

Inputs depend only on the seed and the scale.  ``full`` is the measured
size; ``small`` is the smallest size of each workload, for the self-test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import rcbrackets
from rcbrackets import cli

# verify: the suites of ``verify --suite all``, in its order, one command
# each, over a reduced grid.  The default grid takes 45-60 s, longer than a
# measured round may; the self-test checks its output checksum instead.
VERIFY_SCOPE = {
    "full": ["--samples", "1", "--n", "2", "--max-degree", "2", "--hbar-order", "3"],
    "small": ["--samples", "0", "--n", "1", "--max-degree", "1", "--hbar-order", "1"],
}
# suite -> (gated report ids, survey report ids)
VERIFY_SUITES = {
    "main": (("main-recoupling",), ()),
    "classical": (("classical-first-order", "four-function-first-order"), ()),
    "reverse": (("reverse-recoupling",), ()),
    "convolution": (("jacobi-convolution",), ()),
    "operator": (("operator-convolution",), ()),
    "zagier": ((), ("zagier-invariance",)),
    "cmz": (("cmz-sum-vs-closed-special-kappas",), ("cmz-deformation-findings",)),
    "eholzer": (("eholzer-associativity",), ()),
}

# u-table: one matrix per item; n=48 shows the O(n^3) growth of the 4F3 route.
U_TABLE_SIZES = {"full": (8, 8, 8, 16, 16, 16, 32, 32, 32, 32, 48), "small": (2, 3)}
U_CHECKED_COLUMNS = 2

# rewrite: (leaves, order on every node); each runs as a left comb and as a
# right comb with descending slots, all on one seeded weight vector.
REWRITE_SHAPES = {
    "full": ((4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)),
    "small": ((3, 1),),
}
REWRITE_LEAF_DEGREES = (3, 6)
REWRITE_SAMPLES = 2

# dense: degree-7 symbols at hbar order 6; kappa = 5/7 does not give a zero
# defect, so it is not used.
DENSE_TRIPLES = {"full": 11, "small": 1}
DENSE_DEGREE = {"full": 7, "small": 2}
DENSE_ORDER = {"full": 6, "small": 2}
DENSE_KAPPAS = (None, Fraction(1, 2), Fraction(3, 2))


@dataclass
class Item:
    """One user-visible call: ``run`` is timed, ``check`` is not."""

    group: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], str | None]
    output_bytes: Callable[[Any], int] = lambda output: 0


def digest(output: Any) -> str:
    """Stable fingerprint of an item's output, compared across rounds."""
    return hashlib.sha256(repr(output).encode()).hexdigest()


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 20), rng.randint(1, 20))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this interpreter; return (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _cli_bytes(output: tuple[int, str]) -> int:
    return len(output[1].encode())


# -- verify ---------------------------------------------------------------------


def _verify_check(gated: tuple[str, ...], surveys: tuple[str, ...]):
    def check(output: tuple[int, str], corrupt: bool) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        reports = {report["identity_id"]: report for report in json.loads(text)["reports"]}
        if set(reports) != set(gated + surveys):
            return f"reports {sorted(reports)}, expected {sorted(gated + surveys)}"
        gated_status, survey_status = ("fail", "pass") if corrupt else ("pass", "report_only")
        for identity in gated:
            report = reports[identity]
            if report["status"] != gated_status or report["instances_checked"] < 1:
                return f"{identity}: {report['status']} over {report['instances_checked']} instances"
        for identity in surveys:
            if reports[identity]["status"] != survey_status:
                return f"survey {identity} is {reports[identity]['status']}"
        return None

    return check


def verify_items(seed: int, scale: str) -> list[Item]:
    items = []
    for suite, (gated, surveys) in VERIFY_SUITES.items():
        argv = ["verify", "--suite", suite, "--output", "json", "--seed", str(seed)]
        argv += VERIFY_SCOPE[scale]
        check = _verify_check(gated, surveys)
        items.append(Item(suite, lambda argv=argv: run_cli(argv), check, _cli_bytes))
    return items


# -- u-table --------------------------------------------------------------------


def _u_table_check(lams: tuple[Fraction, ...], n: int, columns: list[int]):
    def check(output: tuple[int, str], corrupt: bool) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        if doc["n"] != n or [doc["params"][k] for k in ("lam1", "lam2", "lam3")] != [
            str(lam) for lam in lams
        ]:
            return "table echoes other parameters"
        table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for entry in doc["entries"]:
            table[entry["k"]][entry["p"]] = Fraction(entry["value"])
        expected_sum = Fraction(2) if corrupt else Fraction(1)
        for p in range(n + 1):
            total = sum(table[k][p] for k in range(n + 1))
            if total != expected_sum:
                return f"column p={p} sums to {total}"
        params = rcbrackets.ParamTriple(*lams)
        for p in columns:
            series = rcbrackets.u_generating_poly(params, n, p)
            for k in range(n + 1):
                if table[k][p] != series.coeff({"t": k}):
                    return f"U[{k}][{p}] differs from the generating polynomial"
        return None

    return check


def u_table_items(seed: int, scale: str) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for n in U_TABLE_SIZES[scale]:
        lams = tuple(_rational(rng) for _ in range(3))
        columns = sorted(rng.sample(range(n + 1), min(U_CHECKED_COLUMNS, n + 1)))
        argv = ["u-table", "--l1", str(lams[0]), "--l2", str(lams[1]), "--l3", str(lams[2])]
        argv += ["--n", str(n), "--json"]
        items.append(
            Item(f"n{n}", lambda argv=argv: run_cli(argv), _u_table_check(lams, n, columns), _cli_bytes)
        )
    return items


# -- rewrite --------------------------------------------------------------------


def left_comb(leaves: int, order: int) -> str:
    expr = "f1"
    for slot in range(2, leaves + 1):
        expr = f"[{expr},f{slot}]_{order}"
    return expr


def descending_comb(leaves: int, order: int) -> str:
    expr = "f1"
    for slot in range(2, leaves + 1):
        expr = f"[f{slot},{expr}]_{order}"
    return expr


def _parse_combo(text: str, leaves: int) -> list[tuple[Fraction, rcbrackets.StandardTerm]]:
    if text.strip() == "0":
        return []
    terms = []
    for line in text.splitlines():
        coeff, orders = line.split()
        orders = tuple(int(k) for k in orders.strip("()").split(","))
        terms.append((Fraction(coeff), rcbrackets.StandardTerm(orders, tuple(range(1, leaves + 1)))))
    return terms


def _rewrite_check(expr_src: str, leaves: int, weights: list[Fraction], degree_samples):
    def check(output: tuple[int, str], corrupt: bool) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        terms = _parse_combo(text, leaves)
        if corrupt and terms:
            terms[0] = (terms[0][0] * 2, terms[0][1])
        expr = rcbrackets.parse_bracket(expr_src)
        for degrees in degree_samples:
            leaf_forms = {
                slot: rcbrackets.monomial_form(weights[slot - 1], degrees[slot - 1])
                for slot in range(1, leaves + 1)
            }
            lhs = rcbrackets.eval_bracket_tree(expr, leaf_forms)
            rhs = rcbrackets.Poly.zero(("z",))
            for coeff, term in terms:
                value = rcbrackets.eval_bracket_tree(rcbrackets.standard_tree(term), leaf_forms)
                if value.weight != lhs.weight:
                    return f"term {term.orders} has weight {value.weight}, not {lhs.weight}"
                rhs = rhs + coeff * value.form
            if rhs != lhs.form:
                return f"standard form differs from the input at leaf degrees {degrees}"
        return None

    return check


def rewrite_items(seed: int, scale: str) -> list[Item]:
    rng = random.Random(seed)
    shapes = REWRITE_SHAPES[scale]
    most = max(leaves for leaves, _ in shapes)
    weights = [_rational(rng) for _ in range(most)]
    low, high = REWRITE_LEAF_DEGREES
    degree_samples = [
        [rng.randint(low, high) for _ in range(most)] for _ in range(REWRITE_SAMPLES)
    ]
    items = []
    for leaves, order in shapes:
        for group, build in (("left", left_comb), ("descending", descending_comb)):
            expr_src = build(leaves, order)
            argv = ["rewrite", "--expr", expr_src, "--weights"]
            argv.append(",".join(str(w) for w in weights[:leaves]))
            check = _rewrite_check(expr_src, leaves, weights, degree_samples)
            items.append(Item(group, lambda argv=argv: run_cli(argv), check, _cli_bytes))
    return items


# -- dense ----------------------------------------------------------------------


def _dense_form(rng: random.Random, degree: int) -> rcbrackets.WeightedForm:
    nonzero = [value for value in range(-9, 10) if value]
    terms = {(d,): Fraction(rng.choice(nonzero), rng.randint(1, 9)) for d in range(degree + 1)}
    return rcbrackets.WeightedForm(_rational(rng), rcbrackets.Poly(("z",), terms))


def _dense_check(f, g, h, order: int, kappa):
    def check(defect: rcbrackets.StarSeries, corrupt: bool) -> str | None:
        if defect.order != order:
            return f"defect truncated at {defect.order}, not {order}"
        if defect.is_zero() == corrupt:
            return f"associativity defect is_zero() = {defect.is_zero()}"
        # the order-0 layer of f * g is the plain product of the symbols
        product = rcbrackets.star(
            rcbrackets.StarSeries.inject(f, 0), rcbrackets.StarSeries.inject(g, 0), kappa
        )
        if product.coeffs[0] != {f.weight + g.weight: f.form * g.form}:
            return "order-0 star product is not the plain product"
        return None

    return check


def dense_items(seed: int, scale: str) -> list[Item]:
    rng = random.Random(seed)
    degree, order = DENSE_DEGREE[scale], DENSE_ORDER[scale]
    items = []
    for _ in range(DENSE_TRIPLES[scale]):
        f, g, h = (_dense_form(rng, degree) for _ in range(3))
        for kappa in DENSE_KAPPAS:
            items.append(
                Item(
                    "defect",
                    lambda f=f, g=g, h=h, kappa=kappa: rcbrackets.assoc_defect(f, g, h, order, kappa),
                    _dense_check(f, g, h, order, kappa),
                )
            )
    return items


BUILDERS = {
    "verify": verify_items,
    "u-table": u_table_items,
    "rewrite": rewrite_items,
    "dense": dense_items,
}


def make_items(workload: str, seed: int, scale: str = "full") -> list[Item]:
    return BUILDERS[workload](seed, scale)
