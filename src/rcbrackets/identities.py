"""The suite registry and the driver behind ``rcbrackets verify``.

``SUITES`` lists every suite in report order with its report ids, each with
its scope on the slice engine's plan (``engine.plan_reports``) or, for a suite
in a module of its own (the ``report_only`` surveys of ``zagier`` and ``cmz``),
with the suite's run function.  ``run_suite`` runs the planned reports as one
plan, one call per triple, so on a bad triple the error may come from another
suite than when each suite ran alone.  A new suite is a module and an entry.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .cmz import cmz_reports
from .engine import _check_scope, plan_reports
from .report import VerificationReport, merge_reports
from .samples import default_triples
from .transition import ParamTriple
from .zagier import zagier_suite


class Scope(NamedTuple):
    """A planned report: its table source and reader (``engine.plan_reports``), its
    n values, a function of run_suite's keywords, None for a fixed table, which has
    no n, and its grid degree, None to read ``max_degree``."""

    source: str
    reader: str = "grid"
    ns: Callable[..., Sequence[int]] | None = None
    grid: int | None = None


class Suite(NamedTuple):
    """A suite's report ids, in report order, each with its plan scope, or else
    (scope None) the suite's run function of triples and run_suite's keywords."""

    reports: dict[str, Scope | None]
    run: Callable[..., list[VerificationReport]] | None = None


def _upto(cap: int) -> Callable[..., Sequence[int]]:
    return lambda max_n, **_: range(min(max_n, cap) + 1)


SUITES = {
    "main": Suite({"main-recoupling": Scope("main", ns=lambda max_n, **_: range(max_n + 1))}),
    "classical": Suite(
        {
            "classical-first-order": Scope("classical", grid=4),
            "four-function-first-order": Scope("four-function", grid=2),
        }
    ),
    "reverse": Suite({"reverse-recoupling": Scope("reverse", ns=_upto(4))}),
    "convolution": Suite({"jacobi-convolution": Scope("main", "convolution", _upto(4))}),
    "operator": Suite({"operator-convolution": Scope("main", "operator", _upto(3))}),
    "zagier": Suite(
        {"zagier-invariance": None}, lambda tr, max_n, **_: [zagier_suite(tr, min(max_n, 3))]
    ),
    "cmz": Suite(
        dict.fromkeys(("cmz-sum-vs-closed-special-kappas", "cmz-deformation-findings")),
        lambda tr, max_n, **_: cmz_reports(tr, min(max_n, 4)),
    ),
    "eholzer": Suite(
        {"eholzer-associativity": Scope("eholzer", ns=lambda hbar_order, **_: [hbar_order])}
    ),
}

SUITE_NAMES = tuple(SUITES)


def verify_block(
    suite: str, params: ParamTriple, n: int, max_degree: int = 3
) -> list[VerificationReport]:
    """One block suite, a planned suite whose report reads n values, at (params, n):
    one report per row 0..n of its tables (main's for ``convolution`` and
    ``operator``), or, for ``eholzer``, one report at truncation order n."""
    blocks = tuple(
        name for name, entry in SUITES.items() if all(s and s.ns for s in entry.reports.values())
    )
    if suite not in blocks:
        raise ValueError(f"unknown block suite {suite!r}; choose from {blocks}")
    ((report_id, scope),) = SUITES[suite].reports.items()
    plan = {report_id: (scope.source, scope.reader, [n], max_degree)}
    return plan_reports(params, plan)[report_id]


def run_suite(
    name: str,
    triples: Sequence[ParamTriple] | None = None,
    max_n: int = 5,
    max_degree: int = 3,
    hbar_order: int = 6,
) -> list[VerificationReport]:
    """Run one named suite (or ``all``) and return its aggregated reports, in
    registry order, the planned reports at their scopes as one plan, if any."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    keywords = {"max_n": max_n, "max_degree": max_degree, "hbar_order": hbar_order}
    for key, value in keywords.items():
        _check_scope(key, value)
    triples = default_triples() if triples is None else triples
    suites = list(SUITES.values()) if name == "all" else [SUITES[name]]
    plan = {
        report_id: (
            scope.source,
            scope.reader,
            [None] if scope.ns is None else scope.ns(**keywords),
            max_degree if scope.grid is None else scope.grid,
        )
        for suite in suites
        if suite.run is None
        for report_id, scope in suite.reports.items()
    }
    per_triple = [plan_reports(tr, plan) for tr in triples] if plan else []
    out: list[VerificationReport] = []
    for suite in suites:
        if suite.run is not None:
            out += suite.run(triples, **keywords)
            continue
        for report_id in suite.reports:
            reports = [report for by_id in per_triple for report in by_id[report_id]]
            out.append(merge_reports(report_id, reports))
    return out
