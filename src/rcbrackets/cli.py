"""Batch command-line interface.

Subcommands: verify, u-table, racah, bracket, star, rewrite, check, verma.
Exit codes: 0 on success (including report_only outcomes), 1 when a checked
identity fails or a domain gate rejects the inputs, 2 on usage or syntax
errors (a slot repeated in a bracket expression is a syntax error).  All
output goes to standard output.  Reports are deterministic: the same
configuration (including the seed) produces byte-identical output, so there
are no timestamps.

A flat ``key=value`` config file can preset the run parameters (seed,
sample_count, max_n, max_degree, hbar_order, output); explicit command-line
flags take precedence over the file, which takes precedence over defaults.
``verify`` reads every parameter; ``check`` reads seed, sample_count and
output, and accepts the others in a file without using them.
The ``output`` parameter selects the report rendering: json (default), csv,
or text.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

from .brackets import DuplicateSlotError, UnboundSlotError, WeightedForm, expr_slots, rc_bracket
from .hypergeom import racah_value
from .identities import SUITE_NAMES, run_suite, sample_dict
from .poly import PolySyntaxError, poly_from_string
from .rationals import parse_rational
from .report import VerificationReport, merge_reports
from .rewrite import BracketSyntaxError, check_identity, format_combo, parse_bracket, to_standard
from .samples import BASE_VALUES, default_triples, seeded_rows
from .star import StarSeries, star
from .transition import ParamTriple, u_matrix
from .verma import GENERATORS, Highest, Lowest, TensorLowest, TensorLowestTV, act

OUTPUT_FORMATS = ("json", "csv", "text")


@dataclass
class RunConfig:
    seed: int = 42
    sample_count: int = 20
    max_n: int = 5
    max_degree: int = 3
    hbar_order: int = 6
    output: str = "json"


_CONFIG_INT_KEYS = ("seed", "sample_count", "max_n", "max_degree", "hbar_order")

# flag spellings accepted in config files alongside the field names
_CONFIG_ALIASES = {"samples": "sample_count", "n": "max_n"}


class UsageError(ValueError):
    pass


def _rational_arg(text: str) -> Fraction:
    # malformed rational text is a usage error (exit 2), not a domain error
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad rational {text!r}: {err}") from None


def _rational_list(text: str) -> list[Fraction]:
    return [_rational_arg(piece) for piece in text.split(",") if piece.strip()]


def _read_entries(path: str, what: str, sep: str, shape: str) -> list[tuple[int, str, str]]:
    """(lineno, left, right) for each line split at its first ``sep``, both sides stripped.

    Blank lines and # comments are skipped; an unreadable or non-UTF-8 file
    or a line without ``sep`` is a usage error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {what} {path}: {err}") from None
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        left, found, right = line.partition(sep)
        if not found:
            raise UsageError(f"{path}:{lineno}: expected {shape}, got {raw.strip()!r}")
        entries.append((lineno, left.strip(), right.strip()))
    return entries


def load_config_file(path: str) -> dict[str, object]:
    """Flat key=value lines; blank lines and # comments are ignored."""
    values: dict[str, object] = {}
    for lineno, key, value in _read_entries(path, "config file", "=", "key=value"):
        key = key.replace("-", "_")
        key = _CONFIG_ALIASES.get(key, key)
        if key in _CONFIG_INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} needs an integer, got {value!r}") from None
        elif key == "output":
            if value not in OUTPUT_FORMATS:
                raise UsageError(f"{path}:{lineno}: output must be one of {OUTPUT_FORMATS}")
            values[key] = value
        else:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    config = RunConfig()
    for key in _CONFIG_INT_KEYS + ("output",):
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            setattr(config, key, cli_value)
        elif key in file_values:
            setattr(config, key, file_values[key])
    for key in ("sample_count", "max_n", "max_degree", "hbar_order"):
        if getattr(config, key) < 0:
            raise UsageError(f"{key} must be nonnegative, got {getattr(config, key)}")
    return config


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _render_reports(doc: dict[str, object], reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["identity_id,status,instances_checked,failures"]
        for report in reports:
            lines.append(
                f"{report.identity_id},{report.status},{report.instances_checked},{len(report.failures)}"
            )
        return "\n".join(lines)
    lines = []
    for report in reports:
        lines.append(f"{report.identity_id}: {report.status} ({report.instances_checked} instances)")
    return "\n".join(lines)


# -- subcommand implementations ----------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    triples = default_triples(config.seed, config.sample_count)
    reports = run_suite(
        args.suite,
        triples,
        max_n=config.max_n,
        max_degree=config.max_degree,
        hbar_order=config.hbar_order,
    )
    doc = {
        "suite": args.suite,
        "config": {key: getattr(config, key) for key in _CONFIG_INT_KEYS},
        "reports": [report.to_dict() for report in reports],
    }
    _emit(_render_reports(doc, reports, config.output))
    failed = any(report.status == "fail" for report in reports)
    return 1 if failed else 0


def _parse_table_args(args: argparse.Namespace) -> ParamTriple:
    """The weight triple of u-table and racah; a negative --n is a usage error."""
    if args.n < 0:
        raise UsageError(f"n must be nonnegative, got {args.n}")
    return ParamTriple(_rational_arg(args.l1), _rational_arg(args.l2), _rational_arg(args.l3))


def cmd_u_table(args: argparse.Namespace) -> int:
    params = _parse_table_args(args)
    table = u_matrix(params, args.n)
    if args.json:
        # the bytes of json.dumps(doc, indent=2, sort_keys=True), written directly:
        # str(Fraction) is digits, '-' and '/', so no value needs escaping
        entries = ",\n".join(
            f'    {{\n      "k": {k},\n      "p": {p},\n      "value": "{value}"\n    }}'
            for k, row in enumerate(table)
            for p, value in enumerate(row)
        )
        header = json.dumps(sample_dict(params), indent=2, sort_keys=True).replace("\n", "\n  ")
        _emit(f'{{\n  "entries": [\n{entries}\n  ],\n  "n": {args.n},\n  "params": {header}\n}}')
        return 0
    lines = ["k\\p," + ",".join(str(p) for p in range(args.n + 1))]
    for k in range(args.n + 1):
        lines.append(f"{k}," + ",".join(str(value) for value in table[k]))
    _emit("\n".join(lines))
    return 0


def cmd_racah(args: argparse.Namespace) -> int:
    params = _parse_table_args(args)
    lines = ["p\\k," + ",".join(str(k) for k in range(args.n + 1))]
    for p in range(args.n + 1):
        row = [
            str(racah_value(p, k, args.n, params.lam1, params.lam2, params.lam3))
            for k in range(args.n + 1)
        ]
        lines.append(f"{p}," + ",".join(row))
    _emit("\n".join(lines))
    return 0


def cmd_bracket(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"n must be nonnegative, got {args.n}")
    f = WeightedForm(_rational_arg(args.l1), poly_from_string(args.f, ("z",)))
    g = WeightedForm(_rational_arg(args.l2), poly_from_string(args.g, ("z",)))
    result = rc_bracket(f, g, args.n)
    _emit(f"weight: {result.weight}\nform: {result.form}")
    return 0


def _parse_symbol(text: str) -> WeightedForm:
    weight, sep, body = text.partition(":")
    if not sep:
        raise UsageError(f"expected WEIGHT:POLY, got {text!r}")
    return WeightedForm(_rational_arg(weight), poly_from_string(body, ("z",)))


def cmd_star(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise UsageError(f"N must be nonnegative, got {args.order}")
    f = _parse_symbol(args.f)
    g = _parse_symbol(args.g)
    kappa = _rational_arg(args.kappa) if args.kappa is not None else None
    product = star(
        StarSeries.inject(f, args.order), StarSeries.inject(g, args.order), kappa
    )
    lines = []
    for m in range(product.order + 1):
        for piece in product.forms(m):
            lines.append(f"h^{m} weight {piece.weight}: {piece.form}")
    _emit("\n".join(lines) if lines else "0")
    return 0


def _weights_for_slots(slots: Sequence[int], text: str | None) -> dict[int, Fraction]:
    if text is None:
        raise UsageError("this invocation needs --weights w1,w2,...")
    values = _rational_list(text)
    if len(values) != len(slots):
        raise UsageError(f"expected {len(slots)} weights for slots {tuple(slots)}, got {len(values)}")
    return dict(zip(sorted(slots), values))


def cmd_rewrite(args: argparse.Namespace) -> int:
    expr = parse_bracket(args.expr)
    slots = expr_slots(expr)
    weights = _weights_for_slots(slots, args.weights)
    combo = to_standard(expr, weights)
    _emit(format_combo(combo))
    return 0


def _default_weight_assignments(
    slot_count: int, seed: int, sample_count: int
) -> list[list[Fraction]]:
    base = [BASE_VALUES[i % len(BASE_VALUES)] for i in range(slot_count)]
    return [base] + seeded_rows(seed, sample_count, slot_count)


def cmd_check(args: argparse.Namespace) -> int:
    entries = _read_entries(args.identity_file, "identity file", "|", "'coeff | expr'")
    terms = [(coeff, expr) for _, coeff, expr in entries]
    if not terms:
        raise UsageError(f"{args.identity_file}: no terms found")
    config = resolve_config(args)
    slots = sorted({slot for _, expr in terms for slot in expr_slots(parse_bracket(expr))})
    if args.weights is not None:
        assignments = [list(_weights_for_slots(slots, args.weights).values())]
    else:
        assignments = _default_weight_assignments(len(slots), config.seed, config.sample_count)
    reports = []
    for values in assignments:
        weights = dict(zip(slots, values))
        reports.append(check_identity(terms, weights, identity_id="bracket-identity"))
    merged = merge_reports("bracket-identity", reports)
    _emit(_render_reports(merged.to_dict(), [merged], config.output))
    return 0 if merged.status == "pass" else 1


_MODELS = {"highest": Highest, "lowest": Lowest, "tensor": TensorLowest, "tensor-tv": TensorLowestTV}


def cmd_verma(args: argparse.Namespace) -> int:
    cls = _MODELS[args.model]
    pieces = _rational_list(args.weights)
    arity = len(fields(cls))
    if len(pieces) != arity:
        raise UsageError(f"model {args.model} needs {arity} weight(s), got {len(pieces)}")
    model = cls(*pieces)
    p = poly_from_string(args.poly, model.variables)
    _emit(str(act(model, args.gen, p)))
    return 0


# -- parser -----------------------------------------------------------------------


def _weight_help(name: str) -> str:
    # argparse reads "-1/2" as a flag; only a bare negative integer passes as a value
    return f"rational weight; a negative fraction needs --{name}=-1/2"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcbrackets",
        description="Exact verification of Rankin-Cohen bracket identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", dest="sample_count", type=int, default=None)
        p.add_argument("--output", choices=OUTPUT_FORMATS, default=None, help="report rendering")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite", choices=SUITE_NAMES + ("all",), default="all"
    )
    add_run_flags(p_verify)
    p_verify.add_argument("--n", dest="max_n", type=int, default=None)
    p_verify.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    p_verify.add_argument("--hbar-order", dest="hbar_order", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("u-table", help="emit the transition matrix U as CSV or JSON")
    p_racah = sub.add_parser("racah", help="emit the Racah-value table R as CSV")
    for table_parser in (p_table, p_racah):
        for name in ("l1", "l2", "l3"):
            table_parser.add_argument(f"--{name}", required=True, help=_weight_help(name))
        table_parser.add_argument("--n", type=int, required=True)
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_u_table)
    p_racah.set_defaults(func=cmd_racah)

    p_bracket = sub.add_parser("bracket", help="bracket two weighted polynomials in z")
    p_bracket.add_argument("--l1", required=True, help="weight of f; " + _weight_help("l1"))
    p_bracket.add_argument("--l2", required=True, help="weight of g; " + _weight_help("l2"))
    p_bracket.add_argument("--n", type=int, required=True)
    p_bracket.add_argument("--f", required=True)
    p_bracket.add_argument("--g", required=True)
    p_bracket.set_defaults(func=cmd_bracket)

    p_star = sub.add_parser("star", help="truncated star product of two symbols")
    p_star.add_argument("--N", dest="order", type=int, required=True, help="truncation order")
    for name in ("f", "g"):
        p_star.add_argument(
            f"--{name}", required=True, help=f"WEIGHT:POLY in z; a negative weight needs --{name}=-1:z"
        )
    p_star.add_argument("--kappa", default=None)
    p_star.set_defaults(func=cmd_star)

    p_rewrite = sub.add_parser("rewrite", help="rewrite a bracket expression to standard form")
    p_rewrite.add_argument("--expr", required=True)
    p_rewrite.add_argument("--weights", required=True, help="comma-separated, by ascending slot")
    p_rewrite.set_defaults(func=cmd_rewrite)

    p_check = sub.add_parser("check", help="certify a bracket identity from a file")
    p_check.add_argument("--identity-file", required=True)
    p_check.add_argument("--weights", default=None, help="comma-separated, by ascending slot")
    add_run_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_verma = sub.add_parser("verma", help="apply a module generator to a polynomial")
    p_verma.add_argument("--model", choices=tuple(_MODELS), required=True)
    p_verma.add_argument("--weights", required=True, help="comma-separated model weights")
    p_verma.add_argument("--gen", choices=GENERATORS, required=True)
    p_verma.add_argument("--poly", required=True)
    p_verma.set_defaults(func=cmd_verma)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, PolySyntaxError, BracketSyntaxError, DuplicateSlotError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    except (ValueError, UnboundSlotError, ArithmeticError) as err:
        # str() of a KeyError is the repr of its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
