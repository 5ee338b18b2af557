"""End-to-end tests for the command-line interface."""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from rcbrackets import cli
from rcbrackets.cli import RunConfig, UsageError, load_config_file, main
from rcbrackets.identities import sample_dict
from rcbrackets.transition import ParamTriple, u_matrix

WEIGHTED_IDENTITY = """\
# weighted first-order identity
l3 | [[f1,f2]_1,f3]_0
l1 | [[f2,f3]_1,f1]_0
l2 | [[f3,f1]_1,f2]_0
"""


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config handling ---------------------------------------------------------------


def test_run_config_defaults() -> None:
    config = RunConfig()
    assert (config.seed, config.sample_count, config.max_n) == (42, 20, 5)
    assert (config.max_degree, config.hbar_order, config.output) == (3, 6, "json")


def test_config_file_aliases_and_comments(tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsamples = 7\nn = 2\nmax-degree = 1\noutput = text\n")
    values = load_config_file(str(cfg))
    assert values == {"sample_count": 7, "max_n": 2, "max_degree": 1, "output": "text"}


def test_config_file_rejects_unknown_keys(tmp_path) -> None:
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 3\n")
    with pytest.raises(UsageError):
        load_config_file(str(cfg))


def test_config_file_rejects_bad_values(tmp_path) -> None:
    for body in ("seed = soon\n", "output = yaml\n", "just a line\n"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        with pytest.raises(UsageError):
            load_config_file(str(cfg))


def test_cli_flags_override_config_file(capsys, tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 0\nn = 1\nmax-degree = 1\noutput = text\n")
    code, out, _ = run_cli(capsys, ["verify", "--suite", "main", "--config", str(cfg)])
    assert code == 0
    assert out == "main-recoupling: pass (648 instances)\n"
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "main", "--config", str(cfg), "--n", "2", "--output", "csv"],
    )
    assert code == 0
    assert out == (
        "identity_id,status,instances_checked,failures\nmain-recoupling,pass,1296,0\n"
    )


# -- table subcommands --------------------------------------------------------------


def test_u_table_csv_golden(capsys) -> None:
    code, out, _ = run_cli(capsys, ["u-table", "--l1", "1", "--l2", "1", "--l3", "1", "--n", "1"])
    assert code == 0
    assert out == "k\\p,0,1\n0,1/2,3/2\n1,1/2,-1/2\n"


def test_u_table_json_schema(capsys) -> None:
    code, out, _ = run_cli(
        capsys, ["u-table", "--l1", "1", "--l2", "1", "--l3", "1", "--n", "1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"lam1": "1", "lam2": "1", "lam3": "1"}
    assert doc["n"] == 1
    entries = {(e["k"], e["p"]): e["value"] for e in doc["entries"]}
    assert entries == {(0, 0): "1/2", (0, 1): "3/2", (1, 0): "1/2", (1, 1): "-1/2"}


def test_u_table_inadmissible_weights_exit_1(capsys) -> None:
    code, _, err = run_cli(capsys, ["u-table", "--l1", "-1", "--l2", "1", "--l3", "1", "--n", "1"])
    assert code == 1
    assert "error:" in err


def test_u_table_malformed_rational_exit_2(capsys) -> None:
    code, _, err = run_cli(capsys, ["u-table", "--l1", "x", "--l2", "1", "--l3", "1", "--n", "1"])
    assert code == 2
    assert "bad rational" in err


def test_table_commands_reject_negative_n(capsys) -> None:
    for command in ("u-table", "racah"):
        argv = [command, "--l1", "1", "--l2", "1", "--l3", "1", "--n", "-1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: n must be nonnegative, got -1\n"


def test_pointwise_commands_reject_negative_orders(capsys) -> None:
    cases = [
        (["bracket", "--l1", "1", "--l2", "1", "--n", "-1", "--f", "z", "--g", "z"], "n"),
        (["star", "--N", "-1", "--f", "1:z", "--g", "1:z"], "N"),
    ]
    for argv, name in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {name} must be nonnegative, got -1\n"


def test_negative_fraction_needs_equals_form(capsys) -> None:
    code, out, _ = run_cli(capsys, ["u-table", "--l1=-1/2", "--l2", "1", "--l3", "1", "--n", "1"])
    assert code == 0
    assert out == "k\\p,0,1\n0,1/2,3/4\n1,1/2,1/4\n"


def test_racah_csv_golden(capsys) -> None:
    code, out, _ = run_cli(capsys, ["racah", "--l1", "1", "--l2", "1", "--l3", "1", "--n", "2"])
    assert code == 0
    assert out == "p\\k,0,1,2\n0,1,1,1\n1,1,1/2,-1/2\n2,1,-1/2,1/10\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["u-table", "--l1", "1/2", "--l2", "1", "--l3", "7/3", "--n", "12", "--json"],
            "389112120f6d999eaf204217479477c71775aa2f1258c72b56c7d58ce00a2969",
        ),
        (
            ["racah", "--l1", "3/5", "--l2", "7/4", "--l3", "2/9", "--n", "10"],
            "92409b17e6b8b9ed62ff05441ede042aa924dec6b0550df939ce0296047cc4da",
        ),
    ],
)
def test_table_commands_golden_bytes(capsys, argv, digest) -> None:
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["u-table", "--l1", "13/7", "--l2", "5/11", "--l3", "17/3", "--n", "40", "--json"],
            "97f1066e91236201762d985009a5f0d1d610dcbbe5342499670b3fe48fa128fd",
        ),
        (  # l2 + l3 = 1, where the recurrence is seeded at R_1
            ["u-table", "--l1=-1/3", "--l2", "1/2", "--l3", "1/2", "--n", "24", "--json"],
            "51700d51131408fb4ba4528f12393556a25b583da66ef08db8e48f5e9d4522fb",
        ),
        (  # three distinct weight denominators, so the integer scale d is their lcm
            ["u-table", "--l1", "3/5", "--l2", "7/4", "--l3", "2/9", "--n", "48", "--json"],
            "bb1e21f77deae9a3beca2dd14c3d83e057b22f34305bfd510f0333d9db68036b",
        ),
        (
            ["u-table", "--l1", "3/5", "--l2", "7/4", "--l3", "2/9", "--n", "48"],
            "ed41303496a9e63ee95c13c8907c554c54124320b0c25b4dd7cae0c5ac67e38c",
        ),
    ],
)
def test_u_table_large_n_golden_bytes(capsys, argv, digest) -> None:
    # digests of the tables as the per-entry 4F3 route prints them
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize(
    "weights",
    [
        ("--l1=-1/3", "--l2=1/2", "--l3=1/2"),  # a negative weight, and l2 + l3 = 1
        ("--l1=2", "--l2=1000003/999983", "--l3=-7/1000033"),  # large denominators
    ],
)
def test_u_table_json_bytes_equal_json_dumps(capsys, weights, n) -> None:
    """``u-table --json`` writes its entries directly; json.dumps is the oracle here."""
    code, out, _ = run_cli(capsys, ["u-table", *weights, "--n", str(n), "--json"])
    assert code == 0
    params = ParamTriple(*(w.partition("=")[2] for w in weights))
    table = u_matrix(params, n)
    doc = {
        "params": sample_dict(params),
        "n": n,
        "entries": [
            {"k": k, "p": p, "value": str(table[k][p])} for k in range(n + 1) for p in range(n + 1)
        ],
    }
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- pointwise subcommands ------------------------------------------------------------


def test_bracket_golden(capsys) -> None:
    code, out, _ = run_cli(
        capsys, ["bracket", "--l1", "1/2", "--l2", "1", "--n", "1", "--f", "z", "--g", "z"]
    )
    assert code == 0
    assert out == "weight: 7/2\nform: -1/2*z\n"


DENSE_F = "2/3*z^5 - 5/4*z^4 + 1/6*z^3 + 7*z^2 - 3/5*z + 9/8"
DENSE_G = "-1/9*z^5 + 2/7*z^4 - 3*z^3 + 5/6*z^2 + 4/3*z - 1/2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["star", "--N", "6", "--f", f"3/7:{DENSE_F}", "--g", f"5/4:{DENSE_G}"],
            "91e8583ee6259ee9c71a57c441145a16a8906965ac1e4cf07a7cec051821b571",
        ),
        (
            ["star", "--N", "6", "--f", f"3/7:{DENSE_F}", "--g", f"5/4:{DENSE_G}"]
            + ["--kappa", "1/2"],
            "e48f5c77b3c54cc0168aa6d617a7280a01c651bd67241c0b5bb8b3589f9c1d39",
        ),
        (
            ["star", "--N", "6", "--f", f"3/7:{DENSE_F}", "--g", f"5/4:{DENSE_G}"]
            + ["--kappa", "5/7"],
            "64883c9fc1bac0fd6507623bc879d031c4548676e40aa30862dc15c46d9b1396",
        ),
        (
            ["bracket", "--l1", "2/5", "--l2", "7/3", "--n", "4"]
            + ["--f", "5/3*z^6 - 2/9*z^5 + 7/4*z^4 - z^3 + 3/8*z^2 + 11/5*z - 4/7"]
            + ["--g", "-3/10*z^5 + 8/3*z^4 + 1/2*z^3 - 6/7*z^2 + z + 13/9"],
            "6bc884830da07fc532bf7cb7f02f1a73965a60135b8e7b9d339b9aa318eee5f8",
        ),
    ],
)
def test_dense_symbol_golden_bytes(capsys, argv, digest) -> None:
    # digests of the output of the Fraction-by-Fraction Poly.diff/Poly.__mul__ bracket
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_bracket_rejects_bad_polynomial(capsys) -> None:
    code, _, err = run_cli(
        capsys, ["bracket", "--l1", "1", "--l2", "1", "--n", "1", "--f", "2z", "--g", "z"]
    )
    assert code == 2
    assert "error:" in err


def test_star_weight_zero_unit(capsys) -> None:
    code, out, _ = run_cli(capsys, ["star", "--N", "2", "--f", "0:1", "--g", "1:z"])
    assert code == 0
    assert out == "h^0 weight 1: z\n"


def test_star_with_and_without_kappa(capsys) -> None:
    code, plain, _ = run_cli(capsys, ["star", "--N", "2", "--f", "1/2:z", "--g", "1:z^2"])
    assert code == 0
    assert plain == "h^0 weight 3/2: z^3\nh^2 weight 11/2: -21/4*z\n"
    code, scaled, _ = run_cli(
        capsys, ["star", "--N", "2", "--f", "1/2:z", "--g", "1:z^2", "--kappa", "1/2"]
    )
    assert code == 0
    # order-2 component is rescaled by (-1/4)^2
    assert scaled == "h^0 weight 3/2: z^3\nh^2 weight 11/2: -21/64*z\n"


def test_star_requires_weight_colon_poly(capsys) -> None:
    code, _, err = run_cli(capsys, ["star", "--N", "2", "--f", "z", "--g", "1:z"])
    assert code == 2
    assert "WEIGHT:POLY" in err


def test_verma_golden(capsys) -> None:
    code, out, _ = run_cli(
        capsys, ["verma", "--model", "highest", "--weights", "3", "--gen", "F", "--poly", "x^2+1"]
    )
    assert code == 0
    assert out == "5*x^3 + 3*x\n"


def test_verma_wrong_weight_arity(capsys) -> None:
    code, _, err = run_cli(
        capsys, ["verma", "--model", "tensor", "--weights", "3", "--gen", "H", "--poly", "x"]
    )
    assert code == 2
    assert "needs 2 weight(s)" in err


@pytest.mark.parametrize(
    "model, weights, gen, poly, expected",
    [
        ("lowest", "3", "C", "x^2+1", "3/4*x^2 + 3/4\n"),
        ("tensor", "1,2", "F", "x^2*y", "-2*x^2 - 4*x*y\n"),
        ("tensor-tv", "1/2,3", "F", "t^2*v", "-11/2*t*v - 5/2*t\n"),
    ],
)
def test_verma_models_golden(capsys, model, weights, gen, poly, expected) -> None:
    argv = ["verma", "--model", model, "--weights", weights, "--gen", gen, "--poly", poly]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == expected


def test_verma_single_weight_model_rejects_two(capsys) -> None:
    code, out, err = run_cli(
        capsys, ["verma", "--model", "highest", "--weights", "1,2", "--gen", "H", "--poly", "x"]
    )
    assert code == 2
    assert out == ""
    assert "needs 1 weight(s)" in err


# -- rewrite and check ---------------------------------------------------------------


def test_rewrite_golden(capsys) -> None:
    code, out, _ = run_cli(capsys, ["rewrite", "--expr", "[f2,f1]_1", "--weights", "1/2,1"])
    assert code == 0
    assert out == "-1  (1)\n"


def test_rewrite_syntax_error_exit_2(capsys) -> None:
    code, _, err = run_cli(capsys, ["rewrite", "--expr", "[f1,f2]_", "--weights", "1,1"])
    assert code == 2
    assert "position 8" in err


def test_rewrite_inadmissible_weights_exit_1(capsys) -> None:
    code, _, err = run_cli(
        capsys, ["rewrite", "--expr", "[[f1,f2]_1,f3]_1", "--weights", "1,1,-2"]
    )
    assert code == 1
    assert "inadmissible" in err


def test_rewrite_weight_count_mismatch(capsys) -> None:
    code, _, err = run_cli(capsys, ["rewrite", "--expr", "[f1,f2]_1", "--weights", "1"])
    assert code == 2
    assert "expected 2 weights" in err


def test_check_identity_file_pass_and_fail(capsys, tmp_path) -> None:
    good = tmp_path / "identity.txt"
    good.write_text(WEIGHTED_IDENTITY)
    code, out, _ = run_cli(
        capsys, ["check", "--identity-file", str(good), "--weights", "1/2,1,7/3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["instances_checked"] == 1

    broken = tmp_path / "broken.txt"
    broken.write_text("1 | [[f1,f2]_1,f3]_1\n1 | [[f2,f3]_1,f1]_1\n")
    code, out, _ = run_cli(
        capsys, ["check", "--identity-file", str(broken), "--weights", "1/2,1,7/3"]
    )
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_check_uses_seeded_default_assignments(capsys, tmp_path) -> None:
    good = tmp_path / "identity.txt"
    good.write_text(WEIGHTED_IDENTITY)
    code, out, _ = run_cli(capsys, ["check", "--identity-file", str(good), "--samples", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["instances_checked"] == 4  # one base assignment plus three seeded


def test_check_seeded_assignments_golden_bytes(capsys, tmp_path) -> None:
    cyclic = tmp_path / "cyclic.txt"
    cyclic.write_text("1 | [[f1,f2]_1,f3]_1\n1 | [[f2,f3]_1,f1]_1\n1 | [[f3,f1]_1,f2]_1\n")
    code, out, _ = run_cli(capsys, ["check", "--identity-file", str(cyclic), "--samples", "5"])
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "729f9019344239b206a08e891d3e0d2e3ce91d28838ae1ed9adb58916922d0ab"


def test_check_text_rendering(capsys, tmp_path) -> None:
    good = tmp_path / "identity.txt"
    good.write_text(WEIGHTED_IDENTITY)
    code, out, _ = run_cli(
        capsys,
        ["check", "--identity-file", str(good), "--weights", "1/2,1,7/3", "--output", "text"],
    )
    assert code == 0
    assert out == "bracket-identity: pass (1 instances)\n"


def test_removed_flags_are_usage_errors(capsys) -> None:
    for argv in (
        ["rewrite", "--expr", "[f2,f1]_1", "--weights", "1,1", "--strategy", "leftmost"],
        ["check", "--identity-file", "identity.txt", "--n", "3"],
    ):
        assert run_cli(capsys, argv)[0] == 2


def test_check_config_accepts_keys_it_does_not_read(capsys, tmp_path) -> None:
    good = tmp_path / "identity.txt"
    good.write_text(WEIGHTED_IDENTITY)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 2\nn = 4\nmax-degree = 9\nhbar-order = 1\n")
    code, out, _ = run_cli(capsys, ["check", "--identity-file", str(good), "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["instances_checked"] == 3


def _left_comb(depth: int) -> str:
    expr = "f1"
    for slot in range(2, depth + 2):
        expr = f"[{expr},f{slot}]_0"
    return expr


@pytest.mark.parametrize(
    "argv",
    [
        ["rewrite", "--expr", _left_comb(600), "--weights", ",".join(["1"] * 601)],
        ["rewrite", "--expr", _left_comb(1200), "--weights", ",".join(["1"] * 1201)],
        ["bracket", "--l1", "1", "--l2", "1", "--n", "1", "--f", "(" * 1500 + "z" + ")" * 1500,
         "--g", "z"],
    ],
    ids=["rewrite-600", "rewrite-1200", "bracket-parens-1500"],
)
def test_over_deep_input_is_one_line_error(capsys, argv) -> None:
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: input nested too deeply\n"


def test_check_missing_file_exit_2(capsys) -> None:
    code, _, err = run_cli(capsys, ["check", "--identity-file", "/nonexistent/identity.txt"])
    assert code == 2
    assert "cannot read" in err


def test_verify_missing_config_exit_2(capsys) -> None:
    code, out, err = run_cli(capsys, ["verify", "--config", "/nonexistent.cfg"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file /nonexistent.cfg: ")


def test_verify_non_utf8_config_exit_2(capsys, tmp_path) -> None:
    binary = tmp_path / "bin.cfg"
    binary.write_bytes(b"\xff\xfe\n")
    code, out, err = run_cli(capsys, ["verify", "--config", str(binary)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read config file {binary}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_check_non_utf8_identity_file_exit_2(capsys, tmp_path) -> None:
    binary = tmp_path / "identity.txt"
    binary.write_bytes(b"1 | f1\n\xff\n")
    code, out, err = run_cli(capsys, ["check", "--identity-file", str(binary)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read identity file {binary}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_check_line_without_bar_exit_2(capsys, tmp_path) -> None:
    bad = tmp_path / "identity.txt"
    bad.write_text("oops\n")
    code, out, err = run_cli(capsys, ["check", "--identity-file", str(bad)])
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}:1: expected 'coeff | expr', got 'oops'\n"


@pytest.mark.parametrize("command", ["rewrite", "check"])
def test_repeated_slot_is_syntax_error(capsys, tmp_path, command) -> None:
    if command == "rewrite":
        argv = ["rewrite", "--expr", "[f1,f1]_1", "--weights", "1,2"]
    else:
        identity = tmp_path / "identity.txt"
        identity.write_text("1 | [f1,f1]_0\n")
        argv = ["check", "--identity-file", str(identity)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: slot 1 occurs twice\n"


@pytest.mark.parametrize("command", ["rewrite", "check"])
def test_slot_zero_is_syntax_error(capsys, tmp_path, command) -> None:
    if command == "rewrite":
        argv = ["rewrite", "--expr", "[f0,f2]_1", "--weights", "1,2"]
    else:
        identity = tmp_path / "identity.txt"
        identity.write_text("1 | [f0,f1]_1\n")
        argv = ["check", "--identity-file", str(identity)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: leaf slots are positive integers, got 0 (at position 2)\n"


def test_unbound_slot_message_is_unquoted(capsys, tmp_path) -> None:
    identity = tmp_path / "identity.txt"
    identity.write_text("l5 | [f1,f2]_0\n")
    code, out, err = run_cli(capsys, ["check", "--identity-file", str(identity)])
    assert code == 1
    assert out == ""
    assert err == "error: no weight bound for slot 5\n"


def test_stray_key_error_propagates(monkeypatch) -> None:
    # only UnboundSlotError is a domain error; any other KeyError is a bug
    def broken(args):
        raise KeyError("stray")

    monkeypatch.setattr(cli, "cmd_u_table", broken)
    with pytest.raises(KeyError, match="stray"):
        main(["u-table", "--l1", "1", "--l2", "1", "--l3", "1", "--n", "1"])


# -- verify -----------------------------------------------------------------------


def test_verify_json_schema_and_determinism(capsys) -> None:
    argv = ["verify", "--suite", "main", "--samples", "0", "--n", "2", "--max-degree", "1"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(first)
    assert sorted(doc) == ["config", "reports", "suite"]
    assert doc["suite"] == "main"
    assert doc["config"] == {
        "seed": 42,
        "sample_count": 0,
        "max_n": 2,
        "max_degree": 1,
        "hbar_order": 6,
    }
    (report,) = doc["reports"]
    assert report["identity_id"] == "main-recoupling"
    assert report["status"] == "pass"
    assert report["instances_checked"] == 1296
    assert report["failures"] == []
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    assert second == first


def test_verify_all_small_scope_golden_bytes(capsys) -> None:
    argv = ["verify", "--suite", "all", "--samples", "0", "--n", "1", "--max-degree", "1"]
    code, out, _ = run_cli(capsys, argv + ["--hbar-order", "1", "--output", "json"])
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "86e49205109b5a7b5b57ec4545b9c38c6bb47457faab9e05d3b7cd605e425a9d"


def test_verify_csv_and_text_renderings(capsys) -> None:
    base = ["verify", "--suite", "main", "--samples", "0", "--n", "1", "--max-degree", "1"]
    code, out, _ = run_cli(capsys, base + ["--output", "csv"])
    assert code == 0
    assert out == (
        "identity_id,status,instances_checked,failures\nmain-recoupling,pass,648,0\n"
    )
    code, out, _ = run_cli(capsys, base + ["--output", "text"])
    assert code == 0
    assert out == "main-recoupling: pass (648 instances)\n"


def test_verify_report_only_suite_exits_0(capsys) -> None:
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "zagier", "--samples", "0", "--n", "1", "--output", "csv"]
    )
    assert code == 0
    assert "zagier-invariance,report_only" in out


def test_verify_rejects_negative_bounds(capsys) -> None:
    code, _, err = run_cli(capsys, ["verify", "--suite", "main", "--n", "-1"])
    assert code == 2
    assert "nonnegative" in err


def test_unknown_subcommand_exit_2(capsys) -> None:
    assert run_cli(capsys, ["nonsense"])[0] == 2


def test_unknown_suite_exit_2(capsys) -> None:
    assert run_cli(capsys, ["verify", "--suite", "mystery"])[0] == 2


def test_console_script_entrypoint() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "rcbrackets", "u-table", "--l1", "1", "--l2", "1", "--l3", "1", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "k\\p,0,1\n0,1/2,3/2\n1,1/2,-1/2\n"
