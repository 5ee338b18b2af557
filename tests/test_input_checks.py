"""The API-boundary input checks that no other test reaches, each with its message."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest

from rcbrackets.brackets import monomial_form, rc_bracket
from rcbrackets.hypergeom import jacobi_poly, jacobi_two_var, racah_value
from rcbrackets.poly import Poly
from rcbrackets.rationals import binom_general, pochhammer
from rcbrackets.star import StarSeries, TruncationMismatchError
from rcbrackets.transition import ParamTriple, u_generating_poly

GENERIC = ParamTriple(Fraction(1, 2), Fraction(1), Fraction(7, 3))
Z = Poly.variable("z", ("z",))
F = monomial_form(Fraction(1, 2), 2)

CASES = {
    "rc_bracket-order": (
        lambda: rc_bracket(F, F, -1),
        "bracket order must be a nonnegative integer, got -1",
    ),
    "jacobi_two_var-degree": (
        lambda: jacobi_two_var(-1, 1, 2),
        "jacobi degree must be a nonnegative integer, got -1",
    ),
    "jacobi_poly-degree": (
        lambda: jacobi_poly(-1, 1, 2),
        "jacobi degree must be a nonnegative integer, got -1",
    ),
    "racah_value-negative-k": (
        lambda: racah_value(0, -1, 2, 1, 1, 1),
        "k must be a nonnegative integer, got -1",
    ),
    "racah_value-p-above-n": (
        lambda: racah_value(3, 0, 2, 1, 1, 1),
        "indices out of range: p=3, k=0, n=2",
    ),
    "racah_value-k-above-n": (
        lambda: racah_value(0, 3, 2, 1, 1, 1),
        "indices out of range: p=0, k=3, n=2",
    ),
    "u_generating_poly-p-above-n": (
        lambda: u_generating_poly(GENERIC, 2, 3),
        "need integers 0 <= p <= n, got p=3, n=2",
    ),
    "pochhammer-length": (
        lambda: pochhammer(Fraction(1, 2), -1),
        "pochhammer needs a nonnegative integer length, got -1",
    ),
    "binom_general-length": (
        lambda: binom_general(Fraction(1, 2), -1),
        "binom_general needs a nonnegative integer k, got -1",
    ),
    "poly-power": (
        lambda: Z**-1,
        "polynomial power needs a nonnegative integer, got -1",
    ),
    "poly-diff": (
        lambda: Z.diff("z", -1),
        "derivative order must be a nonnegative integer, got -1",
    ),
}


@pytest.mark.parametrize("call, message", list(CASES.values()), ids=list(CASES))
def test_input_check_message(call, message) -> None:
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_star_series_refuses_a_coefficient_beyond_its_truncation() -> None:
    with pytest.raises(TruncationMismatchError, match="^coefficient at order 1 beyond truncation 0$"):
        StarSeries(0, [{}, {Fraction(1): Z}])


def test_star_series_repr() -> None:
    assert repr(StarSeries(1)) == "StarSeries(0)"
    series = StarSeries(1, [{Fraction(1, 2): Z**2}, {Fraction(5, 2): -Z, Fraction(1): Z}])
    assert repr(series) == "StarSeries(h^0 w=1/2: z^2; h^1 w=1: z; h^1 w=5/2: -z)"
