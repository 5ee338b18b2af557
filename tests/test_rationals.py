from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rcbrackets.rationals import (
    as_rational,
    binom_general,
    factorial,
    is_nonpositive_integer,
    parse_rational,
    pochhammer,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
small_ints = st.integers(min_value=0, max_value=12)


def test_factorial_values():
    assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_pochhammer_frozen_values():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(5, 0) == 1
    assert pochhammer(0, 1) == 0
    assert pochhammer(-3, 2) == 6


@given(rationals, small_ints)
def test_pochhammer_recurrence(x, m):
    assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)


@given(st.integers(min_value=1, max_value=10))
def test_pochhammer_of_one_is_factorial(m):
    assert pochhammer(1, m) == factorial(m)


def test_binom_general_frozen_values():
    assert binom_general(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_general(5, 2) == 10
    assert binom_general(3, 5) == 0
    assert binom_general(Fraction(7, 3), 0) == 1


@given(rationals, small_ints)
def test_binom_general_matches_pochhammer(x, k):
    assert binom_general(x, k) == pochhammer(x - k + 1, k) / factorial(k)


@given(st.integers(min_value=0, max_value=12), small_ints)
def test_binom_general_pascal(n, k):
    assert binom_general(n + 1, k + 1) == binom_general(n, k) + binom_general(n, k + 1)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(Fraction(0))
    assert is_nonpositive_integer(Fraction(-4))
    assert not is_nonpositive_integer(Fraction(1))
    assert not is_nonpositive_integer(Fraction(-1, 2))


def test_as_rational_accepts_int_str_fraction():
    assert as_rational(3) == Fraction(3)
    assert as_rational("7/3") == Fraction(7, 3)
    assert as_rational(Fraction(2, 5)) == Fraction(2, 5)


def test_as_rational_rejects_float_and_bool():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("6") == Fraction(6)
    with pytest.raises(ZeroDivisionError):
        parse_rational("3/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(str(x)) == x
