"""Exact rational scalars and the combinatorial primitives built on them.

``Rational`` is an alias of :class:`fractions.Fraction`: values are always
stored reduced with a positive denominator, and ``str()`` renders them as
``p/q`` (or just ``p`` for integers), which is exactly the wire format used
by the CLI and the JSON reports.  No floating point is allowed anywhere in
a computation path; ``as_rational`` rejects floats outright.

Integer routes scale their rational weights to integers once:
``common_scale`` gives the lcm d of the denominators and the scaled values,
and ``rising`` gives d^m (x/d)_m, a Pochhammer symbol of a scaled value, as
an integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Fraction

RationalLike = Union[int, Fraction]


def as_rational(value: RationalLike | str) -> Fraction:
    """Coerce an int, Fraction or ``p/q`` string to an exact rational."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (optional sign, base 10).  Rejects q = 0."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in rational literal {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None


def format_rational(value: RationalLike) -> str:
    """Render reduced ``p/q``, or ``p`` when the denominator is 1."""
    return str(as_rational(value))


def is_nonpositive_integer(value: RationalLike) -> bool:
    """True iff ``value`` is an integer <= 0 (pole / termination test)."""
    value = as_rational(value)
    return value.denominator == 1 and value <= 0


@lru_cache(maxsize=None)
def factorial(k: int) -> Fraction:
    """k! as an exact rational.  k must be a nonnegative integer."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"factorial needs a nonnegative integer, got {k!r}")
    return Fraction(math.factorial(k))


@lru_cache(maxsize=None)
def _pochhammer_cached(x: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= x + i
    return out


def pochhammer(x: RationalLike, m: int) -> Fraction:
    """Rising factorial (x)_m = x (x+1) ... (x+m-1), with (x)_0 = 1."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"pochhammer needs a nonnegative integer length, got {m!r}")
    return _pochhammer_cached(as_rational(x), m)


@lru_cache(maxsize=None)
def _binom_cached(x: Fraction, k: int) -> Fraction:
    return _pochhammer_cached(x - k + 1, k) / factorial(k)


def binom_general(x: RationalLike, k: int) -> Fraction:
    """Generalized binomial C(x, k) = (x-k+1)_k / k! for rational x."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"binom_general needs a nonnegative integer k, got {k!r}")
    return _binom_cached(as_rational(x), k)


def common_scale(*values: Fraction) -> tuple[int, list[int]]:
    """(d, [d * value, ...]) with d the lcm of the denominators, so every entry is an integer."""
    d = math.lcm(*[value.denominator for value in values])
    return d, [value.numerator * (d // value.denominator) for value in values]


def rising(x: int, d: int, m: int) -> int:
    """d^m (x/d)_m = x (x + d) ... (x + (m-1) d)."""
    out = 1
    for i in range(m):
        out *= x + i * d
    return out
