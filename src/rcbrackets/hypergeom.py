"""Terminating hypergeometric sums, Jacobi polynomials and Racah values.

Everything here is exact: a generalized hypergeometric series is admitted
only when some top parameter is a nonpositive integer, the sum is truncated
at the least such termination index T, and bottom parameters are checked for
poles over the summation range actually used (b + j != 0 for 0 <= j <= T-1),
which is what keeps the term ratio of every series free of division by zero.
Every series runs through one integer term-ratio loop, ``series_terms_scaled``,
on parameters x / d over one scale d (both tests read x <= 0 and d | x), and
returns numerators over one denominator, which its caller reduces once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod
from typing import Sequence

from .poly import Poly
from .rationals import (
    RationalLike,
    as_rational,
    binom_general,
    common_scale,
    factorial,
    pochhammer,
)


class NonTerminatingError(ValueError):
    """No top parameter is a nonpositive integer: the series does not stop."""


class BottomPoleError(ZeroDivisionError):
    """A bottom parameter hits zero inside the used summation range."""


@dataclass(frozen=True)
class HypSpec:
    """Parameter lists of a terminating pFq evaluated with unit-style argument."""

    top: tuple[Fraction, ...]
    bottom: tuple[Fraction, ...]

    def __init__(self, top, bottom) -> None:
        object.__setattr__(self, "top", tuple(as_rational(a) for a in top))
        object.__setattr__(self, "bottom", tuple(as_rational(b) for b in bottom))

    def termination_index(self) -> int:
        """Least T with some top parameter equal to -T."""
        return _termination(*common_scale(*self.top))

    def check_bottom(self, upto: int) -> None:
        """Reject b + j = 0 for any bottom b and 0 <= j < upto."""
        _check_poles(*common_scale(*self.bottom), upto)


def _termination(d: int, top: Sequence[int]) -> int:
    """Least T with some top parameter a / d equal to -T: a <= 0 and d | a."""
    stops = [-a // d for a in top if a <= 0 and not a % d]
    if not stops:
        tops = tuple(Fraction(a, d) for a in top)
        raise NonTerminatingError(f"no nonpositive-integer top parameter in {tops}")
    return min(stops)


def _check_poles(d: int, bottom: Sequence[int], upto: int) -> None:
    """Reject b / d + j = 0 for any bottom b and 0 <= j < upto."""
    for b in bottom:
        if b <= 0 and not b % d and -b // d < upto:
            raise BottomPoleError(f"bottom parameter {b // d} vanishes at shift {-b // d}")


def series_terms_scaled(
    top: Sequence[int], bottom: Sequence[int], d: int, upto: int = 0
) -> tuple[list[int], int]:
    """``(nums, den)``: t_j = nums[j] / den, j = 0..T, the terms at unit argument of
    the series with top parameters a / d and bottom parameters b / d (d > 0).

    T is the least termination index, and every shift j < max(T, upto) is checked
    for bottom poles, so nothing divides by zero.  The term ratio is
    d^len(bottom) prod(a + j d) / ((j + 1) d^len(top) prod(b + j d)); nums[j] is its
    numerators over i < j times its denominators over j <= i < T, den all T of them."""
    T = _termination(d, top)
    _check_poles(d, bottom, max(T, upto))
    heads, tails = [1], [1]
    for j in range(T):
        heads.append(heads[-1] * d ** len(bottom) * prod(a + j * d for a in top))
    for j in reversed(range(T)):
        tails.append(tails[-1] * (j + 1) * d ** len(top) * prod(b + j * d for b in bottom))
    return [h * t for h, t in zip(heads, reversed(tails))], tails[-1]


def _series_terms(spec: HypSpec) -> tuple[list[int], int]:
    """``series_terms_scaled`` at the spec's parameters over their one common scale."""
    d, scaled = common_scale(*spec.top, *spec.bottom)
    return series_terms_scaled(scaled[: len(spec.top)], scaled[len(spec.top) :], d)


def hyp_terminating_poly(spec: HypSpec) -> Poly:
    """The terminating series as a polynomial in t: sum_j t_j t^j (see _series_terms)."""
    nums, den = _series_terms(spec)
    return Poly(("t",), {(j,): Fraction(v, den) for j, v in enumerate(nums)})


def hyp_terminating_at_one(spec: HypSpec) -> Fraction:
    """Exact value of the terminating series at unit argument."""
    nums, den = _series_terms(spec)
    return Fraction(sum(nums), den)


def jacobi_poly(ell: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Jacobi polynomial P_ell^(alpha,beta) in the variable v (finite sum form)."""
    if not isinstance(ell, int) or ell < 0:
        raise ValueError(f"jacobi degree must be a nonnegative integer, got {ell!r}")
    alpha, beta = as_rational(alpha), as_rational(beta)
    v = Poly.variable("v")
    one = Poly.const(("v",), 1)
    half = Fraction(1, 2)
    out = Poly.zero(("v",))
    for s in range(ell + 1):
        coeff = (-1) ** s * binom_general(ell + alpha, ell - s) * binom_general(ell + beta, s)
        if coeff:
            out = out + coeff * half**ell * (one - v) ** s * (one + v) ** (ell - s)
    return out


def jacobi_poly_hyp(ell: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Same polynomial through its terminating 2F1 form (cross-check route).

    P_ell^(alpha,beta)(v) = ((alpha+1)_ell / ell!) 2F1(-ell, 1+alpha+beta+ell;
    alpha+1; (1-v)/2).  Requires alpha + 1 pole-free over the range used.
    """
    alpha, beta = as_rational(alpha), as_rational(beta)
    spec = HypSpec((-ell, 1 + alpha + beta + ell), (alpha + 1,))
    series = hyp_terminating_poly(spec)
    v = Poly.variable("v")
    argument = Fraction(1, 2) * (Poly.const(("v",), 1) - v)
    value = series.subst({"t": argument})
    return (pochhammer(alpha + 1, ell) / factorial(ell)) * value


def bracket_row_scaled(a: int, b: int, d: int, n: int) -> tuple[tuple[int, ...], int]:
    """``(row, den)``: row[s] / den, s = 0..n, is the coefficient of f^(s) g^(n-s)
    in the bracket [f, g]_n and of x^s y^(n-s) in ``jacobi_two_var(n, a/d, b/d)``,
    at the weights (a/d, b/d) for any integer scale d > 0, uncached.  The
    reduced ``(row, den)`` does not depend on the scale.

    The coefficient is c_s = (-1)^s C(a/d+n-1, n-s) C(b/d+n-1, s), and
    C(x, k) = (x-k+1)_k / k! gives the integers
    c_s d^n n! = (-1)^s C(n, s) prod_{i=s}^{n-1} (a + i d) prod_{i=n-s}^{n-1} (b + i d);
    dividing them and d^n n! by one gcd leaves ``den``, the lcm of the reduced
    denominators of the c_s (1 for a zero row).
    """

    def tail(x: int) -> list[int]:
        """[prod_{i=s}^{n-1} (x + i d) for s = 0..n]; entry n is the empty product 1."""
        out = [1]
        for i in reversed(range(n)):
            out.append(out[-1] * (x + i * d))
        return out[::-1]

    heads, tails = tail(a), tail(b)
    row = [(-1) ** s * comb(n, s) * heads[s] * tails[n - s] for s in range(n + 1)]
    full = d**n * prod(range(1, n + 1))
    common = gcd(full, *row)
    return tuple(v // common for v in row), full // common


def jacobi_two_var(ell: int, lam1: RationalLike, lam2: RationalLike) -> Poly:
    """Homogeneous two-variable Jacobi form in (x, y):

    sum_s (-1)^s C(ell+lam1-1, ell-s) C(ell+lam2-1, s) x^s y^(ell-s),
    which equals (x+y)^ell P_ell^(lam1-1,lam2-1)((y-x)/(x+y)).
    """
    if not isinstance(ell, int) or ell < 0:
        raise ValueError(f"jacobi degree must be a nonnegative integer, got {ell!r}")
    d, (a, b) = common_scale(as_rational(lam1), as_rational(lam2))
    row, den = bracket_row_scaled(a, b, d, ell)
    # one reduced Fraction per nonzero entry of the integer row
    terms = {(s, ell - s): Fraction(v, den) for s, v in enumerate(row) if v}
    return Poly._trusted(("x", "y"), terms)


def jacobi_operator(alpha: RationalLike, beta: RationalLike, p: Poly) -> Poly:
    """Hypergeometric operator (1-v^2) d^2/dv^2 + (beta-alpha-(alpha+beta+2)v) d/dv.

    Acts in the variable v; any other variables of ``p`` ride along as
    coefficients.  Eigenvalue on P_ell^(alpha,beta): -ell(ell+alpha+beta+1).
    (The first-order coefficient is the classical one; the reversed sign of
    beta-alpha is incompatible with that eigenvalue property.)
    """
    alpha, beta = as_rational(alpha), as_rational(beta)
    if "v" not in p.vars:
        p = p.lift(p.vars + ("v",))
    v = Poly.variable("v", p.vars)
    one = Poly.const(p.vars, 1)
    second = (one - v * v) * p.diff("v", 2)
    first = (Poly.const(p.vars, beta - alpha) - (alpha + beta + 2) * v) * p.diff("v")
    return second + first


def racah_value(
    p: int,
    k: int,
    n: int,
    lam1: RationalLike,
    lam2: RationalLike,
    lam3: RationalLike,
) -> Fraction:
    """Racah-type terminating 4F3 at unit argument:

    R_{p,k} = 4F3(-p, p+lam2+lam3-1, -k, k+lam1+lam2-1;
                  lam2, lam1+lam2+lam3+n-1, -n; 1),  0 <= p, k <= n.

    This is the Racah polynomial R_p(lambda(k); alpha, beta, gamma, delta)
    with alpha = lam2-1, beta = lam3-1, gamma = -n-1, delta = lam1+lam2+n-1
    and lambda(k) = k(k+lam1+lam2-1).  Symmetric under swapping (p, lam1)
    with (k, lam3).  The bottom entry -n is harmless because the sum stops at
    min(p, k) <= n, and the other bottoms are checked over the used range.

    It is one of three independent routes to the transition coefficients
    (``transition``): this sum is the single-entry oracle, the production
    rows come from the three-term recurrence in p, run on the integers
    d^{2p} (lam2)_p (lam1+lam2+lam3+n-1)_p (-n)_p R_{p,k} (d the lcm of the
    weights' denominators) with one exact division per step, whose divisor
    the weight gate keeps nonzero for 1 <= p <= n-1, and the columns from
    the generating polynomial.
    """
    for label, idx in (("p", p), ("k", k), ("n", n)):
        if not isinstance(idx, int) or idx < 0:
            raise ValueError(f"{label} must be a nonnegative integer, got {idx!r}")
    if p > n or k > n:
        raise ValueError(f"indices out of range: p={p}, k={k}, n={n}")
    d, (l1, l2, l3) = common_scale(as_rational(lam1), as_rational(lam2), as_rational(lam3))
    top = (-p * d, p * d + l2 + l3 - d, -k * d, k * d + l1 + l2 - d)
    nums, den = series_terms_scaled(top, (l2, l1 + l2 + l3 + (n - 1) * d, -n * d), d)
    return Fraction(sum(nums), den)
