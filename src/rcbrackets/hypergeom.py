"""Terminating hypergeometric sums, Jacobi polynomials and Racah values.

Everything here is exact: a generalized hypergeometric series is admitted
only when some top parameter is a nonpositive integer, the sum is truncated
at the least such termination index T, and bottom parameters are checked for
poles over the summation range actually used (b + j != 0 for 0 <= j <= T-1),
which is what keeps the term ratio of every series free of division by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod

from .poly import Poly
from .rationals import (
    RationalLike,
    as_rational,
    binom_general,
    common_scale,
    factorial,
    is_nonpositive_integer,
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
        candidates = [-int(a) for a in self.top if is_nonpositive_integer(a)]
        if not candidates:
            raise NonTerminatingError(f"no nonpositive-integer top parameter in {self.top}")
        return min(candidates)

    def check_bottom(self, upto: int) -> None:
        """Reject b + j = 0 for any bottom b and 0 <= j < upto."""
        for b in self.bottom:
            if b.denominator == 1 and -int(b) in range(upto):
                raise BottomPoleError(f"bottom parameter {b} vanishes at shift {-int(b)}")


def _series_terms(spec: HypSpec) -> list[Fraction]:
    """Terms t_0..t_T of the series at unit argument, built by the term ratio.

    t_0 = 1 and t_{j+1} = t_j * prod(a + j) / ((j + 1) * prod(b + j)).  No
    division is by zero: T is the least termination index, and check_bottom(T)
    rules out b + j = 0 for every j < T, the only shifts the ratio uses.
    """
    T = spec.termination_index()
    spec.check_bottom(T)
    terms = [Fraction(1)]
    for j in range(T):
        num = terms[-1] * prod(a + j for a in spec.top)
        terms.append(num / ((j + 1) * prod(b + j for b in spec.bottom)))
    return terms


def hyp_terminating_poly(spec: HypSpec) -> Poly:
    """The terminating series as a polynomial in t: sum_j t_j t^j (see _series_terms)."""
    return Poly(("t",), {(j,): term for j, term in enumerate(_series_terms(spec))})


def hyp_terminating_at_one(spec: HypSpec) -> Fraction:
    """Exact value of the terminating series at unit argument."""
    return sum(_series_terms(spec), Fraction(0))


def jacobi_basis_admissible(alpha: RationalLike, beta: RationalLike) -> bool:
    """Degrees stay exact and {P_0..P_m} stays a basis when alpha, beta > -1
    or, more generally, alpha + beta is not a negative integer >= -(2m)."""
    return not is_nonpositive_integer(as_rational(alpha) + as_rational(beta) + 1)


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


@lru_cache(maxsize=None)
def bracket_coeff_row(weight1: Fraction, weight2: Fraction, n: int) -> tuple[tuple[int, ...], int]:
    """``(row, den)``: row[s] / den, s = 0..n, is the coefficient of f^(s) g^(n-s)
    in the bracket [f, g]_n and of x^s y^(n-s) in ``jacobi_two_var(n, weight1, weight2)``.

    The coefficient is c_s = (-1)^s C(weight1+n-1, n-s) C(weight2+n-1, s).  With
    d the lcm of the weights' denominators, A = d weight1 and B = d weight2,
    C(x, k) = (x-k+1)_k / k! gives the integers
    c_s d^n n! = (-1)^s C(n, s) prod_{i=s}^{n-1} (A + i d) prod_{i=n-s}^{n-1} (B + i d);
    dividing them and d^n n! by one gcd leaves ``den``, the lcm of the reduced
    denominators of the c_s (1 for a zero row).
    """
    d, (a, b) = common_scale(weight1, weight2)

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
    row, den = bracket_coeff_row(as_rational(lam1), as_rational(lam2), ell)
    # one reduced Fraction per nonzero entry of the cached integer row
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
    lam1, lam2, lam3 = as_rational(lam1), as_rational(lam2), as_rational(lam3)
    spec = HypSpec(
        (-p, p + lam2 + lam3 - 1, -k, k + lam1 + lam2 - 1),
        (lam2, lam1 + lam2 + lam3 + n - 1, Fraction(-n)),
    )
    return hyp_terminating_at_one(spec)
