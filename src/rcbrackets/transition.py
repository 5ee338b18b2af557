"""Racah-type transition coefficients between iterated-bracket bases.

The coefficient U^{l1,l2;k}_{l3;n,p} expresses a left-nested double bracket
[[f1,f2]_k, f3]_{n-k} in the right-nested basis [f1, [f2,f3]_p]_{n-p}.  U is
served by rows: ``u_row`` gives U_{k,p} for p = 0..n, the whole expansion of
one left nest, and ``u_matrix`` stacks the rows.  The reverse family is the
swap (l1, k) <-> (l3, p): ``u_reverse_matrix`` is ``u_matrix`` of the swapped
triple, and for fixed n the two (n+1)x(n+1) matrices are mutually inverse.

Three independent routes give the same exact entries:

- rows (``u_row``, ``u_matrix``): one cached matrix per (triple, n), built
  with the three-term recurrence of the Racah polynomials in the degree p
  (Koekoek-Lesky-Swarttouw, Hypergeometric Orthogonal Polynomials, (9.2.3);
  Wilson, SIAM J. Math. Anal. 11, 1980), run on integers with one exact
  division per step, O(n^2) integer operations per matrix, and one
  Fraction per entry;
- single entries (``u_coefficient``, ``u_reverse``): one terminating 4F3
  sum (``hypergeom.racah_value``) per entry, uncached, O(n) each;
- columns (``u_generating_poly``): a product of two terminating 2F1s.

Admissibility gate used throughout (and by the rewriter): none of
l1, l2, l3, l1+l2, l2+l3, l1+l2+l3 is a nonpositive integer.  It is written
once, on the weights scaled by an integer d > 0 (``admissible_scaled``: no
scaled sum is <= 0 and divisible by d), and ``ParamTriple.is_admissible``
scales by the lcm of the denominators to call it; ``u_row_scaled`` gates and
reads a row on such integers with no ``Fraction`` built.  Under the
gate every denominator below is provably nonzero: the Pochhammer factors of
the column scale, and the recurrence's exact divisors
(2p+l2+l3-2)(p+l2+l3-1) for 1 <= p <= n-1 (see ``_u_cached``).  The
recurrence is seeded at p = 1 because its p = 0 divisor (l2+l3-2)(l2+l3-1)
vanishes at l2+l3 in {1, 2}, which the gate admits.  The Pochhammer
vanishing check stays in as a hard error for inadmissible use.

The Cohen-Manin-Zagier deformation coefficients t_n^kappa(l1, l2) have two
routes as well: the binomial sum, run on the weights scaled to integers by
one common d (integer ratio rows and an integer lead over one denominator,
one cached reduced integer pair per t_n, ``cmz_t_pair``, which ``cmz_t_sum``
turns into one Fraction) and the closed form as a terminating 4F3
(``cmz_t_closed``, evaluated by ``hypergeom``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

from .hypergeom import (
    BottomPoleError, HypSpec, hyp_terminating_at_one, hyp_terminating_poly, racah_value
)
from .poly import Poly
from .rationals import (
    RationalLike,
    as_rational,
    binom_general,
    common_scale,
    pochhammer,
    rising,
)


class InadmissibleParametersError(ValueError):
    """Weight triple fails the admissibility gate."""


class VanishingDenominatorError(ZeroDivisionError):
    """A denominator Pochhammer is zero (possible only off the gate)."""


def admissible_scaled(l1: int, l2: int, l3: int, d: int) -> bool:
    """The gate at (l1, l2, l3) / d, for an integer d > 0: no l_i, l1+l2, l2+l3
    or l1+l2+l3 is <= 0 and divisible by d (a nonpositive integer once divided)."""
    return not any(
        x <= 0 and not x % d for x in (l1, l2, l3, l1 + l2, l2 + l3, l1 + l2 + l3)
    )


@dataclass(frozen=True)
class ParamTriple:
    lam1: Fraction
    lam2: Fraction
    lam3: Fraction

    def __init__(self, lam1: RationalLike, lam2: RationalLike, lam3: RationalLike) -> None:
        object.__setattr__(self, "lam1", as_rational(lam1))
        object.__setattr__(self, "lam2", as_rational(lam2))
        object.__setattr__(self, "lam3", as_rational(lam3))

    @property
    def total(self) -> Fraction:
        return self.lam1 + self.lam2 + self.lam3

    def scaled(self) -> tuple[int, int, int, int]:
        """(l1, l2, l3, d): the weights times d, the lcm of their denominators."""
        d, (l1, l2, l3) = common_scale(self.lam1, self.lam2, self.lam3)
        return l1, l2, l3, d

    def is_admissible(self) -> bool:
        return admissible_scaled(*self.scaled())

    def swapped_outer(self) -> ParamTriple:
        return ParamTriple(self.lam3, self.lam2, self.lam1)


@dataclass(frozen=True)
class RacahQuery:
    n: int
    k: int
    p: int

    def __post_init__(self) -> None:
        for label, idx in (("n", self.n), ("k", self.k), ("p", self.p)):
            if not isinstance(idx, int) or idx < 0:
                raise ValueError(f"{label} must be a nonnegative integer, got {idx!r}")
        if self.k > self.n or self.p > self.n:
            raise ValueError(f"need 0 <= k, p <= n, got k={self.k}, p={self.p}, n={self.n}")


def _require_admissible(params: ParamTriple) -> None:
    if not params.is_admissible():
        raise InadmissibleParametersError(
            f"weights ({params.lam1}, {params.lam2}, {params.lam3}) fail the gate: "
            "no weight or consecutive partial sum may be a nonpositive integer"
        )


def _nonzero(value: Fraction | int, what: str) -> Fraction | int:
    if not value:
        raise VanishingDenominatorError(f"denominator factor {what} vanishes")
    return value


def _column_scale(lam2: Fraction, lam3: Fraction, total: Fraction, n: int, p: int) -> Fraction:
    """Column-p normalisation (L+n-1)_p / [(l3)_p (l2+l3+p-1)_p (l2+l3+2p)_{n-p}]."""
    return pochhammer(total + n - 1, p) / (
        _nonzero(pochhammer(lam3, p), f"(l3)_{p}")
        * _nonzero(pochhammer(lam2 + lam3 + p - 1, p), f"(l2+l3+p-1)_{p}")
        * _nonzero(pochhammer(lam2 + lam3 + 2 * p, n - p), f"(l2+l3+2p)_{n - p}")
    )


@lru_cache(maxsize=None)
def _u_cached(d: int, l1: int, l2: int, l3: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix U_{k,p} at lam_i = l_i / d, rows k = 0..n, built by the Racah
    recurrence in p.  The key is canonical, gcd(d, l1, l2, l3) = 1, so d is the
    lcm of the weights' denominators (``_u_rows`` divides the gcd out).

    U_{k,p} = C(n,k) (lam2)_k (lam3)_{n-k} * _column_scale(p) * R_p(lambda(k)),
    with lambda(k) = k(k+lam1+lam2-1), R_0 = 1,
    R_1 = 1 - lambda(k)(lam2+lam3) / (n lam2 (L+n-1)) and for 1 <= p <= n-1
    R_{p+1} = ((A_p + C_p + lambda(k)) R_p - C_p R_{p-1}) / A_p, where
    A_p = (p+lam2)(p+lam2+lam3-1)(p+L+n-1)(p-n) / [(2p+lam2+lam3-1)(2p+lam2+lam3)],
    C_p = p(p+lam2+lam3+n-1)(p-lam1-n)(p+lam3-1) / [(2p+lam2+lam3-2)(2p+lam2+lam3-1)].

    It runs on integers of their true size, the weights scaled by d:
    l_i = d lam_i, s = l2+l3,
    T = l1+l2+l3+(n-1)d (``top``), Lambda_k = d lambda(k) = k(kd+l1+l2-d), and
    rho(x, m) = ``rising(x, d, m)`` = d^m (x/d)_m.  The recurrence runs on
    P_p = d^{2p} (lam2)_p (L+n-1)_p (-n)_p R_p = rho(l2, p) rho(T, p) (-n)_p R_p,
    R_p times the Pochhammers of the 4F3's lower parameters, which is an
    integer term by term of the 4F3.  Put h_p = (pd+l2)(pd+T)(p-n), so that
    P_{p+1} / R_{p+1} = h_p P_p / R_p, and b_i = 2pd+s-(2-i)d.  Times
    d b_0 b_1 b_2, A_p, C_p and lambda(k) are h_p e_p, g_p and Lambda_k M_p
    with e_p = b_0 (pd+s-d), g_p = b_2 p(pd+s+(n-1)d)(pd-l1-nd)(pd+l3-d) and
    M_p = b_0 b_1 b_2.  So P_0 = 1, P_1 = Lambda_k s + h_0 and
    P_{p+1} = ((h_p e_p + g_p + Lambda_k M_p) P_p - g_p h_{p-1} P_{p-1}) / e_p,
    a division that is exact, since the quotient is the integer P_{p+1}
    (Bareiss, Math. Comp. 22, 1968).  (L+n-1)_p cancels against the column
    scale's numerator, and d^n against the row weight's, so
    U_{k,p} = C(n,k) rho(l2, k) rho(l3, n-k) P_p
    / [rho(l3, p) rho(s+(p-1)d, p) rho(s+2pd, n-p) rho(l2, p) (-n)_p],
    one Fraction per entry.

    The gate keeps every divisor nonzero: e_p = d^2 (2p+lam2+lam3-2)(p+lam2+lam3-1)
    for 1 <= p <= n-1 (lam2+lam3 shifted by an integer >= 0), the column
    factors, rho(l2, p) (lam2) and (-n)_p for p <= n.  At p = 0, e_0 vanishes
    at lam2+lam3 in {1, 2}, which the gate admits; that is why P_1 is seeded
    rather than recurred.
    """
    s, top = l2 + l3, l1 + l2 + l3 + (n - 1) * d
    # every column is checked before the first row, so a vanishing factor always
    # raises VanishingDenominatorError, as from _column_scale
    dens = [
        _nonzero(rising(l3, d, p), f"(l3)_{p}")
        * _nonzero(rising(s + (p - 1) * d, d, p), f"(l2+l3+p-1)_{p}")
        * _nonzero(rising(s + 2 * p * d, d, n - p), f"(l2+l3+2p)_{n - p}")
        * rising(l2, d, p)
        * rising(-n, 1, p)
        for p in range(n + 1)
    ]
    h = [(p * d + l2) * (p * d + top) * (p - n) for p in range(n)]
    # step p = 1..n-1: P_{p+1} = ((shift + Lambda_k * mult) P_p - back P_{p-1}) // div
    steps = []
    for p in range(1, n):
        b0, b1, b2 = (2 * p * d + s - i * d for i in (2, 1, 0))
        div = b0 * (p * d + s - d)
        g = b2 * p * (p * d + s + (n - 1) * d) * (p * d - l1 - n * d) * (p * d + l3 - d)
        steps.append((h[p] * div + g, b0 * b1 * b2, g * h[p - 1], div))
    rows = []
    for k in range(n + 1):
        lam_k = k * (k * d + l1 + l2 - d)
        values = [1, lam_k * s + h[0]] if n else [1]
        for shift, mult, back, div in steps:
            values.append(((shift + lam_k * mult) * values[-1] - back * values[-2]) // div)
        weight = comb(n, k) * rising(l2, d, k) * rising(l3, d, n - k)
        rows.append(tuple(Fraction(weight * value, den) for value, den in zip(values, dens)))
    return tuple(rows)


def _u_entry(
    lam1: Fraction, lam2: Fraction, lam3: Fraction, n: int, k: int, p: int
) -> Fraction:
    """One entry U_{k,p} from its terminating 4F3 sum (the oracle route)."""
    return (
        binom_general(Fraction(n), k)
        * pochhammer(lam2, k)
        * pochhammer(lam3, n - k)
        * _column_scale(lam2, lam3, lam1 + lam2 + lam3, n, p)
        * racah_value(p, k, n, lam1, lam2, lam3)
    )


def u_coefficient(params: ParamTriple, query: RacahQuery) -> Fraction:
    """U^{l1,l2;k}_{l3;n,p}: left-nested bracket k in the right-nested basis p."""
    _require_admissible(params)
    return _u_entry(params.lam1, params.lam2, params.lam3, query.n, query.k, query.p)


def u_reverse(params: ParamTriple, query: RacahQuery) -> Fraction:
    """Inverse family: coefficient of [[f1,f2]_k, f3]_{n-k} in [f1,[f2,f3]_p]_{n-p}.

    Equals u_coefficient with l1 <-> l3 and k <-> p swapped.
    """
    _require_admissible(params)
    return _u_entry(params.lam3, params.lam2, params.lam1, query.n, query.p, query.k)


def check_row(params: ParamTriple, n: int, k: int) -> None:
    """Gate ``params`` and check 0 <= k <= n, with the messages of a single entry.

    The row readers check the same on scaled integers (``_u_rows``); the
    bracket-solve oracle validates here, once; nothing is computed.
    """
    _require_admissible(params)
    RacahQuery(n, k, 0)


def _u_rows(
    l1: int, l2: int, l3: int, d: int, n: int, k: int
) -> tuple[tuple[Fraction, ...], ...]:
    """The cached matrix at (l1, l2, l3) / d after ``check_row``'s checks, with
    ``check_row``'s messages; a ``ParamTriple`` is built only to raise."""
    if not admissible_scaled(l1, l2, l3, d):
        _require_admissible(ParamTriple(Fraction(l1, d), Fraction(l2, d), Fraction(l3, d)))
    RacahQuery(n, k, 0)
    g = gcd(d, l1, l2, l3)
    return _u_cached(d // g, l1 // g, l2 // g, l3 // g, n)


def u_row_scaled(l1: int, l2: int, l3: int, d: int, n: int, k: int) -> tuple[Fraction, ...]:
    """Row k of U at the weights (l1, l2, l3) / d, for any integer scale d > 0,
    gated and index-checked like ``u_row``; the cached row itself, not a copy."""
    return _u_rows(l1, l2, l3, d, n, k)[k]


def u_row(params: ParamTriple, n: int, k: int) -> list[Fraction]:
    """Row k of u_matrix: [U_{k,p} for p = 0..n], with one gate and index check."""
    return list(u_row_scaled(*params.scaled(), n, k))


def u_matrix(params: ParamTriple, n: int) -> list[list[Fraction]]:
    """Rows k = 0..n, columns p = 0..n."""
    return [list(row) for row in _u_rows(*params.scaled(), n, 0)]


def u_reverse_matrix(params: ParamTriple, n: int) -> list[list[Fraction]]:
    """Rows p = 0..n, columns k = 0..n; the exact inverse of u_matrix."""
    return u_matrix(params.swapped_outer(), n)


def u_generating_poly(params: ParamTriple, n: int, p: int) -> Poly:
    """Generating polynomial G(t) = sum_k U^{..;k}_{..;n,p} t^k.

    Closed product form: the prefactor
    (l3)_n (L+n-1)_p / [(l3)_p (l2+l3+p-1)_p (l2+l3+2p)_{n-p}]   (L = l1+l2+l3)
    times 2F1(-p, l1+n-p; L+n-1; t) * 2F1(p-n, p+l2; -l3-n+1; t).
    Its value at t = 1 is 1 (row-sum normalization over k for fixed p).
    """
    _require_admissible(params)
    if not isinstance(n, int) or not isinstance(p, int) or not 0 <= p <= n:
        raise ValueError(f"need integers 0 <= p <= n, got p={p!r}, n={n!r}")
    lam1, lam2, lam3 = params.lam1, params.lam2, params.lam3
    total = params.total
    prefactor = pochhammer(lam3, n) * _column_scale(lam2, lam3, total, n, p)
    first = hyp_terminating_poly(HypSpec((-p, lam1 + n - p), (total + n - 1,)))
    second = hyp_terminating_poly(HypSpec((p - n, p + lam2), (-lam3 - n + 1,)))
    return prefactor * (first * second)


# -- CMZ deformation coefficients ------------------------------------------------


def _ratio_products(x: int, y: int, z: int, d: int, n: int) -> tuple[list[int], list[int]]:
    """Integer rows for C(x/d, j) C(y/d, j) / C(z/d, j), j = 0..n, over one denominator.

    heads[j] is the product of (x - i d)(y - i d) over i < j, and tails[j] the
    product of d (i+1)(z - i d) over n - j <= i < n, so the quotient at j is
    heads[j] * tails[n-j] / tails[n].  tails[n] is 0 exactly when some
    C(z/d, j) with j <= n vanishes.
    """
    heads, tails = [1], [1]
    for i in range(n):
        heads.append(heads[-1] * (x - i * d) * (y - i * d))
    for i in reversed(range(n)):
        tails.append(tails[-1] * d * (i + 1) * (z - i * d))
    return heads, tails


def _scaled_binom(x: int, d: int, n: int) -> int:
    """d^n n! C(x/d, n) = x (x - d) ... (x - (n-1) d), from C(y, n) = (y-n+1)_n / n!."""
    return rising(x - (n - 1) * d, d, n)


@lru_cache(maxsize=None)
def _cmz_sum(k: int, a: int, b: int, d: int, n: int) -> tuple[int, int]:
    """t_n at kappa = k/d, l1 = a/d, l2 = b/d as a reduced pair (num, den), den > 0:
    t_n = sum_r C(-l1, r) C(-l1+kappa-1, r) C(m-kappa, s) C(m-1, s)
    / [C(-2*l1, r) C(2m-2, s)] / C(-2*l2, n), with s = n - r, m = n + l1 + l2.

    Both quotient rows come from ``_ratio_products`` on the d-scaled
    integers, and so does the lead C(-2*l2, n), as ``_scaled_binom(-2*b, d, n)``
    over d^n n!, so the sum runs on integers over one common denominator and
    is reduced by one gcd.  Any common scale d > 0 of the three gives the
    same pair.
    """
    lead = _scaled_binom(-2 * b, d, n)
    if not lead:
        raise VanishingDenominatorError(f"leading factor C(-2*l2, {n}) vanishes")
    md = n * d + a + b
    f_heads, f_tails = _ratio_products(-a, k - a - d, -2 * a, d, n)
    g_heads, g_tails = _ratio_products(md - k, md - d, 2 * (md - d), d, n)
    if not (f_tails[n] and g_tails[n]):
        # C(2m-2, s) fails first at s = n (r = 0); C(-2*l1, r) fails from r = 1 - 2*l1 on
        r = 0 if not g_tails[n] else 1 - 2 * a // d
        raise VanishingDenominatorError(
            f"denominator C(-2*l1, {r}) * C(2n+2*l1+2*l2-2, {n - r}) vanishes"
        )
    total = sum(f_heads[r] * f_tails[n - r] * g_heads[n - r] * g_tails[r] for r in range(n + 1))
    num, den = total * d**n * factorial(n), f_tails[n] * g_tails[n] * lead
    divisor = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // divisor, den // divisor


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")


def cmz_t_pair(k: int, a: int, b: int, d: int, n: int) -> tuple[int, int]:
    """t_n^kappa(l1, l2) as a reduced integer pair (num, den) with den > 0, on
    the weights scaled by one integer d > 0: kappa = k/d, l1 = a/d, l2 = b/d.

    d may be any common scale of the three, such as the lcm of the
    denominators of every weight of a star product; the pair does not
    depend on it.
    """
    _check_order(n)
    return _cmz_sum(k, a, b, d, n)


def cmz_t_sum(kappa: RationalLike, lam1: RationalLike, lam2: RationalLike, n: int) -> Fraction:
    """Deformation coefficient t_n^kappa(l1, l2), binomial-sum form."""
    _check_order(n)
    d, (k, a, b) = common_scale(as_rational(kappa), as_rational(lam1), as_rational(lam2))
    return Fraction(*_cmz_sum(k, a, b, d, n))


def cmz_t_closed(kappa: RationalLike, lam1: RationalLike, lam2: RationalLike, n: int) -> Fraction:
    """Deformation coefficient t_n^kappa(l1, l2), closed form (Cohen-Manin-Zagier):

    (-1/4)^n 4F3(-n/2, (1-n)/2, 3/2-kappa, kappa-1/2; l1+1/2, l2+1/2, 3/2-n-l1-l2; 1).

    Term j is C(n, 2j) C(-1/2, j) C(kappa-3/2, j) C(1/2-kappa, j)
    / [C(-l1-1/2, j) C(-l2-1/2, j) C(n+l1+l2-3/2, j)], since
    C(n, 2j) = (-n/2)_j ((1-n)/2)_j / ((1/2)_j j!) and C(x, j) = (-1)^j (-x)_j / j!.
    The bottoms are checked for every j <= n//2 even when kappa = 1/2 or 3/2
    stops the series at j = 0.
    """
    _check_order(n)
    kappa, lam1, lam2 = as_rational(kappa), as_rational(lam1), as_rational(lam2)
    half = Fraction(1, 2)
    spec = HypSpec(
        (Fraction(-n, 2), Fraction(1 - n, 2), 1 + half - kappa, kappa - half),
        (lam1 + half, lam2 + half, 1 + half - n - lam1 - lam2),
    )
    try:
        spec.check_bottom(n // 2)
        return Fraction(-1, 4) ** n * hyp_terminating_at_one(spec)
    except BottomPoleError as err:
        raise VanishingDenominatorError(str(err)) from None
