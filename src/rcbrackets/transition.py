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
  Wilson, SIAM J. Math. Anal. 11, 1980), O(n^2) integer operations per
  matrix on the weights scaled to integers, and one Fraction per entry;
- single entries (``u_coefficient``, ``u_reverse``): one terminating 4F3
  sum (``hypergeom.racah_value``) per entry, uncached, O(n) each;
- columns (``u_generating_poly``): a product of two terminating 2F1s.

Admissibility gate used throughout (and by the rewriter): none of
l1, l2, l3, l1+l2, l2+l3, l1+l2+l3 is a nonpositive integer.  Under the
gate every denominator below is provably nonzero: the Pochhammer factors of
the column scale, and the recurrence's divisors for 1 <= p <= n-1 (see
``_u_cached``); the recurrence is seeded at R_1 because its p = 0 step is
0/0 at l2+l3 = 1, which the gate admits.  The Pochhammer vanishing check
stays in as a hard error for inadmissible use.

The Cohen-Manin-Zagier deformation coefficients t_n^kappa(l1, l2) have two
routes as well: the binomial sum (``cmz_t_sum``, integer ratio rows over one
denominator, one cached Fraction per t_n) and the closed form as a
terminating 4F3 (``cmz_t_closed``, evaluated by ``hypergeom``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .hypergeom import (
    BottomPoleError, HypSpec, hyp_terminating_at_one, hyp_terminating_poly, racah_value
)
from .poly import Poly
from .rationals import RationalLike, as_rational, binom_general, is_nonpositive_integer, pochhammer


class InadmissibleParametersError(ValueError):
    """Weight triple fails the admissibility gate."""


class VanishingDenominatorError(ZeroDivisionError):
    """A denominator Pochhammer is zero (possible only off the gate)."""


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

    def is_admissible(self) -> bool:
        values = (
            self.lam1,
            self.lam2,
            self.lam3,
            self.lam1 + self.lam2,
            self.lam2 + self.lam3,
            self.total,
        )
        return not any(is_nonpositive_integer(value) for value in values)

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


def _common_scale(*values: Fraction) -> tuple[int, list[int]]:
    """(d, [d * value, ...]) with d the lcm of the denominators, so every entry is an integer."""
    d = lcm(*(value.denominator for value in values))
    return d, [value.numerator * (d // value.denominator) for value in values]


def _rising(x: int, d: int, m: int) -> int:
    """d^m (x/d)_m = x (x + d) ... (x + (m-1) d)."""
    out = 1
    for i in range(m):
        out *= x + i * d
    return out


def _racah_steps(l1: int, l2: int, l3: int, d: int, n: int) -> list[tuple[int, int, int]]:
    """Per degree p = 1..n-1: the integers (alpha_p, gamma_p, M_p) of the
    three-term recurrence at the weights lam_i = l_i / d.

    With s = 2pd + l2 + l3 = d (2p + lam2 + lam3) and t = l1 + l2 + l3,
    A_p = (p+lam2)(p+lam2+lam3-1)(p+L+n-1)(p-n) / [(2p+lam2+lam3-1)(2p+lam2+lam3)]
    and C_p = p(p+lam2+lam3+n-1)(p-lam1-n)(p+lam3-1) / [(2p+lam2+lam3-2)(2p+lam2+lam3-1)]
    are a_p / (d (s-d) s) and c_p / (d (s-2d)(s-d)) with
    a_p = (pd+l2)(s-pd-d)(pd+t+(n-1)d)(p-n) and c_p = p(s-pd+(n-1)d)(pd-l1-nd)(pd+l3-d).
    Times d M_p, M_p = (s-2d)(s-d)s, they are alpha_p = a_p (s-2d) and gamma_p = c_p s.
    """
    t = l1 + l2 + l3
    steps = []
    for p in range(1, n):
        s = 2 * p * d + l2 + l3
        a = (p * d + l2) * (s - p * d - d) * (p * d + t + (n - 1) * d) * (p - n)
        c = p * (s - p * d + (n - 1) * d) * (p * d - l1 - n * d) * (p * d + l3 - d)
        steps.append((a * (s - 2 * d), c * s, (s - 2 * d) * (s - d) * s))
    return steps


@lru_cache(maxsize=None)
def _u_cached(
    lam1: Fraction, lam2: Fraction, lam3: Fraction, n: int
) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix U_{k,p}, rows k = 0..n, built by the Racah recurrence in p.

    U_{k,p} = C(n,k) (lam2)_k (lam3)_{n-k} * _column_scale(p) * R_p(lambda(k)),
    with lambda(k) = k(k+lam1+lam2-1), R_0 = 1,
    R_1 = 1 - lambda(k)(lam2+lam3) / (n lam2 (L+n-1)) and for 1 <= p <= n-1
    R_{p+1} = ((A_p + C_p + lambda(k)) R_p - C_p R_{p-1}) / A_p.

    It runs fraction-free on the weights scaled to integers, l_i = d lam_i
    with d the lcm of their denominators (``_common_scale``), t = l1+l2+l3.
    With alpha_p, gamma_p and M_p from ``_racah_steps``,
    Lambda_k = d lambda(k) = k(kd+l1+l2-d) and Q = n l2 (t+(n-1)d),
    R_p = N_p / (Q alpha_1 ... alpha_{p-1}), where N_0 = Q,
    N_1 = Q - Lambda_k (l2+l3) and
    N_{p+1} = beta_p(k) N_p - gamma_p alpha_{p-1} N_{p-1},
    beta_p(k) = alpha_p + gamma_p + Lambda_k M_p,
    with the alpha_{p-1} factor left out at p = 1.  Over rising products
    (x/d)_m = ``_rising(x, d, m)`` / d^m, the column scale is
    ``_rising(t+(n-1)d, d, p)`` d^n over those of (l3)_p, (l2+l3+p-1)_p and
    (l2+l3+2p)_{n-p}, and the row weight C(n,k) ``_rising(l2, d, k)``
    ``_rising(l3, d, n-k)`` / d^n, so d^n cancels and each entry is one
    Fraction of integers.

    The gate keeps every divisor nonzero: Q (n >= 1, and lam2, L+n-1 are off
    zero), and for 1 <= p <= n-1 every factor of alpha_p: p+lam2 (lam2),
    p+lam2+lam3-1 and 2p+lam2+lam3-2 (lam2+lam3, shifted by an integer >= 0),
    p+L+n-1 (L, shifted by p+n-1 >= 0) and p-n < 0.  At p = 0 and
    lam2+lam3 = 1, which the gate admits, A_0 is 0/0; that is why R_1 is
    seeded rather than recurred.
    """
    d, (l1, l2, l3) = _common_scale(lam1, lam2, lam3)
    t, l23 = l1 + l2 + l3, l2 + l3
    q = n * l2 * (t + (n - 1) * d) if n else 1
    steps = _racah_steps(l1, l2, l3, d, n)
    alphas = [alpha for alpha, _, _ in steps]
    scales = [
        (
            _rising(t + (n - 1) * d, d, p),
            _nonzero(_rising(l3, d, p), f"(l3)_{p}")
            * _nonzero(_rising(l23 + (p - 1) * d, d, p), f"(l2+l3+p-1)_{p}")
            * _nonzero(_rising(l23 + 2 * p * d, d, n - p), f"(l2+l3+2p)_{n - p}"),
        )
        for p in range(n + 1)
    ]
    # every column is checked before any reduction, so a vanishing factor always
    # raises VanishingDenominatorError, as from _column_scale
    columns = []
    below = q  # Q alpha_1 ... alpha_{p-1}
    for p, (num, den) in enumerate(scales):
        den *= below
        g = gcd(num, den)
        columns.append((num // g, den // g))
        if 1 <= p < n:
            below *= alphas[p - 1]
    # beta_p(k) = shift + Lambda_k * mult; back = gamma_p alpha_{p-1}
    recur = [
        (alpha + gamma, mult, gamma * back)
        for (alpha, gamma, mult), back in zip(steps, [1] + alphas)
    ]
    rows = []
    for k in range(n + 1):
        lam_k = k * (k * d + l1 + l2 - d)
        values = [q, q - lam_k * l23]
        for shift, mult, back in recur:
            values.append((shift + lam_k * mult) * values[-1] - back * values[-2])
        weight = comb(n, k) * _rising(l2, d, k) * _rising(l3, d, n - k)
        # zip stops at the n+1 columns, so N_1 is dropped at n = 0
        rows.append(
            tuple(Fraction(weight * num * value, den) for (num, den), value in zip(columns, values))
        )
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

    Every reader of a row of U (and the bracket-solve oracle) validates here,
    once; nothing is computed.
    """
    _require_admissible(params)
    RacahQuery(n, k, 0)


def u_row(params: ParamTriple, n: int, k: int) -> list[Fraction]:
    """Row k of u_matrix: [U_{k,p} for p = 0..n], with one gate and index check."""
    check_row(params, n, k)
    return list(_u_cached(params.lam1, params.lam2, params.lam3, n)[k])


def u_matrix(params: ParamTriple, n: int) -> list[list[Fraction]]:
    """Rows k = 0..n, columns p = 0..n."""
    check_row(params, n, 0)
    return [list(row) for row in _u_cached(params.lam1, params.lam2, params.lam3, n)]


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


@lru_cache(maxsize=None)
def _cmz_sum(kappa: Fraction, lam1: Fraction, lam2: Fraction, n: int) -> Fraction:
    """t_n = sum_r C(-l1, r) C(-l1+kappa-1, r) C(m-kappa, s) C(m-1, s)
    / [C(-2*l1, r) C(2m-2, s)] / C(-2*l2, n), with s = n - r, m = n + l1 + l2.

    Both quotient rows come from ``_ratio_products`` on the weights scaled to
    integers by d = lcm of the three denominators, so the sum runs on
    integers over one common denominator and t_n is the one Fraction built.
    """
    lead = binom_general(-2 * lam2, n)
    if not lead:
        raise VanishingDenominatorError(f"leading factor C(-2*l2, {n}) vanishes")
    d, (k, a, b) = _common_scale(kappa, lam1, lam2)
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
    return Fraction(total * lead.denominator, f_tails[n] * g_tails[n] * lead.numerator)


def cmz_t_sum(kappa: RationalLike, lam1: RationalLike, lam2: RationalLike, n: int) -> Fraction:
    """Deformation coefficient t_n^kappa(l1, l2), binomial-sum form."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    return _cmz_sum(as_rational(kappa), as_rational(lam1), as_rational(lam2), n)


def cmz_t_closed(kappa: RationalLike, lam1: RationalLike, lam2: RationalLike, n: int) -> Fraction:
    """Deformation coefficient t_n^kappa(l1, l2), closed form (Cohen-Manin-Zagier):

    (-1/4)^n 4F3(-n/2, (1-n)/2, 3/2-kappa, kappa-1/2; l1+1/2, l2+1/2, 3/2-n-l1-l2; 1).

    Term j is C(n, 2j) C(-1/2, j) C(kappa-3/2, j) C(1/2-kappa, j)
    / [C(-l1-1/2, j) C(-l2-1/2, j) C(n+l1+l2-3/2, j)], since
    C(n, 2j) = (-n/2)_j ((1-n)/2)_j / ((1/2)_j j!) and C(x, j) = (-1)^j (-x)_j / j!.
    The bottoms are checked for every j <= n//2 even when kappa = 1/2 or 3/2
    stops the series at j = 0.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
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
