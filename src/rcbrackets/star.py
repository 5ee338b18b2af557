"""Truncated Eholzer star product on weight-graded symbol series.

A :class:`StarSeries` is a formal series sum_m hbar^m a_m truncated at a
fixed order, where every coefficient a_m is a finite sum of weighted forms,
stored as a weight -> polynomial map.  The product couples two series
through Rankin-Cohen brackets,

    (a * b)_m = sum_{i+j+n=m} [a_i, b_j]_n,

optionally rescaling the degree-n bracket of weights (w1, w2) by the
deformation coefficient t_n^kappa(w1, w2).

Both ``star`` and ``assoc_defect`` run on integers from input to output,
through one shared loop, ``_product``: the weights and kappa are scaled to
integers by one common d, so slice keys are integers and t_n^kappa is a
reduced integer pair, read by rows (``transition.cmz_t_row``, one per pair of
operand slices for all the orders that pair reaches); the brackets come from
the integer kernel of ``brackets`` as ``poly.Numerators``, one kernel call
per pair of operand slices for all the orders that pair reaches, at the
pair's slice keys over d, so no weight is a ``Fraction`` inside the loop.
``assoc_defect`` keeps its inner products as ``Numerators``, and every
output (order, weight) slice is summed with ``poly._sum`` and reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .brackets import WeightedForm, _bracket_kernel
from .poly import Numerators, Poly, _numerators, _reduced, _sum
from .rationals import RationalLike, as_rational, common_scale
from .transition import cmz_t_row

WeightSlice = Mapping[Fraction, Poly]


class TruncationMismatchError(ValueError):
    """Arithmetic between series truncated at different orders."""


class StarSeries:
    """hbar-adically truncated series of weight-graded coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[WeightSlice] | None = None) -> None:
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"truncation order must be a nonnegative integer, got {order!r}")
        self.order = order
        slices: list[dict[Fraction, Poly]] = [{} for _ in range(order + 1)]
        for m, layer in enumerate(coeffs or ()):
            if m > order:
                raise TruncationMismatchError(f"coefficient at order {m} beyond truncation {order}")
            for weight, form in layer.items():
                if not form.is_zero():
                    slices[m][as_rational(weight)] = form.lift(("z",))
        self.coeffs = slices

    @classmethod
    def inject(cls, f: WeightedForm, order: int) -> StarSeries:
        """Embed a single weighted form at hbar-order zero."""
        return cls(order, [{f.weight: f.form}])

    def _check_order(self, other: StarSeries) -> None:
        if self.order != other.order:
            raise TruncationMismatchError(f"orders differ: {self.order} vs {other.order}")

    def _merged(self, sign: int, other: StarSeries) -> StarSeries:
        out = StarSeries(self.order)
        for m in range(self.order + 1):
            layer = {w: p for w, p in self.coeffs[m].items()}
            for w, p in other.coeffs[m].items():
                acc = layer.get(w, Poly.zero(("z",))) + sign * p
                if acc.is_zero():
                    layer.pop(w, None)
                else:
                    layer[w] = acc
            out.coeffs[m] = layer
        return out

    def __add__(self, other: StarSeries) -> StarSeries:
        self._check_order(other)
        return self._merged(1, other)

    def __sub__(self, other: StarSeries) -> StarSeries:
        self._check_order(other)
        return self._merged(-1, other)

    def is_zero(self) -> bool:
        return all(not layer for layer in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def forms(self, m: int) -> list[WeightedForm]:
        """Order-m coefficients as weighted forms, sorted by weight."""
        return [WeightedForm(w, p) for w, p in sorted(self.coeffs[m].items())]

    def __repr__(self) -> str:
        layers = []
        for m, layer in enumerate(self.coeffs):
            for w, p in sorted(layer.items()):
                layers.append(f"h^{m} w={w}: {p}")
        return "StarSeries(" + "; ".join(layers) + ")" if layers else "StarSeries(0)"


# Slices on integers: per hbar order, d * weight -> numerators, with d one common
# scale of kappa and of every weight in play.
Layers = list[dict[int, Numerators]]
# Bracket pieces per hbar order and d * weight, not yet summed.
Pieces = list[dict[int, list[Numerators]]]


def _scaled(kappa: Fraction | None, *series: StarSeries) -> tuple[int, int | None, list[Layers]]:
    """The common scale d, d * kappa (None for None) and each series' slices as ``Layers``."""
    weights = [w for one in series for layer in one.coeffs for w in layer]
    d, (k, *scaled) = common_scale(Fraction(1) if kappa is None else kappa, *weights)
    keys = dict(zip(weights, scaled))
    layers = [
        [{keys[w]: _numerators(p.terms) for w, p in layer.items()} for layer in one.coeffs]
        for one in series
    ]
    return d, None if kappa is None else k, layers


def _product(left: Layers, right: Layers, d: int, k: int | None) -> Pieces:
    """The bracket pieces of left * right, truncated at the order of ``left``,
    with k = d * kappa (None for unit deformation coefficients).

    Each pair of slices (a_i at d * w1 = a, b_j at d * w2 = b) goes through
    the bracket kernel once, at the weights (a, b) over d, for every order
    n <= order - i - j.  The pair's slice keys a + b + 2dn and its t_n^kappa
    for every such n, one ``cmz_t_row`` of reduced integer pairs, are computed
    once, before the kernel runs, so an invalid t_n raises at its first order.
    """
    order = len(left) - 1
    pieces: Pieces = [{} for _ in left]
    for i, layer1 in enumerate(left):
        for j, layer2 in enumerate(right[: order + 1 - i]):
            orders = range(order + 1 - i - j)
            for a, f in layer1.items():
                for b, g in layer2.items():
                    keys = [a + b + 2 * d * n for n in orders]
                    scales = (
                        [(1, 1)] * len(orders) if k is None else cmz_t_row(k, a, b, d, orders)
                    )
                    brackets = _bracket_kernel(a, b, d, f, g, orders)
                    for n, key, (num, den), (nums, nums_den) in zip(orders, keys, scales, brackets):
                        if not num:
                            continue
                        if num != 1:
                            nums = {e: v * num for e, v in nums.items()}
                        pieces[i + j + n].setdefault(key, []).append((nums, nums_den * den))
    return pieces


def _content_free(pieces: Pieces) -> Layers:
    """Each (order, weight) group summed, trimmed of zero entries and divided
    by the gcd of its content, so that its denominator is the lcm of its
    reduced coefficients' denominators, as ``_numerators`` of the reduced
    slice would give; a slice that cancels is dropped."""
    out = []
    for groups in pieces:
        layer = {}
        for key, group in groups.items():
            nums, den = _sum(group)
            nums = {e: v for e, v in nums.items() if v}
            if nums:
                c = gcd(den, *nums.values())
                layer[key] = {e: v // c for e, v in nums.items()}, den // c
        out.append(layer)
    return out


def _series(order: int, pieces: Pieces, d: int) -> StarSeries:
    """Each (order, weight) group summed and reduced once; zero slices are dropped."""
    out = StarSeries(order)
    for m, groups in enumerate(pieces):
        layer = {key: _reduced(("z",), _sum(group)) for key, group in groups.items()}
        out.coeffs[m] = {Fraction(key, d): p for key, p in layer.items() if not p.is_zero()}
    return out


def star(a: StarSeries, b: StarSeries, kappa: RationalLike | None = None) -> StarSeries:
    """Truncated star product; kappa = None means unit deformation coefficients.

    kappa and the weights of both operands are scaled to integers by one
    common d, and each operand slice goes to integer numerators once.  The
    shared loop ``_product`` calls the bracket kernel once per pair of
    slices, for every order that pair reaches, and scales each piece by
    t_n^kappa as a reduced integer pair; each output (order, weight) slice
    sums its pieces over one denominator and is reduced once.
    """
    a._check_order(b)
    if kappa is not None:
        kappa = as_rational(kappa)
    d, k, (left, right) = _scaled(kappa, a, b)
    return _series(a.order, _product(left, right, d, k), d)


def assoc_defect(
    f: WeightedForm,
    g: WeightedForm,
    h: WeightedForm,
    order: int,
    kappa: RationalLike | None = None,
) -> StarSeries:
    """(f * g) * h - f * (g * h), all truncated at the given hbar order.

    f, g and h go to integer numerators once, through the same ``_product``
    loop as ``star``, and the inner products f * g and g * h stay
    ``Numerators`` (content-free, as their reduced slices would convert).
    The right side is (-f) * (g * h), so each (order, weight) slice of the
    defect is one ``poly._sum`` over both sides' pieces, reduced once.  The
    products run in the order of the nested ``star`` calls, so an invalid
    t_n raises the same error as ``star`` would.
    """
    sf, sg, sh = (StarSeries.inject(x, order) for x in (f, g, h))
    if kappa is not None:
        kappa = as_rational(kappa)
    d, k, (lf, lg, lh) = _scaled(kappa, sf, sg, sh)
    lhs = _product(_content_free(_product(lf, lg, d, k)), lh, d, k)
    minus_f = [
        {a: ({e: -v for e, v in nums.items()}, den) for a, (nums, den) in layer.items()}
        for layer in lf
    ]
    rhs = _product(minus_f, _content_free(_product(lg, lh, d, k)), d, k)
    for lhs_groups, rhs_groups in zip(lhs, rhs):
        for key, group in rhs_groups.items():
            lhs_groups.setdefault(key, []).extend(group)
    return _series(order, lhs, d)
