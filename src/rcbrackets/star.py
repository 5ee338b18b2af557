"""Truncated Eholzer star product on weight-graded symbol series.

A :class:`StarSeries` is a formal series sum_m hbar^m a_m truncated at a
fixed order, where every coefficient a_m is a finite sum of weighted forms,
stored as a weight -> polynomial map.  The product couples two series
through Rankin-Cohen brackets,

    (a * b)_m = sum_{i+j+n=m} [a_i, b_j]_n,

optionally rescaling the degree-n bracket of weights (w1, w2) by the
deformation coefficient t_n^kappa(w1, w2).  The brackets come from the
integer kernel of ``brackets`` as ``poly.Numerators``, one kernel call per
pair of operand slices for all the orders that pair reaches, and are summed
and reduced with ``poly``'s own helpers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .brackets import WeightedForm, _bracket_kernel
from .poly import Numerators, Poly, _numerators, _reduced, _sum
from .rationals import RationalLike, as_rational
from .transition import cmz_t_sum

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


def star(a: StarSeries, b: StarSeries, kappa: RationalLike | None = None) -> StarSeries:
    """Truncated star product; kappa = None means unit deformation coefficients.

    Each slice of both operands goes to integer numerators once, and each
    pair of slices (a_i at weight w1, b_j at weight w2) goes through the
    bracket kernel once, for every order n <= order - i - j.  Every output
    (order, weight) slice sums its bracket pieces, each scaled by t_n^kappa
    when kappa is given, over one denominator and is reduced once.
    """
    a._check_order(b)
    if kappa is not None:
        kappa = as_rational(kappa)
    left = [{w: _numerators(p.terms) for w, p in layer.items()} for layer in a.coeffs]
    right = [{w: _numerators(p.terms) for w, p in layer.items()} for layer in b.coeffs]
    pieces: list[dict[Fraction, list[Numerators]]] = [{} for _ in range(a.order + 1)]
    for i, layer1 in enumerate(left):
        for j, layer2 in enumerate(right[: a.order + 1 - i]):
            orders = range(a.order + 1 - i - j)
            for w1, f in layer1.items():
                for w2, g in layer2.items():
                    for n, (nums, den) in zip(orders, _bracket_kernel(w1, w2, f, g, orders)):
                        scale = 1 if kappa is None else cmz_t_sum(kappa, w1, w2, n)
                        if not scale:
                            continue
                        if scale != 1:
                            nums = {e: v * scale.numerator for e, v in nums.items()}
                            den *= scale.denominator
                        pieces[i + j + n].setdefault(w1 + w2 + 2 * n, []).append((nums, den))
    out = StarSeries(a.order)
    for m, groups in enumerate(pieces):
        layer = {w: _reduced(("z",), _sum(group)) for w, group in groups.items()}
        out.coeffs[m] = {w: p for w, p in layer.items() if not p.is_zero()}
    return out


def assoc_defect(
    f: WeightedForm,
    g: WeightedForm,
    h: WeightedForm,
    order: int,
    kappa: RationalLike | None = None,
) -> StarSeries:
    """(f * g) * h - f * (g * h), all truncated at the given hbar order."""
    sf = StarSeries.inject(f, order)
    sg = StarSeries.inject(g, order)
    sh = StarSeries.inject(h, order)
    return star(star(sf, sg, kappa), sh, kappa) - star(sf, star(sg, sh, kappa), kappa)
