"""Rankin-Cohen brackets on weighted polynomial stand-ins.

A :class:`WeightedForm` is a polynomial in z tagged with a rational weight;
the degree-n bracket of weights (a, b) is

    [f, g]_n = sum_s (-1)^s C(a+n-1, n-s) C(b+n-1, s) f^(s) g^(n-s)

with plain (unnormalized) derivatives, and the result carries weight
a + b + 2n.  Bracket expression trees (leaves = numbered function slots,
nodes = brackets with an order) evaluate bottom-up with that weight rule.
The coefficient row is integers from the start: ``bracket_coeff_row``
gives it over the lcm of its denominators, and a table per
(weight1, weight2, n) keeps its nonzero entries and memoizes the bracket of
two monomials for the compiled tree evaluator.  The general bracket is one
kernel that takes and returns ``poly.Numerators``, the format ``star`` sums
its pieces in, and serves every order of a range at once: it reads the
derivatives of both polynomials as big integers at X = 2^W (Kronecker
substitution), multiplies them with Python's integer product and reads the
result's signed base-2^W digits back.  W is one bit wider than the largest
bound, over the orders, on an output coefficient: the sum over the row of
|c_s| times the absolute coefficient sums of f^(s) and g^(n-s).  Both paths
build a ``Fraction`` only for what they return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import perm, prod
from typing import Callable, Mapping, Sequence, Union

from .hypergeom import bracket_coeff_row, jacobi_two_var
from .poly import Numerators, Poly, _numerators, _reduced
from .rationals import RationalLike, as_rational


class WeightedForm:
    """A polynomial in z tagged with the rational weight it transforms at."""

    __slots__ = ("weight", "form")

    def __init__(self, weight: RationalLike, form: Poly) -> None:
        if form.vars not in ((), ("z",)):
            raise ValueError(f"weighted forms live in the variable z, got {form.vars}")
        self.weight = as_rational(weight)
        self.form = form if form.vars == ("z",) else form.lift(("z",))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedForm):
            return NotImplemented
        return self.weight == other.weight and self.form == other.form

    def __repr__(self) -> str:
        return f"WeightedForm(weight={self.weight}, form={self.form})"


def monomial_form(weight: RationalLike, degree: int, coeff: RationalLike = 1) -> WeightedForm:
    """Convenience: coeff * z^degree at the given weight."""
    return WeightedForm(weight, Poly.monomial(("z",), {"z": degree}, coeff))


MonomialTable = tuple[tuple[tuple[int, int], ...], int, dict[tuple[int, int], int]]


@lru_cache(maxsize=None)
def _monomial_bracket(weight1: Fraction, weight2: Fraction, n: int) -> MonomialTable:
    """The order-n bracket at weights (weight1, weight2) on integers: ``(row, den, memo)``.

    ``row`` holds (s, den * c_s) for each nonzero entry c_s of the integer
    row of ``bracket_coeff_row``, and ``den`` is that row's ``den``, the lcm
    of the reduced denominators of the c_s.  ``memo`` starts empty;
    :func:`_compile` fills ``memo[d1, d2]`` with den times the coefficient of
    [z^d1, z^d2]_n = sum_s c_s d1^(s) d2^(n-s) z^(d1+d2-n), where d^(s) is
    the falling factorial (0 for s > d).
    """
    row, den = bracket_coeff_row(weight1, weight2, n)
    return tuple((s, c) for s, c in enumerate(row) if c), den, {}


# -- the general bracket on integer numerators ----------------------------------


def _derivatives(nums: dict[tuple[int, ...], int], top: int) -> list[list[int]]:
    """Dense coefficient lists of the numerators' derivatives of order 0..top,
    lowest degree first; a derivative of order above the degree is empty."""
    coeffs = [0] * (max(nums, default=(-1,))[0] + 1)
    for (d,), v in nums.items():
        coeffs[d] = v
    out = [coeffs]
    for _ in range(min(top, len(coeffs) - 1)):
        coeffs = [d * v for d, v in enumerate(coeffs) if d]
        out.append(coeffs)
    return out


def _pack(coeffs: list[int], width: int) -> int:
    """sum_k coeffs[k] 2^(width k): the coefficient list read at X = 2^width."""
    out = 0
    for v in reversed(coeffs):
        out = (out << width) + v
    return out


def _bracket_kernel(
    weight1: Fraction, weight2: Fraction, f: Numerators, g: Numerators, orders: range
) -> list[Numerators]:
    """[f, g]_n of two z-polynomials over ("z",) for every n in ``orders``, each
    over the product of its row's ``den`` and the two input denominators.

    Kronecker substitution: F_s = f^(s) and G_t = g^(t) are read at X = 2^W,
    once for all orders, so [f, g]_n is the integer sum_s c_s F_s G_{n-s}
    (c_s the scaled row of :func:`_monomial_bracket`), whose base-2^W digits
    are the wanted coefficients.  Every coefficient of that sum is at most
    sum_s |c_s| |F_s|_1 |G_{n-s}|_1 in absolute value (|.|_1 the sum of the
    absolute coefficients), and W is one bit wider than the largest such
    bound over ``orders``, so each coefficient is a signed digit below
    2^(W-1) and is read back exactly.  No ``Fraction`` is built and the
    results are not reduced.
    """
    (f_nums, f_den), (g_nums, g_den) = f, g
    top = max(orders, default=0)
    f_ders, g_ders = _derivatives(f_nums, top), _derivatives(g_nums, top)
    f_norms = [sum(map(abs, coeffs)) for coeffs in f_ders]
    g_norms = [sum(map(abs, coeffs)) for coeffs in g_ders]
    tables = []
    width = 1
    for n in orders:
        row, den, _ = _monomial_bracket(weight1, weight2, n)
        # the terms (c_s, s, n - s) whose derivatives are both nonzero
        terms = [(c, s, n - s) for s, c in row if s < len(f_ders) and n - s < len(g_ders)]
        bound = sum(abs(c) * f_norms[s] * g_norms[t] for c, s, t in terms)
        width = max(width, bound.bit_length() + 1)
        tables.append((terms, den * f_den * g_den))
    f_packed = [_pack(coeffs, width) for coeffs in f_ders]
    g_packed = [_pack(coeffs, width) for coeffs in g_ders]
    # f g has ``size`` coefficients and [f, g]_n the lowest size - n of them;
    # adding half to every digit makes them all nonnegative, so none borrows
    size = len(f_ders[0]) + len(g_ders[0]) - 1 if f_nums and g_nums else 0
    half, mask = 1 << (width - 1), (1 << width) - 1
    offset = half * ((1 << (width * size)) - 1) // mask
    out = []
    for n, (terms, den) in zip(orders, tables):
        value = sum(c * f_packed[s] * g_packed[t] for c, s, t in terms) + offset
        digits = (((value >> (width * k)) & mask) - half for k in range(size - n))
        out.append(({(k,): v for k, v in enumerate(digits) if v}, den))
    return out


def rc_bracket(f: WeightedForm, g: WeightedForm, n: int) -> WeightedForm:
    """The degree-n Rankin-Cohen bracket; result weight f.weight + g.weight + 2n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bracket order must be a nonnegative integer, got {n!r}")
    f_nums, g_nums = _numerators(f.form.terms), _numerators(g.form.terms)
    (value,) = _bracket_kernel(f.weight, g.weight, f_nums, g_nums, range(n, n + 1))
    return WeightedForm(f.weight + g.weight + 2 * n, _reduced(("z",), value))


# -- bracket expression trees ---------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    slot: int

    def __post_init__(self) -> None:
        if not isinstance(self.slot, int) or self.slot < 1:
            raise ValueError(f"leaf slots are positive integers, got {self.slot!r}")


@dataclass(frozen=True, slots=True)
class Node:
    left: BracketExpr
    right: BracketExpr
    order: int
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.order, int) or self.order < 0:
            raise ValueError(f"bracket order must be a nonnegative integer, got {self.order!r}")

    def __hash__(self) -> int:
        # computed on first use and kept, so a tree is walked once; an over-deep
        # tree still raises RecursionError here, which the CLI reports
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.left, self.right, self.order)))
        return self._hash


BracketExpr = Union[Leaf, Node]


class UnboundSlotError(KeyError):
    """A leaf slot has no binding during evaluation."""


class DuplicateSlotError(ValueError):
    """A slot index occurs twice inside one bracket expression."""


def expr_slots(expr: BracketExpr) -> tuple[int, ...]:
    """Leaf slots in left-to-right order; duplicates are rejected."""
    out: list[int] = []

    def walk(node: BracketExpr) -> None:
        if isinstance(node, Leaf):
            if node.slot in out:
                raise DuplicateSlotError(f"slot {node.slot} occurs twice")
            out.append(node.slot)
        else:
            walk(node.left)
            walk(node.right)

    walk(expr)
    return tuple(out)


def expr_total_order(expr: BracketExpr) -> int:
    """Sum of bracket orders over all internal nodes."""
    if isinstance(expr, Leaf):
        return 0
    return expr.order + expr_total_order(expr.left) + expr_total_order(expr.right)


def expr_weight(expr: BracketExpr, weights: Mapping[int, Fraction]) -> Fraction:
    """Weight carried by the expression: leaf weights plus 2x each order."""
    if isinstance(expr, Leaf):
        try:
            return as_rational(weights[expr.slot])
        except KeyError:
            raise UnboundSlotError(f"no weight bound for slot {expr.slot}") from None
    return expr_weight(expr.left, weights) + expr_weight(expr.right, weights) + 2 * expr.order


def format_expr(expr: BracketExpr) -> str:
    if isinstance(expr, Leaf):
        return f"f{expr.slot}"
    return f"[{format_expr(expr.left)},{format_expr(expr.right)}]_{expr.order}"


def eval_bracket_tree(expr: BracketExpr, leaves: Mapping[int, WeightedForm]) -> WeightedForm:
    """Evaluate bottom-up; every leaf slot must be bound."""
    if isinstance(expr, Leaf):
        try:
            return leaves[expr.slot]
        except KeyError:
            raise UnboundSlotError(f"no form bound for slot {expr.slot}") from None
    left = eval_bracket_tree(expr.left, leaves)
    right = eval_bracket_tree(expr.right, leaves)
    return rc_bracket(left, right, expr.order)


def tree_symbol(
    expr: BracketExpr, weights: Mapping[int, RationalLike], leaves: Mapping[int, Poly]
) -> tuple[Poly, Poly | None, Fraction]:
    """(sum of leaf polynomials, symbol, weight) of ``expr``; slot i reads ``leaves[i]``.

    A leaf's symbol is 1, returned as ``None``; that of [A, B]_n is S_A S_B
    G_n(sum_A, sum_B), G_n = ``jacobi_two_var(n, weight_A, weight_B)``.  With
    slot i bound to a variable x_i, the tree's value on f_1(x_1)...f_k(x_k) is
    S(d/dx_1, ..., d/dx_k) applied to that product, then read at every x_i = z.
    """
    if isinstance(expr, Leaf):
        try:
            total = leaves[expr.slot]
        except KeyError:
            raise UnboundSlotError(f"no polynomial bound for slot {expr.slot}") from None
        return total, None, expr_weight(expr, weights)
    sum1, symbol1, weight1 = tree_symbol(expr.left, weights, leaves)
    sum2, symbol2, weight2 = tree_symbol(expr.right, weights, leaves)
    outer = jacobi_two_var(expr.order, weight1, weight2).subst({"x": sum1, "y": sum2})
    children = [symbol for symbol in (symbol1, symbol2) if symbol is not None]
    return sum1 + sum2, prod(children, start=outer), weight1 + weight2 + 2 * expr.order


MonomialEvaluator = Callable[[Sequence[int]], tuple[int, Fraction]]
IntegerEvaluator = Callable[[Sequence[int]], tuple[int, int]]


def monomial_evaluator(expr: BracketExpr, weights: Mapping[int, RationalLike]) -> MonomialEvaluator:
    """Compile ``expr`` at fixed slot weights into a scalar evaluator on monomial leaves.

    The result maps leaf degrees, slot i reading ``degrees[i - 1]``, to
    ``(d, c)`` such that binding slot i to z^(degrees[i - 1]) evaluates the
    tree to c z^d.  d is always the sum of the slots' degrees minus
    ``expr_total_order(expr)``, and c == 0 is the zero form.  Slot weights
    are bound here, once: a slot without a weight raises
    :class:`UnboundSlotError`.  It wraps :func:`integer_evaluator` and
    builds one ``Fraction`` per evaluation.
    """
    evaluate, den = integer_evaluator(expr, weights)

    def scalar(degrees: Sequence[int]) -> tuple[int, Fraction]:
        degree, numerator = evaluate(degrees)
        return degree, Fraction(numerator, den)

    return scalar


def integer_evaluator(
    expr: BracketExpr, weights: Mapping[int, RationalLike]
) -> tuple[IntegerEvaluator, int]:
    """``(evaluate, den)``: ``evaluate(degrees)`` is ``(d, v)`` where
    ``monomial_evaluator`` gives ``(d, v / den)``.

    A node of order n at child weights (w1, w2) reads and fills the memo
    of the ``_monomial_bracket`` table for (w1, w2, n), which every tree
    compiled at those weights shares; ``den`` is the product of the
    tables' ``den``s, so evaluation multiplies integers only.
    """
    evaluate, _, den = _compile(expr, weights)
    return evaluate, den


def _compile(
    expr: BracketExpr, weights: Mapping[int, RationalLike]
) -> tuple[IntegerEvaluator, Fraction, int]:
    """(evaluator, weight, denominator) of a subtree; a leaf is its degree over 1."""
    if isinstance(expr, Leaf):
        i = expr.slot - 1
        return (lambda degrees: (degrees[i], 1)), expr_weight(expr, weights), 1
    left, weight1, den1 = _compile(expr.left, weights)
    right, weight2, den2 = _compile(expr.right, weights)
    n = expr.order
    row, row_den, memo = _monomial_bracket(weight1, weight2, n)

    def node(degrees: Sequence[int]) -> tuple[int, int]:
        deg1, c1 = left(degrees)
        deg2, c2 = right(degrees)
        if not (c1 and c2):
            return deg1 + deg2 - n, 0
        value = memo.get((deg1, deg2))
        if value is None:
            value = memo[deg1, deg2] = sum(c * perm(deg1, s) * perm(deg2, n - s) for s, c in row)
        return deg1 + deg2 - n, c1 * c2 * value

    return node, weight1 + weight2 + 2 * n, row_den * den1 * den2
