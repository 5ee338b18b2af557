"""Rankin-Cohen brackets on weighted polynomial stand-ins.

A :class:`WeightedForm` is a polynomial in z tagged with a rational weight;
the degree-n bracket of weights (a, b) is

    [f, g]_n = sum_s (-1)^s C(a+n-1, n-s) C(b+n-1, s) f^(s) g^(n-s)

with plain (unnormalized) derivatives, and the result carries weight
a + b + 2n.  A bracket tree is a :class:`Leaf`, the tuple (slot,), or a
:class:`Node`, the tuple (left, right, order), so trees compare and hash by
value as tuples do: in C, uncached and with no recursion guard, so a function
that hashes or rewrites a caller's tree first walks it with ``_walk``, the
walk behind ``expr_slots`` and ``expr_total_order``, which bounds its
nesting.  Trees evaluate bottom-up with that weight rule.  The coefficient row
is integers from the start: ``bracket_coeff_row`` gives it over the lcm of its
denominators, and a table per canonical scaled integer pair keeps that row and
memoizes the bracket of two monomials: the weights (a/d, b/d) with
gcd(a, b, d) = 1, and the order n, keyed as U is in ``transition``, so a pair
reached at any scale shares one table.  A tree of total order N on D slots is
the constant-coefficient operator sum_{|j|=N} s_j prod f_i^(j_i), so on leaves
z^(a_i) with sum a_i = N it is the constant s_a prod a_i!, and it is fixed by
those values.  One tabulator, ``tabulate_on_slice``, evaluates a list of trees
at fixed slot weights on that simplex slice, one pass per distinct subtree, on
the weights scaled once to integers, reading and filling those memos; s_a is
the coefficient of the tree's symbol, the polynomial ``tree_symbol`` builds
from Jacobi forms, and ``read_off_slice`` reads the tree's value at any leaf
degrees back off the slice.  The general bracket is one kernel that takes and
returns ``poly.Numerators``, the format ``star`` sums its pieces in, and
serves every order of a range at once, at the weights as a scaled integer
pair: it reads the derivatives of both polynomials as big integers at X = 2^W
(Kronecker substitution), multiplies them with Python's integer product and
reads the result's signed base-2^W digits back.  W is one bit wider than the
largest bound, over the orders, on an output coefficient: the sum over the row
of |c_s| times the absolute coefficient sums of f^(s) and g^(n-s).  Both paths
build a ``Fraction`` only for what they return and, once per cached table, for
its two weights.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, perm, prod
from typing import Mapping, Sequence, Union

from .hypergeom import bracket_coeff_row, jacobi_two_var
from .poly import MAX_NESTING, NestingTooDeepError, Numerators, Poly, _numerators, _reduced
from .rationals import RationalLike, as_rational, common_scale


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


MonomialTable = tuple[tuple[int, ...], int, dict[tuple[int, int], int]]


@lru_cache(maxsize=None)
def _monomial_bracket(a: int, b: int, d: int, n: int) -> MonomialTable:
    """The order-n bracket at weights (a/d, b/d) on integers: ``(row, den, memo)``.

    The key is canonical, gcd(a, b, d) = 1 (``_bracket_table`` divides the gcd
    out), so a weight pair reached at any multiple of its scale shares one
    entry; the ``Fraction`` weights are built only here, on a cache miss.
    ``(row, den)`` is ``bracket_coeff_row``: row[s] / den = c_s for s = 0..n,
    ``den`` the lcm of the reduced denominators of the c_s.  ``memo`` starts
    empty; :func:`tabulate_on_slice` fills ``memo[d1, d2]`` with den times the
    coefficient of [z^d1, z^d2]_n = sum_s c_s d1^(s) d2^(n-s) z^(d1+d2-n),
    where d^(s) is the falling factorial (0 for s > d), so it sums only the s
    with n - d2 <= s <= d1.
    """
    return (*bracket_coeff_row(Fraction(a, d), Fraction(b, d), n), {})


def _bracket_table(a: int, b: int, d: int, n: int) -> MonomialTable:
    """``_monomial_bracket`` at the weights (a/d, b/d), for any integer scale d > 0."""
    c = gcd(a, b, d)
    return _monomial_bracket(a // c, b // c, d // c, n)


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
    a: int, b: int, d: int, f: Numerators, g: Numerators, orders: range
) -> list[Numerators]:
    """[f, g]_n of two z-polynomials over ("z",) at the weights (a/d, b/d), for
    every n in ``orders``, each over the product of its row's ``den`` and the
    two input denominators; d is any integer scale > 0.

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
        row, den, _ = _bracket_table(a, b, d, n)
        # the terms (c_s, s, n - s) with c_s and both derivatives nonzero
        terms = [
            (c, s, n - s)
            for s, c in enumerate(row)
            if c and s < len(f_ders) and n - s < len(g_ders)
        ]
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
    d, (a, b) = common_scale(f.weight, g.weight)
    (value,) = _bracket_kernel(a, b, d, f_nums, g_nums, range(n, n + 1))
    return WeightedForm(f.weight + g.weight + 2 * n, _reduced(("z",), value))


# -- bracket expression trees ---------------------------------------------------


class Leaf(namedtuple("Leaf", "slot")):
    """Function slot ``slot``: the tuple (slot,)."""

    __slots__ = ()

    def __new__(cls, slot: int) -> Leaf:
        if not isinstance(slot, int) or slot < 1:
            raise ValueError(f"leaf slots are positive integers, got {slot!r}")
        return tuple.__new__(cls, (slot,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class Node(namedtuple("Node", "left right order")):
    """The bracket [left, right]_order: the tuple (left, right, order)."""

    __slots__ = ()

    def __new__(cls, left: BracketExpr, right: BracketExpr, order: int) -> Node:
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"bracket order must be a nonnegative integer, got {order!r}")
        return tuple.__new__(cls, (left, right, order))

    _make = classmethod(lambda cls, fields: cls(*fields))


BracketExpr = Union[Leaf, Node]

F1, F2, F3 = Leaf(1), Leaf(2), Leaf(3)


# the nests of the main identity, [[f1,f2]_k, f3]_{n-k} and [f1, [f2,f3]_p]_{n-p}
def left_nest(n: int, k: int) -> Node:
    return Node(Node(F1, F2, k), F3, n - k)


def right_nest(n: int, p: int) -> Node:
    return Node(F1, Node(F2, F3, p), n - p)


class UnboundSlotError(KeyError):
    """A leaf slot has no binding during evaluation."""


class DuplicateSlotError(ValueError):
    """A slot index occurs twice inside one bracket expression."""


def expr_slots(expr: BracketExpr) -> tuple[int, ...]:
    """Leaf slots in left-to-right order; a repeated slot raises :class:`DuplicateSlotError`
    and nesting deeper than ``MAX_NESTING`` raises :class:`NestingTooDeepError`."""
    return _slots_and_order(expr)[0]


def expr_total_order(expr: BracketExpr) -> int:
    """Sum of bracket orders over all internal nodes; see :func:`expr_slots` on nesting."""
    return _walk(expr, 0, [])


def _slots_and_order(expr: BracketExpr) -> tuple[tuple[int, ...], int]:
    """``(expr_slots(expr), expr_total_order(expr))`` from one walk."""
    slots: list[int] = []
    total = _walk(expr, 0, slots)
    if len(set(slots)) < len(slots):
        slot = next(slot for i, slot in enumerate(slots) if slot in slots[:i])
        raise DuplicateSlotError(f"slot {slot} occurs twice")
    return tuple(slots), total


def _walk(expr: BracketExpr, depth: int, slots: list[int]) -> int:
    """The total order of ``expr`` at nesting ``depth``, appending its leaf slots to ``slots``."""
    if isinstance(expr, Leaf):
        slots.append(expr.slot)
        return 0
    if depth == MAX_NESTING:
        raise NestingTooDeepError
    return expr.order + _walk(expr.left, depth + 1, slots) + _walk(expr.right, depth + 1, slots)


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


Tabulation = tuple[list[int], int]
# a subtree's (z-degree, value) pairs on the grid, its d-scaled weight and its denominator
_Table = tuple[list[tuple[int, int]], int, int]


def _tabulate(
    expr: BracketExpr,
    weights: Mapping[int, int],
    d: int,
    grid: Sequence[Sequence[int]],
    tables: dict[BracketExpr, _Table],
) -> _Table:
    """(values, d * weight, den) of ``expr`` on ``grid``, with slot i at weight
    weights[i] / d, read from or added to ``tables``."""
    out = tables.get(expr)
    if out is not None:
        return out
    if isinstance(expr, Leaf):
        i = expr.slot - 1
        try:
            weight = weights[expr.slot]
        except KeyError:
            raise UnboundSlotError(f"no weight bound for slot {expr.slot}") from None
        out = [(degrees[i], 1) for degrees in grid], weight, 1
    else:
        left, weight1, den1 = _tabulate(expr.left, weights, d, grid, tables)
        right, weight2, den2 = _tabulate(expr.right, weights, d, grid, tables)
        n = expr.order
        coeffs, row_den, memo = _bracket_table(weight1, weight2, d, n)
        values = []
        for (deg1, c1), (deg2, c2) in zip(left, right):
            if not (c1 and c2):
                values.append((deg1 + deg2 - n, 0))
                continue
            value = memo.get((deg1, deg2))
            if value is None:
                # only n - deg2 <= s <= deg1 gives nonzero falling factorials
                value = 0
                for s in range(n - deg2 if deg2 < n else 0, (deg1 if deg1 < n else n) + 1):
                    value += coeffs[s] * perm(deg1, s) * perm(deg2, n - s)
                memo[deg1, deg2] = value
            values.append((deg1 + deg2 - n, c1 * c2 * value))
        out = values, weight1 + weight2 + 2 * d * n, row_den * den1 * den2
    tables[expr] = out
    return out


def simplex_slice(slots: int, order: int) -> list[tuple[int, ...]]:
    """The C(order+slots-1, slots-1) tuples a of nonnegative integers with
    ``slots`` entries and sum(a) = ``order``, in lexicographic order: the gaps
    between slots - 1 bars among order + slots - 1 places, found with no recursion."""
    if slots == 0:
        return [()] if order == 0 else []
    places = order + slots - 1
    bars = combinations(range(places), slots - 1)
    return [tuple(b - a - 1 for a, b in zip((-1, *bar), (*bar, places))) for bar in bars]


def tabulate_on_slice(
    trees: Sequence[BracketExpr], weights: Mapping[int, RationalLike], order: int
) -> tuple[list[Tabulation], list[tuple[int, ...]]]:
    """``(tables, slice)``: ``trees`` evaluated at fixed slot weights on the simplex slice.

    Every tree must have the slots 1..D of ``weights`` (D of them) and total
    order ``order``, and ``slice`` is ``simplex_slice(D, order)``.  Each tree
    is the operator sum_{|j|=order} s_j prod f_j^(j_j), so binding slot j to
    z^(a_j), a = slice[i], evaluates it to a constant: with ``(values, den)``
    its table, that constant is values[i] / den = s_a prod a_j!.

    The slot weights are scaled once to integers by the lcm d of their
    denominators (``rationals.common_scale``), and each distinct subtree is
    tabulated in one pass over the slice at d-scaled integer weights, so a
    node's weight is w1 + w2 + 2dn; subtrees that several trees share (equal
    as values) are tabulated once.  A node of order n at child weights
    (w1, w2) reads and fills the memo of the ``_monomial_bracket`` table of
    (w1/d, w2/d, n), keyed on canonical integers, which every tree and every
    call at those weights shares, whatever its scale; a tree's ``den`` is the
    product of its nodes' table ``den``s, so tabulation multiplies integers
    only.  A slot without a weight raises :class:`UnboundSlotError`.
    """
    slots = len(weights)
    for tree in trees:
        found, total = _slots_and_order(tree)
        if sorted(found) != list(range(1, slots + 1)):
            raise ValueError(f"a slice tree needs the slots 1..{slots}, got {found}")
        if total != order:
            raise ValueError(f"a slice tree needs total order {order}, got {total}")
    grid = simplex_slice(slots, order)
    d, scaled = common_scale(*map(as_rational, weights.values()))
    scaled_weights = dict(zip(weights, scaled))
    tables: dict[BracketExpr, _Table] = {}
    out = []
    for tree in trees:
        values, _, den = _tabulate(tree, scaled_weights, d, grid, tables)
        out.append(([v for _, v in values], den))
    return out, grid


def read_off_slice(values: Mapping[tuple[int, ...], int], degrees: Sequence[int]) -> int:
    """sum_a values[a] prod_i C(degrees[i], a_i): with ``values`` a tree's values
    s_a prod a_i! on the slice |a| = N, its coefficient of z^(|b| - N) at leaf
    degrees b = ``degrees``, over the same denominator (0 when |b| < N)."""
    return sum(v * prod(map(comb, degrees, a)) for a, v in values.items())
