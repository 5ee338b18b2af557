"""Rewriting of nested bracket expressions into the standard basis.

The standard basis consists of right-nested combs with leaves in ascending
slot order; a :class:`StandardTerm` records the bracket orders innermost
first, together with the ascending slot tuple.  Three elementary moves are
used:

* left-nest to right-nest expansion through the transition coefficients,
* antisymmetry on a bracket of two leaves ([u, w]_m = (-1)^m [w, u]_m),
* the adjacent-leaf transposition as one signed row of U at the rotated
  triple: [a, [b,c]_p]_{n-p} = sum_q (-1)^(n+p+q) U^{(b,c,a)}_{p,q}
  [b, [a,c]_q]_{n-q}.

The transposition is a recoupling in its own right: antisymmetry of the
inner bracket, the reverse family at (a, c, b) and antisymmetry of the outer
bracket fold into that single row.  Each tree is rewritten at its first redex
in post-order (left subtree, right subtree, then the node itself).  Each move
strictly decreases the lexicographic metric (leaf inversions, sum over
internal nodes of (left-subtree leaf count - 1)); a transposition removes
exactly one leaf inversion.  So rewriting terminates whichever redex is
taken, and since the standard combs are a basis, every order reaches the
same normal form.

The rewriter works on a combination: one work list of trees with their
coefficients, in which equal trees are summed, and a tree whose coefficient
cancels to zero is dropped before it is rewritten.  ``to_standard`` is the
combination of one tree.  ``check_identity`` seeds one work list with every
term of an identity, so terms that cancel as trees are never rewritten, nor
is a piece that cancels against another term's before the loop reaches it.

Every rewrite site is gated by local admissibility of the weight triple it
touches; an inadmissible site raises instead of producing wrong output.  Only
the sites the work list reaches are gated: an inadmissible site inside terms
that cancel before it is rewritten raises nothing.  Which pieces meet before
they are rewritten can depend on the order of the terms, so an identity may
pass in one order and raise in another; every move made is at an admissible
site and a cancellation is of equal trees, so a result is exact either way.
The triple a row of U is read at is gated by ``u_row_scaled``, and its
failure is re-raised naming the site.  A transposition site also gates
(a, b, c), so that with the row's (b, c, a) it tests a, b, c, a+b, b+c, a+c
and the total.

The rewriter runs on integers.  The slot weights are scaled once by d, the
lcm of their denominators (``rationals.common_scale``), one d for all the
terms of a combination.  A tree is then a nested tuple
(left, right, order, d * weight), a leaf (None, slot, 0, d * weight), so trees
hash and compare as tuples and a site reads its weights off its subtrees.  A
coefficient is a reduced pair (num, den) of integers: a move multiplies both
parts, each accumulation reduces once by a gcd, and one ``Fraction`` is built
per output term, whose ``StandardTerm`` is read down the tree's right spine.
Each (scaled site triple, n, k) is gated on the integers
(``transition.admissible_scaled``) and its row read by ``u_row_scaled`` once
per call, with no ``Fraction`` per row; a failing site alone builds its
rational triple, for the message.  Input nested deeper than
``poly.MAX_NESTING`` is refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from typing import Mapping, Sequence

from .brackets import BracketExpr, Leaf, Node, UnboundSlotError, expr_slots, format_expr
from .poly import MAX_NESTING, NestingTooDeepError, Token, Tokens, parse_infix
from .rationals import RationalLike, as_rational, common_scale, parse_rational
from .report import VerificationReport
from .transition import InadmissibleParametersError, ParamTriple, admissible_scaled, u_row_scaled

class BracketSyntaxError(ValueError):
    """Malformed bracket-expression or coefficient text; carries a position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InadmissibleLocalWeightsError(ValueError):
    """A rewrite site's weight triple fails the admissibility gate."""


@dataclass(frozen=True)
class StandardTerm:
    """Right-nested comb: orders innermost first, leaves by ascending slot."""

    orders: tuple[int, ...]
    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.slots) != len(self.orders) + 1:
            raise ValueError(f"need one more slot than orders, got {self}")
        if any(a >= b for a, b in zip(self.slots, self.slots[1:])):
            raise ValueError(f"slots must be strictly ascending, got {self.slots}")


LinearCombo = dict[StandardTerm, Fraction]


# -- parsing ---------------------------------------------------------------------

# a leaf is one name token: 'f' and the slot's digits
_LEAF = re.compile(r"f(\d*)")


def parse_bracket(src: str) -> BracketExpr:
    """Parse ``f INT`` / ``[ expr , expr ]_INT`` notation, e.g. [[f1,f2]_1,f3]_0."""
    tokens = Tokens(src, BracketSyntaxError)

    def expr() -> BracketExpr:
        tok = tokens.advance()
        kind, text, position = tok
        if kind == "[":
            left = expr()
            tokens.expect(",")
            right = expr()
            tokens.expect("]")
            tokens.expect("_")
            return Node(left, right, tokens.integer())
        leaf = _LEAF.match(text) if kind == "name" else None
        if leaf is None:
            tokens.fail("'f' or '['", tok)
        if not leaf[1] or leaf.end() < len(text):
            raise BracketSyntaxError(f"expected a leaf fN, found {text!r}", position + leaf.end())
        slot = int(leaf[1])
        if slot < 1:
            raise BracketSyntaxError(f"leaf slots are positive integers, got {slot}", position + 1)
        return Leaf(slot)

    out = tokens.finish(expr())
    expr_slots(out)  # raises DuplicateSlotError on repeated slots
    return out


# -- standard form ----------------------------------------------------------------


def standard_tree(term: StandardTerm) -> BracketExpr:
    """The right-nested comb denoted by a standard term."""
    node: BracketExpr = Leaf(term.slots[-1])
    for order, slot in zip(term.orders, reversed(term.slots[:-1])):
        node = Node(Leaf(slot), node, order)
    return node


# -- the rewriter on integer tuple trees ----------------------------------------------

# (left, right, order, d * weight), or (None, slot, 0, d * weight) for a leaf
Tree = tuple


def _check_nesting(expr: BracketExpr, depth: int = 0) -> None:
    if isinstance(expr, Node):
        if depth == MAX_NESTING:
            raise NestingTooDeepError
        _check_nesting(expr.left, depth + 1)
        _check_nesting(expr.right, depth + 1)


def _tuple_tree(expr: BracketExpr, scaled: Mapping[int, int], d: int) -> Tree:
    if isinstance(expr, Leaf):
        return (None, expr.slot, 0, scaled[expr.slot])
    left = _tuple_tree(expr.left, scaled, d)
    right = _tuple_tree(expr.right, scaled, d)
    return (left, right, expr.order, left[3] + right[3] + 2 * d * expr.order)


def _standard_term(tree: Tree) -> StandardTerm:
    """The term of a standard tree, read down its right spine."""
    slots, orders = [], []
    while tree[0] is not None:
        left, tree, order, _ = tree
        slots.append(left[1])
        orders.append(order)
    slots.append(tree[1])
    return StandardTerm(tuple(reversed(orders)), tuple(slots))


def _node(tree: Tree) -> BracketExpr:
    left, right, order, _ = tree
    if left is None:
        return Leaf(right)
    return Node(_node(left), _node(right), order)


def _site_error(site: Tree, a: int, b: int, c: int, d: int) -> InadmissibleLocalWeightsError:
    triple = ParamTriple(Fraction(a, d), Fraction(b, d), Fraction(c, d))
    return InadmissibleLocalWeightsError(
        f"rewrite site {format_expr(_node(site))} has inadmissible weights "
        f"({triple.lam1}, {triple.lam2}, {triple.lam3})"
    )


def _row(rows: dict, d: int, site: Tree, key: tuple) -> tuple[Fraction, ...]:
    """Row k of U for ``key`` = (a, b, c, n, k, swap): at (a, b, c) / d, or for a
    transposition (swap) at (b, c, a) / d after gating (a, b, c) / d too.

    Each key is gated on integers once per call, by ``u_row_scaled``, and a
    failure names the site.
    """
    row = rows.get(key)
    if row is None:
        a, b, c, n, k, swap = key
        if swap:
            if not admissible_scaled(a, b, c, d):
                raise _site_error(site, a, b, c, d)
            a, b, c = b, c, a
        try:
            row = rows[key] = u_row_scaled(a, b, c, d, n, k)
        except InadmissibleParametersError:
            raise _site_error(site, a, b, c, d) from None
    return row


def _step(tree: Tree, rows: dict, d: int) -> list[tuple[Tree, int, int]] | None:
    """One move at the first redex in post-order, rebuilt up to ``tree`` (a node)
    as (tree, num, den) pieces; None when ``tree`` is standard."""
    left, right, order, weight = tree
    if left[0] is not None:
        pieces = _step(left, rows, d)
        if pieces is not None:
            return [((sub, right, order, weight), num, den) for sub, num, den in pieces]
    if right[0] is not None:
        pieces = _step(right, rows, d)
        if pieces is not None:
            return [((left, sub, order, weight), num, den) for sub, num, den in pieces]
        if left[0] is None and left[1] > right[0][1]:
            # [a, [b,c]_p]_{n-p} -> sum_q (-1)^(n+p+q) U^{(b,c,a)}_{p,q} [b, [a,c]_q]_{n-q}
            b, c, p = right[0], right[1], right[2]
            n = p + order
            row = _row(rows, d, tree, (left[3], b[3], c[3], n, p, True))
            ac = left[3] + c[3]
            return [
                (
                    (b, (left, c, q, ac + 2 * d * q), n - q, weight),
                    -u.numerator if (n + p + q) % 2 else u.numerator,
                    u.denominator,
                )
                for q, u in enumerate(row)
                if u
            ]
    if left[0] is not None:
        # [[a,b]_k, c]_m -> sum_p U_{k,p} [a, [b,c]_p]_{n-p}, n = k+m
        a, b, k = left[0], left[1], left[2]
        n = k + order
        row = _row(rows, d, tree, (a[3], b[3], right[3], n, k, False))
        bc = b[3] + right[3]
        return [
            ((a, (b, right, p, bc + 2 * d * p), n - p, weight), u.numerator, u.denominator)
            for p, u in enumerate(row)
            if u
        ]
    if right[0] is None and left[1] > right[1]:
        # [u, w]_m -> (-1)^m [w, u]_m
        return [((right, left, order, weight), -1 if order % 2 else 1, 1)]
    return None


def _add_pair(combo: dict, key: Tree, num: int, den: int) -> None:
    """Add num/den to combo[key] as a reduced pair, dropping the entry when it cancels."""
    old = combo.get(key)
    if old is not None:
        old_num, old_den = old
        if old_den == den:
            num += old_num
        else:
            num = num * old_den + old_num * den
            den *= old_den
    if num:
        g = gcd(num, den)
        combo[key] = (num // g, den // g)
    else:
        del combo[key]


def _normal_form(pending: dict[Tree, tuple[int, int]], d: int) -> LinearCombo:
    """The standard combination that ``pending``, a combination of d-scaled
    trees with nonzero reduced pairs, rewrites to.  ``pending`` is the work
    list and is emptied; the rows read are dropped on return."""
    rows: dict = {}
    done: dict[Tree, tuple[int, int]] = {}
    while pending:
        tree = next(iter(pending))
        num, den = pending.pop(tree)
        pieces = None if tree[0] is None else _step(tree, rows, d)
        if pieces is None:
            _add_pair(done, tree, num, den)
            continue
        for piece, piece_num, piece_den in pieces:
            _add_pair(pending, piece, num * piece_num, den * piece_den)
    # popped as read, so that no coefficient is held twice
    return {_standard_term(tree): Fraction(*done.pop(tree)) for tree in list(done)}


def _scaled_trees(
    exprs: Sequence[BracketExpr], weights: Mapping[int, RationalLike]
) -> tuple[int, list[Tree]]:
    """``(d, trees)``: d is the lcm of the denominators of the slot weights that
    ``exprs`` read, and ``trees[i]`` is ``exprs[i]`` as a d-scaled tuple tree."""
    bound: dict[int, Fraction] = {}
    for expr in exprs:
        _check_nesting(expr)
        for slot in expr_slots(expr):
            if slot not in weights:
                raise UnboundSlotError(f"no weight bound for slot {slot}")
            bound[slot] = as_rational(weights[slot])
    d, scaled = common_scale(*bound.values())
    by_slot = dict(zip(bound, scaled))
    return d, [_tuple_tree(expr, by_slot, d) for expr in exprs]


def to_standard(expr: BracketExpr, weights: Mapping[int, RationalLike]) -> LinearCombo:
    """Rewrite into the standard basis; exact coefficients, deterministic order.

    Trees nested deeper than ``MAX_NESTING`` raise :class:`NestingTooDeepError`.
    """
    d, (tree,) = _scaled_trees([expr], weights)
    return _normal_form({tree: (1, 1)}, d)


def format_combo(combo: LinearCombo) -> str:
    """One line per term: ``coeff  (k_1,...,k_D)`` sorted by slot/order tuples."""
    if not combo:
        return "0"
    lines = []
    for term in sorted(combo, key=lambda t: (t.slots, t.orders)):
        orders = ",".join(str(k) for k in term.orders)
        lines.append(f"{combo[term]}  ({orders})")
    return "\n".join(lines)


# -- coefficient mini-language -------------------------------------------------------


def _coeff_leaf(tok: Token):
    kind, text, position = tok
    if kind == "number":
        return ("num", parse_rational(text))
    if text[0] != "l" or not text[1:].isdecimal():
        raise BracketSyntaxError(f"expected a slot weight lN, found {text!r}", position)
    return ("slot", int(text[1:]))


# the AST: ("num", q), ("slot", n), ("neg", a) and (op, a, b) for op in + - *
_COEFF_OPS = {op: (lambda *args, op=op: (op, *args)) for op in ("+", "-", "*", "neg")}
_COEFF_APPLY = {"+": add, "-": sub, "*": mul}


def parse_coeff(src: str):
    """Parse the coefficient language: RATIONAL | l INT | + - * | parens."""
    return parse_infix(Tokens(src, BracketSyntaxError), _coeff_leaf, _COEFF_OPS)


def eval_coeff(ast, weights: Mapping[int, Fraction]) -> Fraction:
    """The value of a coefficient AST at the slot weights, walked with an explicit
    stack, so a flat chain such as 1+1+...+1 (an AST as deep as it is long) does
    not recurse.  Operands are read left to right."""
    values: list[Fraction] = []
    stack = [ast]
    while stack:
        node = stack.pop()
        if type(node) is str:  # an operator, whose operands' values are on top
            b = values.pop()
            values.append(-b if node == "neg" else _COEFF_APPLY[node](values.pop(), b))
        elif node[0] == "num":
            values.append(node[1])
        elif node[0] == "slot":
            if node[1] not in weights:
                raise UnboundSlotError(f"no weight bound for slot {node[1]}")
            values.append(as_rational(weights[node[1]]))
        else:
            stack += [node[0], *reversed(node[1:])]
    return values[0]


def bind_terms(
    terms: Sequence[tuple[str, str]], weights: Mapping[int, Fraction]
) -> list[tuple[Fraction, BracketExpr]]:
    """Parse (coefficient text, bracket expression text) pairs at the slot weights."""
    return [(eval_coeff(parse_coeff(c), weights), parse_bracket(e)) for c, e in terms]


# -- identity certification -----------------------------------------------------------


def check_identity(
    terms: Sequence[tuple[str, str]],
    weights: Mapping[int, RationalLike],
    identity_id: str = "bracket-identity",
) -> VerificationReport:
    """Certify that sum_i coeff_i * expr_i rewrites to the zero combination.

    ``terms`` holds (coefficient text, bracket expression text) pairs; the
    coefficient language admits rationals, slot weights l1, l2, ..., and
    + - * with parentheses.  The terms are rewritten as one combination, at
    one scale, so only the sites it reaches are gated (see the module
    docstring).
    """
    weights = {slot: as_rational(w) for slot, w in weights.items()}
    bound = bind_terms(terms, weights)
    d, trees = _scaled_trees([expr for _, expr in bound], weights)
    pending: dict[Tree, tuple[int, int]] = {}
    for (coeff, _), tree in zip(bound, trees):
        # _add_pair deletes a key whose sum is 0, so a zero coefficient is skipped
        if coeff:
            _add_pair(pending, tree, coeff.numerator, coeff.denominator)
    total = _normal_form(pending, d)
    failures = []
    if total:
        failures.append(
            {
                "weights": {str(slot): str(w) for slot, w in sorted(weights.items())},
                "residual": format_combo(total),
            }
        )
    sample = {f"l{slot}": str(w) for slot, w in sorted(weights.items())}
    return VerificationReport.checked(identity_id, [sample], 1, failures)
