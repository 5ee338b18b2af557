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
bracket fold into that single row.

Each tree is rewritten at its first redex, found from the root by one rule.
At a node [L, C]_m whose left child L = [A, B]_k has A's leaves ascending
and A's last slot below B's first, B and then C are rewritten, and once both
are standard the node is recoupled at the weights of A, B and C.  A need not
be standard, so a left spine whose leaves ascend is rotated from the top: the
order-0 left comb of D leaves reaches the standard comb in D - 2 moves (its
rotation distance in the associahedron) where post-order makes
(D-1)(D-2)/2.  At any other node L the move is made inside L.  At a leaf L,
C is rewritten, and then the node is transposed or flipped, or is standard.
The guard on A is there because recoupling an unsorted left child at the top
carries its inversions into every piece, each to be transposed there; and it
keeps [[f2,f1]_0, f3]_m flipping before it recouples.  B and C go first for
the same reason: recoupled before they are standard, the node would copy
their moves into every piece.  Each move strictly decreases the
lexicographic metric (leaf inversions, sum over internal nodes of
(left-subtree leaf count - 1)): a transposition removes exactly one leaf
inversion, and recoupling at [[A,B]_k, C]_m lowers the sum by A's leaf
count.  So rewriting terminates whichever redex is taken, and since the
standard combs are a basis, every order reaches the same normal form.

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
pass in one order and raise in another.  Likewise the redex order decides
which sites are reached: a sorted left spine is recoupled from the top at
(A, B, C), never at the sites inside A, so a tree may normalize although a
site inside A is inadmissible; and B and C are standard when the node is
recoupled, so a refusal there names the node with B and C rewritten.  Every
move made is at an admissible site and a cancellation is of equal trees, so a
result is exact whichever sites are reached.  The triple a row of U is read
at is gated by ``u_row_scaled``, and its failure is re-raised naming the
site.  A transposition site also gates (a, b, c), so that with the row's
(b, c, a) it tests a, b, c, a+b, b+c, a+c and the total.

The rewriter rewrites the caller's ``Node``/``Leaf`` trees, on integers.  The
slot weights are scaled once by d, the lcm of their denominators
(``rationals.common_scale``), one d for all the terms of a combination.  The
walk that finds a site returns each standard subtree's d-scaled weight, from
which a site reads B's and C's (a leaf's is in the scaled table), and carries
the move's pieces back up, each ancestor rebuilt as a new node; A's weight
comes from the guard's walk of A's leaves.  A coefficient is a reduced pair
(num, den) of integers: a move multiplies both parts, each accumulation
reduces once by a gcd, and one ``Fraction`` is built per output term, whose
``StandardTerm`` is read down the tree's right spine.  Each (scaled site
triple, n, k) is gated on the integers (``transition.admissible_scaled``) and
its row read by ``u_row_scaled`` once per call, with no ``Fraction`` per row;
a failing site alone builds its rational triple, for the message.  Before any
tree is hashed or rewritten, one nested deeper than ``poly.MAX_NESTING`` is
refused (by ``brackets.expr_slots``), and so is one of more leaves than that
plus one: the walk recurses down the normal form of D leaves, which nests
D - 1 deep.
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


# -- the rewriter ----------------------------------------------------------------------


def _standard_term(tree: BracketExpr) -> StandardTerm:
    """The term of a standard tree, read down its right spine."""
    slots, orders = [], []
    while type(tree) is Node:
        left, tree, order = tree
        slots.append(left.slot)
        orders.append(order)
    slots.append(tree.slot)
    return StandardTerm(tuple(reversed(orders)), tuple(slots))


def _site_error(site: Node, a: int, b: int, c: int, d: int) -> InadmissibleLocalWeightsError:
    triple = ParamTriple(Fraction(a, d), Fraction(b, d), Fraction(c, d))
    return InadmissibleLocalWeightsError(
        f"rewrite site {format_expr(site)} has inadmissible weights "
        f"({triple.lam1}, {triple.lam2}, {triple.lam3})"
    )


def _row(rows: dict, d: int, site: Node, key: tuple) -> tuple[Fraction, ...]:
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


_new = tuple.__new__  # builds a move's nodes unvalidated: their orders are ints >= 0


def _recoupled(x, y, z, n: int, row: tuple[Fraction, ...], flip: int | None = None) -> list:
    """The pieces [x, [y,z]_q]_{n-q} with coefficient row[q], negated where
    q % 2 == ``flip``, for each row[q] != 0."""
    return [
        [
            _new(Node, (x, _new(Node, (y, z, q)), n - q)),
            -u.numerator if q % 2 == flip else u.numerator,
            u.denominator,
        ]
        for q, u in enumerate(row)
        if u
    ]


def _ascending(tree: BracketExpr, scaled: Mapping[int, int], d: int) -> tuple[int, int, int] | None:
    """(first slot, last slot, d-scaled weight) of a tree whose leaves ascend, else None."""
    if type(tree) is not Node:
        slot = tree[0]
        return slot, slot, scaled[slot]
    left, right, order = tree
    span_left = _ascending(left, scaled, d)
    if span_left is None:
        return None
    span_right = _ascending(right, scaled, d)
    if span_right is None or span_left[1] > span_right[0]:
        return None
    return span_left[0], span_right[1], span_left[2] + span_right[2] + 2 * d * order


def _spine_slot(tree: BracketExpr, side: int) -> int:
    """The slot of the first (side 0) or last (side 1) leaf of a tree."""
    while type(tree) is Node:
        tree = tree[side]
    return tree[0]


def _step(tree: Node, rows: dict, scaled: Mapping[int, int], d: int) -> list | int:
    """One move at the first redex, as [tree, num, den] pieces rebuilt up to
    ``tree`` (a node); or, when ``tree`` is standard, its d-scaled weight.

    At [L, C]_m: when L = [A, B]_k with A's leaves ascending and A's last slot
    below B's first, B and then C are rewritten, and once both are standard
    the node is recoupled at the weights of A (read off A's leaves) and of B
    and C (returned by their walks); any other node L is rewritten inside; at
    a leaf L, C is rewritten and then the node is transposed, flipped or is
    standard.
    """
    left, right, order = tree
    left_is_node = type(left) is Node
    if left_is_node:
        a, b, k = left
        # A's last leaf against B's first rejects most unsorted left children before A's walk
        if _spine_slot(a, 1) > _spine_slot(b, 0) or (span_a := _ascending(a, scaled, d)) is None:
            pieces = _step(left, rows, scaled, d)  # the left child is not standard
            for piece in pieces:
                piece[0] = _new(Node, (piece[0], right, order))
            return pieces
        if type(b) is Node:
            w_b = _step(b, rows, scaled, d)
            if type(w_b) is list:
                for piece in w_b:
                    piece[0] = _new(Node, (_new(Node, (a, piece[0], k)), right, order))
                return w_b
        else:
            w_b = scaled[b[0]]
    else:
        w_left = scaled[left[0]]
    if type(right) is Node:
        w_right = _step(right, rows, scaled, d)
        if type(w_right) is list:
            for piece in w_right:
                piece[0] = _new(Node, (left, piece[0], order))
            return w_right
        if not left_is_node and left[0] > right[0][0]:
            # [a, [b,c]_p]_{n-p} -> sum_q (-1)^(n+p+q) U^{(b,c,a)}_{p,q} [b, [a,c]_q]_{n-q}
            b, c, p = right
            w_b = scaled[b[0]]
            key = (w_left, w_b, w_right - w_b - 2 * d * p, p + order, p, True)
            # n+p+q = 2p + order + q is odd where q % 2 == 1 - order % 2
            return _recoupled(b, left, c, p + order, _row(rows, d, tree, key), 1 - order % 2)
    elif not left_is_node and left[0] > right[0]:
        # [u, w]_m -> (-1)^m [w, u]_m
        return [[_new(Node, (right, left, order)), -1 if order % 2 else 1, 1]]
    else:
        w_right = scaled[right[0]]
    if left_is_node:
        # [[A,B]_k, C]_m -> sum_p U_{k,p} [A, [B,C]_p]_{n-p}, n = k+m
        key = (span_a[2], w_b, w_right, k + order, k, False)
        return _recoupled(a, b, right, k + order, _row(rows, d, tree, key))
    return w_left + w_right + 2 * d * order


def _add_pair(combo: dict, key: BracketExpr, num: int, den: int) -> None:
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


def _normal_form(pending: dict, scaled: Mapping[int, int], d: int) -> LinearCombo:
    """The standard combination that ``pending``, a combination of trees with
    nonzero reduced pairs, rewrites to at the d-scaled slot weights ``scaled``.
    ``pending`` is the work list and is emptied; the rows read are dropped on
    return.

    The work list is first in, first out: each pop takes the oldest tree.  A
    pop leaves a dead slot at the head of the dict, which ``next(iter())``
    scans past until the dict is next resized, so once the pops since the
    last rebuild outnumber the live entries, the dict is rebuilt in place, in
    the same order."""
    rows: dict = {}
    done: dict[BracketExpr, tuple[int, int]] = {}
    popped = 0
    while pending:
        if popped > len(pending):
            live = list(pending.items())
            pending.clear()
            pending.update(live)
            popped = 0
        tree = next(iter(pending))
        num, den = pending.pop(tree)
        popped += 1
        pieces = _step(tree, rows, scaled, d) if type(tree) is Node else None
        if type(pieces) is not list:  # standard: _step gave the tree's weight
            _add_pair(done, tree, num, den)
            continue
        for piece, piece_num, piece_den in pieces:
            _add_pair(pending, piece, num * piece_num, den * piece_den)
    # popped as read, so that no coefficient is held twice
    return {_standard_term(tree): Fraction(*done.pop(tree)) for tree in list(done)}


def _scale(
    exprs: Sequence[BracketExpr], weights: Mapping[int, RationalLike]
) -> tuple[int, dict[int, int]]:
    """``(d, scaled)``: d is the lcm of the denominators of the slot weights that
    ``exprs`` read, and ``scaled[slot]`` is d times the slot's weight."""
    bound: dict[int, Fraction] = {}
    for expr in exprs:
        if len(slots := expr_slots(expr)) > MAX_NESTING + 1:
            raise NestingTooDeepError(f"{len(slots)} leaves nest too deeply once rewritten")
        for slot in slots:
            if slot not in weights:
                raise UnboundSlotError(f"no weight bound for slot {slot}")
            bound[slot] = as_rational(weights[slot])
    d, scaled = common_scale(*bound.values())
    return d, dict(zip(bound, scaled))


def to_standard(expr: BracketExpr, weights: Mapping[int, RationalLike]) -> LinearCombo:
    """Rewrite into the standard basis; exact coefficients, deterministic order.

    A tree nested, or rewritten, deeper than ``poly.MAX_NESTING`` raises ``NestingTooDeepError``.
    """
    d, scaled = _scale([expr], weights)
    return _normal_form({expr: (1, 1)}, scaled, d)


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
    return check_bound(bind_terms(terms, weights), weights, identity_id)


def check_bound(
    bound: Sequence[tuple[Fraction, BracketExpr]], weights: Mapping[int, Fraction], identity_id: str
) -> VerificationReport:
    """:func:`check_identity` of (coefficient, tree) pairs already bound at ``weights``."""
    d, scaled = _scale([expr for _, expr in bound], weights)
    pending: dict[BracketExpr, tuple[int, int]] = {}
    for coeff, expr in bound:
        # _add_pair deletes a key whose sum is 0, so a zero coefficient is skipped
        if coeff:
            _add_pair(pending, expr, coeff.numerator, coeff.denominator)
    total = _normal_form(pending, scaled, d)
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
