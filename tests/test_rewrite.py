"""Tests for the bracket-expression rewriter and identity certifier."""
from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcbrackets import rewrite, transition
from rcbrackets.brackets import (
    BracketExpr,
    DuplicateSlotError,
    Leaf,
    Node,
    UnboundSlotError,
    WeightedForm,
    eval_bracket_tree,
    expr_slots,
    expr_total_order,
    format_expr,
    tabulate_by_order,
)
from rcbrackets.cli import main
from rcbrackets.engine import verify_on_monomials
from rcbrackets.poly import (
    MAX_NESTING,
    NestingTooDeepError,
    Poly,
    PolySyntaxError,
    poly_from_string,
)
from rcbrackets.rewrite import (
    BracketSyntaxError,
    InadmissibleLocalWeightsError,
    StandardTerm,
    check_bound,
    check_identity,
    eval_coeff,
    format_combo,
    parse_bracket,
    parse_coeff,
    standard_tree,
    to_standard,
)
from rcbrackets.transition import (
    ParamTriple,
    RacahQuery,
    u_matrix,
    u_reverse,
    u_reverse_matrix,
)

GENERIC_WEIGHTS = {1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(7, 3), 4: Fraction(3, 5)}


def monomial(weight: Fraction, degree: int) -> WeightedForm:
    z = Poly.variable("z", ("z",))
    return WeightedForm(weight, z**degree)


def combo_value(combo: dict[StandardTerm, Fraction], leaves: dict[int, WeightedForm]) -> Poly:
    """The value at the leaf forms of a combination of standard combs."""
    total = Poly.zero(("z",))
    for term, coeff in combo.items():
        total = total + coeff * eval_bracket_tree(standard_tree(term), leaves).form
    return total


# -- parsing ------------------------------------------------------------------------


def test_parse_round_trip() -> None:
    for src in ("f7", "[f1,f2]_0", "[[f1,f2]_1,f3]_2", "[f1,[f2,f3]_4]_1"):
        assert format_expr(parse_bracket(src)) == src


def test_parse_tolerates_whitespace() -> None:
    assert format_expr(parse_bracket(" [ f1 , [ f2 , f3 ]_2 ]_1 ")) == "[f1,[f2,f3]_2]_1"
    assert format_expr(parse_bracket("\t[ f1 , [ f2 , f3 ] _ 2 ] _\n1 ")) == "[f1,[f2,f3]_2]_1"


def test_parse_errors_carry_positions() -> None:
    cases = [
        ("", 0),
        ("x", 0),
        ("f", 1),
        ("[f1;f2]_1", 3),
        ("[f1,f2]1", 7),
        ("[f1,f2]_", 8),
        ("f1 f2", 3),
        ("f0", 1),
        ("f00", 1),
        ("[f1,f0]_1", 5),
        ("[f1,f2]_1/2", 8),
        ("f1x", 2),
        ("[f1,f2]_²", 8),
    ]
    for src, position in cases:
        with pytest.raises(BracketSyntaxError) as info:
            parse_bracket(src)
        assert info.value.position == position
    # the bracket tokens are not polynomial syntax
    with pytest.raises(PolySyntaxError) as info:
        poly_from_string("z_1", ("z",))
    assert info.value.position == 1


def test_parse_rejects_duplicate_slots() -> None:
    with pytest.raises(DuplicateSlotError):
        parse_bracket("[f1,[f2,f1]_1]_2")


# -- standard form ------------------------------------------------------------------


def test_standard_term_validation() -> None:
    with pytest.raises(ValueError):
        StandardTerm(orders=(1,), slots=(1,))
    with pytest.raises(ValueError):
        StandardTerm(orders=(1,), slots=(2, 1))
    for slots in ((2, 2), (1, 3, 3, 4)):
        with pytest.raises(ValueError, match="strictly ascending"):
            StandardTerm(orders=(0,) * (len(slots) - 1), slots=slots)


def test_standard_tree_round_trip() -> None:
    term = StandardTerm(orders=(1, 2), slots=(1, 2, 3))
    tree = standard_tree(term)
    assert format_expr(tree) == "[f1,[f2,f3]_1]_2"
    assert to_standard(tree, GENERIC_WEIGHTS) == {term: 1}


@st.composite
def standard_terms(draw) -> StandardTerm:
    """Standard terms on 1-6 ascending slots out of 1..9, orders 0-4."""
    slots = sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=6)))
    orders = draw(st.lists(st.integers(0, 4), min_size=len(slots) - 1, max_size=len(slots) - 1))
    return StandardTerm(tuple(orders), tuple(slots))


@given(standard_terms())
def test_standard_tree_and_standard_term_round_trip(term: StandardTerm) -> None:
    tree = standard_tree(term)
    assert rewrite._standard_term(tree) == term


def test_single_leaf_is_standard() -> None:
    term = StandardTerm(orders=(), slots=(3,))
    assert standard_tree(term) == Leaf(3)
    assert to_standard(Leaf(3), GENERIC_WEIGHTS) == {term: 1}


def _rewritten_to_three_combs(src: str) -> bool:
    """Whether ``src`` rewrites to all three standard combs on slots 1, 2, 3
    of total order 2, as a non-standard tree must."""
    combo = to_standard(parse_bracket(src), GENERIC_WEIGHTS)
    orders = sorted(term.orders for term in combo)
    return orders == [(0, 2), (1, 1), (2, 0)] and all(term.slots == (1, 2, 3) for term in combo)


def test_left_nest_is_not_standard() -> None:
    assert _rewritten_to_three_combs("[[f1,f2]_1,f3]_1")


def test_descending_slots_are_not_standard() -> None:
    assert _rewritten_to_three_combs("[f2,[f1,f3]_1]_1")


# -- rewriting ----------------------------------------------------------------------


def test_standard_input_is_fixed_point() -> None:
    tree = parse_bracket("[f1,[f2,f3]_2]_1")
    combo = to_standard(tree, GENERIC_WEIGHTS)
    assert combo == {StandardTerm(orders=(2, 1), slots=(1, 2, 3)): Fraction(1)}


def test_flip_costs_alternating_sign() -> None:
    for n in range(4):
        combo = to_standard(parse_bracket(f"[f2,f1]_{n}"), GENERIC_WEIGHTS)
        assert combo == {StandardTerm(orders=(n,), slots=(1, 2)): Fraction(-1) ** n}


def test_missing_weight_is_an_error() -> None:
    with pytest.raises(KeyError):
        to_standard(parse_bracket("[f1,f2]_1"), {1: Fraction(1)})


def test_missing_weight_raises_the_unbound_slot_error() -> None:
    with pytest.raises(UnboundSlotError, match="no weight bound for slot 2"):
        to_standard(parse_bracket("[f1,f2]_1"), {1: Fraction(1)})
    with pytest.raises(UnboundSlotError, match="no weight bound for slot 9"):
        eval_coeff(parse_coeff("l9"), {1: Fraction(1)})


def test_inadmissible_local_weights_are_gated() -> None:
    tree = parse_bracket("[[f1,f2]_1,f3]_1")
    bad = {1: Fraction(1), 2: Fraction(1), 3: Fraction(-2)}
    with pytest.raises(InadmissibleLocalWeightsError):
        to_standard(tree, bad)


@pytest.mark.parametrize(
    "w1, w2, w3",
    [
        (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3)),  # only a+c = 0
        (Fraction(-1, 3), Fraction(1, 3), Fraction(1, 2)),  # only a+b = 0
        (Fraction(-1, 3), Fraction(1, 2), Fraction(1, 3)),  # only b+c = 0
    ],
)
def test_transposition_gates_every_pair_sum(w1: Fraction, w2: Fraction, w3: Fraction) -> None:
    # [f2,[f1,f3]_1]_1 is one transposition with a = w2, b = w1, c = w3
    with pytest.raises(InadmissibleLocalWeightsError):
        to_standard(parse_bracket("[f2,[f1,f3]_1]_1"), {1: w1, 2: w2, 3: w3})


@pytest.mark.parametrize(
    "src, weights, message",
    [
        (  # left nest: the row's own triple has total 0
            "[f3,[[f1,f2]_2,f4]_1]_0",
            (Fraction(1, 2), Fraction(-1, 2), 1, 2),
            "rewrite site [[f1,f2]_2,f4]_1 has inadmissible weights (1/2, -1/2, 2)",
        ),
        (  # transposition: (a, b, c) passes, the row's (b, c, a) has c + a = 0
            "[f2,[f1,f3]_1]_1",
            (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3)),
            "rewrite site [f2,[f1,f3]_1]_1 has inadmissible weights (1/2, -1/3, 1/3)",
        ),
        (  # transposition: (a, b, c) itself has a + b = 0
            "[f2,[f1,f3]_1]_1",
            (Fraction(-1, 3), Fraction(1, 3), Fraction(1, 2)),
            "rewrite site [f2,[f1,f3]_1]_1 has inadmissible weights (1/3, -1/3, 1/2)",
        ),
        (  # recoupling from the top: C = [f5,f2]_1 is flipped before the root is recoupled
            "[[[f1,f3]_0,f4]_2,[f5,f2]_1]_0",
            (2, 1, -2, 1, 1),
            "rewrite site [[[f1,f3]_0,f4]_2,[f2,f5]_1]_0 has inadmissible weights (0, 1, 4)",
        ),
    ],
)
def test_inadmissible_site_messages(src: str, weights: tuple, message: str) -> None:
    with pytest.raises(InadmissibleLocalWeightsError) as got:
        to_standard(parse_bracket(src), dict(enumerate(weights, start=1)))
    assert str(got.value) == message


signed = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def transposition_sites(draw) -> tuple[Fraction, Fraction, Fraction, int, int, int]:
    """(a, b, c, n, p, q) with (a, b, c) and (b, c, a) admissible and p, q <= n <= 6."""
    a, b, c = draw(
        st.tuples(signed, signed, signed).filter(
            lambda t: ParamTriple(*t).is_admissible()
            and ParamTriple(t[1], t[2], t[0]).is_admissible()
        )
    )
    n = draw(st.integers(min_value=0, max_value=6))
    p = draw(st.integers(min_value=0, max_value=n))
    q = draw(st.integers(min_value=0, max_value=n))
    return a, b, c, n, p, q


@settings(max_examples=60, deadline=None)
@given(transposition_sites())
def test_transposition_is_the_three_step_composite(site) -> None:
    a, b, c, n, p, q = site
    # [f2, [f1, f3]_p]_{n-p}: a, b, c sit on slots 2, 1, 3; each piece
    # [f1, [f2, f3]_q]_{n-q} is standard, so the normal form is the row itself
    node = Node(Leaf(2), Node(Leaf(1), Leaf(3), p), n - p)
    got = {}
    for term, coeff in to_standard(node, {1: b, 2: a, 3: c}).items():
        assert term.slots == (1, 2, 3) and sum(term.orders) == n
        got[term.orders[0]] = coeff
    # reverse expansion at (a, b, c), flip of [a, b]_k, forward expansion at (b, a, c)
    reverse = u_reverse_matrix(ParamTriple(a, b, c), n)
    forward = u_matrix(ParamTriple(b, a, c), n)
    for r in range(n + 1):
        composite = sum(reverse[p][k] * (-1) ** k * forward[k][r] for k in range(n + 1))
        assert got.get(r, 0) == composite
    # one entry by the 4F3 route: U^{(b,c,a)}_{p,q} is the reverse family at (a, c, b)
    assert got.get(q, 0) == (-1) ** (n + p + q) * u_reverse(ParamTriple(a, c, b), RacahQuery(n, q, p))


def test_rewrite_golden_normal_forms(capsys) -> None:
    combo = to_standard(parse_bracket("[[f3,f1]_2,[f2,f4]_1]_1"), GENERIC_WEIGHTS)
    assert len(combo) == 14
    assert all(term.slots == (1, 2, 3, 4) for term in combo)
    assert all(sum(term.orders) == 4 for term in combo)
    golden = {
        "[[f3,f1]_2,[f2,f4]_1]_1": "368939c157f9aec488c749423f13461ca86940d165c26429eb5588853e232ceb",
        "[f4,[f3,[f2,f1]_3]_3]_3": "29fa1f66f60c9017a171ac8d4aae3600fd536e8e622de49b64b2dd526dbc18dc",
        "[[[f1,f2]_3,f3]_3,f4]_3": "c573becb387242eb5656f6f7208ea4ec57ad273c6d4fbd1878c79f16fefd27c8",
    }
    for expr, digest in golden.items():
        assert main(["rewrite", "--expr", expr, "--weights", "1/2,1,7/3,3/5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, expr


def test_rewriter_builds_no_rational_triple(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the rewriter built a rational weight triple")

    expr = parse_bracket("[[[[f1,f2]_3,f3]_3,f4]_3,f5]_3")
    weights = {**GENERIC_WEIGHTS, 5: Fraction(5, 4)}
    expected = to_standard(expr, weights)
    transition._u_cached.cache_clear()
    monkeypatch.setattr(rewrite, "ParamTriple", refuse)
    monkeypatch.setattr(transition, "ParamTriple", refuse)
    assert to_standard(expr, weights) == expected


def test_rewrite_preserves_semantics() -> None:
    tree = parse_bracket("[[f3,f1]_2,[f2,f4]_1]_1")
    combo = to_standard(tree, GENERIC_WEIGHTS)
    leaves = {
        1: monomial(GENERIC_WEIGHTS[1], 2),
        2: monomial(GENERIC_WEIGHTS[2], 1),
        3: monomial(GENERIC_WEIGHTS[3], 3),
        4: monomial(GENERIC_WEIGHTS[4], 2),
    }
    assert combo_value(combo, leaves) == eval_bracket_tree(tree, leaves).form


def _shape(draw, leaves: list[int], max_order: int) -> BracketExpr:
    """A random shape on ``leaves`` in that order, bracket orders 0 to ``max_order``."""
    if len(leaves) == 1:
        return Leaf(leaves[0])
    cut = draw(st.integers(min_value=1, max_value=len(leaves) - 1))
    order = draw(st.integers(min_value=0, max_value=max_order))
    return Node(_shape(draw, leaves[:cut], max_order), _shape(draw, leaves[cut:], max_order), order)


@st.composite
def small_trees(draw, min_leaves: int = 3, max_order: int = 2) -> Node:
    """Random shapes on ``min_leaves``-4 leaves over a random slot order,
    bracket orders 0 to ``max_order``."""
    leaf_count = draw(st.integers(min_value=min_leaves, max_value=4))
    slots = draw(st.permutations(range(1, leaf_count + 1)))
    return _shape(draw, list(slots), max_order)


@given(small_trees())
def test_rewrite_preserves_semantics_small(tree: Node) -> None:
    combo = to_standard(tree, GENERIC_WEIGHTS)
    leaves = {slot: monomial(GENERIC_WEIGHTS[slot], slot) for slot in expr_slots(tree)}
    assert combo_value(combo, leaves) == eval_bracket_tree(tree, leaves).form


def _gate_free(weights: tuple[Fraction, ...]) -> bool:
    """No nonempty sum of the weights is a nonpositive integer.

    Every value a rewrite site gates is such a sum plus twice a nonnegative
    integer (the orders inside the subtrees), so then every gate passes."""
    sums = {Fraction(0)}
    for w in weights:
        new = {total + w for total in sums}
        if any(total.denominator == 1 and total <= 0 for total in new):
            return False
        sums |= new
    return True


@st.composite
def signed_weighted_trees(draw) -> tuple[Node, dict[int, Fraction]]:
    """A ``small_trees`` shape with signed slot weights (denominators up to 6)
    that pass every site gate."""
    tree = draw(small_trees())
    count = len(expr_slots(tree))
    weights = draw(st.tuples(*[signed] * count).filter(_gate_free))
    return tree, dict(enumerate(weights, start=1))


@settings(deadline=None)
@given(signed_weighted_trees())
def test_rewrite_preserves_semantics_at_signed_weights(case) -> None:
    tree, weights = case
    combo = to_standard(tree, weights)
    assert all(combo.values())
    leaves = {slot: monomial(weights[slot], slot + 1) for slot in expr_slots(tree)}
    assert combo_value(combo, leaves) == eval_bracket_tree(tree, leaves).form


@st.composite
def sorted_spine_trees(draw) -> tuple[Node, dict[int, Fraction]]:
    """[[A,B]_k, C]_m on 5-6 leaves, with A a node and the left child's leaves
    ascending (C's in any order), so that the root is recoupled from the top;
    bracket orders 0-2, at signed slot weights that pass every site gate."""
    count = draw(st.integers(min_value=5, max_value=6))
    slots = list(draw(st.permutations(range(1, count + 1))))
    cut = draw(st.integers(min_value=3, max_value=count - 1))
    inner = sorted(slots[:cut])
    split = draw(st.integers(min_value=2, max_value=cut - 1))
    orders = st.integers(min_value=0, max_value=2)
    left = Node(_shape(draw, inner[:split], 2), _shape(draw, inner[split:], 2), draw(orders))
    tree = Node(left, _shape(draw, slots[cut:], 2), draw(orders))
    weights = draw(st.tuples(*[signed] * count).filter(_gate_free))
    return tree, dict(enumerate(weights, start=1))


@settings(max_examples=30, deadline=None)
@given(sorted_spine_trees())
def test_sorted_left_spines_preserve_semantics(case) -> None:
    tree, weights = case
    combo = to_standard(tree, weights)
    leaves = {slot: monomial(weights[slot], slot + 1) for slot in expr_slots(tree)}
    assert combo_value(combo, leaves) == eval_bracket_tree(tree, leaves).form


def _count_recouplings(monkeypatch) -> list:
    """The moves that read a row of U (recouplings and transpositions), one
    entry per move from here on."""
    moves = []
    recoupled = rewrite._recoupled

    def counted(*args):
        moves.append(args)
        return recoupled(*args)

    monkeypatch.setattr(rewrite, "_recoupled", counted)
    return moves


@pytest.mark.parametrize("leaves", [5, 51, 201])
def test_ascending_left_comb_is_recoupled_from_the_top(monkeypatch, leaves: int) -> None:
    # each move rotates the left spine at its top: D - 2 recouplings, the
    # rotation distance from the left comb to the right comb, where
    # post-order made (D-1)(D-2)/2
    moves = _count_recouplings(monkeypatch)
    weights = {slot: Fraction(1, 2) for slot in range(1, leaves + 1)}
    combo = to_standard(_comb("left", leaves - 1), weights)
    assert combo == {StandardTerm((0,) * (leaves - 1), tuple(range(1, leaves + 1))): 1}
    assert len(moves) == leaves - 2


def test_unsorted_left_child_is_not_recoupled_from_the_top(monkeypatch) -> None:
    # the left child's leaves 2, 4, 1 do not ascend, so the root waits for
    # post-order, which makes 15 moves; recoupled from the top first, the
    # root would carry the inversion into every piece and make 91
    moves = _count_recouplings(monkeypatch)
    combo = to_standard(parse_bracket("[[[f2,f4]_3,f1]_3,f3]_2"), GENERIC_WEIGHTS)
    assert len(combo) == 39
    assert len(moves) == 15


def _count_moves(monkeypatch) -> list:
    """The work-list pops that made a move, flips included: one popped tree per
    move from here on."""
    moves, depth = [], [0]
    step = rewrite._step

    def counted(tree, *args):
        depth[0] += 1
        try:
            out = step(tree, *args)
        finally:
            depth[0] -= 1
        if not depth[0] and type(out) is list:
            moves.append(tree)
        return out

    monkeypatch.setattr(rewrite, "_step", counted)
    return moves


@pytest.mark.parametrize(
    "src, moves, row_moves, terms",
    [
        # C = [f5,f4]_1 flips once, before the root is recoupled; recoupled
        # first, the root would leave that flip to each of its pieces: 5 moves
        ("[[[f1,f2]_1,f3]_0,[f5,f4]_1]_1", 4, 3, 5),
        # the left child flips into [[f1,f2]_1,f3]_1, then C is rewritten to
        # standard and the root recoupled last: 42 moves the other way round
        ("[[[f2,f1]_1,f3]_1,[f6,[f5,f4]_3]_0]_2", 27, 21, 56),
    ],
)
def test_top_recoupling_waits_for_standard_b_and_c(
    monkeypatch, src: str, moves: int, row_moves: int, terms: int
) -> None:
    popped = _count_moves(monkeypatch)
    recoupled = _count_recouplings(monkeypatch)
    weights = {**GENERIC_WEIGHTS, 5: Fraction(5, 4), 6: Fraction(2)}
    assert len(to_standard(parse_bracket(src), weights)) == terms
    assert (len(popped), len(recoupled)) == (moves, row_moves)


def test_top_recoupling_passes_over_an_inadmissible_inner_site() -> None:
    # (-3/2, 1, -1/2) sums to -1, so [[f1,f2]_1,f3]_1 is refused on its own,
    # and post-order refused the 4-leaf comb there; recoupled from the top,
    # the comb reads (3/2, -1/2, 3/2) and then (-3/2, 1, 1+2p), which pass
    weights = {1: Fraction(-3, 2), 2: Fraction(1), 3: Fraction(-1, 2), 4: Fraction(3, 2)}
    with pytest.raises(InadmissibleLocalWeightsError) as got:
        to_standard(parse_bracket("[[f1,f2]_1,f3]_1"), weights)
    assert str(got.value) == "rewrite site [[f1,f2]_1,f3]_1 has inadmissible weights (-3/2, 1, -1/2)"
    tree = parse_bracket("[[[f1,f2]_1,f3]_1,f4]_1")
    combo = to_standard(tree, weights)
    assert len(combo) == 9
    for degrees in itertools.product(range(4), repeat=4):
        leaves = {slot: monomial(weights[slot], degree) for slot, degree in zip(weights, degrees)}
        assert combo_value(combo, leaves) == eval_bracket_tree(tree, leaves).form, degrees


def _comb(spine: str, depth: int, order: int = 0, first: int = 1) -> Node:
    """A comb of ``depth`` nodes of one ``order`` on the slots first..first+depth:
    a left comb, or a standard right comb, which is its own normal form."""
    if spine == "left":
        tree = Leaf(first)
        for slot in range(first + 1, first + depth + 1):
            tree = Node(tree, Leaf(slot), order)
        return tree
    tree = Leaf(first + depth)
    for slot in range(first + depth - 1, first - 1, -1):
        tree = Node(Leaf(slot), tree, order)
    return tree


def _itself(tree: Node) -> list[tuple[Fraction, Node]]:
    return [(Fraction(1), tree), (Fraction(-1), tree)]


# each entry point that hashes or rewrites a caller's tree, as a call on
# (tree, slot weights), with its result on the standard comb of orders k at the bound
ENTRY_POINTS = {
    "tabulate_by_order": (
        lambda tree, weights: tabulate_by_order([tree], weights)[0][tree],
        lambda k: (0, ([1], 1)),
    ),
    "verify_on_monomials": (
        lambda tree, weights: [
            report.status
            for report in verify_on_monomials(
                "deep", list(weights.values()), [[({}, _itself(tree))]], 0
            )
        ],
        lambda k: ["pass"],
    ),
    "to_standard": (
        to_standard,
        lambda k: {StandardTerm((k,) * MAX_NESTING, tuple(range(1, MAX_NESTING + 2))): 1},
    ),
    "check_bound": (
        lambda tree, weights: check_bound(_itself(tree), weights, "deep").status,
        lambda k: "pass",
    ),
}


def _deep_id(entry: str, spine: str, depth: int) -> str:
    shape = str(depth) if spine == "left" else f"right-{depth}"
    # the rewriter's cases keep their bare shape ids
    return shape if entry == "to_standard" else f"{entry}-{shape}"


@pytest.mark.parametrize(
    "entry, spine, depth",
    [
        pytest.param(entry, spine, depth, id=_deep_id(entry, spine, depth))
        for entry in ENTRY_POINTS
        for spine in ("left", "right")
        for depth in (MAX_NESTING + 1, 600)
    ],
)
def test_over_deep_tree_is_refused_at_entry(entry: str, spine: str, depth: int) -> None:
    call, _ = ENTRY_POINTS[entry]
    weights = {slot: 1 for slot in range(1, depth + 2)}
    with pytest.raises(NestingTooDeepError, match="^input nested too deeply$"):
        call(_comb(spine, depth), weights)


@pytest.mark.parametrize(
    "entry, order",
    [pytest.param(entry, 0, id=entry) for entry in ENTRY_POINTS]
    # an order-1 comb's simplex slice has C(400, 200) points, so only the
    # rewriter's entry points take it
    + [pytest.param(entry, 1, id=f"{entry}-order-1") for entry in ("to_standard", "check_bound")],
)
def test_tree_at_the_nesting_bound_is_admitted(entry: str, order: int) -> None:
    call, expected = ENTRY_POINTS[entry]
    weights = {slot: Fraction(1, 2) for slot in range(1, MAX_NESTING + 2)}
    assert call(_comb("right", MAX_NESTING, order), weights) == expected(order)


def _two_combs(leaves: int) -> Node:
    """[C1, C2]_0 on the slots 1..leaves, C1 and C2 standard order-0 combs of
    about half the leaves each: nested about leaves/2 deep, and rewritten by
    left-nest moves alone to the order-0 comb nested leaves - 1 deep."""
    half = leaves // 2
    return Node(_comb("right", half - 1), _comb("right", leaves - half - 1, first=half + 1), 0)


@pytest.mark.parametrize("entry", ["to_standard", "check_bound"])
def test_tree_too_wide_to_rewrite_is_refused(entry: str) -> None:
    # the rewriter recurses as deep as its standard form nests, one node per
    # leaf but the last, however shallow the input
    call, expected = ENTRY_POINTS[entry]
    weights = {slot: 1 for slot in range(1, MAX_NESTING + 3)}
    tree = _two_combs(MAX_NESTING + 2)
    assert expr_total_order(tree) == 0 and len(expr_slots(tree)) == MAX_NESTING + 2
    with pytest.raises(NestingTooDeepError, match="^202 leaves nest too deeply once rewritten$"):
        call(tree, weights)
    del weights[MAX_NESTING + 2]
    assert call(_two_combs(MAX_NESTING + 1), weights) == expected(0)


# -- combos -------------------------------------------------------------------------


def test_format_combo() -> None:
    assert format_combo({}) == "0"
    combo = {
        StandardTerm(orders=(2, 0), slots=(1, 2, 3)): Fraction(5, 3),
        StandardTerm(orders=(0, 2), slots=(1, 2, 3)): Fraction(-1),
    }
    assert format_combo(combo) == "-1  (0,2)\n5/3  (2,0)"


# -- coefficient language -------------------------------------------------------------


def test_coeff_language_values() -> None:
    weights = {1: Fraction(2), 3: Fraction(1, 2)}
    cases = [
        ("3/4", Fraction(3, 4)),
        ("-l1", Fraction(-2)),
        ("l1*(2-l3)+1/2", Fraction(7, 2)),
        ("(l1+l3)*(l1-l3)", Fraction(15, 4)),
        ("--2", Fraction(2)),
        ("-(l1*-(2-l3))*3", Fraction(9)),
    ]
    for src, expected in cases:
        assert eval_coeff(parse_coeff(src), weights) == expected


def test_coeff_language_errors() -> None:
    for src, position in [("l", 0), ("2 +", 3), ("(1", 2), ("1 ? 2", 2), ("3/", 2), ("²", 0)]:
        with pytest.raises(BracketSyntaxError) as info:
            parse_coeff(src)
        assert info.value.position == position
    with pytest.raises(KeyError):
        eval_coeff(parse_coeff("l9"), {1: Fraction(1)})


# -- identity certification ------------------------------------------------------------


def test_cyclic_first_order_identity_certifies() -> None:
    terms = [
        ("1", "[[f1,f2]_1,f3]_1"),
        ("1", "[[f2,f3]_1,f1]_1"),
        ("1", "[[f3,f1]_1,f2]_1"),
    ]
    report = check_identity(terms, GENERIC_WEIGHTS, "cyclic")
    assert report.status == "pass"
    assert report.failures == []


def test_weighted_first_order_identity_certifies() -> None:
    terms = [
        ("l3", "[[f1,f2]_1,f3]_0"),
        ("l1", "[[f2,f3]_1,f1]_0"),
        ("l2", "[[f3,f1]_1,f2]_0"),
    ]
    report = check_identity(terms, GENERIC_WEIGHTS, "weighted")
    assert report.status == "pass"


def test_four_function_identity_certifies() -> None:
    terms = [
        ("1", "[[[f1,f2]_0,f3]_0,f4]_1"),
        ("1", "[[[f2,f3]_0,f4]_0,f1]_1"),
        ("1", "[[[f4,f3]_0,f1]_0,f2]_1"),
        ("1", "[[[f4,f1]_0,f2]_0,f3]_1"),
    ]
    report = check_identity(terms, GENERIC_WEIGHTS, "four-function")
    assert report.status == "pass"


def test_check_identity_cancels_to_empty() -> None:
    # equal trees cancel in the work list; [f2,f1]_1 = -[f1,f2]_1 cancels once rewritten
    for terms in (
        [("1/2", "[f1,f2]_1"), ("-2*1/4", "[f1,f2]_1")],
        [("1", "[f2,f1]_1"), ("1", "[f1,f2]_1")],
    ):
        report = check_identity(terms, GENERIC_WEIGHTS)
        assert report.status == "pass" and report.failures == []


# [[f1,f2]_1,f3]_1 expands at (1, 1, -2), whose total is 0
INADMISSIBLE_TREE = "[[f1,f2]_1,f3]_1"
INADMISSIBLE_WEIGHTS = {1: Fraction(1), 2: Fraction(1), 3: Fraction(-2)}


def test_terms_cancelling_as_trees_are_not_gated() -> None:
    # one work list: the terms cancel, or the coefficient is 0, before any move
    for terms in (
        [("1", INADMISSIBLE_TREE), ("-1", INADMISSIBLE_TREE)],
        [("0", INADMISSIBLE_TREE)],
        [("l1 - 1", INADMISSIBLE_TREE), ("1", "[f2,f1]_0"), ("-1", "[f1,f2]_0")],
    ):
        assert check_identity(terms, INADMISSIBLE_WEIGHTS).status == "pass"
    with pytest.raises(InadmissibleLocalWeightsError):
        to_standard(parse_bracket(INADMISSIBLE_TREE), INADMISSIBLE_WEIGHTS)


def test_pieces_cancel_in_the_work_list_in_term_order() -> None:
    # the first move flips [f2,f1]_0 into the second tree, which then cancels,
    # so the inadmissible expansion is never reached; listed the other way,
    # the expansion is the first move and raises
    terms = [("1", "[[f2,f1]_0,f3]_1"), ("-1", "[[f1,f2]_0,f3]_1")]
    assert check_identity(terms, INADMISSIBLE_WEIGHTS).status == "pass"
    with pytest.raises(InadmissibleLocalWeightsError, match=r"site \[\[f1,f2\]_0,f3\]_1"):
        check_identity(terms[::-1], INADMISSIBLE_WEIGHTS)


def test_non_cancelling_inadmissible_term_still_raises() -> None:
    terms = [("1", "[f3,[[f1,f2]_2,f4]_1]_0"), ("1/2", "[f1,f2]_0")]
    weights = dict(enumerate((Fraction(1, 2), Fraction(-1, 2), 1, 2), start=1))
    with pytest.raises(InadmissibleLocalWeightsError) as got:
        check_identity(terms, weights)
    assert str(got.value) == (
        "rewrite site [[f1,f2]_2,f4]_1 has inadmissible weights (1/2, -1/2, 2)"
    )


coefficients = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def identity_terms(draw) -> tuple[list[tuple[Fraction, Node]], dict[int, Fraction]]:
    """2-4 (coefficient, tree) terms on 1-4 leaves with orders 0-3, at slot
    weights that pass every site gate; a term may repeat an earlier tree,
    with the negated coefficient or a fresh one."""
    trees = small_trees(min_leaves=1, max_order=3)
    terms = [(draw(coefficients), draw(trees))]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            coeff, tree = draw(st.sampled_from(terms))
            terms.append((draw(st.sampled_from((-coeff, draw(coefficients)))), tree))
        else:
            terms.append((draw(coefficients), draw(trees)))
    weights = draw(st.tuples(*[signed] * 4).filter(_gate_free))
    return terms, dict(enumerate(weights, start=1))


@settings(max_examples=60, deadline=None)
@given(identity_terms())
def test_one_work_list_is_the_sum_of_the_terms(case) -> None:
    terms, weights = case
    # the per-term route: each tree rewritten alone, summed in Fractions
    expected: dict[StandardTerm, Fraction] = {}
    for coeff, tree in terms:
        for term, value in to_standard(tree, weights).items():
            expected[term] = expected.get(term, Fraction(0)) + coeff * value
    expected = {term: value for term, value in expected.items() if value}
    report = check_identity([(str(coeff), format_expr(tree)) for coeff, tree in terms], weights)
    if expected:
        assert report.status == "fail"
        assert report.failures[0]["residual"] == format_combo(expected)
    else:
        assert report.status == "pass"


def test_broken_identity_reports_residual() -> None:
    terms = [
        ("1", "[[f1,f2]_1,f3]_1"),
        ("1", "[[f2,f3]_1,f1]_1"),
    ]
    report = check_identity(terms, GENERIC_WEIGHTS, "broken")
    assert report.status == "fail"
    assert len(report.failures) == 1
    assert report.failures[0]["residual"] != "0"


# T1 flips and T2 is recoupled, so each pop of either makes one move
T1, T2 = parse_bracket("[f2,f1]_1"), parse_bracket("[[f1,f2]_0,f3]_1")


@pytest.mark.parametrize(
    "bound, order",
    [
        pytest.param([(1, T1), (1, T2), (-1, T1), (1, T1)], [T2, T1], id="cancelled-to-back"),
        pytest.param([(1, T1), (1, T2), (1, T1)], [T1, T2], id="live-keeps-its-place"),
        pytest.param([(0, T2), (1, T1)], [T1], id="zero-is-not-seeded"),
    ],
)
def test_work_list_order(monkeypatch, bound: list, order: list) -> None:
    # the work list is first in, first out: a live tree added again keeps its
    # place, and a tree whose coefficient cancels re-enters at the back
    popped = _count_moves(monkeypatch)
    check_bound([(Fraction(c), tree) for c, tree in bound], GENERIC_WEIGHTS, "order")
    assert popped == order


def test_unsorted_left_child_inside_a_is_not_recoupled_from_the_top(monkeypatch) -> None:
    # A = [[f2,f1]_1,f3]_1 ends in slot 3, below B = f4, so the spine check
    # passes, but A's walk finds its left child [f2,f1]_1 unsorted: the root
    # waits for post-order to flip it first
    popped = _count_moves(monkeypatch)
    recoupled = _count_recouplings(monkeypatch)
    tree = parse_bracket("[[[[f2,f1]_1,f3]_1,f4]_1,f5]_1")
    weights = {**GENERIC_WEIGHTS, 5: Fraction(5, 4)}
    combo = to_standard(tree, weights)
    assert len(combo) == 28
    assert (len(popped), len(recoupled)) == (14, 13)
    for degrees in ((2, 3, 4, 5, 6), (1, 0, 2, 1, 3), (4, 4, 0, 1, 2)):
        leaves = {slot: monomial(weights[slot], degree) for slot, degree in enumerate(degrees, 1)}
        assert combo_value(combo, leaves) == eval_bracket_tree(tree, leaves).form, degrees
