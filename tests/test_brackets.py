import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, perm, prod
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import rcbrackets
from rcbrackets.brackets import (
    DuplicateSlotError,
    Leaf,
    Node,
    UnboundSlotError,
    WeightedForm,
    _bracket_kernel,
    _monomial_bracket,
    eval_bracket_tree,
    expr_slots,
    expr_total_order,
    expr_weight,
    format_expr,
    monomial_form,
    rc_bracket,
    read_off_slice,
    simplex_slice,
    tabulate_on_slice,
    tabulate_trees,
    tree_symbol,
)
from rcbrackets.hypergeom import bracket_coeff_row
from rcbrackets.poly import VAR_ORDER, NestingTooDeepError, Poly, poly_from_string
from rcbrackets.rationals import binom_general

weights = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(5), max_denominator=6)
degrees = st.integers(min_value=0, max_value=5)
orders = st.integers(min_value=0, max_value=4)


def zpoly(src):
    return poly_from_string(src, ("z",))


def test_weighted_form_lifts_constants():
    f = WeightedForm(2, Poly.const((), 5))
    assert f.form.vars == ("z",)
    assert f.form.coeff({}) == 5


def test_weighted_form_keeps_z_forms_and_exact_weights():
    form = zpoly("z^2 + 1/3")
    weight = Fraction(5, 2)
    f = WeightedForm(weight, form)
    assert f.form is form
    assert f.weight is weight


def test_weighted_form_rejects_other_variables():
    with pytest.raises(ValueError):
        WeightedForm(1, Poly.variable("x", ("x",)))


def test_first_bracket_of_coordinate_functions():
    # [z, z]_1 at weights (w1, w2) is (w1 - w2) z
    for w1, w2 in ((Fraction(1, 2), Fraction(7, 3)), (3, 1), (2, 2)):
        f = WeightedForm(w1, zpoly("z"))
        g = WeightedForm(w2, zpoly("z"))
        out = rc_bracket(f, g, 1)
        assert out.weight == w1 + w2 + 2
        assert out.form == zpoly("z") * Fraction(w1 - w2)


def test_first_bracket_leibniz_form():
    # [f, g]_1 = w1 f g' - w2 f' g
    f = WeightedForm(Fraction(1, 2), zpoly("z^3 + 1"))
    g = WeightedForm(Fraction(7, 3), zpoly("z^2"))
    direct = f.form * g.form.diff("z") * Fraction(1, 2) - f.form.diff("z") * g.form * Fraction(7, 3)
    assert rc_bracket(f, g, 1).form == direct


def test_zeroth_bracket_is_product():
    f = WeightedForm(Fraction(1, 2), zpoly("z^2 + z"))
    g = WeightedForm(1, zpoly("z - 2"))
    assert rc_bracket(f, g, 0).form == f.form * g.form


def test_bracket_weight_rule():
    f = monomial_form(Fraction(1, 2), 2)
    g = monomial_form(Fraction(7, 3), 3)
    assert rc_bracket(f, g, 4).weight == Fraction(1, 2) + Fraction(7, 3) + 8


@given(weights, weights, degrees, degrees, orders)
def test_antisymmetry_up_to_sign(w1, w2, d1, d2, n):
    f = monomial_form(w1, d1)
    g = monomial_form(w2, d2)
    fg = rc_bracket(f, g, n)
    gf = rc_bracket(g, f, n)
    assert fg.form == gf.form * Fraction((-1) ** n)


def test_weight_zero_constant_is_unit():
    one = WeightedForm(0, zpoly("1"))
    f = WeightedForm(Fraction(7, 3), zpoly("z^4 + z"))
    assert rc_bracket(one, f, 0).form == f.form
    for n in range(1, 5):
        assert rc_bracket(one, f, n).form.is_zero()
        assert rc_bracket(f, one, n).form.is_zero()


def test_positive_weight_constant_is_not_annihilated():
    c = WeightedForm(Fraction(1, 2), zpoly("1"))
    f = WeightedForm(1, zpoly("z^2"))
    assert not rc_bracket(c, f, 1).form.is_zero()


def test_explicit_coefficient_sum():
    # expanded coefficient sum at n = 2 on generic polynomials
    w1, w2 = Fraction(1, 2), Fraction(7, 3)
    f = WeightedForm(w1, zpoly("z^3 + 2*z"))
    g = WeightedForm(w2, zpoly("z^2 - 1"))
    n = 2
    acc = Poly.zero(("z",))
    for s in range(n + 1):
        coeff = (-1) ** s * binom_general(w1 + n - 1, n - s) * binom_general(w2 + n - 1, s)
        acc = acc + f.form.diff("z", s) * g.form.diff("z", n - s) * Fraction(coeff)
    assert rc_bracket(f, g, n).form == acc


@given(weights, weights, degrees, degrees, orders)
def test_monomial_fast_path_matches_general_path(w1, w2, d1, d2, n):
    fast = rc_bracket(monomial_form(w1, d1), monomial_form(w2, d2), n)
    # force the general path with a two-term polynomial minus the extra term
    bulk = WeightedForm(w1, zpoly(f"z^{d1}") + zpoly("z" if d1 != 1 else "z^2"))
    extra = WeightedForm(w1, zpoly("z" if d1 != 1 else "z^2"))
    g = monomial_form(w2, d2)
    general = rc_bracket(bulk, g, n).form - rc_bracket(extra, g, n).form
    assert fast.form == general


@given(weights, weights, weights, degrees, degrees, orders)
def test_bilinearity(w1, w2, scale, d1, d2, n):
    f1 = monomial_form(w1, d1)
    f2 = monomial_form(w1, d1 + 1)
    g = monomial_form(w2, d2)
    combined = WeightedForm(w1, f1.form * Fraction(scale) + f2.form)
    lhs = rc_bracket(combined, g, n).form
    rhs = rc_bracket(f1, g, n).form * Fraction(scale) + rc_bracket(f2, g, n).form
    assert lhs == rhs


# dense z-polynomials with mixed denominators, from the zero polynomial up to degree 5
dense_polys = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=6
).map(lambda cs: Poly(("z",), {(d,): c for d, c in enumerate(cs)}))
# 0 and negative integers make entries of the bracket's coefficient row vanish
row_weights = st.one_of(
    st.integers(min_value=-4, max_value=0).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@given(row_weights, row_weights, dense_polys, dense_polys, st.integers(min_value=0, max_value=11))
@example(Fraction(1, 2), Fraction(7, 3), Poly.zero(("z",)), zpoly("z^2 + 1/3"), 1)
@example(Fraction(3, 5), Fraction(-2), zpoly("5/6"), zpoly("-3/4"), 0)
@example(Fraction(0), Fraction(4, 3), zpoly("2/3*z^3 + 1/2"), zpoly("5/7*z^4 - z"), 3)
@example(Fraction(-3), Fraction(-1), zpoly("z^5 - 1/6*z"), zpoly("3/8*z^5 + 9/5"), 4)
# gapped f: its constant term survives only s = 0, which g^(3) kills; z^5 keeps s = 1..3
@example(Fraction(1, 2), Fraction(4, 3), zpoly("z^5 + 1/3"), zpoly("z^2 - 1/2"), 3)
# n = 6 is above deg f + deg g
@example(Fraction(5, 3), Fraction(1, 4), zpoly("z^2 + 1/2"), zpoly("z^3 - 2/3"), 6)
def test_dense_bracket_is_bilinear_sum_of_monomial_brackets(w1, w2, p, q, n):
    pairs = list(product(p.terms.items(), q.terms.items()))
    grid = [(d1, d2) for ((d1,), _), ((d2,), _) in pairs]
    ((values, den),) = tabulate_trees([Node(Leaf(1), Leaf(2), n)], {1: w1, 2: w2}, grid)
    expected = Poly.zero(("z",))
    for (((d1,), c1), ((d2,), c2)), (degree, value) in zip(pairs, values):
        assert degree == d1 + d2 - n
        scalar = Fraction(value, den)
        if scalar:
            expected = expected + Poly.monomial(("z",), {"z": d1 + d2 - n}, c1 * c2 * scalar)
    out = rc_bracket(WeightedForm(w1, p), WeightedForm(w2, q), n)
    assert out.weight == w1 + w2 + 2 * n
    assert out.form == expected


@given(row_weights, row_weights, st.integers(min_value=0, max_value=12))
def test_integer_bracket_row_equals_binomial_formula(w1, w2, n):
    want = [
        (-1) ** s * binom_general(w1 + n - 1, n - s) * binom_general(w2 + n - 1, s)
        for s in range(n + 1)
    ]
    row, den = bracket_coeff_row(w1, w2, n)
    assert [Fraction(v, den) for v in row] == want
    table_row, table_den, _ = _monomial_bracket(w1, w2, n)
    assert den == table_den == lcm(*(c.denominator for c in want))
    assert table_row == tuple((s, c * den) for s, c in enumerate(want) if c)


def schoolbook_bracket(w1, w2, f, g, n):
    """[f, g]_n on integer numerators, term by term: sum_s row[s] f^(s) g^(n-s)."""
    (f_nums, f_den), (g_nums, g_den) = f, g
    row, row_den = bracket_coeff_row(w1, w2, n)
    out = {}
    for s, c in enumerate(row):
        for (d1,), v1 in f_nums.items():
            for (d2,), v2 in g_nums.items():
                term = c * v1 * perm(d1, s) * v2 * perm(d2, n - s)
                if term:
                    out[d1 + d2 - n,] = out.get((d1 + d2 - n,), 0) + term
    return {e: v for e, v in out.items() if v}, row_den * f_den * g_den


# gapped z-polynomials on integer numerators, signed up to 10^40, from zero up to degree 9
kernel_polys = st.tuples(
    st.dictionaries(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=-(10**40), max_value=10**40),
        max_size=6,
    ).map(lambda terms: {(d,): v for d, v in terms.items()}),
    st.integers(min_value=1, max_value=10**6),
)
kernel_orders = st.builds(
    lambda start, count: range(start, start + count),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=6),
)
ALTERNATING = ({(d,): (-1) ** d * (10**40 + d) for d in range(10)}, 7)


@given(row_weights, row_weights, kernel_polys, kernel_polys, kernel_orders)
# the output's coefficients alternate in sign, so reading its digits borrows at every step
@example(Fraction(1, 2), Fraction(7, 3), ALTERNATING, ({(0,): 3, (1,): 1}, 1), range(0, 4))
@example(Fraction(-3, 4), Fraction(5, 2), ({(3,): 1}, 1), ALTERNATING, range(2, 9))
# a single product: the coefficient is the bound itself
@example(Fraction(1), Fraction(1), ({(0,): 3}, 1), ({(0,): 1}, 1), range(0, 1))
@example(Fraction(1), Fraction(1), ({(2,): -(10**40)}, 3), ({(1,): 10**40}, 1), range(0, 4))
# zero polynomial; gapped f; every order above deg f + deg g
@example(Fraction(1, 2), Fraction(4, 3), ({}, 1), ({(2,): 5, (0,): -1}, 2), range(0, 3))
@example(Fraction(0), Fraction(-2), ({(9,): 2, (0,): -3}, 5), ({(4,): -7}, 1), range(3, 9))
@example(Fraction(5, 3), Fraction(1, 4), ({(2,): 1, (0,): 1}, 1), ({(1,): -1}, 1), range(4, 8))
def test_kernel_equals_schoolbook_convolution_per_order(w1, w2, f, g, orders):
    got = _bracket_kernel(w1, w2, f, g, orders)
    assert got == [schoolbook_bracket(w1, w2, f, g, n) for n in orders]


# -- bracket expression trees -------------------------------------------------------


def test_leaf_and_node_validation():
    with pytest.raises(ValueError):
        Leaf(0)
    with pytest.raises(ValueError):
        Node(Leaf(1), Leaf(2), -1)


def test_equal_trees_built_apart_are_one_dict_key():
    # the term-table engine and the rewriter's work list merge equal trees by dict
    first = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    second = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first: 1, second: 2}) == 1
    assert Node(Leaf(1), Leaf(2), 1) != Node(Leaf(2), Leaf(1), 1)
    assert Node(Leaf(1), Leaf(2), 1) != Node(Leaf(1), Leaf(2), 2)
    assert Leaf(1) != Node(Leaf(1), Leaf(2), 0)


def test_trees_are_immutable():
    node = Node(Leaf(1), Leaf(2), 1)
    for tree, name in ((node, "left"), (node, "order"), (node, "extra"), (Leaf(1), "slot")):
        with pytest.raises(AttributeError):
            setattr(tree, name, Leaf(3))


def test_a_tree_is_the_tuple_of_its_fields():
    """Pinned: a Node is the tuple (left, right, order) and a Leaf the tuple
    (slot,), so each equals, and hashes as, that plain tuple."""
    node = Node(Leaf(1), Leaf(2), 3)
    assert node == (Leaf(1), Leaf(2), 3) and hash(node) == hash((Leaf(1), Leaf(2), 3))
    assert Leaf(1) == (1,) and hash(Leaf(1)) == hash((1,))
    assert (node.left, node.right, node.order, Leaf(4).slot) == (Leaf(1), Leaf(2), 3, 4)
    assert repr(node) == "Node(left=Leaf(slot=1), right=Leaf(slot=2), order=3)"


def test_trees_built_by_make_or_replace_are_validated():
    # namedtuple's _replace builds through _make, which calls the constructor
    node = Node(Leaf(1), Leaf(2), 1)
    with pytest.raises(ValueError, match="^bracket order must be a nonnegative integer, got -1$"):
        node._replace(order=-1)
    with pytest.raises(ValueError, match="^bracket order must be a nonnegative integer, got 1.5$"):
        Node._make((Leaf(1), Leaf(2), 3 / 2))
    with pytest.raises(ValueError, match="^leaf slots are positive integers, got 0$"):
        Leaf(1)._replace(slot=0)
    assert node._replace(order=3) == Node._make((Leaf(1), Leaf(2), 3)) == Node(Leaf(1), Leaf(2), 3)
    assert type(node._replace(order=3)) is Node and Leaf._make([4]) == Leaf(4)


def test_tree_deeper_than_the_recursion_limit_is_refused():
    tree = Leaf(1)
    for slot in range(2, 5002):
        tree = Node(tree, Leaf(slot), 0)
    weights = {slot: 1 for slot in range(1, 5002)}
    with pytest.raises(NestingTooDeepError):
        tabulate_trees([tree], weights, [])
    with pytest.raises(NestingTooDeepError):
        tabulate_on_slice([tree], weights, 0)


def test_wide_shallow_tree_tabulates_on_its_slice():
    # 1,500 slots nested 11 deep: the slice is built with no recursion on its
    # slot count, so only a tree's nesting bounds the tabulators' recursion
    def balanced(lo: int, hi: int):
        if lo == hi:
            return Leaf(lo)
        mid = (lo + hi) // 2
        return Node(balanced(lo, mid), balanced(mid + 1, hi), 0)

    weights = {slot: 1 for slot in range(1, 1501)}
    assert tabulate_on_slice([balanced(1, 1500)], weights, 0) == ([([(0, 1)], 1)], [(0,) * 1500], [1])
    assert simplex_slice(1500, 1) == [(0,) * i + (1,) + (0,) * (1499 - i) for i in range(1499, -1, -1)]


def test_tree_too_deep_for_the_c_hash_is_refused_not_crashed():
    """A tuple hash recurses in C with no guard, so a tree some 10^5 deep can
    overflow the C stack.  Each entry point that takes a caller's trees walks
    them with the nesting bound first, so it raises; in a child process, which
    a crash kills."""
    script = (
        "from rcbrackets.brackets import Leaf, Node, tabulate_on_slice, tabulate_trees\n"
        "from rcbrackets.identities import verify_on_monomials\n"
        "from rcbrackets.poly import NestingTooDeepError\n"
        "from rcbrackets.rewrite import to_standard\n"
        "tree, leaf = Leaf(1), Leaf(2)\n"
        "for _ in range(400_000):\n"
        "    tree = Node(tree, leaf, 0)\n"
        "for call in (\n"
        "    lambda: tabulate_trees([tree], {1: 1, 2: 1}, []),\n"
        "    lambda: tabulate_on_slice([tree], {1: 1, 2: 1}, 0),\n"
        "    lambda: verify_on_monomials('deep', [1, 1], [[({}, [(1, tree)])]], 0),\n"
        "    lambda: to_standard(tree, {1: 1, 2: 1}),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except NestingTooDeepError as error:\n"
        "        print(type(error).__name__)\n"
    )
    src = str(Path(rcbrackets.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NestingTooDeepError"] * 4


def test_expr_slots_and_duplicates():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    assert expr_slots(expr) == (1, 2, 3)
    with pytest.raises(DuplicateSlotError):
        expr_slots(Node(Leaf(1), Leaf(1), 0))


def test_expr_total_order_and_weight():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 2)
    assert expr_total_order(expr) == 3
    weights = {1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(7, 3)}
    assert expr_weight(expr, weights) == Fraction(1, 2) + 1 + Fraction(7, 3) + 6
    with pytest.raises(UnboundSlotError):
        expr_weight(expr, {1: Fraction(1), 2: Fraction(1)})


def test_format_expr():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 2)
    assert format_expr(expr) == "[[f1,f2]_1,f3]_2"


def test_eval_bracket_tree_matches_nested_calls():
    leaves = {
        1: monomial_form(Fraction(1, 2), 1),
        2: monomial_form(1, 2),
        3: monomial_form(Fraction(7, 3), 3),
    }
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 2)
    direct = rc_bracket(rc_bracket(leaves[1], leaves[2], 1), leaves[3], 2)
    assert eval_bracket_tree(expr, leaves) == direct


def test_eval_bracket_tree_missing_leaf():
    expr = Node(Leaf(1), Leaf(2), 0)
    with pytest.raises(UnboundSlotError):
        eval_bracket_tree(expr, {1: monomial_form(1, 1)})


# -- tabulation on monomial leaves ----------------------------------------------------

signed_weights = st.fractions(min_value=-5, max_value=5, max_denominator=6)
leaf_degrees = st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5)


@st.composite
def bracket_trees(draw):
    """Trees on 2-5 distinct slots with orders 0-3; slot i reads degrees[i - 1]."""
    leaves = draw(st.integers(min_value=2, max_value=5))
    slots = draw(st.permutations(range(1, leaves + 1)))

    def build(part):
        if len(part) == 1:
            return Leaf(part[0])
        cut = draw(st.integers(min_value=1, max_value=len(part) - 1))
        return Node(build(part[:cut]), build(part[cut:]), draw(st.integers(0, 3)))

    return build(list(slots))


def _mirrored(expr):
    """``expr`` with the children of every node swapped."""
    if isinstance(expr, Leaf):
        return expr
    return Node(_mirrored(expr.right), _mirrored(expr.left), expr.order)


@given(
    bracket_trees(),
    st.lists(signed_weights, min_size=5, max_size=5),
    st.lists(leaf_degrees, min_size=1, max_size=3),
)
def test_monomial_evaluator_matches_eval_bracket_tree(expr, ws, degree_tuples):
    slot_weights = dict(enumerate(ws, start=1))
    # the mirror meets each (w1, w2, n) node of expr as (w2, w1, n) and reads
    # (d1, d2) as (d2, d1); both trees share the monomial tables
    trees = [expr, _mirrored(expr)]
    slots = expr_slots(expr)
    # one call per tuple: later calls reuse the table values of earlier ones
    for degs in degree_tuples:
        leaves = {slot: monomial_form(slot_weights[slot], degs[slot - 1]) for slot in slots}
        tables = tabulate_trees(trees, slot_weights, [degs])
        for tree, (((degree, v),), den) in zip(trees, tables):
            assert isinstance(v, int) and isinstance(den, int)
            c = Fraction(v, den)
            expected = eval_bracket_tree(tree, leaves).form
            assert degree == sum(degs[slot - 1] for slot in slots) - expr_total_order(expr)
            if c:
                assert expected == Poly.monomial(("z",), {"z": degree}, c)
            else:
                assert expected.is_zero()


def _subtrees(expr):
    """Every subtree of ``expr``, children before their parent."""
    if isinstance(expr, Leaf):
        return [expr]
    return _subtrees(expr.left) + _subtrees(expr.right) + [expr]


@given(
    bracket_trees(),
    st.integers(0, 3),
    st.lists(signed_weights, min_size=5, max_size=5),
    st.lists(leaf_degrees, min_size=1, max_size=5),
)
def test_tabulated_trees_equal_eval_bracket_tree(expr, order, ws, grid):
    slot_weights = dict(enumerate(ws, start=1))
    # the trees share subtrees: every subtree of expr, the mirror (which shares
    # its leaves), expr's children under another order and expr's left child
    # at expr's order beside the mirrored right child
    trees = _subtrees(expr) + [
        _mirrored(expr),
        Node(expr.left, expr.right, order),
        Node(expr.left, _mirrored(expr.right), expr.order),
    ]
    # the zero tuple has degree 0, below the total order of every tree with a
    # nonzero order, so those trees are zero there
    grid = grid + [[0] * 5]
    tables = tabulate_trees(trees, slot_weights, grid)
    assert len(tables) == len(trees)
    for tree, (values, den) in zip(trees, tables):
        slots = expr_slots(tree)
        assert len(values) == len(grid)
        assert den == tabulate_trees([tree], slot_weights, [])[0][1]
        for degs, (degree, v) in zip(grid, values):
            leaves = {slot: monomial_form(slot_weights[slot], degs[slot - 1]) for slot in slots}
            expected = eval_bracket_tree(tree, leaves).form
            assert degree == sum(degs[slot - 1] for slot in slots) - expr_total_order(tree)
            if v:
                assert expected == Poly.monomial(("z",), {"z": degree}, Fraction(v, den))
            else:
                assert expected.is_zero()
        if expr_total_order(tree):
            assert values[-1] == (-expr_total_order(tree), 0)


def test_tabulate_trees_checks_weights_on_an_empty_grid():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tabulate_trees([expr], {1: Fraction(1), 2: Fraction(1, 2)}, [])
    # den is the product of the nodes' row denominators: [f1,f2]_1 at (1, 2),
    # then order 0 at (1 + 2 + 2, 3)
    inner = _monomial_bracket(Fraction(1), Fraction(2), 1)
    outer = _monomial_bracket(Fraction(5), Fraction(3), 0)
    den = inner[1] * outer[1]
    assert tabulate_trees([expr], {1: 1, 2: 2, 3: 3}, []) == [([], den)]


def test_monomial_evaluator_degree_below_order_is_zero():
    tree = Node(Leaf(1), Leaf(2), 3)
    ((values, _),) = tabulate_trees([tree], {1: Fraction(1, 2), 2: 1}, [(1, 1), (2, 0), (2, 1)])
    assert values[:2] == [(-1, 0), (-1, 0)]
    assert values[2][1] != 0
    # a zero inner bracket makes the whole tree zero, at the formal degree
    outer = Node(Node(Leaf(1), Leaf(2), 2), Leaf(3), 0)
    assert tabulate_trees([outer], {1: 1, 2: 2, 3: 3}, [(1, 0, 5)])[0][0] == [(4, 0)]


def test_monomial_evaluator_single_leaf():
    assert tabulate_trees([Leaf(2)], {2: Fraction(7, 3)}, [(5, 3)]) == [([(3, 1)], 1)]


def test_monomial_evaluator_unbound_slot_at_compile_time():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tabulate_trees([expr], {1: Fraction(1), 2: Fraction(1, 2)}, [(1, 1, 1)])


# -- tree symbols ------------------------------------------------------------------

# slot i of a symbol reads the i-th variable of the universe
SYMBOL_LEAVES = {slot: Poly.variable(name, VAR_ORDER) for slot, name in enumerate(VAR_ORDER, 1)}


def _symbol_on_monomials(symbol, degrees):
    """sum_e S[e] prod_i falling(d_i, e_i): S as a constant-coefficient operator
    applied to prod_i x_i^(d_i), read at x_i = z; ``None`` is the symbol 1."""
    if symbol is None:
        return Fraction(1)
    total = Fraction(0)
    for exps, coeff in symbol.terms.items():
        term = coeff
        for d, e in zip(degrees, exps):
            term *= perm(d, e)  # the falling factorial d (d-1) ... (d-e+1)
        total += term
    return total


@given(bracket_trees(), st.lists(signed_weights, min_size=5, max_size=5), leaf_degrees)
def test_tree_symbol_acts_as_monomial_evaluator(expr, ws, degs):
    slot_weights = dict(enumerate(ws, start=1))
    total, symbol, weight = tree_symbol(expr, slot_weights, SYMBOL_LEAVES)
    slots = expr_slots(expr)
    assert weight == expr_weight(expr, slot_weights)
    assert total == sum((SYMBOL_LEAVES[slot] for slot in slots), Poly.zero(VAR_ORDER))
    assert symbol.total_degree() in (-1, expr_total_order(expr))
    ((((_, v),), den),) = tabulate_trees([expr], slot_weights, [degs])
    assert Fraction(v, den) == _symbol_on_monomials(symbol, degs)


def test_tree_symbol_single_leaf():
    total, symbol, weight = tree_symbol(Leaf(2), {2: Fraction(7, 3)}, SYMBOL_LEAVES)
    assert (total, symbol, weight) == (SYMBOL_LEAVES[2], None, Fraction(7, 3))
    degs = (5, 3, 0, 0, 0)
    assert tabulate_trees([Leaf(2)], {2: Fraction(7, 3)}, [degs]) == [([(3, 1)], 1)]
    assert _symbol_on_monomials(symbol, degs) == 1


def test_tree_symbol_unbound_slot():
    expr = Node(Leaf(1), Leaf(3), 1)
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tree_symbol(expr, {1: 1, 3: 2}, {1: SYMBOL_LEAVES[1]})
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tree_symbol(expr, {1: 1}, SYMBOL_LEAVES)


# a row with zeros, (d1, d2) below n in either slot, and pairs with no live s at all
@example(Fraction(-2), Fraction(1, 2), 4, [(0, 0), (1, 2), (3, 0), (0, 5), (2, 2)])
@example(Fraction(1, 3), Fraction(5, 2), 3, [(0, 1), (1, 0), (3, 0), (0, 3), (1, 1)])
@given(
    row_weights,
    row_weights,
    st.integers(min_value=0, max_value=6),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=8),
)
def test_memo_entries_equal_the_full_row_sum(w1, w2, n, grid):
    ((values, den),) = tabulate_trees([Node(Leaf(1), Leaf(2), n)], {1: w1, 2: w2}, grid)
    row, table_den, memo = _monomial_bracket(w1, w2, n)
    assert den == table_den
    for d1, d2 in grid:
        assert (d1, d2) in memo
    # every entry, including those earlier calls filled, sums over s = 0..n
    for (d1, d2), value in memo.items():
        assert value == sum(c * perm(d1, s) * perm(d2, n - s) for s, c in row)
    assert values == [(d1 + d2 - n, memo[d1, d2]) for d1, d2 in grid]


# -- the simplex slice ------------------------------------------------------------


@pytest.mark.parametrize("slots", range(6))
def test_simplex_slice_is_every_tuple_of_the_order(slots) -> None:
    for order in range(5):
        grid = simplex_slice(slots, order)
        want = [a for a in product(range(order + 1), repeat=slots) if sum(a) == order]
        assert grid == want
        assert len(grid) == (comb(order + slots - 1, slots - 1) if slots else int(order == 0))


@st.composite
def slice_trees(draw, max_slots=3):
    """Trees on the slots 1..D, D <= ``max_slots``, in any leaf order, of total order <= 4."""
    slots = draw(st.permutations(range(1, draw(st.integers(1, max_slots)) + 1)))
    budget = [draw(st.integers(0, 4))]

    def build(part):
        if len(part) == 1:
            return Leaf(part[0])
        cut = draw(st.integers(min_value=1, max_value=len(part) - 1))
        left, right = build(part[:cut]), build(part[cut:])
        order = draw(st.integers(0, budget[0]))
        budget[0] -= order
        return Node(left, right, order)

    return build(list(slots))


slice_weights = st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6), max_denominator=7)
SLICE_VARS = ("x", "y", "t")


@given(slice_trees(), st.lists(slice_weights, min_size=3, max_size=3))
def test_slice_values_are_tree_symbol_coefficients(tree, ws) -> None:
    """On a = slice[i], the tree is s_a prod a_i!, s_a the coefficient of
    x^a1 y^a2 t^a3 in ``tree_symbol``; the slice covers the whole symbol."""
    slots = len(expr_slots(tree))
    weights = dict(enumerate(ws[:slots], start=1))
    order = expr_total_order(tree)
    (((values, den),), grid, factorials) = tabulate_on_slice([tree], weights, order)
    leaves = {slot: Poly.variable(SLICE_VARS[slot - 1], SLICE_VARS) for slot in weights}
    symbol = tree_symbol(tree, weights, leaves)[1] or Poly.const(SLICE_VARS, 1)
    assert factorials == [prod(map(factorial, a)) for a in grid]
    read = Poly.zero(SLICE_VARS)
    for a, (degree, v), f in zip(grid, values, factorials):
        assert degree == 0
        s_a = symbol.coeff({name: e for name, e in zip(SLICE_VARS, a)})
        assert Fraction(v, den) == s_a * f
        read = read + Poly.monomial(SLICE_VARS, dict(zip(SLICE_VARS, a)), s_a)
    assert read == symbol


def test_tabulate_on_slice_reads_brackets_back_and_checks_its_trees() -> None:
    weights = {1: Fraction(1, 2), 2: Fraction(7, 3)}
    tree = Node(Leaf(2), Leaf(1), 2)
    ((values, den),), grid, _ = tabulate_on_slice([tree], weights, 2)
    assert grid == [(0, 2), (1, 1), (2, 0)]
    on_slice = {a: v for a, (_, v) in zip(grid, values)}
    leaves = {1: monomial_form(weights[1], 3), 2: monomial_form(weights[2], 4)}
    value = Poly.monomial(("z",), {"z": 5}, Fraction(read_off_slice(on_slice, (3, 4)), den))
    assert eval_bracket_tree(tree, leaves).form == value
    assert read_off_slice(on_slice, (1, 0)) == 0
    with pytest.raises(ValueError, match="total order 3"):
        tabulate_on_slice([tree], weights, 3)
    with pytest.raises(ValueError, match="slots 1..3"):
        tabulate_on_slice([tree], {**weights, 3: Fraction(1)}, 2)


@given(
    slice_trees(max_slots=4),
    st.lists(slice_weights, min_size=4, max_size=4),
    st.lists(degrees, min_size=4, max_size=4),
)
def test_read_off_slice_is_the_tree_at_any_leaf_degrees(tree, ws, degs) -> None:
    slots = len(expr_slots(tree))
    weights, degs = dict(enumerate(ws[:slots], start=1)), degs[:slots]
    order = expr_total_order(tree)
    (((values, den),), grid, _) = tabulate_on_slice([tree], weights, order)
    on_slice = {a: v for a, (_, v) in zip(grid, values)}
    ((direct, direct_den),) = tabulate_trees([tree], weights, [degs])
    assert direct_den == den
    assert direct == [(sum(degs) - order, read_off_slice(on_slice, degs))]
