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
    _tabulate,
    eval_bracket_tree,
    expr_slots,
    expr_total_order,
    expr_weight,
    format_expr,
    monomial_form,
    rc_bracket,
    read_off_slice,
    simplex_slice,
    tabulate_by_order,
    tree_symbol,
)
from rcbrackets.hypergeom import bracket_row_scaled
from rcbrackets.poly import VAR_ORDER, NestingTooDeepError, Poly, poly_from_string
from rcbrackets.rationals import binom_general, common_scale

weights = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(5), max_denominator=6)
degrees = st.integers(min_value=0, max_value=5)
orders = st.integers(min_value=0, max_value=4)


def zpoly(src):
    return poly_from_string(src, ("z",))


def z_term(degree, c):
    """c z^degree, or the zero polynomial when c == 0 (degree may then be negative)."""
    return Poly.monomial(("z",), {"z": degree}, c) if c else Poly.zero(("z",))


def _slice_table(tree, weights):
    """``((values, den), slice)``: one tree's table and slice, from ``tabulate_by_order``."""
    tables, slices = tabulate_by_order([tree], weights)
    order, table = tables[tree]
    return table, slices[order]


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
    (values, den), grid = _slice_table(Node(Leaf(1), Leaf(2), n), {1: w1, 2: w2})
    on_slice = dict(zip(grid, values))
    expected = Poly.zero(("z",))
    for ((d1,), c1), ((d2,), c2) in product(p.terms.items(), q.terms.items()):
        scalar = Fraction(read_off_slice(on_slice, (d1, d2)), den)
        expected = expected + z_term(d1 + d2 - n, c1 * c2 * scalar)
    out = rc_bracket(WeightedForm(w1, p), WeightedForm(w2, q), n)
    assert out.weight == w1 + w2 + 2 * n
    assert out.form == expected


@given(row_weights, row_weights, st.integers(min_value=0, max_value=12))
def test_integer_bracket_row_equals_binomial_formula(w1, w2, n):
    want = [
        (-1) ** s * binom_general(w1 + n - 1, n - s) * binom_general(w2 + n - 1, s)
        for s in range(n + 1)
    ]
    # the lcm scale of two weights is the canonical key: gcd(a, b, d) = 1
    d, (a, b) = common_scale(w1, w2)
    row, den = bracket_row_scaled(a, b, d, n)
    assert [Fraction(v, den) for v in row] == want
    table_row, table_den, _ = _monomial_bracket(a, b, d, n)
    assert den == table_den == lcm(*(c.denominator for c in want))
    assert table_row == tuple(c * den for c in want)


def schoolbook_bracket(w1, w2, f, g, n):
    """[f, g]_n on integer numerators, term by term: sum_s row[s] f^(s) g^(n-s)."""
    (f_nums, f_den), (g_nums, g_den) = f, g
    d, (a, b) = common_scale(w1, w2)
    row, row_den = bracket_row_scaled(a, b, d, n)
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
    d, (a, b) = common_scale(w1, w2)
    got = _bracket_kernel(a, b, d, f, g, orders)
    assert got == [schoolbook_bracket(w1, w2, f, g, n) for n in orders]
    # any scale of the pair reads the same row
    assert _bracket_kernel(3 * a, 3 * b, 3 * d, f, g, orders) == got


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
        tabulate_by_order([tree], weights)


def test_wide_shallow_tree_tabulates_on_its_slice():
    # 1,500 slots nested 11 deep: the slice is built with no recursion on its
    # slot count, so only a tree's nesting bounds the tabulators' recursion
    def balanced(lo: int, hi: int):
        if lo == hi:
            return Leaf(lo)
        mid = (lo + hi) // 2
        return Node(balanced(lo, mid), balanced(mid + 1, hi), 0)

    weights = {slot: 1 for slot in range(1, 1501)}
    tree = balanced(1, 1500)
    assert tabulate_by_order([tree], weights) == ({tree: (0, ([1], 1))}, {0: [(0,) * 1500]})
    assert simplex_slice(1500, 1) == [(0,) * i + (1,) + (0,) * (1499 - i) for i in range(1499, -1, -1)]


def test_tree_too_deep_for_the_c_hash_is_refused_not_crashed():
    """A tuple hash recurses in C with no guard, so a tree some 10^5 deep can
    overflow the C stack.  Each entry point that takes a caller's trees walks
    them with the nesting bound first, so it raises; in a child process, which
    a crash kills."""
    script = (
        "from rcbrackets.brackets import Leaf, Node, tabulate_by_order\n"
        "from rcbrackets.engine import verify_on_monomials\n"
        "from rcbrackets.poly import NestingTooDeepError\n"
        "from rcbrackets.rewrite import to_standard\n"
        "tree, leaf = Leaf(1), Leaf(2)\n"
        "for _ in range(400_000):\n"
        "    tree = Node(tree, leaf, 0)\n"
        "for call in (\n"
        "    lambda: tabulate_by_order([tree], {1: 1, 2: 1}),\n"
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
    assert proc.stdout.split() == ["NestingTooDeepError"] * 3


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


def _on_first_slots(expr, weights):
    """``expr`` with its slots renamed 1..D in increasing order, and their weights."""
    rename = {slot: i for i, slot in enumerate(sorted(expr_slots(expr)), start=1)}

    def build(e):
        if isinstance(e, Leaf):
            return Leaf(rename[e.slot])
        return Node(build(e.left), build(e.right), e.order)

    return build(expr), {i: weights[slot] for slot, i in rename.items()}


def _read_at(tables, grid, degs):
    """Each table's value at leaf degrees ``degs``, read off the slice, over its den."""
    return [Fraction(read_off_slice(dict(zip(grid, values)), degs), den) for values, den in tables]


@given(
    bracket_trees(),
    st.lists(signed_weights, min_size=5, max_size=5),
    st.lists(leaf_degrees, min_size=1, max_size=3),
)
def test_monomial_evaluator_matches_eval_bracket_tree(expr, ws, degree_tuples):
    slots = expr_slots(expr)
    weights = {slot: ws[slot - 1] for slot in slots}
    order = expr_total_order(expr)
    # the mirror meets each (w1, w2, n) node of expr as (w2, w1, n) and reads
    # (d1, d2) as (d2, d1); both trees share the monomial tables
    trees = [expr, _mirrored(expr)]
    tabulated, slices = tabulate_by_order(trees, weights)
    assert list(slices) == [order]
    tables, grid = [tabulated[tree][1] for tree in trees], slices[order]
    for values, den in tables:
        assert all(isinstance(v, int) for v in values) and isinstance(den, int)
    for degs in degree_tuples:
        leaves = {slot: monomial_form(weights[slot], degs[slot - 1]) for slot in slots}
        degree = sum(degs[slot - 1] for slot in slots) - order
        for tree, c in zip(trees, _read_at(tables, grid, degs[: len(slots)])):
            assert eval_bracket_tree(tree, leaves).form == z_term(degree, c)


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
    weights = {slot: ws[slot - 1] for slot in range(1, len(expr_slots(expr)) + 1)}
    # the trees on all of expr's slots share subtrees: the mirror shares its
    # leaves, expr's children come under another order, and expr's left child
    # at expr's order sits beside the mirrored right child.  All of them go
    # to one call, of one or two total orders, as in ``engine._residuals``
    trees = [
        expr,
        _mirrored(expr),
        Node(expr.left, expr.right, order),
        Node(expr.left, _mirrored(expr.right), expr.order),
    ]
    calls = [(list(dict.fromkeys(trees)), weights)]
    # and every subtree alone, its slots renamed to start at 1
    calls += [([tree], w) for tree, w in (_on_first_slots(t, weights) for t in _subtrees(expr))]
    # the zero tuple has degree 0, below the total order of every tree with a
    # nonzero order, so those trees are zero there
    grid = grid + [[0] * 5]
    for group, slot_weights in calls:
        tables, slices = tabulate_by_order(group, slot_weights)
        assert tables.keys() == set(group)
        assert set(slices) == {expr_total_order(tree) for tree in group}
        for tree in group:
            total, (values, den) = tables[tree]
            slice_ = slices[total]
            assert len(values) == len(slice_)
            assert den == _slice_table(tree, slot_weights)[0][1]
            for degs in grid:
                degs = degs[: len(slot_weights)]
                leaves = {i: monomial_form(slot_weights[i], d) for i, d in enumerate(degs, 1)}
                (c,) = _read_at([(values, den)], slice_, degs)
                assert eval_bracket_tree(tree, leaves).form == z_term(sum(degs) - total, c)
            if total:
                assert c == 0


def test_tabulate_by_order_is_one_slice_per_order():
    weights = {1: Fraction(1, 2), 2: 1, 3: Fraction(-7, 3)}
    f1, f2, f3 = Leaf(1), Leaf(2), Leaf(3)
    trees = [
        Node(Node(f1, f2, 1), f3, 1),
        Node(f1, Node(f2, f3, 2), 0),
        Node(Node(f3, f1, 0), f2, 1),
        Node(Node(f2, f1, 2), f3, 1),
    ]
    tables, slices = tabulate_by_order(trees, weights)
    assert list(tables) == trees and sorted(slices) == [1, 2, 3]
    # trees tabulated together get the tables they get alone
    for tree in trees:
        order, table = tables[tree]
        assert order == expr_total_order(tree)
        assert (table, slices[order]) == _slice_table(tree, weights)
    # the slot check, from the one walk that gives the order
    needs = r"^a slice tree needs the slots 1\.\.3, got "
    for bad, message in (
        (Node(f1, f2, 0), needs + r"\(1, 2\)$"),
        (Node(Node(f1, f1, 0), f3, 0), "^slot 1 occurs twice$"),
        (Node(Node(f1, f2, 0), Leaf(4), 0), needs + r"\(1, 2, 4\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            tabulate_by_order([trees[0], bad], weights)


def test_monomial_evaluator_degree_below_order_is_zero():
    tree = Node(Leaf(1), Leaf(2), 3)
    table, grid = _slice_table(tree, {1: Fraction(1, 2), 2: 1})
    assert [_read_at([table], grid, degs)[0] for degs in ((1, 1), (2, 0))] == [0, 0]
    assert _read_at([table], grid, (2, 1))[0] != 0
    # a zero inner bracket makes the whole tree zero: on the slice of
    # [[f1,f2]_2,f3]_0 that is every a with a1 + a2 < 2, and at (1, 0, 5)
    outer = Node(Node(Leaf(1), Leaf(2), 2), Leaf(3), 0)
    table, grid = _slice_table(outer, {1: 1, 2: 2, 3: 3})
    assert [v for a, v in zip(grid, table[0]) if a[0] + a[1] < 2] == [0, 0, 0]
    assert _read_at([table], grid, (1, 0, 5)) == [0]


def test_monomial_evaluator_single_leaf():
    tabulated = tabulate_by_order([Leaf(1)], {1: Fraction(7, 3)})
    assert tabulated == ({Leaf(1): (0, ([1], 1))}, {0: [(0,)]})
    assert read_off_slice({(0,): 1}, (3,)) == 1


def test_monomial_evaluator_unbound_slot_at_compile_time():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    # three weights, so the slot check passes, but none for slot 3
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tabulate_by_order([expr], {1: Fraction(1), 2: Fraction(1, 2), 4: Fraction(1)})


def test_tabulate_trees_checks_weights_on_an_empty_grid():
    # the slice is never empty, so the tree walk under tabulate_by_order is
    # run on an empty grid directly: weights and dens do not need a point
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    # slot weights 1 and 1/2 at the scale d = 2
    with pytest.raises(UnboundSlotError, match="slot 3"):
        _tabulate(expr, {1: 2, 2: 1}, 2, [], {})
    # den is the product of the nodes' row denominators: [f1,f2]_1 at (1, 2),
    # then order 0 at (1 + 2 + 2, 3); at d = 1 the scaled weight is the weight
    inner = _monomial_bracket(1, 2, 1, 1)
    outer = _monomial_bracket(5, 3, 1, 0)
    den = inner[1] * outer[1]
    assert _tabulate(expr, {1: 1, 2: 2, 3: 3}, 1, [], {}) == ([], 8, den)
    # the slice tabulator gives the same den at its points
    (_, slice_den), _ = _slice_table(expr, {1: 1, 2: 2, 3: 3})
    assert slice_den == den


def test_bracket_tables_are_shared_across_scales():
    # perfbench's traced mode reads this cache by name
    cache = _monomial_bracket
    cache.cache_clear()
    inner = Node(Leaf(1), Leaf(2), 2)
    weights = {1: Fraction(1, 2), 2: Fraction(-2, 3)}
    (values, den), grid = _slice_table(inner, weights)
    entries = cache.cache_info().currsize
    # beside a slot of denominator 7 the same pair is reached at 7 times the
    # scale d = 6: no new entry, and the same values
    got, weight, got_den = _tabulate(inner, {1: 21, 2: -28}, 42, grid, {})
    assert cache.cache_info().currsize == entries
    assert [v for _, v in got] == values and got_den == den
    assert weight == 42 * (weights[1] + weights[2] + 4)
    # on the slice of that three-slot tree, only the outer node's pair is new
    tabulate_by_order([Node(inner, Leaf(3), 1)], {**weights, 3: Fraction(3, 7)})
    assert cache.cache_info().currsize == entries + 1


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
    weights = {slot: slot_weights[slot] for slot in slots}
    table, grid = _slice_table(expr, weights)
    assert _read_at([table], grid, degs[: len(slots)]) == [_symbol_on_monomials(symbol, degs)]


def test_tree_symbol_single_leaf():
    total, symbol, weight = tree_symbol(Leaf(2), {2: Fraction(7, 3)}, SYMBOL_LEAVES)
    assert (total, symbol, weight) == (SYMBOL_LEAVES[2], None, Fraction(7, 3))
    degs = (5, 3, 0, 0, 0)
    table, grid = _slice_table(Leaf(1), {1: Fraction(7, 3)})
    assert _read_at([table], grid, degs[1:2]) == [1] == [_symbol_on_monomials(symbol, degs)]


def test_tree_symbol_unbound_slot():
    expr = Node(Leaf(1), Leaf(3), 1)
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tree_symbol(expr, {1: 1, 3: 2}, {1: SYMBOL_LEAVES[1]})
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tree_symbol(expr, {1: 1}, SYMBOL_LEAVES)


# a row with zeros, and pairs (d1, d2) below n in either slot or with no live s at all
@example(Fraction(-2), Fraction(1, 2), 4, 3)
@example(Fraction(1, 3), Fraction(5, 2), 3, 2)
@given(
    row_weights,
    row_weights,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
)
def test_memo_entries_equal_the_full_row_sum(w1, w2, n, extra):
    # on its slice, the inner node of [[f1,f2]_n,f3]_extra meets every (a1, a2)
    # with a1 + a2 <= n + extra, including those with a1 + a2 < n
    outer = Node(Node(Leaf(1), Leaf(2), n), Leaf(3), extra)
    _, grid = _slice_table(outer, {1: w1, 2: w2, 3: Fraction(1, 2)})
    (values, den), pairs = _slice_table(Node(Leaf(1), Leaf(2), n), {1: w1, 2: w2})
    # the first call reached the pair at the scale lcm(d, 2), this one at d
    d, (a, b) = common_scale(w1, w2)
    row, table_den, memo = _monomial_bracket(a, b, d, n)
    assert den == table_den
    for d1, d2, _ in grid:
        assert (d1, d2) in memo
    # every entry, including those earlier calls filled, sums over s = 0..n
    for (d1, d2), value in memo.items():
        assert value == sum(c * perm(d1, s) * perm(d2, n - s) for s, c in enumerate(row))
    assert values == [memo[d1, d2] for d1, d2 in pairs]


# -- the simplex slice ------------------------------------------------------------


@pytest.mark.parametrize("slots", range(6))
def test_simplex_slice_is_every_tuple_of_the_order(slots) -> None:
    for order in range(5):
        grid = simplex_slice(slots, order)
        want = [a for a in product(range(order + 1), repeat=slots) if sum(a) == order]
        assert grid == want
        assert len(grid) == (comb(order + slots - 1, slots - 1) if slots else int(order == 0))


@st.composite
def slice_trees(draw, max_slots=3, min_slots=1):
    """Trees on the slots 1..D, ``min_slots`` <= D <= ``max_slots``, in any leaf
    order, of total order <= 4."""
    slots = draw(st.permutations(range(1, draw(st.integers(min_slots, max_slots)) + 1)))
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
    (values, den), grid = _slice_table(tree, weights)
    assert grid == simplex_slice(slots, expr_total_order(tree))
    leaves = {slot: Poly.variable(SLICE_VARS[slot - 1], SLICE_VARS) for slot in weights}
    symbol = tree_symbol(tree, weights, leaves)[1] or Poly.const(SLICE_VARS, 1)
    read = Poly.zero(SLICE_VARS)
    for a, v in zip(grid, values):
        assert isinstance(v, int)
        s_a = symbol.coeff({name: e for name, e in zip(SLICE_VARS, a)})
        assert Fraction(v, den) == s_a * prod(map(factorial, a))
        read = read + Poly.monomial(SLICE_VARS, dict(zip(SLICE_VARS, a)), s_a)
    assert read == symbol


def test_tabulate_on_slice_reads_brackets_back_and_checks_its_trees() -> None:
    weights = {1: Fraction(1, 2), 2: Fraction(7, 3)}
    tree = Node(Leaf(2), Leaf(1), 2)
    (values, den), grid = _slice_table(tree, weights)
    assert grid == [(0, 2), (1, 1), (2, 0)]
    on_slice = dict(zip(grid, values))
    leaves = {1: monomial_form(weights[1], 3), 2: monomial_form(weights[2], 4)}
    value = Poly.monomial(("z",), {"z": 5}, Fraction(read_off_slice(on_slice, (3, 4)), den))
    assert eval_bracket_tree(tree, leaves).form == value
    assert read_off_slice(on_slice, (1, 0)) == 0
    # one walk per tree finds its slots and total order, and each check keeps its error
    with pytest.raises(ValueError, match=r"^a slice tree needs the slots 1\.\.3, got \(2, 1\)$"):
        tabulate_by_order([tree], {**weights, 3: Fraction(1)})
    with pytest.raises(DuplicateSlotError, match="^slot 1 occurs twice$"):
        tabulate_by_order([tree, Node(Leaf(1), Leaf(1), 2)], weights)


@given(
    slice_trees(max_slots=4),
    st.lists(slice_weights, min_size=4, max_size=4),
    st.lists(degrees, min_size=4, max_size=4),
)
def test_read_off_slice_is_the_tree_at_any_leaf_degrees(tree, ws, degs) -> None:
    slots = len(expr_slots(tree))
    weights, degs = dict(enumerate(ws[:slots], start=1)), degs[:slots]
    order = expr_total_order(tree)
    table, grid = _slice_table(tree, weights)
    # the general kernel on monomial forms, an independent route
    leaves = {slot: monomial_form(weights[slot], d) for slot, d in zip(weights, degs)}
    (c,) = _read_at([table], grid, degs)
    assert eval_bracket_tree(tree, leaves).form == z_term(sum(degs) - order, c)


mixed_weights = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@given(
    slice_trees(max_slots=4, min_slots=3),
    st.lists(mixed_weights, min_size=3, max_size=3),
    st.integers(min_value=-3, max_value=0),
    st.integers(min_value=0, max_value=2),
)
def test_integer_slice_engine_equals_the_bracket_evaluator(tree, ws, pole, at) -> None:
    """At every slice tuple a the scaled integer table is the constant the
    general kernel gives at leaves z^(a_j); one slot has a nonpositive integer weight."""
    ws.insert(at, Fraction(pole))
    slots = len(expr_slots(tree))
    weights = dict(enumerate(ws[:slots], start=1))
    (values, den), grid = _slice_table(tree, weights)
    for a, v in zip(grid, values):
        leaves = {slot: monomial_form(weights[slot], d) for slot, d in zip(weights, a)}
        assert eval_bracket_tree(tree, leaves).form == z_term(0, Fraction(v, den))
