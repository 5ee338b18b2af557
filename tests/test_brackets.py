from fractions import Fraction
from math import lcm, perm

import pytest
from hypothesis import example, given, strategies as st

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
    integer_evaluator,
    monomial_evaluator,
    monomial_form,
    rc_bracket,
    tree_symbol,
)
from rcbrackets.hypergeom import bracket_coeff_row
from rcbrackets.poly import VAR_ORDER, Poly, poly_from_string
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
    evaluate, den = integer_evaluator(Node(Leaf(1), Leaf(2), n), {1: w1, 2: w2})
    expected = Poly.zero(("z",))
    for (d1,), c1 in p.terms.items():
        for (d2,), c2 in q.terms.items():
            degree, value = evaluate((d1, d2))
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


# -- compiled monomial evaluator ----------------------------------------------------

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
    evaluators = [monomial_evaluator(tree, slot_weights) for tree in trees]
    slots = expr_slots(expr)
    for degs in degree_tuples:  # later tuples reuse the table values of earlier ones
        leaves = {slot: monomial_form(slot_weights[slot], degs[slot - 1]) for slot in slots}
        for tree, evaluate in zip(trees, evaluators):
            degree, c = evaluate(degs)
            expected = eval_bracket_tree(tree, leaves).form
            assert isinstance(c, Fraction)
            assert degree == sum(degs[slot - 1] for slot in slots) - expr_total_order(expr)
            if c:
                assert expected == Poly.monomial(("z",), {"z": degree}, c)
            else:
                assert expected.is_zero()


def test_monomial_evaluator_degree_below_order_is_zero():
    evaluate = monomial_evaluator(Node(Leaf(1), Leaf(2), 3), {1: Fraction(1, 2), 2: 1})
    assert evaluate((1, 1)) == (-1, 0)
    assert evaluate((2, 0)) == (-1, 0)
    assert evaluate((2, 1))[1] != 0
    # a zero inner bracket makes the whole tree zero, at the formal degree
    outer = Node(Node(Leaf(1), Leaf(2), 2), Leaf(3), 0)
    assert monomial_evaluator(outer, {1: 1, 2: 2, 3: 3})((1, 0, 5)) == (4, 0)


def test_monomial_evaluator_single_leaf():
    assert monomial_evaluator(Leaf(2), {2: Fraction(7, 3)})((5, 3)) == (3, 1)


def test_monomial_evaluator_unbound_slot_at_compile_time():
    expr = Node(Node(Leaf(1), Leaf(2), 1), Leaf(3), 0)
    with pytest.raises(UnboundSlotError, match="slot 3"):
        monomial_evaluator(expr, {1: Fraction(1), 2: Fraction(1, 2)})


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
    assert monomial_evaluator(expr, slot_weights)(degs)[1] == _symbol_on_monomials(symbol, degs)


def test_tree_symbol_single_leaf():
    total, symbol, weight = tree_symbol(Leaf(2), {2: Fraction(7, 3)}, SYMBOL_LEAVES)
    assert (total, symbol, weight) == (SYMBOL_LEAVES[2], None, Fraction(7, 3))
    degs = (5, 3, 0, 0, 0)
    assert monomial_evaluator(Leaf(2), {2: Fraction(7, 3)})(degs) == (3, 1)
    assert _symbol_on_monomials(symbol, degs) == 1


def test_tree_symbol_unbound_slot():
    expr = Node(Leaf(1), Leaf(3), 1)
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tree_symbol(expr, {1: 1, 3: 2}, {1: SYMBOL_LEAVES[1]})
    with pytest.raises(UnboundSlotError, match="slot 3"):
        tree_symbol(expr, {1: 1}, SYMBOL_LEAVES)
