from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rcbrackets.brackets import WeightedForm, monomial_form, rc_bracket
from rcbrackets.poly import Poly, poly_from_string
from rcbrackets.star import StarSeries, TruncationMismatchError, assoc_defect, star
from rcbrackets.transition import cmz_t_sum

KAPPAS = (None, Fraction(1, 2), Fraction(5, 7))


def zform(weight, src):
    return WeightedForm(weight, poly_from_string(src, ("z",)))


def test_inject_and_forms():
    f = monomial_form(Fraction(1, 2), 2)
    series = StarSeries.inject(f, 3)
    assert series.order == 3
    assert series.forms(0) == [f]
    assert series.forms(1) == []


def test_zeroth_order_is_pointwise_product():
    f = StarSeries.inject(zform(Fraction(1, 2), "z + 1"), 2)
    g = StarSeries.inject(zform(1, "z^2"), 2)
    product = star(f, g)
    zero_order = product.forms(0)
    assert len(zero_order) == 1
    assert zero_order[0].form == poly_from_string("z^3 + z^2", ("z",))
    assert zero_order[0].weight == Fraction(3, 2)


def test_weight_zero_constant_is_two_sided_unit():
    one = StarSeries.inject(zform(0, "1"), 4)
    f = StarSeries.inject(zform(Fraction(7, 3), "z^3 + z"), 4)
    assert star(one, f) == f
    assert star(f, one) == f


def test_truncation_mismatch_rejected():
    f = StarSeries.inject(zform(1, "z"), 2)
    g = StarSeries.inject(zform(1, "z"), 3)
    with pytest.raises(TruncationMismatchError):
        star(f, g)
    with pytest.raises(TruncationMismatchError):
        f + g


def test_series_addition_and_subtraction():
    f = StarSeries.inject(zform(1, "z"), 2)
    g = StarSeries.inject(zform(1, "z^2"), 2)
    total = f + g
    assert len(total.forms(0)) == 1  # same weight, forms merge
    assert (total - f - g).is_zero()


def test_mixed_weights_stay_separated():
    f = StarSeries.inject(zform(1, "z"), 2)
    g = StarSeries.inject(zform(2, "z"), 2)
    total = f + g
    assert len(total.forms(0)) == 2


def test_associativity_defect_vanishes_plain():
    f = monomial_form(Fraction(1, 2), 1)
    g = monomial_form(1, 2)
    h = monomial_form(Fraction(7, 3), 1)
    assert assoc_defect(f, g, h, order=4).is_zero()


def test_associativity_defect_vanishes_special_kappas():
    f = monomial_form(Fraction(1, 2), 1)
    g = monomial_form(1, 2)
    h = monomial_form(Fraction(7, 3), 1)
    for kappa in (Fraction(1, 2), Fraction(3, 2)):
        assert assoc_defect(f, g, h, order=4, kappa=kappa).is_zero()


def test_deformed_product_rescales_orders():
    # kappa = 1/2 multiplies the order-n component by (-1/4)^n
    f = StarSeries.inject(zform(Fraction(1, 2), "z^2"), 3)
    g = StarSeries.inject(zform(1, "z^3"), 3)
    plain = star(f, g)
    deformed = star(f, g, kappa=Fraction(1, 2))
    for m in range(4):
        scale = Fraction(-1, 4) ** m
        plain_forms = {piece.weight: piece.form for piece in plain.forms(m)}
        deformed_forms = {piece.weight: piece.form for piece in deformed.forms(m)}
        assert set(plain_forms) == set(deformed_forms)
        for weight, form in plain_forms.items():
            assert deformed_forms[weight] == form * scale


def test_star_zero_series():
    f = StarSeries.inject(zform(1, "z"), 2)
    zero = f - f
    assert zero.is_zero()
    assert star(f, zero).is_zero()


@pytest.mark.parametrize("empty", [True, False])
def test_star_coerces_kappa_even_for_empty_operands(empty):
    a = StarSeries(2) if empty else StarSeries.inject(zform(1, "z^2 + 1"), 2)
    with pytest.raises(TypeError) as got:
        star(a, a, 0.5)
    assert str(got.value) == "not an exact rational: 0.5"


def reference_star(a, b, kappa):
    """(a * b)_m as the sum of rc_bracket pieces, each times t_n^kappa, added as Poly."""
    out = StarSeries(a.order)
    for m in range(a.order + 1):
        layer = {}
        for i in range(m + 1):
            for j in range(m - i + 1):
                n = m - i - j
                for w1, p1 in a.coeffs[i].items():
                    for w2, p2 in b.coeffs[j].items():
                        piece = rc_bracket(WeightedForm(w1, p1), WeightedForm(w2, p2), n)
                        scale = 1 if kappa is None else cmz_t_sum(kappa, w1, w2, n)
                        acc = layer.get(piece.weight, Poly.zero(("z",)))
                        layer[piece.weight] = acc + piece.form * scale
        out.coeffs[m] = {w: p for w, p in layer.items() if not p.is_zero()}
    return out


def test_cancelled_slice_is_dropped():
    # [z, 1]_1 = -1 at weights (1/2, 1) and [1, 1]_0 = 1 at weights (5/2, 1) meet at 7/2
    z, one = poly_from_string("z", ("z",)), poly_from_string("1", ("z",))
    a = StarSeries(1, [{Fraction(1, 2): z}, {Fraction(5, 2): one}])
    b = StarSeries(1, [{Fraction(1): one}])
    assert rc_bracket(WeightedForm(Fraction(1, 2), z), WeightedForm(1, one), 1).form == -one
    product = star(a, b)
    assert product.coeffs == [{Fraction(3, 2): z}, {}]
    assert product == reference_star(a, b, None)


def reference_defect(f, g, h, order, kappa):
    sf, sg, sh = (StarSeries.inject(x, order) for x in (f, g, h))
    left = reference_star(reference_star(sf, sg, kappa), sh, kappa)
    return left - reference_star(sf, reference_star(sg, sh, kappa), kappa)


# weights whose sums w1 + w2 + 2n collide across (i, j, n), so pieces share slices
slice_weights = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(3)])
slice_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=8), max_size=5
).map(lambda cs: Poly(("z",), {(d,): c for d, c in enumerate(cs)}))


@st.composite
def series(draw, order):
    layers = draw(
        st.lists(
            st.dictionaries(slice_weights, slice_polys, max_size=2),
            min_size=order + 1,
            max_size=order + 1,
        )
    )
    return StarSeries(order, layers)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=3), st.sampled_from(KAPPAS))
def test_star_layers_equal_sum_of_bracket_pieces(data, order, kappa):
    a = data.draw(series(order))
    b = data.draw(series(order))
    product = star(a, b, kappa)
    want = reference_star(a, b, kappa)
    for m in range(order + 1):
        assert product.coeffs[m] == want.coeffs[m]


@pytest.mark.parametrize("kappa", KAPPAS)
def test_assoc_defect_equals_reference_on_dense_symbols(kappa):
    f = zform(Fraction(1, 2), "2/3*z^3 - 5/4*z^2 + 1/6*z + 7")
    g = zform(1, "-1/9*z^3 + 2/7*z^2 - 3*z + 5/6")
    h = zform(Fraction(7, 3), "4/5*z^2 - 1/2*z + 3/4")
    defect = assoc_defect(f, g, h, 3, kappa)
    assert defect == reference_defect(f, g, h, 3, kappa)
    # generic kappa is not associative at literal weights, so this defect is a real sum
    assert defect.is_zero() == (kappa != Fraction(5, 7))
