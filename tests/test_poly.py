from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rcbrackets.poly import (
    Poly,
    PolySyntaxError,
    UnknownVariableError,
    VarsetMismatchError,
    _numerators,
    _reduced,
    _sum,
    canonical_vars,
    poly_from_string,
)

coeffs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
).filter(bool)


def polys(vars=("x", "y"), max_degree=4, max_terms=4):
    exponent = st.integers(min_value=0, max_value=max_degree)
    term = st.tuples(st.tuples(*[exponent] * len(vars)), coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda items: Poly(vars, {powers: c for powers, c in items})
    )


def test_canonical_vars_orders_and_validates():
    assert canonical_vars(("y", "x")) == ("x", "y")
    assert canonical_vars(("t", "z")) == ("z", "t")
    with pytest.raises(UnknownVariableError):
        canonical_vars(("x", "q"))


def test_constructors():
    zero = Poly.zero(("x",))
    assert zero.is_zero() and zero.total_degree() == -1
    one = Poly.const(("x",), 1)
    assert one.coeff({}) == 1
    x = Poly.variable("x", ("x", "y"))
    assert x.coeff({"x": 1}) == 1
    m = Poly.monomial(("x", "y"), {"x": 2, "y": 1}, Fraction(3, 2))
    assert m.coeff({"x": 2, "y": 1}) == Fraction(3, 2)
    assert m.total_degree() == 3
    assert m.degree_in("x") == 2
    square = poly_from_string("z^2 + 5", ("z",))
    assert square.coeff({"z": 0}) == 5
    for name in ("x", "q"):
        with pytest.raises(UnknownVariableError):
            square.coeff({name: 1})


def test_zero_coefficients_dropped():
    p = Poly(("x",), {(1,): Fraction(0), (0,): Fraction(2)})
    assert p.terms == {(0,): Fraction(2)}


@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(a.vars) == a
    assert a * Poly.const(a.vars, 1) == a
    assert a - a == Poly.zero(a.vars)
    assert -(-a) == a


def schoolbook_product(a, b):
    """Term maps multiplied one Fraction product at a time; zero sums dropped at the end."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            out[exps] = out.get(exps, Fraction(0)) + c1 * c2
    return {exps: c for exps, c in out.items() if c}


def schoolbook_subst(p, bindings, target):
    """Each term's coefficient times its bound powers by schoolbook_product, summed."""
    out = {}
    for exps, coeff in p.terms.items():
        piece = {(0,) * len(target): coeff}
        for name, e in zip(p.vars, exps):
            for _ in range(e):
                piece = schoolbook_product(piece, bindings[name].terms)
        for key, c in piece.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {exps: c for exps, c in out.items() if c}


def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is Fraction and c != 0


XY = ("x", "y")
ZT = ("z", "t")


@given(polys(), polys(), polys(ZT, max_degree=2, max_terms=3), polys(ZT, max_degree=2, max_terms=3))
@example(
    poly_from_string("x + y", XY),
    poly_from_string("x - y", XY),
    poly_from_string("t + z", ZT),
    poly_from_string("t - z", ZT),
)
@example(
    poly_from_string("2*x^2 + 3", XY),
    poly_from_string("1/2*y - 1/3", XY),
    poly_from_string("1/6*z", ZT),
    poly_from_string("6*t + 1/4", ZT),
)
def test_integer_core_matches_schoolbook_fractions(a, b, x_value, y_value):
    product = a * b
    assert product.terms == schoolbook_product(a.terms, b.terms)
    bindings = {"x": x_value, "y": y_value}
    image = a.subst(bindings)
    assert image.vars == ZT
    assert image.terms == schoolbook_subst(a, bindings, ZT)
    pieces = [_numerators(a.terms), _numerators({}), _numerators(b.terms)]
    assert _reduced(a.vars, _sum(pieces)) == a + b
    assert _reduced(a.vars, _sum([])) == Poly.zero(a.vars)
    for p in (product, image, a + b, a - b, a.diff("x"), a.diff("y", 2), 3 * a, a**2):
        assert_canonical(p)


@given(polys(), st.integers(min_value=0, max_value=3))
def test_pow_matches_repeated_product(a, e):
    expected = Poly.const(a.vars, 1)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


def test_mul_rejects_varset_mismatch():
    with pytest.raises(VarsetMismatchError):
        Poly.variable("x", ("x",)) * Poly.variable("y", ("y",))


@given(polys(), polys())
def test_diff_is_derivation(a, b):
    assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


@given(polys())
def test_diff_commutes(a):
    assert a.diff("x").diff("y") == a.diff("y").diff("x")


def test_diff_higher_order():
    p = poly_from_string("x^3*y", ("x", "y"))
    assert p.diff("x", 2) == poly_from_string("6*x*y", ("x", "y"))
    assert p.diff("x", 4).is_zero()


@given(polys())
def test_subst_identity(a):
    bindings = {
        "x": Poly.variable("x", ("x", "y")),
        "y": Poly.variable("y", ("x", "y")),
    }
    assert a.subst(bindings) == a


def test_subst_composes():
    p = poly_from_string("x^2 + y", ("x", "y"))
    t = Poly.variable("t", ("t", "v"))
    v = Poly.variable("v", ("t", "v"))
    image = p.subst({"x": t * v, "y": t})
    assert image == poly_from_string("t^2*v^2 + t", ("t", "v"))


def test_subst_requires_bindings_for_occurring_vars():
    p = poly_from_string("x*y", ("x", "y"))
    with pytest.raises(UnknownVariableError):
        p.subst({"x": Poly.variable("t", ("t",))})


@given(polys(), polys())
def test_eval_at_is_ring_hom(a, b):
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2)}
    assert (a + b).eval_at(point) == a.eval_at(point) + b.eval_at(point)
    assert (a * b).eval_at(point) == a.eval_at(point) * b.eval_at(point)


def test_lift_embeds():
    p = poly_from_string("z^2 + 1", ("z",))
    q = p.lift(("z", "x"))
    assert q.vars == ("z", "x")
    assert q.coeff({"z": 2}) == 1
    assert q.coeff({}) == 1


def test_str_rendering():
    p = poly_from_string("1 + 3/2*x^2*y", ("x", "y"))
    assert str(p) == "3/2*x^2*y + 1"
    assert str(Poly.zero(("x",))) == "0"
    assert str(poly_from_string("-x", ("x",))) == "-x"


@given(polys())
def test_parse_round_trip(a):
    assert poly_from_string(str(a), a.vars) == a


def test_parser_accepts_both_power_spellings():
    vars = ("x",)
    assert poly_from_string("x**3", vars) == poly_from_string("x^3", vars)


def test_parser_parentheses_and_unary_minus():
    vars = ("x", "y")
    assert poly_from_string("-(x - y)^2", vars) == poly_from_string(
        "-x^2 + 2*x*y - y^2", vars
    )


def test_parser_implicit_product_rejected():
    with pytest.raises(PolySyntaxError):
        poly_from_string("2x", ("x",))


def test_parser_error_carries_position():
    with pytest.raises(PolySyntaxError) as err:
        poly_from_string("x + * y", ("x", "y"))
    assert err.value.position == 4
    with pytest.raises(PolySyntaxError) as err:
        poly_from_string("x^²", ("x",))
    assert err.value.position == 2


def test_parser_missing_denominator_position():
    with pytest.raises(PolySyntaxError) as err:
        poly_from_string("3/ + x", ("x",))
    assert err.value.position == 2


def test_parser_unknown_variable():
    with pytest.raises(PolySyntaxError) as err:
        poly_from_string("x + w", ("x",))
    assert err.value.position == 4


def test_poly_is_unhashable():
    with pytest.raises(TypeError):
        hash(Poly.zero(("x",)))
