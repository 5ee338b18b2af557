from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from rcbrackets.hypergeom import (
    BottomPoleError,
    HypSpec,
    NonTerminatingError,
    hyp_terminating_at_one,
    hyp_terminating_poly,
    jacobi_basis_admissible,
    jacobi_operator,
    jacobi_poly,
    jacobi_poly_hyp,
    jacobi_two_var,
    racah_value,
)
from rcbrackets.poly import Poly, poly_from_string
from rcbrackets.rationals import factorial, pochhammer

params = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(6), max_denominator=6
)


def test_hypspec_termination_index():
    spec = HypSpec((-3, Fraction(1, 2)), (Fraction(5, 2),))
    assert spec.termination_index() == 3
    spec = HypSpec((-5, -2), (4,))
    assert spec.termination_index() == 2


def test_hypspec_requires_terminating_top():
    spec = HypSpec((Fraction(1, 2), 2), (3,))
    with pytest.raises(NonTerminatingError):
        spec.termination_index()


def test_hypspec_bottom_pole_detection():
    spec = HypSpec((-3,), (-1,))
    with pytest.raises(BottomPoleError):
        spec.check_bottom(spec.termination_index())
    clean = HypSpec((-3,), (-5,))
    clean.check_bottom(clean.termination_index())


def test_terminating_poly_frozen_2f1():
    spec = HypSpec((-1, 2), (3,))
    poly = hyp_terminating_poly(spec)
    assert poly == poly_from_string("1 - 2/3*t", ("t",))
    assert hyp_terminating_at_one(spec) == Fraction(1, 3)


def test_chu_vandermonde_frozen():
    spec = HypSpec((-2, 1), (2,))
    assert hyp_terminating_at_one(spec) == Fraction(1, 3)


@given(
    st.integers(min_value=0, max_value=5),
    params.filter(lambda b: b.denominator > 1),
    params.filter(lambda c: c.denominator > 1 or c > 5),
)
def test_chu_vandermonde_general(p, b, c):
    spec = HypSpec((-p, b), (c,))
    got = hyp_terminating_at_one(spec)
    assert got == pochhammer(c - b, p) / pochhammer(c, p)


def test_jacobi_dual_routes_agree():
    for ell in range(6):
        for alpha, beta in ((Fraction(1, 2), Fraction(7, 3)), (1, 1), (Fraction(3, 4), 2)):
            assert jacobi_poly(ell, alpha, beta) == jacobi_poly_hyp(ell, alpha, beta)


def test_jacobi_degree_one_frozen():
    alpha, beta = Fraction(1, 2), Fraction(7, 3)
    expected = poly_from_string("29/12*v - 11/12", ("v",))
    assert jacobi_poly(1, alpha, beta) == expected


def test_jacobi_eigenproperty():
    samples = [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(7, 3)),
        (Fraction(7, 3), Fraction(1, 2)),
        (1, 1),
        (Fraction(3, 4), Fraction(5, 3)),
        (2, 3),
        (Fraction(11, 6), Fraction(2, 7)),
        (Fraction(9, 5), 4),
        (5, Fraction(1, 3)),
        (Fraction(13, 4), Fraction(13, 4)),
    ]
    for alpha, beta in samples:
        for ell in range(7):
            p = jacobi_poly(ell, alpha, beta)
            eig = jacobi_operator(alpha, beta, p)
            assert eig == p * Fraction(-ell * (ell + alpha + beta + 1))


def test_jacobi_operator_annihilates_constants():
    one = Poly.const(("v",), 1)
    assert jacobi_operator(Fraction(1, 2), Fraction(7, 3), one).is_zero()


def test_jacobi_basis_triangular():
    alpha, beta = Fraction(1, 2), Fraction(7, 3)
    assert jacobi_basis_admissible(alpha, beta)
    for ell in range(7):
        p = jacobi_poly(ell, alpha, beta)
        assert p.degree_in("v") == ell
        assert p.coeff({"v": ell}) != 0


def test_jacobi_two_var_homogeneous_and_specializes():
    lam1, lam2 = Fraction(1, 2), Fraction(7, 3)
    for ell in range(5):
        two = jacobi_two_var(ell, lam1, lam2)
        assert all(sum(exps) == ell for exps in two.terms)
        # dehomogenize x -> (1-v)/2, y -> (1+v)/2 against the one-variable polynomial
        v = Poly.variable("v", ("v",))
        half = Fraction(1, 2)
        x = (Poly.const(("v",), 1) - v) * half
        y = (Poly.const(("v",), 1) + v) * half
        alpha, beta = lam1 - 1, lam2 - 1
        assert two.subst({"x": x, "y": y}) == jacobi_poly(ell, alpha, beta)


def test_jacobi_two_var_bracket_coefficients():
    lam1, lam2 = Fraction(1, 2), 1
    two = jacobi_two_var(2, lam1, lam2)
    # expanded binomial-coefficient form, degree 2
    from rcbrackets.rationals import binom_general

    for s in range(3):
        want = (-1) ** s * binom_general(2 + lam1 - 1, 2 - s) * binom_general(
            2 + lam2 - 1, s
        )
        assert two.coeff({"x": s, "y": 2 - s}) == want


def test_racah_value_frozen_table():
    # all-ones weights, n = 2
    assert racah_value(1, 1, 2, 1, 1, 1) == Fraction(1, 2)
    assert racah_value(2, 1, 2, 1, 1, 1) == Fraction(-1, 2)
    assert racah_value(2, 2, 2, 1, 1, 1) == Fraction(1, 10)
    assert racah_value(0, 1, 2, 1, 1, 1) == 1
    assert racah_value(1, 0, 2, 1, 1, 1) == 1


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.tuples(
        params.filter(lambda x: x > 0),
        params.filter(lambda x: x > 0),
        params.filter(lambda x: x > 0),
    ),
)
def test_racah_transpose_symmetry(p, k, lams):
    lam1, lam2, lam3 = lams
    n = 3
    assert racah_value(p, k, n, lam1, lam2, lam3) == racah_value(
        k, p, n, lam3, lam2, lam1
    )


@given(
    st.lists(params, min_size=0, max_size=3),
    st.integers(min_value=-6, max_value=0),
    st.lists(params, min_size=0, max_size=3),
    st.data(),
)
def test_term_ratio_series_matches_pochhammer_formula(others, stop, bottom, data):
    top = data.draw(st.permutations(others + [Fraction(stop)]))
    spec = HypSpec(top, bottom)
    T = spec.termination_index()
    if any(pochhammer(b, T) == 0 for b in bottom):
        with pytest.raises(BottomPoleError):
            hyp_terminating_poly(spec)
        with pytest.raises(BottomPoleError):
            hyp_terminating_at_one(spec)
        return
    expected = [
        prod((pochhammer(a, j) for a in top), start=Fraction(1))
        / (factorial(j) * prod(pochhammer(b, j) for b in bottom))
        for j in range(T + 1)
    ]
    assert hyp_terminating_poly(spec) == Poly(("t",), {(j,): c for j, c in enumerate(expected)})
    assert hyp_terminating_at_one(spec) == sum(expected)
