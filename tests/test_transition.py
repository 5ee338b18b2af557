from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from rcbrackets import transition
from rcbrackets.poly import poly_from_string
from rcbrackets.rationals import binom_general
from rcbrackets.transition import (
    InadmissibleParametersError,
    ParamTriple,
    RacahQuery,
    VanishingDenominatorError,
    cmz_t_closed,
    cmz_t_sum,
    u_coefficient,
    u_generating_poly,
    u_matrix,
    u_reverse,
    u_reverse_matrix,
    u_row,
)

positive = st.fractions(min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=5)
triples = st.tuples(positive, positive, positive).map(lambda t: ParamTriple(*t))
signed = st.fractions(min_value=-5, max_value=5, max_denominator=6)
signed_triples = (
    st.tuples(signed, signed, signed)
    .map(lambda t: ParamTriple(*t))
    .filter(ParamTriple.is_admissible)
)


def test_param_triple_admissibility():
    assert ParamTriple(Fraction(1, 2), 1, Fraction(7, 3)).is_admissible()
    assert not ParamTriple(0, 1, 1).is_admissible()
    assert not ParamTriple(Fraction(1, 2), Fraction(-1, 2), 1).is_admissible()  # sum 0
    assert not ParamTriple(1, 2, -3).is_admissible()  # total 0
    # the outer pair lam1 + lam3 is allowed to be a nonpositive integer
    assert ParamTriple(Fraction(-1, 2), 1, Fraction(1, 2)).is_admissible()


def test_param_triple_swapped_outer():
    tr = ParamTriple(1, 2, 3)
    assert tr.swapped_outer() == ParamTriple(3, 2, 1)


def test_racah_query_validation():
    RacahQuery(3, 0, 3)
    with pytest.raises(ValueError):
        RacahQuery(2, 3, 0)
    with pytest.raises(ValueError):
        RacahQuery(2, 0, -1)


def test_u_requires_admissible_params():
    with pytest.raises(InadmissibleParametersError):
        u_coefficient(ParamTriple(0, 1, 1), RacahQuery(1, 0, 0))


def test_frozen_u_table_all_ones_n1():
    table = u_matrix(ParamTriple(1, 1, 1), 1)
    assert table == [
        [Fraction(1, 2), Fraction(3, 2)],
        [Fraction(1, 2), Fraction(-1, 2)],
    ]


def test_frozen_u_table_all_ones_n2():
    table = u_matrix(ParamTriple(1, 1, 1), 2)
    assert table == [
        [Fraction(1, 3), Fraction(1), Fraction(5, 3)],
        [Fraction(1, 3), Fraction(1, 2), Fraction(-5, 6)],
        [Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)],
    ]


def test_worked_value_k1_p1_general_weights():
    # closed form for n=2, k=1, p=1 in the weights
    for lams in ((Fraction(1, 2), 1, Fraction(7, 3)), (2, 3, 5), (Fraction(3, 4), Fraction(5, 3), Fraction(2, 7))):
        tr = ParamTriple(*lams)
        lam1, lam2, lam3 = (Fraction(x) for x in lams)
        got = u_coefficient(tr, RacahQuery(2, 1, 1))
        expected = (lam1 * lam2 + lam2 * lam3 - lam3 * lam1 + 2 * lam2 + lam2**2) / (
            (lam2 + lam3) * (lam2 + lam3 + 2)
        )
        assert got == expected


def test_worked_values_k1_p0_p2_general_weights():
    # n=2 endpoints in closed form
    for lams in ((Fraction(1, 2), 1, Fraction(7, 3)), (2, 3, 5)):
        tr = ParamTriple(*lams)
        lam1, lam2, lam3 = (Fraction(x) for x in lams)
        total = lam1 + lam2 + lam3
        got0 = u_coefficient(tr, RacahQuery(2, 1, 0))
        want0 = 2 * lam2 * lam3 / ((lam2 + lam3) * (lam2 + lam3 + 1))
        assert got0 == want0
        got2 = u_coefficient(tr, RacahQuery(2, 1, 2))
        want2 = -2 * lam1 * (total + 2) / ((lam2 + lam3 + 1) * (lam2 + lam3 + 2))
        assert got2 == want2


@given(triples, st.integers(min_value=0, max_value=4))
def test_sum_to_one(tr, n):
    for p in range(n + 1):
        assert sum(u_coefficient(tr, RacahQuery(n, k, p)) for k in range(n + 1)) == 1


@given(triples, st.integers(min_value=0, max_value=3))
def test_matrices_are_mutually_inverse(tr, n):
    m = u_matrix(tr, n)
    mr = u_reverse_matrix(tr, n)
    dim = n + 1
    for i in range(dim):
        for j in range(dim):
            left = sum(m[i][p] * mr[p][j] for p in range(dim))
            right = sum(mr[i][k] * m[k][j] for k in range(dim))
            assert left == (1 if i == j else 0)
            assert right == (1 if i == j else 0)


def test_u_reverse_is_outer_swap():
    tr = ParamTriple(Fraction(1, 2), 1, Fraction(7, 3))
    q = RacahQuery(3, 1, 2)
    swapped = tr.swapped_outer()
    assert u_reverse(tr, q) == u_coefficient(swapped, RacahQuery(3, 2, 1))


@given(triples, st.integers(min_value=0, max_value=6))
def test_rows_match_matrices_and_entries(tr, n):
    forward, backward = u_matrix(tr, n), u_reverse_matrix(tr, n)
    for k in range(n + 1):
        row = u_row(tr, n, k)
        assert row == forward[k]
        assert row == [u_coefficient(tr, RacahQuery(n, k, p)) for p in range(n + 1)]
    for p in range(n + 1):
        row = u_row(tr.swapped_outer(), n, p)
        assert row == backward[p]
        assert row == [u_reverse(tr, RacahQuery(n, k, p)) for k in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(signed_triples, st.integers(min_value=0, max_value=10))
@example(ParamTriple(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), 6)
@example(ParamTriple(Fraction(-1, 2), 1, Fraction(1, 2)), 6)
@example(ParamTriple(Fraction(3, 5), Fraction(7, 4), Fraction(2, 9)), 0)
@example(ParamTriple(Fraction(3, 5), Fraction(7, 4), Fraction(2, 9)), 1)
@example(ParamTriple(Fraction(-5, 6), Fraction(7, 4), Fraction(2, 9)), 2)
@example(ParamTriple(Fraction(3, 5), Fraction(-7, 4), Fraction(5, 6)), 10)
def test_recurrence_rows_equal_4f3_entries(tr, n):
    # the examples: l2 + l3 = 1, where the recurrence's p = 0 step is 0/0; l1 + l3 = 0,
    # which the gate admits; n = 0 and n = 1, where no recurrence step runs; mixed
    # weight denominators (d = lcm > each), at n = 2 (one step) and n = 10
    for k in range(n + 1):
        assert u_row(tr, n, k) == [u_coefficient(tr, RacahQuery(n, k, p)) for p in range(n + 1)]


wide = st.fractions(min_value=-6, max_value=6, max_denominator=13)
wide_triples = (
    st.tuples(wide, wide, wide).map(lambda t: ParamTriple(*t)).filter(ParamTriple.is_admissible)
)


@settings(max_examples=80, deadline=None)
@given(wide_triples, st.integers(min_value=0, max_value=8))
@example(ParamTriple(Fraction(5, 3), Fraction(1, 3), Fraction(2, 3)), 5)
@example(ParamTriple(Fraction(-7, 2), Fraction(3, 4), Fraction(1, 4)), 2)
@example(ParamTriple(Fraction(-1, 2), Fraction(3, 4), Fraction(5, 4)), 5)
@example(ParamTriple(Fraction(2, 7), Fraction(-3, 2), Fraction(7, 2)), 2)
@example(ParamTriple(Fraction(-5, 6), Fraction(7, 4), Fraction(2, 9)), 0)
@example(ParamTriple(Fraction(-5, 6), Fraction(7, 4), Fraction(2, 9)), 1)
def test_integer_recurrence_equals_4f3_oracle(tr, n):
    # the examples: l2 + l3 = 1 and l2 + l3 = 2, where the p = 0 divisor vanishes, each
    # at n = 5 and at n = 2 (one exact division); n = 0 and n = 1, where none runs
    lams = (tr.lam1, tr.lam2, tr.lam3)
    for k in range(n + 1):
        assert u_row(tr, n, k) == [transition._u_entry(*lams, n, k, p) for p in range(n + 1)]


def test_integer_recurrence_columns_sum_to_one_at_n48():
    tr, n = ParamTriple(Fraction(13, 7), Fraction(5, 11), Fraction(17, 3)), 48
    table = u_matrix(tr, n)
    assert all(sum(row[p] for row in table) == 1 for p in range(n + 1))
    for k, p in ((0, 48), (17, 31), (48, 0), (48, 48), (24, 24)):
        assert table[k][p] == transition._u_entry(tr.lam1, tr.lam2, tr.lam3, n, k, p)


@pytest.mark.parametrize(
    "tr",
    [
        ParamTriple(Fraction(13, 7), Fraction(5, 11), Fraction(17, 3)),
        ParamTriple(Fraction(-1, 3), Fraction(1, 2), Fraction(1, 2)),
    ],
)
def test_matrix_equals_generating_poly_columns_at_n32(tr):
    n = 32
    table = u_matrix(tr, n)
    for p in range(n + 1):
        poly = u_generating_poly(tr, n, p)
        assert [row[p] for row in table] == [poly.coeff({"t": k}) for k in range(n + 1)]


def test_u_cache_holds_one_matrix_per_triple_and_n():
    # perfbench's traced mode reads this cache by name
    cache = transition._u_cached
    tr = ParamTriple(Fraction(11, 13), Fraction(3, 17), Fraction(19, 5))
    cache.cache_clear()
    u_matrix(tr, 8)
    for k in range(9):
        u_row(tr, 8, k)
    assert cache.cache_info().currsize == 1


def test_u_row_validates_gate_and_indices():
    with pytest.raises(InadmissibleParametersError):
        u_row(ParamTriple(0, 1, 1), 1, 0)
    tr = ParamTriple(Fraction(1, 2), 1, Fraction(7, 3))
    with pytest.raises(ValueError, match="need 0 <= k, p <= n"):
        u_row(tr, 2, 3)
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        u_row(tr, -1, 0)
    for read in (u_matrix, u_reverse_matrix):
        with pytest.raises(ValueError, match="n must be a nonnegative integer, got -1"):
            read(ParamTriple(1, 1, 1), -1)


def test_generating_poly_frozen_all_ones_n1():
    tr = ParamTriple(1, 1, 1)
    assert u_generating_poly(tr, 1, 0) == poly_from_string("1/2 + 1/2*t", ("t",))
    assert u_generating_poly(tr, 1, 1) == poly_from_string("3/2 - 1/2*t", ("t",))


@given(triples, st.integers(min_value=0, max_value=4))
def test_generating_poly_matches_coefficients(tr, n):
    for p in range(n + 1):
        poly = u_generating_poly(tr, n, p)
        for k in range(n + 1):
            assert poly.coeff({"t": k}) == u_coefficient(tr, RacahQuery(n, k, p))
        assert poly.eval_at({"t": Fraction(1)}) == 1


def test_cmz_t_frozen_values():
    assert cmz_t_sum(Fraction(1, 2), 1, 1, 0) == 1
    assert cmz_t_closed(Fraction(1, 2), 1, 1, 0) == 1
    assert cmz_t_sum(Fraction(1, 2), 1, 1, 1) == Fraction(-1, 4)
    assert cmz_t_closed(Fraction(1, 2), 1, 1, 1) == Fraction(-1, 4)


def test_cmz_special_kappas_collapse_to_quarter_powers():
    for kappa in (Fraction(1, 2), Fraction(3, 2)):
        for lam1, lam2 in ((Fraction(1, 2), 1), (Fraction(7, 3), Fraction(7, 3)), (2, 5)):
            for n in range(6):
                want = Fraction(-1, 4) ** n
                assert cmz_t_closed(kappa, lam1, lam2, n) == want
                assert cmz_t_sum(kappa, lam1, lam2, n) == want


def test_cmz_sum_equals_closed_generic_kappa():
    kappa = Fraction(5, 7)
    for lam1, lam2 in ((Fraction(1, 2), 1), (1, 1), (Fraction(7, 3), Fraction(1, 2))):
        for n in range(6):
            assert cmz_t_sum(kappa, lam1, lam2, n) == cmz_t_closed(kappa, lam1, lam2, n)


def cmz_binomial_oracle(kappa, lam1, lam2, n):
    """t_n^kappa(l1, l2) by the binomial-sum formula, one binom_general per factor."""
    lead = binom_general(-2 * lam2, n)
    if not lead:
        raise VanishingDenominatorError(f"leading factor C(-2*l2, {n}) vanishes")
    total = Fraction(0)
    for r in range(n + 1):
        s = n - r
        denom = binom_general(-2 * lam1, r) * binom_general(2 * (n + lam1 + lam2 - 1), s)
        if not denom:
            raise VanishingDenominatorError(
                f"denominator C(-2*l1, {r}) * C(2n+2*l1+2*l2-2, {s}) vanishes"
            )
        total += (
            binom_general(-lam1, r)
            * binom_general(-lam1 + kappa - 1, r)
            * binom_general(n + lam1 + lam2 - kappa, s)
            * binom_general(n + lam1 + lam2 - 1, s)
            / denom
        )
    return total / lead


# half-integers hit every vanishing denominator; the rest are generic
cmz_args = st.one_of(
    st.integers(min_value=-8, max_value=8).map(lambda k: Fraction(k, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@given(cmz_args, cmz_args, cmz_args, st.integers(min_value=0, max_value=7))
@example(Fraction(5, 7), Fraction(1), Fraction(-1, 2), 2)  # leading factor vanishes
@example(Fraction(5, 7), Fraction(-1, 2), Fraction(1), 3)  # C(-2*l1, r) vanishes
@example(Fraction(5, 7), Fraction(-5, 4), Fraction(1, 4), 3)  # C(2n+2*l1+2*l2-2, s) vanishes
def test_cmz_sum_matches_binomial_oracle(kappa, lam1, lam2, n):
    try:
        want = cmz_binomial_oracle(kappa, lam1, lam2, n)
    except VanishingDenominatorError as err:
        with pytest.raises(VanishingDenominatorError) as got:
            cmz_t_sum(kappa, lam1, lam2, n)
        assert str(got.value) == str(err)
    else:
        assert cmz_t_sum(kappa, lam1, lam2, n) == want


def test_cmz_vanishing_denominator_reported():
    # binom(-2*lam2, n) = 0 when -2*lam2 is a nonnegative integer < n
    with pytest.raises(VanishingDenominatorError) as got:
        cmz_t_sum(Fraction(5, 7), 1, Fraction(-1, 2), 2)
    assert str(got.value) == "leading factor C(-2*l2, 2) vanishes"


@given(cmz_args, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12))
@example(Fraction(-1, 2), 1, 2)  # C(1, 2) = 0
@example(Fraction(0), 3, 4)
@example(Fraction(-3), 1, 7)
def test_cmz_integer_lead_equals_binomial(lam2, scale, n):
    """The lead C(-2*l2, n) of ``_cmz_sum`` on integers, with d any multiple of l2's denominator."""
    d = lam2.denominator * scale
    lead = transition._scaled_binom(-2 * lam2.numerator * scale, d, n)
    assert lead == binom_general(-2 * lam2, n) * d**n * factorial(n)


def test_cmz_closed_rejects_pole():
    # n + lam1 + lam2 - 3/2 = 0 at j = 1 kills the denominator
    with pytest.raises(VanishingDenominatorError):
        cmz_t_closed(Fraction(5, 7), Fraction(-1, 4), Fraction(-1, 4), 2)


# weights and kappa on a few small denominators, so m = n + l1 + l2 and kappa
# often have different denominators and 2m - 2 often lands on an integer
small_denominators = st.builds(
    Fraction, st.integers(min_value=-24, max_value=24), st.sampled_from((1, 2, 3, 4, 6))
)


@given(small_denominators, small_denominators, small_denominators, st.integers(0, 6))
def test_cmz_integer_sum_matches_binomial_terms(kappa, lam1, lam2, n):
    """The integer prefix-product sum equals the documented binomial sum, term by term."""
    try:
        want = cmz_binomial_oracle(kappa, lam1, lam2, n)
    except VanishingDenominatorError as err:
        with pytest.raises(VanishingDenominatorError) as got:
            cmz_t_sum(kappa, lam1, lam2, n)
        assert str(got.value) == str(err)
    else:
        assert cmz_t_sum(kappa, lam1, lam2, n) == want


def test_cmz_varying_row_vanishing_message():
    # m = 3/2, so C(2m-2, s) = C(1, s) vanishes from s = 2 on: r = 0 is the first to fail
    with pytest.raises(VanishingDenominatorError) as got:
        cmz_t_sum(Fraction(5, 7), Fraction(-11, 6), Fraction(1, 3), 3)
    assert str(got.value) == "denominator C(-2*l1, 0) * C(2n+2*l1+2*l2-2, 3) vanishes"


def closed_form_has_pole(lam1, lam2, n):
    """Some C(-l1-1/2, j) C(-l2-1/2, j) C(n+l1+l2-3/2, j) with j <= n//2 vanishes."""
    half = Fraction(1, 2)
    return any(
        not binom_general(-lam1 - half, j)
        * binom_general(-lam2 - half, j)
        * binom_general(n + lam1 + lam2 - 3 * half, j)
        for j in range(n // 2 + 1)
    )


@given(small_denominators, small_denominators, small_denominators, st.integers(0, 7))
@example(Fraction(1, 2), Fraction(-3, 2), Fraction(1), 4)  # pole past kappa's termination
@example(Fraction(5, 7), Fraction(-1, 4), Fraction(-1, 4), 2)  # C(n+l1+l2-3/2, 1) vanishes
def test_cmz_sum_and_closed_forms_agree(kappa, lam1, lam2, n):
    """The closed form raises exactly at its binomial-form poles, and wherever
    neither form raises the binomial sum equals the terminating 4F3."""
    if closed_form_has_pole(lam1, lam2, n):
        with pytest.raises(VanishingDenominatorError):
            cmz_t_closed(kappa, lam1, lam2, n)
        return
    closed = cmz_t_closed(kappa, lam1, lam2, n)
    try:
        total = cmz_t_sum(kappa, lam1, lam2, n)
    except VanishingDenominatorError:
        return
    assert total == closed
