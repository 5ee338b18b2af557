from fractions import Fraction

from rcbrackets.samples import (
    BASE_VALUES,
    base_triples,
    default_triples,
    seeded_rows,
    seeded_triples,
)


def test_base_values():
    assert BASE_VALUES == (Fraction(1, 2), Fraction(1), Fraction(7, 3))


def test_base_triples_full_grid():
    triples = base_triples()
    assert len(triples) == 27
    assert len(set(triples)) == 27
    assert all(tr.is_admissible() for tr in triples)
    # lexicographic in the base values
    assert triples[0].lam1 == Fraction(1, 2)
    assert triples[-1].lam3 == Fraction(7, 3)


def test_seeded_triples_deterministic_and_admissible():
    a = seeded_triples(42, 20)
    b = seeded_triples(42, 20)
    assert a == b
    assert len(a) == 20
    assert all(tr.is_admissible() for tr in a)
    assert seeded_triples(43, 20) != a


def test_seeded_triples_bounded_entries():
    for tr in seeded_triples(7, 30):
        for lam in (tr.lam1, tr.lam2, tr.lam3):
            assert 1 <= lam.numerator <= 20
            assert 1 <= lam.denominator <= 20


def test_default_triples_composition():
    triples = default_triples()
    assert len(triples) == 47
    assert triples[:27] == base_triples()
    assert triples[27:] == seeded_triples(42, 20)


def test_seeded_rows_are_the_triple_draw():
    rows = seeded_rows(42, 20, 3)
    assert rows == [[tr.lam1, tr.lam2, tr.lam3] for tr in seeded_triples(42, 20)]
    assert rows[0] == [Fraction(4), Fraction(9, 8), Fraction(8, 5)]
    assert [len(row) for row in seeded_rows(5, 3, 4)] == [4, 4, 4]
