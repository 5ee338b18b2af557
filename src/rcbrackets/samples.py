"""Deterministic weight-sample generation for the verification suites, and the
``sample`` field their reports record for a weight triple."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .transition import ParamTriple

BASE_VALUES = (Fraction(1, 2), Fraction(1), Fraction(7, 3))


def base_triples() -> list[ParamTriple]:
    """The 27 fixed triples over {1/2, 1, 7/3}, in lexicographic order."""
    return [ParamTriple(a, b, c) for a, b, c in product(BASE_VALUES, repeat=3)]


def seeded_rows(seed: int, count: int, width: int) -> list[list[Fraction]]:
    """Reproducible rows of positive rationals, numerators/denominators <= 20."""
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(width)]
        for _ in range(count)
    ]


def seeded_triples(seed: int, count: int) -> list[ParamTriple]:
    """Reproducible positive rational triples, numerators/denominators <= 20.

    Every entry is positive, so every triple passes the admissibility gate.
    """
    return [ParamTriple(*row) for row in seeded_rows(seed, count, 3)]


def default_triples(seed: int = 42, count: int = 20) -> list[ParamTriple]:
    """Fixed grid plus seeded draws; every entry passes the admissibility gate."""
    return base_triples() + seeded_triples(seed, count)


def sample_dict(params: ParamTriple) -> dict[str, str]:
    """The triple as the ``sample`` field of a report: {"lam1": "p/q", ...}."""
    return {"lam1": str(params.lam1), "lam2": str(params.lam2), "lam3": str(params.lam3)}
