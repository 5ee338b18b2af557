"""Polynomial models of sl2 modules, the Fischer pairing and intertwiners.

Four models act on polynomial spaces through the generators H, E, F (and the
Casimir C = H^2/4 + H/2 + FE, always computed through the generators):

* ``Highest(w)``       on Pol(x):    dual/highest-weight model,
* ``Lowest(w)``        on Pol(x):    lowest-weight model,
* ``TensorLowest``     on Pol(x, y): tensor product of two lowest models,
* ``TensorLowestTV``   on Pol(t, v): the same tensor module after the change
  of variables x = t(1-v)/2, y = t(1+v)/2 (see :func:`psi_map`); its F action
  divides by t and raises :class:`NonPolynomialResultError` when the input is
  not in the image of a polynomial under that change of variables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .hypergeom import jacobi_operator, jacobi_two_var
from .poly import Poly, UnknownVariableError, canonical_vars
from .rationals import RationalLike, as_rational, factorial


class NonPolynomialResultError(ValueError):
    """The t-division in the (t, v) model left a genuine 1/t term."""


@dataclass(frozen=True)
class _Model:
    """A model's weights, each coerced to a Fraction on construction."""

    def __post_init__(self) -> None:
        for field in fields(self):
            object.__setattr__(self, field.name, as_rational(getattr(self, field.name)))


@dataclass(frozen=True)
class Highest(_Model):
    weight: Fraction
    variables = ("x",)


@dataclass(frozen=True)
class Lowest(_Model):
    weight: Fraction
    variables = ("x",)


@dataclass(frozen=True)
class TensorLowest(_Model):
    weight1: Fraction
    weight2: Fraction
    variables = ("x", "y")


@dataclass(frozen=True)
class TensorLowestTV(_Model):
    weight1: Fraction
    weight2: Fraction
    variables = ("t", "v")


Model = Highest | Lowest | TensorLowest | TensorLowestTV

GENERATORS = ("H", "E", "F", "C")


def _check_domain(model: Model, p: Poly) -> Poly:
    want = canonical_vars(model.variables)
    if p.vars == want:
        return p
    if set(p.vars) <= set(want):
        return p.lift(want)
    raise UnknownVariableError(f"{type(model).__name__} acts on Pol{want}, got {p.vars}")


def divide_by_t(p: Poly) -> Poly:
    """Exact division by t; error if any term has no t factor."""
    idx = p.vars.index("t")
    terms = {}
    for exps, coeff in p.terms.items():
        if exps[idx] == 0:
            raise NonPolynomialResultError(f"term {exps} has no factor of t")
        terms[exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]] = coeff
    return Poly(p.vars, terms)


def _act_basic(model: Model, gen: str, p: Poly) -> Poly:
    if isinstance(model, Highest):
        x = Poly.variable("x")
        if gen == "H":
            return -model.weight * p - 2 * (x * p.diff("x"))
        if gen == "E":
            return -p.diff("x")
        return x * x * p.diff("x") + model.weight * (x * p)
    if isinstance(model, Lowest):
        x = Poly.variable("x")
        if gen == "H":
            return model.weight * p + 2 * (x * p.diff("x"))
        if gen == "E":
            return x * p
        return -(x * p.diff("x", 2) + model.weight * p.diff("x"))
    if isinstance(model, TensorLowest):
        x = Poly.variable("x", ("x", "y"))
        y = Poly.variable("y", ("x", "y"))
        if gen == "H":
            return (model.weight1 + model.weight2) * p + 2 * (x * p.diff("x") + y * p.diff("y"))
        if gen == "E":
            return (x + y) * p
        return -(
            x * p.diff("x", 2)
            + y * p.diff("y", 2)
            + model.weight1 * p.diff("x")
            + model.weight2 * p.diff("y")
        )
    t = Poly.variable("t", ("t", "v"))
    wsum = model.weight1 + model.weight2
    if gen == "H":
        return wsum * p + 2 * (t * p.diff("t"))
    if gen == "E":
        return t * p
    angular = jacobi_operator(model.weight1 - 1, model.weight2 - 1, p)
    return -(t * p.diff("t", 2) + wsum * p.diff("t") + divide_by_t(angular))


def act(model: Model, gen: str, p: Poly) -> Poly:
    """Apply a generator (or the Casimir) of sl2 in the given model."""
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}; choose from {GENERATORS}")
    p = _check_domain(model, p)
    if gen == "C":
        h = _act_basic(model, "H", p)
        hh = _act_basic(model, "H", h)
        fe = _act_basic(model, "F", _act_basic(model, "E", p))
        return Fraction(1, 4) * hh + Fraction(1, 2) * h + fe
    return _act_basic(model, gen, p)


def fischer(p: Poly, q: Poly) -> Fraction:
    """Fischer pairing <p, q> = [p(d)q](0) = sum_e p_e q_e prod_i e_i!.

    Symmetric, bilinear, and makes distinct monomials orthogonal.
    """
    if p.vars != q.vars:
        raise UnknownVariableError(f"pairing needs one variable tuple, got {p.vars} vs {q.vars}")
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        other = q.terms.get(exps)
        if other is None:
            continue
        weight = coeff * other
        for e in exps:
            weight *= factorial(e)
        total += weight
    return total


def psi_map(p: Poly) -> Poly:
    """Change of variables Pol(x, y) -> Pol(t, v): x -> t(1-v)/2, y -> t(1+v)/2."""
    if set(p.vars) - {"x", "y"}:
        raise UnknownVariableError(f"psi_map acts on Pol(x, y), got {p.vars}")
    p = p.lift(("x", "y"))
    t = Poly.variable("t", ("t", "v"))
    v = Poly.variable("v", ("t", "v"))
    one = Poly.const(("t", "v"), 1)
    half = Fraction(1, 2)
    return p.subst({"x": half * (t * (one - v)), "y": half * (t * (one + v))})


_X_PLUS_Y = Poly.variable("x", ("x", "y")) + Poly.variable("y", ("x", "y"))


def intertwiner_phi_tilde(ell: int, lam1: RationalLike, lam2: RationalLike, q: Poly) -> Poly:
    """Raising intertwiner into the tensor model: q(u) -> G_ell(x, y) q(x + y),

    where G_ell is the homogeneous two-variable Jacobi form of degree ell for
    (lam1, lam2).  The input must be a single-variable polynomial.
    """
    if len(q.vars) > 1:
        raise UnknownVariableError(f"intertwiner input must be single-variable, got {q.vars}")
    geometric = jacobi_two_var(ell, lam1, lam2)
    if not q.vars:
        q = q.lift(("t",))
    return geometric * q.subst({q.vars[0]: _X_PLUS_Y})


def adjoint_phi_tilde(ell: int, lam1: RationalLike, lam2: RationalLike, p: Poly) -> Poly:
    """Fischer adjoint of the raising intertwiner: Pol(x, y) -> Pol(z),

    p -> [G_ell(dx, dy) p](z, z).  For ell = 0 this is the restriction to the
    diagonal.  On a product f(x) g(y) it reproduces the degree-ell bracket of
    (f, g) at weights (lam1, lam2).
    """
    if set(p.vars) - {"x", "y"}:
        raise UnknownVariableError(f"adjoint input lives in Pol(x, y), got {p.vars}")
    p = p.lift(("x", "y"))
    geometric = jacobi_two_var(ell, lam1, lam2)
    accum = Poly.zero(("x", "y"))
    for (sx, sy), coeff in geometric.terms.items():
        accum = accum + coeff * p.diff("x", sx).diff("y", sy)
    z = Poly.variable("z")
    return accum.subst({"x": z, "y": z})
