"""Sparse multivariate polynomials over exact rationals.

A :class:`Poly` is a map from exponent tuples to nonzero rational
coefficients, together with an explicit variable tuple drawn from the fixed
universe ``z < x < y < t < v``.  The variable tuple is always stored in that
canonical order, exponent tuples are aligned with it positionwise, and zero
coefficients are never stored, so structural equality of the term maps is
semantic equality of polynomials; every stored coefficient is a
``Fraction``, never a bare ``int``.  Products and substitutions work on
integer numerators over one denominator per operand and reduce each output
coefficient once (Knuth, TAOCP vol. 2, section 4.5.1).  That format,
``Numerators``, is the package's only one: the bracket kernel, the star
product and the ``zagier`` survey take, multiply, sum, substitute into and
reduce polynomials with the same helpers.

Canonical text form: terms in graded-lex order (total degree first, then
exponents compared positionwise), e.g. ``3/2*x^2*y + 1``.  The zero
polynomial prints as ``0``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .rationals import RationalLike, as_rational, parse_rational

VAR_ORDER = ("z", "x", "y", "t", "v")

Exponents = tuple[int, ...]

# Terms over one positive denominator: the coefficient of exps is nums[exps] / den.
Numerators = tuple[dict[Exponents, int], int]


class VarsetMismatchError(ValueError):
    """Binary operation on polynomials over different variable tuples."""


class UnknownVariableError(ValueError):
    """A variable name is absent from the universe or the polynomial."""


def canonical_vars(names: Iterable[str]) -> tuple[str, ...]:
    """Validate names against the universe and sort them canonically."""
    seen = []
    for name in names:
        if name not in VAR_ORDER:
            raise UnknownVariableError(f"unknown variable {name!r}; universe is {VAR_ORDER}")
        if name in seen:
            raise UnknownVariableError(f"duplicate variable {name!r}")
        seen.append(name)
    return tuple(sorted(seen, key=VAR_ORDER.index))


class Poly:
    """Immutable-by-convention sparse polynomial over Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(
        self,
        vars: Sequence[str],
        terms: Mapping[Exponents, RationalLike] | None = None,
    ) -> None:
        self.vars: tuple[str, ...] = canonical_vars(vars)
        clean: dict[Exponents, Fraction] = {}
        width = len(self.vars)
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != width or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for variables {self.vars}")
            coeff = as_rational(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms: dict[Exponents, Fraction] = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, vars: tuple[str, ...], terms: dict[Exponents, Fraction]) -> Poly:
        """Wrap already-canonical variables and nonzero Fraction terms, unchecked."""
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, vars: Sequence[str]) -> Poly:
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Sequence[str], value: RationalLike) -> Poly:
        vars = canonical_vars(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str] | None = None) -> Poly:
        vars = canonical_vars(vars if vars is not None else (name,))
        if name not in vars:
            raise UnknownVariableError(f"{name!r} not among {vars}")
        exps = tuple(1 if w == name else 0 for w in vars)
        return cls(vars, {exps: 1})

    @classmethod
    def monomial(
        cls,
        vars: Sequence[str],
        powers: Mapping[str, int],
        coeff: RationalLike = 1,
    ) -> Poly:
        vars = canonical_vars(vars)
        for name in powers:
            if name not in vars:
                raise UnknownVariableError(f"{name!r} not among {vars}")
        exps = tuple(powers.get(w, 0) for w in vars)
        return cls(vars, {exps: coeff})

    # -- ring structure --------------------------------------------------

    def _check_same_vars(self, other: Poly) -> None:
        if self.vars != other.vars:
            raise VarsetMismatchError(f"variable tuples differ: {self.vars} vs {other.vars}")

    def __add__(self, other: Poly | RationalLike) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        self._check_same_vars(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
        return Poly._trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._trusted(self.vars, {exps: -coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other: Poly | RationalLike) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> Poly:
        return Poly.const(self.vars, other) - self

    def __mul__(self, other: Poly | RationalLike) -> Poly:
        if not isinstance(other, Poly):
            scalar = as_rational(other)
            terms = {e: c * scalar for e, c in self.terms.items()} if scalar else {}
            return Poly._trusted(self.vars, terms)
        self._check_same_vars(other)
        return _reduced(self.vars, _times(_numerators(self.terms), _numerators(other.terms)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power needs a nonnegative integer, got {n!r}")
        out = Poly.const(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not usable as a dict key

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, powers: Mapping[str, int]) -> Fraction:
        for name in powers:
            if name not in self.vars:
                raise UnknownVariableError(f"{name!r} not among {self.vars}")
        exps = tuple(powers.get(w, 0) for w in self.vars)
        return self.terms.get(exps, Fraction(0))

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self._var_index(name)
        if not self.terms:
            return -1
        return max(exps[idx] for exps in self.terms)

    def _var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariableError(f"{name!r} not among {self.vars}") from None

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str, order: int = 1) -> Poly:
        """Plain (unnormalized) partial derivative d^order / d name^order."""
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"derivative order must be a nonnegative integer, got {order!r}")
        idx = self._var_index(name)
        # exps -> exps lowered by ``order`` at idx is one-to-one, so no two terms meet
        terms = {
            exps[:idx] + (exps[idx] - order,) + exps[idx + 1 :]: coeff * perm(exps[idx], order)
            for exps, coeff in self.terms.items()
            if exps[idx] >= order
        }
        return Poly._trusted(self.vars, terms)

    def subst(self, bindings: Mapping[str, Poly]) -> Poly:
        """Substitute polynomials for every variable of ``self``.

        All bound values must share one variable tuple, which becomes the
        variable tuple of the result.  Every variable actually occurring in
        ``self`` must be bound; a leftover unbound variable is an error.  The
        pieces are summed on integer numerators over the lcm of their
        denominators and reduced once.
        """
        if not bindings:
            raise UnknownVariableError("substitution needs at least one binding")
        values = list(bindings.values())
        target = values[0].vars
        for value in values[1:]:
            if value.vars != target:
                raise VarsetMismatchError(
                    f"substitution values over mixed variable tuples: {target} vs {value.vars}"
                )
        for name in bindings:
            if name not in self.vars:
                raise UnknownVariableError(f"binding for {name!r} not among {self.vars}")
        unbound = [
            name
            for pos, name in enumerate(self.vars)
            if name not in bindings and any(exps[pos] for exps in self.terms)
        ]
        if unbound:
            raise UnknownVariableError(f"unbound variables remain after substitution: {unbound}")

        one = (0,) * len(target)
        bases = {name: _numerators(value.terms) for name, value in bindings.items()}
        powers: dict[str, list[Numerators]] = {name: [({one: 1}, 1)] for name in bindings}
        pieces = []
        for exps, coeff in self.terms.items():
            piece = ({one: coeff.numerator}, coeff.denominator)
            for name, e in zip(self.vars, exps):
                if e:
                    row = powers[name]
                    while len(row) <= e:
                        row.append(_times(row[-1], bases[name]))
                    piece = _times(piece, row[e])
            pieces.append(piece)
        return _reduced(target, _sum(pieces))

    def eval_at(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate at a full rational point."""
        missing = [
            name
            for pos, name in enumerate(self.vars)
            if name not in point and any(exps[pos] for exps in self.terms)
        ]
        if missing:
            raise UnknownVariableError(f"missing values for variables: {missing}")
        values = [as_rational(point[name]) if name in point else Fraction(0) for name in self.vars]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for base, e in zip(values, exps):
                if e:
                    term *= base**e
            total += term
        return total

    def lift(self, vars: Sequence[str]) -> Poly:
        """Reinterpret over a larger variable tuple (a superset of vars)."""
        vars = canonical_vars(vars)
        for name in self.vars:
            if name not in vars:
                raise UnknownVariableError(f"{name!r} missing from target variables {vars}")
        positions = [vars.index(name) for name in self.vars]
        width = len(vars)
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            out_exps = [0] * width
            for pos, e in zip(positions, exps):
                out_exps[pos] = e
            terms[tuple(out_exps)] = coeff
        return Poly._trusted(vars, terms)

    # -- canonical text -----------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({'*'.join(self.vars) or '-'}: {self})"


# -- integer numerators ---------------------------------------------------------


def _numerators(terms: Mapping[Exponents, Fraction]) -> Numerators:
    """``terms`` as integer numerators over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {exps: c.numerator * (den // c.denominator) for exps, c in terms.items()}, den


def _times(a: Numerators, b: Numerators) -> Numerators:
    """The product over the product of the denominators, unreduced; a cancelled term stays as 0."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    out: dict[Exponents, int] = {}
    get = out.get
    for e1, c1 in a_nums.items():
        for e2, c2 in b_nums.items():
            exps = tuple(map(add, e1, e2))
            out[exps] = get(exps, 0) + c1 * c2
    return out, a_den * b_den


def _sum(pieces: Sequence[Numerators]) -> Numerators:
    """The sum over the lcm of the pieces' denominators, unreduced; no pieces sum to ({}, 1)."""
    den = lcm(*(piece_den for _, piece_den in pieces))
    total: dict[Exponents, int] = {}
    for nums, piece_den in pieces:
        scale = den // piece_den
        for exps, v in nums.items():
            total[exps] = total.get(exps, 0) + v * scale
    return total, den


def _reduced(vars: tuple[str, ...], value: Numerators) -> Poly:
    """The polynomial over canonical ``vars``: one reduced Fraction per nonzero numerator."""
    nums, den = value
    return Poly._trusted(vars, {exps: Fraction(v, den) for exps, v in nums.items() if v})


# -- parsing ------------------------------------------------------------------
# One lexer and one precedence parser serve the package's three text
# languages: polynomials here, and the coefficient and bracket-expression
# languages of ``rewrite``, which supply their own leaves and builders.


class PolySyntaxError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The deepest '['/'(' nesting any text language accepts; bracket expressions
# and parenthesized infix text share it, and ``rewrite.to_standard`` applies
# it to trees built through the API.
MAX_NESTING = 200


class NestingTooDeepError(ValueError):
    """Input nested deeper than ``MAX_NESTING`` brackets or parentheses, or rewritten so."""

    def __init__(self, message: str = "input nested too deeply") -> None:
        super().__init__(message)


Token = tuple[str, str, int]

_TOKEN_CHARS = set("+-*^()[],_")


class Tokens:
    """A cursor over the tokens (kind, text, position) of ``src``, ending in an
    ``end`` token; ``error(message, position)`` reports bad input, such as a
    literal ``p/q`` whose q is missing or all zeros, and '['/'(' nesting deeper
    than ``MAX_NESTING`` raises :class:`NestingTooDeepError`."""

    def __init__(self, src: str, error: type[ValueError]) -> None:
        self.error = error
        self.items: list[Token] = []
        self.pos = 0
        i = depth = 0
        while i < len(src):
            ch = src[i]
            if ch.isspace():
                i += 1
            elif ch == "*" and src.startswith("**", i):
                self.items.append(("^", "^", i))
                i += 2
            elif ch in _TOKEN_CHARS:
                if ch in "[(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise NestingTooDeepError
                elif ch in "])":
                    depth -= 1
                self.items.append((ch, ch, i))
                i += 1
            elif ch.isdecimal():  # isdigit would pass '²', which int() rejects
                j = self._run(src, i, str.isdecimal)
                if j < len(src) and src[j] == "/":
                    k = self._run(src, j + 1, str.isdecimal)
                    if k == j + 1:
                        raise error("missing denominator", k)
                    if not any(map(int, src[j + 1 : k])):  # each digit 0, in any script
                        raise error("zero denominator", j + 1)
                    j = k
                self.items.append(("number", src[i:j], i))
                i = j
            elif ch.isalpha():
                j = self._run(src, i, str.isalnum)
                self.items.append(("name", src[i:j], i))
                i = j
            else:
                raise error(f"unexpected character {ch!r}", i)
        self.items.append(("end", "", len(src)))

    @staticmethod
    def _run(src: str, i: int, accept) -> int:
        while i < len(src) and accept(src[i]):
            i += 1
        return i

    def peek(self) -> Token:
        return self.items[self.pos]

    def advance(self) -> Token:
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str, tok: Token) -> NoReturn:
        raise self.error(f"expected {expected}, found {tok[1] or 'end of input'!r}", tok[2])

    def expect(self, kind: str) -> Token:
        tok = self.advance()
        if tok[0] != kind:
            self.fail(repr(kind), tok)
        return tok

    def integer(self) -> int:
        """The next token as a nonnegative integer."""
        tok = self.advance()
        if tok[0] != "number" or "/" in tok[1]:
            self.fail("an integer", tok)
        return int(tok[1])

    def finish(self, value):
        """``value`` once every token is read; trailing input is an error."""
        kind, text, position = self.peek()
        if kind != "end":
            raise self.error(f"trailing input {text!r}", position)
        return value


def parse_infix(tokens: Tokens, leaf, ops: Mapping[str, Callable]):
    """Parse all of ``tokens`` by recursive descent over
    expr := term (('+'|'-') term)*;  term := factor ('*' factor)*;
    factor := '-' factor | atom ('^' INT)?;  atom := NUMBER | NAME | '(' expr ')'.

    ``leaf(token)`` builds an atom from a NUMBER or NAME token; ``ops`` maps
    '+', '-' and '*' to binary builders and 'neg' to the unary minus.  A
    '^' is an operator only when ``ops`` has a builder for it, which gets
    the base and the integer exponent; elsewhere it is trailing input.
    """

    def expr():
        out = term()
        while tokens.peek()[0] in ("+", "-"):
            out = ops[tokens.advance()[0]](out, term())
        return out

    def term():
        out = factor()
        while tokens.peek()[0] == "*":
            tokens.advance()
            out = ops["*"](out, factor())
        return out

    def factor():
        # a run of unary minus signs is read in a loop, not by recursion,
        # so its length is bounded by nothing but the input
        signs = 0
        while tokens.peek()[0] == "-":
            tokens.advance()
            signs += 1
        out = atom()
        if "^" in ops and tokens.peek()[0] == "^":
            tokens.advance()
            out = ops["^"](out, tokens.integer())
        for _ in range(signs):
            out = ops["neg"](out)
        return out

    def atom():
        tok = tokens.advance()
        if tok[0] in ("number", "name"):
            return leaf(tok)
        if tok[0] != "(":
            tokens.fail("a term", tok)
        out = expr()
        tokens.expect(")")
        return out

    return tokens.finish(expr())


_POLY_OPS = {"+": add, "-": sub, "*": mul, "neg": neg, "^": pow}


def poly_from_string(src: str, vars: Sequence[str]) -> Poly:
    """Parse canonical/handwritten polynomial text over the given variables."""
    vars = canonical_vars(vars)

    def leaf(tok: Token) -> Poly:
        kind, text, position = tok
        if kind == "number":
            return Poly.const(vars, parse_rational(text))
        if text not in vars:
            raise PolySyntaxError(f"unknown variable {text!r} (allowed: {vars})", position)
        return Poly.variable(text, vars)

    return parse_infix(Tokens(src, PolySyntaxError), leaf, _POLY_OPS)
