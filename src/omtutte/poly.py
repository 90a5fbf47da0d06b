"""Exact sparse polynomial arithmetic over the integers.

Polynomials live in the fixed variable universe (x, u, y, v, z) and are
dictionaries from monomials, plain exponent tuples, to integer coefficients.
Zero-coefficient terms are never stored, so structural equality is
polynomial equality and the text rendering is deterministic.

Evaluation is exact too: an int at an integer point, a fractions.Fraction
at any other; there is no floating point anywhere, so identity checks are
fully reliable.
"""

from __future__ import annotations

from math import perm
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

VARIABLES = ("x", "u", "y", "v", "z")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

_NVARS = len(VARIABLES)
_ZERO_EXPS = (0,) * _NVARS


class PolynomialParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _check_variable(name: str) -> int:
    if name not in _VAR_INDEX:
        raise ValueError(f"unknown variable {name!r}; allowed: {', '.join(VARIABLES)}")
    return _VAR_INDEX[name]


class Monomial(tuple):
    """A product of variable powers: its own exponent tuple, in VARIABLES order."""

    __slots__ = ()

    def __new__(cls, exps: tuple[int, ...]) -> "Monomial":
        if len(exps) != _NVARS:
            raise ValueError(f"expected {_NVARS} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in monomial")
        return super().__new__(cls, exps)

    @property
    def exps(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Monomial(exps={tuple(self)})"

    @classmethod
    def one(cls) -> "Monomial":
        return cls(_ZERO_EXPS)

    @classmethod
    def from_exponents(cls, mapping: Mapping[str, int]) -> "Monomial":
        exps = [0] * _NVARS
        for name, e in mapping.items():
            exps[_check_variable(name)] = e
        return cls(tuple(exps))

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(VARIABLES[i])
            elif e > 1:
                parts.append(f"{VARIABLES[i]}^{e}")
        return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.

    Supports +, -, *, ** with other polynomials and ints.  All operations
    return canonical polynomials (no zero terms).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    clean[mono] = coeff
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({_ZERO_EXPS: int(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        idx = _check_variable(name)
        return cls({_ZERO_EXPS[:idx] + (1,) + _ZERO_EXPS[idx + 1:]: 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Monomial, int]:
        return {Monomial(exps): coeff for exps, coeff in self._terms.items()}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_times(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {_ZERO_EXPS}:  # a constant hashes as the int it equals
            return hash(self._terms.get(_ZERO_EXPS, 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution, evaluation, derivatives ------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial | int"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials, fully expanded.

        Within one call each power of a bound value is expanded once, from the
        power below it; each term adds its product of those powers into one dict.
        """
        values = {_check_variable(name): _coerce_strict(value)._terms
                  for name, value in bindings.items()}
        powers = {i: [{_ZERO_EXPS: 1}] for i in values}
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._terms.items():
            term = {tuple(0 if i in values else e for i, e in enumerate(exps)): coeff}
            for i, known in powers.items():
                if e := exps[i]:
                    while len(known) <= e:
                        known.append(_times(known[-1], values[i]))
                    term = _times(term, known[e])
            for key, c in term.items():
                out[key] = out.get(key, 0) + c
        return Polynomial(out)

    def evaluate(self, assignment: Mapping[str, "Fraction | int"]) -> "Fraction | int":
        """Exact value at a rational point: an int at an integer point, else a Fraction.

        Every present variable must be bound.
        """
        values = {_check_variable(name): val for name, val in assignment.items()}
        total = 0
        if not all(isinstance(val, int) for val in values.values()):
            from fractions import Fraction
            values, total = {i: Fraction(val) for i, val in values.items()}, Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i not in values:
                    raise ValueError(f"no value assigned to variable {VARIABLES[i]!r}")
                term *= values[i] ** e
            total += term
        return total

    def partial_derivative(self, var: str, order: int = 1) -> "Polynomial":
        """The ``order``-th formal derivative in ``var``, in one pass; lower-degree terms drop."""
        if not isinstance(order, int) or order < 0:
            raise ValueError("derivative order must be a non-negative integer")
        idx = _check_variable(var)
        return Polynomial({exps[:idx] + (e - order,) + exps[idx + 1:]: coeff * perm(e, order)
                           for exps, coeff in self._terms.items() if (e := exps[idx]) >= order})

    # -- canonical text ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms, key=lambda exps: (sum(exps), exps), reverse=True)
        pieces = []
        for i, exps in enumerate(ordered):
            coeff = self._terms[exps]
            mono_text = str(Monomial(exps))
            mag = abs(coeff)
            if mono_text == "1":
                body = str(mag)
            elif mag == 1:
                body = mono_text
            else:
                body = f"{mag}*{mono_text}"
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        from ._polytext import parse  # loaded on first use: no CLI command parses text

        return parse(text)


def _times(a: Mapping[tuple[int, ...], int],
           b: Mapping[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The product of two polynomials held as exponents -> coefficient dicts."""
    out: dict[tuple[int, ...], int] = {}
    for exps_a, c_a in a.items():
        for exps_b, c_b in b.items():
            exps = tuple(map(int.__add__, exps_a, exps_b))
            out[exps] = out.get(exps, 0) + c_a * c_b
    return out


def _coerce(value) -> "Polynomial":
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented


def _coerce_strict(value) -> "Polynomial":
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot treat {value!r} as a polynomial")
    return out


# Convenience generators for the five variables.
X = Polynomial.variable("x")
U = Polynomial.variable("u")
Y = Polynomial.variable("y")
V = Polynomial.variable("v")
Z = Polynomial.variable("z")
ONE = Polynomial.one()
