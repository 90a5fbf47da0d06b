"""Exact sparse polynomial arithmetic over the integers.

Polynomials live in the fixed variable universe (x, u, y, v, z) and are
represented as a dictionary mapping monomials to arbitrary-precision integer
coefficients.  Zero-coefficient terms are never stored, so structural
equality is polynomial equality and the text rendering is deterministic.

Evaluation is exact too: an int at an integer point, a fractions.Fraction
at any other; there is no floating point anywhere, so identity checks are
fully reliable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple

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


class Monomial(NamedTuple("Monomial", [("exps", tuple[int, ...])])):
    """A product of variable powers, stored as one exponent per variable in VARIABLES order."""

    __slots__ = ()

    def __new__(cls, exps: tuple[int, ...]) -> "Monomial":
        if len(exps) != _NVARS:
            raise ValueError(f"expected {_NVARS} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in monomial")
        return super().__new__(cls, exps)

    @classmethod
    def one(cls) -> "Monomial":
        return cls(_ZERO_EXPS)

    @classmethod
    def from_exponents(cls, mapping: Mapping[str, int]) -> "Monomial":
        exps = [0] * _NVARS
        for name, e in mapping.items():
            exps[_check_variable(name)] = e
        return cls(tuple(exps))

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def sort_key(self) -> tuple:
        # total degree first, then the exponent vector; callers sort descending
        return (self.degree, self.exps)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exps):
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

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
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
        return cls({Monomial.one(): int(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        idx = _check_variable(name)
        exps = [0] * _NVARS
        exps[idx] = 1
        return cls({Monomial(tuple(exps)): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

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
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                out[mono] = out.get(mono, 0) + c1 * c2
        return Polynomial(out)

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
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution, evaluation, derivatives ------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial | int"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials, fully expanded.

        Within one call each power of a bound value is expanded once, from the
        power below it; each term adds its product of those powers into one dict.
        """
        values = {_check_variable(name): {mono.exps: c for mono, c
                                          in _coerce_strict(value)._terms.items()}
                  for name, value in bindings.items()}
        powers = {i: [{_ZERO_EXPS: 1}] for i in values}
        out: dict[tuple[int, ...], int] = {}
        for mono, coeff in self._terms.items():
            term = {tuple(0 if i in values else e for i, e in enumerate(mono.exps)): coeff}
            for i, known in powers.items():
                if e := mono.exps[i]:
                    while len(known) <= e:
                        known.append(_times(known[-1], values[i]))
                    term = _times(term, known[e])
            for exps, c in term.items():
                out[exps] = out.get(exps, 0) + c
        return Polynomial({Monomial(exps): c for exps, c in out.items()})

    def evaluate(self, assignment: Mapping[str, "Fraction | int"]) -> "Fraction | int":
        """Exact value at a rational point: an int at an integer point, else a Fraction.

        Every present variable must be bound.
        """
        values = {_check_variable(name): val for name, val in assignment.items()}
        total = 0
        if not all(isinstance(val, int) for val in values.values()):
            from fractions import Fraction
            values, total = {i: Fraction(val) for i, val in values.items()}, Fraction(0)
        for mono, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(mono.exps):
                if not e:
                    continue
                if i not in values:
                    raise ValueError(f"no value assigned to variable {VARIABLES[i]!r}")
                term *= values[i] ** e
            total += term
        return total

    def partial_derivative(self, var: str, order: int = 1) -> "Polynomial":
        """Formal derivative with respect to ``var`` applied ``order`` times."""
        if not isinstance(order, int) or order < 0:
            raise ValueError("derivative order must be a non-negative integer")
        idx = _check_variable(var)
        degree = max((mono.exps[idx] for mono in self._terms), default=-1)
        poly = self
        for _ in range(min(order, degree + 1)):  # past its degree in var it is 0
            out: dict[Monomial, int] = {}
            for mono, coeff in poly._terms.items():
                e = mono.exps[idx]
                if not e:
                    continue
                exps = list(mono.exps)
                exps[idx] = e - 1
                out[Monomial(tuple(exps))] = coeff * e
            poly = Polynomial(out)
        return poly

    # -- canonical text ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms, key=Monomial.sort_key, reverse=True)
        pieces = []
        for i, mono in enumerate(ordered):
            coeff = self._terms[mono]
            mono_text = str(mono)
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
