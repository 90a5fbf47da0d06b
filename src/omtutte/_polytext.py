"""Text parser behind ``Polynomial.parse``: ``"2*x^2 - y + 1"`` to a Polynomial.

Kept out of ``poly`` so that CLI jobs, which never parse polynomial text, do not
compile it; ``Polynomial.parse`` imports it on its first call.
"""

from __future__ import annotations

import re

from .poly import _NVARS, _VAR_INDEX, Monomial, Polynomial, PolynomialParseError

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[a-zA-Z])|(?P<op>[-+*^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolynomialParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def parse(text: str) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text", 0)
    terms: dict[Monomial, int] = {}
    i = 0
    while i < len(tokens):  # every term but the first starts at the '+' or '-' ending the last
        sign = 1
        kind, value, at = tokens[i]
        if kind == "op" and value in "+-":
            if value == "+" and i == 0:
                raise PolynomialParseError("polynomial cannot start with '+'", at)
            sign = -1 if value == "-" else 1
            i += 1
        coeff, exps, i = _parse_term(tokens, i)
        mono = Monomial(tuple(exps))
        terms[mono] = terms.get(mono, 0) + sign * coeff
    return Polynomial(terms)


def _parse_term(tokens, i) -> tuple[int, list[int], int]:
    coeff = 1
    exps = [0] * _NVARS
    expect_factor = True
    while True:
        if i >= len(tokens):
            if expect_factor:
                last = tokens[-1][2] if tokens else 0
                raise PolynomialParseError("term ends without a factor", last)
            return coeff, exps, i
        kind, value, at = tokens[i]
        if expect_factor:
            if kind == "int":
                coeff *= int(value)
                i += 1
            elif kind == "var":
                if value not in _VAR_INDEX:
                    raise PolynomialParseError(f"unknown variable {value!r}", at)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    if i + 1 >= len(tokens) or tokens[i + 1][0] != "int":
                        raise PolynomialParseError("'^' must be followed by an integer", at)
                    power = int(tokens[i + 1][1])
                    i += 2
                exps[_VAR_INDEX[value]] += power
            else:
                raise PolynomialParseError(f"expected a coefficient or variable, got {value!r}", at)
            expect_factor = False
        else:
            if kind == "op" and value == "*":
                expect_factor = True
                i += 1
            elif kind == "op" and value == "^":
                raise PolynomialParseError("'^' is only allowed on variables", at)
            elif kind == "op" and value in "+-":
                return coeff, exps, i
            else:
                raise PolynomialParseError(f"expected an operator, got {value!r}", at)
