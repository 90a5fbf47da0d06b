"""Text parser behind ``Polynomial.parse``: ``"2*x^2 - y + 1"`` to a Polynomial.

Kept out of ``poly`` so that CLI jobs, which never parse polynomial text, do not
compile it; ``Polynomial.parse`` imports it on its first call.
"""

from __future__ import annotations

import re

from .poly import _NVARS, _VAR_INDEX, Polynomial, PolynomialParseError

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[a-zA-Z])|(?P<op>[-+*^]))")


def parse(text: str) -> Polynomial:
    """Terms joined by ``+`` or ``-``, the first optionally led by ``-``; a term is ``*``-joined
    factors, each an integer or a variable with an optional ``^`` and integer exponent."""
    tokens, pos = [], 0
    while match := _TOKEN.match(text, pos):
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    if rest := text[pos:].lstrip():
        raise PolynomialParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    if not tokens:
        raise PolynomialParseError("empty polynomial text", 0)
    if tokens[0][1] == "+":
        raise PolynomialParseError("polynomial cannot start with '+'", tokens[0][2])
    tokens.append(("end", "+", tokens[-1][2]))  # closes the last term as a '+' would
    terms: dict[tuple[int, ...], int] = {}
    i, coeff = (1, -1) if tokens[0][1] == "-" else (0, 1)
    exps = [0] * _NVARS  # the term being read; coeff carries its sign
    while True:
        kind, value, at = tokens[i]  # a factor
        if kind == "int":
            coeff *= int(value)
        elif kind == "var":
            if value not in _VAR_INDEX:
                raise PolynomialParseError(f"unknown variable {value!r}", at)
            power = 1
            if tokens[i + 1][1] == "^":
                if tokens[i + 2][0] != "int":
                    raise PolynomialParseError("'^' must be followed by an integer", at)
                power = int(tokens[i + 2][1])
                i += 2
            exps[_VAR_INDEX[value]] += power
        elif kind == "end":
            raise PolynomialParseError("term ends without a factor", at)
        else:
            raise PolynomialParseError(f"expected a coefficient or variable, got {value!r}", at)
        kind, value, at = tokens[i + 1]  # what follows it: the end token follows every factor
        i += 2
        if value in ("+", "-"):
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
            if kind == "end":
                return Polynomial(terms)
            coeff, exps = -1 if value == "-" else 1, [0] * _NVARS
        elif value == "^":
            raise PolynomialParseError("'^' is only allowed on variables", at)
        elif value != "*":
            raise PolynomialParseError(f"expected an operator, got {value!r}", at)
