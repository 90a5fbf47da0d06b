"""Polynomial ring: examples plus hypothesis property checks."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omtutte.poly import (
    Monomial,
    Polynomial,
    PolynomialParseError,
    VARIABLES,
    ONE,
    U,
    V,
    X,
    Y,
    Z,
)

from helpers import oracle_partial_derivative, oracle_product, oracle_substitute

BASE = Polynomial.parse("x^2 + x*y + y^2 + x + y")


def shifted_base():
    return (X + U) ** 2 + (X + U) * (Y + V) + (Y + V) ** 2 + (X + U) + (Y + V)


# -- examples -----------------------------------------------------------------

def test_addition_cancels():
    assert (X + ONE) + (Y - ONE) == X + Y


def test_binomial_square():
    assert (X + U) * (X + U) == X ** 2 + 2 * X * U + U ** 2


def test_shift_expansion_round_trip():
    expanded = shifted_base()
    assert len(expanded.terms()) == 14
    assert expanded.substitute({"u": 0, "v": 0}) == BASE


def test_substitute_single_variable():
    assert (X ** 2).substitute({"x": X + U}) == X ** 2 + 2 * X * U + U ** 2
    assert Y.substitute({"y": Y + V}) == Y + V


def test_substitute_is_simultaneous():
    assert BASE.substitute({"x": X + U, "y": Y + V}) == shifted_base()
    swap = (X * Y).substitute({"x": Y, "y": X})
    assert swap == X * Y


def test_evaluate_examples():
    assert BASE.evaluate({"x": 2, "y": 0}) == 6
    assert BASE.evaluate({"x": 1, "y": 1}) == 5
    p = 3 * X * Y + 7
    assert p.evaluate({"x": 0, "y": 0, "u": 0, "v": 0, "z": 0}) == 7


def test_evaluate_exact_rationals():
    assert (X ** 2).evaluate({"x": Fraction(1, 3)}) == Fraction(1, 9)


def test_evaluate_missing_variable_is_named():
    with pytest.raises(ValueError, match="'y'"):
        (X + Y).evaluate({"x": 1})


def test_partial_derivative_examples():
    assert BASE.partial_derivative("x") == 2 * X + Y + ONE
    assert BASE.partial_derivative("x", 2) == Polynomial.constant(2)
    assert BASE.partial_derivative("x", 0) == BASE
    assert BASE.partial_derivative("z") == Polynomial.zero()


def test_parse_examples():
    assert Polynomial.parse("x^2 + x*y + y^2 + x + y") == BASE
    assert Polynomial.parse("0") == Polynomial.zero()
    assert str(Polynomial.parse("y + x")) == "x + y"
    assert Polynomial.parse("x ") == X


def test_format_canonical_order():
    assert str(BASE) == "x^2 + x*y + y^2 + x + y"
    assert str(X * U - 2 * Y + Polynomial.constant(1)) == "x*u - 2*y + 1"
    assert str(Polynomial.zero()) == "0"
    assert str(-X) == "-x"


def test_parse_signs_and_coefficients():
    assert Polynomial.parse("-3*x^2 + 2*x - 1") == -3 * X ** 2 + 2 * X - ONE
    assert Polynomial.parse("2*3*x") == 6 * X


PARSE_ERRORS = [
    # (text, message, position)
    ("", "empty polynomial text", 0),
    ("   ", "empty polynomial text", 0),
    ("+x", "cannot start with '+'", 0),
    ("*x", "expected a coefficient or variable", 0),
    ("2^3", "'^' is only allowed on variables", 1),
    ("x y", "expected an operator", 2),
    ("2 x", "expected an operator", 2),
    ("x + (y)", "unexpected character", 4),
    ("x^", "'^' must be followed by an integer", 0),
    ("x ^ y", "'^' must be followed by an integer", 0),
    ("x +", "term ends without a factor", 2),
    ("w + 1", "unknown variable 'w'", 0),
]


def test_parse_errors_carry_position():
    for text, message, position in PARSE_ERRORS:
        with pytest.raises(PolynomialParseError, match=re.escape(message)) as exc:
            Polynomial.parse(text)
        assert exc.value.position == position, text
        assert str(exc.value).endswith(f"(position {position})"), text


def test_nonconstant_polynomials_hash_by_their_terms():
    assert hash(X * Y + X) == hash(Y * X + X)
    assert len({X * Y + X, Y * X + X}) == 1


def test_int_minus_polynomial():
    assert 3 - X == -X + 3


@pytest.mark.parametrize("foreign", [1.5, "a", Fraction(1, 2)], ids=["float", "str", "fraction"])
def test_foreign_minus_polynomial_names_its_operands(foreign):
    message = f"unsupported operand type(s) for -: '{type(foreign).__name__}' and 'Polynomial'"
    with pytest.raises(TypeError, match=re.escape(message)):
        foreign - X


@pytest.mark.parametrize("call", [
    lambda: X + "a",
    lambda: X - "a",
    lambda: X * 1.5,
], ids=["add", "sub", "mul"])
def test_foreign_operands_raise_type_error(call):
    with pytest.raises(TypeError, match="unsupported operand"):
        call()


def test_polynomial_never_equals_a_string():
    assert (X == "x") is False


@pytest.mark.parametrize("call", [
    lambda: X ** -1,
    lambda: X ** 1.5,
    lambda: X.partial_derivative("x", -1),
], ids=["negative-power", "float-power", "negative-order"])
def test_bad_exponents_and_orders_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_substitute_rejects_a_non_polynomial_value():
    with pytest.raises(TypeError, match="cannot treat 'y' as a polynomial"):
        X.substitute({"x": "y"})


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable("t")
    with pytest.raises(ValueError):
        Monomial.from_exponents({"q": 1})


def test_monomial_canonical_mapping():
    m = Monomial.from_exponents({"x": 2, "y": 0})
    assert str(m) == "x^2"
    assert str(Monomial.one()) == "1"


# -- hypothesis properties ------------------------------------------------------

monomials = st.builds(
    lambda exps: Monomial(tuple(exps)),
    st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
)

polynomials = st.builds(
    lambda pairs: Polynomial(dict(pairs)),
    st.lists(st.tuples(monomials, st.integers(min_value=-9, max_value=9)), max_size=6),
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(deadline=None)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == Polynomial.zero()


@settings(deadline=None)
@given(polynomials)
def test_identity_substitution(p):
    assert p.substitute({"x": X, "y": Y}) == p


@settings(deadline=None)
@given(polynomials, rationals, rationals, rationals, rationals, rationals)
def test_evaluate_commutes_with_shift(p, a, b, c, d, e):
    shifted = p.substitute({"x": X + U})
    point = {"x": a, "u": b, "y": c, "v": d, "z": e}
    direct = p.evaluate({"x": a + b, "u": b, "y": c, "v": d, "z": e})
    assert shifted.evaluate(point) == direct


@settings(deadline=None)
@given(polynomials, st.sampled_from(["x", "u", "y", "v", "z", -2, -1, 0, 1, 3]),
       st.sampled_from(["x", "u", "y", "v", "z", -1, 2]), polynomials)
def test_shifted_matches_substitution(p, first, second, q):
    # x -> x + first and y -> y + second at once, then polynomial-valued, zero and swapped
    # bindings: by powers expanded once per call, and by the oracle's per-term products
    as_poly = {name: Polynomial.variable(name) + (Polynomial.variable(shift) if isinstance(shift, str)
                                                  else shift)
               for name, shift in (("x", first), ("y", second))}
    for bindings in (as_poly, {"x": q, "v": q * Y - 1}, {"u": 0, "z": q, "y": 0},
                     {"x": Y, "y": X}):
        assert p.substitute(bindings) == oracle_substitute(p, bindings)


def test_shifted_examples():
    assert BASE.substitute({"x": X + U, "y": Y + V}) == shifted_base()
    assert (X * Y ** 2).substitute({"x": X - 1, "y": Y - 1}) == (X - ONE) * (Y - ONE) ** 2
    assert (X ** 3 * Z).substitute({"z": Z}) == X ** 3 * Z
    assert (X ** 3 * Z).substitute({"z": 0}) == Polynomial.zero()
    assert Polynomial.zero().substitute({"x": X - 1}) == Polynomial.zero()
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        X.substitute({"w": X})


@settings(deadline=None)
@given(polynomials, polynomials)
def test_product_matches_oracle(p, q):
    assert p * q == oracle_product(p, q)
    assert p * 3 == oracle_product(p, Polynomial.constant(3))


@settings(deadline=None)
@given(polynomials, st.sampled_from(VARIABLES), st.integers(0, 7))
def test_partial_derivative_matches_oracle(p, var, k):
    # exponents are at most 3, so k from 4 on is past every degree
    assert p.partial_derivative(var, k) == oracle_partial_derivative(p, var, k)
    idx = VARIABLES.index(var)
    absent = Polynomial({m: c for m, c in p.terms().items() if not m.exps[idx]})
    assert absent.partial_derivative(var, k) == oracle_partial_derivative(absent, var, k)
    assert absent.partial_derivative(var, k) == (absent if k == 0 else Polynomial.zero())


@given(st.integers())
def test_constants_hash_as_their_ints(n):
    assert Polynomial.constant(n) == n
    assert hash(Polynomial.constant(n)) == hash(n)


def test_constants_and_their_ints_are_one_key():
    assert len({ONE, 1}) == 1
    assert len({Polynomial.zero(), 0}) == 1
    assert {3: "three"}.get(Polynomial.constant(3)) == "three"


def test_monomial_is_its_exponent_tuple():
    m = Monomial((2, 0, 1, 0, 0))
    assert m == (2, 0, 1, 0, 0) and hash(m) == hash((2, 0, 1, 0, 0))
    assert m.exps == (2, 0, 1, 0, 0)
    assert Polynomial({m: 4}) == Polynomial({(2, 0, 1, 0, 0): 4})
    assert list((X ** 2 * Y).terms()) == [m]
    assert type(list((X ** 2 * Y).terms())[0]) is Monomial


@settings(deadline=None)
@given(polynomials)
def test_derivatives_commute(p):
    xy = p.partial_derivative("x").partial_derivative("y")
    yx = p.partial_derivative("y").partial_derivative("x")
    assert xy == yx


@settings(deadline=None)
@given(polynomials)
def test_parse_format_round_trip(p):
    assert Polynomial.parse(str(p)) == p
