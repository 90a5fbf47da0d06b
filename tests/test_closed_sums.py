"""The closed rank sums, expanded by binomial coefficients, against Polynomial arithmetic.

``tutte_closed``, ``tutte3_closed`` and an expansion report's reference
t(x+u, y+v, 1) build their coefficients with ``math.comb`` from the subset
counts; the oracles in helpers.py take powers and products of (x-1), (y-1)
and substitute.  Instances cover random realizations and digraphs,
``from_major`` perspectives with a rank drop, loops and isthmi, and the
empty ground set.
"""

import random
from fractions import Fraction

import pytest

from omtutte.expansions import expansion_sum
from omtutte.matroid import OrientedRealization, from_digraph, tutte_closed
from omtutte.oriented import OrientedMatroid
from omtutte.perspective import (
    Perspective,
    PerspectiveError,
    from_major,
    identity_perspective,
    tutte3_closed,
)
from omtutte.poly import ONE, X, Y

from helpers import (
    oracle_reference,
    oracle_tutte3_closed,
    oracle_tutte_closed,
    random_digraph,
    random_realization,
    rows_of,
)


def with_loop_and_isthmus(m: OrientedRealization) -> OrientedRealization:
    """m plus a zero column (a loop) and a column alone in a new row (an isthmus)."""
    zero = Fraction(0)
    rows = [[*row, zero, zero] for row in rows_of(m)]
    rows.append([zero] * (len(m.ground) + 1) + [Fraction(1)])
    return OrientedRealization(range(1, len(m.ground) + 3), rows)


def seeded_perspectives(seed):
    rng = random.Random(seed)
    out = []
    while len(out) < 10:
        n = random_realization(rng, max_rows=4, max_cols=8)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c and c != set(n.ground):
            p = from_major(n, c)
            if p.rank_drop():
                out.append(p)
    for _ in range(6):
        out.append(identity_perspective(random_realization(rng, max_rows=3, max_cols=7)))
        out.append(identity_perspective(with_loop_and_isthmus(random_realization(rng, 3, 6))))
        out.append(identity_perspective(from_digraph(random_digraph(rng, 5, 8))))
    return out


def test_closed_sums_match_polynomial_arithmetic():
    for p in seeded_perspectives(1205):
        assert tutte_closed(p.m.realization) == oracle_tutte_closed(p.m.realization)
        assert tutte_closed(p.mprime.realization) == oracle_tutte_closed(p.mprime.realization)
        assert tutte3_closed(p) == oracle_tutte3_closed(p)
        assert expansion_sum(p).reference == oracle_reference(p)


def test_closed_sums_of_the_empty_ground_set():
    empty = OrientedRealization((), [])
    p = identity_perspective(empty)
    assert tutte_closed(empty) == ONE == oracle_tutte_closed(empty)
    assert tutte3_closed(p) == ONE == oracle_tutte3_closed(p)
    assert expansion_sum(p).reference == ONE


def test_negative_z_exponent_names_the_first_subset():
    # M and M' both have rank 2, but M' makes 3 and 5 parallel: r - r' is 1 on {3, 5}
    p = Perspective.__new__(Perspective)  # bypasses the strong-map scans, which reject the pair
    p.m = OrientedMatroid(OrientedRealization((3, 5, 8), [[1, 0, 1], [0, 1, 1]]))
    p.mprime = OrientedMatroid(OrientedRealization((3, 5, 8), [[1, 1, 0], [0, 0, 1]]))
    with pytest.raises(PerspectiveError, match=r"^negative z exponent at subset \[3, 5\]; "
                                               "the pair violates the strong-map rank axiom$"):
        tutte3_closed(p)


def test_loop_and_isthmus_factors():
    # an isthmus multiplies t by x, a loop by y
    m = random_realization(random.Random(5424), max_rows=3, max_cols=5)
    extended = with_loop_and_isthmus(m)
    om = OrientedMatroid(extended)
    assert om.is_loop(len(m.ground) + 1) and om.is_isthmus(len(m.ground) + 2)
    assert tutte_closed(extended) == tutte_closed(m) * X * Y
