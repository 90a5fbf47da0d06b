"""Counts of wheels and complete graphs against closed forms, past the oracles' reach.

The expected values are formulas in k or n alone, and share no code with the
package: W_k has 3^k - 3 acyclic orientations, L_2k - 2 spanning trees (L a
Lucas number) and 2(k-1) bipolar orientations with a spoke as the fixed arc;
K_n has n! acyclic orientations, n^(n-2) spanning trees and 2(n-2)! bipolar
orientations.  Basic orientations are counted by bases.
"""

import math

import pytest

from omtutte.expansions import count_acyclic, count_basic_orientations, count_bounded
from omtutte.matroid import Digraph, from_digraph
from omtutte.perspective import bounded_perspective


def wheel(k):
    """Spokes h -> r_i are arcs 1..k, rim arcs r_i -> r_(i+1) are arcs k+1..2k."""
    spokes = [(i + 1, "h", f"r{i}") for i in range(k)]
    rim = [(k + i + 1, f"r{i}", f"r{(i + 1) % k}") for i in range(k)]
    return from_digraph(Digraph.from_arcs(spokes + rim))


def complete(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_digraph(Digraph.from_arcs(
        [(t + 1, f"k{i}", f"k{j}") for t, (i, j) in enumerate(pairs)]))


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


CASES = {
    "W5": (lambda: wheel(5), 3 ** 5 - 3, lucas(10) - 2, 2 * 4),
    "W7": (lambda: wheel(7), 3 ** 7 - 3, lucas(14) - 2, 2 * 6),
    "K5": (lambda: complete(5), math.factorial(5), 5 ** 3, 2 * math.factorial(3)),
    "K6": (lambda: complete(6), math.factorial(6), 6 ** 4, 2 * math.factorial(4)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_counts_match_closed_forms(name):
    build, acyclic, trees, bipolar = CASES[name]
    m = build()
    assert count_acyclic(m) == acyclic
    assert count_basic_orientations(m) == (trees, trees)
    assert count_bounded(bounded_perspective(m, 1)) == bipolar

