"""Counts of wheels and complete graphs against closed forms, past the oracles' reach.

The expected values are formulas in k or n alone, and share no code with the
package: W_k has 3^k - 3 acyclic orientations, L_2k - 2 spanning trees (L a
Lucas number) and 2(k-1) bipolar orientations with a spoke as the fixed arc;
K_n has n! acyclic orientations, n^(n-2) spanning trees and 2(n-2)! bipolar
orientations.  Basic orientations are counted by bases.

The uniform matroid U(r,n), realized by the Vandermonde rows (j+1)^i, i < r,
is the non-graphic case: its Tutte polynomial, 2 sum_{i<r} C(n-1,i) acyclic
reorientations (the regions of a generic central arrangement), 2 C(n-2,r-1)
bounded ones (twice the bounded regions of a generic affine arrangement) and
C(n,r) bases are standard closed forms.  Its columns lie on the moment
curve, so every one of its C(n,r+1) circuits alternates in sign along the
ground order (Cramer's rule with positive Vandermonde minors).
"""

import math
import random

import pytest

from omtutte.expansions import count_acyclic, count_basic_orientations, count_bounded
from omtutte.matroid import Digraph, OrientedRealization, bases, from_digraph, tutte_closed
from omtutte.oriented import OrientedMatroid, signed_circuits
from omtutte.perspective import bounded_perspective
from omtutte.poly import ONE, X, Y


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



def uniform(r, n):
    return OrientedRealization(range(1, n + 1), [[(j + 1) ** i for j in range(n)]
                                                 for i in range(r)])


def uniform_tutte(r, n, x, y):
    """sum_{i<r} C(n,i)(x-1)^(r-i) + C(n,r) + sum_{i>r} C(n,i)(y-1)^(i-r)."""
    terms = [math.comb(n, i) * (x - ONE) ** (r - i) for i in range(r)]
    terms += [math.comb(n, i) * (y - ONE) ** (i - r) for i in range(r + 1, n + 1)]
    return sum(terms, math.comb(n, r) * ONE)


@pytest.mark.parametrize("r, n", [(2, 5), (3, 7), (3, 9), (4, 9), (3, 12), (4, 12)])
def test_uniform_matroids_match_closed_forms(r, n):
    m = uniform(r, n)
    assert tutte_closed(m) == uniform_tutte(r, n, X, Y)
    assert tutte_closed(m.dual()) == uniform_tutte(r, n, Y, X)
    circuits = signed_circuits(m)
    assert len(circuits) == 2 * math.comb(n, r + 1)
    for positive, support in circuits:
        every_other = sum(1 << i for i in [i for i in range(n) if support >> i & 1][1::2])
        assert positive in (every_other, support ^ every_other)
    flipped = random.Random(97 * n + r).sample(range(1, n + 1), n // 2)
    acyclic = 2 * sum(math.comb(n - 1, i) for i in range(r))
    bounded, base_count = 2 * math.comb(n - 2, r - 1), math.comb(n, r)
    for realization in (m, m.negate_columns(flipped)):
        om = OrientedMatroid(realization)
        assert count_acyclic(om) == acyclic
        assert count_basic_orientations(om) == (base_count, base_count)
        assert count_bounded(bounded_perspective(realization, n)) == bounded
        assert len(bases(realization)) == base_count
    # bounded_perspective takes an oriented matroid too, a root or a derived one
    for om in (OrientedMatroid(m), OrientedMatroid(m).reorient(flipped)):
        assert count_bounded(bounded_perspective(om, n)) == bounded
