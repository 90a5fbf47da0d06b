"""Small named digraphs for the test suite."""

from __future__ import annotations

from .matroid import Digraph


def single_arc() -> Digraph:
    """One arc a -> b; its cycle matroid is a single isthmus."""
    return Digraph.from_arcs([(1, "a", "b")])


def single_loop() -> Digraph:
    """One loop at a; its cycle matroid is a single loop."""
    return Digraph.from_arcs([(1, "a", "a")])


def parallel_pair() -> Digraph:
    """Two arcs a -> b; a rank-1 pair with an anti-parallel signed circuit."""
    return Digraph.from_arcs([(1, "a", "b"), (2, "a", "b")])


def directed_triangle() -> Digraph:
    """The 3-cycle a -> b -> c -> a; one all-positive circuit."""
    return Digraph.from_arcs([(1, "a", "b"), (2, "b", "c"), (3, "c", "a")])


def doubled_triangle() -> Digraph:
    """Four arcs on a triangle with the a-b edge doubled.

    Its Tutte polynomial is x^2 + x*y + y^2 + x + y, and this particular
    labelling and orientation makes the base orientation acyclic with
    dual-active elements {1, 3}.
    """
    return Digraph.from_arcs([
        (1, "a", "b"),
        (2, "a", "b"),
        (3, "c", "b"),
        (4, "c", "a"),
    ])


def bridged_triangle_major() -> tuple[Digraph, frozenset[int]]:
    """A 7-arc major and the 2-arc contraction set of a 5-element perspective.

    Deleting arcs {6, 7} leaves a triangle on {1, 2, 3} with pendant bridges
    4 and 5 (rank 4); contracting {6, 7} instead pinches the bridges onto the
    triangle, giving a rank-2 quotient with parallel classes {1}, {2, 4},
    {3, 5}.  The pair satisfies t(x, y, 1) = x^2 + 5x + 4y + 10.
    """
    digraph = Digraph.from_arcs([
        (1, "v1", "v2"),
        (2, "v1", "v3"),
        (3, "v2", "v3"),
        (4, "v4", "v3"),
        (5, "v2", "v5"),
        (6, "v4", "v1"),
        (7, "v5", "v3"),
    ])
    return digraph, frozenset({6, 7})
