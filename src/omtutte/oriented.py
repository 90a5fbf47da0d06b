"""Signed circuits and cocircuits, reorientation, and orientation activities.

A family is held once, as (positive, support) bitmask pairs (bit i is
ground[i]) ordered by support, then positive part, each lexicographically by
its elements; ``SignedSubset`` views them for witnesses and text.  Circuit
supports are read off the rank table (rank |S|-1, every maximal proper subset
independent), their signs off one fraction-free echelon form of the matrix;
cocircuits are the circuits of the dual.  Reorientations, duals and minors read
their rank tables and families off their parent's, so only a matroid built from
a matrix runs linear algebra.  "Smallest" is the lowest bit: the ground tuple is
the ordered set E.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, NamedTuple, Sequence

from .matroid import (
    MatroidError,
    OrientedRealization,
    _dual_table,
    _echelon,
    _Ground,
    _integer_kernel,
    _loop_table,
    _minor_table,
    popcounts,
)
from .poly import Monomial

Pairs = tuple[tuple[int, int], ...]


class SignedSubset(NamedTuple("SignedSubset", [("positive", frozenset[int]),
                                               ("negative", frozenset[int])])):
    """Disjoint positive/negative element sets; circuits have nonempty support."""

    __slots__ = ()

    def __new__(cls, positive: frozenset[int], negative: frozenset[int]) -> "SignedSubset":
        if positive & negative:
            raise MatroidError("positive and negative parts must be disjoint")
        return super().__new__(cls, positive, negative)

    @classmethod
    def make(cls, positive: Iterable[int] = (), negative: Iterable[int] = ()) -> "SignedSubset":
        return cls(frozenset(positive), frozenset(negative))

    @property
    def support(self) -> frozenset[int]:
        return self.positive | self.negative

    def __str__(self) -> str:
        parts = [f"+{e}" for e in sorted(self.positive)]
        parts += [f"-{e}" for e in sorted(self.negative)]
        return "{" + ",".join(parts) + "}"


def _labels(ground: Sequence[int], mask: int) -> list[int]:
    """The labels of the ground indices in ``mask``, in order: where a mask becomes labels."""
    return [e for i, e in enumerate(ground) if mask >> i & 1]


def _in_family_order(pairs: Iterable[tuple[int, int]]) -> Pairs:
    """Both signs of each (positive, support) pair, supports as given, the positive part
    with the lower lowest bit (lexicographically smaller; an empty one has none) first."""
    out = []
    for pos, sup in pairs:
        neg = sup ^ pos
        out += ((pos, sup), (neg, sup)) if pos & -pos < neg & -neg else ((neg, sup), (pos, sup))
    return tuple(out)


def _circuit_supports(table: bytes) -> list[int]:
    """Masks of rank |S|-1 whose maximal proper subsets are all independent."""
    n = len(table).bit_length() - 1
    sizes, ranks = (int.from_bytes(t, "little") for t in (popcounts(n), table))
    nullity = (sizes - ranks).to_bytes(len(table), "little")  # |S| >= r(S): no byte borrows
    out = []
    for s, k in enumerate(nullity):
        if k != 1:
            continue
        rest = s
        while rest and not nullity[s ^ (rest & -rest)]:
            rest &= rest - 1
        if not rest:
            out.append(s)
    return out


def signed_circuits(m: OrientedRealization) -> Pairs:
    """(positive, support) bitmasks of all signed circuits, closed under negation.

    Supports come off the rank table.  In the echelon form each pivot row reads
    p x_c + sum over free f of a_f x_f = 0, so a support's free coordinates span
    the kernel of the rows whose pivots lie outside it, and each of its pivot
    coordinates has the sign of -p * sum a_f x_f.
    """
    n = len(m.ground)
    rows, pivots = _echelon(list(zip(*m.integer_columns)), n)
    echelon = [(c, rows[r]) for r, c in pivots]
    bound = sum(1 << c for c, _ in echelon)
    family: list[tuple[int, int]] = []
    for support in sorted(_circuit_supports(m.rank_table()), key=lambda s: _labels(range(n), s)):
        free = [i for i in range(n) if (support & ~bound) >> i & 1]
        (x,) = _integer_kernel([[row[f] for f in free] for c, row in echelon
                                if not support >> c & 1], len(free))
        signs = dict(zip(free, x))
        for c, row in echelon:
            if support >> c & 1:
                signs[c] = -row[c] * sum(row[f] * v for f, v in zip(free, x))
        if not all(signs.values()):
            raise MatroidError("internal error: zero coefficient on a circuit support")
        family.append((sum(1 << i for i, v in signs.items() if v > 0), support))
    return _in_family_order(family)


def signed_cocircuits(m: OrientedRealization) -> Pairs:
    """Signed circuits of the dual realization."""
    return signed_circuits(m.dual())


def _minor_family(pairs: Pairs, i: int, spans: Callable[[int], bool] | None = None) -> Pairs:
    """Delete ground index i: keep the members avoiding it.  Contract it when ``spans`` is
    given: keep each member through i, minus i, and drop each S avoiding i with spans(S), i in
    its span; a loop, spanned by nothing, contracts as a deletion.  Bit i is squeezed out,
    which can reorder the supports, so they are sorted again."""
    low = 1 << i
    contract = spans is not None and not spans(0)
    kept = [p for p in pairs[::2] if (contract if p[1] & low else not (contract and spans(p[1])))]
    return _sorted_family([tuple(s & low - 1 | s >> 1 & -low for s in pair) for pair in kept])


def _sorted_family(pairs: list[tuple[int, int]]) -> Pairs:
    """``pairs``, one sign of each member, in family order: by support labels, both signs each."""
    return _in_family_order(sorted(pairs, key=lambda p: _labels(range(p[1].bit_length()), p[1])))


class OrientedMatroid(_Ground):
    """An ordered ground set with its rank table and signed circuit and cocircuit families,
    each built on first read.

    ``OrientedMatroid(realization)`` is a root: it reads all three off the matrix into the
    realization's cache, which every root of that realization shares.  ``reorient``,
    ``dual``, the minors and ``contract_as_loop`` read theirs off this one's, each with a
    cache of its own, and hold ``realization = None``; a cache keeps the minors built.
    """

    __slots__ = ("realization",)

    def __init__(self, realization: OrientedRealization):
        self._set_ground(realization.ground, realization._cache, table=realization.rank_table,
                         circuits=lambda: signed_circuits(realization),
                         cocircuits=lambda: signed_cocircuits(realization))
        self.realization = realization

    @staticmethod
    def _derived(ground: Sequence[int], table: Callable[[], bytes], circuits: Callable[[], Pairs],
                 cocircuits: Callable[[], Pairs]) -> "OrientedMatroid":
        """An oriented matroid without a realization, whose table and families the thunks build."""
        out = OrientedMatroid.__new__(OrientedMatroid)
        out._set_ground(ground, table=table, circuits=circuits, cocircuits=cocircuits)
        out.realization = None
        return out

    def rank_table(self) -> bytes:
        """r(S) for every mask S (bit i is ground[i]); a root's is its realization's."""
        return self.memo("table")

    def is_loop(self, e: int) -> bool:
        return self.rank_table()[1 << self.index_of(e)] == 0

    def is_isthmus(self, e: int) -> bool:
        table = self.rank_table()  # table[~s] is r(E minus s)
        return table[~(1 << self.index_of(e))] < table[-1]

    @property
    def circuit_pairs(self) -> Pairs:
        """(positive, support) bitmasks of the signed circuits; bit i is ground[i]."""
        return self.memo("circuits")

    @property
    def cocircuit_pairs(self) -> Pairs:
        """(positive, support) bitmasks of the signed cocircuits; bit i is ground[i]."""
        return self.memo("cocircuits")

    def signed(self, pair: tuple[int, int]) -> SignedSubset:
        """The SignedSubset of one (positive, support) pair."""
        pos, sup = pair
        return SignedSubset(frozenset(_labels(self.ground, pos)),
                            frozenset(_labels(self.ground, sup ^ pos)))

    # SignedSubset views of the two families, built on each read
    circuits = property(lambda self: tuple(map(self.signed, self.circuit_pairs)))
    cocircuits = property(lambda self: tuple(map(self.signed, self.cocircuit_pairs)))

    def reorient(self, labels: Iterable[int]) -> "OrientedMatroid":
        flip = self.mask_of(labels)
        if not flip:
            return self

        def flipped(pairs: Pairs) -> Pairs:
            return _in_family_order((pos ^ (sup & flip), sup) for pos, sup in pairs[::2])

        return self._derived(self.ground, self.rank_table, lambda: flipped(self.circuit_pairs),
                             lambda: flipped(self.cocircuit_pairs))

    def dual(self) -> "OrientedMatroid":
        return self._derived(self.ground, lambda: _dual_table(self.rank_table()),
                             lambda: self.cocircuit_pairs, lambda: self.circuit_pairs)

    def minor_delete(self, e: int) -> "OrientedMatroid":
        return self.memo(("delete", e), lambda: self._minor(e))

    def minor_contract(self, e: int) -> "OrientedMatroid":
        """Deletion in the dual: M/e = (M* minus e)*."""
        return self.memo(("contract", e), lambda: self.dual().minor_delete(e).dual())

    def _minor(self, e: int) -> "OrientedMatroid":
        """M minus e: its circuits avoid e, and its cocircuits contract e in M*."""
        i = self.index_of(e)

        def spans(s: int) -> bool:  # e in the span of s in M*: r(E-s-e) < r(E-s)
            t = self.rank_table()  # t[~s] is t[E minus s]
            return t[~(s | 1 << i)] < t[~s]

        return self._derived(self.ground[:i] + self.ground[i + 1:],
                             lambda: _minor_table(self.rank_table(), i),
                             lambda: _minor_family(self.circuit_pairs, i),
                             lambda: _minor_family(self.cocircuit_pairs, i, spans))

    def contract_as_loop(self, e: int) -> "OrientedMatroid":
        """M/e on this ground set, e's slot a loop: M/e's families with slot e kept empty,
        plus the loop's two signs among the circuits."""
        i = self.index_of(e)
        low = 1 << i
        con = self.minor_contract(e)

        def spread(pairs: Pairs, loop: list[tuple[int, int]]) -> Pairs:
            kept = [tuple(s & low - 1 | (s & -low) << 1 for s in pair) for pair in pairs[::2]]
            return _sorted_family(kept + loop)

        return self._derived(self.ground, lambda: _loop_table(self.rank_table(), i),
                             lambda: spread(con.circuit_pairs, [(low, low)]),
                             lambda: spread(con.cocircuit_pairs, []))

    def __repr__(self) -> str:
        # like the realization's repr, this builds neither a rank table nor a family
        return f"OrientedMatroid(|E|={len(self.ground)})"


def _positive_minima(pairs: Pairs) -> int:
    """Mask of the smallest elements (lowest bits) of the positive members of a family."""
    return functools.reduce(operator.or_, (sup & -sup for pos, sup in pairs if pos == sup), 0)


def _positive_cover(pairs: Pairs) -> int:
    """Mask of the elements that lie in some positive member of a family."""
    return functools.reduce(operator.or_, (sup for pos, sup in pairs if pos == sup), 0)


def orientation_active_sets(om: OrientedMatroid) -> tuple[frozenset[int], frozenset[int]]:
    """(active, dual-active): smallest elements of positive circuits resp. cocircuits."""
    return (frozenset(_labels(om.ground, _positive_minima(om.circuit_pairs))),
            frozenset(_labels(om.ground, _positive_minima(om.cocircuit_pairs))))


def minty_check(om: OrientedMatroid) -> bool:
    """Each element sits in a positive circuit or a positive cocircuit, never both."""
    in_circuit = _positive_cover(om.circuit_pairs)
    in_cocircuit = _positive_cover(om.cocircuit_pairs)
    return in_circuit | in_cocircuit == (1 << len(om.ground)) - 1 and not in_circuit & in_cocircuit


class ActivityRecord(NamedTuple):
    """Activity data of one reorientation A, plus its monomial contribution.

    ``active`` and ``dual_active`` are the active sets of the reoriented
    matroid; each is split by membership outside/inside A into the four
    refinement sets.  The monomial is
    x^|dual_out| * u^|dual_in| * y^|active_out| * v^|active_in|.
    """

    A: frozenset[int]
    active: frozenset[int]
    dual_active: frozenset[int]
    active_out: frozenset[int]
    active_in: frozenset[int]
    dual_out: frozenset[int]
    dual_in: frozenset[int]
    monomial: Monomial
