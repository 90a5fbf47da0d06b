"""Signed circuits and cocircuits, reorientation, and orientation activities.

Circuits are enumerated once per realization: their supports are read off the
rank table (rank |S|-1, every maximal proper subset independent), and each
support's signs come from one small integer kernel of its columns.
Cocircuits are the circuits of the dual, whose table is derived from the
primal one.  Reorientation afterwards only flips stored signs and negates
realization columns, so the 2^|E| reorientation sweep never re-runs linear
algebra.  "Smallest" always refers to the ascending label order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .matroid import (
    MatroidError,
    OrientedRealization,
    _integer_kernel,
    popcounts,
)
from .poly import Monomial


@dataclass(frozen=True)
class SignedSubset:
    """Disjoint positive/negative element sets; circuits have nonempty support."""

    positive: frozenset[int]
    negative: frozenset[int]

    def __post_init__(self):
        if self.positive & self.negative:
            raise MatroidError("positive and negative parts must be disjoint")

    @classmethod
    def make(cls, positive: Iterable[int] = (), negative: Iterable[int] = ()) -> "SignedSubset":
        return cls(frozenset(positive), frozenset(negative))

    @property
    def support(self) -> frozenset[int]:
        return self.positive | self.negative

    @property
    def is_positive(self) -> bool:
        return not self.negative

    def negate(self) -> "SignedSubset":
        return SignedSubset(self.negative, self.positive)

    def reorient(self, labels: frozenset[int]) -> "SignedSubset":
        pos = (self.positive - labels) | (self.negative & labels)
        neg = (self.negative - labels) | (self.positive & labels)
        return SignedSubset(pos, neg)

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.support)), tuple(sorted(self.positive)))

    def __str__(self) -> str:
        parts = [f"+{e}" for e in sorted(self.positive)]
        parts += [f"-{e}" for e in sorted(self.negative)]
        return "{" + ",".join(parts) + "}"


def conformal(y: SignedSubset, x: SignedSubset) -> bool:
    """True when y's signs sit inside x's: Y+ within X+ and Y- within X-."""
    return y.positive <= x.positive and y.negative <= x.negative


def _sorted_family(family: Iterable[SignedSubset]) -> tuple[SignedSubset, ...]:
    return tuple(sorted(family, key=SignedSubset.sort_key))


def _circuit_supports(table: bytes) -> list[int]:
    """Masks of rank |S|-1 whose maximal proper subsets are all independent."""
    n = len(table).bit_length() - 1
    nullity = bytes(map(operator.sub, popcounts(n), table))
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


def signed_circuits(m: OrientedRealization, force: bool = False) -> tuple[SignedSubset, ...]:
    """All signed circuits of the realization, closed under negation.

    Supports come off the rank table; the sign pattern is the kernel vector
    of the support's columns.
    """
    ground, columns = m.ground, m.integer_columns
    family: list[SignedSubset] = []
    for support in _circuit_supports(m.rank_table(force)):
        idx = [i for i in range(len(ground)) if support >> i & 1]
        (kernel,) = _integer_kernel(list(zip(*(columns[i] for i in idx))), len(idx))
        circuit = SignedSubset(frozenset(ground[i] for i, x in zip(idx, kernel) if x > 0),
                               frozenset(ground[i] for i, x in zip(idx, kernel) if x < 0))
        if len(circuit.support) != len(idx):
            raise MatroidError("internal error: zero coefficient on a circuit support")
        family += [circuit, circuit.negate()]
    return _sorted_family(family)


def signed_cocircuits(m: OrientedRealization, force: bool = False) -> tuple[SignedSubset, ...]:
    """Signed circuits of the dual realization."""
    return signed_circuits(m.dual(), force=force)


class OrientedMatroid:
    """A realization together with its signed circuit and cocircuit families.

    Values are immutable; ``reorient`` returns a new instance with signs
    flipped and the realization's columns negated accordingly, keeping the
    two views consistent.  Values derived from it (its minors, its identity
    perspective) are built once and kept.
    """

    __slots__ = ("realization", "circuits", "cocircuits", "reorientation", "_memo")

    def __init__(self, realization: OrientedRealization,
                 circuits: tuple[SignedSubset, ...],
                 cocircuits: tuple[SignedSubset, ...],
                 reorientation: frozenset[int] = frozenset()):
        self.realization = realization
        self.circuits = circuits
        self.cocircuits = cocircuits
        self.reorientation = reorientation
        self._memo: dict = {}

    @classmethod
    def from_realization(cls, m: OrientedRealization, force: bool = False) -> "OrientedMatroid":
        return cls(m, signed_circuits(m, force=force), signed_cocircuits(m, force=force))

    @property
    def ground(self) -> tuple[int, ...]:
        return self.realization.ground

    def memo(self, key, build: Callable[[], object]):
        """The value kept under ``key``, built by ``build`` on first request."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def masks(self, family: str) -> tuple[tuple[int, int], ...]:
        """(positive, support) bitmasks of ``circuits`` or ``cocircuits``, in family order.

        Bit i is ground[i].  Built on first read and kept; the validation scan
        and the sweep both read them.
        """
        def build():
            bit = {e: 1 << i for i, e in enumerate(self.ground)}
            return tuple((sum(bit[e] for e in s.positive), sum(bit[e] for e in s.support))
                         for s in getattr(self, family))
        return self.memo(("masks", family), build)

    def reorient(self, labels: Iterable[int]) -> "OrientedMatroid":
        a = frozenset(labels)
        for e in a:
            self.realization.index_of(e)
        if not a:
            return self
        return OrientedMatroid(
            self.realization.negate_columns(a),
            _sorted_family(c.reorient(a) for c in self.circuits),
            _sorted_family(c.reorient(a) for c in self.cocircuits),
            self.reorientation ^ a,
        )

    def dual(self) -> "OrientedMatroid":
        return OrientedMatroid(self.realization.dual(), self.cocircuits,
                               self.circuits, self.reorientation)

    def minor_delete(self, e: int) -> "OrientedMatroid":
        return self.memo(("delete", e), lambda: OrientedMatroid.from_realization(
            self.realization.delete(e)))

    def minor_contract(self, e: int) -> "OrientedMatroid":
        return self.memo(("contract", e), lambda: OrientedMatroid.from_realization(
            self.realization.contract(e)))

    def __repr__(self) -> str:
        return (f"OrientedMatroid(|E|={len(self.ground)}, "
                f"circuits={len(self.circuits) // 2}, reoriented={sorted(self.reorientation)})")


def orientation_active_sets(om: OrientedMatroid) -> tuple[frozenset[int], frozenset[int]]:
    """(active, dual-active): smallest elements of positive circuits resp. cocircuits."""
    active = frozenset(min(c.support) for c in om.circuits if c.is_positive)
    dual_active = frozenset(min(c.support) for c in om.cocircuits if c.is_positive)
    return active, dual_active


def element_indicators(om: OrientedMatroid, a: int) -> tuple[int, int]:
    """Membership indicators of ``a`` in the active and dual-active sets."""
    om.realization.index_of(a)
    active, dual_active = orientation_active_sets(om)
    return (1 if a in active else 0, 1 if a in dual_active else 0)


def is_acyclic(om: OrientedMatroid) -> bool:
    """No positive circuit exists."""
    return not any(c.is_positive for c in om.circuits)


def is_totally_cyclic(om: OrientedMatroid) -> bool:
    """Every element of E lies in some positive circuit."""
    covered: set[int] = set()
    for c in om.circuits:
        if c.is_positive:
            covered |= c.support
    return covered == set(om.ground)


def minty_check(om: OrientedMatroid) -> bool:
    """Each element sits in a positive circuit or a positive cocircuit, never both."""
    in_circuit: set[int] = set()
    for c in om.circuits:
        if c.is_positive:
            in_circuit |= c.support
    in_cocircuit: set[int] = set()
    for c in om.cocircuits:
        if c.is_positive:
            in_cocircuit |= c.support
    universe = set(om.ground)
    return (in_circuit | in_cocircuit == universe) and not (in_circuit & in_cocircuit)


@dataclass(frozen=True)
class ActivityRecord:
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

    @classmethod
    def build(cls, A: frozenset[int], active: frozenset[int],
              dual_active: frozenset[int]) -> "ActivityRecord":
        active_out = active - A
        active_in = active & A
        dual_out = dual_active - A
        dual_in = dual_active & A
        mono = Monomial.from_exponents({
            "x": len(dual_out),
            "u": len(dual_in),
            "y": len(active_out),
            "v": len(active_in),
        })
        return cls(A, active, dual_active, active_out, active_in,
                   dual_out, dual_in, mono)


def activity_record(om_base: OrientedMatroid, A: Iterable[int]) -> ActivityRecord:
    """Activity record of the reorientation of ``om_base`` on ``A``."""
    a = frozenset(A)
    active, dual_active = orientation_active_sets(om_base.reorient(a))
    return ActivityRecord.build(a, active, dual_active)
