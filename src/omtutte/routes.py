"""The basis-activity and orientation-activity routes, which check the other two.

``tutte_bases`` sums the internal and external activities of the bases, read off
the rank table, to the polynomial ``tutte_closed`` gives; ``orientation_active_sets``
reads one orientation's active sets off its signed families by ``_positive_minima``, the
oracle's copy of the rule the sweep's ``expansions._active_sets`` applies to every A at once.
Only ``omtutte count bases`` loads this module; ``matroid`` and ``oriented`` forward to it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import Iterable, NamedTuple

from .matroid import MatroidError, OrientedRealization
from .oriented import OrientedMatroid, Pairs, _labels
from .poly import Polynomial


def bases(m: OrientedRealization) -> list[frozenset[int]]:
    """All maximal independent sets, in lexicographic order of their elements."""
    n = len(m.ground)
    table = m.rank_table()
    r = table[-1]
    return [frozenset(m.ground[i] for i in combo)
            for combo in itertools.combinations(range(n), r)
            if table[sum(1 << i for i in combo)] == r]


class BasisActivity(NamedTuple):
    internal: frozenset[int]
    external: frozenset[int]

    @property
    def iota(self) -> int:
        return len(self.internal)

    @property
    def epsilon(self) -> int:
        return len(self.external)


def basis_activities(m: OrientedRealization, b: Iterable[int]) -> BasisActivity:
    """Internally/externally active elements of a basis.

    An element e of B is internally active when it is smallest in its
    fundamental cocircuit; e outside B is externally active when it is
    smallest in its fundamental circuit.
    """
    b = frozenset(b)
    b_mask = m.mask_of(b)
    table = m.rank_table()
    r = table[-1]
    if len(b) != r or table[b_mask] != r:
        raise MatroidError(f"{sorted(b)} is not a basis")
    inside = [(e, 1 << m.index_of(e)) for e in b]
    outside = [(e, 1 << i) for i, e in enumerate(m.ground) if not b_mask >> i & 1]
    internal = {e for e, bit in inside
                if all(f > e for f, other in outside if table[b_mask ^ bit | other] == r)}
    external = {e for e, bit in outside
                if all(f > e for f, other in inside if table[b_mask ^ other | bit] == r)}
    return BasisActivity(frozenset(internal), frozenset(external))


def tutte_bases(m: OrientedRealization) -> Polynomial:
    """Tutte polynomial as the basis-activity state sum; equals tutte_closed."""
    activities = (basis_activities(m, b) for b in bases(m))
    return Polynomial(Counter((act.iota, 0, act.epsilon, 0, 0) for act in activities))


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
