"""Oriented matroid perspectives (strong map pairs) and the 3-variable Tutte polynomial.

A pair (M, M') on the same ordered ground set is accepted only when it passes
the pairwise circuit/cocircuit scans: no circuit support of M meets a
cocircuit support of M' in exactly one element, and no signed circuit of M
shares a nonempty all-equal-sign intersection with a signed cocircuit of M'
(checked over the negation-closed families, hence sign-reversal invariant).
"""

from __future__ import annotations

from typing import NamedTuple

from . import _forwarder
from .matroid import MatroidError, OrientedRealization, _closed_sum
from .oriented import OrientedMatroid, SignedSubset, _labels
from .poly import Polynomial


class PerspectiveError(MatroidError):
    """The supplied pair is not a matroid perspective."""


class ValidationReport(NamedTuple):
    weak: bool
    oriented: bool
    weak_witness: tuple[SignedSubset, SignedSubset] | None = None
    oriented_witness: tuple[SignedSubset, SignedSubset] | None = None

    @property
    def passed(self) -> bool:
        return self.weak and self.oriented


def validate(m: OrientedMatroid, mprime: OrientedMatroid) -> ValidationReport:
    """Pairwise strong-map checks; witnesses are the first failing pairs in family order.

    A family lists the two signs of each support next to each other, so one
    scan pairs the first sign of each circuit of M with that of each cocircuit
    of M' on their shared support.  Signs all equal there fail the oriented
    check at that pair, all opposite at the pair with the cocircuit negated.
    """
    if m.ground != mprime.ground:
        raise PerspectiveError("the two matroids must share the same ordered ground set")
    circuits, cocircuits = m.circuit_pairs, mprime.cocircuit_pairs
    firsts = cocircuits[::2]
    weak_at = oriented_at = None
    for i in range(0, len(circuits), 2):
        c_pos, c_sup = circuits[i]
        for j, (d_pos, d_sup) in enumerate(firsts):
            shared = c_sup & d_sup
            if not shared:
                continue
            if weak_at is None and not shared & (shared - 1):
                weak_at = (i, 2 * j)
            if oriented_at is None:
                differ = (c_pos ^ d_pos) & shared
                if differ in (0, shared):
                    oriented_at = (i, 2 * j + (differ != 0))
        if weak_at is not None and oriented_at is not None:
            break

    def witness(at):
        return None if at is None else (m.signed(circuits[at[0]]), mprime.signed(cocircuits[at[1]]))

    return ValidationReport(weak_at is None, oriented_at is None,
                            witness(weak_at), witness(oriented_at))


class Perspective:
    """Validated pair M -> M' of oriented matroids on one ordered ground set.

    ``_expansion`` holds the pair's one activity sweep once ``expansion_sum`` has run it.
    """

    __slots__ = ("m", "mprime", "_expansion", "_minors")

    def __init__(self, m: OrientedMatroid, mprime: OrientedMatroid):
        report = validate(m, mprime)
        if not report.passed:
            witness = report.weak_witness or report.oriented_witness
            kind = "weak" if not report.weak else "oriented"
            raise PerspectiveError(
                f"pair fails the {kind} strong-map check; witness circuit "
                f"{witness[0]} against cocircuit {witness[1]}")
        if mprime.rank_table()[-1] > m.rank_table()[-1]:
            raise PerspectiveError("rank of M' exceeds rank of M")
        self.m = m
        self.mprime = mprime
        self._expansion = None
        self._minors = {}

    @property
    def ground(self) -> tuple[int, ...]:
        return self.m.ground

    def rank_drop(self) -> int:
        return self.m.rank_table()[-1] - self.mprime.rank_table()[-1]

    def minor_delete(self, e: int) -> "Perspective":
        return self._minor("minor_delete", e)

    def minor_contract(self, e: int) -> "Perspective":
        return self._minor("minor_contract", e)

    def _minor(self, name: str, e: int) -> "Perspective":
        """The minor ``name`` of both matroids at e, held on this pair: validated and swept once."""
        if (name, e) not in self._minors:
            minors = (getattr(om, name)(e) for om in (self.m, self.mprime))
            self._minors[name, e] = Perspective(*minors)
        return self._minors[name, e]

    def __repr__(self) -> str:
        return f"Perspective(|E|={len(self.ground)}, rank_drop={self.rank_drop()})"


def _oriented(m: OrientedRealization | OrientedMatroid) -> OrientedMatroid:
    return m if isinstance(m, OrientedMatroid) else OrientedMatroid(m)


def identity_perspective(m: OrientedRealization | OrientedMatroid) -> Perspective:
    """The perspective M -> M, built once per oriented matroid and once per realization."""
    om = _oriented(m)
    return om.memo("identity", lambda: Perspective(om, om))


def tutte3_closed(p: Perspective) -> Polynomial:
    """3-variable Tutte polynomial of the perspective via the closed subset sum."""
    try:
        return _closed_sum(p.m.rank_table(), p.mprime.rank_table())
    except ValueError as exc:  # a negative z exponent at the subset S = exc.args[1]
        raise PerspectiveError(f"negative z exponent at subset {_labels(p.ground, exc.args[1])}; "
                               "the pair violates the strong-map rank axiom") from None


def bounded_perspective(m: OrientedRealization | OrientedMatroid, e: int) -> Perspective:
    """Perspective onto the contraction by ``e`` extended by a loop at e's slot.

    Requires e to be neither a loop nor an isthmus, mirroring the
    bounded-region / bipolar-orientation construction.
    """
    om = _oriented(m)
    if om.is_loop(e):
        raise PerspectiveError(f"element {e} is a loop; a non-factor element is required")
    if om.is_isthmus(e):
        raise PerspectiveError(f"element {e} is an isthmus; a non-factor element is required")
    return Perspective(om, om.contract_as_loop(e))


# the perspective file reader lives in ``perspective_file``, which only ``--format perspective``
# compiles
__getattr__ = _forwarder(__name__, ("from_major", "parse_perspective"))
