"""Oriented matroid perspectives (strong map pairs) and the 3-variable Tutte polynomial.

A pair (M, M') on the same ordered ground set is accepted only when it passes
the pairwise circuit/cocircuit scans: no circuit support of M meets a
cocircuit support of M' in exactly one element, and no signed circuit of M
shares a nonempty all-equal-sign intersection with a signed cocircuit of M'
(checked over the negation-closed families, hence sign-reversal invariant).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .matroid import (
    InputFormatError,
    MatroidError,
    OrientedRealization,
    _closed_sum,
    _content,
    _parse_payload,
)
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

    __slots__ = ("m", "mprime", "_expansion")

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

    @property
    def ground(self) -> tuple[int, ...]:
        return self.m.ground

    def rank_drop(self) -> int:
        return self.m.rank_table()[-1] - self.mprime.rank_table()[-1]

    def minor_delete(self, e: int) -> "Perspective":
        return Perspective(self.m.minor_delete(e), self.mprime.minor_delete(e))

    def minor_contract(self, e: int) -> "Perspective":
        return Perspective(self.m.minor_contract(e), self.mprime.minor_contract(e))

    def __repr__(self) -> str:
        return f"Perspective(|E|={len(self.ground)}, rank_drop={self.rank_drop()})"


def _oriented(m: OrientedRealization | OrientedMatroid) -> OrientedMatroid:
    return m if isinstance(m, OrientedMatroid) else OrientedMatroid(m)


def identity_perspective(m: OrientedRealization | OrientedMatroid) -> Perspective:
    """The perspective M -> M, built once per oriented matroid and once per realization."""
    om = _oriented(m)
    return om.memo("identity", lambda: Perspective(om, om))


def _major_roots(n: OrientedRealization, c: Iterable[int]) -> tuple[OrientedRealization, ...]:
    """M = n minus c and M' = n/c = (n* minus c)*, each a root over its own integer columns."""
    c = frozenset(c)
    if n.mask_of(c) == (1 << len(n.ground)) - 1:
        raise PerspectiveError("cannot contract the whole ground set; E would be empty")
    m, dual = n, n.dual()
    for e in sorted(c):
        m, dual = m.delete(e), dual.delete(e)
    return tuple(OrientedRealization(r.ground, list(zip(*r.integer_columns)))
                 for r in (m, dual.dual()))


def from_major(n: OrientedRealization, c: Iterable[int]) -> Perspective:
    """The factorization n minus c -> n/c as two unadmitted roots; past the guard, parse with
    ``force=True``, or admit ``n.rank_table(force=True)`` and derive with delete and dual."""
    return Perspective(*map(OrientedMatroid, _major_roots(n, c)))


def tutte3_closed(p: Perspective) -> Polynomial:
    """3-variable Tutte polynomial of the perspective via the closed subset sum."""
    table_m, table_mp = p.m.rank_table(), p.mprime.rank_table()
    try:
        return _closed_sum(table_m, table_mp)
    except ValueError:  # a negative z exponent: r(S) - r'(S) exceeds r(E) - r'(E)
        drop = table_m[-1] - table_mp[-1]
        first = next(s for s in range(len(table_m)) if table_m[s] - table_mp[s] > drop)
        raise PerspectiveError(f"negative z exponent at subset {_labels(p.ground, first)}; "
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


# -- perspective file format ----------------------------------------------------

def parse_perspective(text: str, force: bool = False) -> Perspective:
    """Parse the perspective file format, admitting its two roots' tables with ``force``.

    The roots are M and M', a pair's two matrices or a major's N minus C and N/C.  Either::

        major: <digraph|matrix>
        ...payload lines...
        contract: <labels>

    or::

        pair: <digraph|matrix> <digraph|matrix>
        ...payload one...
        ---
        ...payload two...
    """
    lines = text.splitlines()
    content = _content(lines)
    if not content:
        raise InputFormatError("empty perspective file")
    (header_at, header), body = content[0], content[1:]

    def payload(fmt: str, keep: range | set[int]) -> OrientedRealization:
        # the file's own text, every line outside the payload blank, so errors cite file lines
        return _parse_payload(fmt, "\n".join(s if i in keep else "" for i, s in enumerate(lines)))

    if header.startswith("major:"):
        contracts = [(i, line) for i, line in body if line.startswith("contract:")]
        if not contracts:
            raise InputFormatError("major-form perspective needs a 'contract:' line")
        if len(contracts) > 1:
            raise InputFormatError(f"line {contracts[1][0] + 1}: a second 'contract:' line")
        contract_at, contract_line = contracts[0]
        labels_text = contract_line.split(":", 1)[1].split()
        try:
            labels = frozenset(int(t) for t in labels_text)
        except ValueError:
            raise InputFormatError(f"bad contract labels {labels_text!r}")
        major = payload(header.split(":", 1)[1].strip(),
                        set(range(header_at + 1, len(lines))) - {contract_at})
        m_real, mp_real = _major_roots(major, labels)
    elif header.startswith("pair:"):
        fmts = header.split(":", 1)[1].split()
        if len(fmts) == 1:
            fmts = fmts * 2
        if len(fmts) != 2:
            raise InputFormatError("pair header needs one or two format words")
        separators = [i for i, line in body if line == "---"]
        if len(separators) != 1:
            raise InputFormatError("pair-form perspective needs exactly one '---' separator")
        m_real = payload(fmts[0], range(header_at + 1, separators[0]))
        mp_real = payload(fmts[1], range(separators[0] + 1, len(lines)))
        if m_real.ground != mp_real.ground:
            raise PerspectiveError("the two inputs must share the same ordered ground set")
    else:
        raise InputFormatError("perspective file must start with 'major:' or 'pair:'")
    m_real.rank_table(force)
    mp_real.rank_table(force)
    return Perspective(OrientedMatroid(m_real), OrientedMatroid(mp_real))
