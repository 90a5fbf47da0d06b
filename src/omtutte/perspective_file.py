"""The perspective file format, and the perspective of a major with a contraction set.

Only ``omtutte ... --format perspective`` loads this module, to read its input
file; a library caller loads it on its first ``parse_perspective`` or
``from_major``, which ``perspective`` forwards here.
"""

from __future__ import annotations

from typing import Iterable

from .matroid import InputFormatError, OrientedRealization, _content, _parse_payload
from .oriented import OrientedMatroid
from .perspective import Perspective, PerspectiveError


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
