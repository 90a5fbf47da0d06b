"""The activity table: per-A masks read off a sweep's sets, and each row's text.

Only ``omtutte activities`` loads this module.  An ``ExpansionReport`` imports it
on its first read of ``active``, ``dual``, ``blocks``, ``to_tsv`` or
``to_json_dict``, and its ``rows`` on their first index, so a command that
sweeps without writing the table never compiles it.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Sequence
from functools import cache
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .poly import Monomial

if TYPE_CHECKING:
    from .expansions import ExpansionReport


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


_BYTE_ORDER = 7 if sys.byteorder == "big" else 0  # byte k of a native 8-byte word is at k ^ this


def _transposed(sets: Sequence[int]) -> memoryview:
    """Per A, the mask of the ground indices whose set holds A."""
    size = 1 << len(sets)
    lanes = bytearray(8 * size)  # one native 8-byte word per A, its byte g holding sets 8g..8g+7
    for g in range(0, len(sets), 8):
        value = 0
        for j, bits in enumerate(sets[g:g + 8]):
            digits = format(bits, f"0{size}b").encode()  # bit A is digit size-1-A
            lane = digits.translate(bytes.maketrans(b"01", bytes((0, 1 << j))))
            value |= int.from_bytes(lane, "big")
        lanes[g // 8 ^ _BYTE_ORDER::8] = value.to_bytes(size, "little")
    return memoryview(lanes).cast("Q")


def _key(a_mask: int, active: int, dual: int) -> tuple[int, int, int, int, int]:
    """The exponents (dual_out, dual_in, active_out, active_in, 0) of one reorientation A."""
    return ((dual & ~a_mask).bit_count(), (dual & a_mask).bit_count(),
            (active & ~a_mask).bit_count(), (active & a_mask).bit_count(), 0)


_COLUMNS = ("A", "dual_active", "active", "dual_out", "dual_in",
            "active_out", "active_in", "monomial")
_BLOCK_ROWS = 4096
# one JSON row object, keys sorted, each value read from its column of a _texts row
_JSON_ROW = "    {{\n%s\n    }}" % ",\n".join(
    f'      "{name}": "{{0[{_COLUMNS.index(name)}]}}"' for name in sorted(_COLUMNS))


def _texts(expansion: ExpansionReport) -> Iterator[list[str]]:
    """The rendered columns of every row, read straight off the masks."""
    ground = expansion.perspective.ground
    labels = [(1 << i, str(e)) for i, e in enumerate(ground)]

    @cache
    def text(mask: int) -> str:
        return "".join(label for bit, label in labels if mask & bit)

    # A's 2^|E| masks are all distinct: join the texts of its low and high halves
    low = (1 << len(ground) // 2) - 1
    high = ((1 << len(ground)) - 1) ^ low
    monomial = cache(lambda key: str(Monomial(key)))
    for a, (act, dual) in enumerate(zip(expansion.active, expansion.dual)):
        yield [text(a & low) + text(a & high) or "-", text(dual) or "-", text(act) or "-",
               text(dual & ~a) or "-", text(dual & a) or "-", text(act & ~a) or "-",
               text(act & a) or "-", monomial(_key(a, act, dual))]


def blocks(expansion: ExpansionReport, json: bool = False) -> Iterator[str]:
    """The table in blocks of _BLOCK_ROWS rows, one write each: TSV under a header line, or
    what ``print(json.dumps(..., indent=2, sort_keys=True))`` writes, which here needs no
    escape: every text is integer labels, ``-`` or a polynomial."""
    head, row, sep, tail = "\t".join(_COLUMNS) + "\n", "\t".join, "\n", "\n"
    if json:
        head = (f'{{\n  "pass": {str(expansion.passed).lower()},\n'
                f'  "reference": "{expansion.reference}",\n  "rows": [\n')
        row, sep, tail = _JSON_ROW.format, ",\n", f'\n  ],\n  "sum": "{expansion.total}"\n}}\n'
    texts = _texts(expansion)
    while block := list(itertools.islice(texts, _BLOCK_ROWS)):
        yield head + sep.join(map(row, block))
        head = sep
    yield tail
