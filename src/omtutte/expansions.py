"""Generating functions over all reorientations, counting identities, derivatives.

One bit-sliced sweep over every subset A gives, per ground element, the set
of A in which it is active in -_A M and the set in which it is dual-active in
-_A M'.  Counters over those sets count the A per value of the four activity
counts, which gives ``total``, the 4-variable generating function.  Every
other quantity here is a substitution, evaluation or derivative of it.  Per-A
rows are transposed from the sets only when read.  The reference side of the
main identity is the closed rank formula at x -> x+u, y -> y+v, never the
sweep itself.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from collections.abc import Sequence
from enum import Enum
from functools import cache, cached_property, partial
from typing import Callable, Iterator, NamedTuple

from .matroid import IdentityError, MatroidError, OrientedRealization
from .oriented import ActivityRecord, OrientedMatroid, _labels, _positive_minima
from .perspective import Perspective, identity_perspective, tutte3_closed
from .poly import Monomial, Polynomial, X, U, Y, V, ONE


# -- the sweep ------------------------------------------------------------------
# A set of reorientations is one int of 2^|E| bits, with bit A set for each A in it.

def _in_sets(n: int) -> list[int]:
    """For each ground index i, the set of A that contain it."""
    out = []
    for i in range(n):
        pattern = ((1 << (1 << i)) - 1) << (1 << i)
        for j in range(i + 1, n):
            pattern |= pattern << (1 << j)
        out.append(pattern)
    return out


def _active_sets(masks: Sequence[tuple[int, int]], in_a: Sequence[int],
                 out_a: Sequence[int], full: int) -> list[int]:
    """Per ground index e, the A for which -_A has a positive member with smallest element e.

    ``masks`` are a negation-closed family's (positive, support) pairs.  A
    member turns positive exactly when A meets its support in its negative part.
    ``out_a[i]`` is ``full ^ in_a[i]``: an AND with it is an order of magnitude
    cheaper than with ``~in_a[i]``, a negative int of the same width.
    """
    out = [0] * len(in_a)
    for pos, sup in masks:
        support = [i for i in range(len(in_a)) if sup >> i & 1]
        positive = full
        for i in support:
            positive &= out_a[i] if pos >> i & 1 else in_a[i]
        out[support[0]] |= positive
    return out


def _count(planes: list[int], bits: int) -> None:
    """Add one at ``bits`` to a bit-sliced counter, its planes least significant first."""
    for k, plane in enumerate(planes):
        if not bits:
            return
        planes[k], bits = plane ^ bits, plane & bits
    if bits:
        planes.append(bits)


def _split(subset: int, planes: Sequence[tuple[int, int, int]], key: tuple[int, ...],
           histogram: Counter) -> None:
    """Count the A in ``subset`` per key of counter values, splitting on the ``planes`` left.

    Each plane is (counter index, bit weight, the set of A with that bit set).
    """
    if not planes:
        histogram[key] = subset.bit_count()
        return
    (k, weight, plane), rest = planes[0], planes[1:]
    inside = subset & plane
    if inside:
        _split(inside, rest, key[:k] + (key[k] + weight,) + key[k + 1:], histogram)
    if inside != subset:
        _split(subset ^ inside, rest, key, histogram)


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


class ExpansionReport:
    """One reorientation sweep of a perspective, in binary counting order.

    ``active_sets[i]`` and ``dual_sets[i]`` are the sets of A in which ground[i] is
    active in -_A M, resp. dual-active in -_A M'.  ``active[A]`` and ``dual[A]``, the
    bitmasks (bit i is ground[i]) of those two sets of one A, are transposed from them on
    first read, so a report that is never rendered never builds them.  ``total`` is
    the expansion: each A adds x^dual_out u^dual_in y^active_out v^active_in.
    Everything else is derived when read.
    """

    def __init__(self, perspective: Perspective, active_sets: Sequence[int],
                 dual_sets: Sequence[int], total: Polynomial):
        self.perspective = perspective
        self.active_sets = active_sets
        self.dual_sets = dual_sets
        self.total = total

    active = cached_property(lambda self: _transposed(self.active_sets))
    dual = cached_property(lambda self: _transposed(self.dual_sets))

    @property
    def rows(self) -> Sequence[ActivityRecord]:
        return _Rows(self)

    @cached_property
    def tutte(self) -> Polynomial:
        """t(x, y, 1) by the closed rank formula, never by this sweep."""
        return tutte3_closed(self.perspective).substitute({"z": 1})

    @cached_property
    def reference(self) -> Polynomial:
        return self.tutte.substitute({"x": X + U, "y": Y + V})

    @property
    def passed(self) -> bool:
        return self.total == self.reference

    def _texts(self) -> Iterator[list[str]]:
        """The rendered columns of every row, read straight off the masks."""
        ground = self.perspective.ground
        labels = [(1 << i, str(e)) for i, e in enumerate(ground)]

        @cache
        def text(mask: int) -> str:
            return "".join(label for bit, label in labels if mask & bit)

        # A's 2^|E| masks are all distinct: join the texts of its low and high halves
        low = (1 << len(ground) // 2) - 1
        high = ((1 << len(ground)) - 1) ^ low
        monomial = cache(lambda key: str(Monomial(key)))
        for a, (act, dual) in enumerate(zip(self.active, self.dual)):
            yield [text(a & low) + text(a & high) or "-", text(dual) or "-", text(act) or "-",
                   text(dual & ~a) or "-", text(dual & a) or "-", text(act & ~a) or "-",
                   text(act & a) or "-", monomial(_key(a, act, dual))]

    def blocks(self, json: bool = False) -> Iterator[str]:
        """The table in blocks of _BLOCK_ROWS rows, one write each: TSV under a header line, or
        what ``print(json.dumps(..., indent=2, sort_keys=True))`` writes, which here needs no
        escape: every text is integer labels, ``-`` or a polynomial."""
        head, row, sep, tail = "\t".join(_COLUMNS) + "\n", "\t".join, "\n", "\n"
        if json:
            head = (f'{{\n  "pass": {str(self.passed).lower()},\n'
                    f'  "reference": "{self.reference}",\n  "rows": [\n')
            row, sep, tail = _JSON_ROW.format, ",\n", f'\n  ],\n  "sum": "{self.total}"\n}}\n'
        texts = self._texts()
        while block := list(itertools.islice(texts, _BLOCK_ROWS)):
            yield head + sep.join(map(row, block))
            head = sep
        yield tail

    def to_tsv(self) -> str:
        return "".join(self.blocks())

    def to_json_dict(self) -> dict:
        import json

        return json.loads("".join(self.blocks(json=True)))


class _Rows(Sequence):
    """The ActivityRecords of a report, built from its masks when indexed; monomials by _key."""

    def __init__(self, expansion: ExpansionReport):
        self._expansion = expansion

    def __len__(self) -> int:
        return 1 << len(self._expansion.perspective.ground)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self[a] for a in picked]
        a, act, dual = picked, self._expansion.active[picked], self._expansion.dual[picked]
        sets = (frozenset(_labels(self._expansion.perspective.ground, mask))
                for mask in (a, act, dual, act & ~a, act & a, dual & ~a, dual & a))
        return ActivityRecord(*sets, Monomial(_key(a, act, dual)))


def expansion_sum(p: Perspective) -> ExpansionReport:
    """The 4-variable activity generating function: the one 2^|E| sweep of ``p``.

    The first call sweeps and keeps the report on ``p``; every later call
    returns that report.  Its reference is the closed-formula t(x+u, y+v, 1);
    passed is exact polynomial equality.
    """
    if p._expansion is not None:
        return p._expansion
    n = len(p.ground)
    full = (1 << (1 << n)) - 1
    in_a = _in_sets(n)
    out_a = [full ^ inside for inside in in_a]
    active = _active_sets(p.m.circuit_pairs, in_a, out_a, full)
    dual = _active_sets(p.mprime.cocircuit_pairs, in_a, out_a, full)
    counters: list[list[int]] = [[], [], [], []]  # dual_out, dual_in, active_out, active_in
    for i, (inside, outside) in enumerate(zip(in_a, out_a)):
        for planes, bits in zip(counters, (dual[i] & outside, dual[i] & inside,
                                           active[i] & outside, active[i] & inside)):
            _count(planes, bits)
    histogram: Counter = Counter()
    _split(full, [(k, 1 << w, plane) for k, planes in enumerate(counters)
                  for w, plane in enumerate(planes)], (0, 0, 0, 0, 0), histogram)
    p._expansion = ExpansionReport(p, active, dual, Polynomial(histogram))
    return p._expansion


def doubling_expansion(p: Perspective) -> Polynomial:
    """The expansion at (x, x, y, y); equals the Tutte polynomial at (2x, 2y, 1).

    Each A contributes x^|dual-active set| * y^|active set|.
    """
    return expansion_sum(p).total.substitute({"u": X, "v": Y})


class SpecializationReport(NamedTuple):
    """Two-variable consequences read off the expansion."""

    tutte: Polynomial
    interpolation: Polynomial
    restricted: Polynomial
    restricted_swap: Polynomial
    doubling_out: int
    doubling_in: int
    two_zero: int

    @property
    def passed(self) -> bool:
        return (self.interpolation == self.restricted == self.restricted_swap == self.tutte
                and self.doubling_out == self.two_zero == self.doubling_in)


def specialization_suite(p: Perspective) -> SpecializationReport:
    """Check the 2-variable specializations of the 4-variable expansion.

    (a) the expansion at (x-1, 1, y-1, 1), (b) at (x, 0, y, 0) and (c) at
    (0, x, 0, y) all equal t(x,y,1); (d) it equals t(2,0,1) at (2, 0, 0, 0)
    and at (0, 2, 0, 0).
    """
    report = expansion_sum(p)
    total = report.total
    return SpecializationReport(
        report.tutte,
        total.substitute({"u": 1, "v": 1}).substitute({"x": X - 1, "y": Y - 1}),
        total.substitute({"u": 0, "v": 0}),
        total.substitute({"x": 0, "y": 0, "u": X, "v": Y}),
        total.evaluate({"x": 2, "u": 0, "y": 0, "v": 0}),
        total.evaluate({"x": 0, "u": 2, "y": 0, "v": 0}),
        report.tutte.evaluate({"x": 2, "y": 0}))


# -- counting identities -------------------------------------------------------

def count_acyclic(m: OrientedRealization | OrientedMatroid) -> int:
    """Number of A with no positive circuit in -_A M: the expansion at (1, 1, 0, 0)."""
    return expansion_sum(identity_perspective(m)).total.evaluate(
        {"x": 1, "u": 1, "y": 0, "v": 0})


def count_bounded(p: Perspective) -> int:
    """Number of A with -_A M acyclic and -_A M' totally cyclic: the expansion at 0.

    (Totally cyclic means no positive cocircuit.)
    """
    return expansion_sum(p).total.evaluate({"x": 0, "u": 0, "y": 0, "v": 0})


def signed_sum(p: Perspective) -> int:
    """Alternating activity sum over all A, signed on the two outside-A counts.

    All four sign variants are +-1 evaluations of the expansion; this raises
    if they disagree, since then the expansion itself is broken.
    """
    total = expansion_sum(p).total
    sums = [total.evaluate(dict(zip("xuyv", signs)))
            for signs in ((-1, 1, -1, 1), (1, -1, 1, -1), (-1, 1, 1, -1), (1, -1, -1, 1))]
    if len(set(sums)) != 1:
        raise IdentityError(f"sign-variant alternating sums disagree: {sums}")
    return sums[0]


def count_basic_orientations(m: OrientedRealization | OrientedMatroid) -> tuple[int, int]:
    """The expansion at (0, 1, 0, 1) and at (1, 0, 1, 0).

    They count the terms with no x and no y, resp. no u and no v.  Each
    equals the number of bases, i.e. the Tutte polynomial at (1, 1).
    """
    total = expansion_sum(identity_perspective(m)).total
    return (total.evaluate({"x": 0, "u": 1, "y": 0, "v": 1}),
            total.evaluate({"x": 1, "u": 0, "y": 1, "v": 0}))


# -- derivatives ----------------------------------------------------------------

def derivative_expansion(p: Perspective, dp: int, dq: int) -> Polynomial:
    """The (p, q) partial derivative in (u, v) of the expansion, at u = v = 0.

    Equals the formal (p, q) partial derivative of t(x, y, 1); 0 past |E|.
    """
    if dp < 0 or dq < 0:
        raise ValueError("derivative orders must be non-negative")
    return (expansion_sum(p).total.partial_derivative("u", dp).partial_derivative("v", dq)
            .substitute({"u": 0, "v": 0}))


def derivative_diag(p: Perspective, dp: int) -> Polynomial:
    """The p-th u-derivative of the expansion at (x, u, x, u), at u = 0: (d/dx)^p t(x, x, 1)."""
    if dp < 0:
        raise ValueError("derivative order must be non-negative")
    return (expansion_sum(p).total.substitute({"y": X, "v": U}).partial_derivative("u", dp)
            .substitute({"u": 0}))


# -- the dichotomy and the minor recursion --------------------------------------

class DichotomyCase(Enum):
    CASE_I = "i"
    CASE_II = "ii"
    BOTH = "both"


class DichotomyError(IdentityError):
    """Neither dichotomy case holds; the input is invalid or there is a bug."""


def dichotomy_case(p: Perspective) -> DichotomyCase:
    """Which indicator-transfer case holds at the greatest element.

    Case i: deleting the greatest element e preserves the base indicators
    and contracting e matches the e-flipped ones, for every smaller element;
    case ii swaps the roles of deletion and contraction.  A valid
    perspective always satisfies at least one case.
    """
    ground = p.ground
    if not ground:
        raise MatroidError("the dichotomy needs at least one ground element")
    e = ground[-1]
    others = (1 << len(ground) - 1) - 1  # M\e and M/e drop only e, the top bit

    def minima(derive: Callable[[OrientedMatroid], OrientedMatroid]) -> tuple[int, int]:
        """Masks below e: the active set of derive(M) and the dual-active set of derive(M')."""
        return (_positive_minima(derive(p.m).circuit_pairs) & others,
                _positive_minima(derive(p.mprime).cocircuit_pairs) & others)

    base, flipped = minima(lambda om: om), minima(lambda om: om.reorient((e,)))
    deleted = minima(lambda om: om.minor_delete(e))
    contracted = minima(lambda om: om.minor_contract(e))
    case_i = base == deleted and flipped == contracted
    case_ii = base == contracted and flipped == deleted
    if case_i and case_ii:
        return DichotomyCase.BOTH
    if case_i:
        return DichotomyCase.CASE_I
    if case_ii:
        return DichotomyCase.CASE_II
    labels = partial(_labels, ground)
    raise DichotomyError(
        f"neither dichotomy case holds at greatest element {e}: "
        f"active(M)={labels(base[0])}, active(M\\e)={labels(deleted[0])}, "
        f"active(M/e)={labels(contracted[0])}, active(-eM)={labels(flipped[0])}; "
        f"dual(M')={labels(base[1])}, dual(M'\\e)={labels(deleted[1])}, "
        f"dual(M'/e)={labels(contracted[1])}, dual(-eM')={labels(flipped[1])}")


def deletion_contraction_check(p: Perspective) -> bool:
    """One step of the minor recursion for the 4-variable expansion.

    Greatest element an isthmus of M': multiply the deleted minor's sum by
    (x+u); a loop of M: by (y+v); otherwise the deleted and contracted
    minors' sums add up.  The empty perspective sums to 1.
    """
    full = expansion_sum(p).total
    if not p.ground:
        return full == ONE
    e = p.ground[-1]
    deleted = expansion_sum(p.minor_delete(e)).total
    if p.mprime.is_isthmus(e):
        return full == (X + U) * deleted
    if p.m.is_loop(e):
        return full == (Y + V) * deleted
    contracted = expansion_sum(p.minor_contract(e)).total
    return full == deleted + contracted
