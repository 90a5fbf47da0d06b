"""Generating functions over all reorientations, counting identities, derivatives.

One bit-sliced sweep over every subset A gives, per ground element, the set
of A in which it is active in -_A M and the set in which it is dual-active in
-_A M'.  Counters over those sets count the A per value of the four activity
counts, which gives ``total``, the 4-variable generating function.  Every
other quantity here is a substitution, evaluation or derivative of it.  Per-A
rows are transposed from the sets only when read, by the table writer in
``render``.  The reference side of the main identity is the closed rank
formula at x -> x+u, y -> y+v, never the sweep itself.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple

from .matroid import IdentityError, MatroidError, OrientedRealization
from .oriented import OrientedMatroid, _labels
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

    @cached_property
    def active(self) -> memoryview:
        from .render import _transposed

        return _transposed(self.active_sets)

    @cached_property
    def dual(self) -> memoryview:
        from .render import _transposed

        return _transposed(self.dual_sets)

    @property
    def rows(self) -> _Rows:
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

    def blocks(self, json: bool = False) -> Iterator[str]:
        """The table in TSV or JSON, in blocks of rows, one write each (``render.blocks``)."""
        from .render import blocks

        return blocks(self, json)

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
        from .render import ActivityRecord, _key

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
    def mismatch(self) -> tuple[Polynomial | int, Polynomial | int] | None:
        """The first (expected, actual) pair of checks (a)-(d) that differ, in field order."""
        pairs = zip((self.tutte,) * 3 + (self.two_zero,) * 2, self[1:6])
        return next((pair for pair in pairs if pair[0] != pair[1]), None)

    @property
    def passed(self) -> bool:
        return self.mismatch is None


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


def _sweeps(p: Perspective) -> tuple[ExpansionReport, bool, bool, ExpansionReport, ExpansionReport]:
    """p's sweep, whether its greatest element e is an isthmus of M' and whether a loop of M,
    and the sweeps of p minus e and p/e; when e is either, p minus e stands for p/e."""
    e = p.ground[-1]
    report, isthmus, loop = expansion_sum(p), p.mprime.is_isthmus(e), p.m.is_loop(e)
    deleted = expansion_sum(p.minor_delete(e))
    contracted = deleted if isthmus or loop else expansion_sum(p.minor_contract(e))
    return report, isthmus, loop, deleted, contracted


def _dichotomy_sets(p: Perspective) -> tuple[bool, int, int]:
    """Whether e's own sets are right, and the A in E minus e at which case i, resp. ii holds.

    e must be active at every A if a loop of M, dual-active at every A if an isthmus of M', else
    neither.  Below e, p's sets at A and A+e, the halves of its per-element sets, must be p minus
    e's and p/e's at A (case i) or p/e's and p minus e's (case ii).
    """
    report, isthmus, loop, deleted, contracted = _sweeps(p)
    top = len(p.ground) - 1
    low, full = (1 << (1 << top)) - 1, (1 << (2 << top)) - 1
    off_i = off_ii = 0  # the A at which a set below e breaks case i, resp. case ii
    for s, d, c in zip(*(r.active_sets[:top] + r.dual_sets[:top]
                         for r in (report, deleted, contracted))):
        at_a, at_a_plus_e = s & low, s >> (1 << top)
        off_i |= (at_a ^ d) | (at_a_plus_e ^ c)
        off_ii |= (at_a ^ c) | (at_a_plus_e ^ d)
    own = report.active_sets[top] == full * loop and report.dual_sets[top] == full * isthmus
    return own, low ^ off_i, low ^ off_ii


def dichotomy_case(p: Perspective) -> DichotomyCase:
    """Which indicator-transfer case holds at the greatest element e, at A = {}.

    Case i: deleting e preserves the base indicators and contracting e matches the e-flipped
    ones, for every smaller element; case ii swaps the two.  This raises unless one holds at
    every A in E minus e and e's own sets are right, as a valid perspective's are.
    """
    if not p.ground:
        raise MatroidError("the dichotomy needs at least one ground element")
    own, case_i, case_ii = _dichotomy_sets(p)
    ground, top = p.ground, len(p.ground) - 1
    failing = ((1 << (1 << top)) - 1) ^ (case_i | case_ii)
    if own and not failing:
        return (DichotomyCase.BOTH if case_i & case_ii & 1 else
                DichotomyCase.CASE_I if case_i & 1 else DichotomyCase.CASE_II)
    report, _, _, deleted, contracted = _sweeps(p)
    if not failing:  # e's own sets are wrong
        act, dual = (sets[top].bit_count() for sets in (report.active_sets, report.dual_sets))
        raise DichotomyError(
            f"neither dichotomy case holds at greatest element {ground[-1]}: its own sets are "
            f"wrong, active in {act} and dual-active in {dual} of {2 << top} reorientations")
    a = (failing & -failing).bit_length() - 1  # the first failing A: its eight sets below e
    base, flipped, deleted, contracted = (
        tuple(_labels(ground, sum((s >> bit & 1) << i for i, s in enumerate(sets[:top])))
              for sets in (q.active_sets, q.dual_sets))
        for q, bit in zip((report, report, deleted, contracted), (a, a | 1 << top, a, a)))
    where = f" in the reorientation on A={_labels(ground, a)}" if a else ""
    raise DichotomyError(
        f"neither dichotomy case holds at greatest element {ground[-1]}{where}: "
        f"active(M)={base[0]}, active(M\\e)={deleted[0]}, active(M/e)={contracted[0]}, "
        f"active(-eM)={flipped[0]}; dual(M')={base[1]}, dual(M'\\e)={deleted[1]}, "
        f"dual(M'/e)={contracted[1]}, dual(-eM')={flipped[1]}")


def deletion_contraction_check(p: Perspective) -> bool:
    """One step of the minor recursion for the 4-variable expansion.

    Greatest element an isthmus of M': multiply the deleted minor's sum by
    (x+u); a loop of M: by (y+v); otherwise the deleted and contracted
    minors' sums add up.  The empty perspective sums to 1.
    """
    if not p.ground:
        return expansion_sum(p).total == ONE
    report, isthmus, loop, deleted, contracted = _sweeps(p)
    if isthmus or loop:
        return report.total == (X + U if isthmus else Y + V) * deleted.total
    return report.total == deleted.total + contracted.total
