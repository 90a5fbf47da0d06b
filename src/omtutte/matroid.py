"""Ordered ground sets, integer realizations, ranks, bases, and Tutte polynomials.

A matroid is always given by a realization: one integer column per ground
element, in ground order, whose labels strictly increase.  Rationals exist only
in the input parser, which clears each column by the lcm of its denominators, a
positive factor that changes no rank and no sign.  Digraphs are ingested via
their signed vertex-arc incidence matrices, so graphic instances get signed
circuits for free.  Each realization holds one exact rank table, r(S) for every
subset S as a bitmask (bit i = ground[i], so bit order is label order); every
rank question, and the tables of its minors and its dual, are read off it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .poly import Polynomial, X, Y

if TYPE_CHECKING:
    from fractions import Fraction

ENUMERATION_GUARD = 20


class MatroidError(ValueError):
    pass


class IdentityError(AssertionError):
    """An exact identity that must hold for valid input failed; signals a bug."""


class EnumerationGuardError(MatroidError):
    """Ground set too large for a full 2^|E| sweep without an explicit override."""


class InputFormatError(MatroidError):
    """Malformed digraph or matrix text."""


# -- exact integer elimination and the rank table --------------------------------

IntVector = Sequence[int]
Ratio = tuple[int, int]  # (numerator, positive denominator)


def _ratio(value) -> Ratio:
    """An int, or any value or text that ``Fraction`` accepts, as a Ratio.

    Ints and ASCII ``-?[0-9]+(/[0-9]+)?`` text skip ``Fraction``; every other
    value goes through it, so what is accepted, and each error, is its own.
    """
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        den = den if slash else "1"
        if all(s.isascii() and s.isdigit() for s in (num.removeprefix("-"), den)) and int(den):
            g = math.gcd(int(num), int(den))
            return int(num) // g, int(den) // g
    from fractions import Fraction
    value = Fraction(value)
    return value.numerator, value.denominator


def _transposed(rows: Sequence[Sequence], ncols: int) -> list[tuple]:
    """The columns of ``rows``, which has ``ncols`` columns even when it has no rows."""
    return list(zip(*rows)) if rows else [()] * ncols


def _cleared(rows: Sequence[Sequence[Ratio]], ncols: int) -> list[tuple[int, ...]]:
    """Integer columns of Ratio rows, each cleared by the lcm of its denominators."""
    columns = _transposed(rows, ncols)
    scales = [math.lcm(*(q for _, q in column)) for column in columns]
    return [tuple(p * (s // q) for p, q in column) for column, s in zip(columns, scales)]


def _pivot(v: IntVector) -> int:
    """Index of the first nonzero entry, -1 for the zero vector."""
    return next((i for i, x in enumerate(v) if x), -1)


def _eliminate(w: IntVector, v: IntVector, p: int) -> list[int]:
    """v[p] * w - w[p] * v (zero at p), divided by its content."""
    a, c = v[p], w[p]
    out = [a * x - c * y for x, y in zip(w, v)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _rank_table(columns: Sequence[IntVector]) -> bytearray:
    """r(S) for every mask S (bit i = column i), by one DFS over the independent sets.

    A node S carries the columns after max(S), each already reduced against the
    echelon basis of S and paired with its pivot, so adding column j costs one
    elimination per later column.  Children S + j are visited from the last j
    down, each filling its subtree S + j + T (T after j): a column in the span
    copies the filled r(S + T), and one reaching full rank fills r(E) in a slice.
    """
    n = len(columns)
    size = 1 << n
    full = len(_echelon(list(zip(*columns)), n)[1])
    table = bytearray(size)

    def visit(mask: int, start: int, rank: int, pending: list[tuple[IntVector, int]]) -> None:
        for offset in reversed(range(len(pending))):
            (v, p), j = pending[offset], start + offset
            child, step = mask | 1 << j, 1 << (j + 1)
            if p < 0:
                table[child::step] = table[mask::step]
            elif rank + 1 == full:
                table[child::step] = bytes((full,)) * len(range(child, size, step))
            else:
                table[child] = rank + 1
                reduced = []
                for w, q in pending[offset + 1:]:
                    if w[p]:
                        w = _eliminate(w, v, p)
                        q = _pivot(w)
                    reduced.append((w, q))
                visit(child, j + 1, rank + 1, reduced)

    if full:
        visit(0, 0, 0, [(v, _pivot(v)) for v in columns])
    return table


@functools.cache
def _shifted(k: int) -> bytes:
    """Translation table adding k (mod 256) to every byte."""
    return bytes((v + k) & 255 for v in range(256))


def popcounts(n: int) -> bytearray:
    """|S| for every mask S of an n-element ground set."""
    sizes = bytearray(1)
    for _ in range(n):
        sizes += sizes.translate(_shifted(1))
    return sizes


def _dual_table(table: bytes) -> bytes:
    """r*(S) = |S| - r(E) + r(E minus S); the mask of E minus S is the mirrored index.

    Read big-endian, the table is its own mirror, so |S| + r(E minus S) is one big-int add:
    no byte sum carries, since each is at most 2|E| < 256.
    """
    n = len(table).bit_length() - 1
    summed = int.from_bytes(popcounts(n), "little") + int.from_bytes(table, "big")
    return summed.to_bytes(len(table), "little").translate(_shifted(-table[-1]))


def _minor_table(table: bytes, i: int) -> bytearray:
    """The table with ground index i deleted: r(S) for the masks S avoiding it."""
    low = 1 << i
    return bytearray().join(table[k:k + low] for k in range(0, len(table), 2 * low))


def _loop_table(table: bytes, i: int) -> bytearray:
    """r(S + e) - r(e) on the same ground: e (ground index i) contracted, its slot a loop."""
    low = 1 << i
    out = bytearray().join(table[k + low:k + 2 * low] * 2 for k in range(0, len(table), 2 * low))
    return out.translate(_shifted(-table[low]))


def _echelon(rows: Sequence[IntVector], ncols: int) -> tuple[list[list[int]], list[tuple]]:
    """Fraction-free Gauss-Jordan form: the reduced rows and each pivot's (row, column).

    Pivots are taken left to right, and each pivot column is zero outside its
    pivot row, so pivot row r reads p_r x_c + sum over free f of a_rf x_f = 0.
    """
    rows = [list(r) for r in rows]
    unused = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        r = next((r for r in unused if rows[r][c]), None)
        if r is None:
            continue
        unused.remove(r)
        pivot = rows[r]
        for o, row in enumerate(rows):
            if o != r and row[c]:
                rows[o] = _eliminate(row, pivot, c)
        pivots.append((r, c))
    return rows, pivots


def _integer_kernel(rows: Sequence[IntVector], ncols: int) -> list[list[int]]:
    """Integer basis of the right kernel, one vector per non-pivot column.

    The vector of free column f sets x_f to the lcm of the echelon form's
    pivots and solves each pivot row for its x_c exactly.
    """
    rows, pivots = _echelon(rows, ncols)
    scale = math.lcm(*(rows[r][c] for r, c in pivots))
    pivot_columns = {c for _, c in pivots}
    basis = []
    for f in range(ncols):
        if f not in pivot_columns:
            vec = [0] * ncols
            vec[f] = scale
            for r, c in pivots:
                vec[c] = -rows[r][f] * scale // rows[r][c]
            basis.append(vec)
    return basis


# -- digraphs -----------------------------------------------------------------

class Digraph(NamedTuple):
    """Arc-labelled directed multigraph; loops permitted, labels distinct."""

    vertices: tuple
    arcs: tuple[tuple[int, str, str], ...]

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[int, object, object]]) -> "Digraph":
        arc_list = []
        seen = set()
        verts = set()
        for label, tail, head in arcs:
            label = int(label)
            if label <= 0:
                raise MatroidError(f"arc labels must be positive integers, got {label}")
            if label in seen:
                raise MatroidError(f"duplicate arc label {label}")
            seen.add(label)
            verts.add(tail)
            verts.add(head)
            arc_list.append((label, tail, head))
        arc_list.sort(key=lambda a: a[0])
        return cls(tuple(sorted(verts, key=str)), tuple(arc_list))

    @classmethod
    def parse(cls, text: str) -> "Digraph":
        """One arc per line: ``<label> <tail> <head>``; ``#`` starts a comment."""
        arcs = []
        lines = text.splitlines()
        for i, line in _content(lines):
            parts = line.split()
            if len(parts) != 3:
                raise InputFormatError(
                    f"line {i + 1}: expected '<label> <tail> <head>', got {lines[i]!r}")
            try:
                label = int(parts[0])
            except ValueError:
                raise InputFormatError(f"line {i + 1}: arc label {parts[0]!r} is not an integer")
            arcs.append((label, parts[1], parts[2]))
        return cls.from_arcs(arcs)


# -- realizations -------------------------------------------------------------

class _Ground:
    """An ordered ground set (bit i of a mask is ground[i]) and the cache of what is read off
    it: ``_builds`` holds the thunk that builds each key's value on its first read."""

    __slots__ = ("ground", "_index", "_cache", "_builds")

    def _set_ground(self, ground: Iterable[int], cache: dict | None = None, **builds) -> None:
        self.ground = tuple(ground)
        self._index = {e: i for i, e in enumerate(self.ground)}
        self._cache = {} if cache is None else cache
        self._builds = builds

    def memo(self, key, build: Callable[[], object] | None = None):
        """The value cached under ``key``, built on first read by its thunk, else by ``build``;
        the thunk is dropped only once it returns, so a read the guard refused can run again."""
        if key not in self._cache:
            self._cache[key] = self._builds.get(key, build)()
            self._builds.pop(key, None)
        return self._cache[key]

    def index_of(self, label: int) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MatroidError(f"unknown ground element {label}") from None

    def mask_of(self, labels: Iterable[int]) -> int:
        mask = 0
        for e in labels:
            mask |= 1 << self.index_of(e)
        return mask


class OrientedRealization(_Ground):
    """Integer columns that realize the matroid, in ground order."""

    __slots__ = ("integer_columns",)

    def __init__(self, ground: Sequence[int], matrix: Sequence[Sequence["Fraction | int | str"]]):
        ground = tuple(int(g) for g in ground)
        if any(a >= b for a, b in zip(ground, ground[1:])):
            raise MatroidError(f"ground labels must be strictly increasing, got {ground}")
        rows = [[_ratio(v) for v in row] for row in matrix]
        for row in rows:
            if len(row) != len(ground):
                raise MatroidError(
                    f"matrix row has {len(row)} entries for {len(ground)} ground elements")
        self._set_ground(ground)  # OrientedMatroid(self) shares this cache
        self.integer_columns = tuple(_cleared(rows, len(ground)))

    def _derived(self, ground, columns, derive) -> "OrientedRealization":
        """A realization of ``columns`` whose table ``derive`` reads off this one's, unforced."""
        out = OrientedRealization.__new__(OrientedRealization)
        out._set_ground(ground, table=lambda: derive(self.rank_table()))
        out.integer_columns = tuple(columns)
        return out

    # -- basic queries ----------------------------------------------------

    def rank_table(self, force: bool = False) -> bytearray:
        """r(S) for every mask S (bit i = ground[i]); built on first use, never mutated.

        2^|E| bytes.  Only a root, a realization built from a matrix, builds its table,
        from the columns, and checks the enumeration guard first; ``force=True`` admits
        one above it.  This is the one admission point: minors, duals and reorientations
        derive theirs from their parent's, read unforced, so ``force`` on them admits nothing.
        """
        if "table" not in self._cache and "table" not in self._builds:  # an unbuilt root
            n = len(self.ground)
            if n > ENUMERATION_GUARD and not force:
                raise EnumerationGuardError(
                    f"ground set has {n} elements; full enumeration is guarded at "
                    f"{ENUMERATION_GUARD} (admit it with rank_table(force=True) or --force)")
        return self.memo("table", lambda: _rank_table(self.integer_columns))

    def rank(self, subset: Iterable[int] | None = None) -> int:
        """Rank of the column submatrix indexed by ``subset`` (default: all of E)."""
        table = self.rank_table()
        return table[-1] if subset is None else table[self.mask_of(subset)]

    # -- minors, duality, reorientation -------------------------------------
    # Scaling a column by a positive number, or a row by any nonzero one,
    # changes no rank and no sign.

    def delete(self, e: int) -> "OrientedRealization":
        i = self.index_of(e)
        ground, columns = (t[:i] + t[i + 1:] for t in (self.ground, self.integer_columns))
        return self._derived(ground, columns, lambda t: _minor_table(t, i))

    def contract(self, e: int) -> "OrientedRealization":
        """Deletion in the dual: M/e = (M* minus e)*; a loop of M is an isthmus of M*."""
        return self.dual().delete(e).dual()

    def dual(self) -> "OrientedRealization":
        """Realization whose row space is the orthogonal complement of this one's."""
        n = len(self.ground)
        basis = _integer_kernel(list(zip(*self.integer_columns)), n)
        return self._derived(self.ground, _transposed(basis, n), _dual_table)

    def negate_columns(self, labels: Iterable[int]) -> "OrientedRealization":
        idx = {self.index_of(e) for e in labels}
        columns = [tuple(-x for x in col) if j in idx else col
                   for j, col in enumerate(self.integer_columns)]
        return self._derived(self.ground, columns, lambda t: t)

    def __repr__(self) -> str:
        # the rank of the matrix itself: a repr neither builds the 2^|E| table nor is guarded
        rank = len(_echelon(list(zip(*self.integer_columns)), len(self.ground))[1])
        return f"OrientedRealization(ground={self.ground}, rank={rank})"

    @classmethod
    def parse_matrix(cls, text: str) -> "OrientedRealization":
        """First line ``<rows> <cols>``, then row-major rational entries."""
        tokens = [t for _, line in _content(text.splitlines()) for t in line.split()]
        if len(tokens) < 2:
            raise InputFormatError("matrix text must start with '<rows> <cols>'")
        try:
            nrows, ncols = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputFormatError(f"bad matrix header {tokens[0]!r} {tokens[1]!r}")
        if nrows < 0 or ncols < 0:
            raise InputFormatError("matrix dimensions must be non-negative")
        entries = tokens[2:]
        if len(entries) != nrows * ncols:
            raise InputFormatError(
                f"expected {nrows * ncols} matrix entries, got {len(entries)}")
        rows = [entries[r * ncols:(r + 1) * ncols] for r in range(nrows)]
        try:  # the entries are the only part of a well-shaped matrix that can fail
            return cls(range(1, ncols + 1), rows)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational entry: {exc}")


def _content(lines: Sequence[str]) -> list[tuple[int, str]]:
    """(index, text before any ``#``, stripped) of each line that has such text."""
    return [(i, text) for i, raw in enumerate(lines) if (text := raw.split("#", 1)[0].strip())]


def _parse_payload(fmt: str, text: str) -> OrientedRealization:
    if fmt == "digraph":
        return from_digraph(Digraph.parse(text))
    if fmt == "matrix":
        return OrientedRealization.parse_matrix(text)
    raise InputFormatError(f"unknown input format {fmt!r}; expected digraph or matrix")


def from_digraph(g: Digraph) -> OrientedRealization:
    """Signed incidence realization: +1 at the head row, -1 at the tail row."""
    vrow = {v: i for i, v in enumerate(g.vertices)}
    labels = [a[0] for a in g.arcs]
    matrix = [[0] * len(labels) for _ in g.vertices]
    for j, (_, tail, head) in enumerate(g.arcs):
        matrix[vrow[head]][j] += 1
        matrix[vrow[tail]][j] -= 1
    return OrientedRealization(labels, matrix)


# -- subset sweeps ------------------------------------------------------------

def _closed_sum(table: bytes, table_prime: bytes) -> Polynomial:
    """Sum over S of (x-1)^(r'(E)-r'(S)) (y-1)^(|S|-r(S)) z^(r(E)-r'(E)-r(S)+r'(S)).

    r and r' are the rank tables of M and M'; it raises ValueError itself on a negative z exponent.
    """
    n = len(table).bit_length() - 1
    drop = table[-1] - table_prime[-1]
    counts = Counter(zip(popcounts(n), table, table_prime))
    if any(ra - rpa > drop for _, ra, rpa in counts):
        raise ValueError("r(S) - r'(S) exceeds r(E) - r'(E): a negative z exponent")
    return Polynomial({(table_prime[-1] - rpa, 0, size - ra, 0, drop - ra + rpa): count
                       for (size, ra, rpa), count in counts.items()}
                      ).substitute({"x": X - 1, "y": Y - 1})


def tutte_closed(m: OrientedRealization) -> Polynomial:
    """Tutte polynomial as the corank-nullity sum over all subsets of E."""
    table = m.rank_table()
    return _closed_sum(table, table)


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
