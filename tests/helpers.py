"""Shared test utilities: independent oracles and seeded instance generators.

The oracles here deliberately avoid the library's elimination and circuit
machinery: rank comes from brute-force minors, circuit signs from cofactors,
cycle questions from graph search, so cross-checks against the library are
genuinely two-sided.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

from omtutte.expansions import DichotomyCase
from omtutte.matroid import Digraph, OrientedRealization
from omtutte.oriented import ActivityRecord, OrientedMatroid, SignedSubset, orientation_active_sets
from omtutte.perspective import ValidationReport
from omtutte.poly import (_NVARS, _VAR_INDEX, ONE, U, V, VARIABLES, X, Y, Z, Monomial, Polynomial,
                          PolynomialParseError)


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Laplace expansion; fine for the tiny matrices used in tests."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * determinant(minor)
    return total


def rows_of(m: OrientedRealization) -> list[tuple[int, ...]]:
    """The integer rows of a realization; none when its ground set is empty."""
    return list(zip(*m.integer_columns))


def matrix_text(m: OrientedRealization) -> str:
    """The ``matrix`` input text of a realization whose labels are 1..n: its integer rows."""
    rows = rows_of(m)
    return f"{len(rows)} {len(m.ground)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def columns_of(m: OrientedRealization, labels) -> list[tuple[int, ...]]:
    """The integer columns of ``labels``, in the order given."""
    return [m.integer_columns[m.index_of(e)] for e in labels]


def oracle_rank(cols: list[tuple[Fraction, ...]]) -> int:
    """Largest k admitting a nonsingular k-by-k minor."""
    if not cols or not cols[0]:
        return 0
    nrows = len(cols[0])
    for k in range(min(len(cols), nrows), 0, -1):
        for col_pick in itertools.combinations(range(len(cols)), k):
            for row_pick in itertools.combinations(range(nrows), k):
                minor = [[cols[c][r] for c in col_pick] for r in row_pick]
                if determinant(minor) != 0:
                    return k
    return 0


def oracle_signed_circuits(m: OrientedRealization) -> set[tuple[frozenset, frozenset]]:
    """(positive, negative) pairs of every signed circuit, both signs of each.

    Subset scan in size order: a support is a circuit when its minor rank is
    below its size and it contains no smaller circuit.  Signs are the
    cofactor vector of k-1 rows of full rank, x_i = (-1)^i det(rows minus
    column i), which spans the kernel of the k support columns.
    """
    nrows = len(rows_of(m))
    found: list[frozenset] = []
    family = set()
    for size in range(1, len(m.ground) + 1):
        for combo in itertools.combinations(m.ground, size):
            if any(s <= set(combo) for s in found):
                continue
            cols = columns_of(m, combo)
            if oracle_rank(cols) == size:
                continue
            found.append(frozenset(combo))
            for rows in itertools.combinations(range(nrows), size - 1):
                coeffs = [(-1) ** i * determinant([[cols[c][r] for c in range(size) if c != i]
                                                   for r in rows])
                          for i in range(size)]
                if any(coeffs):
                    break
            positive = frozenset(e for e, c in zip(combo, coeffs) if c > 0)
            negative = frozenset(e for e, c in zip(combo, coeffs) if c < 0)
            assert positive | negative == set(combo), "zero coefficient on a circuit"
            family |= {(positive, negative), (negative, positive)}
    return family


def family_set(ground, pairs) -> set[tuple[frozenset, frozenset]]:
    """(positive, negative) label sets of a family's (positive, support) bitmask pairs."""
    def labels(mask):
        return frozenset(e for i, e in enumerate(ground) if mask >> i & 1)

    return {(labels(pos), labels(sup ^ pos)) for pos, sup in pairs}


def oracle_contract(m: OrientedRealization, e: int) -> OrientedRealization:
    """m/e as a root of its own, by the row-reduction quotient; a loop contracts as a delete.

    With p the first row where column e is nonzero, every other row becomes
    col[p] * row - col[row] * row_p, divided by its content: a row-scaled quotient
    by column e, with the same signs.  Row p and column e are then dropped.
    """
    i = m.ground.index(e)
    rows, col = rows_of(m), m.integer_columns[i]
    p = next((r for r, x in enumerate(col) if x), None)
    if p is not None:
        rows = [[col[p] * x - col[o] * y for x, y in zip(row, rows[p])]
                for o, row in enumerate(rows) if o != p]
        rows = [[x // g for x in row] if (g := math.gcd(*row)) > 1 else row for row in rows]
    return OrientedRealization(m.ground[:i] + m.ground[i + 1:],
                               [row[:i] + row[i + 1:] for row in rows])


def minors_of(n: OrientedRealization, c) -> tuple[OrientedRealization, OrientedRealization]:
    """(n with c deleted, n with c contracted by ``oracle_contract``), one label at a time in
    increasing order."""
    deleted = contracted = n
    for e in sorted(c):
        deleted, contracted = deleted.delete(e), oracle_contract(contracted, e)
    return deleted, contracted


def loop_at_contraction(m: OrientedRealization, e: int) -> OrientedRealization:
    """The matrix of bounded M': m/e's matrix, by ``oracle_contract``, with a zero column put
    back at e's slot."""
    i = m.ground.index(e)
    rows = rows_of(oracle_contract(m, e))
    return OrientedRealization(m.ground, [row[:i] + (0,) + row[i:] for row in rows])


def oracle_dichotomy_case(real_m: OrientedRealization,
                          real_mp: OrientedRealization) -> DichotomyCase | None:
    """The dichotomy case at the greatest element e of M -> M', on matrices and label sets.

    Active sets are the smallest elements of the positive circuits of M, M\\e, M/e
    and -_e M, each read by ``oracle_signed_circuits`` off the matrix minor
    (``delete``, ``oracle_contract``, ``negate_columns``); dual-active sets are the same of
    M' through ``.dual()``.  None when neither case holds.
    """
    e = real_m.ground[-1]

    def minima(real: OrientedRealization) -> frozenset:
        return frozenset(min(pos) for pos, neg in oracle_signed_circuits(real) if not neg) - {e}

    def sets(real: OrientedRealization, dual: bool) -> list[frozenset]:
        derived = (real, real.delete(e), oracle_contract(real, e), real.negate_columns({e}))
        return [minima(x.dual() if dual else x) for x in derived]

    act, act_del, act_con, act_flip = sets(real_m, False)
    dual, dual_del, dual_con, dual_flip = sets(real_mp, True)
    case_i = act == act_del and dual == dual_del and act_flip == act_con and dual_flip == dual_con
    case_ii = act == act_con and dual == dual_con and act_flip == act_del and dual_flip == dual_del
    return {(True, True): DichotomyCase.BOTH, (True, False): DichotomyCase.CASE_I,
            (False, True): DichotomyCase.CASE_II}.get((case_i, case_ii))


# -- per-reorientation references: one A at a time, through SignedSubset views ----------

def conformal(y: SignedSubset, x: SignedSubset) -> bool:
    """True when y's signs sit inside x's: Y+ within X+ and Y- within X-."""
    return y.positive <= x.positive and y.negative <= x.negative


def is_acyclic(om: OrientedMatroid) -> bool:
    """No positive circuit exists."""
    return all(c.negative for c in om.circuits)


def is_totally_cyclic(om: OrientedMatroid) -> bool:
    """Every element of E lies in some positive circuit."""
    return frozenset().union(*(c.positive for c in om.circuits if not c.negative)) == \
        frozenset(om.ground)


def element_indicators(om: OrientedMatroid, a: int) -> tuple[int, int]:
    """Membership indicators of ``a`` in the active and dual-active sets."""
    om.index_of(a)
    active, dual_active = orientation_active_sets(om)
    return (1 if a in active else 0, 1 if a in dual_active else 0)


def record_of(A, active, dual_active) -> ActivityRecord:
    """The record of A from its active and dual-active label sets, by frozenset arithmetic."""
    a, active, dual_active = frozenset(A), frozenset(active), frozenset(dual_active)
    active_out, active_in = active - a, active & a
    dual_out, dual_in = dual_active - a, dual_active & a
    mono = Monomial.from_exponents({"x": len(dual_out), "u": len(dual_in),
                                    "y": len(active_out), "v": len(active_in)})
    return ActivityRecord(a, active, dual_active, active_out, active_in, dual_out, dual_in, mono)


def activity_record(om_base: OrientedMatroid, A) -> ActivityRecord:
    """Activity record of the reorientation of ``om_base`` on ``A``."""
    return record_of(A, *orientation_active_sets(om_base.reorient(frozenset(A))))


def monomial_of(p, A) -> ActivityRecord:
    """Activity record of one reorientation of a perspective: dual data in M', primal in M."""
    a = frozenset(A)

    def minima(family):  # the smallest element of each positive member
        return frozenset(min(s.positive) for s in family if not s.negative)

    return record_of(a, minima(p.m.reorient(a).circuits), minima(p.mprime.reorient(a).cocircuits))


def oracle_validate(m, mprime) -> ValidationReport:
    """The strong-map checks as two pairwise scans over frozenset supports.

    Weak: no circuit of M meets a cocircuit of M' in exactly one element.
    Oriented: no circuit and cocircuit have the same signs on a nonempty
    shared support.  Each witness is the first failing pair in family order.
    """
    weak = True
    weak_witness = None
    for circ in m.circuits:
        for cocirc in mprime.cocircuits:
            if len(circ.support & cocirc.support) == 1:
                weak = False
                weak_witness = (circ, cocirc)
                break
        if not weak:
            break
    oriented = True
    oriented_witness = None
    for circ in m.circuits:
        for cocirc in mprime.cocircuits:
            shared = circ.support & cocirc.support
            if not shared:
                continue
            if (circ.positive & shared) == (cocirc.positive & shared):
                oriented = False
                oriented_witness = (circ, cocirc)
                break
        if not oriented:
            break
    return ValidationReport(weak, oriented, weak_witness, oriented_witness)


def arcs_with_flips(g: Digraph, flipped: frozenset[int]) -> list[tuple[int, object, object]]:
    out = []
    for label, tail, head in g.arcs:
        if label in flipped:
            out.append((label, head, tail))
        else:
            out.append((label, tail, head))
    return out


def has_directed_cycle(g: Digraph, flipped: frozenset[int] = frozenset()) -> bool:
    """DFS cycle detection on the reoriented digraph; loops count as cycles."""
    arcs = arcs_with_flips(g, flipped)
    succ: dict = {v: [] for v in g.vertices}
    for _, tail, head in arcs:
        if tail == head:
            return True
        succ[tail].append(head)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.vertices}

    def visit(v) -> bool:
        color[v] = GREY
        for w in succ[v]:
            if color[w] == GREY:
                return True
            if color[w] == WHITE and visit(w):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in g.vertices)


def every_arc_on_directed_cycle(g: Digraph, flipped: frozenset[int] = frozenset()) -> bool:
    """Graph statement of total cyclicity: head reaches tail for each arc."""
    arcs = arcs_with_flips(g, flipped)
    succ: dict = {v: set() for v in g.vertices}
    for _, tail, head in arcs:
        succ[tail].add(head)

    def reaches(src, dst) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    return all(tail == head or reaches(head, tail) for _, tail, head in arcs)


def weakly_connected(g: Digraph) -> bool:
    if not g.vertices:
        return True
    adj: dict = {v: set() for v in g.vertices}
    for _, tail, head in g.arcs:
        adj[tail].add(head)
        adj[head].add(tail)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(g.vertices)


def random_digraph(rng: random.Random, max_vertices: int = 4, max_arcs: int = 5) -> Digraph:
    """A weakly connected digraph within the size bounds; loops permitted."""
    while True:
        nv = rng.randint(1, max_vertices)
        ne = rng.randint(1, max_arcs)
        vertices = [f"w{i}" for i in range(nv)]
        arcs = [(i + 1, rng.choice(vertices), rng.choice(vertices)) for i in range(ne)]
        g = Digraph.from_arcs(arcs)
        if weakly_connected(g):
            return g


def random_realization(rng: random.Random, max_rows: int = 4, max_cols: int = 8) -> OrientedRealization:
    nrows = rng.randint(1, max_rows)
    ncols = rng.randint(1, max_cols)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)]
    return OrientedRealization(range(1, ncols + 1), rows)


# The 16-row activity table of the doubled triangle, keyed by reorientation
# subset: (dual_active, active, dual_out, dual_in, active_out, active_in, monomial).
DOUBLED_TRIANGLE_ROWS = {
    (): ("13", "", "13", "", "", "", "x^2"),
    (4,): ("1", "", "1", "", "", "", "x"),
    (3,): ("", "12", "", "", "12", "", "y^2"),
    (3, 4): ("13", "", "1", "3", "", "", "x*u"),
    (2,): ("3", "1", "3", "", "1", "", "x*y"),
    (2, 3): ("", "1", "", "", "1", "", "y"),
    (2, 4): ("", "12", "", "", "1", "2", "y*v"),
    (2, 3, 4): ("3", "1", "", "3", "1", "", "u*y"),
    (1,): ("3", "1", "3", "", "", "1", "x*v"),
    (1, 4): ("", "1", "", "", "", "1", "v"),
    (1, 3): ("", "12", "", "", "2", "1", "y*v"),
    (1, 3, 4): ("3", "1", "", "3", "", "1", "u*v"),
    (1, 2): ("13", "", "3", "1", "", "", "x*u"),
    (1, 2, 4): ("", "12", "", "", "", "12", "v^2"),
    (1, 2, 3): ("1", "", "", "1", "", "", "u"),
    (1, 2, 3, 4): ("13", "", "", "13", "", "", "u^2"),
}

# The 32-row table of the two-graph perspective: A -> (dual_active, active, monomial).
TWO_GRAPH_ROWS = {
    (): ("12", "", "x^2"),
    (5,): ("1", "", "x"),
    (4,): ("", "", "1"),
    (4, 5): ("", "", "1"),
    (3,): ("1", "", "x"),
    (3, 5): ("1", "", "x"),
    (3, 4): ("", "", "1"),
    (3, 4, 5): ("1", "", "x"),
    (2,): ("", "1", "y"),
    (2, 5): ("", "1", "y"),
    (2, 4): ("", "1", "y"),
    (2, 4, 5): ("", "1", "y"),
    (2, 3): ("", "", "1"),
    (2, 3, 5): ("1", "", "x"),
    (2, 3, 4): ("", "", "1"),
    (2, 3, 4, 5): ("12", "", "x*u"),
    (1,): ("12", "", "x*u"),
    (1, 5): ("", "", "1"),
    (1, 4): ("1", "", "u"),
    (1, 4, 5): ("", "", "1"),
    (1, 3): ("", "1", "v"),
    (1, 3, 5): ("", "1", "v"),
    (1, 3, 4): ("", "1", "v"),
    (1, 3, 4, 5): ("", "1", "v"),
    (1, 2): ("1", "", "u"),
    (1, 2, 5): ("", "", "1"),
    (1, 2, 4): ("1", "", "u"),
    (1, 2, 4, 5): ("1", "", "u"),
    (1, 2, 3): ("", "", "1"),
    (1, 2, 3, 5): ("", "", "1"),
    (1, 2, 3, 4): ("1", "", "u"),
    (1, 2, 3, 4, 5): ("12", "", "u^2"),
}


def labels_of(text: str) -> frozenset:
    return frozenset(int(ch) for ch in text)


def oracle_expansion(p) -> tuple[list[int], list[int], Polynomial]:
    """The per-mask sweep: (active masks, dual-active masks, expansion) over every A.

    For each A it scans every signed circuit of M and cocircuit of M' for
    the ones positive after reorienting on A, one Python loop per mask.
    """
    ground = p.ground
    by_label = sorted(range(len(ground)), key=ground.__getitem__)

    def pack(masks):
        # (positive, negative, smallest-element bit), one entry per +/- pair
        packed = {}
        for pos, sup in masks:
            if sup not in packed:
                packed[sup] = (pos, sup ^ pos, next(1 << i for i in by_label if sup >> i & 1))
        return list(packed.values())

    def active_min_mask(packed, a_mask):
        out = 0
        for pos, neg, min_bit in packed:
            if out & min_bit:
                continue
            if (neg & a_mask) == neg and not (pos & a_mask):
                out |= min_bit
            elif (pos & a_mask) == pos and not (neg & a_mask):
                out |= min_bit
        return out

    circuits = pack(p.m.circuit_pairs)
    cocircuits = pack(p.mprime.cocircuit_pairs)
    active, dual, histogram = [], [], Counter()
    for a in range(1 << len(ground)):
        act = active_min_mask(circuits, a)
        co = active_min_mask(cocircuits, a)
        active.append(act)
        dual.append(co)
        histogram[Monomial(((co & ~a).bit_count(), (co & a).bit_count(),
                            (act & ~a).bit_count(), (act & a).bit_count(), 0))] += 1
    return active, dual, Polynomial(histogram)


def oracle_dual_table(table: bytes) -> bytes:
    """r*(S) = |S| - r(E) + r(E minus S), one mask at a time."""
    full = len(table) - 1
    return bytes(bin(s).count("1") - table[full] + table[full ^ s] for s in range(len(table)))


def _subset_counts(*tables: bytes) -> Counter:
    """How many subsets S share (|S|, r_1(S), r_2(S), ...) over the given rank tables."""
    return Counter((bin(s).count("1"), *(t[s] for t in tables)) for s in range(len(tables[0])))


def oracle_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by a Monomial-keyed loop over pairs of terms, off the library's product kernel."""
    out: dict[Monomial, int] = {}
    for m1, c1 in p.terms().items():
        for m2, c2 in q.terms().items():
            mono = Monomial(tuple(a + b for a, b in zip(m1.exps, m2.exps)))
            out[mono] = out.get(mono, 0) + c1 * c2
    return Polynomial(out)


def oracle_power(p: Polynomial, n: int) -> Polynomial:
    """p ** n as n oracle products."""
    if n < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = ONE
    for _ in range(n):
        result = oracle_product(result, p)
    return result


def oracle_partial_derivative(poly: Polynomial, var: str, order: int = 1) -> Polynomial:
    """The derivative in ``var`` taken one order at a time, ``order`` times."""
    idx = VARIABLES.index(var)
    degree = max((mono.exps[idx] for mono in poly.terms()), default=-1)
    for _ in range(min(order, degree + 1)):  # past its degree in var it is 0
        out: dict[Monomial, int] = {}
        for mono, coeff in poly.terms().items():
            e = mono.exps[idx]
            if not e:
                continue
            exps = list(mono.exps)
            exps[idx] = e - 1
            out[Monomial(tuple(exps))] = coeff * e
        poly = Polynomial(out)
    return poly


# -- polynomial text: the two-function parser, token list then term by term --------------
# The reference for the one-pass ``Polynomial.parse``: the same grammar, results and
# errors, walked by a different structure.

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[a-zA-Z])|(?P<op>[-+*^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolynomialParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def oracle_parse(text: str) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text", 0)
    terms: dict[Monomial, int] = {}
    i = 0
    while i < len(tokens):  # every term but the first starts at the '+' or '-' ending the last
        sign = 1
        kind, value, at = tokens[i]
        if kind == "op" and value in "+-":
            if value == "+" and i == 0:
                raise PolynomialParseError("polynomial cannot start with '+'", at)
            sign = -1 if value == "-" else 1
            i += 1
        coeff, exps, i = _parse_term(tokens, i)
        mono = Monomial(tuple(exps))
        terms[mono] = terms.get(mono, 0) + sign * coeff
    return Polynomial(terms)


def _parse_term(tokens, i) -> tuple[int, list[int], int]:
    coeff = 1
    exps = [0] * _NVARS
    expect_factor = True
    while True:
        if i >= len(tokens):
            if expect_factor:
                last = tokens[-1][2] if tokens else 0
                raise PolynomialParseError("term ends without a factor", last)
            return coeff, exps, i
        kind, value, at = tokens[i]
        if expect_factor:
            if kind == "int":
                coeff *= int(value)
                i += 1
            elif kind == "var":
                if value not in _VAR_INDEX:
                    raise PolynomialParseError(f"unknown variable {value!r}", at)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    if i + 1 >= len(tokens) or tokens[i + 1][0] != "int":
                        raise PolynomialParseError("'^' must be followed by an integer", at)
                    power = int(tokens[i + 1][1])
                    i += 2
                exps[_VAR_INDEX[value]] += power
            else:
                raise PolynomialParseError(f"expected a coefficient or variable, got {value!r}", at)
            expect_factor = False
        else:
            if kind == "op" and value == "*":
                expect_factor = True
                i += 1
            elif kind == "op" and value == "^":
                raise PolynomialParseError("'^' is only allowed on variables", at)
            elif kind == "op" and value in "+-":
                return coeff, exps, i
            else:
                raise PolynomialParseError(f"expected an operator, got {value!r}", at)


def oracle_tutte_closed(m: OrientedRealization) -> Polynomial:
    """The corank-nullity sum by oracle powers and products, one term per class."""
    table = m.rank_table()
    total = Polynomial.zero()
    for (size, ra), count in _subset_counts(table).items():
        term = oracle_product(oracle_power(X - ONE, table[-1] - ra),
                              oracle_power(Y - ONE, size - ra))
        total = total + oracle_product(Polynomial.constant(count), term)
    return total


def oracle_tutte3_closed(p) -> Polynomial:
    """The 3-variable subset sum by oracle powers and products."""
    table_m, table_mp = p.m.rank_table(), p.mprime.rank_table()
    drop = table_m[-1] - table_mp[-1]
    total = Polynomial.zero()
    for (size, ra, rpa), count in _subset_counts(table_m, table_mp).items():
        term = oracle_product(oracle_power(X - ONE, table_mp[-1] - rpa),
                              oracle_power(Y - ONE, size - ra))
        term = oracle_product(term, oracle_power(Z, drop - ra + rpa))
        total = total + oracle_product(Polynomial.constant(count), term)
    return total


def oracle_substitute(poly: Polynomial, bindings) -> Polynomial:
    """Simultaneous substitution by oracle powers and products, one term at a time."""
    fixed = {VARIABLES.index(name): value if isinstance(value, Polynomial)
             else Polynomial.constant(value) for name, value in bindings.items()}
    result = Polynomial.zero()
    for mono, coeff in poly.terms().items():
        term = Polynomial.constant(coeff)
        residual = [0] * len(VARIABLES)
        for i, e in enumerate(mono.exps):
            if not e:
                continue
            if i in fixed:
                term = oracle_product(term, oracle_power(fixed[i], e))
            else:
                residual[i] = e
        term = oracle_product(term, Polynomial({Monomial(tuple(residual)): 1}))
        result = result + term
    return result


def oracle_reference(p) -> Polynomial:
    """t(x+u, y+v, 1) by the oracle's substitution into the oracle's t(x, y, z)."""
    return oracle_substitute(oracle_tutte3_closed(p), {"x": X + U, "y": Y + V, "z": 1})


TABLE_COLUMNS = ("A", "dual_active", "active", "dual_out", "dual_in",
                 "active_out", "active_in", "monomial")


def oracle_table_rows(p) -> list[dict[str, str]]:
    """The cells of every row of the activity table, from ``oracle_expansion``'s records.

    A label set is its labels sorted and joined, ``-`` when empty; the monomial is its str.
    """
    active, dual, _ = oracle_expansion(p)

    def labels(mask):
        return frozenset(e for i, e in enumerate(p.ground) if mask >> i & 1)

    rows = []
    for a, (act, co) in enumerate(zip(active, dual)):
        record = record_of(labels(a), labels(act), labels(co))._asdict()
        rows.append({name: str(record[name]) if name == "monomial"
                     else "".join(map(str, sorted(record[name]))) or "-"
                     for name in TABLE_COLUMNS})
    return rows


def oracle_json_table(p, total: Polynomial | None = None) -> str:
    """The JSON activity table, as ``json.dumps`` lays it out, with a trailing newline.

    ``sum`` and ``pass`` read ``total`` when it is given, else the oracle's own expansion;
    ``reference`` is ``oracle_reference``.
    """
    import json

    total = oracle_expansion(p)[2] if total is None else total
    reference = oracle_reference(p)
    table = {"pass": total == reference, "sum": str(total), "reference": str(reference),
             "rows": oracle_table_rows(p)}
    return json.dumps(table, indent=2, sort_keys=True) + "\n"
