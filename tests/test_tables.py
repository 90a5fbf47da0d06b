"""The rank table and the families read off it, against slow independent oracles."""

import random

from omtutte import matroid
from omtutte.matroid import OrientedRealization, _dual_table, from_digraph
from omtutte.oriented import OrientedMatroid, signed_circuits, signed_cocircuits
from omtutte.perspective import bounded_perspective

from helpers import (
    columns_of,
    family_set,
    loop_at_contraction,
    oracle_dual_table,
    oracle_rank,
    oracle_signed_circuits,
    random_digraph,
    random_realization,
    rows_of,
)


def seeded_instances(seed):
    """Random realizations up to 4x9 and random digraphs, as realizations.

    Half of each kind has at least 6 elements, so that ranks 2-4 with many
    circuits are covered, not only the tiny shapes.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < 12:
        m = random_realization(rng, max_rows=4, max_cols=9)
        if len(out) < 6 or len(m.ground) >= 6 and len(rows_of(m)) >= 2:
            out.append(m)
    while len(out) < 24:
        g = random_digraph(rng, max_vertices=5, max_arcs=9)
        if len(out) < 18 or len(g.arcs) >= 6:
            out.append(from_digraph(g))
    return rng, out


def labels_of(m, mask):
    return [e for i, e in enumerate(m.ground) if mask >> i & 1]


def fresh(m):
    """The same realization, with a table built from its own matrix."""
    return OrientedRealization(m.ground, rows_of(m))


def test_signed_families_match_subset_scan_oracle():
    _, instances = seeded_instances(9001)
    for m in instances:
        assert family_set(m.ground, signed_circuits(m)) == oracle_signed_circuits(m)
        assert family_set(m.ground, signed_cocircuits(m)) == oracle_signed_circuits(m.dual())


def hand_built():
    """Columns in the span of earlier ones, whose subtrees the table copies, in
    shapes the seeded instances rarely hit; each is checked on every mask."""
    return [
        # a zero column first and another last
        OrientedRealization(range(1, 7), [[0, 1, 0, 1, 2, 0], [0, 0, 1, 1, -1, 0]]),
        # an anti-parallel pair, column 2 = -column 1
        OrientedRealization(range(1, 6), [[1, -1, 0, 1, 0], [2, -2, 1, 0, 0], [0, 0, 0, 3, 1]]),
        # column 3 = 1 + 2, then columns outside that span
        OrientedRealization(range(1, 7), [[1, 0, 1, 0, 1, 2], [0, 1, 1, 0, 1, 0],
                                          [0, 0, 0, 1, 1, -1]]),
        OrientedRealization(range(1, 4), [[0, 0, 0], [0, 0, 0]]),  # rank 0
        OrientedRealization(range(1, 4), []),  # no rows
        OrientedRealization((), []),  # the empty ground set
    ]


def test_rank_table_matches_minor_oracle():
    rng, instances = seeded_instances(9002)
    for m in instances + hand_built():
        table = m.rank_table()
        assert len(table) == 1 << len(m.ground)
        masks = range(len(table))
        if len(m.ground) > 8:
            masks = rng.sample(masks, 64)
        for mask in masks:
            assert table[mask] == oracle_rank(columns_of(m, labels_of(m, mask)))


def derivation_chain(m, rng, length):
    """``length`` seeded steps of delete, contract, dual and negate_columns from m; no table
    in the chain is read, so reading the last one's runs a thunk over a thunk."""
    for _ in range(length):
        steps = [lambda m: m.dual(),
                 lambda m: m.negate_columns(rng.sample(m.ground, rng.randint(0, len(m.ground))))]
        if m.ground:
            steps += [lambda m: m.delete(rng.choice(m.ground)),
                      lambda m: m.contract(rng.choice(m.ground))]
        m = rng.choice(steps)(m)
    return m


def test_minor_and_dual_tables_match_fresh_builds():
    rng, instances = seeded_instances(9003)
    for m in instances:
        m.rank_table()
        for e in m.ground:
            for minor in (m.delete(e), m.contract(e)):
                assert minor.rank_table() == fresh(minor).rank_table()
        dual = m.dual()
        assert dual.rank_table() == fresh(dual).rank_table()
        assert m.negate_columns(m.ground[:1]).rank_table() == m.rank_table()
        for length in (2, 2, 3, 3):
            chain = derivation_chain(m, rng, length)
            assert chain.rank_table() == fresh(chain).rank_table()


def test_dual_table_matches_a_per_mask_loop():
    # r(E) = |E| and r(T) in [|T|, |E|] give the largest byte sums, |S| + r(E minus S) <= 2|E|
    rng = random.Random(9006)
    tables = [bytes(1)]  # the empty ground set
    for n in range(1, 15):
        table = bytearray(rng.randint(s.bit_count(), n) for s in range(1 << n))
        table[-1] = n
        tables.append(table)
    for table in tables:
        assert _dual_table(table) == oracle_dual_table(table)
    _, instances = seeded_instances(9007)
    for m in instances:
        table = m.rank_table()
        assert _dual_table(table) == oracle_dual_table(table)
        assert _dual_table(_dual_table(table)) == table


def test_bounded_perspective_builds_one_root_table(monkeypatch):
    # M' (M/e with a loop at e's slot) reads r(S + e) - r(e) off M's table
    _, instances = seeded_instances(9004)
    built = []
    real = matroid._rank_table
    monkeypatch.setattr(matroid, "_rank_table",
                        lambda columns: built.append(len(columns)) or real(columns))
    checked = 0
    for m in instances:
        probe = OrientedMatroid(fresh(m))
        e = next((e for e in m.ground if not probe.is_loop(e) and not probe.is_isthmus(e)), None)
        if e is None:
            continue
        built.clear()
        mprime = bounded_perspective(m, e).mprime
        assert built == [len(m.ground)]
        assert mprime.rank_table() == fresh(loop_at_contraction(m, e)).rank_table()
        checked += 1
    assert checked >= 12
