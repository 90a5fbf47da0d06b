"""Signed circuits/cocircuits, reorientation, activities, consistency oracles."""

import inspect
import itertools
import random
from fractions import Fraction

import pytest

from omtutte.expansions import expansion_sum
from omtutte.matroid import Digraph, MatroidError, OrientedRealization, from_digraph
from omtutte.oriented import (
    OrientedMatroid,
    SignedSubset,
    minty_check,
    orientation_active_sets,
    signed_circuits,
    signed_cocircuits,
)
from omtutte.perspective import bounded_perspective, from_major, identity_perspective
from omtutte.poly import Monomial
from omtutte import gallery

from helpers import (
    activity_record,
    conformal,
    element_indicators,
    every_arc_on_directed_cycle,
    family_set,
    has_directed_cycle,
    is_acyclic,
    is_totally_cyclic,
    loop_at_contraction,
    oracle_contract,
    oracle_expansion,
    oracle_signed_circuits,
    random_digraph,
    random_realization,
    rows_of,
)


def ss(pos=(), neg=()):
    return SignedSubset.make(pos, neg)


def om_of(digraph):
    return OrientedMatroid(from_digraph(digraph))


def signs(*subsets):
    return {(s.positive, s.negative) for s in subsets}


# -- circuit and cocircuit enumeration ------------------------------------------

def circuit_set(digraph):
    m = from_digraph(digraph)
    return family_set(m.ground, signed_circuits(m))


def cocircuit_set(digraph):
    m = from_digraph(digraph)
    return family_set(m.ground, signed_cocircuits(m))


def test_parallel_pair_circuits():
    assert circuit_set(gallery.parallel_pair()) == signs(ss({1}, {2}), ss({2}, {1}))


def test_loop_circuits():
    assert circuit_set(gallery.single_loop()) == signs(ss({1}), ss((), {1}))


def test_triangle_circuits_all_positive():
    assert circuit_set(gallery.directed_triangle()) == signs(ss({1, 2, 3}), ss((), {1, 2, 3}))


def test_parallel_pair_cocircuits():
    assert cocircuit_set(gallery.parallel_pair()) == signs(ss({1, 2}), ss((), {1, 2}))


def test_isthmus_cocircuits():
    assert cocircuit_set(gallery.single_arc()) == signs(ss({1}), ss((), {1}))


def test_triangle_cocircuits_are_vertex_cuts():
    expected = []
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        expected += [ss({i}, {j}), ss({j}, {i})]
    assert cocircuit_set(gallery.directed_triangle()) == signs(*expected)


def test_signed_subset_disjointness_enforced():
    with pytest.raises(MatroidError):
        SignedSubset.make({1}, {1})


# -- reorientation ---------------------------------------------------------------

def test_reorient_flips_circuit_signs():
    om = om_of(gallery.parallel_pair())
    flipped = om.reorient({2})
    assert family_set(om.ground, flipped.circuit_pairs) == signs(ss({1, 2}), ss((), {1, 2}))


def test_reorient_empty_is_identity():
    om = om_of(gallery.directed_triangle())
    assert om.reorient(frozenset()) is om


def test_reorient_twice_is_identity():
    om = om_of(gallery.doubled_triangle())
    twice = om.reorient({1, 3}).reorient({1, 3})
    assert twice.circuit_pairs == om.circuit_pairs
    assert twice.cocircuit_pairs == om.cocircuit_pairs


def test_reorient_full_ground_preserves_families():
    om = om_of(gallery.directed_triangle())
    full = om.reorient(set(om.ground))
    assert full.circuit_pairs == om.circuit_pairs
    assert full.cocircuit_pairs == om.cocircuit_pairs


def test_reorient_unknown_label_errors():
    with pytest.raises(MatroidError, match="unknown"):
        om_of(gallery.single_arc()).reorient({9})


def test_reoriented_families_match_recomputation():
    rng = random.Random(61)
    for _ in range(8):
        m = from_digraph(random_digraph(rng))
        om = OrientedMatroid(m)
        a = frozenset(e for e in m.ground if rng.random() < 0.5)
        flipped = om.reorient(a)
        negated = m.negate_columns(a)
        assert family_set(m.ground, flipped.circuit_pairs) == oracle_signed_circuits(negated)
        assert family_set(m.ground, flipped.cocircuit_pairs) == \
            oracle_signed_circuits(negated.dual())
        # the family order survives reorientation: support labels, then positive labels
        assert [s.support for s in flipped.circuits] == [s.support for s in om.circuits]
        assert list(flipped.circuits) == sorted(
            flipped.circuits, key=lambda s: (sorted(s.support), sorted(s.positive)))


# -- orientation activities -------------------------------------------------------

def test_active_sets_positive_loop():
    o, ostar = orientation_active_sets(om_of(gallery.single_loop()))
    assert (o, ostar) == (frozenset({1}), frozenset())


def test_active_sets_parallel_pair():
    om = om_of(gallery.parallel_pair())
    assert orientation_active_sets(om) == (frozenset(), frozenset({1}))
    flipped = om.reorient({2})
    assert orientation_active_sets(flipped) == (frozenset({1}), frozenset())


def test_activity_record_loop():
    om = om_of(gallery.single_loop())
    rec = activity_record(om, frozenset())
    assert rec.active_out == {1}
    assert rec.monomial == Monomial.from_exponents({"y": 1})
    rec = activity_record(om, {1})
    assert rec.active_in == {1}
    assert rec.monomial == Monomial.from_exponents({"v": 1})


def test_activity_record_parallel_pair():
    rec = activity_record(om_of(gallery.parallel_pair()), {1})
    assert rec.active_in == {1}
    assert rec.monomial == Monomial.from_exponents({"v": 1})


def test_activity_record_isthmus():
    rec = activity_record(om_of(gallery.single_arc()), {1})
    assert rec.dual_in == {1}
    assert rec.monomial == Monomial.from_exponents({"u": 1})


def test_element_indicators():
    assert element_indicators(om_of(gallery.single_loop()), 1) == (1, 0)
    assert element_indicators(om_of(gallery.single_arc()), 1) == (0, 1)
    assert element_indicators(om_of(gallery.parallel_pair()), 2) == (0, 0)


def test_acyclic_and_totally_cyclic():
    assert is_acyclic(om_of(gallery.parallel_pair()))
    loop = om_of(gallery.single_loop())
    assert not is_acyclic(loop)
    assert is_totally_cyclic(loop)
    assert is_totally_cyclic(om_of(gallery.directed_triangle()))
    assert not is_totally_cyclic(om_of(gallery.single_arc()))


def test_conformal():
    assert conformal(ss({1}), ss({1, 2}))
    assert not conformal(ss((), {1}), ss({1, 2}))
    assert conformal(ss({1}, {2}), ss({1, 3}, {2}))


def test_minty_examples():
    assert minty_check(om_of(gallery.single_loop()))
    assert minty_check(om_of(gallery.single_arc()))
    om = om_of(gallery.directed_triangle())
    for size in range(4):
        for combo in itertools.combinations(om.ground, size):
            assert minty_check(om.reorient(combo))


def _echelon_cases(seed):
    """Realizations whose echelon forms have zero, parallel and isthmus columns
    in any position, more rows than rank, no rows, or no ground set."""
    rng = random.Random(seed)
    yield OrientedRealization((), [])
    yield OrientedRealization.parse_matrix("2 0\n")
    yield OrientedRealization((1, 2, 3), [])
    for _ in range(10):
        m = random_realization(rng, max_rows=3, max_cols=4)
        j = rng.randrange(len(m.ground))
        scale = rng.choice((-2, -1, Fraction(1, 2), 3))
        rows = [[*row, 0, scale * row[j], 0] for row in rows_of(m)]
        rows.append([0] * (len(rows[0]) - 1) + [1])  # the isthmus
        rows.append([2 * v for v in rows[0]])  # a row beyond the rank
        order = rng.sample(range(len(rows[0])), len(rows[0]))
        yield OrientedRealization(range(1, len(order) + 1),
                                  [[row[i] for i in order] for row in rows])


def test_echelon_signs_match_cofactor_oracle():
    rng = random.Random(1213)
    for m in _echelon_cases(1212):
        minors = [m, m.dual()] + [m.contract(e)
                                  for e in rng.sample(m.ground, min(1, len(m.ground)))]
        for r in minors:
            assert family_set(r.ground, signed_circuits(r)) == oracle_signed_circuits(r)
            assert family_set(r.ground, signed_cocircuits(r)) == oracle_signed_circuits(r.dual())


# -- family-level properties -------------------------------------------------------

def _random_oms(count, seed, graphic_only=False):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if graphic_only or rng.random() < 0.5:
            g = random_digraph(rng)
            out.append((g, OrientedMatroid(from_digraph(g))))
        else:
            m = random_realization(rng, max_rows=3, max_cols=6)
            out.append((None, OrientedMatroid(m)))
    return out


def test_orthogonality():
    for _, om in _random_oms(10, 303):
        for circ in om.circuits:
            for cocirc in om.cocircuits:
                shared = circ.support & cocirc.support
                if not shared:
                    continue
                agree = (circ.positive & cocirc.positive) | (circ.negative & cocirc.negative)
                disagree = (circ.positive & cocirc.negative) | (circ.negative & cocirc.positive)
                assert agree & shared and disagree & shared


def test_circuit_supports_form_a_clutter():
    for _, om in _random_oms(10, 404):
        supports = {c.support for c in om.circuits}
        for a in supports:
            for b in supports:
                assert not (a < b)


def test_dual_activity_exchange():
    for _, om in _random_oms(10, 505):
        o, ostar = orientation_active_sets(om)
        o_dual, ostar_dual = orientation_active_sets(om.dual())
        assert ostar == o_dual
        assert o == ostar_dual
        dual = om.dual()
        assert family_set(om.ground, dual.circuit_pairs) == \
            oracle_signed_circuits(om.realization.dual())
        assert family_set(om.ground, dual.cocircuit_pairs) == oracle_signed_circuits(om.realization)


def test_complement_reorientation_swaps_barred_activities():
    rng = random.Random(606)
    for _, om in _random_oms(8, 707):
        ground = set(om.ground)
        for _ in range(6):
            a = frozenset(e for e in ground if rng.random() < 0.5)
            rec = activity_record(om, a)
            swapped = activity_record(om, frozenset(ground - a))
            assert rec.active_out == swapped.active_in
            assert rec.active_in == swapped.active_out
            assert rec.dual_out == swapped.dual_in
            assert rec.dual_in == swapped.dual_out


def test_activity_counts_split_o_activities():
    rng = random.Random(808)
    for _, om in _random_oms(8, 909):
        ground = set(om.ground)
        for _ in range(6):
            a = frozenset(e for e in ground if rng.random() < 0.5)
            rec = activity_record(om, a)
            o, ostar = orientation_active_sets(om.reorient(a))
            assert len(rec.active_out) + len(rec.active_in) == len(o)
            assert len(rec.dual_out) + len(rec.dual_in) == len(ostar)
            assert rec.active_out | rec.active_in == o
            assert not rec.active_out & rec.active_in


def test_minty_holds_for_every_reorientation():
    for _, om in _random_oms(6, 111):
        n = len(om.ground)
        for mask in range(1 << n):
            a = frozenset(om.ground[i] for i in range(n) if mask >> i & 1)
            assert minty_check(om.reorient(a))


def test_acyclic_agrees_with_graph_cycle_oracle():
    for g, om in _random_oms(8, 222, graphic_only=True):
        n = len(om.ground)
        for mask in range(1 << n):
            a = frozenset(om.ground[i] for i in range(n) if mask >> i & 1)
            assert is_acyclic(om.reorient(a)) == (not has_directed_cycle(g, a))


def test_totally_cyclic_agrees_with_graph_oracle():
    for g, om in _random_oms(8, 333, graphic_only=True):
        n = len(om.ground)
        for mask in range(1 << n):
            a = frozenset(om.ground[i] for i in range(n) if mask >> i & 1)
            assert is_totally_cyclic(om.reorient(a)) == every_arc_on_directed_cycle(g, a)


# -- one element order: labels that are not indices ---------------------------------

@pytest.mark.parametrize("ground", [(2, 1), (1, 1)])
def test_ground_labels_must_be_strictly_increasing(ground):
    with pytest.raises(MatroidError, match="strictly increasing"):
        OrientedRealization(ground, [[1, 1]])


def test_digraph_arcs_out_of_label_order_are_rejected():
    g = Digraph(("a", "b", "c"), ((2, "a", "b"), (1, "b", "c")))
    with pytest.raises(MatroidError, match="strictly increasing"):
        from_digraph(g)


def _gapped(rng):
    """Realizations and digraph realizations whose labels are gapped and never indices."""
    for _ in range(5):
        m = random_realization(rng, max_rows=3, max_cols=6)
        yield OrientedRealization(sorted(rng.sample(range(3, 40), len(m.ground))), rows_of(m))
        g = random_digraph(rng, max_vertices=4, max_arcs=6)
        labels = sorted(rng.sample(range(3, 40), len(g.arcs)))
        yield from_digraph(Digraph.from_arcs(
            (label, tail, head) for label, (_, tail, head) in zip(labels, g.arcs)))


def _in_label_order(family):
    """A (positive, negative) label-set family in family order: support labels, then positive."""
    return sorted(family, key=lambda pn: (sorted(pn[0] | pn[1]), sorted(pn[0])))


def _positive_minima(family):
    return frozenset(min(pos) for pos, neg in family if not neg)


def test_gapped_labels_match_label_oracles():
    rng = random.Random(1414)
    for m in _gapped(rng):
        a = frozenset(e for e in m.ground if rng.random() < 0.5)
        om = OrientedMatroid(m)
        for om_a, real in ((om, m), (om.reorient(a), m.negate_columns(a))):
            circuits = oracle_signed_circuits(real)
            cocircuits = oracle_signed_circuits(real.dual())
            assert [(s.positive, s.negative) for s in om_a.circuits] == _in_label_order(circuits)
            assert [(s.positive, s.negative) for s in om_a.cocircuits] == \
                _in_label_order(cocircuits)
            assert orientation_active_sets(om_a) == (_positive_minima(circuits),
                                                     _positive_minima(cocircuits))
            p = identity_perspective(om_a)
            assert expansion_sum(p).total == oracle_expansion(p)[2]
        e = next((e for e in m.ground if not om.is_loop(e) and not om.is_isthmus(e)), None)
        if e is not None:
            p = bounded_perspective(m, e)
            assert expansion_sum(p).total == oracle_expansion(p)[2]


# -- minors read their families off the parent -------------------------------------

def _minor_roots(rng):
    """Realizations with loops, isthmi, parallel classes and zero rows, and random digraphs."""
    yield OrientedRealization((1,), [[0]])  # a lone loop: either minor leaves E empty
    yield OrientedRealization((1,), [[2]])  # a lone isthmus
    yield OrientedRealization((1, 2, 3), [[0, 0, 0]])  # rank 0
    # 2 a loop, 1 and 3 anti-parallel, 6 an isthmus, the second row zero
    yield OrientedRealization(range(1, 7), [[1, 0, -2, 0, 1, 0], [0] * 6,
                                            [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 3]])
    yield from_digraph(gallery.doubled_triangle())
    for _ in range(8):
        yield random_realization(rng, max_rows=3, max_cols=6)
        yield from_digraph(random_digraph(rng, max_vertices=4, max_arcs=6))


def test_minor_families_match_linear_algebra_on_the_minor_matrix():
    # the reference side enumerates each minor's families from its own matrix
    rng = random.Random(1515)
    for m in _minor_roots(rng):
        root = OrientedMatroid(m)
        a = [e for e in m.ground if rng.random() < 0.5]
        xs = [(root, m), (root.reorient(a), m.negate_columns(a)), (root.dual(), m.dual()),
              (root.reorient(a).dual(), m.negate_columns(a).dual())]
        xs += [pair for e in m.ground
               for pair in ((root.minor_delete(e), m.delete(e)),
                            (root.minor_contract(e), oracle_contract(m, e)))]
        for x, x_real in xs:
            for e in x.ground:
                for minor, real in ((x.minor_delete(e), x_real.delete(e)),
                                    (x.minor_contract(e), oracle_contract(x_real, e))):
                    assert minor.circuit_pairs == signed_circuits(real), (m, e)
                    assert minor.cocircuit_pairs == signed_cocircuits(real), (m, e)


def _contraction_cases(rng):
    """(realization, labels to contract in order): one, two and three contractions of
    roots with loops, isthmi, rank 0 and full rank."""
    full_rank = [OrientedRealization((1, 2, 3), [[2, 1, 0], [0, -1, 3], [1, 0, 1]]),
                 OrientedRealization((1, 2, 3, 4), [[1, 0, 0, 0], [0, -2, 0, 0],
                                                    [0, 0, 3, 0], [0, 0, 0, 1]])]
    for m in [*_minor_roots(rng), *full_rank]:
        yield from ((m, (e,)) for e in m.ground)
        for k in (2, 3):
            if len(m.ground) >= k:
                yield m, tuple(rng.sample(m.ground, k))


def _oracle_sides(oracle):
    """The oracle's rank table and both families, each off its own matrix."""
    return (oracle.rank_table(), oracle_signed_circuits(oracle),
            oracle_signed_circuits(oracle.dual()))


def test_contraction_matches_the_row_reduction_oracle():
    # contract and minor_contract are deletion in the dual; the oracle is a row reduction
    rng = random.Random(1818)
    checked = 0
    for m, labels in _contraction_cases(rng):
        real, om, oracle = m, OrientedMatroid(m), m
        for e in labels:
            real, om, oracle = real.contract(e), om.minor_contract(e), oracle_contract(oracle, e)
        expected = _oracle_sides(oracle)
        assert real.ground == om.ground == oracle.ground
        assert (real.rank_table(), family_set(real.ground, signed_circuits(real)),
                family_set(real.ground, signed_cocircuits(real))) == expected, (m, labels)
        assert (om.rank_table(), family_set(om.ground, om.circuit_pairs),
                family_set(om.ground, om.cocircuit_pairs)) == expected, (m, labels)
        checked += 1
    assert checked > 100


def test_from_major_contracts_three_labels_as_the_oracle_does():
    rng = random.Random(1919)
    checked = 0
    while checked < 12:
        n = (random_realization(rng, max_rows=4, max_cols=6) if checked % 2
             else from_digraph(random_digraph(rng, max_vertices=4, max_arcs=6)))
        if len(n.ground) < 4:
            continue
        c = rng.sample(n.ground, 3)
        p = from_major(n, c)
        oracle = n
        for e in sorted(c):
            oracle = oracle_contract(oracle, e)
        assert (p.mprime.rank_table(), family_set(p.ground, p.mprime.circuit_pairs),
                family_set(p.ground, p.mprime.cocircuit_pairs)) == _oracle_sides(oracle)
        checked += 1


# -- only a root reads a matrix ------------------------------------------------------

def _derived_with_oracles(m, rng):
    """(derived oriented matroid, matrix oracle) pairs, every oracle built from the root's
    matrix by negate_columns, dual, delete and oracle_contract, or loop_at_contraction for M'."""
    root = OrientedMatroid(m)
    a = [e for e in m.ground if rng.random() < 0.5] or list(m.ground[:1])
    out = [(root.dual(), m.dual())]
    if a:
        out += [(root.reorient(a), m.negate_columns(a)),
                (root.reorient(a).dual(), m.negate_columns(a).dual())]
    for e in m.ground:
        out += [(root.minor_delete(e), m.delete(e)),
                (root.minor_contract(e), oracle_contract(m, e)),
                (root.contract_as_loop(e), loop_at_contraction(m, e)),
                (root.dual().minor_contract(e), oracle_contract(m.dual(), e))]
        f = rng.choice([f for f in m.ground if f != e] or [None])
        if f is not None:
            out += [(root.minor_delete(e).minor_contract(f), oracle_contract(m.delete(e), f)),
                    (root.minor_contract(e).minor_delete(f), oracle_contract(m, e).delete(f)),
                    (root.minor_contract(e).minor_contract(f),
                     oracle_contract(oracle_contract(m, e), f))]
    return out


def test_derived_oriented_matroids_match_matrix_oracles():
    # the oracle is a fresh root: its table is its own DFS, its families its own echelon form
    rng = random.Random(1616)
    checked = 0
    for m in [OrientedRealization((), []), *_minor_roots(rng)]:
        for derived, oracle in _derived_with_oracles(m, rng):
            fresh = OrientedRealization(oracle.ground, rows_of(oracle))
            assert derived.ground == fresh.ground
            assert derived.rank_table() == fresh.rank_table(), (m, oracle)
            assert derived.circuit_pairs == signed_circuits(fresh), (m, oracle)
            assert derived.cocircuit_pairs == signed_cocircuits(fresh), (m, oracle)
            checked += 1
    assert checked > 500


def test_derived_oriented_matroids_run_no_matrix_method(monkeypatch):
    roots = [OrientedMatroid(m) for m in [OrientedRealization((), []),
                                          *_minor_roots(random.Random(1717))]]
    for root in roots:  # a root reads its table and both families off its matrix
        root.rank_table(), root.circuit_pairs, root.cocircuit_pairs

    def refuse(*args, **kwargs):
        raise AssertionError("a derived oriented matroid ran a matrix method")

    for name in ("negate_columns", "dual", "delete", "contract"):
        monkeypatch.setattr(OrientedRealization, name, refuse)
    for root in roots:
        derived = [root.dual()]
        if root.ground:
            derived += [root.reorient(root.ground[::2]), root.reorient(root.ground[::2]).dual()]
        for e in root.ground:
            derived += [root.minor_delete(e), root.minor_contract(e), root.contract_as_loop(e)]
        for x in derived[:]:
            derived += [minor for f in x.ground for minor in (
                x.minor_delete(f), x.minor_contract(f), x.contract_as_loop(f))]
        for x in derived:
            assert x.realization is None
            x.rank_table(), x.circuit_pairs, x.cocircuit_pairs


def test_roots_of_one_realization_share_its_cache():
    m = from_digraph(gallery.doubled_triangle())
    a, b = OrientedMatroid(m), OrientedMatroid(m)
    assert a.circuit_pairs is b.circuit_pairs and a.cocircuit_pairs is b.cocircuit_pairs
    assert a.rank_table() is m.rank_table() is b.rank_table()
    assert a.minor_delete(1) is b.minor_delete(1)
    assert a.minor_contract(2) is b.minor_contract(2)
    # a derived oriented matroid keeps a cache of its own: its families never reach m's
    flipped = a.reorient({1})
    assert flipped.circuit_pairs != a.circuit_pairs
    assert OrientedMatroid(m).circuit_pairs is a.circuit_pairs


def test_oriented_matroid_is_built_from_a_realization_only():
    assert list(inspect.signature(OrientedMatroid).parameters) == ["realization"]
