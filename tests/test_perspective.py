"""Strong-map pairs: construction, validation, 3-variable Tutte polynomial."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from omtutte import cli, matroid, oriented
from omtutte.expansions import expansion_sum
from omtutte.matroid import (
    Digraph,
    InputFormatError,
    OrientedRealization,
    bases,
    from_digraph,
    tutte_closed,
)
from omtutte.oriented import OrientedMatroid
from omtutte.perspective import (
    Perspective,
    PerspectiveError,
    bounded_perspective,
    from_major,
    identity_perspective,
    parse_perspective,
    tutte3_closed,
    validate,
)
from omtutte.poly import Polynomial, X, Y, Z, ONE
from omtutte import gallery

from helpers import (
    conformal,
    family_set as label_family,
    matrix_text,
    minors_of,
    oracle_expansion,
    oracle_signed_circuits,
    oracle_tutte3_closed,
    oracle_validate,
    random_digraph,
    random_realization,
    rows_of,
)


def triangle():
    return from_digraph(gallery.directed_triangle())


def path_to_parallel():
    return from_major(triangle(), {3})


def om(realization):
    return OrientedMatroid(realization)


def family_set(family):
    return {(s.positive, s.negative) for s in family}


# -- from_major ------------------------------------------------------------------

def test_from_major_triangle_contract_three():
    p = path_to_parallel()
    assert p.ground == (1, 2)
    assert p.m.realization.rank() == 2
    assert not p.m.circuits
    assert p.mprime.realization.rank() == 1
    assert len(p.mprime.circuits) == 2


def test_repr_shows_size_and_rank_drop():
    assert repr(path_to_parallel()) == "Perspective(|E|=2, rank_drop=1)"


def test_from_major_empty_contract_is_identity():
    p = from_major(triangle(), frozenset())
    assert family_set(p.m.circuits) == family_set(p.mprime.circuits)
    assert tutte3_closed(p) == tutte_closed(triangle())


def test_from_major_contracting_a_loop_deletes_it():
    g = Digraph.from_arcs([(1, "a", "b"), (2, "a", "b"), (3, "c", "c")])
    p = from_major(from_digraph(g), {3})
    assert family_set(p.m.circuits) == family_set(p.mprime.circuits)
    assert family_set(p.m.cocircuits) == family_set(p.mprime.cocircuits)


def test_from_major_whole_ground_rejected():
    with pytest.raises(PerspectiveError, match="whole ground"):
        from_major(triangle(), {1, 2, 3})


def _with_loop_and_isthmus(n):
    """n with a zero column (a loop) and a column on a row of its own (an isthmus) appended."""
    k = len(n.ground)
    rows = [list(row) + [0, 0] for row in rows_of(n)] + [[0] * k + [0, 1]]
    return OrientedRealization(range(1, k + 3), rows)


def _major_cases(rng):
    """(major, C) in turn: C random, C the lowest labels (|C| from 0 to 3 for both), C holding
    a loop and an isthmus, and C a basis, so that M' has rank 0."""
    kind = 0
    while True:
        n = random_realization(rng, max_rows=4, max_cols=7)
        if kind == 2:
            n = _with_loop_and_isthmus(n)
            c = {len(n.ground) - 1, len(n.ground), *rng.sample(n.ground[:-2], rng.randint(0, 1))}
        elif kind == 3:
            c = set(bases(n)[0])
        else:
            k = rng.randint(0, min(3, len(n.ground) - 1))
            c = set(n.ground[:k] if kind else rng.sample(n.ground, k))
        if c != set(n.ground):
            yield n, c
            kind = (kind + 1) % 4


def _sides(p):
    """Both rank tables and all four families, as label sets."""
    return [(m.rank_table(), label_family(p.ground, m.circuit_pairs),
             label_family(p.ground, m.cocircuit_pairs)) for m in (p.m, p.mprime)]


@pytest.fixture
def recorded(monkeypatch):
    """The column count of each ``_rank_table`` call, and (|E|, i) of each ``_minor_table``."""
    calls = {"rank": [], "minor": []}
    rank_table, minor_table = matroid._rank_table, matroid._minor_table

    def record_rank(columns):
        calls["rank"].append(len(columns))
        return rank_table(columns)

    def record_minor(table, i):
        calls["minor"].append((len(table).bit_length() - 1, i))
        return minor_table(table, i)

    monkeypatch.setattr(matroid, "_rank_table", record_rank)
    for module in (matroid, oriented):
        monkeypatch.setattr(module, "_minor_table", record_minor)
    return calls


def test_major_roots_match_the_derived_route_and_the_matrix_oracles(tmp_path, capsys, recorded):
    # a major: file's M and M' are roots over their own columns; the reference sides are
    # M and M' read off the major's table, and matrix oracles that contract by row reduction
    rng = random.Random(3131)
    path = tmp_path / "major.persp"
    cases = list(itertools.islice(_major_cases(rng), 120))
    ranks = set()  # r(M') over the cases
    for n, c in cases:
        path.write_text("major: matrix\n" + matrix_text(n)
                        + "contract: " + " ".join(map(str, sorted(c))) + "\n")
        recorded["rank"].clear()
        p = parse_perspective(path.read_text())
        size = len(p.ground)
        assert recorded["rank"] == [size, size], (n, c)  # M's and M''s, never N's or N*'s
        sides = _sides(p)
        assert _sides(from_major(n, c)) == sides

        derived_m, derived_mp = n, n  # tables read off n's, through delete and dual
        for e in sorted(c):
            derived_m, derived_mp = derived_m.delete(e), derived_mp.contract(e)
        derived = Perspective(om(derived_m), om(derived_mp))
        deleted, contracted = minors_of(n, c)
        oracle = Perspective(om(OrientedRealization(deleted.ground, rows_of(deleted))),
                             om(contracted))
        expected = [(r.rank_table(), oracle_signed_circuits(r), oracle_signed_circuits(r.dual()))
                    for r in (oracle.m.realization, oracle.mprime.realization)]
        assert sides == _sides(derived) == expected, (n, c)
        assert tutte3_closed(p) == tutte3_closed(derived) == oracle_tutte3_closed(oracle)
        assert expansion_sum(p).total == expansion_sum(derived).total \
            == oracle_expansion(oracle)[2]

        ranks.add(p.mprime.rank_table()[-1])
        recorded["rank"].clear()
        recorded["minor"].clear()
        assert cli.main(["verify", "--input", str(path), "--format", "perspective"]) == 0
        assert recorded["minor"] and all(i == k - 1 for k, i in recorded["minor"]), (n, c)
        assert recorded["rank"] == [size, size], (n, c)
    capsys.readouterr()
    assert {len(c) for _, c in cases} >= {0, 1, 2, 3}
    assert 0 in ranks


# -- validation -------------------------------------------------------------------

def test_validate_path_to_parallel():
    p = path_to_parallel()
    report = validate(p.m, p.mprime)
    assert report.weak and report.oriented


def test_validate_counterexample_with_witness():
    pair = om(from_digraph(gallery.parallel_pair()))
    free = om(OrientedRealization((1, 2), [[Fraction(1), Fraction(0)],
                                           [Fraction(0), Fraction(1)]]))
    report = validate(pair, free)
    assert not report.weak
    circ, cocirc = report.weak_witness
    assert circ.support == {1, 2}
    assert cocirc.support == {1}
    assert not report.oriented
    with pytest.raises(PerspectiveError, match="witness"):
        Perspective(pair, free)


def test_validate_identity_perspective_always_passes():
    rng = random.Random(17)
    for _ in range(8):
        o = om(random_realization(rng, max_rows=3, max_cols=6))
        assert validate(o, o).passed


def test_validate_mismatched_grounds_error():
    a = om(from_digraph(gallery.single_arc()))
    b = om(from_digraph(gallery.parallel_pair()))
    with pytest.raises(PerspectiveError, match="ground"):
        validate(a, b)


def test_rank_never_increases():
    rng = random.Random(23)
    for _ in range(10):
        n = random_realization(rng, max_rows=4, max_cols=7)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c == set(n.ground):
            continue
        p = from_major(n, c)
        assert p.mprime.realization.rank() <= p.m.realization.rank()


# -- the 3-variable polynomial -------------------------------------------------------

def test_tutte3_path_to_parallel():
    assert tutte3_closed(path_to_parallel()) == Polynomial.parse("x*z + z + 1")


def test_tutte3_identity_has_no_z():
    m = from_digraph(gallery.doubled_triangle())
    t3 = tutte3_closed(identity_perspective(m))
    assert "z" not in str(t3)
    assert t3 == tutte_closed(m)


def test_tutte3_z1_matches_direct_recomputation():
    rng = random.Random(29)
    for _ in range(6):
        n = random_realization(rng, max_rows=3, max_cols=6)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c == set(n.ground):
            continue
        p = from_major(n, c)
        m = p.m.realization
        mp = p.mprime.realization
        direct = Polynomial.zero()
        for size in range(len(m.ground) + 1):
            for combo in itertools.combinations(m.ground, size):
                direct = direct + ((X - ONE) ** (mp.rank() - mp.rank(combo))
                                   * (Y - ONE) ** (size - m.rank(combo)))
        assert tutte3_closed(p).substitute({"z": 1}) == direct


def test_rank_interval_property_on_nested_pairs():
    rng = random.Random(37)
    for _ in range(6):
        n = random_realization(rng, max_rows=3, max_cols=6)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c == set(n.ground):
            continue
        p = from_major(n, c)
        m = p.m.realization
        mp = p.mprime.realization
        ground = list(p.ground)
        for _ in range(20):
            x_set = frozenset(e for e in ground if rng.random() < 0.6)
            y_set = frozenset(e for e in x_set if rng.random() < 0.6)
            assert (m.rank(y_set) - mp.rank(y_set)
                    <= m.rank(x_set) - mp.rank(x_set))


def _swapped(t: Polynomial, drop: int) -> Polynomial:
    """z^drop * t(y, x, 1/z): x and y exchanged, each z^k made z^(drop - k)."""
    return Polynomial({(y, 0, x, 0, drop - z): c for (x, _, y, _, z), c in t.terms().items()})


def test_dual_perspective_exchanges_x_and_y_and_inverts_z():
    # t(M'*, M*; x, y, z) = z^(r(M) - r(M')) t(M, M'; y, x, 1/z): both sides read only tables
    rng = random.Random(2121)
    empty = om(OrientedRealization((), []))
    loop, isthmus = om(OrientedRealization((1,), [[0]])), om(OrientedRealization((1,), [[1]]))
    cases = [Perspective(empty, empty), Perspective(loop, loop), Perspective(isthmus, isthmus),
             Perspective(isthmus, loop)]
    while len(cases) < 64:
        n = (random_realization(rng, max_rows=4, max_cols=7) if len(cases) % 2
             else from_digraph(random_digraph(rng, max_vertices=5, max_arcs=7)))
        cases.append(from_major(n, rng.sample(n.ground, rng.randrange(len(n.ground)))))
    for p in cases:
        dual = Perspective(p.mprime.dual(), p.m.dual())
        assert tutte3_closed(dual) == _swapped(tutte3_closed(p), p.rank_drop()), p


# -- bounded perspective ---------------------------------------------------------------

def test_bounded_perspective_triangle():
    bp = bounded_perspective(triangle(), 3)
    assert bp.ground == (1, 2, 3)
    mp = bp.mprime
    assert mp.rank_table()[-1] == 1
    assert mp.is_loop(3)
    assert mp.rank_table()[mp.mask_of({1, 2})] == 1
    assert bp.rank_drop() == 1
    assert validate(bp.m, bp.mprime).passed


def test_bounded_perspective_rejects_factor_elements():
    loopy = from_digraph(Digraph.from_arcs([(1, "a", "a"), (2, "a", "b"), (3, "a", "b")]))
    with pytest.raises(PerspectiveError, match="loop"):
        bounded_perspective(loopy, 1)
    with pytest.raises(PerspectiveError, match="isthmus"):
        bounded_perspective(from_digraph(gallery.single_arc()), 1)


# -- equivalence of the validation criteria -----------------------------------------

def _weak_by_unions(m: OrientedMatroid, mp: OrientedMatroid) -> bool:
    # circuits of M decompose into M' circuits, and dually for cocircuits
    circuit_side = all(
        frozenset().union(*(y.support for y in mp.circuits if y.support <= x.support),
                          frozenset()) == x.support
        for x in m.circuits)
    cocircuit_side = all(
        frozenset().union(*(d.support for d in m.cocircuits if d.support <= y.support),
                          frozenset()) == y.support
        for y in mp.cocircuits)
    return circuit_side and cocircuit_side


def _oriented_by_conformal_unions(m: OrientedMatroid, mp: OrientedMatroid) -> bool:
    circuit_side = all(
        frozenset().union(*(y.support for y in mp.circuits if conformal(y, x)),
                          frozenset()) == x.support
        for x in m.circuits)
    cocircuit_side = all(
        frozenset().union(*(d.support for d in m.cocircuits if conformal(d, y)),
                          frozenset()) == y.support
        for y in mp.cocircuits)
    return circuit_side and cocircuit_side


def _rank_interval_everywhere(m: OrientedMatroid, mp: OrientedMatroid) -> bool:
    ground = list(m.ground)
    for size in range(len(ground) + 1):
        for x_combo in itertools.combinations(ground, size):
            x_set = frozenset(x_combo)
            for ysize in range(size + 1):
                for y_combo in itertools.combinations(x_combo, ysize):
                    y_set = frozenset(y_combo)
                    if (m.realization.rank(y_set) - mp.realization.rank(y_set)
                            > m.realization.rank(x_set) - mp.realization.rank(x_set)):
                        return False
    return True


def _small_pairs(seed, count):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        if rng.random() < 0.5:
            n = random_realization(rng, max_rows=3, max_cols=5)
            c = frozenset(e for e in n.ground if rng.random() < 0.3)
            if c == set(n.ground):
                c = frozenset()
            pairs.append(tuple(map(om, minors_of(n, c))))
        else:
            ncols = rng.randint(1, 5)
            a = random_realization(rng, max_rows=3, max_cols=ncols)
            b = OrientedRealization(
                a.ground,
                [[Fraction(rng.randint(-2, 2)) for _ in a.ground]
                 for _ in range(rng.randint(1, 3))])
            pairs.append((om(a), om(b)))
    return pairs


def test_pairwise_checks_agree_with_union_criteria():
    for m, mp in _small_pairs(43, 24):
        report = validate(m, mp)
        assert report.weak == _weak_by_unions(m, mp)
        assert report.oriented == _oriented_by_conformal_unions(m, mp)
        if len(m.ground) <= 6:
            assert report.weak == _rank_interval_everywhere(m, mp)


def _quotient_by_ranks(m: OrientedMatroid, mp: OrientedMatroid) -> bool:
    """r(S+e) - r(S) >= r'(S+e) - r'(S) for every S and every e not in S."""
    t, tp = m.rank_table(), mp.rank_table()
    n = len(m.ground)
    return all(t[s | 1 << i] - t[s] >= tp[s | 1 << i] - tp[s]
               for s in range(1 << n) for i in range(n) if not s >> i & 1)


def _same_ground_pairs(seed, count):
    """Alternately a from_major pair and two random integer matrices on one ground, n <= 6."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            n = random_realization(rng, max_rows=4, max_cols=6)
            c = frozenset(e for e in n.ground[1:] if rng.random() < 0.4)
            yield tuple(map(om, minors_of(n, c)))
        else:
            ncols = rng.randint(1, 6)
            yield tuple(om(OrientedRealization(range(1, ncols + 1),
                                               [[rng.randint(-2, 2) for _ in range(ncols)]
                                                for _ in range(rng.randint(0, 3))]))
                        for _ in "mm")


def test_weak_check_is_the_quotient_rank_criterion():
    weak = Counter()
    for m, mp in _same_ground_pairs(1205, 600):
        report = validate(m, mp)
        assert report.weak == _quotient_by_ranks(m, mp), (m.realization, mp.realization)
        weak[report.weak] += 1
        if report.weak:  # so Perspective's rank check and a negative z exponent cannot fire
            t, tp = m.rank_table(), mp.rank_table()
            assert all(t[-1] - t[s] >= tp[-1] - tp[s] for s in range(len(t)))
    assert weak[True] > 300 and weak[False] > 100


def _validation_cases(seed):
    """Valid from_major pairs, each also against a reoriented M', the random
    pairs of _small_pairs, and identity perspectives of random digraphs."""
    rng = random.Random(seed)
    for _ in range(12):
        n = random_realization(rng, max_rows=4, max_cols=8)
        c = frozenset(e for e in n.ground[1:] if rng.random() < 0.3)
        m, mp = map(om, minors_of(n, c))
        yield m, mp
        yield m, mp.reorient(rng.sample(mp.ground, rng.randint(1, len(mp.ground))))
    yield from _small_pairs(43, 24)
    for _ in range(8):
        o = om(from_digraph(random_digraph(rng, max_vertices=5, max_arcs=8)))
        yield o, o


def test_validate_matches_frozenset_oracle():
    reports = []
    for m, mp in _validation_cases(61):
        report = validate(m, mp)
        assert report == oracle_validate(m, mp)
        reports.append(report)
    # every outcome occurs, so both flags and both witnesses are compared
    assert any(r.passed for r in reports)
    assert any(not r.weak for r in reports)
    assert any(r.weak and not r.oriented for r in reports)


# -- perspective file format -------------------------------------------------------

MAJOR_TEXT = """\
# delete/contract factorization
major: digraph
1 a b
2 b c
3 c a
contract: 3
"""

PAIR_TEXT = """\
pair: digraph digraph
1 a b
2 a b
---
1 a b
2 a b
"""


def test_parse_major_form():
    p = parse_perspective(MAJOR_TEXT)
    assert p.ground == (1, 2)
    assert tutte3_closed(p) == Polynomial.parse("x*z + z + 1")


def test_parse_pair_form():
    # a comment after the separator leaves it a separator
    for text in (PAIR_TEXT, PAIR_TEXT.replace("---", "--- # second")):
        p = parse_perspective(text)
        assert p.ground == (1, 2)
        assert tutte3_closed(p) == tutte_closed(from_digraph(gallery.parallel_pair()))


def test_parse_major_matrix_form():
    p = parse_perspective("major: matrix\n2 3\n1 0 1\n0 1 1\ncontract: 3\n")
    assert p.ground == (1, 2)
    assert tutte3_closed(p) == Polynomial.parse("x*z + z + 1")


def test_parse_pair_rejects_invalid_pairs():
    bad = """\
pair: digraph matrix
1 a b
2 a b
---
2 2
1 0
0 1
"""
    with pytest.raises(PerspectiveError, match="witness"):
        parse_perspective(bad)


def test_parse_perspective_errors():
    with pytest.raises(Exception, match="contract"):
        parse_perspective("major: digraph\n1 a b\n")
    with pytest.raises(InputFormatError, match="line 7: a second 'contract:' line"):
        parse_perspective(MAJOR_TEXT + "contract: 1\n")
    with pytest.raises(Exception, match="header|major|pair"):
        parse_perspective("1 a b\n")
