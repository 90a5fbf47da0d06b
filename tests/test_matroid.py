"""Realizations, ranks, bases, activities, minors, duality."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omtutte.matroid import (
    Digraph,
    EnumerationGuardError,
    InputFormatError,
    MatroidError,
    OrientedRealization,
    _ratio,
    bases,
    basis_activities,
    from_digraph,
    tutte_bases,
    tutte_closed,
)
from omtutte.oriented import OrientedMatroid
from omtutte.poly import Polynomial, X, Y
from omtutte import gallery

from helpers import columns_of, oracle_rank, random_digraph, random_realization

BASE = Polynomial.parse("x^2 + x*y + y^2 + x + y")


def triangle():
    return from_digraph(gallery.directed_triangle())


# -- ingestion ------------------------------------------------------------------

def test_single_arc_incidence():
    m = from_digraph(gallery.single_arc())
    assert m.integer_columns == ((-1, 1),)
    assert m.rank() == 1


def test_loop_gives_zero_column():
    m = from_digraph(gallery.single_loop())
    assert m.integer_columns == ((0,),)
    assert m.rank() == 0
    assert OrientedMatroid(m).is_loop(1)


def test_triangle_rank_two():
    m = triangle()
    assert m.rank() == 2
    assert oracle_rank(columns_of(m, m.ground)) == 2


def test_duplicate_labels_rejected():
    with pytest.raises(MatroidError, match="duplicate"):
        Digraph.from_arcs([(1, "a", "b"), (1, "b", "c")])


def test_digraph_parse_and_comments():
    g = Digraph.parse("# triangle\n1 a b\n2 b c\n\n3 c a  # closing arc\n")
    assert g == gallery.directed_triangle()
    with pytest.raises(InputFormatError, match="line 2"):
        Digraph.parse("1 a b\n2 b\n")


def test_matrix_parse():
    m = OrientedRealization.parse_matrix("2 3\n1 0 1/2\n0 1 1\n")
    assert m.ground == (1, 2, 3)
    # column 3, (1/2, 1), cleared by the lcm 2 of its denominators
    assert m.integer_columns == ((1, 0), (0, 1), (1, 2))
    with pytest.raises(InputFormatError, match="entries"):
        OrientedRealization.parse_matrix("2 2\n1 0 0\n")
    with pytest.raises(MatroidError, match="^matrix row has 2 entries for 3 ground elements$"):
        OrientedRealization((1, 2, 3), [[1, 0, 1], [0, 1]])


def _parsed_or_error(text: str):
    try:
        return OrientedRealization.parse_matrix(text)
    except InputFormatError as exc:
        return str(exc)


def _via_fraction(tokens: list[str]):
    """What parsing a 1-row matrix of ``tokens`` gives when every entry goes through Fraction."""
    try:
        row = [Fraction(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational entry: {exc}"
    return OrientedRealization(range(1, len(tokens) + 1), [row])


def _assert_parses_like_fraction(tokens: list[str]):
    parsed = _parsed_or_error(f"1 {len(tokens)}\n{' '.join(tokens)}\n")
    expected = _via_fraction(tokens)
    if isinstance(expected, str):
        assert parsed == expected
    else:
        assert parsed.integer_columns == expected.integer_columns


PARSE_TOKENS = ["1/2", "-3", "+3", "1_000", "1.5", "1e3", "3/-2", "1/0", "\u0663", "--3",
                "0", "-0", "007", "4/6", "-10/4", "0/5", "1/02", "/3", "-", "1/2/3",
                "12345678901234567890/3"]


def test_matrix_parse_fast_path_matches_fraction():
    for token in PARSE_TOKENS:
        _assert_parses_like_fraction([token])
    valid = [t for t in PARSE_TOKENS if not isinstance(_via_fraction([t]), str)]
    _assert_parses_like_fraction(valid)
    _assert_parses_like_fraction(["1/2", "--3", "1/0"])  # the first bad entry is reported


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="0123456789-+/._e\u0663", min_size=1, max_size=6),
                min_size=1, max_size=4))
def test_matrix_parse_tokens_match_fraction(tokens):
    _assert_parses_like_fraction(tokens)


# tokens that leave the ASCII fast path, so Fraction decides them
SLOW_TOKENS = ["+1", " 2", "1.5", "3/6", "-0", "1/0", "1/-2"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True),
                 st.sampled_from(SLOW_TOKENS),
                 st.text(alphabet="0123456789-+/._e \u0663", min_size=1, max_size=6)))
def test_ratio_is_the_reduced_fraction(token):
    # with the columns cleared, _ratio is the only reader of an entry's value
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as raised:
            _ratio(token)
        assert type(raised.value) is type(exc)
    else:
        assert _ratio(token) == (expected.numerator, expected.denominator)


def test_matrix_parse_degenerate_shapes():
    loops = OrientedRealization.parse_matrix("0 3\n")
    assert loops.rank() == 0
    assert tutte_closed(loops) == Y ** 3
    empty = OrientedRealization.parse_matrix("1 0\n")
    assert tutte_closed(empty) == Polynomial.one()
    with pytest.raises(InputFormatError, match="non-negative"):
        OrientedRealization.parse_matrix("-1 2\n")


# -- rank oracle ------------------------------------------------------------------

def test_rank_of_empty_set_is_zero():
    assert triangle().rank(frozenset()) == 0


def test_rank_examples():
    m = triangle()
    assert m.rank({1, 2, 3}) == 2
    assert from_digraph(gallery.single_loop()).rank({1}) == 0


def test_rank_unknown_label_errors():
    with pytest.raises(MatroidError, match="unknown"):
        triangle().rank({7})


def test_rank_monotone_and_submodular():
    rng = random.Random(4021)
    for _ in range(15):
        m = random_realization(rng, max_rows=3, max_cols=6)
        ground = list(m.ground)
        for _ in range(12):
            a = frozenset(e for e in ground if rng.random() < 0.5)
            b = frozenset(e for e in ground if rng.random() < 0.5)
            assert m.rank(a) <= m.rank(a | b)
            assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)


def test_rank_matches_minor_oracle():
    rng = random.Random(77)
    for _ in range(10):
        m = random_realization(rng, max_rows=3, max_cols=5)
        subset = [e for e in m.ground if rng.random() < 0.6]
        assert m.rank(subset) == oracle_rank(columns_of(m, sorted(subset)))


# -- Tutte polynomial, both routes -------------------------------------------------

def test_tutte_closed_isthmus_and_loop():
    assert tutte_closed(from_digraph(gallery.single_arc())) == X
    assert tutte_closed(from_digraph(gallery.single_loop())) == Y


def test_tutte_closed_doubled_triangle():
    assert tutte_closed(from_digraph(gallery.doubled_triangle())) == BASE


def test_bases_triangle():
    assert bases(triangle()) == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]


def test_bases_counts():
    assert len(bases(from_digraph(gallery.doubled_triangle()))) == 5
    assert bases(from_digraph(gallery.single_loop())) == [frozenset()]


def test_basis_activities_examples():
    m = triangle()
    act = basis_activities(m, {1, 2})
    assert (act.iota, act.epsilon) == (2, 0)
    assert act.internal == {1, 2}
    act = basis_activities(m, {2, 3})
    assert (act.iota, act.epsilon) == (0, 1)
    assert act.external == {1}
    arc = from_digraph(gallery.single_arc())
    act = basis_activities(arc, {1})
    assert (act.iota, act.epsilon) == (1, 0)


def test_basis_activities_rejects_non_basis():
    with pytest.raises(MatroidError, match="not a basis"):
        basis_activities(triangle(), {1, 2, 3})


def test_tutte_bases_examples():
    assert tutte_bases(triangle()) == X ** 2 + X + Y
    assert tutte_bases(from_digraph(gallery.doubled_triangle())) == BASE
    assert tutte_bases(from_digraph(gallery.single_loop())) == Y


def test_state_sum_equals_closed_formula_on_random_instances():
    rng = random.Random(1009)
    for _ in range(12):
        m = from_digraph(random_digraph(rng))
        assert tutte_bases(m) == tutte_closed(m)
    for _ in range(8):
        m = random_realization(rng, max_rows=3, max_cols=6)
        assert tutte_bases(m) == tutte_closed(m)


def test_deletion_contraction_recursion():
    rng = random.Random(55)
    for _ in range(10):
        m = from_digraph(random_digraph(rng))
        t = tutte_closed(m)
        e = max(m.ground)
        om = OrientedMatroid(m)
        if om.is_loop(e):
            assert t == Y * tutte_closed(m.delete(e))
        elif om.is_isthmus(e):
            assert t == X * tutte_closed(m.delete(e))
        else:
            assert t == tutte_closed(m.delete(e)) + tutte_closed(m.contract(e))


def test_bases_count_is_tutte_at_one_one():
    rng = random.Random(31)
    for _ in range(10):
        m = from_digraph(random_digraph(rng))
        assert tutte_closed(m).evaluate({"x": 1, "y": 1}) == len(bases(m))


# -- minors and duality --------------------------------------------------------------

def test_contract_triangle_gives_parallel_pair():
    c = triangle().contract(3)
    assert c.ground == (1, 2)
    assert c.rank() == 1
    assert c.rank({1}) == 1 and c.rank({2}) == 1
    assert c.rank({1, 2}) == 1


def test_delete_isthmus_from_coloop_pair():
    path = from_digraph(Digraph.from_arcs([(1, "a", "b"), (2, "b", "c")]))
    d = path.delete(2)
    assert d.ground == (1,)
    assert tutte_closed(d) == X


def test_contract_loop_equals_delete():
    g = Digraph.from_arcs([(1, "a", "b"), (2, "a", "a")])
    m = from_digraph(g)
    contracted = m.contract(2)
    deleted = m.delete(2)
    assert contracted.ground == deleted.ground
    for size in range(len(contracted.ground) + 1):
        for combo in itertools.combinations(contracted.ground, size):
            assert contracted.rank(combo) == deleted.rank(combo)


def test_dual_examples():
    isthmus = from_digraph(gallery.single_arc())
    assert isthmus.dual().rank() == 0
    assert tutte_closed(isthmus.dual()) == Y
    assert triangle().dual().rank() == 1


def test_double_dual_preserves_ranks():
    rng = random.Random(9)
    for _ in range(8):
        m = random_realization(rng, max_rows=3, max_cols=5)
        dd = m.dual().dual()
        for size in range(len(m.ground) + 1):
            for combo in itertools.combinations(m.ground, size):
                assert m.rank(combo) == dd.rank(combo)


def test_dual_swaps_tutte_variables():
    rng = random.Random(14)
    for _ in range(10):
        m = from_digraph(random_digraph(rng))
        swapped = tutte_closed(m.dual()).substitute({"x": Y, "y": X})
        assert swapped == tutte_closed(m)


def test_dual_rank_complement():
    rng = random.Random(21)
    for _ in range(10):
        m = random_realization(rng, max_rows=3, max_cols=6)
        assert m.dual().rank() == len(m.ground) - m.rank()


# -- enumeration plumbing ----------------------------------------------------------

def test_enumeration_guard():
    wide = OrientedRealization(range(1, 22), [[Fraction(0)] * 21])
    with pytest.raises(EnumerationGuardError, match="--force"):
        tutte_closed(wide)
    # rank 0, so the only basis is the empty set; admitting the table makes it reachable
    wide.rank_table(force=True)
    assert bases(wide) == [frozenset()]
