"""The 4-variable activity expansion, its specializations, counts, and derivatives."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omtutte.matroid import Digraph, MatroidError, OrientedRealization, from_digraph
from omtutte.expansions import (
    IdentityError,
    DichotomyCase,
    DichotomyError,
    ExpansionReport,
    count_acyclic,
    count_basic_orientations,
    count_bounded,
    deletion_contraction_check,
    derivative_diag,
    derivative_expansion,
    expansion_sum,
    dichotomy_case,
    doubling_expansion,
    signed_sum,
    specialization_suite,
)
from omtutte.oriented import OrientedMatroid
from omtutte.perspective import (
    Perspective,
    bounded_perspective,
    from_major,
    identity_perspective,
    tutte3_closed,
    validate,
)
from omtutte.poly import Monomial, Polynomial, ONE, U, V, X, Y
from omtutte import cli, expansions, gallery, render

from helpers import (
    TABLE_COLUMNS,
    every_arc_on_directed_cycle,
    has_directed_cycle,
    is_acyclic,
    is_totally_cyclic,
    loop_at_contraction,
    minors_of,
    monomial_of,
    oracle_dichotomy_case,
    oracle_expansion,
    oracle_json_table,
    oracle_table_rows,
    random_digraph,
    random_realization,
    record_of,
    rows_of,
)


def identity_of(digraph):
    return identity_perspective(from_digraph(digraph))


def path_to_parallel():
    return from_major(from_digraph(gallery.directed_triangle()), {3})


def two_graph_perspective():
    major, c = gallery.bridged_triangle_major()
    return from_major(from_digraph(major), c)


# -- single-row records ----------------------------------------------------------

def test_monomial_of_loop_identity():
    rec = monomial_of(identity_of(gallery.single_loop()), frozenset())
    assert rec.monomial == Monomial.from_exponents({"y": 1})


def test_monomial_of_path_to_parallel():
    # flipping arc 1 of the contracted 2-cycle makes its cut unidirectional
    rec = monomial_of(path_to_parallel(), {1})
    assert rec.dual_active == {1}
    assert rec.dual_in == {1}
    assert rec.monomial == Monomial.from_exponents({"u": 1})
    both = monomial_of(path_to_parallel(), {1, 2})
    assert both.dual_active == frozenset()
    assert both.monomial == Monomial.one()


def test_monomial_of_isthmus_identity():
    rec = monomial_of(identity_of(gallery.single_arc()), {1})
    assert rec.monomial == Monomial.from_exponents({"u": 1})


# -- the main expansion ------------------------------------------------------------

def test_expansion_isthmus():
    report = expansion_sum(identity_of(gallery.single_arc()))
    assert report.total == X + U
    assert report.passed


def test_expansion_path_to_parallel():
    report = expansion_sum(path_to_parallel())
    assert report.total == X + U + 2 * ONE
    assert report.passed


def test_expansion_row_count_and_order():
    p = identity_of(gallery.directed_triangle())
    report = expansion_sum(p)
    assert len(report.rows) == 8
    assert [sorted(r.A) for r in report.rows[:4]] == [[], [1], [2], [1, 2]]


def test_sweep_matches_per_subset_oracles():
    # every row of the sweep against the slow reorient-and-scan route, the
    # expansion against the sum of the oracle's monomials, and the bounded count against
    # acyclicity of -_A M and total cyclicity of -_A M'
    rng = random.Random(97)
    perspectives = []
    while len(perspectives) < 8:
        n = random_realization(rng, max_rows=4, max_cols=8)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c and c != set(n.ground):
            p = from_major(n, c)
            if p.rank_drop():
                perspectives.append(p)
    perspectives += [identity_perspective(from_digraph(
        random_digraph(rng, max_vertices=5, max_arcs=7))) for _ in range(6)]
    for p in perspectives:
        report = expansion_sum(p)
        assert len(report.rows) == 1 << len(p.ground)
        oracle = [monomial_of(p, row.A) for row in report.rows]
        assert list(report.rows) == oracle
        assert report.total == Polynomial(Counter(rec.monomial for rec in oracle))
        bounded = sum(is_acyclic(p.m.reorient(rec.A))
                      and is_totally_cyclic(p.mprime.reorient(rec.A)) for rec in oracle)
        assert count_bounded(p) == bounded


def differential_perspectives(rng):
    """Identity and rank-drop perspectives, loops and isthmi, and the empty ground set."""
    out = [identity_perspective(OrientedRealization((), []))]
    while len(out) < 9:
        n = random_realization(rng, max_rows=4, max_cols=10)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c and len(n.ground) - len(c) >= 4:
            p = from_major(n, c)
            if p.rank_drop():
                out.append(p)
    for _ in range(4):
        out.append(identity_perspective(random_realization(rng, max_rows=4, max_cols=9)))
        # random digraphs may carry loops
        out.append(identity_perspective(from_digraph(
            random_digraph(rng, max_vertices=5, max_arcs=8))))
    for _ in range(3):
        # a zero column (a loop) and a column alone in its own row (an isthmus)
        m = random_realization(rng, max_rows=3, max_cols=6)
        rows = [list(row) + [0, 0] for row in rows_of(m)] + [[0] * len(m.ground) + [0, 1]]
        out.append(identity_perspective(OrientedRealization(range(1, len(m.ground) + 3), rows)))
    return out


def test_sweep_matches_per_mask_oracle():
    # the whole expansion, the per-A masks and the rows against the per-mask loop
    for p in differential_perspectives(random.Random(71)):
        report = expansion_sum(p)
        active, dual, total = oracle_expansion(p)
        assert report.total == total
        assert list(report.active) == active
        assert list(report.dual) == dual
        ground = p.ground

        def labels(mask):
            return frozenset(e for i, e in enumerate(ground) if mask >> i & 1)

        assert list(report.rows) == [record_of(labels(a), labels(act), labels(co))
                                     for a, (act, co) in enumerate(zip(active, dual))]


def test_len_and_histogram_reads_build_no_per_a_masks():
    # README "Lazy rows": only reading a row or a mask transposes the sweep's per-element sets
    # into the report's cached per-A arrays
    p = identity_of(gallery.doubled_triangle())
    report = expansion_sum(p)
    assert len(report.rows) == 1 << len(p.ground)
    assert report.passed and specialization_suite(p).passed
    count_bounded(p)
    signed_sum(p)
    derivative_expansion(p, 1, 0)
    derivative_diag(p, 1)
    assert "active" not in vars(report) and "dual" not in vars(report)
    report.rows[-1]
    assert "active" in vars(report) and "dual" in vars(report)
    assert expansion_sum(p) is report


def test_expansion_sum_keeps_one_report_per_perspective():
    p = two_graph_perspective()
    assert expansion_sum(p) is expansion_sum(p)
    # an identity perspective, and so its report, lives as long as its oriented matroid,
    # and as long as the realization whose cache every OrientedMatroid of it shares
    assert expansion_sum(identity_perspective(p.m)) is expansion_sum(identity_perspective(p.m))
    m = p.m.realization
    assert identity_perspective(m) is identity_perspective(m) is identity_perspective(p.m)


def test_consequences_sweep_only_the_recursion_minors(monkeypatch):
    # sweeps counted by ground-set size: once p is swept, the consequence functions
    # read its kept report, and the recursion sweeps only its two new minor perspectives
    p = two_graph_perspective()
    n = len(p.ground)
    expansion_sum(p)
    expansion_sum(identity_perspective(p.m))
    swept = []
    in_sets = expansions._in_sets
    monkeypatch.setattr(expansions, "_in_sets", lambda size: swept.append(size) or in_sets(size))
    assert specialization_suite(p).passed
    count_bounded(p)
    signed_sum(p)
    derivative_expansion(p, 1, 0)
    derivative_diag(p, 1)
    count_acyclic(p.m)
    count_basic_orientations(p.m)
    assert swept == []
    assert deletion_contraction_check(p)
    assert swept == [n - 1, n - 1]


def test_counts_on_one_realization_sweep_once(monkeypatch):
    # each OrientedMatroid(m) keeps its cache in m's, so every count of m reads one identity
    # perspective and its one kept sweep
    m = from_digraph(gallery.doubled_triangle())
    swept = []
    in_sets = expansions._in_sets
    monkeypatch.setattr(expansions, "_in_sets", lambda size: swept.append(size) or in_sets(size))
    acyclic = count_acyclic(m)
    count_basic_orientations(m)
    assert count_acyclic(m) == acyclic
    assert count_acyclic(OrientedMatroid(m)) == acyclic
    assert swept == [len(m.ground)]


def test_expansion_symmetric_under_complement_swap():
    rng = random.Random(51)
    for _ in range(6):
        p = identity_perspective(random_realization(rng, max_rows=3, max_cols=6))
        total = expansion_sum(p).total
        swapped = total.substitute({"x": U, "u": X, "y": V, "v": Y})
        assert swapped == total


def test_tsv_serialization():
    report = expansion_sum(identity_of(gallery.single_loop()))
    assert report.to_tsv() == (
        "A\tdual_active\tactive\tdual_out\tdual_in\tactive_out\tactive_in\tmonomial\n"
        "-\t-\t1\t-\t-\t1\t-\ty\n"
        "1\t-\t1\t-\t-\t-\t1\tv\n"
    )
    payload = report.to_json_dict()
    assert payload["pass"] is True
    assert payload["sum"] == "y + v"
    assert len(payload["rows"]) == 2


def directed_cycle(n):
    return Digraph.from_arcs([(i + 1, f"v{i}", f"v{(i + 1) % n}") for i in range(n)])


def test_json_table_matches_the_json_module_on_the_oracle_records():
    # the seeded inputs hold the empty ground set; 13 elements are 8192 rows in two blocks
    perspectives = differential_perspectives(random.Random(71)) + [
        identity_of(gallery.single_loop()), identity_of(gallery.single_arc()),
        two_graph_perspective(), bounded_perspective(from_digraph(gallery.directed_triangle()), 3),
        identity_of(directed_cycle(13))]
    for p in perspectives:
        assert "".join(expansion_sum(p).blocks(json=True)) == oracle_json_table(p), p.ground


def test_json_table_of_a_failed_identity_reads_pass_false():
    p = identity_of(gallery.doubled_triangle())
    report = expansion_sum(p)
    falsified = ExpansionReport(p, report.active_sets, report.dual_sets, report.total + X)
    text = "".join(falsified.blocks(json=True))
    assert text == oracle_json_table(p, total=report.total + X)
    assert '\n  "pass": false,\n' in text


def test_a_table_of_two_blocks_matches_the_oracle_records():
    p = identity_of(directed_cycle(13))
    report = expansion_sum(p)
    rows = [TABLE_COLUMNS, *(row.values() for row in oracle_table_rows(p))]
    assert report.to_tsv() == "".join("\t".join(row) + "\n" for row in rows)
    tsv_rows = [len([line for line in piece.split("\n") if line and line != "\t".join(rows[0])])
                for piece in report.blocks()]
    json_rows = [piece.count('"A": ') for piece in report.blocks(json=True)]
    for counted in (tsv_rows, json_rows):
        assert len(counted) > 2
        assert sum(counted) == 8192
        assert max(counted) <= render._BLOCK_ROWS


# -- two-variable specializations -------------------------------------------------------

def test_doubling_small_cases():
    assert doubling_expansion(identity_of(gallery.single_loop())) == 2 * Y
    assert doubling_expansion(identity_of(gallery.single_arc())) == 2 * X


def test_doubling_doubled_triangle():
    p = identity_of(gallery.doubled_triangle())
    expected = Polynomial.parse("4*x^2 + 4*x*y + 4*y^2 + 2*x + 2*y")
    assert doubling_expansion(p) == expected
    doubled = tutte3_closed(p).substitute({"z": 1}).substitute({"x": 2 * X, "y": 2 * Y})
    assert doubling_expansion(p) == doubled


def test_doubling_matches_substitution_on_perspectives():
    p = two_graph_perspective()
    doubled = tutte3_closed(p).substitute({"z": 1}).substitute({"x": 2 * X, "y": 2 * Y})
    assert doubling_expansion(p) == doubled


def test_specialization_suite_doubled_triangle():
    report = specialization_suite(identity_of(gallery.doubled_triangle()))
    assert report.passed
    assert report.two_zero == 6


def test_specialization_suite_loop_and_isthmus():
    loop = specialization_suite(identity_of(gallery.single_loop()))
    assert loop.restricted == Y
    assert loop.passed
    isthmus = specialization_suite(identity_of(gallery.single_arc()))
    assert isthmus.doubling_out == 2
    assert isthmus.doubling_in == 2
    assert isthmus.passed


def test_specialization_suite_on_perspective():
    assert specialization_suite(two_graph_perspective()).passed


def test_specialization_passed_compares_every_value():
    report = specialization_suite(identity_of(gallery.doubled_triangle()))
    for field, value in report._asdict().items():
        assert not report._replace(**{field: value + 1}).passed, field


# -- counting identities ------------------------------------------------------------

def test_count_acyclic_examples():
    triangle = from_digraph(gallery.directed_triangle())
    assert count_acyclic(triangle) == 6
    assert count_acyclic(from_digraph(gallery.doubled_triangle())) == 6
    assert count_acyclic(from_digraph(gallery.single_loop())) == 0


def test_count_acyclic_matches_graph_oracle_and_evaluation():
    rng = random.Random(67)
    for _ in range(8):
        g = random_digraph(rng)
        m = from_digraph(g)
        n = len(m.ground)
        brute = sum(
            not has_directed_cycle(g, frozenset(m.ground[i] for i in range(n)
                                                if mask >> i & 1))
            for mask in range(1 << n))
        value = count_acyclic(m)
        assert value == brute
        from omtutte.matroid import tutte_closed
        assert value == tutte_closed(m).evaluate({"x": 2, "y": 0})


def test_count_bounded_zero_with_coloop():
    assert count_bounded(identity_of(gallery.single_arc())) == 0


def test_count_bounded_matches_graph_oracles():
    # acyclicity of the deletion and total cyclicity of the contraction,
    # both checked on the digraphs themselves
    major, c = gallery.bridged_triangle_major()
    deleted = Digraph.from_arcs([a for a in major.arcs if a[0] not in c])
    merged = {"v4": "v1", "v5": "v3"}
    contracted = Digraph.from_arcs(
        [(lab, merged.get(t, t), merged.get(h, h))
         for lab, t, h in major.arcs if lab not in c])
    p = two_graph_perspective()
    ground = p.ground
    brute = 0
    for mask in range(1 << len(ground)):
        a = frozenset(ground[i] for i in range(len(ground)) if mask >> i & 1)
        if not has_directed_cycle(deleted, a) and every_arc_on_directed_cycle(contracted, a):
            brute += 1
    assert count_bounded(p) == brute == 10


def test_signed_sum_isthmus():
    assert signed_sum(identity_of(gallery.single_arc())) == 0


def test_signed_sum_raises_when_its_sign_variants_disagree(monkeypatch):
    # an extra u term adds +1 at two of the four sign points and -1 at the other two
    real = expansions.expansion_sum

    def falsified(p):
        report = real(p)
        return ExpansionReport(report.perspective, report.active_sets, report.dual_sets,
                               report.total + U)

    monkeypatch.setattr(expansions, "expansion_sum", falsified)
    with pytest.raises(IdentityError, match="sign-variant alternating sums disagree"):
        signed_sum(identity_of(gallery.doubled_triangle()))


def test_count_basic_orientations():
    assert count_basic_orientations(from_digraph(gallery.doubled_triangle())) == (5, 5)
    assert count_basic_orientations(from_digraph(gallery.single_loop())) == (1, 1)
    assert count_basic_orientations(from_digraph(gallery.directed_triangle())) == (3, 3)


# -- derivatives -----------------------------------------------------------------------

def test_negative_derivative_orders_raise_before_any_sweep(monkeypatch):
    p = identity_of(gallery.doubled_triangle())
    swept = []
    in_sets = expansions._in_sets
    monkeypatch.setattr(expansions, "_in_sets", lambda size: swept.append(size) or in_sets(size))
    with pytest.raises(ValueError, match="^derivative orders must be non-negative$"):
        derivative_expansion(p, -1, 0)
    with pytest.raises(ValueError, match="^derivative orders must be non-negative$"):
        derivative_expansion(p, 0, -1)
    with pytest.raises(ValueError, match="^derivative order must be non-negative$"):
        derivative_diag(p, -1)
    assert swept == []


def test_derivative_expansion_matches_formal_everywhere():
    rng = random.Random(71)
    for _ in range(6):
        p = identity_perspective(from_digraph(random_digraph(rng)))
        base = tutte3_closed(p).substitute({"z": 1})
        n = len(p.ground)
        for dp in range(n + 2):
            for dq in range(n + 2 - dp):
                formal = base.partial_derivative("x", dp).partial_derivative("y", dq)
                assert derivative_expansion(p, dp, dq) == formal


def test_derivative_diag():
    # t(x,x) = 3x^2 + 2x here, so the first diagonal derivative is 6x + 2
    p = identity_of(gallery.doubled_triangle())
    assert derivative_diag(p, 1) == 6 * X + 2 * ONE
    diag = tutte3_closed(p).substitute({"z": 1}).substitute({"y": X})
    assert derivative_diag(p, 0) == diag
    assert derivative_diag(p, 7) == Polynomial.zero()


def test_derivative_diag_matches_formal():
    rng = random.Random(73)
    for _ in range(5):
        p = identity_perspective(from_digraph(random_digraph(rng)))
        diag = tutte3_closed(p).substitute({"z": 1}).substitute({"y": X})
        for dp in range(len(p.ground) + 2):
            assert derivative_diag(p, dp) == diag.partial_derivative("x", dp)


def test_taylor_reconstruction():
    rng = random.Random(79)
    for _ in range(5):
        p = identity_perspective(from_digraph(random_digraph(rng)))
        report = expansion_sum(p)
        rebuilt = Polynomial.zero()
        n = len(p.ground)
        for dp in range(n + 1):
            for dq in range(n + 1 - dp):
                raw = Polynomial.zero()
                for row in report.rows:
                    if len(row.dual_in) == dp and len(row.active_in) == dq:
                        raw = raw + X ** len(row.dual_out) * Y ** len(row.active_out)
                assert derivative_expansion(p, dp, dq) == (
                    math.factorial(dp) * math.factorial(dq) * raw)
                rebuilt = rebuilt + U ** dp * V ** dq * raw
        assert rebuilt == report.total


# -- dichotomy and recursion ---------------------------------------------------

def test_dichotomy_examples():
    assert dichotomy_case(identity_of(gallery.parallel_pair())) in set(DichotomyCase)
    two_coloops = identity_of(Digraph.from_arcs([(1, "a", "b"), (2, "b", "c")]))
    assert dichotomy_case(two_coloops) == DichotomyCase.BOTH
    single = identity_of(gallery.single_arc())
    assert dichotomy_case(single) == DichotomyCase.BOTH


def test_dichotomy_error_names_every_minimum_on_an_unvalidated_pair():
    # 3 and 5 parallel in M, anti-parallel in M': no strong map, and no case holds at 5.
    # By hand: M/5 makes 3 a loop and -5 M makes {3, 5} a positive circuit; M'\5 leaves
    # the cocircuit {3} and -5 M' makes {3, 5} a positive cocircuit.
    real_m = OrientedRealization((3, 5), [[1, 1]])
    real_mp = OrientedRealization((3, 5), [[-1, 1]])
    p = Perspective.__new__(Perspective)  # bypasses the strong-map scans, which reject the pair
    p.m, p.mprime = OrientedMatroid(real_m), OrientedMatroid(real_mp)
    p._expansion, p._minors = None, {}  # the slots __init__ sets; the pair's minors pass validation
    assert not validate(p.m, p.mprime).passed
    assert oracle_dichotomy_case(real_m, real_mp) is None
    with pytest.raises(DichotomyError) as raised:
        dichotomy_case(p)
    assert str(raised.value) == (
        "neither dichotomy case holds at greatest element 5: "
        "active(M)=[], active(M\\e)=[], active(M/e)=[3], active(-eM)=[3]; "
        "dual(M')=[], dual(M'\\e)=[3], dual(M'/e)=[], dual(-eM')=[3]")


def test_dichotomy_needs_a_ground_element():
    with pytest.raises(MatroidError, match="^the dichotomy needs at least one ground element$"):
        dichotomy_case(identity_perspective(OrientedRealization((), [])))


def _dichotomy_instances(rng):
    """(kind, perspective, matrix of M, matrix of M'): from_major on seeded majors,
    and the identity and every bounded perspective of seeded matrices and digraphs, each
    digraph also with one more arc on top that is a loop or an isthmus."""
    for _ in range(60):
        n = random_realization(rng, max_rows=3, max_cols=6)
        c = frozenset(e for e in n.ground if rng.random() < 0.3)
        if c == set(n.ground):
            c = frozenset()
        yield "from_major", from_major(n, c), *minors_of(n, c)
    matrices = [random_realization(rng, max_rows=3, max_cols=5) for _ in range(12)]
    for _ in range(12):
        g = random_digraph(rng, max_vertices=4, max_arcs=5)
        top, v = len(g.arcs) + 1, rng.choice(g.vertices)
        matrices += [from_digraph(Digraph.from_arcs(g.arcs + extra))
                     for extra in ((), ((top, v, v),), ((top, v, "pendant"),))]
    for m in matrices:
        yield "identity", identity_perspective(m), m, m
        om = OrientedMatroid(m)
        for e in m.ground:
            if not (om.is_loop(e) or om.is_isthmus(e)):
                yield "bounded", bounded_perspective(m, e), m, loop_at_contraction(m, e)


def test_dichotomy_case_matches_the_matrix_oracle():
    seen, tops = Counter(), Counter()
    for kind, p, real_m, real_mp in _dichotomy_instances(random.Random(97)):
        case = dichotomy_case(p)
        assert case == oracle_dichotomy_case(real_m, real_mp), (kind, real_m, real_mp)
        seen[kind, case] += 1
        top = p.ground[-1]
        tops["loop"] += p.m.is_loop(top) or p.mprime.is_loop(top)
        tops["isthmus"] += p.m.is_isthmus(top) or p.mprime.is_isthmus(top)
    # each case comes out on each kind
    assert set(seen) == {(kind, case) for kind in ("from_major", "identity", "bounded")
                         for case in DichotomyCase}
    assert tops["loop"] and tops["isthmus"]


def _greatest_element_rule(masks, in_a, out_a, full):
    """``_active_sets`` with the wrong rule: each positive member credits its greatest element."""
    out = [0] * len(in_a)
    for pos, sup in masks:
        positive = full
        for i in range(len(in_a)):
            if sup >> i & 1:
                positive &= out_a[i] if pos >> i & 1 else in_a[i]
        out[sup.bit_length() - 1] |= positive
    return out


def _greatest_on_cocircuits():
    """The right rule for circuits, the greatest-element rule for cocircuits: a sweep reads
    M's circuits, then M''s cocircuits."""
    rules = itertools.cycle((expansions._active_sets, _greatest_element_rule))
    return lambda *args: next(rules)(*args)


def _verify_fails(p):
    """Whether one of the checks ``omtutte verify`` runs fails on p."""
    if not (expansion_sum(p).passed and specialization_suite(p).passed):
        return True
    try:
        dichotomy_case(p)
    except DichotomyError:
        return True
    return not deletion_contraction_check(p)


@pytest.mark.parametrize("mutant, floor", [
    (lambda: _greatest_element_rule, 80),
    (_greatest_on_cocircuits, 45),
], ids=["greatest", "greatest-on-cocircuits"])
def test_verify_catches_a_sweep_with_the_wrong_activity_rule(tmp_path, capsys, monkeypatch,
                                                             mutant, floor):
    # the greatest-element rule is the smallest-element rule in the reversed order, so the
    # expansion and the recursion still hold: only the dichotomy, read off the sweeps, fails
    monkeypatch.setattr(expansions, "_active_sets", mutant())
    for digraph in (gallery.directed_triangle(), gallery.doubled_triangle()):
        path = tmp_path / "d.dg"
        path.write_text("".join(f"{a} {t} {h}\n" for a, t, h in digraph.arcs))
        assert cli.main(["verify", "--input", str(path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith("neither dichotomy case holds at greatest element ")
    instances = [p for _, p, _, _ in _dichotomy_instances(random.Random(97))]
    assert len(instances) == 196
    assert sum(map(_verify_fails, instances)) >= floor


def _dichotomy_reading(p):
    """``expansions._dichotomy_sets`` with the set of A in E minus e at which neither case holds."""
    own, case_i, case_ii = expansions._dichotomy_sets(p)
    return own, (1 << (1 << len(p.ground) - 1)) - 1 & ~(case_i | case_ii), case_i, case_ii


def test_dichotomy_holds_at_every_reorientation():
    cases = {(1, 1): DichotomyCase.BOTH, (1, 0): DichotomyCase.CASE_I,
             (0, 1): DichotomyCase.CASE_II}
    rng = random.Random(38)
    for kind, p, real_m, real_mp in _dichotomy_instances(random.Random(97)):
        own, failing, case_i, case_ii = _dichotomy_reading(p)
        assert (own, failing) == (True, 0), (p.ground, p.m, p.mprime)
        # the case at two seeded A, against the oracle on the matrices reoriented on A
        for a in (rng.getrandbits(len(p.ground) - 1) for _ in range(2)):
            A = {e for i, e in enumerate(p.ground) if a >> i & 1}
            oracle = oracle_dichotomy_case(real_m.negate_columns(A), real_mp.negate_columns(A))
            assert cases.get((case_i >> a & 1, case_ii >> a & 1)) == oracle, (kind, p.ground, A)
    for digraph in (gallery.directed_triangle(), gallery.doubled_triangle()):
        assert _dichotomy_reading(identity_of(digraph))[:2] == (True, 0)


def test_the_dichotomy_at_every_reorientation_catches_the_greatest_element_rule(monkeypatch):
    monkeypatch.setattr(expansions, "_active_sets", _greatest_element_rule)
    for digraph in (gallery.directed_triangle(), gallery.doubled_triangle()):
        assert _dichotomy_reading(identity_of(digraph))[:2] != (True, 0)
    checks = [_dichotomy_reading(p) for _, p, _, _ in _dichotomy_instances(random.Random(97))]
    assert len(checks) == 196
    # each half of the check, e's own sets and the sets below e, catches it on its own
    assert sum(not own for own, *_ in checks) >= 70
    assert sum(failing != 0 for _, failing, *_ in checks) >= 70


def test_dichotomy_error_names_the_first_failing_reorientation(monkeypatch):
    # under the greatest-element rule, instance 41 holds case i at A = {} and neither case at
    # A = {1}, and its greatest element's own sets are wrong too: the first failing A is named
    monkeypatch.setattr(expansions, "_active_sets", _greatest_element_rule)
    _, p, _, _ = next(itertools.islice(_dichotomy_instances(random.Random(97)), 41, None))
    own, case_i, case_ii = expansions._dichotomy_sets(p)
    assert (own, (case_i | case_ii) & 0b11) == (False, 0b01)
    with pytest.raises(DichotomyError) as raised:
        dichotomy_case(p)
    assert str(raised.value) == (
        "neither dichotomy case holds at greatest element 5 in the reorientation on A=[1]: "
        "active(M)=[], active(M\\e)=[], active(M/e)=[2, 3], active(-eM)=[]; "
        "dual(M')=[], dual(M'\\e)=[], dual(M'/e)=[], dual(-eM')=[]")


def test_dichotomy_error_names_wrong_sets_of_the_greatest_element():
    # arc 4 is an isthmus of M = M', so it is dual-active at every A; with that set emptied
    # every A below it still holds, and only e's own sets fail
    p = identity_of(Digraph.from_arcs(
        [(1, "a", "b"), (2, "b", "c"), (3, "c", "a"), (4, "c", "d")]))
    report = expansion_sum(p)
    assert report.dual_sets[3] == (1 << 16) - 1
    p._expansion = ExpansionReport(p, report.active_sets, [*report.dual_sets[:3], 0],
                                   report.total)
    own, case_i, case_ii = expansions._dichotomy_sets(p)
    assert (own, case_i | case_ii) == (False, 0xFF)
    with pytest.raises(DichotomyError) as raised:
        dichotomy_case(p)
    assert str(raised.value) == (
        "neither dichotomy case holds at greatest element 4: its own sets are wrong, "
        "active in 0 and dual-active in 0 of 16 reorientations")


@pytest.mark.parametrize("text, sweeps", [
    ("".join(f"{n} k{i} k{j}\n" for n, (i, j) in
             enumerate(itertools.combinations(range(5), 2), start=1)), 3),  # K5
    ("major: digraph\n1 a b\n2 b c\n3 c a\ncontract: 3\n", 3),
    # the top arc 4 is a bridge of M = N minus 5 and of M' = N/5
    ("major: digraph\n1 a b\n2 b c\n3 c a\n4 c d\n5 b c\ncontract: 5\n", 2),
    ("major: digraph\n1 a b\n2 b c\n3 c a\n4 a a\n5 b c\ncontract: 5\n", 2),  # 4 a loop
], ids=["K5", "major", "major-isthmus", "major-loop"])
def test_verify_sweeps_p_and_each_minor_once_and_reorients_nothing(tmp_path, capsys,
                                                                   monkeypatch, text, sweeps):
    def refuse(self, labels):
        raise AssertionError("verify reoriented a matroid")

    built, validated = [], []
    check = validate

    class Counted(ExpansionReport):
        def __init__(self, perspective, *sets):
            built.append(perspective)
            super().__init__(perspective, *sets)

    monkeypatch.setattr(OrientedMatroid, "reorient", refuse)
    monkeypatch.setattr(expansions, "ExpansionReport", Counted)
    monkeypatch.setattr("omtutte.perspective.validate",
                        lambda m, mprime: validated.append(m) or check(m, mprime))
    path = tmp_path / "p.in"
    path.write_text(text)
    fmt = "perspective" if text.startswith("major:") else "digraph"
    assert cli.main(["verify", "--input", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out.endswith("deletion/contraction recursion: pass\n")
    assert len(built) == len(validated) == len(set(map(id, built))) == sweeps
    p = built[0]
    top = p.ground[-1]
    assert p.minor_delete(top) is p.minor_delete(top)
    # p minus e, then p/e unless e is an isthmus of M' or a loop of M; a Perspective is its identity
    assert built[1:] == [p.minor_delete(top), p.minor_contract(top)][:sweeps - 1]


def test_deletion_contraction_isthmus_and_loop_cases():
    coloop_top = identity_of(Digraph.from_arcs(
        [(1, "a", "b"), (2, "b", "c"), (3, "c", "a"), (4, "c", "d")]))
    assert deletion_contraction_check(coloop_top)
    full = expansion_sum(coloop_top).total
    minor = expansion_sum(coloop_top.minor_delete(4)).total
    assert full == (X + U) * minor

    loop_top = identity_of(Digraph.from_arcs(
        [(1, "a", "b"), (2, "b", "c"), (3, "c", "a"), (4, "c", "c")]))
    assert deletion_contraction_check(loop_top)
    full = expansion_sum(loop_top).total
    minor = expansion_sum(loop_top.minor_delete(4)).total
    assert full == (Y + V) * minor


def test_empty_perspective_sums_to_one():
    empty = identity_perspective(OrientedRealization((), []))
    report = expansion_sum(empty)
    assert report.total == ONE
    assert report.passed
    assert deletion_contraction_check(empty)


arc_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=5)


@settings(deadline=None, max_examples=60)
@given(arc_lists)
def test_main_identity_shrinkable(arcs):
    g = Digraph.from_arcs([(i + 1, f"m{t}", f"m{h}") for i, (t, h) in enumerate(arcs)])
    p = identity_perspective(from_digraph(g))
    report = expansion_sum(p)
    assert report.passed
    assert len(report.rows) == 1 << len(p.ground)
