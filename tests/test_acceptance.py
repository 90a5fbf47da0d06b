"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Every assertion is exact (integer or polynomial equality); the only
tolerances are the two stated wall-clock budgets.  The random sweeps use the
recorded seeds below, so runs are reproducible.
"""

import random
import time

import pytest

from omtutte.matroid import from_digraph, bases, tutte_bases, tutte_closed
from omtutte.oriented import OrientedMatroid, minty_check, orientation_active_sets
from omtutte.perspective import (
    bounded_perspective,
    from_major,
    identity_perspective,
    tutte3_closed,
    validate,
)
from omtutte.expansions import (
    DichotomyCase,
    count_acyclic,
    count_basic_orientations,
    count_bounded,
    deletion_contraction_check,
    derivative_expansion,
    expansion_sum,
    dichotomy_case,
    signed_sum,
)
from omtutte.poly import Polynomial, ONE, U, V, X, Y
from omtutte import gallery

from helpers import (
    DOUBLED_TRIANGLE_ROWS,
    TWO_GRAPH_ROWS,
    labels_of,
    random_digraph,
    random_realization,
)

DIGRAPH_SWEEP_SEED = 4650321
DIGRAPH_SWEEP_SIZE = 200
PERSPECTIVE_SWEEP_SEED = 84
PERSPECTIVE_SWEEP_SIZE = 100

BASE = Polynomial.parse("x^2 + x*y + y^2 + x + y")
SHIFTED_BASE = ((X + U) ** 2 + (X + U) * (Y + V) + (Y + V) ** 2
                + (X + U) + (Y + V))
TWO_GRAPH_TUTTE = Polynomial.parse("x^2 + 5*x + 4*y + 10")


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def digraph_sweep():
    start = time.monotonic()
    rng = random.Random(DIGRAPH_SWEEP_SEED)
    instances = []
    for _ in range(DIGRAPH_SWEEP_SIZE):
        g = random_digraph(rng, max_vertices=4, max_arcs=5)
        p = identity_perspective(from_digraph(g))
        instances.append((g, p, expansion_sum(p)))
    return instances, time.monotonic() - start


def test_criterion_1_worked_polynomial_three_routes():
    start = time.monotonic()
    m = from_digraph(gallery.doubled_triangle())
    closed = tutte_closed(m)
    by_bases = tutte_bases(m)
    report = expansion_sum(identity_perspective(m))
    restricted = Polynomial.zero()
    restricted_swap = Polynomial.zero()
    for row in report.rows:
        if not row.dual_in and not row.active_in:
            restricted = restricted + X ** len(row.dual_out) * Y ** len(row.active_out)
        if not row.dual_out and not row.active_out:
            restricted_swap = (restricted_swap
                               + X ** len(row.dual_in) * Y ** len(row.active_in))
    elapsed = time.monotonic() - start
    ok = (closed == BASE and by_bases == BASE and restricted == BASE
          and restricted_swap == BASE and elapsed < 1.0)
    report_line(1, ok,
                f"doubled triangle gives {closed} by all three routes "
                f"in {elapsed:.3f}s")


def test_criterion_2_sixteen_row_identity_and_table():
    p = identity_perspective(from_digraph(gallery.doubled_triangle()))
    report = expansion_sum(p)
    rows_ok = len(report.rows) == 16
    for row in report.rows:
        dual, active, d_out, d_in, a_out, a_in, monomial = \
            DOUBLED_TRIANGLE_ROWS[tuple(sorted(row.A))]
        rows_ok = rows_ok and (
            row.dual_active == labels_of(dual) and row.active == labels_of(active)
            and row.dual_out == labels_of(d_out)
            and row.dual_in == labels_of(d_in)
            and row.active_out == labels_of(a_out)
            and row.active_in == labels_of(a_in)
            and str(row.monomial) == monomial)
    ok = report.passed and report.total == SHIFTED_BASE and rows_ok
    report_line(2, ok, "16-row sweep equals the shifted polynomial and the "
                       "reference table row-for-row")


def test_criterion_3_two_graph_perspective():
    major, c = gallery.bridged_triangle_major()
    p = from_major(from_digraph(major), c)
    t_z1 = tutte3_closed(p).substitute({"z": 1})
    report = expansion_sum(p)
    bounded = count_bounded(p)
    signed = signed_sum(p)
    t001 = t_z1.evaluate({"x": 0, "y": 0})
    rows_ok = all(
        row.dual_active == labels_of(TWO_GRAPH_ROWS[tuple(sorted(row.A))][0])
        and row.active == labels_of(TWO_GRAPH_ROWS[tuple(sorted(row.A))][1])
        and str(row.monomial) == TWO_GRAPH_ROWS[tuple(sorted(row.A))][2]
        for row in report.rows)
    ok = (t_z1 == TWO_GRAPH_TUTTE and report.passed and rows_ok
          and t001 == 10 and bounded == 10 and signed == 10)
    report_line(3, ok, f"from_major pair gives t(x,y,1) = {t_z1}; "
                       f"t(0,0,1) = {t001} = bounded count = signed sum")


def test_criterion_4_digraph_property_sweep(digraph_sweep):
    instances, build_seconds = digraph_sweep
    start = time.monotonic()
    failures = [g for g, _, report in instances if not report.passed]
    elapsed = build_seconds + (time.monotonic() - start)
    ok = not failures and len(instances) == DIGRAPH_SWEEP_SIZE and elapsed < 120.0
    report_line(4, ok,
                f"{len(instances)} seeded digraphs (seed {DIGRAPH_SWEEP_SEED}) "
                f"all pass the expansion identity in {elapsed:.1f}s")


def test_criterion_5_perspective_sweep():
    rng = random.Random(PERSPECTIVE_SWEEP_SEED)
    checked = 0
    ok = True
    while checked < PERSPECTIVE_SWEEP_SIZE:
        n = random_realization(rng, max_rows=4, max_cols=8)
        c = frozenset(e for e in n.ground if rng.random() < 0.25)
        if c == set(n.ground):
            continue
        p = from_major(n, c)
        ok = ok and validate(p.m, p.mprime).passed
        ok = ok and expansion_sum(p).passed
        ok = ok and dichotomy_case(p) in set(DichotomyCase)
        ok = ok and deletion_contraction_check(p)
        checked += 1
        if not ok:
            break
    report_line(5, ok,
                f"{checked} random from_major perspectives (seed "
                f"{PERSPECTIVE_SWEEP_SEED}) pass validation, the identity, "
                f"the dichotomy, and the recursion")


def test_criterion_6_counting_identities():
    triangle = from_digraph(gallery.directed_triangle())
    acyclic = count_acyclic(triangle)
    t20 = tutte_closed(triangle).evaluate({"x": 2, "y": 0})

    bp = bounded_perspective(triangle, 3)
    bounded = count_bounded(bp)
    t001 = tutte3_closed(bp).evaluate({"x": 0, "y": 0, "z": 1})
    signed = signed_sum(bp)

    doubled = from_digraph(gallery.doubled_triangle())
    basic = count_basic_orientations(doubled)
    t11 = tutte_closed(doubled).evaluate({"x": 1, "y": 1})

    report = expansion_sum(identity_perspective(doubled))
    barred_free = {tuple(sorted(row.A)) for row in report.rows
                   if not row.dual_in and not row.active_in}

    ok = (acyclic == 6 and t20 == 6
          and bounded == t001 == signed == 2
          and basic == (5, 5) and t11 == 5
          and barred_free == {(), (4,), (3,), (2,), (2, 3)})
    report_line(6, ok,
                f"acyclic count {acyclic} = t(2,0); bounded count {bounded} = "
                f"t(0,0,1) = signed sum; basic orientations {basic} = t(1,1); "
                "barred-free rows are {{}, 4, 3, 2, 23}")


def test_criterion_7_derivative_expansions(digraph_sweep):
    p = identity_perspective(from_digraph(gallery.doubled_triangle()))
    report = expansion_sum(p)
    table_ok = (derivative_expansion(p, 1, 0) == 2 * X + Y + ONE
                and derivative_expansion(p, 0, 1) == X + 2 * Y + ONE
                and derivative_expansion(p, 2, 0) == Polynomial.constant(2)
                and derivative_expansion(p, 1, 1) == ONE
                and derivative_expansion(p, 0, 2) == Polynomial.constant(2))
    sweep_ok = True
    for _, inst, inst_report in digraph_sweep[0]:
        base = tutte3_closed(inst).substitute({"z": 1})
        for dp in range(4):
            for dq in range(4 - dp):
                formal = base.partial_derivative("x", dp).partial_derivative("y", dq)
                if derivative_expansion(inst, dp, dq) != formal:
                    sweep_ok = False
    ok = table_ok and sweep_ok
    report_line(7, ok, "derivative expansions equal formal partial derivatives "
                       "for all orders p+q <= 3 on the worked example and the sweep")


def test_criterion_8_dual_and_complement_invariants(digraph_sweep):
    swap = {"x": U, "u": X, "y": V, "v": Y}
    ok = True
    for _, p, report in digraph_sweep[0]:
        om = p.m
        _, ostar_direct = orientation_active_sets(om)
        dual_om = OrientedMatroid(om.realization.dual())
        o_dual, _ = orientation_active_sets(dual_om)
        ok = ok and ostar_direct == o_dual

        ground = list(p.ground)
        n = len(ground)
        by_subset = {frozenset(r.A): r for r in report.rows}
        for row in report.rows:
            partner = by_subset[frozenset(ground) - row.A]
            mono = Polynomial({row.monomial: 1})
            swapped = Polynomial({partner.monomial: 1}).substitute(swap)
            ok = ok and mono == swapped

        for mask in range(1 << n):
            a = frozenset(ground[i] for i in range(n) if mask >> i & 1)
            ok = ok and minty_check(om.reorient(a))
        if not ok:
            break
    report_line(8, ok, "dual-route activity sets, complement monomial swaps, "
                       "and the dichotomy of positive supports all hold")


def test_criterion_9_scale_disclosure():
    report_line(9, True,
                "no large-scale experiments exist for this artifact; acceptance "
                "is the exact identities and brute-force count equalities above")
