"""Command line behaviour: outputs, formats, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omtutte import cli, expansions, gallery, oriented, perspective, poly
from omtutte.expansions import ExpansionReport, derivative_diag
from omtutte.matroid import Digraph, OrientedRealization, from_digraph
from omtutte.perspective import identity_perspective
from omtutte.poly import ONE

from helpers import matrix_text, random_digraph, random_realization, rows_of

TRIANGLE = "1 a b\n2 b c\n3 c a\n"
DOUBLED = "1 a b\n2 a b\n3 c b\n4 c a\n"
MAJOR = "major: digraph\n1 a b\n2 b c\n3 c a\ncontract: 3\n"
# one format word for both payloads: M the directed triangle, M' = M/3 with arc 3 kept as a loop
PAIR = "pair: digraph\n1 a b\n2 b c\n3 c a\n---\n1 a b\n2 b a\n3 a a\n"
# a wheel with 6 spokes: spokes h -> r_i, then rim arcs r_i -> r_(i+1); 12 arcs
W6_ARCS = [("h", f"r{i}") for i in range(6)] + [(f"r{i}", f"r{(i + 1) % 6}") for i in range(6)]
W6 = "".join(f"{label} {tail} {head}\n" for label, (tail, head) in enumerate(W6_ARCS, start=1))
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tutte_on_doubled_triangle(tmp_path, capsys):
    path = tmp_path / "doubled.dg"
    path.write_text(DOUBLED)
    code, out, _ = run_cli(capsys, "tutte", "--input", str(path))
    assert code == 0
    assert out == "x^2 + x*y + y^2 + x + y\n"


def test_tutte3_on_perspective(tmp_path, capsys):
    path = tmp_path / "p.persp"
    path.write_text(MAJOR)
    code, out, _ = run_cli(capsys, "tutte3", "--input", str(path),
                           "--format", "perspective")
    assert code == 0
    assert out == "x*z + z + 1\n"


def test_tutte3_on_digraph_uses_identity_perspective(tmp_path, capsys):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    code, out, _ = run_cli(capsys, "tutte3", "--input", str(path))
    assert code == 0
    assert out == "x^2 + x*y + y^2 + x + y\n"


@pytest.mark.parametrize("text, argv", [
    (TRIANGLE, ["tutte"]),
    ("2 4\n1 0 1/2 -3/4\n0 1 1 2/3\n", ["tutte", "--format", "matrix"]),
    (MAJOR, ["tutte3", "--format", "perspective"]),
], ids=["digraph", "matrix", "perspective"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, text, argv):
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / name
        path.write_text(prefix + text, encoding="utf-8")
        outputs.append(run_cli(capsys, *argv, "--input", str(path)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_matrix_format_input(tmp_path, capsys):
    path = tmp_path / "loops.mat"
    path.write_text("0 3\n")
    code, out, _ = run_cli(capsys, "tutte", "--input", str(path), "--format", "matrix")
    assert code == 0
    assert out == "y^3\n"


def test_count_acyclic_triangle(tmp_path, capsys):
    path = tmp_path / "t.dg"
    path.write_text(TRIANGLE)
    code, out, _ = run_cli(capsys, "count", "acyclic", "--input", str(path))
    assert code == 0
    assert out == "6 (t(2,0)=6)\n"


def test_count_bases_and_bounded(tmp_path, capsys):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    code, out, _ = run_cli(capsys, "count", "bases", "--input", str(path))
    assert code == 0
    assert out == "5 (t(1,1)=5, basic orientations=5,5)\n"
    persp = tmp_path / "p.persp"
    persp.write_text(MAJOR)
    code, out, _ = run_cli(capsys, "count", "bounded", "--input", str(persp),
                           "--format", "perspective")
    assert code == 0
    assert out == "2 (t(0,0,1)=2, signed sum=2)\n"


def test_pair_header_with_one_format_word(tmp_path, capsys):
    path = tmp_path / "pair.persp"
    path.write_text(PAIR)
    code, out, _ = run_cli(capsys, "count", "bounded", "--input", str(path),
                           "--format", "perspective")
    assert code == 0
    assert out == "2 (t(0,0,1)=2, signed sum=2)\n"  # 2(n-2)! bounded orientations at n = 3
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--format", "perspective")
    assert code == 0
    assert "dichotomy: case ii" in out.splitlines()


def _majors_contracting_their_top_labels():
    """``major:`` texts whose C holds the greatest labels, so that M's labels are 1..|E|."""
    digraph, contract = gallery.bridged_triangle_major()
    yield ("major: digraph\n" + "".join(f"{a} {t} {h}\n" for a, t, h in digraph.arcs)
           + "contract: " + " ".join(map(str, sorted(contract))) + "\n")
    yield "major: digraph\n" + W6 + "contract: 11 12\n"
    # U(2,3) -> U(1,3): a generic column, a zero column (a loop) and an isthmus contracted
    yield "major: matrix\n3 6\n1 0 1 1 0 0\n0 1 1 -1 0 0\n0 0 0 0 0 1\ncontract: 4 5 6\n"
    rng = random.Random(3232)
    for k in (1, 2, 3, 3):
        n = random_realization(rng, max_rows=4, max_cols=8)
        while len(n.ground) <= k:
            n = random_realization(rng, max_rows=4, max_cols=8)
        yield ("major: matrix\n" + matrix_text(n) + "contract: "
               + " ".join(map(str, n.ground[-k:])) + "\n")


@pytest.mark.parametrize("argv", [["tutte3"], ["verify"], ["count", "bounded"], ["activities"]],
                         ids=" ".join)
def test_a_major_file_and_the_pair_of_its_two_matrices_print_the_same(tmp_path, capsys, argv):
    # both forms load as the same two roots, M = N\C and M' = N/C
    checked = 0
    for text in _majors_contracting_their_top_labels():
        major, pair = tmp_path / "major.persp", tmp_path / "pair.persp"
        major.write_text(text)
        p = perspective.parse_perspective(text)
        pair.write_text("pair: matrix\n" + matrix_text(p.m.realization) + "---\n"
                        + matrix_text(p.mprime.realization))
        outputs = [run_cli(capsys, *argv, "--input", str(path), "--format", "perspective")
                   for path in (major, pair)]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0], text
        checked += 1
    assert checked == 7


def test_verify_passes(tmp_path, capsys):
    path = tmp_path / "p.persp"
    path.write_text(MAJOR)
    code, out, _ = run_cli(capsys, "verify", "--input", str(path),
                           "--format", "perspective")
    assert code == 0
    assert "expansion identity: pass" in out
    assert "dichotomy: case" in out


def test_verify_on_digraph_input(tmp_path, capsys):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 0


def test_activities_tsv_and_json(tmp_path, capsys):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    code, out, _ = run_cli(capsys, "activities", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A\tdual_active\tactive\tdual_out\tdual_in\tactive_out\tactive_in\tmonomial"
    assert lines[1] == "-\t13\t-\t13\t-\t-\t-\tx^2"
    assert len(lines) == 17

    code, out, _ = run_cli(capsys, "activities", "--input", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["sum"].startswith("x^2 + 2*x*u")


def test_derivative_prints_both_sides(tmp_path, capsys):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    code, out, _ = run_cli(capsys, "derivative", "-p", "1", "-q", "0",
                           "--input", str(path))
    assert code == 0
    assert out == "activity side: 2*x + y + 1\nformal derivative: 2*x + y + 1\n"


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.dg"
    tutte3 = ("tutte3", "--format", "perspective")
    matrix = ("tutte", "--format", "matrix")
    # a payload error cites its line in the file, not in the payload
    for argv, content, message in [
            (("tutte",), b"1 a\n", "line 1"),
            (("tutte",), b"1 a b\n2 b \xff\n", "'utf-8' codec can't decode byte 0xff"),
            (("tutte",), b"1 a b\nx b c\n", "line 2: arc label 'x' is not an integer"),
            (("tutte",), b"1 a b\n0 b c\n", "arc labels must be positive integers, got 0"),
            (matrix, b"2\n", "matrix text must start with '<rows> <cols>'"),
            (matrix, b"2 x\n1 0\n", "bad matrix header '2' 'x'"),
            (tutte3, b"# a comment and blank lines only\n\n", "empty perspective file"),
            (tutte3, b"major: digraph\n1 a b\n2 b\n3 c a\ncontract: 3\n",
             "line 3: expected '<label> <tail> <head>', got '2 b'"),
            (tutte3, MAJOR.replace("contract: 3", "contract: 3 x").encode(),
             "bad contract labels ['3', 'x']"),
            (tutte3, b"major: foo\n1 a b\ncontract: 1\n",
             "unknown input format 'foo'; expected digraph or matrix"),
            (tutte3, b"pair: digraph digraph\n1 a b\n2 a b\n---\n1 a b\n\n2 a\n",
             "line 7: expected '<label> <tail> <head>', got '2 a'"),
            (tutte3, b"pair: digraph digraph digraph\n1 a b\n---\n1 a b\n",
             "pair header needs one or two format words"),
            (tutte3, b"pair: digraph\n1 a b\n1 a b\n",
             "pair-form perspective needs exactly one '---' separator"),
            (tutte3, b"pair: digraph\n1 a b\n---\n1 a b\n---\n1 a b\n",
             "pair-form perspective needs exactly one '---' separator"),
            (tutte3, b"pair: digraph\n1 a b\n---\n2 a b\n",
             "the two inputs must share the same ordered ground set"),
            (("count", "acyclic", "--format", "perspective"), MAJOR.encode(),
             "count acyclic needs a digraph or matrix input"),
            (tutte3, MAJOR.encode() + b"contract: 1\n", "line 6: a second 'contract:' line")]:
        path.write_bytes(content)
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert message in err


def test_huge_derivative_orders_answer_zero_without_their_factorials(tmp_path, capsys,
                                                                      monkeypatch):
    real = poly.perm

    def bounded(n, k):
        # no term of the 3-arc triangle's expansion has a degree above |E| = 3
        if k > 3:
            raise AssertionError(f"perm({n}, {k}) computed for an order no term reaches")
        return real(n, k)

    monkeypatch.setattr(poly, "perm", bounded)
    path = tmp_path / "t.dg"
    path.write_text(TRIANGLE)
    code, out, _ = run_cli(capsys, "derivative", "-p", "100000000", "--input", str(path))
    assert code == 0
    assert out == "activity side: 0\nformal derivative: 0\n"
    p = identity_perspective(from_digraph(Digraph.parse(TRIANGLE)))
    assert not derivative_diag(p, 10**8)


@pytest.mark.parametrize("order", [["-p", "-1"], ["-q", "-1"]])
def test_negative_derivative_order_exits_two(tmp_path, capsys, order):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    with pytest.raises(SystemExit) as exc:
        cli.main(["derivative", *order, "--input", str(path)])
    assert exc.value.code == 2
    assert "derivative orders must be non-negative" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "tutte", "--input", str(tmp_path / "nope.dg"))
    assert code == 2
    assert "error" in err


def test_invalid_pair_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.persp"
    path.write_text("pair: digraph matrix\n1 a b\n2 a b\n---\n2 2\n1 0\n0 1\n")
    code, _, err = run_cli(capsys, "verify", "--input", str(path),
                           "--format", "perspective")
    assert code == 2
    assert "witness" in err


def _forbid_signed_families(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("tutte must read only the rank table")

    monkeypatch.setattr(oriented, "signed_circuits", forbidden)
    monkeypatch.setattr(perspective, "validate", forbidden)


def test_guard_exits_two_without_force(tmp_path, capsys, monkeypatch):
    wide = "".join(f"{i} h{i} t{i}\n" for i in range(1, 22))
    path = tmp_path / "wide.dg"
    path.write_text(wide)
    _forbid_signed_families(monkeypatch)
    code, _, err = run_cli(capsys, "tutte", "--input", str(path))
    assert code == 2
    assert "--force" in err
    assert "ground set has 21 elements; full enumeration is guarded at 20" in err


@pytest.mark.parametrize("text, fmt, expected", [
    (DOUBLED, "digraph", "x^2 + x*y + y^2 + x + y\n"),
    ("2 4\n1 0 1 2\n0 1 1 -1\n", "matrix", "x^2 + y^2 + 2*x + 2*y\n"),
])
def test_tutte_builds_no_signed_families(tmp_path, capsys, monkeypatch, text, fmt, expected):
    # on a digraph or matrix, tutte3's M -> M has no z term: it prints t(M) off the rank table
    path = tmp_path / "input"
    path.write_text(text)
    _forbid_signed_families(monkeypatch)
    for command in ("tutte", "tutte3"):
        code, out, _ = run_cli(capsys, command, "--input", str(path), "--format", fmt)
        assert code == 0
        assert out == expected


def test_tutte_rejects_perspective_input(tmp_path, capsys):
    path = tmp_path / "p.persp"
    path.write_text(MAJOR)
    code, out, err = run_cli(capsys, "tutte", "--input", str(path), "--format", "perspective")
    assert code == 2
    assert out == ""
    assert "tutte needs a digraph or matrix input" in err


def _matroid_inputs():
    """(text, format, realization) of 120 seeded random inputs and the three smallest ones."""
    rng = random.Random(2801)
    inputs = [("0 0\n", "matrix", OrientedRealization((), [])),
              ("1 a a\n", "digraph", from_digraph(gallery.single_loop())),
              ("1 a b\n", "digraph", from_digraph(gallery.single_arc()))]
    for _ in range(60):
        m = random_realization(rng)
        rows = rows_of(m)
        text = f"{len(rows)} {len(m.ground)}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in rows)
        inputs.append((text, "matrix", m))
        digraph = random_digraph(rng)
        text = "".join(f"{label} {tail} {head}\n" for label, tail, head in digraph.arcs)
        inputs.append((text, "digraph", from_digraph(digraph)))
    return inputs


def test_tutte3_on_a_matroid_is_its_tutte_polynomial(tmp_path, capsys):
    path = tmp_path / "input"
    for text, fmt, m in _matroid_inputs():
        path.write_text(text)
        expected = str(perspective.tutte3_closed(identity_perspective(m)))
        for json_flag, shown in (((), expected + "\n"), (("--json",), json.dumps(expected) + "\n")):
            outputs = [run_cli(capsys, command, "--input", str(path), "--format", fmt, *json_flag)
                       for command in ("tutte", "tutte3")]
            assert outputs[0] == outputs[1] == (0, shown, ""), text


@pytest.mark.parametrize("argv, message", [
    (["tutte"], "tutte needs a digraph or matrix input; use tutte3 for perspectives"),
    (["count", "acyclic"], "count acyclic needs a digraph or matrix input"),
    (["count", "bases"], "count bases needs a digraph or matrix input"),
])
def test_a_refused_perspective_is_never_read(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing.persp"
    code, out, err = run_cli(capsys, *argv, "--format", "perspective", "--input", str(missing))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_identity_failure_exits_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)

    real = expansions.expansion_sum

    def falsified(p):
        # one extra A on the constant term: the sum no longer matches the reference
        report = real(p)
        return ExpansionReport(report.perspective, report.active_sets, report.dual_sets,
                               report.total + ONE)

    monkeypatch.setattr(expansions, "expansion_sum", falsified)
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1
    diff = json.loads(out)
    assert diff["check"] == "expansion identity"
    assert diff["expected"] != diff["actual"]


def test_verify_on_empty_ground_set(tmp_path, capsys):
    path = tmp_path / "empty.mat"
    path.write_text("0 0\n")
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--format", "matrix")
    assert code == 0
    assert "dichotomy: case both" in out.splitlines()


def _skewed_suite(real):
    def skewed(*args, **kwargs):
        suite = real(*args, **kwargs)
        return suite._replace(interpolation=suite.interpolation + 1)
    return skewed


@pytest.mark.parametrize("patched, falsify, expected", [
    ("specialization_suite", _skewed_suite,
     {"check": "specialization suite", "expected": "x^2 + x*y + y^2 + x + y",
      "actual": "x^2 + x*y + y^2 + x + y + 1"}),
    ("deletion_contraction_check", lambda real: lambda *args, **kwargs: False,
     {"check": "deletion/contraction recursion", "expected": "minor sums to match",
      "actual": "mismatch"}),
], ids=["suite", "recursion"])
def test_verify_check_failure_exits_one(tmp_path, capsys, monkeypatch, patched, falsify,
                                        expected):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    monkeypatch.setattr(expansions, patched, falsify(getattr(expansions, patched)))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1
    assert json.loads(out) == expected


def test_identity_error_exits_one_with_its_text(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)

    def neither(p):
        raise expansions.DichotomyError("neither dichotomy case holds at greatest element 4")

    monkeypatch.setattr(expansions, "dichotomy_case", neither)
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1
    assert json.loads(out) == {"check": "exact identity",
                               "error": "neither dichotomy case holds at greatest element 4"}
    assert err == ""


@pytest.mark.parametrize("kind, source, fmt, patched", [
    ("acyclic", TRIANGLE, "digraph", "count_acyclic"),
    ("bounded", MAJOR, "perspective", "signed_sum"),
    ("bases", DOUBLED, "digraph", "count_basic_orientations"),
])
def test_count_disagreement_exits_one(tmp_path, capsys, monkeypatch, kind, source, fmt, patched):
    path = tmp_path / "input"
    path.write_text(source)
    code, out, _ = run_cli(capsys, "count", kind, "--input", str(path), "--format", fmt)
    assert code == 0
    real = getattr(expansions, patched)

    def off_by_one(*args, **kwargs):
        value = real(*args, **kwargs)
        return (value[0] + 1, value[1]) if isinstance(value, tuple) else value + 1

    monkeypatch.setattr(expansions, patched, off_by_one)
    code, skewed, _ = run_cli(capsys, "count", kind, "--input", str(path), "--format", fmt)
    assert code == 1
    assert skewed != out


def test_major_matrix_contracting_a_generic_column_a_loop_and_an_isthmus(tmp_path, capsys):
    # U(2,3) -> U(1,3): column 4 is generic, 5 a zero column (a loop), 6 an isthmus; the
    # corank-nullity sum is (x-1)z from the empty set, 3z, 3 and y-1
    path = tmp_path / "u23.persp"
    path.write_text("major: matrix\n3 6\n1 0 1 1 0 0\n0 1 1 -1 0 0\n0 0 0 0 0 1\n"
                    "contract: 4 5 6\n")
    for argv, expected in [(["tutte3"], "x*z + y + 2*z + 2\n"),
                           (["count", "bounded"], "4 (t(0,0,1)=4, signed sum=4)\n")]:
        assert run_cli(capsys, *argv, "--input", str(path), "--format", "perspective") \
            == (0, expected, "")
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--format", "perspective")
    assert code == 0
    assert "dichotomy: case i\n" in out


def _count_family_builds(monkeypatch):
    calls = []
    real = oriented.signed_circuits
    monkeypatch.setattr(oriented, "signed_circuits",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_families_are_built_only_where_read(tmp_path, capsys, monkeypatch):
    digraph, contract = gallery.bridged_triangle_major()
    path = tmp_path / "bridged.persp"
    path.write_text("major: digraph\n"
                    + "".join(f"{label} {tail} {head}\n" for label, tail, head in digraph.arcs)
                    + "contract: " + " ".join(map(str, sorted(contract))) + "\n")
    calls = _count_family_builds(monkeypatch)
    # validation reads only M's circuits and M''s cocircuits: one build each
    code, _, _ = run_cli(capsys, "tutte3", "--input", str(path), "--format", "perspective")
    assert code == 0
    assert len(calls) == 2
    # the four minors at the greatest element read their families off M's and M''s;
    # enumerating them from each minor's matrix made 6 calls, and every family of
    # every matroid 12
    calls.clear()
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--format", "perspective")
    assert code == 0
    assert out.endswith("deletion/contraction recursion: pass\n")
    assert len(calls) == 2


@pytest.mark.parametrize("argv, source, expected", [
    (["tutte"], DOUBLED, "x^2 + x*y + y^2 + x + y"),
    (["tutte3", "--format", "perspective"], MAJOR, "x*z + z + 1"),
    (["count", "acyclic"], TRIANGLE, {"value": 6, "sides": {"t(2,0)": [6]}, "agree": True}),
    (["count", "bounded", "--format", "perspective"], MAJOR,
     {"value": 2, "sides": {"t(0,0,1)": [2], "signed sum": [2]}, "agree": True}),
    (["count", "bases"], DOUBLED,
     {"value": 5, "sides": {"t(1,1)": [5], "basic orientations": [5, 5]}, "agree": True}),
    (["verify"], DOUBLED,
     {"pass": True, "dichotomy_case": "i",
      "sum": "x^2 + 2*x*u + x*y + x*v + u^2 + u*y + u*v + y^2 + 2*y*v + v^2 + x + u + y + v",
      "reference": "x^2 + 2*x*u + x*y + x*v + u^2 + u*y + u*v + y^2 + 2*y*v + v^2 + x + u + y + v"}),
    (["derivative", "-p", "1", "-q", "0"], DOUBLED,
     {"activity": "2*x + y + 1", "formal": "2*x + y + 1", "equal": True}),
])
def test_json_output_of_tutte_tutte3_and_count(tmp_path, capsys, argv, source, expected):
    path = tmp_path / "input"
    path.write_text(source)
    code, out, _ = run_cli(capsys, *argv, "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out) == expected


def test_json_count_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    monkeypatch.setattr(expansions, "count_basic_orientations", lambda m: (5, 4))
    code, out, _ = run_cli(capsys, "count", "bases", "--input", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"value": 5, "agree": False,
                               "sides": {"t(1,1)": [5], "basic orientations": [5, 4]}}


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_activities_streams_blocks_of_rows(tmp_path, monkeypatch):
    # W6: a header and 4096 rows, written in two blocks
    path = tmp_path / "w6.dg"
    path.write_text(W6)
    stdout = CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    assert cli.main(["activities", "--input", str(path)]) == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 4097
    assert lines[0].startswith("A\tdual_active")
    assert stdout.writes == 2


@pytest.mark.parametrize("argv, token", [
    ([], "command"),
    (["bogus", "--input", "{path}"], "bogus"),
    (["tutte"], "--input"),
    (["tutte", "--input", "{path}", "--format", "bogus"], "bogus"),
    (["count", "--input", "{path}"], "kind"),
    (["count", "wrong", "--input", "{path}"], "wrong"),
    (["derivative", "-p", "x", "--input", "{path}"], "'x'"),
    (["tutte", "-p", "1", "--input", "{path}"], "-p"),
    (["tutte", "--input", "{path}", "--bogus"], "--bogus"),
    (["tutte", "--input", "{path}", "extra"], "unrecognized arguments: extra"),
    (["tutte", "--input", "{path}", "--force=1"],
     "argument --force: ignored explicit argument '1'"),
    (["tutte", "--input"], "argument --input: expected one argument"),
], ids=["no-arguments", "unknown-command", "missing-input", "bad-format", "count-no-kind",
        "count-bad-kind", "p-not-int", "p-on-tutte", "unknown-option", "stray-positional",
        "flag-with-value", "trailing-input"])
def test_usage_errors_exit_two(tmp_path, capsys, argv, token):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(path=path) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "error:" in captured.err
    assert token in captured.err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("tutte", "tutte3", "activities", "verify", "count", "derivative"):
        assert command in out
    assert "141" in out


@pytest.mark.parametrize("spaced, other", [
    (["tutte", "--input", "{path}"], ["tutte", "--input={path}"]),
    (["count", "bases", "--input", "{path}"], ["count", "--input", "{path}", "bases"]),
    (["derivative", "-p", "1", "--input", "{path}"], ["derivative", "--input={path}", "-p=1"]),
])
def test_equals_form_and_trailing_positional(tmp_path, capsys, spaced, other):
    path = tmp_path / "d.dg"
    path.write_text(DOUBLED)
    outputs = [run_cli(capsys, *[arg.format(path=path) for arg in argv])
               for argv in (spaced, other)]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def run_module(*argv, stdout=subprocess.PIPE, unbuffered=True):
    """``python -m omtutte.cli argv`` in a fresh process, through ``entry``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "omtutte.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("text, argv", [
    (TRIANGLE, ["tutte", "--input"]),
    (W6, ["activities", "--input"]),
    (W6, ["activities", "--json", "--input"]),
    (None, ["--help"]),
], ids=["tutte-triangle", "activities-w6", "activities-json-w6", "help"])
def test_closed_output_pipe_exits_141_silently(tmp_path, text, argv, unbuffered):
    # the reader is gone before the process writes, as after `| head -1` on a long table
    path = tmp_path / "input.dg"
    if text is not None:
        path.write_text(text)
        argv = [*argv, str(path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(*argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv, code, out", [
    (["tutte", "--input", "{triangle}"], 0, "x^2 + x + y\n"),
    (["tutte", "--input", "{missing}"], 2, ""),
    (["--help"], 0, cli._HELP),
], ids=["tutte", "missing-input", "help"])
def test_entry_exits_with_mains_status_and_freezes_once(tmp_path, capsys, monkeypatch,
                                                         argv, code, out):
    triangle = tmp_path / "triangle.dg"
    triangle.write_text(TRIANGLE)
    paths = {"triangle": triangle, "missing": tmp_path / "nope.dg"}
    freezes = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: freezes.append(None))
    monkeypatch.setattr(sys, "argv", ["omtutte", *(arg.format(**paths) for arg in argv)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    assert capsys.readouterr().out == out
    assert len(freezes) == 1


def test_module_run_through_the_real_freeze(tmp_path):
    path = tmp_path / "doubled.dg"
    path.write_text(DOUBLED)
    proc = run_module("tutte", "--input", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"x^2 + x*y + y^2 + x + y\n", b"")
