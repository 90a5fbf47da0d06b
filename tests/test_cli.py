"""Command line behaviour: outputs, formats, exit codes, determinism."""

import atexit
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from omtutte import cli, expansions, gallery, oriented, perspective, poly
from omtutte.expansions import ExpansionReport, derivative_diag
from omtutte.matroid import Digraph, OrientedRealization, from_digraph
from omtutte.perspective import identity_perspective
from omtutte.poly import ONE

from helpers import matrix_text, oracle_json_table, random_digraph, random_realization, rows_of

TRIANGLE = "1 a b\n2 b c\n3 c a\n"
DOUBLED = "1 a b\n2 a b\n3 c b\n4 c a\n"
T_DOUBLED = "x^2 + x*y + y^2 + x + y"  # its Tutte polynomial; E_DOUBLED its 4-variable expansion
E_DOUBLED = "x^2 + 2*x*u + x*y + x*v + u^2 + u*y + u*v + y^2 + 2*y*v + v^2 + x + u + y + v"
MAJOR = "major: digraph\n1 a b\n2 b c\n3 c a\ncontract: 3\n"
# one format word for both payloads: M the directed triangle, M' = M/3 with arc 3 kept as a loop
PAIR = "pair: digraph\n1 a b\n2 b c\n3 c a\n---\n1 a b\n2 b a\n3 a a\n"
# a wheel with 6 spokes: spokes h -> r_i, then rim arcs r_i -> r_(i+1); 12 arcs
W6_ARCS = [("h", f"r{i}") for i in range(6)] + [(f"r{i}", f"r{(i + 1) % 6}") for i in range(6)]
W6 = "".join(f"{label} {tail} {head}\n" for label, (tail, head) in enumerate(W6_ARCS, start=1))
VERIFIED = ("expansion identity: pass\nspecialization suite: pass\ndichotomy: case {}\n"
            "deletion/contraction recursion: pass\n")
# U(2,4) with rational entries, cleared to integers column by column: 4 lines through the
# origin cut the plane into 8 regions
U24 = "2 4\n1 0 1/2 -3/4\n0 1 1 2/3\n"
# U(3,6), the Vandermonde rows (j+1)^i: 6 generic planes cut space into 2(1+5+10) = 32 regions
U36 = "3 6\n1 1 1 1 1 1\n1 2 3 4 5 6\n1 4 9 16 25 36\n"
# the complete digraph K7: 21 arcs, past the guard at 20 without --force
K7 = "".join(f"{n} k{i} k{j}\n"
             for n, (i, j) in enumerate(itertools.combinations(range(7), 2), start=1))
# a 13-arc directed cycle: its JSON table has 8192 rows and leaves in several blocks
C13 = "".join(f"{i + 1} v{i} v{(i + 1) % 13}\n" for i in range(13))
SRC = Path(__file__).resolve().parent.parent / "src"


def _major_text(digraph, contract) -> str:
    return ("major: digraph\n" + "".join(f"{a} {t} {h}\n" for a, t, h in digraph.arcs)
            + "contract: " + " ".join(map(str, sorted(contract))) + "\n")


# a perspective with M != M': the bridged triangle, two arcs contracted
BRIDGED = _major_text(*gallery.bridged_triangle_major())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("text, argv", [
    (TRIANGLE, ["tutte"]),
    (U24, ["tutte", "--format", "matrix"]),
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


def _majors_contracting_their_top_labels():
    """``major:`` texts whose C holds the greatest labels, so that M's labels are 1..|E|."""
    yield BRIDGED
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
    code, _, err = run_cli(capsys, "derivative", *order, "--input", str(path))
    assert code == 2
    assert "derivative orders must be non-negative" in err


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
    (DOUBLED, "digraph", T_DOUBLED + "\n"),
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


def _one_more_a(real):
    """The sweep with one extra A on the constant term: the sum no longer matches the reference."""
    def falsified(p):
        report = real(p)
        return ExpansionReport(report.perspective, report.active_sets, report.dual_sets,
                               report.total + ONE)
    return falsified


def _skewed_suite(field, expected, actual):
    """A row below: the suite's ``field`` reads one too high, and verify prints this pair."""
    def falsify(real):
        def skewed(*args, **kwargs):
            suite = real(*args, **kwargs)
            return suite._replace(**{field: getattr(suite, field) + 1})
        return skewed
    return ("specialization_suite", falsify,
            {"check": "specialization suite", "expected": expected, "actual": actual})


# a skewed sum prints the reference against it, a skewed specialization t(x,y,1) against it,
# and a skewed doubling t(2,0,1) = 6 against 7
@pytest.mark.parametrize("patched, falsify, expected", [
    ("expansion_sum", _one_more_a,
     {"check": "expansion identity", "expected": E_DOUBLED, "actual": E_DOUBLED + " + 1"}),
    _skewed_suite("interpolation", T_DOUBLED, T_DOUBLED + " + 1"),
    _skewed_suite("restricted", T_DOUBLED, T_DOUBLED + " + 1"),
    _skewed_suite("restricted_swap", T_DOUBLED, T_DOUBLED + " + 1"),
    _skewed_suite("doubling_out", "6", "7"),
    _skewed_suite("doubling_in", "6", "7"),
    ("deletion_contraction_check", lambda real: lambda *args, **kwargs: False,
     {"check": "deletion/contraction recursion", "expected": "minor sums to match",
      "actual": "mismatch"}),
], ids=["identity", "suite", "suite-restricted", "suite-restricted-swap", "suite-doubling-out",
        "suite-doubling-in", "recursion"])
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
    path = tmp_path / "bridged.persp"
    path.write_text(BRIDGED)
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
    (["tutte"], DOUBLED, T_DOUBLED),
    (["tutte3", "--format", "perspective"], MAJOR, "x*z + z + 1"),
    (["count", "acyclic"], TRIANGLE, {"value": 6, "sides": {"t(2,0)": [6]}, "agree": True}),
    (["count", "bounded", "--format", "perspective"], MAJOR,
     {"value": 2, "sides": {"t(0,0,1)": [2], "signed sum": [2]}, "agree": True}),
    (["count", "bases"], DOUBLED,
     {"value": 5, "sides": {"t(1,1)": [5], "basic orientations": [5, 5]}, "agree": True}),
    (["verify"], DOUBLED,
     {"pass": True, "dichotomy_case": "i", "sum": E_DOUBLED, "reference": E_DOUBLED}),
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
    code, out, err = run_cli(capsys, *[arg.format(path=path) for arg in argv])
    assert code == 2
    assert out == ""
    assert "usage:" in err
    assert "error:" in err
    assert token in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(capsys, flag):
    code, out, _ = run_cli(capsys, flag)
    assert code == 0
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


def _json_table_of(rows: int):
    """Whether stdout is a passing JSON activity table of ``rows`` rows, each of every column."""
    columns = {"A", "dual_active", "active", "dual_out", "dual_in", "active_out", "active_in",
               "monomial"}

    def check(out: str) -> bool:
        report = json.loads(out)
        return (report["pass"] is True and len(report["rows"]) == rows
                and all(set(row) == columns for row in report["rows"]))
    return check


@pytest.mark.parametrize("source, argv, code, expected", [
    (DOUBLED, ["tutte"], 0, T_DOUBLED + "\n"),
    # a digraph is the perspective M -> M, whose t has no z term
    (DOUBLED, ["tutte3"], 0, T_DOUBLED + "\n"),
    (MAJOR, ["tutte3", "--format", "perspective"], 0, "x*z + z + 1\n"),
    ("0 3\n", ["tutte", "--format", "matrix"], 0, "y^3\n"),
    (TRIANGLE, ["count", "acyclic"], 0, "6 (t(2,0)=6)\n"),
    (DOUBLED, ["count", "bases"], 0, "5 (t(1,1)=5, basic orientations=5,5)\n"),
    (MAJOR, ["count", "bounded", "--format", "perspective"], 0, "2 (t(0,0,1)=2, signed sum=2)\n"),
    # 2(n-2)! bounded orientations at n = 3
    (PAIR, ["count", "bounded", "--format", "perspective"], 0, "2 (t(0,0,1)=2, signed sum=2)\n"),
    (PAIR, ["verify", "--format", "perspective"], 0, VERIFIED.format("ii")),
    (MAJOR, ["verify", "--format", "perspective"], 0, VERIFIED.format("ii")),
    (DOUBLED, ["verify"], 0, VERIFIED.format("i")),
    ("0 0\n", ["verify", "--format", "matrix"], 0, VERIFIED.format("both")),
    (DOUBLED, ["activities"], 0,
     "A\tdual_active\tactive\tdual_out\tdual_in\tactive_out\tactive_in\tmonomial\n"
     "-\t13\t-\t13\t-\t-\t-\tx^2\n1\t3\t1\t3\t-\t-\t1\tx*v\n2\t3\t1\t3\t-\t1\t-\tx*y\n"
     "12\t13\t-\t3\t1\t-\t-\tx*u\n3\t-\t12\t-\t-\t12\t-\ty^2\n13\t-\t12\t-\t-\t2\t1\ty*v\n"
     "23\t-\t1\t-\t-\t1\t-\ty\n123\t1\t-\t-\t1\t-\t-\tu\n4\t1\t-\t1\t-\t-\t-\tx\n"
     "14\t-\t1\t-\t-\t-\t1\tv\n24\t-\t12\t-\t-\t1\t2\ty*v\n124\t-\t12\t-\t-\t-\t12\tv^2\n"
     "34\t13\t-\t1\t3\t-\t-\tx*u\n134\t3\t1\t-\t3\t-\t1\tu*v\n234\t3\t1\t-\t3\t1\t-\tu*y\n"
     "1234\t13\t-\t-\t13\t-\t-\tu^2\n"),
    (DOUBLED, ["activities", "--json"], 0,
     oracle_json_table(identity_perspective(from_digraph(gallery.doubled_triangle())))),
    (DOUBLED, ["derivative", "-p", "1", "-q", "0"], 0,
     "activity side: 2*x + y + 1\nformal derivative: 2*x + y + 1\n"),
    (TRIANGLE, ["verify"], 0, VERIFIED.format("ii")),
    (TRIANGLE, ["tutte3"], 0, "x^2 + x + y\n"),
    # d/dx of x^2 + x + y; past |E| = 3 both sides are 0, since the expansion has no u^4 term
    (TRIANGLE, ["derivative", "-p", "1"], 0,
     "activity side: 2*x + 1\nformal derivative: 2*x + 1\n"),
    (TRIANGLE, ["derivative", "-p", "4"], 0, "activity side: 0\nformal derivative: 0\n"),
    # t = x^2 + x*y + y^2 + x + y: the mixed derivative reads its x*y term
    (DOUBLED, ["derivative", "-p", "1", "-q", "1"], 0, "activity side: 1\nformal derivative: 1\n"),
    (DOUBLED, ["derivative", "-p", "2"], 0, "activity side: 2\nformal derivative: 2\n"),
    # a header and one row per reorientation, 2^3 of them
    (TRIANGLE, ["activities"], 0,
     "A\tdual_active\tactive\tdual_out\tdual_in\tactive_out\tactive_in\tmonomial\n"
     "-\t-\t1\t-\t-\t1\t-\ty\n1\t1\t-\t-\t1\t-\t-\tu\n2\t12\t-\t1\t2\t-\t-\tx*u\n"
     "12\t12\t-\t-\t12\t-\t-\tu^2\n3\t12\t-\t12\t-\t-\t-\tx^2\n"
     "13\t12\t-\t2\t1\t-\t-\tx*u\n23\t1\t-\t1\t-\t-\t-\tx\n123\t-\t1\t-\t-\t-\t1\tv\n"),
    (TRIANGLE, ["activities", "--json"], 0, _json_table_of(8)),
    (C13, ["activities", "--json"], 0, _json_table_of(8192)),
    # at z = 1 this is the x^2 + 5x + 4y + 10 of gallery.bridged_triangle_major
    (BRIDGED, ["tutte3", "--format", "perspective"], 0,
     "x^2*z^2 + 3*x*z^2 + y*z^2 + 2*x*z + 2*y*z + 3*z^2 + y + 5*z + 2\n"),
    (BRIDGED, ["verify", "--format", "perspective"], 0, VERIFIED.format("i")),
    (U24, ["tutte", "--format", "matrix"], 0, "x^2 + y^2 + 2*x + 2*y\n"),
    (U24, ["count", "acyclic", "--format", "matrix"], 0, "8 (t(2,0)=8)\n"),
    (U24, ["verify", "--format", "matrix"], 0, VERIFIED.format("i")),
    (U36, ["count", "acyclic", "--format", "matrix"], 0, "32 (t(2,0)=32)\n"),
    (U36, ["verify", "--format", "matrix"], 0, VERIFIED.format("i")),
    # 7! acyclic orientations and 7^5 spanning trees
    (K7, ["count", "acyclic", "--force"], 0, "5040 (t(2,0)=5040)\n"),
    (K7, ["count", "bases", "--force"], 0,
     "16807 (t(1,1)=16807, basic orientations=16807,16807)\n"),
    (K7, ["verify"], 2, ""),
], ids=["doubled-tutte", "doubled-tutte3", "major-tutte3", "three-loops-tutte",
        "triangle-count-acyclic", "doubled-count-bases", "major-count-bounded",
        "pair-count-bounded", "pair-verify", "major-verify", "doubled-verify", "empty-verify",
        "doubled-activities", "doubled-activities-json", "doubled-derivative-p1-q0",
        "triangle-verify", "triangle-tutte3", "triangle-derivative-p1", "triangle-derivative-p4",
        "doubled-derivative-p1-q1", "doubled-derivative-p2", "triangle-activities",
        "triangle-activities-json", "c13-activities-json", "bridged-tutte3", "bridged-verify",
        "u24-tutte", "u24-count-acyclic", "u24-verify", "u36-count-acyclic", "u36-verify",
        "k7-count-acyclic", "k7-count-bases", "k7-verify-unforced"])
def test_end_to_end_cases(tmp_path, capsys, source, argv, code, expected):
    path = tmp_path / "input"
    path.write_text(source)
    status, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert status == code
    assert expected(out) if callable(expected) else out == expected
    assert err.startswith("error: ") if code == 2 else err == ""


def run_python(*args, stdout=subprocess.PIPE, unbuffered=True):
    """``python args`` in a fresh process that imports the package from ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


def run_module(*argv, stdout=subprocess.PIPE, unbuffered=True):
    """``python -m omtutte.cli argv`` in a fresh process, through ``entry``."""
    return run_python("-m", "omtutte.cli", *argv, stdout=stdout, unbuffered=unbuffered)


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
def test_entry_exits_with_mains_status(tmp_path, capsys, monkeypatch, argv, code, out):
    triangle = tmp_path / "triangle.dg"
    triangle.write_text(TRIANGLE)
    paths = {"triangle": triangle, "missing": tmp_path / "nope.dg"}
    exits, handlers = [], []
    # the recorders return, so entry goes on to sys.exit and the test process lives
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: handlers.append(None))
    monkeypatch.setattr(sys, "argv", ["omtutte", *(arg.format(**paths) for arg in argv)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    assert capsys.readouterr().out == out
    # main's return ends the process after the handlers
    assert (exits, len(handlers)) == ([code], 1)


@pytest.mark.parametrize("observer", [
    "tracer", "profiler", "inspect", "no-exitfuncs",
    pytest.param("monitoring", marks=pytest.mark.skipif(
        not hasattr(sys, "monitoring"), reason="sys.monitoring is new in 3.12")),
])
def test_an_observed_entry_takes_the_interpreters_exit(tmp_path, capsys, monkeypatch, request,
                                                       observer):
    # a tracer, a profiler or -i reads the process after main; os._exit would cut it off
    path = tmp_path / "triangle.dg"
    path.write_text(TRIANGLE)
    if observer == "tracer":
        monkeypatch.setattr(sys, "gettrace", lambda: print)
    elif observer == "profiler":
        monkeypatch.setattr(sys, "getprofile", lambda: print)
    elif observer == "inspect":
        monkeypatch.setattr(sys, "flags", SimpleNamespace(inspect=1))
    elif observer == "no-exitfuncs":
        monkeypatch.delattr(atexit, "_run_exitfuncs")
    else:  # where cProfile attaches on 3.12+, with sys.getprofile() None
        sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, "test")
        request.addfinalizer(lambda: sys.monitoring.free_tool_id(sys.monitoring.PROFILER_ID))
    monkeypatch.setattr(sys, "argv", ["omtutte", "tutte", "--input", str(path)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()  # os._exit here fails the test (conftest.py)
    assert exc.value.code == 0
    assert capsys.readouterr().out == "x^2 + x + y\n"


def test_module_run_exits_zero_with_its_output(tmp_path):
    path = tmp_path / "doubled.dg"
    path.write_text(DOUBLED)
    proc = run_module("tutte", "--input", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"x^2 + x*y + y^2 + x + y\n", b"")


@pytest.mark.parametrize("argv", [
    ["tutte", "--input", "{path}", "--format", "matrix"],
    ["tutte", "--input", "{missing}"],
    ["tutte", "--input", "{path}", "--bogus"],
    ["--help"],
], ids=["parse-error", "missing-input", "usage-error", "help"])
def test_a_fresh_process_exits_as_main_returns_byte_for_byte(tmp_path, capsys, argv):
    # exit 0 is test_module_run_exits_zero_with_its_output, exit 141 the closed-pipe tests
    path = tmp_path / "doubled.dg"
    path.write_text(DOUBLED)
    argv = [arg.format(path=path, missing=tmp_path / "nope.dg") for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    proc = run_module(*argv, unbuffered=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (code, captured.out.encode(), captured.err.encode())


# registered before the CLI runs; no newline, so only a flush after the handlers shows it
EXIT_PROBE = """\
import atexit, os, runpy, sys
atexit.register(sys.stderr.write, "atexit handler ran")
real_exit = os._exit
os._exit = lambda status: (os.write(2, b"|os._exit\\n"), real_exit(status))
if sys.argv.pop(1) == "traced":
    sys.settrace(lambda *event: None)
runpy.run_module("omtutte.cli", run_name="__main__")
"""


@pytest.mark.parametrize("mode, err", [
    ("fast", b"atexit handler ran|os._exit\n"),
    ("traced", b"atexit handler ran"),
])
def test_an_atexit_handler_runs_on_either_exit(tmp_path, mode, err):
    path = tmp_path / "triangle.dg"
    path.write_text(TRIANGLE)
    proc = run_python("-c", EXIT_PROBE, mode, "tutte", "--input", str(path), unbuffered=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"x^2 + x + y\n", err)


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["tsv", "json"])
def test_a_block_buffered_table_reaches_a_file_whole(tmp_path, capsys, fmt):
    path = tmp_path / "w6.dg"
    path.write_text(W6)
    code, table, _ = run_cli(capsys, "activities", *fmt, "--input", str(path))
    assert code == 0
    out = tmp_path / "table.out"
    with out.open("wb") as fh:
        proc = run_module("activities", *fmt, "--input", str(path), stdout=fh, unbuffered=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes() == table.encode()


def test_a_profiled_run_prints_its_result_and_its_profile(tmp_path):
    path = tmp_path / "triangle.dg"
    path.write_text(TRIANGLE)
    proc = run_python("-m", "cProfile", "-m", "omtutte.cli", "tutte", "--input", str(path))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"x^2 + x + y\n")
    assert b" function calls " in proc.stdout
