"""The enumeration guard: checked once, where a root rank table is built."""

import importlib
import inspect
import pkgutil

import pytest

import omtutte
from omtutte import cli, matroid
from omtutte.expansions import count_acyclic, count_basic_orientations
from omtutte.matroid import (
    EnumerationGuardError,
    OrientedRealization,
    bases,
    from_digraph,
    tutte_bases,
    tutte_closed,
)
from omtutte.oriented import OrientedMatroid, signed_circuits, signed_cocircuits
from omtutte.perspective import (
    PerspectiveError,
    bounded_perspective,
    from_major,
    identity_perspective,
    parse_perspective,
)
from omtutte import gallery

def major_text(ncols: int, contract: str) -> str:
    """A ``major:`` file of ``ncols`` columns (1, i), rank 2, contracting ``contract``."""
    return (f"major: matrix\n2 {ncols}\n" + " ".join(["1"] * ncols) + "\n"
            + " ".join(str(i) for i in range(ncols)) + f"\ncontract: {contract}\n")


# deleting and contracting {20, 21} leaves a 19-element perspective, {21, 22} a 20-element
# one, at the guard, and {22, 23} a 21-element one
MAJOR21 = major_text(21, "20 21")
MAJOR22 = major_text(22, "21 22")
MAJOR23 = major_text(23, "22 23")


def major21() -> OrientedRealization:
    return OrientedRealization(range(1, 22), [[1] * 21, list(range(21))])


def wide_with_loop() -> OrientedRealization:
    """21 elements, rank 2; element 21 is a zero column, hence a loop."""
    return OrientedRealization(range(1, 22), [[1] * 20 + [0], list(range(20)) + [0]])


@pytest.fixture
def no_table_built(monkeypatch):
    def forbidden(columns):
        raise AssertionError("a rank table was built before the guard was checked")

    monkeypatch.setattr(matroid, "_rank_table", forbidden)


def test_cli_counts_the_perspective_not_its_major(tmp_path, capsys):
    path = tmp_path / "major.persp"
    path.write_text(MAJOR21)
    argv = ["tutte3", "--input", str(path), "--format", "perspective"]
    assert cli.main(argv) == 0
    # M = U(2,19) and M' has rank 0: z^2 + 19z + t(U(2,19); 1, y)
    assert capsys.readouterr().out == (
        "y^17 + 2*y^16 + 3*y^15 + 4*y^14 + 5*y^13 + 6*y^12 + 7*y^11 + 8*y^10 + 9*y^9"
        " + 10*y^8 + 11*y^7 + 12*y^6 + 13*y^5 + 14*y^4 + 15*y^3 + 16*y^2 + z^2 + 17*y"
        " + 19*z + 18\n")
    path.write_text(MAJOR22)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "y^18 + 2*y^17 + 3*y^16 + 4*y^15 + 5*y^14 + 6*y^13 + 7*y^12 + 8*y^11 + 9*y^10 + 10*y^9"
        " + 11*y^8 + 12*y^7 + 13*y^6 + 14*y^5 + 15*y^4 + 16*y^3 + 17*y^2 + z^2 + 18*y + 20*z"
        " + 19\n")
    path.write_text(MAJOR23)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ground set has 21 elements; full enumeration is guarded at 20" in err
    assert cli.main(argv + ["--force"]) == 0
    # M = U(2,21) and M' has rank 0: z^2 + 21z + t(U(2,21); 1, y)
    assert capsys.readouterr().out == (
        "y^19 + 2*y^18 + 3*y^17 + 4*y^16 + 5*y^15 + 6*y^14 + 7*y^13 + 8*y^12 + 9*y^11"
        " + 10*y^10 + 11*y^9 + 12*y^8 + 13*y^7 + 14*y^6 + 15*y^5 + 16*y^4 + 17*y^3"
        " + 18*y^2 + z^2 + 19*y + 21*z + 20\n")


def test_perspective_is_counted_not_the_major(no_table_built):
    with pytest.raises(EnumerationGuardError, match="ground set has 21 elements"):
        parse_perspective(MAJOR23)
    major23 = OrientedRealization(range(1, 24), [[1] * 23, list(range(23))])
    with pytest.raises(EnumerationGuardError, match="ground set has 21 elements"):
        from_major(major23, {22, 23})


# entry points that read a root table; none is given ``force``
ENTRY_POINTS = [
    ("rank_table", lambda m: m.rank_table()),
    ("tutte_closed", tutte_closed),
    ("bases", bases),
    ("tutte_bases", tutte_bases),
    ("signed_circuits", signed_circuits),
    ("signed_cocircuits", signed_cocircuits),
    ("circuit_pairs", lambda m: OrientedMatroid(m).circuit_pairs),
    ("identity_perspective", identity_perspective),
    ("from_major", lambda m: from_major(m, ())),
    ("bounded_perspective", lambda m: bounded_perspective(m, 1)),
    ("parse_perspective", lambda m: parse_perspective(major_text(21, ""))),
    ("count_acyclic", count_acyclic),
    ("count_basic_orientations", count_basic_orientations),
]


@pytest.mark.parametrize("entry", [entry for _, entry in ENTRY_POINTS],
                         ids=[name for name, _ in ENTRY_POINTS])
def test_guard_fires_before_any_table_is_built(no_table_built, entry):
    with pytest.raises(EnumerationGuardError, match="ground set has 21 elements"):
        entry(major21())


def taking(parameter: str) -> set[str]:
    """The functions and methods of every module in the package with ``parameter`` in their
    signature."""
    functions = []
    for info in pkgutil.iter_modules(omtutte.__path__):
        module = importlib.import_module(f"omtutte.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            functions.append((name, value))
            if inspect.isclass(value):
                functions += [(f"{name}.{attr}", getattr(member, "__func__", member))
                              for attr, member in vars(value).items()]
    return {name for name, value in functions if inspect.isfunction(value)
            and parameter in inspect.signature(value).parameters}


def test_force_is_taken_only_where_a_root_table_is_admitted():
    assert taking("force") == {"OrientedRealization.rank_table", "parse_perspective"}


def test_no_function_takes_a_report():
    # a consequence of the expansion reads the perspective's one kept sweep
    assert taking("report") == set()


def test_oriented_matroid_reads_no_table_until_a_family_is_read(no_table_built):
    om = OrientedMatroid(major21())
    derived = om.reorient({1, 2}).dual().minor_delete(21)
    assert repr(derived) == "OrientedMatroid(|E|=20)"
    with pytest.raises(EnumerationGuardError, match="ground set has 21 elements"):
        derived.cocircuit_pairs


def test_rank_is_guarded_on_the_root(no_table_built):
    m = major21()
    with pytest.raises(EnumerationGuardError, match="21 elements"):
        m.rank()
    # a 20-element minor derives its table from the 21-element root's
    with pytest.raises(EnumerationGuardError, match="21 elements"):
        m.delete(21).rank()
    # only a root admits its table: a derived one reads the root's unforced
    for derived in (m.delete(21), m.contract(1), m.dual(), m.negate_columns({1})):
        with pytest.raises(EnumerationGuardError, match="21 elements"):
            derived.rank_table(force=True)


def test_a_refused_read_runs_again_once_the_root_is_admitted(monkeypatch):
    m = major21()
    minor = m.delete(21)
    om = OrientedMatroid(m).reorient({1}).minor_delete(21)
    with pytest.raises(EnumerationGuardError, match="21 elements"):
        minor.rank_table()
    with pytest.raises(EnumerationGuardError, match="21 elements"):
        om.circuit_pairs
    root = m.rank_table(force=True)

    def forbidden(columns):
        raise AssertionError("a derived table was rebuilt from its columns")

    monkeypatch.setattr(matroid, "_rank_table", forbidden)
    assert minor.rank_table() == root[:1 << 20]  # the masks avoiding the top element
    # the family off the parent's, against the one off the reoriented minor's matrix
    assert om.circuit_pairs == signed_circuits(m.negate_columns({1}).delete(21))


def test_bounded_perspective_admits_before_loop_test():
    # once the caller admits the table, the loop test reads it instead of hitting the guard
    m = wide_with_loop()
    m.rank_table(force=True)
    with pytest.raises(PerspectiveError, match="element 21 is a loop"):
        bounded_perspective(m, 21)


def test_repr_builds_no_table(no_table_built):
    m = major21()
    assert repr(m) == f"OrientedRealization(ground={m.ground}, rank=2)"
    assert repr(m.delete(21)) == f"OrientedRealization(ground={m.ground[:20]}, rank=2)"
    assert repr(m.contract(1).contract(2)) == f"OrientedRealization(ground={m.ground[2:]}, rank=0)"
    assert repr(wide_with_loop().dual()).endswith("rank=19)")
    assert repr(from_digraph(gallery.directed_triangle())) == \
        "OrientedRealization(ground=(1, 2, 3), rank=2)"
    assert repr(OrientedRealization((1, 2), [])) == "OrientedRealization(ground=(1, 2), rank=0)"
