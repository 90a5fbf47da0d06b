"""Each CLI process imports only what its command runs.

Every CLI job is a fresh process, so start-up is paid on every run.
``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``json`` is needed only when JSON is printed.  ``argparse`` (with ``gettext``
and ``locale``) is replaced by a table-driven argv parser, and the polynomial
text parser ``omtutte._polytext`` loads only when ``Polynomial.parse`` runs.
``import omtutte`` loads no submodule, ``tutte`` and a digraph or matrix
``tutte3`` run on ``matroid`` and ``poly`` alone, and a perspective's
``tutte3`` adds ``oriented`` and ``perspective`` but never ``expansions``.
The sweep's per-A masks are views of one ``bytearray``, so ``array`` never
loads.  Realizations are held as integer columns, so ``fractions``
(with ``decimal`` and ``numbers``) loads only where a rational is shown or
parsed off the plain ``p/q`` fast path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import omtutte

SRC = Path(__file__).resolve().parent.parent / "src"
AVOIDED = ("dataclasses", "inspect", "ast", "json", "argparse", "gettext", "locale",
           "omtutte._polytext", "fractions", "decimal", "numbers", "array")
SUBMODULES = ("poly", "matroid", "oriented", "perspective", "expansions")
TABLE_MODULES = {"omtutte.oriented", "omtutte.perspective", "omtutte.expansions"}


def loaded_after(code: str) -> set[str]:
    """The modules that ``code`` adds to a fresh interpreter's ``sys.modules``."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_avoids_slow_modules():
    loaded = loaded_after("import omtutte.cli")
    assert "omtutte.cli" in loaded
    assert sorted(loaded.intersection(AVOIDED)) == []


def test_cli_import_loads_no_table_module():
    assert sorted(loaded_after("import omtutte.cli") & TABLE_MODULES) == []


def test_bare_package_import_loads_no_submodule():
    loaded = loaded_after("import omtutte")
    assert "omtutte" in loaded
    assert sorted(name for name in loaded if name.startswith("omtutte.")) == []
    # a submodule name still works after the bare import, and loads its module
    assert "omtutte.matroid" in loaded_after(
        "import omtutte\nassert omtutte.matroid.ENUMERATION_GUARD == 20")


def run_main(tmp_path, name: str, text: str, *argv: str) -> set[str]:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return loaded_after("from omtutte import cli\n"
                        f"assert cli.main([*{list(argv)!r}, '--input', {str(path)!r}]) == 0")


def test_tutte_runs_without_the_table_modules(tmp_path):
    # on a digraph or matrix, tutte3 prints t(M,M;x,y,z) = t(M;x,y) off the rank table alone
    for command in ("tutte", "tutte3"):
        loaded = run_main(tmp_path, "triangle.dg", "1 a b\n2 b c\n3 c a\n", command)
        assert {"omtutte.matroid", "omtutte.poly"} <= loaded, command
        assert sorted(loaded & TABLE_MODULES) == [], command
        assert sorted(loaded.intersection(AVOIDED)) == [], command


def test_the_json_activity_table_loads_no_json_module(tmp_path):
    # the table streams its own JSON text in blocks, like the TSV
    loaded = run_main(tmp_path, "triangle.dg", "1 a b\n2 b c\n3 c a\n", "activities", "--json")
    assert "omtutte.expansions" in loaded
    assert sorted(loaded.intersection(AVOIDED)) == []


def test_tutte3_on_a_major_runs_without_expansions(tmp_path):
    loaded = run_main(tmp_path, "major.persp",
                      "major: digraph\n1 a b\n2 b c\n3 c a\ncontract: 3\n",
                      "tutte3", "--format", "perspective")
    assert {"omtutte.oriented", "omtutte.perspective"} <= loaded
    assert "omtutte.expansions" not in loaded
    assert sorted(loaded.intersection(AVOIDED)) == []


def test_tutte_on_a_rational_matrix_avoids_fractions(tmp_path):
    loaded = run_main(tmp_path, "m.txt", "2 4\n1 0 1/2 -3/4\n0 1 1 2/3\n",
                      "tutte", "--format", "matrix")
    assert sorted(loaded.intersection(AVOIDED)) == []


def test_tutte3_on_a_major_matrix_avoids_fractions(tmp_path):
    loaded = run_main(tmp_path, "major.persp",
                      "major: matrix\n2 4\n1 0 1/2 1\n0 1 1 -2/5\ncontract: 4\n",
                      "tutte3", "--format", "perspective")
    assert sorted(loaded.intersection(AVOIDED)) == []


def test_verify_on_a_digraph_avoids_fractions(tmp_path):
    loaded = run_main(tmp_path, "square.dg", "1 a b\n2 b c\n3 c d\n4 d a\n5 a c\n", "verify")
    assert "omtutte.expansions" in loaded
    assert sorted(loaded.intersection(AVOIDED)) == []


def test_slow_path_entry_loads_fractions():
    loaded = loaded_after(
        "from omtutte.matroid import OrientedRealization\n"
        "assert 'fractions' not in sys.modules\n"
        "m = OrientedRealization((1,), [['1.5']])\n"
        "assert m.integer_columns == ((3,),)")
    assert "fractions" in loaded


def test_rational_views_still_give_fractions():
    loaded_after(
        "from fractions import Fraction\n"
        "from omtutte.matroid import OrientedRealization\n"
        "from omtutte.poly import X\n"
        "m = OrientedRealization.parse_matrix('1 2\\n1/2 -3\\n')\n"
        "assert m.integer_columns == ((1,), (-3,))\n"
        "assert type((X + 1).evaluate({'x': Fraction(1, 3)})) is Fraction\n"
        "assert type((X + 1).evaluate({'x': 2})) is int")


def test_polynomial_parse_loads_the_text_parser():
    assert "omtutte._polytext" in loaded_after(
        "from omtutte.poly import Polynomial\n"
        "assert str(Polynomial.parse('x + 1')) == 'x + 1'")


def test_every_public_name_is_its_submodules_object():
    modules = [getattr(omtutte, name) for name in SUBMODULES]
    for name in omtutte.__all__:
        value = getattr(omtutte, name)
        owners = [module for module in modules if name in vars(module)]
        assert owners, name
        assert all(vars(module)[name] is value for module in owners), name
    assert omtutte.IdentityError is omtutte.expansions.IdentityError \
        is omtutte.matroid.IdentityError


def test_dir_covers_all_and_unknown_names_raise():
    assert set(omtutte.__all__) | set(SUBMODULES) <= set(dir(omtutte))
    with pytest.raises(AttributeError, match="no_such_name"):
        omtutte.no_such_name  # noqa: B018
    assert not hasattr(omtutte, "no_such_name")
