"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_what_its_comments_say():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["x^2 + x*y + y^2 + x + y", "True"]
    header, *rows = [line.split("\t") for line in lines[2:] if line]
    assert header == ["A", "dual_active", "active", "dual_out", "dual_in",
                      "active_out", "active_in", "monomial"]
    assert len(rows) == 2 ** 4 and all(len(row) == len(header) for row in rows)
