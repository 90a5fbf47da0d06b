"""A fresh ``import omtutte.cli`` loads none of the slow-to-import stdlib modules.

Every CLI job is a fresh process, so start-up is paid on every run.
``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``json`` is needed only when JSON is printed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
AVOIDED = ("dataclasses", "inspect", "ast", "json")
PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import omtutte.cli\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def test_cli_import_avoids_slow_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(out.split())
    assert "omtutte.cli" in loaded
    assert sorted(loaded.intersection(AVOIDED)) == []
