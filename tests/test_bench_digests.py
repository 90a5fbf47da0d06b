"""Every benchmark job's stdout against its recorded digest, run in-process.

The bench harness runs each job as a fresh process and its smoke check only
the smallest job of each workload; this runs every job of every input
variant through ``omtutte.cli.main`` and reads ``bench/digests.json``
without writing it.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from omtutte import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


inputs = _bench_inputs()
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("variant", range(inputs.VARIANTS))
def test_every_job_matches_its_digest(tmp_path, capsys, workload, variant):
    expected = DIGESTS[workload][str(variant)]
    jobs = inputs.write_inputs(workload, variant, tmp_path)
    assert sorted(job.name for job in jobs) == sorted(expected)
    for job in jobs:
        code = cli.main(job.cli_argv(tmp_path))
        out = capsys.readouterr().out
        assert code == 0, job.name
        assert hashlib.sha256(out.encode()).hexdigest() == expected[job.name], job.name
