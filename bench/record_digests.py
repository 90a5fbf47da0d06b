"""Record the stdout digest of every job of every workload variant.

    python3 bench/record_digests.py [workload ...]

Run from the repository root at the commit whose output is the reference.
It refuses to record a job that exits non-zero or whose ``count`` sides
disagree, and rewrites the named workloads (default: all) in digests.json.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from inputs import VARIANTS, WORKLOADS, write_inputs
from run import DIGESTS, JOB_TIMEOUT_S, ROOT, check, job_argv, run_process


def record(workload: str, workdir: Path) -> dict[str, dict[str, str]]:
    variants = {}
    for variant in range(VARIANTS):
        inputs = workdir / f"{workload}-{variant}"
        inputs.mkdir()
        digests = {}
        for job in write_inputs(workload, variant, inputs):
            seconds, _, code, stdout, timed_out = run_process(
                job_argv(job, inputs, None), workdir, JOB_TIMEOUT_S)
            digest = hashlib.sha256(stdout).hexdigest()
            failure = check(job, code, stdout, timed_out, digest)
            if failure:
                raise SystemExit(f"{workload} variant {variant} {job.name}: {failure}")
            digests[job.name] = digest
            print(f"{workload} {variant:2d} {job.name:<24} {seconds:7.3f} s", flush=True)
        variants[str(variant)] = digests
    return variants


def main(names: list[str]) -> int:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        for workload in names or sorted(WORKLOADS):
            table[workload] = record(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
