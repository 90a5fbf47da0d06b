"""Run one workload of the omtutte benchmark and print its metrics.

    python3 bench/run.py --workload closed-sums --seed 3 --seconds 55 --trace 0

Run it from the repository root; it runs the package from ``src/``.  The
load is a closed loop with one client: one job at a time, each a fresh
``python -m omtutte.cli`` process, so every job starts with a cold rank cache
as a user's run does.  Jobs are taken round robin from the workload's list
until ``--seconds`` have been measured, every job at least once, and each
job is preceded by a run of the reference job (reference.py), which the
job's wall time is divided by.

Every job is checked outside the timed region: exit status 0, stdout equal
to the digest recorded for that job and seed variant (digests.json), no
timeout, and for ``count`` the two printed sides equal.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each job
once untraced and once under traced_job.py and prints the per-layer metrics
of that traced pass.  The last stdout line is one JSON object; the lines
before it are a human-readable summary.  A record of the run, with every
sample and, when traced, every span, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from inputs import VARIANTS, WORKLOADS, Job, write_inputs

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
COMMANDS = ("tutte", "tutte3", "activities", "derivative", "verify", "count")
JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0
SETUP_REPEATS = 15
REFERENCE = BENCH / "reference.py"
REFERENCE_OUTPUT = b"1024 242\n"
COUNT_LINE = re.compile(r"(-?\d+) \(t\(0,0,1\)=(-?\d+), signed sum=(-?\d+)\)\n")


@dataclass
class Sample:
    job: str
    seconds: float
    rss_mb: float
    traced: bool
    failure: str | None
    reference: float | None = None  # wall time of the reference run just before


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], workdir: Path, timeout: float):
    """Run argv to completion; return (seconds, rusage, exit code, stdout, timed out)."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        killed = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=job_env(), cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read()
        if proc.returncode != 0:
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return seconds, usage, proc.returncode, stdout, killed.is_set()


def job_argv(job: Job, inputs: Path, trace_file: Path | None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "omtutte.cli", *job.cli_argv(inputs)]
    return [sys.executable, str(BENCH / "traced_job.py"), job.name, str(trace_file),
            "--", *job.cli_argv(inputs)]


def check(job: Job, code: int, stdout: bytes, timed_out: bool,
          expected: str | None) -> str | None:
    """Why the job's run is wrong, or None when it is right."""
    if timed_out:
        return "timed out"
    if code != 0:
        return f"exit status {code}"
    if job.command == "count":
        match = COUNT_LINE.fullmatch(stdout.decode())
        if match is None or len(set(match.groups())) != 1:
            return f"count sides disagree: {stdout.decode().strip()!r}"
    if expected is None:
        return "no digest recorded"
    if hashlib.sha256(stdout).hexdigest() != expected:
        return "stdout differs from the recorded digest"
    return None


class Runner:
    def __init__(self, workload: str, variant: int, workdir: Path, started: float):
        self.workload = workload
        self.variant = variant
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.inputs.mkdir()
        self.jobs = write_inputs(workload, variant, self.inputs)
        self.started = started
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.digests = digests.get(workload, {}).get(str(variant), {})
        self.samples: list[Sample] = []
        self.traces: list[dict] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, job: Job, traced: bool = False) -> Sample:
        trace_file = self.workdir / f"trace-{len(self.samples)}.json" if traced else None
        seconds, usage, code, stdout, timed_out = run_process(
            job_argv(job, self.inputs, trace_file), self.workdir,
            min(JOB_TIMEOUT_S, self.remaining()))
        failure = check(job, code, stdout, timed_out, self.digests.get(job.name))
        if traced and trace_file.is_file():
            self.traces.append(json.loads(trace_file.read_text()))
        sample = Sample(job.name, seconds, usage.ru_maxrss / 1024, traced, failure)
        self.samples.append(sample)
        return sample

    def run_reference(self) -> float:
        seconds, _, code, stdout, timed_out = run_process(
            [sys.executable, str(REFERENCE)], self.workdir, JOB_TIMEOUT_S)
        if code != 0 or timed_out or stdout != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference job failed: exit {code}, stdout {stdout!r}")
        return seconds

    def measure(self, seconds: float) -> None:
        """Round robin over the jobs until about ``seconds`` are spent, each job once at least.

        Every job runs right after the reference job, both counted as spent.
        After the first pass a job starts only if it is expected to end
        nearer to ``seconds`` than stopping before it would.
        """
        last: dict[str, float] = {}
        spent = 0.0
        while True:
            for job in self.jobs:
                done = len(last) == len(self.jobs)
                if done and spent + last[job.name] / 2 > seconds:
                    return
                if self.remaining() < 0:
                    return
                reference = self.run_reference()
                sample = self.run(job)
                sample.reference = reference
                last[job.name] = reference + sample.seconds
                spent += reference + sample.seconds

    def traced_pass(self) -> None:
        for job in self.jobs:
            self.run(job)
            self.run(job, traced=True)


def time_setup(workdir: Path) -> list[float]:
    """Fresh interpreter through ``import omtutte.cli``, after one untimed warm-up."""
    argv = [sys.executable, "-c", "import omtutte.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        seconds, _, code, _, timed_out = run_process(argv, workdir, JOB_TIMEOUT_S)
        if code != 0 or timed_out:
            raise RuntimeError("import omtutte.cli failed")
        if i:
            times.append(seconds)
    return times


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic, not a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def per_job(samples: list[Sample]) -> dict[str, list[Sample]]:
    grouped: dict[str, list[Sample]] = defaultdict(list)
    for s in samples:
        grouped[s.job].append(s)
    return grouped


def medians(samples: list[Sample], field: str) -> dict[str, float]:
    """Each job's median of one sample field."""
    return {job: statistics.median(getattr(s, field) for s in group)
            for job, group in per_job(samples).items()}


def command_seconds(jobs: list[Job], samples: list[Sample]) -> dict[str, float]:
    """Summed per-job median wall time of each command's jobs."""
    times = medians(samples, "seconds")
    return {command + "_s": sum((times[j.name] for j in jobs
                                 if j.command == command and j.name in times), 0.0)
            for command in COMMANDS}


def wall_s(samples: list[Sample]) -> float:
    """One pass over the job list: the sum of each job's mean wall time."""
    return sum(statistics.fmean(s.seconds for s in group)
               for group in per_job(samples).values())


def end_to_end(samples: list[Sample], setup: list[float]) -> dict:
    """One pass in reference-job units, the peak RSS and the set-up time.

    ``wall_rel`` sums, over the jobs, the mean of each job's wall time
    divided by that of the reference run just before it.  On a shared host
    a fresh interpreter runs the same work up to twice as slow for minutes at
    a time, so a pass's wall time in seconds spreads across runs by more
    than any bound worth keeping; the reference job slows alike, so the
    ratio holds still, and only the program's own speed moves it.  The pass
    time in seconds (``wall_s``) is in the summary lines and the per-layer
    metrics, and every sample is in the run record.
    """
    relative = sum(statistics.fmean(s.seconds / s.reference for s in group)
                   for group in per_job(samples).values())
    return {
        "wall_rel": {"value": relative, "unit": "x"},
        "peak_rss_mb": {"value": max(medians(samples, "rss_mb").values()), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


# Layers whose self time is reported as <layer>.self_s, and the counts reported.
SELF_TIMED = ("matroid.rank", "matroid.tutte_closed", "matroid.minors",
              "oriented.circuits", "oriented.reorient", "perspective.validate",
              "perspective.tutte3_closed", "expansions.sweep",
              "expansions.specialization", "expansions.dichotomy", "expansions.delcon",
              "expansions.counts", "expansions.derivative", "expansions.render",
              "poly.ops", "cli")
COUNTED = ("matroid.rank.calls", "matroid.minors.calls", "oriented.circuits.calls",
           "oriented.circuits.found", "perspective.validate.pairs",
           "perspective.tutte3_closed.calls", "expansions.sweep.calls",
           "expansions.sweep.masks", "expansions.sweep.rows", "expansions.render.bytes",
           "poly.ops.calls")


def layer_metrics(jobs: list[Job], untraced: list[Sample], traced: list[Sample],
                  traces: list[dict]) -> dict:
    """Per-layer counts and self times of one traced pass, plus per-command times."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for (name, start, end, _, leaf_s), children in zip(spans, child_s):
            self_s[name] += end - start - children - leaf_s
        for name, (calls, busy) in trace["leaves"].items():
            counts[name + ".calls"] += calls
            self_s[name] += busy
        for name, value in trace["counts"].items():
            counts[name] += value
    values = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIMED}
    values.update({name: counts[name] for name in COUNTED})
    # Every 2^|E| loop counts: expansion_sum and each separate counting sweep.
    swept = counts["expansions.sweep.masks"] + counts["expansions.counts.masks"]
    values["expansions.sweep.redundancy"] = swept / sum(1 << j.size for j in jobs)
    values["trace.overhead_frac"] = (sum(s.seconds for s in traced)
                                     / sum(s.seconds for s in untraced) - 1)
    values.update(command_seconds(jobs, untraced))
    values["wall_s"] = wall_s(untraced)
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "redundancy")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def summary_lines(runner: Runner, setup: list[float], ref_ms: list[float]) -> list[str]:
    lines = [f"workload {runner.workload}  variant {runner.variant}  reference loop "
             f"{ref_ms[0]:.1f} ms before, {ref_ms[1]:.1f} ms after (host-speed diagnostic)",
             f"setup: import omtutte.cli median {statistics.median(setup):.4f} s "
             f"of {len(setup)}"]
    for name, group in per_job(runner.samples).items():
        for traced in (False, True):
            times = sorted(s.seconds for s in group if s.traced == traced)
            if times:
                lines.append(f"  {name:<24} {'traced' if traced else 'plain ':<7}"
                             f" n={len(times):<3} median {statistics.median(times):8.4f} s"
                             f"  min {times[0]:8.4f}  max {times[-1]:8.4f}")
    plain = [s for s in runner.samples if not s.traced]
    references = [s.reference for s in plain if s.reference is not None]
    if references:
        lines.append(f"wall_s {wall_s(plain):.4f} (sum of job means); reference job "
                     f"median {statistics.median(references):.4f} s of {len(references)}")
    lines.append("  ".join(f"{name} {value:.4f} s"
                           for name, value in command_seconds(runner.jobs, plain).items()
                           if value))
    failed = [s for s in runner.samples if s.failure]
    lines.append(f"failed_frac {len(failed) / len(runner.samples):.4f} "
                 f"({len(failed)} of {len(runner.samples)} jobs)")
    lines += [f"  FAILED {s.job}: {s.failure}" for s in failed]
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pick=None) -> tuple[dict, dict, list[str]]:
    """Measure one workload; return the result line, the run record and a summary.

    ``pick``, when given, filters the workload's jobs (the smoke check uses it).
    """
    started = time.perf_counter()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        ref_ms = [reference_loop_ms()]
        runner = Runner(workload, seed % VARIANTS, workdir, started)
        if pick is not None:
            runner.jobs = pick(runner.jobs)
        setup = time_setup(workdir)
        if trace:
            runner.traced_pass()
            metrics = layer_metrics(runner.jobs,
                                    [s for s in runner.samples if not s.traced],
                                    [s for s in runner.samples if s.traced], runner.traces)
        else:
            runner.measure(seconds)
            metrics = end_to_end(runner.samples, setup)
        ref_ms.append(reference_loop_ms())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for s in runner.samples if s.failure)
    result = {"correct": failed == 0, "attempted": len(runner.samples),
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "variant": runner.variant,
              "trace": int(trace), "seconds": seconds, "reference_loop_ms": ref_ms,
              "setup_s": setup, "samples": [vars(s) for s in runner.samples],
              "spans": runner.traces, "result": result}
    return result, record, summary_lines(runner, setup, ref_ms)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "omtutte" / "cli.py").is_file():
        print(f"error: no src/omtutte/cli.py under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    result, record, lines = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
