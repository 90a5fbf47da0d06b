"""Seeded inputs and job lists of the omtutte benchmark workloads.

``write_inputs(workload, variant, directory)`` writes the digraph, matrix and
``major:`` perspective files of one workload and returns its jobs.  The
program only ever sees these files.

Graph families are fixed graphs whose arc labels are permuted and whose arcs
are flipped by the seed; that changes the activity tables but not the Tutte
polynomial.  Matrices are drawn once, from a fixed seed, with entries p/q
for p in [-3, 3] and q in [1, 3]; the workload seed permutes their columns
and negates some of them.  So every seed gives the program the same matroids
and the same amount of work, and only labels and orientations change: a
timing spread across seeds is the host's, not the inputs'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Every seed maps onto one of this many input variants, so that the stdout
# digest of every job of every variant can be recorded once and checked on
# any run (see digests.json).
VARIANTS = 16

# The reasons for each workload are in BENCHMARK.json and beside its job list
# in write_inputs.
WORKLOADS = ("closed-sums", "tables-and-checks")


@dataclass(frozen=True)
class Job:
    """One ``omtutte`` invocation; ``argv`` excludes ``--input``/``--format``."""

    name: str
    command: str
    argv: tuple[str, ...]
    input_file: str
    fmt: str
    size: int  # |E| of the perspective the job runs on

    def cli_argv(self, directory: Path) -> list[str]:
        return [*self.argv, "--input", str(directory / self.input_file),
                "--format", self.fmt]


# -- graph families -----------------------------------------------------------

def complete_graph(k: int) -> list[tuple[str, str]]:
    return [(f"k{i}", f"k{j}") for i in range(k) for j in range(i + 1, k)]


def wheel(k: int) -> list[tuple[str, str]]:
    """Spokes h->r_i first, then rim arcs r_i->r_{i+1}; arc 0 and arc k share r0."""
    spokes = [("h", f"r{i}") for i in range(k)]
    rim = [(f"r{i}", f"r{(i + 1) % k}") for i in range(k)]
    return spokes + rim


def grid(rows: int, cols: int) -> list[tuple[str, str]]:
    arcs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                arcs.append((f"g{r}{c}", f"g{r}{c + 1}"))
            if r + 1 < rows:
                arcs.append((f"g{r}{c}", f"g{r + 1}{c}"))
    return arcs


# The 7-arc major of omtutte.gallery.bridged_triangle_major, contracted on
# arcs 6 and 7 (list positions 5 and 6); copied so the inputs do not depend
# on the package under test.
BRIDGED_TRIANGLE = [("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v4", "v3"),
                    ("v2", "v5"), ("v4", "v1"), ("v5", "v3")]


def relabel(rng: random.Random, arcs: list[tuple[str, str]]) -> tuple[str, list[int]]:
    """Digraph text with permuted labels and flipped arcs, and each arc's label."""
    labels = list(range(1, len(arcs) + 1))
    rng.shuffle(labels)
    lines = []
    for label, (tail, head) in zip(labels, arcs):
        if rng.random() < 0.5:
            tail, head = head, tail
        lines.append(f"{label} {tail} {head}")
    return "\n".join(sorted(lines, key=lambda s: int(s.split()[0]))) + "\n", labels


def rational_matrix(rng: random.Random, rows: int, cols: int) -> tuple[str, list[int]]:
    """A fixed ``rows`` x ``cols`` matrix with columns permuted and negated by ``rng``.

    Returns the matrix text and, for each column of the fixed matrix, its
    1-based position in the text.
    """
    fixed = random.Random(f"matrix/{rows}x{cols}")
    columns = [[Fraction(fixed.randint(-3, 3), fixed.randint(1, 3)) for _ in range(rows)]
               for _ in range(cols)]
    order = list(range(cols))
    rng.shuffle(order)
    placed = [[-x for x in columns[c]] if rng.random() < 0.5 else columns[c]
              for c in order]
    lines = [f"{rows} {cols}"]
    lines += [" ".join(str(column[r]) for column in placed) for r in range(rows)]
    position = [0] * cols
    for place, c in enumerate(order):
        position[c] = place + 1
    return "\n".join(lines) + "\n", position


def major(fmt: str, payload: str, contract: list[int]) -> str:
    return (f"major: {fmt}\n{payload}"
            f"contract: {' '.join(str(e) for e in sorted(contract))}\n")


def matrix_major(rng: random.Random, rows: int, cols: int, ncontract: int) -> str:
    """A perspective contracting the first ``ncontract`` columns of the fixed matrix."""
    payload, position = rational_matrix(rng, rows, cols)
    return major("matrix", payload, position[:ncontract])


# -- workloads -------------------------------------------------------------------

def write_inputs(workload: str, variant: int, directory: Path) -> list[Job]:
    """Write the input files of ``workload`` for ``variant`` and return its jobs."""
    rng = random.Random(f"{workload}/{variant}")
    files: dict[str, str] = {}
    jobs: list[Job] = []

    def graph(name: str, arcs: list[tuple[str, str]]) -> list[int]:
        files[name], labels = relabel(rng, arcs)
        return labels

    if workload == "closed-sums":
        # The rank oracle and circuit enumeration do nearly all the work; the
        # sweep, the derived checks and rendering are bypassed.  The control a
        # sweep, check or render change must leave unmoved, and the main
        # beneficiary of a rank-table change.  The CLI's input loader
        # enumerates circuits even for `tutte`, so that waste shows here.
        graph("k5.dg", complete_graph(5))
        graph("w5.dg", wheel(5))
        graph("grid24.dg", grid(2, 4))
        files["m3x10.mat"] = rational_matrix(rng, 3, 10)[0]
        files["p4x10.persp"] = matrix_major(rng, 4, 10, 1)
        files["p5x11.persp"] = matrix_major(rng, 5, 11, 2)
        jobs = [
            Job("tutte-k5", "tutte", ("tutte",), "k5.dg", "digraph", 10),
            Job("tutte-w5", "tutte", ("tutte",), "w5.dg", "digraph", 10),
            Job("tutte-grid24", "tutte", ("tutte",), "grid24.dg", "digraph", 10),
            Job("tutte-m3x10", "tutte", ("tutte",), "m3x10.mat", "matrix", 10),
            Job("tutte3-p4x10", "tutte3", ("tutte3",), "p4x10.persp", "perspective", 9),
            Job("tutte3-p5x11", "tutte3", ("tutte3",), "p5x11.persp", "perspective", 9),
        ]
    elif workload == "tables-and-checks":
        # Everything closed-sums bypasses.  The activity and derivative jobs
        # materialize and render the largest 2^n row tables (4096 rows on W6)
        # with no checks: streaming rows, coefficient derivatives and a
        # vectorized sweep should move their time and the peak RSS.  The
        # verify and count jobs run genuine perspectives with M != M': the
        # validation pair scan, the derived checks and the minor recursion,
        # which repeats circuit enumeration, sweeps and tutte3_closed on
        # every minor.
        graph("w6.dg", wheel(6))
        graph("grid24.dg", grid(2, 4))
        graph("w5.dg", wheel(5))
        text, labels = relabel(rng, BRIDGED_TRIANGLE)
        files["bridged.persp"] = major("digraph", text, [labels[5], labels[6]])
        graph("k5.dg", complete_graph(5))
        files["p5x10.persp"] = matrix_major(rng, 5, 10, 2)
        text, labels = relabel(rng, wheel(6))
        files["w6c2.persp"] = major("digraph", text, [labels[0], labels[6]])
        jobs = [
            Job("activities-w6", "activities", ("activities",), "w6.dg", "digraph", 12),
            Job("activities-json-grid24", "activities", ("activities", "--json"),
                "grid24.dg", "digraph", 10),
            Job("derivative-w5", "derivative", ("derivative", "-p", "1", "-q", "1"),
                "w5.dg", "digraph", 10),
            Job("verify-bridged", "verify", ("verify",), "bridged.persp", "perspective", 5),
            Job("verify-k5", "verify", ("verify",), "k5.dg", "digraph", 10),
            Job("verify-p5x10", "verify", ("verify",), "p5x10.persp", "perspective", 8),
            Job("count-bounded-w6c2", "count", ("count", "bounded"), "w6c2.persp",
                "perspective", 10),
        ]
    else:
        raise KeyError(workload)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return jobs
