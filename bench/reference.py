"""The reference job: fixed pure-Python work that shares no code with omtutte.

    python3 bench/reference.py

It ranks every column subset of a fixed 4 x 10 rational matrix by exact
Gaussian elimination over Fractions, keeps the ranks in a dict keyed by
frozensets, and counts the circuits: the kind of work an omtutte job does,
in a fresh interpreter as each job is.  run.py runs it before every job and
divides the job's wall time by it.  On a shared host a fresh Python process
runs the same work up to twice as slow for minutes at a time, and this job
slows alike, while a tight loop in a warm process hardly does; so the ratio
holds still while both times move.  The ranks do not change with the
program, so only the program's own speed moves the ratio.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

ROWS, COLS = 4, 10


def rank(columns: list[list[Fraction]]) -> int:
    rows = [list(r) for r in zip(*columns)]
    r = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def main() -> None:
    rng = random.Random("reference")
    matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ROWS)]
              for _ in range(COLS)]
    ranks = {frozenset(subset): rank([matrix[c] for c in subset])
             for size in range(COLS + 1) for subset in combinations(range(COLS), size)}
    circuits = [s for s, r in ranks.items()
                if r == len(s) - 1 and all(ranks[s - {e}] == r for e in s)]
    print(len(ranks), len(circuits))


if __name__ == "__main__":
    main()
