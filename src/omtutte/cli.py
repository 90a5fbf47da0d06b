"""Command line front end.

Exit codes: 0 all checks pass, 1 an exact identity failed (a JSON diff of the
two polynomials is printed, or the two sides of a count disagree), 2 input
could not be parsed or validated.  Output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .matroid import (
    IdentityError,
    MatroidError,
    OrientedRealization,
    _parse_payload,
    bases,
    tutte_closed,
)

if TYPE_CHECKING:
    from .perspective import Perspective


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omtutte",
        description="Exact Tutte polynomials of oriented matroids and perspectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--format", choices=["digraph", "matrix", "perspective"],
                       default="digraph", help="input file format")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--force", action="store_true",
                       help="override the enumeration guard")

    common(sub.add_parser("tutte", help="print t(M;x,y)"))
    common(sub.add_parser("tutte3", help="print t(M,M';x,y,z)"))
    common(sub.add_parser("activities", help="print the per-reorientation activity table"))
    common(sub.add_parser("verify", help="run all identity checks; exit 0 iff they pass"))
    count = sub.add_parser("count", help="counting identities")
    count.add_argument("kind", choices=["acyclic", "bounded", "bases"])
    common(count)
    deriv = sub.add_parser("derivative", help="activity expansion of a partial derivative")
    deriv.add_argument("-p", type=int, default=0, help="order in x")
    deriv.add_argument("-q", type=int, default=0, help="order in y")
    common(deriv)
    return parser


def _load(args) -> tuple[OrientedRealization | None, Perspective | None]:
    """Read the input file: a realization for matroid inputs, else a perspective.

    Its root rank table is admitted here, the only place that reads ``--force``.
    """
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    if args.format == "perspective":
        from .perspective import parse_perspective

        return None, parse_perspective(text, force=args.force)
    realization = _parse_payload(args.format, text)
    realization.rank_table(force=args.force)
    return realization, None


def _print_json(obj) -> None:
    import json  # only JSON output pays for its import

    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit(args, text, payload) -> int:
    """Print ``payload`` as JSON under ``--json``, else ``text``; its exit code is 0.

    A table passes blocks of lines and its renderer, so only one form is rendered.
    """
    if args.json:
        _print_json(payload() if callable(payload) else payload)
    elif isinstance(text, str):
        print(text)
    else:
        sys.stdout.writelines(text)
    return 0


def _fail(check: str, expected, actual) -> int:
    """Print the JSON diff of a failed verify check; its exit code is 1."""
    _print_json({"check": check, "expected": str(expected), "actual": str(actual)})
    return 1


def run(args) -> int:
    # each command imports only the modules it runs (start-up dominates small jobs)
    realization, perspective = _load(args)
    if args.command == "tutte":
        if realization is None:
            raise MatroidError("tutte needs a digraph or matrix input; "
                               "use tutte3 for perspectives")
        t = str(tutte_closed(realization))
        return _emit(args, t, t)

    from .perspective import identity_perspective, tutte3_closed

    # every other command reads a validated perspective; a matroid input is M -> M
    if perspective is None:
        perspective = identity_perspective(realization)
    if args.command == "tutte3":
        t = str(tutte3_closed(perspective))
        return _emit(args, t, t)

    from .expansions import (DichotomyCase, count_acyclic, count_basic_orientations,
                             count_bounded, deletion_contraction_check, derivative_expansion,
                             dichotomy_case, expansion_sum, signed_sum, specialization_suite)

    if args.command == "count":
        # each side is a tuple of exact values that must all equal the count
        if args.kind == "bounded":
            report = expansion_sum(perspective)
            value = count_bounded(perspective, report=report)
            sides = {"t(0,0,1)": (report.tutte.evaluate({"x": 0, "y": 0}),),
                     "signed sum": (signed_sum(perspective, report=report),)}
        elif realization is None:
            raise MatroidError(f"count {args.kind} needs a digraph or matrix input")
        elif args.kind == "acyclic":
            value = count_acyclic(perspective.m)
            sides = {"t(2,0)": (tutte_closed(realization).evaluate({"x": 2, "y": 0}),)}
        else:
            value = len(bases(realization))
            sides = {"t(1,1)": (tutte_closed(realization).evaluate({"x": 1, "y": 1}),),
                     "basic orientations": count_basic_orientations(perspective.m)}
        agree = all(side == value for values in sides.values() for side in values)
        # an exact value is shown as an int when it is integral, else as its Fraction
        exact = {name: [int(side) if side.denominator == 1 else str(side) for side in values]
                 for name, values in sides.items()}
        shown = ", ".join(f"{name}={','.join(map(str, values))}" for name, values in exact.items())
        _emit(args, f"{value} ({shown})", {"value": value, "sides": exact, "agree": agree})
        return 0 if agree else 1

    report = expansion_sum(perspective)
    if args.command == "activities":
        return _emit(args, report.tsv_blocks(), report.to_json_dict)

    if args.command == "derivative":
        activity_side = derivative_expansion(perspective, args.p, args.q, report=report)
        formal = report.tutte.partial_derivative("x", args.p).partial_derivative("y", args.q)
        equal = activity_side == formal
        _emit(args, f"activity side: {activity_side}\nformal derivative: {formal}",
              {"activity": str(activity_side), "formal": str(formal), "equal": equal})
        return 0 if equal else 1

    # verify: the checks run in this order, and the first that fails is reported
    if not report.passed:
        return _fail("expansion identity", report.reference, report.total)
    suite = specialization_suite(perspective, report=report)
    if not suite.passed:
        return _fail("specialization suite", suite.tutte, suite.interpolation)
    case = dichotomy_case(perspective) if perspective.ground else DichotomyCase.BOTH
    if not deletion_contraction_check(perspective, report=report):
        return _fail("deletion/contraction recursion", "minor sums to match", "mismatch")
    return _emit(args, "expansion identity: pass\nspecialization suite: pass\n"
                 f"dichotomy: case {case.value}\ndeletion/contraction recursion: pass",
                 {"pass": True, "dichotomy_case": case.value,
                  "sum": str(report.total), "reference": str(report.reference)})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "derivative" and min(args.p, args.q) < 0:
        parser.error("derivative orders must be non-negative")
    try:
        return run(args)
    except IdentityError as exc:
        _print_json({"check": "exact identity", "error": str(exc)})
        return 1
    except (MatroidError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
