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
from .poly import PolynomialParseError

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


def _exact(value):
    """An exact count: an int when it is integral, else the text of the Fraction."""
    return int(value) if value.denominator == 1 else str(value)


def run(args) -> int:
    # import only the modules this command runs (start-up dominates small jobs), before any work
    if args.command != "tutte":
        from .perspective import identity_perspective, tutte3_closed
    if args.command not in ("tutte", "tutte3"):
        from .expansions import (
            DichotomyCase,
            count_acyclic,
            count_basic_orientations,
            count_bounded,
            deletion_contraction_check,
            derivative_expansion,
            dichotomy_case,
            expansion_sum,
            signed_sum,
            specialization_suite,
        )
    realization, perspective = _load(args)

    if args.command == "tutte":
        if realization is None:
            raise MatroidError("tutte needs a digraph or matrix input; "
                               "use tutte3 for perspectives")
        t = tutte_closed(realization)
        if args.json:
            _print_json(str(t))
        else:
            print(t)
        return 0

    # every other command reads a validated perspective; a matroid input is M -> M
    if perspective is None:
        perspective = identity_perspective(realization)

    if args.command == "tutte3":
        t = tutte3_closed(perspective)
        if args.json:
            _print_json(str(t))
        else:
            print(t)
        return 0

    if args.command == "activities":
        report = expansion_sum(perspective)
        if args.json:
            _print_json(report.to_json_dict())
        else:
            sys.stdout.writelines(report.tsv_blocks())
        return 0

    if args.command == "verify":
        report = expansion_sum(perspective)
        if not report.passed:
            _print_json({"check": "expansion identity",
                         "expected": str(report.reference),
                         "actual": str(report.total)})
            return 1
        suite = specialization_suite(perspective, report=report)
        if not suite.passed:
            _print_json({"check": "specialization suite",
                         "expected": str(suite.tutte),
                         "actual": str(suite.interpolation)})
            return 1
        case = dichotomy_case(perspective) if perspective.ground else DichotomyCase.BOTH
        dc_ok = deletion_contraction_check(perspective, report=report)
        if not dc_ok:
            _print_json({"check": "deletion/contraction recursion",
                         "expected": "minor sums to match",
                         "actual": "mismatch"})
            return 1
        lines = [
            "expansion identity: pass",
            "specialization suite: pass",
            f"dichotomy: case {case.value}",
            "deletion/contraction recursion: pass",
        ]
        if args.json:
            _print_json({"pass": True, "dichotomy_case": case.value,
                         "sum": str(report.total), "reference": str(report.reference)})
        else:
            print("\n".join(lines))
        return 0

    if args.command == "count":
        # each side is a tuple of exact values that must all equal the count
        if args.kind == "acyclic":
            if realization is None:
                raise MatroidError("count acyclic needs a digraph or matrix input")
            value = count_acyclic(perspective.m)
            sides = {"t(2,0)": (tutte_closed(realization).evaluate({"x": 2, "y": 0}),)}
        elif args.kind == "bounded":
            report = expansion_sum(perspective)
            value = count_bounded(perspective, report=report)
            sides = {"t(0,0,1)": (tutte3_closed(perspective).evaluate({"x": 0, "y": 0, "z": 1}),),
                     "signed sum": (signed_sum(perspective, report=report),)}
        else:
            if realization is None:
                raise MatroidError("count bases needs a digraph or matrix input")
            value = len(bases(realization))
            sides = {"t(1,1)": (tutte_closed(realization).evaluate({"x": 1, "y": 1}),),
                     "basic orientations": count_basic_orientations(perspective.m)}
        agree = all(side == value for values in sides.values() for side in values)
        exact = {name: [_exact(side) for side in values] for name, values in sides.items()}
        if args.json:
            _print_json({"value": value, "sides": exact, "agree": agree})
        else:
            shown = (f"{name}={','.join(map(str, values))}" for name, values in exact.items())
            print(f"{value} ({', '.join(shown)})")
        return 0 if agree else 1

    if args.command == "derivative":
        report = expansion_sum(perspective)
        activity_side = derivative_expansion(perspective, args.p, args.q, report=report)
        formal = tutte3_closed(perspective).substitute({"z": 1})
        formal = formal.partial_derivative("x", args.p).partial_derivative("y", args.q)
        if args.json:
            _print_json({"activity": str(activity_side), "formal": str(formal),
                         "equal": activity_side == formal})
        else:
            print(f"activity side: {activity_side}")
            print(f"formal derivative: {formal}")
        if activity_side != formal:
            return 1
        return 0

    raise AssertionError(f"unhandled command {args.command}")


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
    except (MatroidError, PolynomialParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
