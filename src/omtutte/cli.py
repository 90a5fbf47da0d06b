"""Command line front end.

Exit codes: 0 all checks pass, 1 an exact identity failed (a JSON diff of the
two polynomials is printed, or the two sides of a count disagree), 2 the
arguments or the input could not be parsed or validated, 141 stdout was closed
before the output was written (as a shell reports a writer killed by SIGPIPE).
Output is byte-identical across runs.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

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


_USAGE = """\
usage: omtutte {tutte,tutte3,activities,verify} --input PATH [options]
       omtutte count {acyclic,bounded,bases} --input PATH [options]
       omtutte derivative [-p P] [-q Q] --input PATH [options]
"""

_HELP = _USAGE + """
commands:
  tutte        print t(M;x,y)
  tutte3       print t(M,M';x,y,z)
  activities   print the per-reorientation activity table
  verify       run all identity checks; exit 0 iff they pass
  count        counting identities: acyclic, bounded or bases
  derivative   activity expansion of a partial derivative

options (spelled in full; --opt VALUE or --opt=VALUE):
  -h, --help       show this help and exit
  --input PATH     input file path (required)
  --format FORMAT  digraph (default), matrix or perspective
  --json           machine-readable output
  --force          override the enumeration guard
  -p P, -q Q       derivative only: the orders in x and y (default 0)

exit codes: 0 checks pass, 1 an exact identity failed, 2 usage, parse or validation error,
  141 stdout closed before the output was written
"""

_COMMANDS = ("tutte", "tutte3", "activities", "verify", "count", "derivative")
_KINDS = ("acyclic", "bounded", "bases")
_FORMATS = ("digraph", "matrix", "perspective")
# option -> (attribute, value type or None for a flag, the only command that takes it)
_OPTIONS = {"--input": ("input", str, None), "--format": ("format", str, None),
            "--json": ("json", None, None), "--force": ("force", None, None),
            "-p": ("p", int, "derivative"), "-q": ("q", int, "derivative")}


def _usage_error(reason: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}omtutte: error: {reason}\n")
    raise SystemExit(2)


def _choice(name: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        _usage_error(f"argument {name}: invalid choice: {value!r} "
                     f"(choose from {', '.join(choices)})")
    return value


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, kind and options in ``argv``, checked against the tables above.

    A usage error prints the usage and its reason on stderr and exits 2.
    """
    args = SimpleNamespace(command=None, kind=None, input=None, format="digraph",
                           json=False, force=False, p=0, q=0)
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if not token.startswith("-") or token == "-":
            if args.command is None:
                args.command = _choice("command", token, _COMMANDS)
            elif args.command == "count" and args.kind is None:
                args.kind = _choice("kind", token, _KINDS)
            else:
                _usage_error(f"unrecognized arguments: {token}")
            continue
        if token.startswith("--"):
            name, eq, value = token.partition("=")
        else:  # a short option's value may be attached: -p1 or -p=1
            name, eq, value = token[:2], token[2:], token[2:].removeprefix("=")
        if name not in _OPTIONS or _OPTIONS[name][2] not in (None, args.command):
            _usage_error(f"unrecognized arguments: {token}")
        attr, value_type, _ = _OPTIONS[name]
        if value_type is None:
            if eq:
                _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                _usage_error(f"argument {name}: expected one argument")
        if value_type is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
            if value < 0:
                _usage_error(f"argument {name}: derivative orders must be non-negative")
        setattr(args, attr, value)
    if args.command is None:
        _usage_error("the following arguments are required: command")
    if args.command == "count" and args.kind is None:
        _usage_error("the following arguments are required: kind")
    if args.input is None:
        _usage_error("the following arguments are required: --input")
    _choice("--format", args.format, _FORMATS)
    return args


def _load(args) -> tuple[OrientedRealization | None, Perspective | None]:
    """Read the input file: a realization for matroid inputs, else a perspective.

    Its root rank tables are admitted here, the only place that reads ``--force``.
    """
    with open(args.input, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not data
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


def _emit(args, text: str, payload) -> int:
    """Print ``payload`` as JSON under ``--json``, else ``text``; its exit code is 0."""
    if args.json:
        _print_json(payload)
    else:
        print(text)
    return 0


def _fail(check: str, expected, actual) -> int:
    """Print the JSON diff of a failed verify check; its exit code is 1."""
    _print_json({"check": check, "expected": str(expected), "actual": str(actual)})
    return 1


def run(args) -> int:
    # a refused input is never read, and each command imports only the modules it runs
    if args.format == "perspective" and args.command == "tutte":
        raise MatroidError("tutte needs a digraph or matrix input; use tutte3 for perspectives")
    if args.format == "perspective" and args.kind in ("acyclic", "bases"):
        raise MatroidError(f"count {args.kind} needs a digraph or matrix input")
    realization, perspective = _load(args)
    if realization is not None and args.command in ("tutte", "tutte3"):
        t = str(tutte_closed(realization))  # t(M,M;x,y,z) has no z term: it is t(M;x,y)
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

    report = expansion_sum(perspective)
    if args.command == "count":
        # each side is a tuple of ints that must all equal the count
        if args.kind == "bounded":
            value = count_bounded(perspective)
            sides = {"t(0,0,1)": (report.tutte.evaluate({"x": 0, "y": 0}),),
                     "signed sum": (signed_sum(perspective),)}
        elif args.kind == "acyclic":
            value = count_acyclic(perspective.m)
            sides = {"t(2,0)": (report.tutte.evaluate({"x": 2, "y": 0}),)}
        else:
            value = len(bases(realization))
            sides = {"t(1,1)": (report.tutte.evaluate({"x": 1, "y": 1}),),
                     "basic orientations": count_basic_orientations(perspective.m)}
        agree = all(side == value for values in sides.values() for side in values)
        shown = ", ".join(f"{name}={','.join(map(str, values))}" for name, values in sides.items())
        _emit(args, f"{value} ({shown})", {"value": value, "sides": sides, "agree": agree})
        return 0 if agree else 1

    if args.command == "activities":  # either format writes itself in blocks, never held whole
        sys.stdout.writelines(report.blocks(args.json))
        return 0

    if args.command == "derivative":
        activity_side = derivative_expansion(perspective, args.p, args.q)
        formal = report.tutte.partial_derivative("x", args.p).partial_derivative("y", args.q)
        equal = activity_side == formal
        _emit(args, f"activity side: {activity_side}\nformal derivative: {formal}",
              {"activity": str(activity_side), "formal": str(formal), "equal": equal})
        return 0 if equal else 1

    # verify: the checks run in this order, and the first that fails is reported
    if not report.passed:
        return _fail("expansion identity", report.reference, report.total)
    suite = specialization_suite(perspective)
    if not suite.passed:
        return _fail("specialization suite", suite.tutte, suite.interpolation)
    case = dichotomy_case(perspective) if perspective.ground else DichotomyCase.BOTH
    if not deletion_contraction_check(perspective):
        return _fail("deletion/contraction recursion", "minor sums to match", "mismatch")
    return _emit(args, "expansion identity: pass\nspecialization suite: pass\n"
                 f"dichotomy: case {case.value}\ndeletion/contraction recursion: pass",
                 {"pass": True, "dichotomy_case": case.value,
                  "sum": str(report.total), "reference": str(report.reference)})


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return run(_parse_args(sys.argv[1:] if argv is None else argv))
        except IdentityError as exc:
            _print_json({"check": "exact identity", "error": str(exc)})
            return 1
        finally:
            sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's exit flush
    except BrokenPipeError:
        # the reader is gone: send the rest of the output nowhere, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (MatroidError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()  # the exit-time full collections then skip every object alive now


if __name__ == "__main__":
    entry()
