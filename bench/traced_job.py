"""Run one omtutte CLI job with its public functions wrapped by a tracer.

    python3 bench/traced_job.py <job-id> <trace-out.json> -- <omtutte cli argv>

The tracer patches every binding of each function listed in
``_load_targets`` (``cli`` and ``omtutte/__init__`` re-bind them through
``from .x import y``), calls ``omtutte.cli.main(argv)``, then writes what it
recorded to ``trace-out.json`` and exits with main's status.  stdout is the
CLI's own output, unchanged.

Span functions record one span each: name, start, end, parent, job id.  Hot
leaves (``rank`` and ``Polynomial`` arithmetic) record only a call count and
busy time, taken at the outermost call when they nest, and charge that time
to the innermost open span so self times can subtract it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _load_targets():
    import omtutte  # noqa: F401  (imports every submodule)
    from omtutte import cli, expansions, matroid, oriented, perspective
    from omtutte.expansions import ExpansionReport
    from omtutte.matroid import OrientedRealization as R
    from omtutte.oriented import OrientedMatroid
    from omtutte.poly import Polynomial as P

    def pairs(args, kwargs, result):
        m, mprime = args[:2]
        return {"pairs": len(m.circuits) * len(mprime.cocircuits)}

    def masks(args, kwargs, result):
        return {"masks": 1 << len(args[0].ground)}

    def sweep(args, kwargs, result):
        return {"masks": 1 << len(args[0].ground), "rows": len(result.rows)}

    def render(args, kwargs, result):
        text = result if isinstance(result, str) else json.dumps(
            result, indent=2, sort_keys=True)
        return {"bytes": len(text.encode())}

    spans = [
        # (layer, [(owner, attribute)], counter of extra per-call counts)
        ("matroid.tutte_closed", [(matroid, "tutte_closed")], None),
        ("matroid.minors", [(R, "delete"), (R, "contract"), (R, "dual"),
                            (R, "negate_columns")], None),
        ("oriented.circuits", [(oriented, "signed_circuits")],
         lambda a, k, r: {"found": len(r) // 2}),
        ("oriented.reorient", [(OrientedMatroid, "reorient")], None),
        ("perspective.validate", [(perspective, "validate")], pairs),
        ("perspective.tutte3_closed", [(perspective, "tutte3_closed")], None),
        ("expansions.sweep", [(expansions, "expansion_sum")], sweep),
        ("expansions.specialization", [(expansions, "specialization_suite")], None),
        ("expansions.dichotomy", [(expansions, "dichotomy_case")], None),
        ("expansions.delcon", [(expansions, "deletion_contraction_check")], None),
        ("expansions.counts", [(expansions, n) for n in (
            "count_acyclic", "count_bounded", "signed_sum",
            "count_basic_orientations")], masks),
        ("expansions.derivative", [(expansions, "derivative_expansion"),
                                   (expansions, "derivative_diag")], None),
        ("expansions.render", [(ExpansionReport, "to_tsv"),
                               (ExpansionReport, "to_json_dict")], render),
        ("cli", [(cli, "main")], None),
    ]
    leaves = [
        ("matroid.rank", [(R, "rank")]),
        ("poly.ops", [(P, n) for n in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__pow__", "__eq__", "substitute", "evaluate",
            "partial_derivative")]),
    ]
    return cli, spans, leaves


class Tracer:
    """Spans and leaf aggregates of one job, kept in memory until it ends."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, start, end, parent, leaf_s]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.in_leaf = False

    def span(self, name, fn, extra):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            self.counts[name + ".calls"] += 1
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced

    def leaf(self, name, fn):
        def traced(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self.in_leaf = False
                self.leaf_calls[name] += 1
                self.leaf_s[name] += busy
                if self.stack:
                    self.spans[self.stack[-1]][4] += busy
        return traced

    def dump(self) -> dict:
        return {"job": self.job, "spans": self.spans, "counts": dict(self.counts),
                "leaves": {name: [self.leaf_calls[name], self.leaf_s[name]]
                           for name in self.leaf_calls}}


def install(tracer: Tracer, spans, leaves) -> None:
    """Replace each target, in its owner and in every omtutte module binding it."""
    modules = [m for name, m in sys.modules.items()
               if name == "omtutte" or name.startswith("omtutte.")]
    wrapped: dict[int, object] = {}
    targets = [(name, owners, extra, True) for name, owners, extra in spans]
    targets += [(name, owners, None, False) for name, owners in leaves]
    for name, owners, extra, is_span in targets:
        for owner, attribute in owners:
            original = vars(owner)[attribute]
            if id(original) not in wrapped:
                wrapped[id(original)] = (tracer.span(name, original, extra) if is_span
                                         else tracer.leaf(name, original))
            setattr(owner, attribute, wrapped[id(original)])
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped[id(original)])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_job.py <job-id> <trace-out.json> -- <cli argv>",
              file=sys.stderr)
        return 2
    job, out_path, cli_argv = argv[0], argv[1], argv[3:]
    cli, spans, leaves = _load_targets()
    tracer = Tracer(job)
    install(tracer, spans, leaves)
    code = cli.main(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
