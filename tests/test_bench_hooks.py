"""The bench tracer still finds, wraps and sees every function it hooks.

bench/traced_job.py wraps package functions by name from outside the
package; a refactor that renames or drops one would otherwise fail only in
the benchmark's own smoke run.
"""

import importlib.util
import sys
from pathlib import Path

TRACED_JOB = Path(__file__).resolve().parents[1] / "bench" / "traced_job.py"


def load_traced_job():
    spec = importlib.util.spec_from_file_location("traced_job", TRACED_JOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_exist_and_fire(tmp_path, capsys):
    traced_job = load_traced_job()
    cli, spans, leaves = traced_job._load_targets()
    targets = [target for _, owners, _ in spans for target in owners]
    targets += [target for _, owners in leaves for target in owners]
    missing = [f"{owner.__name__}.{attribute}" for owner, attribute in targets
               if attribute not in vars(owner)]
    assert not missing

    modules = [module for name, module in sys.modules.items()
               if name == "omtutte" or name.startswith("omtutte.")]
    saved_modules = [(module, dict(vars(module))) for module in modules]
    saved_attributes = [(owner, attribute, vars(owner)[attribute])
                        for owner, attribute in targets]
    tracer = traced_job.Tracer("hooks")
    path = tmp_path / "doubled_triangle.dg"
    path.write_text("1 a b\n2 a b\n3 c b\n4 c a\n", encoding="utf-8")
    try:
        traced_job.install(tracer, spans, leaves)
        # count bases reads the signed circuits, so the circuit hook must fire
        code = cli.main(["count", "bases", "--input", str(path)])
    finally:
        for owner, attribute, original in saved_attributes:
            setattr(owner, attribute, original)
        for module, namespace in saved_modules:
            for key, value in namespace.items():
                setattr(module, key, value)
    assert code == 0
    assert capsys.readouterr().out == "5 (t(1,1)=5, basic orientations=5,5)\n"
    assert tracer.counts["oriented.circuits.calls"] > 0
    assert tracer.counts["cli.calls"] == 1
