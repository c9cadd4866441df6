"""The bench calls g2glue by name: every name that bench/spans.py wraps
must exist, or every traced run raises, and each workload must build its
calls against the current API.  The bench modules are only read here."""

import importlib
import importlib.util
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_SPEC = importlib.util.spec_from_file_location("bench_spans",
                                               _BENCH / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _targets():
    """(owner, attribute name) of every function and method the tracer
    wraps, looked up without it."""
    for mod, *_ in spans.FUNCTIONS + spans.METHODS:
        importlib.import_module(f"g2glue.{mod}")
    out = [(sys.modules[f"g2glue.{mod}"], name)
           for mod, name, _, _ in spans.FUNCTIONS]
    out += [(getattr(sys.modules[f"g2glue.{mod}"], cls), meth)
            for mod, cls, meth, _ in spans.METHODS]
    return out


def test_tracer_wraps_every_listed_name():
    targets = _targets()
    originals = [getattr(owner, name) for owner, name in targets]
    tracer = spans.Tracer("t")
    try:
        tracer.install()
        wrapped = [getattr(owner, name) for owner, name in targets]
    finally:
        tracer.uninstall()
    missing = [name for (_, name), orig, now
               in zip(targets, originals, wrapped)
               if getattr(now, "__wrapped__", None) is not orig]
    assert missing == []
    assert [getattr(owner, name) for owner, name in targets] == originals


def test_torus_workload_builds_its_config(monkeypatch):
    # torus-n4 builds its SolverConfig, operator_mode keyword included,
    # when its round is made: a keyword the solver no longer takes fails
    # here.  The solve is not run.
    for name in ("checks", "workloads"):    # workloads imports checks
        spec = importlib.util.spec_from_file_location(name,
                                                      _BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # registered while it runs, as its dataclasses look it up
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    (op,) = module.torus_n4(1)
    assert op.name == "torus.solve" and callable(op.call)
