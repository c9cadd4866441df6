"""The traced bench run wraps g2glue functions by name: every name that
bench/spans.py lists must exist, or every traced run raises.  The bench
module is only read here."""

import importlib
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("bench_spans", _PATH)
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
