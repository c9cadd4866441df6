"""One round of a workload in a fresh interpreter.

Started by run.py, never by hand.  Set-up is timed from the moment the
parent started this interpreter (``--spawned-at``, a ``time.perf_counter``
reading; both processes read the same monotonic clock) until numpy,
scipy, sympy and the workload's g2glue modules are imported.  The timed
part then makes the workload's calls into g2glue; the checks run after
it.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _import_program(modules) -> None:
    """Import numpy, scipy, sympy and the g2glue modules from this
    checkout's src/, and refuse a g2glue found anywhere else."""
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import sympy  # noqa: F401
    sys.path.insert(0, str(ROOT / "src"))
    for name in modules:
        importlib.import_module(f"g2glue.{name}")
    pkg = Path(sys.modules["g2glue"].__file__).resolve()
    if ROOT / "src" not in pkg.parents:
        raise ImportError(f"g2glue imported from {pkg}, not from {ROOT}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    modules = {"torus-n4": ("forms", "torus"),
               "kummer-gluing": ("forms", "eguchi_hanson", "kummer"),
               "symbolic-oracle": ("eguchi_hanson", "cone")}[args.workload]
    _import_program(modules)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads
    ops = workloads.ROUNDS[args.workload](args.seed)
    tracer = None
    if args.trace_file:
        from spans import Tracer, per_layer_metrics
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()

    results, errors = [], {}
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for op in ops:
        try:
            results.append(op.call())
        except Exception:           # a raised exception is a failed operation
            results.append(None)
            errors[op.name] = traceback.format_exc(limit=3)
    wall_s, cpu_s = time.perf_counter() - t0, _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(args.trace_file)
        layers = per_layer_metrics(tracer.summary())

    outcome = []
    for op, res in zip(ops, results):
        if op.name in errors:
            outcome.append({"op": op.name, "ok": False, "wrong": False,
                            "error": errors[op.name]})
            continue
        try:
            found = op.check(res)
        except Exception:
            outcome.append({"op": op.name, "ok": False, "wrong": True,
                            "error": traceback.format_exc(limit=3)})
            continue
        ok = bool(found) and all(c.ok for c in found)
        outcome.append({"op": op.name, "ok": ok, "wrong": not ok,
                        "checks": [[c.name, c.ok, c.detail] for c in found]})

    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "operations": outcome, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
