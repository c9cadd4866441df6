"""The g2glue benchmark.

    python3 bench/run.py --workload torus-n4 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Workloads: torus-n4, kummer-gluing, symbolic-oracle (see README.md).
Each round runs in a fresh interpreter (child.py), started one at a time
from this process with the BLAS thread pools pinned before the child's
interpreter starts.  Rounds repeat until --seconds of timed work is done,
at least one.  An untraced run prints the end-to-end metrics (wall_s,
cpu_s, peak_rss_mb, setup_s) as medians over its rounds; a traced run
(--trace 1) alternates untraced and traced rounds and prints the
per-layer metrics and trace.overhead_s.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
results and traces are also written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("torus-n4", "kummer-gluing", "symbolic-oracle")

BLAS_THREADS = 1            # one core per run; at most nproc
SETUP_PROBES = 2            # set-up-only children per untraced run
CHILD_TIMEOUT_S = 160


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"       # sympy's term order, hence its work
    return env


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra, "--spawned-at"]
    cmd.append(repr(time.perf_counter()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child timed out after "
                         f"{CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}")
    return json.loads(lines[-1])


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "sympy": metadata.version("sympy"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_revision": git_revision(),
        "machine": platform.machine(),
    }


def _tally(rounds) -> tuple[int, int, bool]:
    ops = [op for r in rounds for op in r["operations"]]
    failed = sum(not op["ok"] for op in ops)
    correct = not any(op["wrong"] for op in ops)
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op.get('error') or op['checks']}",
                  file=sys.stderr)
    return len(ops), failed, correct


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn(workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        rounds.append(spawn(workload, seed))
    setups += [r["setup_s"] for r in rounds]
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return {"rounds": rounds, "setup_samples": setups, "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    plain, traced = [], []
    while not traced or sum(r["wall_s"] for r in traced) < seconds:
        plain.append(spawn(workload, seed))
        trace = RESULTS / f"trace-{workload}-seed{seed}-{len(traced)}.jsonl"
        traced.append(spawn(workload, seed, "--trace-file", str(trace)))
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    return {"rounds": plain + traced, "metrics": layers}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    body = (run_traced if trace else run_untraced)(workload, seed, seconds)
    attempted, failed, correct = _tally(body["rounds"])
    unit = units()
    metrics = {k: {"value": v, "unit": unit[k]}
               for k, v in body["metrics"].items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, environment=env, rounds=body["rounds"],
                  setup_samples=body.get("setup_samples"))
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    for name, m in metrics.items():
        print(f"{workload:16s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:16s} operations attempted {attempted}, failed {failed}, "
          f"outputs correct: {correct}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "g2glue" / "__init__.py").is_file():
        print(f"no g2glue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
