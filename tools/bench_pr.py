"""Before/after benchmark numbers for one change, written to BENCH_<pr>.json.

    python3 tools/bench_pr.py --parent REV --pr N [--seed S]

The change is the committed HEAD: commit it first, so the record names
the two commits it compares.  Both revisions are exported with
`git archive` into a temporary directory; each side runs its own
bench/run.py from its own directory, so results and build products stay
in the temporary copies.

For each workload of BENCHMARK.json, pair i of ten runs

    python3 bench/run.py --workload W --seed S+i --seconds RUN_SECONDS --trace 0

with RUN_SECONDS the benchmark's `run_seconds`, once on each side with
OPENBLAS_NUM_THREADS=1 (and OMP/MKL likewise),
the parent first in even pairs and the change first in odd ones.  The
output holds, per workload and end-to-end metric, each side's runs,
median and quartiles, the pairs the change won, and the verdicts of the
claim rule (at least 9 of 10 pairs won and a median gap larger than the
parent's interquartile distance) and of the no-regression rule (the
metric's bound from BENCHMARK.json), with the metric marked unresolved
where the parent's own spread is wider than that bound, plus run.py's
`environment` block.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method) of
    the runs of one side, with the runs themselves."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": list(values)}


def summarize(pairs: list[tuple[float, float]], better: str,
              bound: float) -> dict:
    """Compare one metric over (parent, change) pairs of runs.

    `better` is "lower" or "higher"; `bound` is the relative worsening of
    the median the benchmark tolerates.  A pair is won when the change is
    strictly better; ties count for neither side.  The gain holds when at
    least nine tenths of the pairs are won and the medians differ by more
    than the parent's interquartile distance.  The metric is unresolved
    when that distance, relative to the parent's median, is wider than
    the bound, unless every run of the change is better than every run
    of the parent: within_bound then cannot tell a regression from noise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) > 0 for p, c in pairs)
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    gap = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    worse = -gap / abs(parent["median"]) if parent["median"] else 0.0
    rel_spread = spread / abs(parent["median"]) if parent["median"] else 0.0
    separated = all(sign * (p - c) > 0
                    for p in parent["runs"] for c in change["runs"])
    return {
        "parent": parent,
        "change": change,
        "pairs": len(pairs),
        "won": won,
        "lost": lost,
        "ties": len(pairs) - won - lost,
        "median_gain": gap,
        "parent_iqr": spread,
        "relative_worsening": worse,
        "bound": bound,
        "gain_holds": won >= 0.9 * len(pairs) and gap > spread,
        "within_bound": worse <= bound,
        "unresolved": rel_spread > bound and not separated,
    }


# ----------------------------------------------------------------------
# checkouts and runs
# ----------------------------------------------------------------------

def git(*args: str) -> bytes:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export_revision(rev: str, dest: Path) -> None:
    """The committed files of rev, from `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run; its final JSON plus the environment block."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {side} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"environment"'):
            out["environment"] = json.loads(line)["environment"]
    return out


def bench_workload(sides: dict, workload: str, seed: int, spec: dict) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            result = run_bench(sides[name], workload, seed + i,
                               spec["run_seconds"])
            runs[name].append(result)
            print(f"{workload} pair {i + 1}/{PAIRS} seed {seed + i} {name}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr, flush=True)
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in zip(runs["parent"], runs["change"])]
        metrics[name] = dict(summarize(values, m["better"], m["bound"]),
                             unit=m["unit"])
    return {
        "seeds": [seed + i for i in range(PAIRS)],
        "first": ["parent" if i % 2 == 0 else "change" for i in range(PAIRS)],
        "metrics": metrics,
        "operations": {side: {"attempted": sum(r["attempted"] for r in rs),
                              "failed": sum(r["failed"] for r in rs),
                              "correct": all(r["correct"] for r in rs)}
                       for side, rs in runs.items()},
        "environment": runs["change"][0]["environment"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pr", required=True, type=int,
                    help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {"parent": git("rev-parse", args.parent).decode().strip(),
            "change": git("rev-parse", "HEAD").decode().strip()}
    with tempfile.TemporaryDirectory(prefix="bench_pr_") as tmp:
        sides = {name: Path(tmp) / name for name in revs}
        for name, path in sides.items():
            path.mkdir()
            export_revision(revs[name], path)
        results = {w["name"]: bench_workload(sides, w["name"], args.seed, spec)
                   for w in spec["workloads"]}
    record = {
        "pr": args.pr,
        **revs,
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {spec['run_seconds']:g} --trace 0",
        "thread_vars": {var: "1" for var in THREAD_VARS},
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
