"""Compare the CLI reports of a parent revision with those of HEAD.

    python3 tools/report_diff.py --parent REV

The check that a refactor left the program's output as it was.  Both
revisions are exported with `git archive` (bench_pr.export_revision) into
a temporary directory, and each export runs the same g2glue commands
from its own src/ with PYTHONHASHSEED=0 and OPENBLAS_NUM_THREADS=1.  Each
JSON report is compared with its `timing_seconds` removed, each CSV file
byte for byte, and so is each command's exit code.  Prints the fields
that differ and exits 1 on any difference, 0 when every report is equal.
The change is the committed HEAD: commit it first.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, command words after `python -m g2glue.cli`, writes a CSV)
COMMANDS = (
    ("all-fast", ("all", "--fast"), False),
    ("eh-verify", ("eh", "verify"), False),
    ("eh-decay", ("eh", "decay"), True),
    ("cone-rates", ("cone", "rates", "--degree", "2", "--from=-39/10",
                    "--to", "0"), False),
    ("cone-index", ("cone", "index", "--degree", "2", "--from=-3",
                    "--to=-1"), False),
    ("cone-oracle", ("cone", "oracle"), False),
    ("rates-jk-naive", ("rates", "jk", "--table", "naive"), False),
    ("rates-jk-refined", ("rates", "jk", "--table", "refined"), False),
    ("kummer-fixed-points", ("kummer", "fixed-points"), False),
    ("kummer-torsion", ("kummer", "torsion"), True),
    ("torus-solve", ("torus", "solve", "--n", "4"), False),
)


def json_diff(a, b, path: str = "") -> list[str]:
    """The paths at which two JSON values differ, each with both values.
    Values are equal when they serialize alike: 1 and 1.0 differ, and a
    NaN equals a NaN."""
    if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in sorted(set(a) | set(b), key=str)
                for line in json_diff(a.get(key, "<absent>"),
                                      b.get(key, "<absent>"),
                                      f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list):
        lines = [line for i, (x, y) in enumerate(zip(a, b))
                 for line in json_diff(x, y, f"{path}[{i}]")]
        if len(a) != len(b):
            lines.append(f"{path or '.'}: {len(a)} items != {len(b)} items")
        return lines
    return [f"{path or '.'}: {a!r} != {b!r}"]


def compare_reports(parent: dict, change: dict) -> list[str]:
    """json_diff of two reports, each without its timing_seconds."""
    return json_diff(*({k: v for k, v in report.items()
                        if k != "timing_seconds"}
                       for report in (parent, change)))


def run_command(side: Path, name: str, words: tuple, csv: bool) -> dict:
    """One CLI command in an export: its exit code, report and CSV bytes."""
    out, rows = side / f"{name}.json", side / f"{name}.csv"
    cmd = [sys.executable, "-m", "g2glue.cli", *words, "--out", str(out)]
    if csv:
        cmd += ["--csv", str(rows)]
    env = dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=side, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return {"code": proc.returncode, "stderr": proc.stderr.strip()[-500:],
            "report": json.loads(out.read_text()) if out.exists() else None,
            "csv": rows.read_bytes() if rows.exists() else None}


def compare_runs(parent: dict, change: dict) -> list[str]:
    """The differences between one command's runs on the two sides."""
    lines = []
    if parent["code"] != change["code"]:
        lines.append(f"exit code: {parent['code']} != {change['code']} "
                     f"({parent['stderr'] or change['stderr']})")
    if parent["report"] is None or change["report"] is None:
        lines.append("no report on one side")
    else:
        lines += compare_reports(parent["report"], change["report"])
    if parent["csv"] != change["csv"]:
        lines.append("CSV files differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    args = ap.parse_args(argv)
    # tools/ is sys.path[0] when this file runs as a script
    from bench_pr import export_revision, git
    revs = {"parent": git("rev-parse", args.parent).decode().strip(),
            "change": git("rev-parse", "HEAD").decode().strip()}
    different = 0
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        sides = {name: Path(tmp) / name for name in revs}
        for name, path in sides.items():
            path.mkdir()
            export_revision(revs[name], path)
        for name, words, csv in COMMANDS:
            parent, change = (run_command(sides[side], name, words, csv)
                              for side in ("parent", "change"))
            lines = compare_runs(parent, change)
            print(f"{name}: {'differs' if lines else 'equal'}")
            for line in lines:
                print(f"  {line}")
            different += bool(lines)
    print(f"{different} of {len(COMMANDS)} commands differ between "
          f"{revs['parent'][:10]} and {revs['change'][:10]}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
