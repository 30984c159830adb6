"""Record the benchmark of one version of the code, and compare two records.

    python tools/bench_record.py LABEL [--rev REV]
    python tools/bench_record.py --compare A B

The first form runs ``perfbench/run.py`` once per workload that
``BENCHMARK.json`` declares, untraced, for its ``run_seconds`` and at
perfbench's default seed, and writes ``BENCH_<LABEL>.json`` at the
repository root.  Without ``--rev`` it runs the working tree; with it, it
runs a ``git archive`` copy of that revision in a temporary directory, so
both sides of a comparison use their own benchmark files.  A record holds
the git sha (and whether the files the benchmark runs, untracked ones
included, differ from it), whether ``PYTHONDONTWRITEBYTECODE`` is set in
the environment that every perfbench process gets (each pass then
recompiles the sources), the command and, per workload, perfbench's result
line together with the Python version, source digest, quartiles and pass
count from its summary line.

``--compare A B`` takes two record files, or two labels of records at the
root, and prints every metric both records hold, per workload: each
side's median and q1-q3 range, and ``B / A``, marked ``~`` when the two
ranges overlap.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the benchmark builds and runs from a checkout
BENCH_INPUTS = ("src", "perfbench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_workloads(checkout: Path, env: dict) -> dict:
    """perfbench's result line and summary of every workload of ``checkout``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [*spec["command"], "--workload", workload,
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"{workload}: perfbench exited {proc.returncode}\n{proc.stderr}")
        summary = json.loads(lines[-2])
        out[workload] = {
            "result": json.loads(lines[-1]),
            "quartiles": summary["quartiles"],
            "passes": summary["passes"],
            "python": summary["env"]["python"],
            "source_sha256": summary["env"]["source_sha256"],
        }
    return out


def record(label: str, rev: str | None) -> Path:
    env = dict(os.environ)
    doc = {
        "label": label,
        "dont_write_bytecode": bool(env.get("PYTHONDONTWRITEBYTECODE")),
        "command": sys.argv,
    }
    if rev is None:
        doc["git_sha"] = git("rev-parse", "HEAD")
        doc["working_tree_changed"] = bool(git("status", "--porcelain", "--", *BENCH_INPUTS))
        doc["workloads"] = run_workloads(ROOT, env)
    else:
        doc["git_sha"] = git("rev-parse", rev)
        doc["working_tree_changed"] = False
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(["git", "archive", doc["git_sha"]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            doc["workloads"] = run_workloads(Path(tmp), env)
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load(name: str) -> dict:
    path = Path(name)
    return json.loads((path if path.is_file() else ROOT / f"BENCH_{name}.json").read_text())


def spread(w: dict, metric: str):
    """The (q1, q3) of a metric's passes, or None when the record has none."""
    q = w.get("quartiles", {}).get(metric)
    return (q[0], q[2]) if q else None


def compare(a: dict, b: dict) -> list:
    """One line per (workload, metric) present in both records: each
    median with its q1-q3 range, and B/A, marked ``~`` when the two ranges
    overlap, since drift between runs then covers the difference."""
    lines = [f"{'workload':16s} {'metric':12s} {a['label']:>12s} {'q1-q3':>17s} "
             f"{b['label']:>12s} {'q1-q3':>17s}   B/A"]
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        ma, mb = wa["result"]["metrics"], wb["result"]["metrics"]
        for metric in (m for m in ma if m in mb):
            va, vb = ma[metric]["value"], mb[metric]["value"]
            ra, rb = spread(wa, metric), spread(wb, metric)
            overlap = ra and rb and ra[0] <= rb[1] and rb[0] <= ra[1]
            ratio = f"{'~' if overlap else ''}{vb / va:.3f}" if va else "-"
            ranges = ["-" if r is None else f"{r[0]:.4f}-{r[1]:.4f}" for r in (ra, rb)]
            lines.append(f"{workload:16s} {metric:12s} {va:12.4f} {ranges[0]:>17s} "
                         f"{vb:12.4f} {ranges[1]:>17s}   {ratio}")
        for side, w in (("A", wa), ("B", wb)):
            r = w["result"]
            if not r["correct"] or r["failed"]:
                lines.append(f"{workload:16s} {side} not correct: {r['failed']} failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", nargs="?", help="writes BENCH_<label>.json")
    parser.add_argument("--rev", help="benchmark this git revision instead of the working tree")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*map(load, args.compare))))
        return 0
    if not args.label:
        parser.error("a label or --compare is required")
    print(record(args.label, args.rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
