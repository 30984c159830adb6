"""Compare the benchmark of two revisions in alternating pairs of runs.

    python tools/bench_record.py --ab REV_A REV_B [--rounds N]

It extracts a ``git archive`` copy of each revision, so that each side
runs its own benchmark files, into sibling temporary directories whose
names have equal length, since the setup time and peak memory move with
the length of the path.  Then, for ``--rounds`` rounds (10 by default),
it runs each workload that ``BENCHMARK.json`` declares once on each side,
back to back, with A first and B first in turn: ``perfbench/run.py``,
untraced, for the declared ``run_seconds`` and at perfbench's default
seed.  ``BENCH_<a>_vs_<b>.json``, named by the short shas, holds both
shas, whether ``PYTHONDONTWRITEBYTECODE`` is set in the environment that
every perfbench process gets (each run then recompiles the sources), the
command, every pair's result lines, and, per workload and metric, each
side's median and q1-q3 (perfbench's quartiles), the number of pairs in
which B was lower and in which it was higher, and the two-sided
sign-test p-value of those counts.  Only committed revisions are
compared; time uncommitted work with ``perfbench/run.py`` directly.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_workload(checkout: Path, workload: str, env: dict) -> dict:
    """perfbench's result line for one workload of ``checkout``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload,
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: perfbench exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def workload_names(checkout: Path) -> list:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def extract(sha: str, dest: Path) -> None:
    """A ``git archive`` copy of revision ``sha`` at ``dest``."""
    dest.mkdir(exist_ok=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def quartiles(values: list) -> list:
    """[q1, median, q3], as perfbench computes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def sign_test(lower: int, higher: int) -> float:
    """The two-sided sign-test p-value of `lower` pairs one way and
    `higher` the other, ties left out."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def pair_summary(a: list, b: list) -> dict:
    """Each side's quartiles over paired runs, the pairs in which B was
    lower and higher, and their sign-test p-value."""
    lower = sum(y < x for x, y in zip(a, b))
    higher = sum(y > x for x, y in zip(a, b))
    return {"a": quartiles(a), "b": quartiles(b), "pairs": len(a),
            "b_lower": lower, "b_higher": higher, "sign_p": sign_test(lower, higher)}


def ab(rev_a: str, rev_b: str, rounds: int) -> Path:
    """Run both revisions in alternating pairs and write the paired record."""
    env = dict(os.environ)
    shas = [git("rev-parse", rev) for rev in (rev_a, rev_b)]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp, "a"), Path(tmp, "b")]
        for sha, side in zip(shas, sides):
            extract(sha, side)
        workloads = workload_names(sides[0])
        pairs = {w: [] for w in workloads}
        for n in range(rounds):
            for index, w in enumerate(workloads):
                order = (0, 1) if (n + index) % 2 == 0 else (1, 0)
                pair = {"first": "ab"[order[0]]}
                for side in order:
                    pair["ab"[side]] = run_workload(sides[side], w, env)
                pairs[w].append(pair)
    summary = {
        w: {
            metric: pair_summary(*([p[side]["metrics"][metric]["value"] for p in runs]
                                   for side in "ab"))
            for metric in runs[0]["a"]["metrics"] if metric in runs[0]["b"]["metrics"]
        }
        for w, runs in pairs.items()
    }
    doc = {
        "label": f"{shas[0][:7]}_vs_{shas[1][:7]}",
        "shas": {"a": shas[0], "b": shas[1]},
        "rounds": rounds,
        "dont_write_bytecode": bool(env.get("PYTHONDONTWRITEBYTECODE")),
        "command": sys.argv,
        "correct": all(p[side]["correct"] and not p[side]["failed"]
                       for runs in pairs.values() for p in runs for side in "ab"),
        "summary": summary,
        "pairs": pairs,
    }
    path = ROOT / f"BENCH_{doc['label']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def ab_lines(doc: dict) -> list:
    """One line per (workload, metric) of an --ab record: each side's
    median and q1-q3, B/A of the medians, the pairs in which B was lower
    and the sign-test p-value."""
    lines = [f"{'workload':16s} {'metric':12s} {'A':>10s} {'q1-q3':>17s} "
             f"{'B':>10s} {'q1-q3':>17s}   B/A  B lower  sign p"]
    for workload, metrics in doc["summary"].items():
        for metric, s in metrics.items():
            (a1, a, a3), (b1, b, b3) = s["a"], s["b"]
            ratio = f"{b / a:.3f}" if a else "-"
            lines.append(f"{workload:16s} {metric:12s} {a:10.4f} {f'{a1:.4f}-{a3:.4f}':>17s} "
                         f"{b:10.4f} {f'{b1:.4f}-{b3:.4f}':>17s}  {ratio:>5s}  "
                         f"{s['b_lower']:>3d}/{s['pairs']:<3d}  {s['sign_p']:.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ab", nargs=2, metavar=("REV_A", "REV_B"), required=True,
                        help="compare two git revisions in alternating pairs of runs")
    parser.add_argument("--rounds", type=int, default=10, help="pairs per workload")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    path = ab(*args.ab, args.rounds)
    print("\n".join(ab_lines(json.loads(path.read_text()))))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
