"""Record the benchmark of one version of the code, and compare two versions.

    python tools/bench_record.py LABEL [--rev REV]
    python tools/bench_record.py --ab REV_A REV_B [--rounds N]
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

``--ab REV_A REV_B`` compares two revisions in pairs of runs.  It
extracts a ``git archive`` copy of each into sibling temporary
directories whose names have equal length, since the setup time and peak
memory move with the length of the path.  Then, for ``--rounds`` rounds
(10 by default), it runs each workload once on each side, back to back,
with A first and B first in turn.  ``BENCH_<a>_vs_<b>.json``, named by
the short shas, holds both shas, every pair's result lines and its load
reading, the larger of the host's one-minute load average before and
after the pair (the average trails the load by about a minute, so the
reading after catches load that starts during the pair), and, per
workload and metric, each side's median and q1-q3 (perfbench's
quartiles), the number of pairs in which B was lower and in which it was
higher, and the two-sided sign-test p-value of those counts.  Its
summary names each pair whose load reading is at least 1 above the
median reading of the record, since load from outside the pair distorts
both of its runs.

``--compare A B`` takes two sequential records (the first form), as files
or as labels of records at the root, names each as such, and prints
every metric both records hold, per workload: each side's median and
q1-q3 range, and ``B / A``, marked ``~`` when the two ranges overlap.  A
paired ``--ab`` record holds no single pass to compare; ``--compare``
exits 2 on one, and its own summary is printed when it is written.  A
record that is neither a file nor at the root also exits 2, with one
line.  Only the standard library is used.
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
# what the benchmark builds and runs from a checkout
BENCH_INPUTS = ("src", "perfbench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_workload(checkout: Path, workload: str, env: dict) -> dict:
    """perfbench's result line and summary of one workload of ``checkout``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload,
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: perfbench exited {proc.returncode}\n{proc.stderr}")
    summary = json.loads(lines[-2])
    return {
        "result": json.loads(lines[-1]),
        "quartiles": summary["quartiles"],
        "passes": summary["passes"],
        "python": summary["env"]["python"],
        "source_sha256": summary["env"]["source_sha256"],
    }


def workload_names(checkout: Path) -> list:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def extract(sha: str, dest: Path) -> None:
    """A ``git archive`` copy of revision ``sha`` at ``dest``."""
    dest.mkdir(exist_ok=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


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
        doc["workloads"] = {w: run_workload(ROOT, w, env) for w in workload_names(ROOT)}
    else:
        doc["git_sha"] = git("rev-parse", rev)
        doc["working_tree_changed"] = False
        with tempfile.TemporaryDirectory() as tmp:
            checkout = Path(tmp)
            extract(doc["git_sha"], checkout)
            doc["workloads"] = {w: run_workload(checkout, w, env) for w in workload_names(checkout)}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


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
                pair, before = {"first": "ab"[order[0]]}, os.getloadavg()[0]
                for side in order:
                    pair["ab"[side]] = run_workload(sides[side], w, env)["result"]
                pairs[w].append({**pair, "load": max(before, os.getloadavg()[0])})
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
    and the sign-test p-value; then one line per pair, numbered from 1 in
    its workload, whose load reading is at least 1 above the median
    reading.  A record from before the readings has no such line."""
    lines = [f"{'workload':16s} {'metric':12s} {'A':>10s} {'q1-q3':>17s} "
             f"{'B':>10s} {'q1-q3':>17s}   B/A  B lower  sign p"]
    for workload, metrics in doc["summary"].items():
        for metric, s in metrics.items():
            (a1, a, a3), (b1, b, b3) = s["a"], s["b"]
            ratio = f"{b / a:.3f}" if a else "-"
            lines.append(f"{workload:16s} {metric:12s} {a:10.4f} {f'{a1:.4f}-{a3:.4f}':>17s} "
                         f"{b:10.4f} {f'{b1:.4f}-{b3:.4f}':>17s}  {ratio:>5s}  "
                         f"{s['b_lower']:>3d}/{s['pairs']:<3d}  {s['sign_p']:.4f}")
    loads = [p["load"] for runs in doc["pairs"].values() for p in runs if "load" in p]
    if loads:
        median = statistics.median(loads)
        lines += [f"loaded pair: {w} {n}, load {p['load']:.2f} against a median of {median:.2f}"
                  for w, runs in doc["pairs"].items() for n, p in enumerate(runs, 1)
                  if p.get("load", median) >= median + 1]
    return lines


def load(name: str) -> dict:
    """A record given as a file or as the label of a record at the root; a
    missing one ends the run with one line and exit status 2."""
    path = Path(name)
    if not path.is_file():
        path = ROOT / f"BENCH_{name}.json"
    if not path.is_file():
        print(f"bench_record.py: no record {name}: neither a file nor {path.name} "
              f"at the repository root", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(path.read_text())


def kind(doc: dict) -> str:
    """What a record holds: one sequential pass per side, or pairs of runs."""
    return "paired --ab record" if "pairs" in doc else "sequential LABEL record"


def spread(w: dict, metric: str):
    """The (q1, q3) of a metric's passes, or None when the record has none."""
    q = w.get("quartiles", {}).get(metric)
    return (q[0], q[2]) if q else None


def compare(a: dict, b: dict) -> list:
    """One line per (workload, metric) present in both records: each
    median with its q1-q3 range, and B/A, marked ``~`` when the two ranges
    overlap, since drift between runs then covers the difference."""
    lines = [f"{side} = {doc['label']}: {kind(doc)}" for side, doc in (("A", a), ("B", b))]
    lines += [f"{'workload':16s} {'metric':12s} {a['label']:>12s} {'q1-q3':>17s} "
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
    parser.add_argument("--ab", nargs=2, metavar=("REV_A", "REV_B"),
                        help="compare two git revisions in alternating pairs of runs")
    parser.add_argument("--rounds", type=int, default=10, help="pairs per workload for --ab")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.ab:
        if args.rounds < 2:
            parser.error("--rounds must be at least 2")
        path = ab(*args.ab, args.rounds)
        print("\n".join(ab_lines(json.loads(path.read_text()))))
        print(path)
        return 0
    if args.compare:
        docs = [load(name) for name in args.compare]
        for name, doc in zip(args.compare, docs):
            if "pairs" in doc:
                print(f"bench_record.py: {name} is a {kind(doc)}; --compare reads two "
                      f"sequential LABEL records", file=sys.stderr)
                return 2
        print("\n".join(compare(*docs)))
        return 0
    if not args.label:
        parser.error("a label or --compare is required")
    print(record(args.label, args.rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
