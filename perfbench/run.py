"""precourant's benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload two-term --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --census
    python3 perfbench/run.py --record-digests

A gated run is a closed loop with one client: each pass is a fresh
interpreter (``passrun.py``) that runs the workload's jobs one after
another, and the next pass starts when it has exited.  Passes repeat until
``--seconds`` have gone by (at least MIN_PASSES of them); each metric is
the median over passes.  Build-only passes bring ``setup_s`` up to
SETUP_SAMPLES samples.

Timed passes run the jobs at the reference seed, whose report digests are
recorded in digests.json; the cost of a job varies with its random
sections far more than any regression bound allows (see README.md), so a
timed pass must not change with ``--seed``.  The ``--seed`` inputs run
first as an untimed probe whose verdicts are checked against the known
answers.  With ``--trace 1`` one untraced pass is followed by traced
passes, and the per-layer metrics are printed instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the jobs, the quartiles of every end-to-end metric and the
tracing overhead.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    BENCH_DIR, BUILTIN_DIR, FAILING_FRAME_CHECKS, REFERENCE_SEED, ROOT, VERDICTS,
    WORKLOADS, job_specs,
)

SRC = ROOT / "src"
PASS_SCRIPT = BENCH_DIR / "passrun.py"
DIGESTS = BENCH_DIR / "digests.json"
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends within the 180 s a run may take


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest():
    """SHA-256 over every source and manifest file of the package."""
    h = hashlib.sha256()
    pkg = SRC / "precourant"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".pcm"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_pass(jobs, trace, deadline):
    """Run one pass in a fresh interpreter and measure it from its start."""
    spec = json.dumps({"src": str(SRC), "trace": trace, "jobs": jobs})
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PASS_SCRIPT)], input=spec, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - t_spawn), cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass process exited with status {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["src_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"pass imported precourant from {out['src_file']}, not {SRC}")
    done = [j for j in out["jobs"] if "crashed" not in j]
    task_s = sum(t for j in done for _, t in j["timings"])
    out["metrics"] = {
        "wall_s": out["t_last"] - t_spawn,
        "setup_s": out["t_imported"] - t_spawn
        + sum(j["parse_s"] + j["run_s"] for j in done) - task_s,
        "task_s": task_s,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return out


def repeat(jobs, trace, minimum, seconds, deadline):
    """Passes one after another until ``seconds`` have gone by and at
    least ``minimum`` have run, unless the next one could miss the deadline."""
    passes = []
    t_begin = time.monotonic()
    last = 0.0
    while len(passes) < minimum or time.monotonic() - t_begin < seconds:
        t0 = time.monotonic()
        if passes and t0 + 1.5 * last > deadline:
            break
        passes.append(run_pass(jobs, trace, deadline))
        last = time.monotonic() - t0
    return passes


def failed_frame_checks(result):
    names = (f.split(":")[0] for f in result["failures"].get("verify-axioms", []))
    return tuple(sorted(n for n in names if n.endswith("-frames")))


def check_pass(jobs, out, digests=None):
    """Tasks attempted, tasks failed and a note per failure.  A task fails
    when its job crashed, its verdict differs from the known answer or,
    given ``digests``, its job's report differs from the recorded one."""
    attempted = failed = 0
    problems = []
    for job, result in zip(jobs, out["jobs"]):
        tasks = job["tasks"]
        attempted += len(tasks)
        if "crashed" in result:
            failed += len(tasks)
            problems.append(f"{job['key']}: crashed: {result['crashed']}")
            continue
        job_problems = []
        if digests is not None and digests.get(job["key"]) != result["digest"]:
            job_problems.append("report differs from the recorded digest")
        if job["known_fail"]:
            frame_failures = failed_frame_checks(result)
            if frame_failures != FAILING_FRAME_CHECKS[job["manifest"]]:
                job_problems.append(f"failed frame checks {frame_failures}")
            if result["cli"] != {"exit": 1, "same_report": True}:
                job_problems.append(f"cli {result['cli']}")
        if job_problems:
            failed += len(tasks)
            problems += [f"{job['key']}: {p}" for p in job_problems]
            continue
        known = VERDICTS[job["manifest"]]
        for task in tasks:
            status = result["statuses"].get(task)
            if status != known[task]:
                failed += 1
                problems.append(f"{job['key']}: {task} = {status}, expected {known[task]}")
    return attempted, failed, problems


def load_digests(workload):
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def is_exact_count(name):
    return not (name.endswith(".s") or name.endswith("self_s"))


def layer_metrics(passes):
    """Per-layer values of the traced passes: counts from the first pass,
    times as medians; task times come from ``run_manifest``'s timings."""
    values = []
    for out in passes:
        layers = dict(out["trace"])
        for result in out["jobs"]:
            for task, seconds in result.get("timings", []):
                key = f"runner.task.{task}.s"
                layers[key] = layers.get(key, 0.0) + seconds
        values.append(layers)
    names = set().union(*values)
    return {
        n: values[0].get(n, 0) if is_exact_count(n)
        else statistics.median(v.get(n, 0.0) for v in values)
        for n in names
    }, values


def gated_run(args, spec_doc):
    deadline = time.monotonic() + DEADLINE_S
    jobs = job_specs(args.workload, REFERENCE_SEED)
    digests = load_digests(args.workload)
    attempted = failed = 0
    problems = []
    summary = {"workload": args.workload, "trace": args.trace,
               "env": environment(args.seed), "jobs": jobs}

    if args.seed != REFERENCE_SEED and not args.trace:
        probe_jobs = job_specs(args.workload, args.seed)
        summary["probe_jobs"] = probe_jobs
        a, f, p = check_pass(probe_jobs, run_pass(probe_jobs, False, deadline))
        attempted, failed, problems = a, f, p

    if args.trace:
        passes = repeat(jobs, False, 1, 0.0, deadline)
        traced = repeat(jobs, True, MIN_TRACED_PASSES, args.seconds, deadline)
    else:
        passes = repeat(jobs, False, MIN_PASSES, args.seconds, deadline)
        traced = []

    untraced_digests = [r.get("digest") for r in passes[0]["jobs"]]
    for out in passes + traced:
        a, f, p = check_pass(jobs, out, digests)
        attempted, failed = attempted + a, failed + f
        problems += p
        if [r.get("digest") for r in out["jobs"]] != untraced_digests:
            problems.append("reports differ between passes")

    e2e = {name: [out["metrics"][name] for out in passes] for name in passes[0]["metrics"]}
    if not args.trace:
        # build-only passes (no tasks) until set-up has SETUP_SAMPLES samples
        build_only = [dict(job, tasks=[]) for job in jobs]
        for _ in range(SETUP_SAMPLES - len(passes)):
            e2e["setup_s"].append(run_pass(build_only, False, deadline)["metrics"]["setup_s"])
    summary["passes"] = len(passes)
    summary["pass_metrics"] = e2e
    summary["quartiles"] = {name: quartiles(v) for name, v in e2e.items()}
    if args.trace:
        summary["traced_passes"] = len(traced)
        summary["trace_overhead_s"] = (
            statistics.median(out["metrics"]["wall_s"] for out in traced)
            - e2e["wall_s"][0]
        )
        metrics, per_pass = layer_metrics(traced)
        for name in metrics:
            if is_exact_count(name) and any(v.get(name) != metrics[name] for v in per_pass):
                problems.append(f"{name} differs between traced passes")
        declared = spec_doc["per_layer"]
    else:
        metrics = {name: statistics.median(v) for name, v in e2e.items()}
        declared = spec_doc["end_to_end"]
    summary["problems"] = problems
    print(json.dumps(summary, sort_keys=True))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }


def census():
    """Every builtin manifest once at its own seed, trials and tasks, one
    fresh interpreter each; prints seconds per (manifest, task)."""
    deadline = time.monotonic() + 3600.0
    rows = []
    ok = True
    for path in sorted(BUILTIN_DIR.glob("*.pcm")):
        job = {"key": path.stem, "manifest": path.stem, "path": str(path), "tasks": None,
               "seed": None, "trials": None, "max_degree": None, "known_fail": False}
        out = run_pass([job], False, deadline)
        result = out["jobs"][0]
        for task, seconds in result.get("timings", []):
            status = result["statuses"][task]
            ok = ok and status == VERDICTS[path.stem].get(task)
            rows.append({"manifest": path.stem, "task": task, "s": seconds, "status": status})
            print(f"{path.stem:26s} {task:22s} {seconds:9.3f} s  {status}")
        ok = ok and "crashed" not in result
    print(json.dumps({"env": environment(None), "census": rows, "correct": ok}))
    return 0 if ok else 1


def record_digests():
    """Write digests.json from one reference pass of every workload."""
    deadline = time.monotonic() + 3600.0
    doc = {}
    for name in WORKLOADS:
        jobs = job_specs(name, REFERENCE_SEED)
        out = run_pass(jobs, False, deadline)
        _, failed, problems = check_pass(jobs, out)
        if failed:
            raise BenchError(f"{name}: refusing to record wrong verdicts: {problems}")
        doc[name] = {job["key"]: r["digest"] for job, r in zip(jobs, out["jobs"])}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--census", action="store_true",
                        help="time every builtin manifest at its own settings")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the reference reports' digests")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "precourant" / "__init__.py").is_file():
            raise BenchError(f"no precourant sources under {SRC}")
        if args.census:
            return census()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = gated_run(args, spec_doc)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
