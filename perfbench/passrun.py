"""One pass of a workload in a fresh interpreter.

Reads a JSON object ``{"src": ..., "trace": bool, "jobs": [...]}`` on stdin,
runs each job through ``parse_manifest`` and ``run_manifest`` one after
another, and prints one JSON line: monotonic timestamps, per-job timings,
verdicts and report digests, the peak RSS and, when traced, the per-layer
counters.  ``time.monotonic`` is system-wide, so the parent can subtract
the moment it started this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def run_job(job, manifest_mod, runner_mod):
    t0 = time.monotonic()
    with open(job["path"], encoding="utf-8") as fh:
        m = manifest_mod.parse_manifest(fh.read(), name=job["manifest"])
    for key in ("seed", "trials", "max_degree"):  # None keeps the manifest's value
        if job[key] is not None:
            setattr(m, key, job[key])
    t1 = time.monotonic()
    timings = []
    report = runner_mod.run_manifest(m, tasks=job["tasks"], timings=timings)
    t2 = time.monotonic()
    text = report.to_text()
    return text, {
        "parse_s": t1 - t0,
        "run_s": t2 - t1,
        "timings": timings,
        "statuses": {t.name: t.status for t in report.tasks},
        "failures": {t.name: t.failures for t in report.tasks if t.failures},
        "build_error": report.build_error,
        "ok": report.ok,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def cli_check(job, text):
    """Exit status of the CLI on the job, and whether it printed ``text``."""
    from precourant import cli

    argv = ["--manifest", job["path"], "--seed", str(job["seed"]),
            "--trials", str(job["trials"]), "--quiet"]
    if job["max_degree"] is not None:
        argv += ["--max-degree", str(job["max_degree"])]
    for task in job["tasks"]:
        argv += ["--task", task]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "same_report": out.getvalue() == text}


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import precourant.manifest as manifest_mod
    import precourant.runner as runner_mod

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_imported = time.monotonic()

    results, texts = [], []
    for job in spec["jobs"]:
        try:
            text, result = run_job(job, manifest_mod, runner_mod)
        except Exception:  # a crashed job fails all its tasks; the pass goes on
            traceback.print_exc()
            text, result = "", {"crashed": traceback.format_exc(limit=1).strip()}
        results.append(result)
        texts.append(text)
    t_last = time.monotonic()
    layers = tracer.metrics() if tracer else None

    for job, text, result in zip(spec["jobs"], texts, results):
        if job["known_fail"] and "crashed" not in result:
            result["cli"] = cli_check(job, text)

    doc = {
        "src_file": sys.modules["precourant"].__file__,
        "t_imported": t_imported,
        "t_last": t_last,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "trace": layers,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
