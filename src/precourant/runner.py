"""Task orchestration over a parsed manifest, with deterministic reports.

The structure is built by the manifest's entry in the builder table
(`manifest.BUILDERS`), which names every builder kind; a builder failure
fails the build, and every task is then skipped.  Tasks run in the
requested order.  A failed bundle validation, axiom check or builder
validation closes the gate (see `tasks.TASKS`): every later mathematical
task is reported as skipped-precondition rather than executed against a
structure that is not a pre-Courant algebroid.  Reports never embed
wall-clock data; timing goes to stderr so that two runs with one seed are
byte-identical.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from . import __version__
from .errors import PrecourantError, TaskError
from .manifest import BUILDERS, Manifest, check_tasks
from .reports import VerifyReport
from .tasks import TASKS, BuildContext


class TaskResult:
    __slots__ = ("name", "status", "failures", "notes")

    def __init__(
        self,
        name: str,
        status: str,  # pass | fail | skipped-precondition
        failures: Optional[List[str]] = None,
        notes: Optional[List[str]] = None,
    ):
        self.name = name
        self.status = status
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes


class RunReport:
    __slots__ = ("manifest", "seed", "trials", "max_degree", "tasks", "build_error")

    def __init__(
        self,
        manifest: str,
        seed: int,
        trials: int,
        max_degree: int,
        tasks: Optional[List[TaskResult]] = None,
        build_error: str = "",
    ):
        self.manifest = manifest
        self.seed = seed
        self.trials = trials
        self.max_degree = max_degree
        self.tasks = [] if tasks is None else tasks
        self.build_error = build_error

    @property
    def ok(self) -> bool:
        return not self.build_error and all(t.status == "pass" for t in self.tasks)

    def to_text(self) -> str:
        lines = [
            "precourant-report",
            f"version = {__version__}",
            f"manifest = {self.manifest}",
            f"seed = {self.seed}",
            f"trials = {self.trials}",
            f"max-degree = {self.max_degree}",
        ]
        if self.build_error:
            lines.append(f"build = fail: {self.build_error}")
        for t in self.tasks:
            lines.append(f"task {t.name} = {t.status}")
            for f in t.failures:
                lines.append(f"  fail {f}")
            for n in t.notes:
                lines.append(f"  note {n}")
        lines.append(f"result = {'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # only the JSON report needs it

        doc = {
            "version": __version__,
            "manifest": self.manifest,
            "seed": self.seed,
            "trials": self.trials,
            "max_degree": self.max_degree,
            "build_error": self.build_error,
            "tasks": [
                {
                    "name": t.name,
                    "status": t.status,
                    "failures": t.failures,
                    "notes": t.notes,
                }
                for t in self.tasks
            ],
            "result": "pass" if self.ok else "fail",
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def build_context(m: Manifest) -> BuildContext:
    return BUILDERS[m.builder_kind].build(m)


def _result_from_report(name: str, report: VerifyReport) -> TaskResult:
    if report.skipped:
        status = "skipped-precondition"
    else:
        status = "pass" if report.ok else "fail"
    failures = [
        f"{c.name}" + (f": {c.witness}" if c.witness else "")
        for c in report.checks
        if not c.ok
    ]
    return TaskResult(name, status, failures, list(report.notes))


def run_manifest(
    m: Manifest,
    tasks: Optional[List[str]] = None,
    timings: Optional[List[Tuple[str, float]]] = None,
) -> RunReport:
    """Execute the manifest's tasks (or the given override list).

    Raises TaskError, before anything is built, when a task is unknown,
    the manifest lacks a block that the task needs, or neither names a
    task.  An empty override list builds the structure and runs nothing.
    A library error raised inside a task fails that task with its message.
    """
    if tasks is None and not m.tasks:
        raise TaskError("")
    todo = list(tasks) if tasks is not None else list(m.tasks)
    check_tasks(m, todo)
    report = RunReport(m.name, m.seed, m.trials, m.max_degree)
    try:
        ctx = build_context(m)
    except PrecourantError as exc:
        report.build_error = str(exc)
        report.tasks = [TaskResult(t, "skipped-precondition") for t in todo]
        return report

    gate_open = True
    for name in todo:
        task = TASKS[name]
        if not gate_open and task.gated:
            report.tasks.append(TaskResult(name, "skipped-precondition"))
            continue
        t0 = time.monotonic()
        try:
            result = _result_from_report(name, task.run(ctx))
        except PrecourantError as exc:
            result = TaskResult(name, "fail", [str(exc)])
        if timings is not None:
            timings.append((name, time.monotonic() - t0))
        report.tasks.append(result)
        if result.status != "pass" and task.sets_gate:
            gate_open = False
    return report
