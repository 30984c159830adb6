"""Task orchestration over a parsed manifest, with deterministic reports.

Tasks run in the requested order.  A failed bundle validation, axiom check
or builder validation closes the gate (see `tasks.TASKS`): every later
mathematical task is reported as skipped-precondition rather than executed
against a structure that is not a pre-Courant algebroid.  Reports never embed wall-clock data; timing goes
to stderr so that two runs with one seed are byte-identical.
"""

from __future__ import annotations

import json
import time
from typing import List, Optional, Tuple

from . import __version__
from .algebroid import PreCourantAlgebroid, zero_table
from .bundle import CourantBundle, standard_bundle
from .construct import (
    DissectionData,
    QuadraticLieAlgebra,
    double,
    from_connection_beta,
    from_dissection,
    from_twisted_action,
    make_twisted_action,
    quadratic_lie_algebra,
)
from .deform import apply_deformation, twist_deformation
from .errors import ConstructionError, PrecourantError
from .exterior import KForm
from .manifest import Manifest
from .poly import Poly
from .reports import VerifyReport
from .tasks import TASKS, BuildContext, check_tasks


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


def _algebra_from_manifest(
    m: Manifest,
) -> Tuple[QuadraticLieAlgebra, Optional[QuadraticLieAlgebra]]:
    base = quadratic_lie_algebra(m.algebra_dim, m.algebra_brackets, m.algebra_pairing)
    if m.algebra_double:
        return double(base), base
    return base, None


def build_context(m: Manifest) -> BuildContext:
    chart = m.chart
    algebra = base_algebra = action = dissection = None

    if m.bracket_entries is not None:
        bundle = CourantBundle(chart, m.rank, m.metric, m.anchor)
        table = zero_table(bundle)
        for (i, j), coeffs in m.bracket_entries.items():
            table[i][j] = bundle.section(coeffs)
        algebroid = PreCourantAlgebroid(bundle, table)
    elif m.builder_kind == "standard":
        bundle = standard_bundle(chart)
        algebroid = PreCourantAlgebroid(bundle, zero_table(bundle))
    elif m.builder_kind == "twisted_exact":
        bundle = standard_bundle(chart)
        base = PreCourantAlgebroid(bundle, zero_table(bundle))
        algebroid = apply_deformation(
            base, twist_deformation(bundle, m.builder_h), validate=False
        )
    elif m.builder_kind == "connection_beta":
        bundle = CourantBundle(chart, m.rank, m.metric, m.anchor)
        r, n = bundle.rank, chart.dim
        zero = Poly.zero(chart)
        gamma = [[[zero] * r for _ in range(r)] for _ in range(n)]
        for (mm, a), coeffs in m.gamma_entries.items():
            for bb in range(r):
                gamma[mm][bb][a] = coeffs[bb]
        zsec = bundle.zero_section()
        beta = [[zsec for _ in range(r)] for _ in range(r)]
        for (i, j), coeffs in m.beta_entries.items():
            s = bundle.section(coeffs)
            beta[i][j] = s
            if (j, i) not in m.beta_entries:
                beta[j][i] = -s
        algebroid = from_connection_beta(bundle, gamma, beta)
    elif m.builder_kind == "twisted_action":
        algebra, base_algebra = _algebra_from_manifest(m)
        points = m.points or [tuple(0 for _ in range(chart.dim))]
        action = make_twisted_action(algebra, chart, m.action_rho, m.action_k, points)
        algebroid = from_twisted_action(action)
        bundle = algebroid.bundle
    elif m.builder_kind == "dissection":
        n, g = chart.dim, m.aux_rank
        zero = Poly.zero(chart)
        gamma = [[[zero] * g for _ in range(g)] for _ in range(n)]
        for (mm, row), coeffs in m.diss_gamma.items():
            gamma[mm][row] = list(coeffs)
        dissection = DissectionData(
            chart=chart,
            aux_rank=g,
            aux_pairing=m.aux_pairing,
            gamma=gamma,
            curvature=m.diss_r,
            psi=m.diss_psi if m.diss_psi is not None else KForm.zero(chart, 3),
            fiber_table=m.diss_gbracket,
        )
        algebroid = from_dissection(dissection)
        bundle = algebroid.bundle
    else:
        raise ConstructionError("unknown-builder", str(m.builder_kind))

    ctx = BuildContext(
        manifest=m,
        bundle=bundle,
        algebroid=algebroid,
        algebra=algebra,
        base_algebra=base_algebra,
        action=action,
        dissection=dissection,
    )
    if m.lift is not None:
        ctx.lift = [bundle.section(coeffs) for coeffs in m.lift]
    if m.complement is not None:
        ctx.complement = [bundle.section(coeffs) for coeffs in m.complement]
    return ctx


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

    Raises TaskError, before anything is built, when a task is unknown or
    the manifest lacks a block that the task needs.  A library error
    raised inside a task fails that task with the error's message.
    """
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
