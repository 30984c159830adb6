"""The task table: every task that a manifest or ``--task`` can name.

Each entry holds the function that runs the task on a built context, what
the task needs (blocks of `manifest.BLOCKS` or a builder kind of
`manifest.BUILDERS`), whether a closed gate skips it, and whether its
failure closes the gate.  The manifest parser and the runner both check a
task list against the table (`manifest.check_tasks`) before anything is
built, so a missing block is a usage error and never a crash inside a task.
A task reads its blocks from ``c.manifest.blocks``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .algebroid import PreCourantAlgebroid, verify_axioms, verify_derived_identities
from .bundle import CourantBundle, Section, kernel_coisotropy_check, validate_bundle
from .cochain import pullback_form, verify_comm_lemma, verify_jacobiator_theorem
from .construct import (
    DissectionData,
    QuadraticLieAlgebra,
    TwistedAction,
    dissection_jacobiator_check,
    dissection_pontryagin,
    validate_lie,
    validate_quadratic_lie,
    validate_twisted_action,
)
from .deform import (
    apply_deformation,
    bfield_verify,
    naive_cohomology_check,
    pontryagin_representative,
    pontryagin_vanishing_check,
    quotient_jacobi_check,
    twist_deformation,
    validate_deformation,
    verify_deformation_identity,
)
from .exterior import format_kform
from .reports import VerifyReport
from .sampling import random_form
from .twoterm import (
    build_leibniz2,
    build_lie2,
    verify_leibniz2,
    verify_lie2,
    verify_morphism,
)

if TYPE_CHECKING:
    from .manifest import Manifest


class BuildContext:
    """The structure a manifest describes, built once and shared by its
    tasks; its bundle is the algebroid's."""

    __slots__ = ("manifest", "algebroid", "algebra", "base_algebra", "action", "dissection")

    def __init__(
        self,
        manifest: Manifest,
        algebroid: PreCourantAlgebroid,
        algebra: Optional[QuadraticLieAlgebra] = None,
        base_algebra: Optional[QuadraticLieAlgebra] = None,
        action: Optional[TwistedAction] = None,
        dissection: Optional[DissectionData] = None,
    ):
        self.manifest = manifest
        self.algebroid = algebroid
        self.algebra = algebra
        self.base_algebra = base_algebra
        self.action = action
        self.dissection = dissection

    @property
    def bundle(self) -> CourantBundle:
        return self.algebroid.bundle


class Task:
    __slots__ = ("run", "needs", "gated", "sets_gate")

    def __init__(
        self,
        run: Callable[[BuildContext], VerifyReport],
        needs: Tuple[str, ...] = (),
        gated: bool = True,  # skipped once the gate is closed
        sets_gate: bool = False,  # a failure closes the gate
    ):
        self.run = run
        self.needs = needs
        self.gated = gated
        self.sets_gate = sets_gate


def _sections(c: BuildContext, block: str) -> Optional[List[Section]]:
    """The rows of a [lift] or [complement] block as sections of the built
    bundle, or None when the manifest has no such block."""
    rows = c.manifest.blocks.get(block)
    return None if rows is None else [c.bundle.section(coeffs) for coeffs in rows]


def _sampling(c: BuildContext) -> Tuple[int, int, int]:
    """The random layer's (trials, seed, max_degree) arguments."""
    m = c.manifest
    return m.trials, m.seed, m.max_degree


def _comm_lemma(c: BuildContext) -> VerifyReport:
    trials, seed, _ = _sampling(c)
    rng = random.Random(seed)
    samples = [
        pullback_form(c.bundle, random_form(rng, c.bundle.chart, 2))
        for _ in range(min(trials, 8))
    ]
    return verify_comm_lemma(c.algebroid, samples)


def _deform(c: BuildContext) -> VerifyReport:
    p = c.algebroid
    omega = twist_deformation(c.bundle, c.manifest.blocks["deform"])
    valid = validate_deformation(p, omega)
    combined = VerifyReport("deform")
    combined.merge(valid, prefix="valid/")
    if valid.ok:
        # omega is validated once, and the deformed structure built once
        deformed = apply_deformation(p, omega)
        combined.merge(
            verify_deformation_identity(p, omega, deformed, *_sampling(c)),
            prefix="identity/",
        )
        combined.merge(
            verify_morphism(build_leibniz2(p), build_leibniz2(deformed), omega, *_sampling(c)),
            prefix="morphism/",
        )
    return combined


def _pontryagin(c: BuildContext) -> VerifyReport:
    form, report = pontryagin_representative(c.algebroid, _sections(c, "lift"))
    if form is not None:
        report.notes.append(f"H = {format_kform(form)}")
    return report


def _naive_cohomology(c: BuildContext) -> VerifyReport:
    trials, seed, _ = _sampling(c)
    rng = random.Random(seed)
    samples = [
        pullback_form(c.bundle, random_form(rng, c.bundle.chart, 2 if i % 2 == 0 else 1))
        for i in range(min(trials, 8))
    ]
    return naive_cohomology_check(c.algebroid, samples, _sections(c, "lift"))


def _validate_algebra(c: BuildContext) -> VerifyReport:
    if c.base_algebra is None:
        return validate_quadratic_lie(c.algebra)
    combined = VerifyReport("algebra")
    combined.merge(validate_lie(c.base_algebra), prefix="base/")
    combined.merge(validate_quadratic_lie(c.algebra), prefix="double/")
    return combined


def _dissection_pontryagin(c: BuildContext) -> VerifyReport:
    form, report = dissection_pontryagin(c.algebroid, c.dissection)
    report.notes.append(f"H = {format_kform(form)}")
    return report


TASKS: Dict[str, Task] = {
    "validate-bundle": Task(lambda c: validate_bundle(c.bundle), gated=False, sets_gate=True),
    "coisotropy": Task(
        lambda c: kernel_coisotropy_check(c.bundle, c.manifest.blocks["points"]),
        needs=("points",),
        gated=False,
    ),
    "verify-axioms": Task(
        lambda c: verify_axioms(c.algebroid, *_sampling(c)), sets_gate=True
    ),
    "verify-identities": Task(lambda c: verify_derived_identities(c.algebroid, *_sampling(c))),
    "jacobiator-theorem": Task(lambda c: verify_jacobiator_theorem(c.algebroid, *_sampling(c))),
    "comm-lemma": Task(_comm_lemma),
    "leibniz2": Task(lambda c: verify_leibniz2(build_leibniz2(c.algebroid), *_sampling(c))),
    "lie2": Task(lambda c: verify_lie2(build_lie2(c.algebroid), *_sampling(c))),
    "deform": Task(_deform, needs=("deform",)),
    "bfield": Task(
        lambda c: bfield_verify(c.algebroid, c.manifest.blocks["bfield"], *_sampling(c)),
        needs=("bfield",),
    ),
    "pontryagin": Task(_pontryagin, needs=("lift",)),
    "pontryagin-vanishing": Task(
        lambda c: pontryagin_vanishing_check(c.algebroid, c.manifest.blocks["pontryagin"]),
        needs=("pontryagin",),
    ),
    "naive-cohomology": Task(_naive_cohomology),
    "quotient-jacobi": Task(
        lambda c: quotient_jacobi_check(
            c.algebroid, _sections(c, "complement"), _sections(c, "lift"), *_sampling(c)
        ),
        needs=("complement", "lift"),
    ),
    "validate-algebra": Task(
        _validate_algebra, needs=("twisted_action",), gated=False, sets_gate=True
    ),
    "validate-action": Task(
        lambda c: validate_twisted_action(c.action),
        needs=("twisted_action",),
        gated=False,
        sets_gate=True,
    ),
    "dissection-jacobiator": Task(
        lambda c: dissection_jacobiator_check(c.algebroid, c.dissection), needs=("dissection",)
    ),
    "dissection-pontryagin": Task(_dissection_pontryagin, needs=("dissection",)),
}

