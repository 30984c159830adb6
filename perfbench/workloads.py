"""The benchmark's workloads, their jobs and the known answer of every job.

A job is one manifest run through ``parse_manifest`` and ``run_manifest``
with a task list, a trial count and a sampling degree.  The workload seed
decides each job's manifest seed (see ``manifest_seed``).  Why each
workload exists, and which layer it stresses, is written up in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILTIN_DIR = ROOT / "src" / "precourant" / "manifests"
OWN_DIR = BENCH_DIR / "manifests"

# Timed passes always run the jobs at this workload seed; their reports are
# compared byte for byte with digests.json.
REFERENCE_SEED = 0

PASS, FAIL, SKIP = "pass", "fail", "skipped-precondition"

# Known answers, written from the paper's claims: every builtin structure
# is a pre-Courant algebroid and passes every task of its own list.  The
# benchmark's own broken tables fail verify-axioms, which closes the gate.
VERDICTS: Dict[str, Dict[str, str]] = {
    "action_abelian": dict.fromkeys(
        ("validate-algebra", "validate-action", "validate-bundle", "coisotropy",
         "verify-axioms", "verify-identities", "jacobiator-theorem"), PASS),
    "dissection_rank2": dict.fromkeys(
        ("validate-bundle", "verify-axioms", "verify-identities", "jacobiator-theorem",
         "dissection-jacobiator", "dissection-pontryagin", "pontryagin",
         "naive-cohomology", "quotient-jacobi"), PASS),
    "double_nonabelian": dict.fromkeys(
        ("validate-algebra", "validate-action", "validate-bundle", "coisotropy",
         "verify-axioms", "jacobiator-theorem"), PASS),
    "standard_r3": dict.fromkeys(
        ("validate-bundle", "coisotropy", "verify-axioms", "verify-identities",
         "jacobiator-theorem", "leibniz2", "lie2", "deform", "bfield"), PASS),
    "twisted_action_synthetic": dict.fromkeys(
        ("validate-algebra", "validate-action", "validate-bundle", "coisotropy",
         "verify-axioms", "verify-identities", "jacobiator-theorem", "leibniz2"), PASS),
    "twisted_r4": dict.fromkeys(
        ("validate-bundle", "coisotropy", "verify-axioms", "verify-identities",
         "jacobiator-theorem", "comm-lemma", "leibniz2", "lie2", "naive-cohomology",
         "pontryagin", "pontryagin-vanishing", "quotient-jacobi"), PASS),
    "broken_symmetrization": {
        "validate-bundle": PASS,
        "verify-axioms": FAIL,
        **dict.fromkeys(
            ("verify-identities", "jacobiator-theorem", "comm-lemma", "leibniz2",
             "lie2", "naive-cohomology"), SKIP),
    },
    "broken_anchor": {
        "validate-bundle": PASS,
        "coisotropy": PASS,
        "verify-axioms": FAIL,
        **dict.fromkeys(
            ("verify-identities", "jacobiator-theorem", "leibniz2", "lie2"), SKIP),
    },
}

# Frame checks of verify-axioms that must fail on the broken tables.  They
# do not depend on the seed: (i) and (iii) break at the frame pair (1,2)
# in both tables, (ii) only where t[1][2] + t[2][1] != D<u1,u2>.
FAILING_FRAME_CHECKS: Dict[str, Tuple[str, ...]] = {
    "broken_symmetrization": ("axiom-i-frames", "axiom-ii-frames", "axiom-iii-frames"),
    "broken_anchor": ("axiom-i-frames", "axiom-iii-frames"),
}

TWO_TERM = ("leibniz2", "lie2")


@dataclass(frozen=True)
class Job:
    manifest: str
    tasks: Tuple[str, ...]
    trials: int
    max_degree: Optional[int] = None  # None keeps the manifest's own bound

    @property
    def key(self) -> str:
        return f"{self.manifest}:{'+'.join(self.tasks)}"

    @property
    def path(self) -> Path:
        own = OWN_DIR / f"{self.manifest}.pcm"
        return own if own.exists() else BUILTIN_DIR / f"{self.manifest}.pcm"

    @property
    def known_fail(self) -> bool:
        return self.manifest in FAILING_FRAME_CHECKS


def _own_tasks(manifest: str, drop: Tuple[str, ...] = ()) -> Tuple[str, ...]:
    return tuple(t for t in VERDICTS[manifest] if t not in drop)


WORKLOADS: Dict[str, Tuple[Job, ...]] = {
    # brackets of brackets of random degree-2 sections: Poly and Fraction
    # arithmetic dominate, and about half of all brackets repeat
    "two-term": (
        Job("twisted_r4", TWO_TERM, trials=1),
        Job("standard_r3", TWO_TERM, trials=1),
        Job("twisted_action_synthetic", ("leibniz2",), trials=1),
    ),
    # every builder and every other task, mostly over frame tuples of
    # constant sections, where almost every bracket repeats; plus the
    # known-fail tables that must be caught by verify-axioms
    "frame-suite": tuple(
        Job(name, _own_tasks(name, TWO_TERM), trials=1)
        for name in (
            "action_abelian", "dissection_rank2", "double_nonabelian",
            "standard_r3", "twisted_action_synthetic", "twisted_r4",
        )
    ) + tuple(
        Job(name, _own_tasks(name), trials=1)
        for name in ("broken_symmetrization", "broken_anchor")
    ),
    # random sections of twice the default degree through verify-identities,
    # which repeats only a quarter of its brackets: the workload a bracket
    # cache helps least.  deform and bfield stay in frame-suite, because
    # most of their brackets are frame brackets that repeat
    "random-sections": tuple(
        Job(name, ("verify-identities",), trials=16, max_degree=4)
        for name in ("twisted_r4", "twisted_action_synthetic", "standard_r3")
    ),
}


def manifest_seed(workload: str, seed: int, index: int) -> int:
    """The manifest seed of job ``index``: a 31-bit hash of the workload
    name, the workload seed and the job's position."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def job_specs(workload: str, seed: int):
    """The JSON-ready job list that one pass of ``workload`` executes."""
    return [
        {
            "key": job.key,
            "manifest": job.manifest,
            "path": str(job.path),
            "tasks": list(job.tasks),
            "seed": manifest_seed(workload, seed, i),
            "trials": job.trials,
            "max_degree": job.max_degree,
            "known_fail": job.known_fail,
        }
        for i, job in enumerate(WORKLOADS[workload])
    ]
