"""Two-term algebras attached to a pre-Courant algebroid.

The underlying complex is the inclusion of anchor-kernel sections into all
sections.  The Leibniz flavor uses the bracket itself with the Jacobiator
as the trilinear corrector; the Lie flavor uses the skew-symmetrized
bracket, with corrector J - D T for the cyclic pairing scalar T.  Degree-1
elements are kernel sections for both flavors; the alternative reading of
the degree-1 domain as the kernel's orthogonal is recorded as a note on
every Lie-flavor report.

The theorem makes J tensorial, so both correctors read it from its frame
flat <J(u_a, u_b, u_c), u_d> (`cochain.jacobiator_flat`, built once per
algebroid), contracted with all three sections at once and raised; T is one
cyclic sum over the kernel K = `PreCourantAlgebroid.t_operator`.  So l3 of
neither flavor takes a bracket, and the defect checks cross-check it.

Both flavors check their one four-slot condition, the ten-term coherence of
l3 with l2, once per battery draw.  For skew l2 and alternating l3 it is
the homotopy Jacobi identity of a Lie 2-algebra (Baez & Crans, "Higher
dimensional algebra VI", 2004), so the Lie flavor checks skewness first and
names the check `homotopy-jacobi`; the Leibniz flavor names it `coherence`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from .algebroid import PreCourantAlgebroid, bracket, skew_bracket
from .bundle import Section, anchor_apply, dee, format_section, format_sections
from .cochain import KerCochain, jacobiator_flat
from .errors import RankMismatchError
from .poly import Poly
from .reports import VerifyReport
from .sampling import random_kernel_section, random_section

DEGREE1_DOMAIN_NOTE = (
    "degree-1 space taken as kernel sections; the orthogonal-complement "
    "reading of the degree-1 bracket clause is not used"
)


def t_scalar(p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section) -> Poly:
    """T = (1/6) sum over cyclic (a, b, c) of <skew_bracket(e_a, e_b), e_c>,
    that is of sum_k K(e_a, e_b)_k (e_c)_k for the kernel K = `p.t_operator`."""
    b = p.bundle
    if any(e.space is not b and e.space != b for e in (e1, e2, e3)):
        raise RankMismatchError("sections not on this algebroid's bundle")
    return p.t_operator.cyclic_pairing(e1, e2, e3) * Fraction(1, 6)


def jacobiator_tensor(
    p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section
) -> Section:
    """J(e1, e2, e3) from the frame flat of J: tensorial by the theorem."""
    return KerCochain(jacobiator_flat(p)).evaluate([e1, e2, e3])


def curly_jacobiator(
    p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section
) -> Section:
    """Jacobiator of the skew bracket, computed as J - D T."""
    out = jacobiator_tensor(p, e1, e2, e3)
    t = t_scalar(p, e1, e2, e3)
    if not t.is_zero():
        out = out - dee(p.bundle, t)
    return out


def skew_jacobiator_direct(
    p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section
) -> Section:
    """Cyclic double skew bracket; independent oracle for curly_jacobiator."""
    return (
        skew_bracket(p, e1, skew_bracket(p, e2, e3))
        + skew_bracket(p, e2, skew_bracket(p, e3, e1))
        + skew_bracket(p, e3, skew_bracket(p, e1, e2))
    )


class TwoTermAlgebra:
    """A 2-term complex with bilinear l2 and trilinear l3 evaluators."""

    def __init__(self, flavor: str, algebroid: PreCourantAlgebroid):
        if flavor not in ("leibniz", "lie"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.algebroid = algebroid

    @property
    def bundle(self):
        return self.algebroid.bundle

    def check_degree1(self, kappa: Section) -> None:
        """Degree-1 elements must be anchor-kernel sections."""
        if not anchor_apply(kappa).is_zero():
            raise RankMismatchError(
                f"degree-1 element has nonzero anchor: ({format_section(kappa)})"
            )

    def differential(self, kappa: Section) -> Section:
        """The inclusion of kernel sections into all sections."""
        self.check_degree1(kappa)
        return kappa

    def l2(self, a: Section, b: Section) -> Section:
        if self.flavor == "leibniz":
            return bracket(self.algebroid, a, b)
        return skew_bracket(self.algebroid, a, b)

    def l3(self, e1: Section, e2: Section, e3: Section) -> Section:
        if self.flavor == "leibniz":
            return jacobiator_tensor(self.algebroid, e1, e2, e3)
        return curly_jacobiator(self.algebroid, e1, e2, e3)


def build_leibniz2(p: PreCourantAlgebroid) -> TwoTermAlgebra:
    return TwoTermAlgebra("leibniz", p)


def build_lie2(p: PreCourantAlgebroid) -> TwoTermAlgebra:
    return TwoTermAlgebra("lie", p)


def _leibniz_defect(l2: Callable, x: Section, y: Section, z: Section) -> Section:
    """The defect l2(x, l2(y, z)) - l2(l2(x, y), z) - l2(y, l2(x, z))."""
    return l2(x, l2(y, z)) - l2(l2(x, y), z) - l2(y, l2(x, z))


def _inclusion_witness(l2: Callable, pair, included, label: str) -> Optional[str]:
    """None when l2 of `pair` is a kernel section equal to l2 of `included`,
    the same pair with the inclusion applied to its kernel element."""
    v = l2(*pair)
    if not anchor_apply(v).is_zero():
        return f"{label} leaves the kernel: {format_sections(*pair)}"
    return None if v == l2(*included) else format_sections(*pair)


def _coherence_defect(l2: Callable, l3: Callable, w, x, y, z) -> Section:
    """The ten-term coherence of the corrector l3 with l2."""
    return (
        l2(w, l3(x, y, z))
        - l2(x, l3(w, y, z))
        + l2(y, l3(w, x, z))
        + l2(l3(w, x, y), z)
        - l3(l2(w, x), y, z)
        - l3(x, l2(w, y), z)
        - l3(x, y, l2(w, z))
        + l3(w, l2(x, y), z)
        + l3(w, y, l2(x, z))
        - l3(w, x, l2(y, z))
    )


def _kernel_slot_witness(l2: Callable, l3: Callable, *es: Section) -> Optional[str]:
    """The sections, one of them a kernel section, when l3 on them is not
    the Leibniz defect of l2; else None."""
    return None if l3(*es) == _leibniz_defect(l2, *es) else format_sections(*es)


def _seeded_stream(seed: int, trials: int) -> random.Random:
    """The stream a battery of `trials` draws reads; with no draw every
    check would pass having scanned nothing, so that is refused."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return random.Random(seed)


def _two_term_condition_checks(
    alg: TwoTermAlgebra, report: VerifyReport, rng: random.Random, trials: int, max_degree: int
) -> None:
    """The condition battery shared by both flavors."""
    b = alg.bundle
    l2 = alg.l2
    l3 = alg.l3
    d = alg.differential
    draws = [
        [random_section(rng, b, max_degree) for _ in range(4)]
        + [random_kernel_section(rng, b, max_degree) for _ in range(2)]
        for _ in range(trials)
    ]
    # the mixed bracket lands in degree 1 and matches the total one, on
    # either side
    report.first(
        "inclusion-right",
        (_inclusion_witness(l2, (x, m), (x, d(m)), "l2(x, m)")
         for x, y, z, w, m, n in draws),
    )
    report.first(
        "inclusion-left",
        (_inclusion_witness(l2, (m, x), (d(m), x), "l2(m, x)")
         for x, y, z, w, m, n in draws),
    )
    # either argument may carry the inclusion
    report.first(
        "inclusion-balanced",
        (format_sections(m, n) for x, y, z, w, m, n in draws
         if l2(d(m), n) != l2(m, d(n))),
    )
    # the corrector equals the bracket defect on degree 0
    report.first(
        "defect-degree0",
        (
            f"d l3 = ({format_section(lhs)}) vs defect ({format_section(rhs)})"
            f" at {format_sections(x, y, z)}"
            for x, y, z, w, m, n in draws
            if (lhs := l3(x, y, z)) != (rhs := _leibniz_defect(l2, x, y, z))
        ),
    )
    # a kernel element in the third, second and first slot
    report.first(
        "defect-kernel-slot3",
        (_kernel_slot_witness(l2, l3, x, y, m) for x, y, z, w, m, n in draws),
    )
    report.first(
        "defect-kernel-slot2",
        (_kernel_slot_witness(l2, l3, x, m, y) for x, y, z, w, m, n in draws),
    )
    report.first(
        "defect-kernel-slot1",
        (_kernel_slot_witness(l2, l3, m, x, y) for x, y, z, w, m, n in draws),
    )
    # the ten-term coherence of the corrector: on skew l2 and alternating
    # l3, which the Lie flavor checked first, the homotopy Jacobi identity
    report.first(
        "coherence" if alg.flavor == "leibniz" else "homotopy-jacobi",
        (
            f"defect ({format_section(total)}) at {format_sections(w, x, y, z)}"
            for x, y, z, w, m, n in draws
            if not (total := _coherence_defect(l2, l3, w, x, y, z)).is_zero()
        ),
    )


def verify_leibniz2(
    alg: TwoTermAlgebra,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
) -> VerifyReport:
    """Exact check of the two-term Leibniz conditions on seeded tuples."""
    if alg.flavor != "leibniz":
        raise ValueError("verify_leibniz2 needs the leibniz flavor")
    report = VerifyReport("two-term leibniz conditions")
    rng = _seeded_stream(seed, trials)
    _two_term_condition_checks(alg, report, rng, trials, max_degree)
    return report


def verify_lie2(
    alg: TwoTermAlgebra,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
) -> VerifyReport:
    """Skewness of both maps and kernel values of l3 on `trials` seeded
    triples, then the (a)/(b) battery in skew form on `trials` draws, whose
    ten-term coherence is the homotopy Jacobi identity once the maps are
    skew."""
    if alg.flavor != "lie":
        raise ValueError("verify_lie2 needs the lie flavor")
    b = alg.bundle
    l3 = alg.l3
    report = VerifyReport("two-term lie conditions")
    report.notes.append(DEGREE1_DOMAIN_NOTE)
    rng = _seeded_stream(seed, trials)

    draws = [[random_section(rng, b, max_degree) for _ in range(3)] for _ in range(trials)]
    report.first(
        "l2-skew",
        (format_sections(x, y) for x, y, z in draws
         if not (alg.l2(x, y) + alg.l2(y, x)).is_zero()),
    )
    report.first(
        "l3-skew",
        (
            format_sections(x, y, z)
            for x, y, z in draws
            if not (((base := l3(x, y, z)) + l3(y, x, z)).is_zero()
                    and (base + l3(x, z, y)).is_zero())
        ),
    )
    report.first(
        "l3-kernel-valued",
        (format_sections(*es) for es in draws if not anchor_apply(l3(*es)).is_zero()),
    )

    _two_term_condition_checks(alg, report, rng, trials, max_degree)
    return report


def _morphism_coherence_defect(
    source: TwoTermAlgebra, target: TwoTermAlgebra, f2: Callable,
    x: Section, y: Section, z: Section,
) -> Section:
    """The coherence of f2 with the two trilinear correctors, for f0 = f1 = id."""
    return (
        source.l3(x, y, z)
        + target.l2(x, f2(y, z))
        - target.l2(y, f2(x, z))
        - target.l2(f2(x, y), z)
        - f2(source.l2(x, y), z)
        + f2(x, source.l2(y, z))
        - f2(y, source.l2(x, z))
        - target.l3(x, y, z)
    )


def verify_morphism(
    source: TwoTermAlgebra,
    target: TwoTermAlgebra,
    omega: KerCochain,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
) -> VerifyReport:
    """Whether (id, id, omega) is a morphism from `source` to `target`: the
    degree equations and the coherence equation, exact on seeded tuples.
    The homotopy is f2(a, b) = omega(a, b); with f0 = f1 = id the chain-map
    condition holds by construction."""
    if source.flavor != target.flavor:
        raise ValueError("morphism between different flavors")
    report = VerifyReport("two-term morphism equations")
    rng = _seeded_stream(seed, trials)
    b = source.bundle
    draws = [
        [random_section(rng, b, max_degree) for _ in range(3)]
        + [random_kernel_section(rng, b, max_degree)]
        for _ in range(trials)
    ]
    f2 = lambda a, c: omega.evaluate([a, c])
    report.first(
        "deg0-equation",
        (
            f"difference ({format_section(lhs - rhs)}) at {format_sections(x, y)}"
            for x, y, z, k in draws
            # the inclusion is the identity on sections, so f2 needs no
            # kernel check here: `f2-kernel-valued` reports one that leaves it
            if (lhs := target.l2(x, y) - source.l2(x, y)) != (rhs := f2(x, y))
        ),
    )
    report.first(
        "mixed-equation-1",
        (format_sections(x, k) for x, y, z, k in draws
         if target.l2(x, k) - source.l2(x, k) != f2(x, source.differential(k))),
    )
    report.first(
        "mixed-equation-2",
        (format_sections(k, x) for x, y, z, k in draws
         if target.l2(k, x) - source.l2(k, x) != f2(source.differential(k), x)),
    )
    report.first(
        "f2-kernel-valued",
        (format_sections(x, y) for x, y, z, k in draws
         if not anchor_apply(f2(x, y)).is_zero()),
    )
    report.first(
        "coherence",
        (
            f"defect ({format_section(total)}) at {format_sections(x, y, z)}"
            for x, y, z, k in draws
            if not (total := _morphism_coherence_defect(source, target, f2, x, y, z)).is_zero()
        ),
    )
    return report
