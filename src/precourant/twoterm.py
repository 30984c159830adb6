"""Two-term algebras attached to a pre-Courant algebroid.

The underlying complex is the inclusion of anchor-kernel sections into all
sections.  The Leibniz flavor uses the bracket itself with the Jacobiator
as the trilinear corrector; the Lie flavor uses the skew-symmetrized
bracket, with corrector J - D T for the cyclic pairing scalar T.  Degree-1
elements are kernel sections for both flavors; the alternative reading of
the degree-1 domain as the kernel's orthogonal is recorded as a note on
every Lie-flavor report.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from .algebroid import PreCourantAlgebroid, bracket, jacobiator, skew_bracket
from .bundle import Section, anchor_apply, dee, format_section, format_sections, pairing
from .cochain import KerCochain
from .errors import RankMismatchError
from .poly import Poly
from .reports import VerifyReport
from .sampling import random_kernel_section, random_section

DEGREE1_DOMAIN_NOTE = (
    "degree-1 space taken as kernel sections; the orthogonal-complement "
    "reading of the degree-1 bracket clause is not used"
)


def t_scalar(p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section) -> Poly:
    """Cyclic pairing scalar: (1/6) sum over cyclic permutations of
    <skew_bracket(e1, e2), e3>."""
    total = (
        pairing(skew_bracket(p, e1, e2), e3)
        + pairing(skew_bracket(p, e2, e3), e1)
        + pairing(skew_bracket(p, e3, e1), e2)
    )
    return total * Fraction(1, 6)


def curly_jacobiator(
    p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section
) -> Section:
    """Jacobiator of the skew bracket, computed as J - D T."""
    out = jacobiator(p, e1, e2, e3)
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
            return jacobiator(self.algebroid, e1, e2, e3)
        return curly_jacobiator(self.algebroid, e1, e2, e3)


def build_leibniz2(p: PreCourantAlgebroid) -> TwoTermAlgebra:
    return TwoTermAlgebra("leibniz", p)


def build_lie2(p: PreCourantAlgebroid) -> TwoTermAlgebra:
    return TwoTermAlgebra("lie", p)


def _two_term_condition_checks(
    alg: TwoTermAlgebra,
    report: VerifyReport,
    rng: random.Random,
    trials: int,
    max_degree: int,
    l3_override: Optional[Callable] = None,
) -> None:
    """The condition battery shared by both flavors.

    `l3_override` lets tests inject a wrong corrector to watch (b1) fail.
    """
    b = alg.bundle
    l2 = alg.l2
    l3 = l3_override or alg.l3
    chk = {
        n: report.check(n)
        for n in (
            "inclusion-right",
            "inclusion-left",
            "inclusion-balanced",
            "defect-degree0",
            "defect-kernel-slot3",
            "defect-kernel-slot2",
            "defect-kernel-slot1",
            "coherence",
        )
    }
    for _ in range(trials):
        x = random_section(rng, b, max_degree)
        y = random_section(rng, b, max_degree)
        z = random_section(rng, b, max_degree)
        w = random_section(rng, b, max_degree)
        m = random_kernel_section(rng, b, max_degree)
        n = random_kernel_section(rng, b, max_degree)

        # the mixed bracket lands in degree 1 and matches the total one
        xm = l2(x, m)
        if not anchor_apply(xm).is_zero():
            chk["inclusion-right"].fail(
                f"l2(x, m) leaves the kernel: {format_sections(x, m)}"
            )
        elif xm != l2(x, alg.differential(m)):
            chk["inclusion-right"].fail(format_sections(x, m))
        # same on the other side
        mx = l2(m, x)
        if not anchor_apply(mx).is_zero():
            chk["inclusion-left"].fail(
                f"l2(m, x) leaves the kernel: {format_sections(m, x)}"
            )
        elif mx != l2(alg.differential(m), x):
            chk["inclusion-left"].fail(format_sections(m, x))
        # either argument may carry the inclusion
        if l2(alg.differential(m), n) != l2(m, alg.differential(n)):
            chk["inclusion-balanced"].fail(format_sections(m, n))
        # the corrector equals the bracket defect on degree 0
        lhs = l3(x, y, z)
        rhs = l2(x, l2(y, z)) - l2(l2(x, y), z) - l2(y, l2(x, z))
        if lhs != rhs:
            chk["defect-degree0"].fail(
                f"d l3 = ({format_section(lhs)}) vs defect ({format_section(rhs)})"
                f" at {format_sections(x, y, z)}",
            )
        # kernel element in the third slot
        if l3(x, y, m) != l2(x, l2(y, m)) - l2(l2(x, y), m) - l2(y, l2(x, m)):
            chk["defect-kernel-slot3"].fail(format_sections(x, y, m))
        # kernel element in the second slot
        if l3(x, m, y) != l2(x, l2(m, y)) - l2(l2(x, m), y) - l2(m, l2(x, y)):
            chk["defect-kernel-slot2"].fail(format_sections(x, m, y))
        # kernel element in the first slot
        if l3(m, x, y) != l2(m, l2(x, y)) - l2(l2(m, x), y) - l2(x, l2(m, y)):
            chk["defect-kernel-slot1"].fail(format_sections(m, x, y))
        # the ten-term coherence of the corrector
        total = (
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
        if not total.is_zero():
            chk["coherence"].fail(
                f"defect ({format_section(total)}) at {format_sections(w, x, y, z)}"
            )


def verify_leibniz2(
    alg: TwoTermAlgebra,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
    l3_override: Optional[Callable] = None,
) -> VerifyReport:
    """Exact check of the two-term Leibniz conditions on seeded tuples."""
    if alg.flavor != "leibniz":
        raise ValueError("verify_leibniz2 needs the leibniz flavor")
    report = VerifyReport("two-term leibniz conditions")
    rng = random.Random(seed)
    _two_term_condition_checks(alg, report, rng, trials, max_degree, l3_override)
    return report


def verify_lie2(
    alg: TwoTermAlgebra,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
    quad_trials: Optional[int] = None,
    l3_override: Optional[Callable] = None,
) -> VerifyReport:
    """Skewness of both maps, kernel values of l3, the homotopy Jacobi
    identity on seeded quadruples, and the (a)/(b) battery in skew form."""
    if alg.flavor != "lie":
        raise ValueError("verify_lie2 needs the lie flavor")
    p = alg.algebroid
    b = alg.bundle
    l3 = l3_override or alg.l3
    report = VerifyReport("two-term lie conditions")
    report.notes.append(DEGREE1_DOMAIN_NOTE)
    rng = random.Random(seed)

    skew2 = report.check("l2-skew")
    skew3 = report.check("l3-skew")
    kernel = report.check("l3-kernel-valued")
    for _ in range(trials):
        x = random_section(rng, b, max_degree)
        y = random_section(rng, b, max_degree)
        z = random_section(rng, b, max_degree)
        if skew2.ok and not (alg.l2(x, y) + alg.l2(y, x)).is_zero():
            skew2.fail(format_sections(x, y))
        if skew3.ok:
            base = l3(x, y, z)
            if not (
                (l3(y, x, z) + base).is_zero() and (l3(x, z, y) + base).is_zero()
            ):
                skew3.fail(format_sections(x, y, z))
        if kernel.ok and not anchor_apply(l3(x, y, z)).is_zero():
            kernel.fail(format_sections(x, y, z))

    # homotopy Jacobi identity on seeded quadruples; stops drawing at the
    # first failure, and the battery below draws on from the same rng
    n_quads = trials if quad_trials is None else quad_trials
    chk = report.check("homotopy-jacobi")
    for _ in range(n_quads):
        es = [random_section(rng, b, max_degree) for _ in range(4)]
        total = b.zero_section()
        for i in range(4):
            rest = [es[t] for t in range(4) if t != i]
            term = alg.l2(es[i], l3(*rest))
            total = total + (term if i % 2 == 0 else -term)
        for i in range(4):
            for j in range(i + 1, 4):
                rest = [es[t] for t in range(4) if t != i and t != j]
                term = l3(alg.l2(es[i], es[j]), *rest)
                total = total + (term if (i + j) % 2 == 0 else -term)
        if not total.is_zero():
            chk.fail(f"defect ({format_section(total)}) at {format_sections(*es)}")
            break

    _two_term_condition_checks(alg, report, rng, trials, max_degree, l3_override)
    return report


class Morphism2:
    """Maps between two-term algebras: (f0, f1) on the complex plus the
    bilinear homotopy f2 with degree-1 values."""

    __slots__ = ("source", "target", "f0", "f1", "f2")

    def __init__(
        self,
        source: TwoTermAlgebra,
        target: TwoTermAlgebra,
        f0: Callable[[Section], Section],
        f1: Callable[[Section], Section],
        f2: Callable[[Section, Section], Section],
    ):
        self.source = source
        self.target = target
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2


def identity_morphism(alg: TwoTermAlgebra) -> Morphism2:
    zero = alg.bundle.zero_section()
    return Morphism2(alg, alg, lambda e: e, lambda k: k, lambda a, b: zero)


def deformation_morphism(
    source: TwoTermAlgebra, target: TwoTermAlgebra, omega: KerCochain
) -> Morphism2:
    """(id, id, omega): the canonical comparison onto a deformed structure."""
    return Morphism2(
        source,
        target,
        lambda e: e,
        lambda k: k,
        lambda a, b: omega.evaluate([a, b]),
    )


def verify_morphism(
    m: Morphism2, trials: int = 16, seed: int = 0, max_degree: int = 2
) -> VerifyReport:
    """The three degree equations, the coherence equation, and compatibility
    with the differentials, all exact on seeded tuples."""
    if m.source.flavor != m.target.flavor:
        raise ValueError("morphism between different flavors")
    report = VerifyReport("two-term morphism equations")
    rng = random.Random(seed)
    src, tgt = m.source, m.target
    b = src.bundle

    chk = {
        n: report.check(n)
        for n in ("chain-map", "deg0-equation", "mixed-equation-1", "mixed-equation-2",
                  "f2-kernel-valued", "coherence")
    }
    for _ in range(trials):
        x = random_section(rng, b, max_degree)
        y = random_section(rng, b, max_degree)
        z = random_section(rng, b, max_degree)
        k = random_kernel_section(rng, b, max_degree)

        if m.f0(src.differential(k)) != tgt.differential(m.f1(k)):
            chk["chain-map"].fail(format_sections(k))
        lhs = tgt.l2(m.f0(x), m.f0(y)) - m.f0(src.l2(x, y))
        rhs = tgt.differential(m.f2(x, y))
        if lhs != rhs:
            chk["deg0-equation"].fail(
                f"difference ({format_section(lhs - rhs)}) at {format_sections(x, y)}",
            )
        if tgt.l2(m.f0(x), m.f1(k)) - m.f1(src.l2(x, k)) != m.f2(x, src.differential(k)):
            chk["mixed-equation-1"].fail(format_sections(x, k))
        if tgt.l2(m.f1(k), m.f0(x)) - m.f1(src.l2(k, x)) != m.f2(src.differential(k), x):
            chk["mixed-equation-2"].fail(format_sections(k, x))
        if not anchor_apply(m.f2(x, y)).is_zero():
            chk["f2-kernel-valued"].fail(format_sections(x, y))
        total = (
            m.f1(src.l3(x, y, z))
            + tgt.l2(m.f0(x), m.f2(y, z))
            - tgt.l2(m.f0(y), m.f2(x, z))
            - tgt.l2(m.f2(x, y), m.f0(z))
            - m.f2(src.l2(x, y), z)
            + m.f2(x, src.l2(y, z))
            - m.f2(y, src.l2(x, z))
            - tgt.l3(m.f0(x), m.f0(y), m.f0(z))
        )
        if not total.is_zero():
            chk["coherence"].fail(
                f"defect ({format_section(total)}) at {format_sections(x, y, z)}"
            )
    return report
