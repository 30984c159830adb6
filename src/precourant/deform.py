"""Deformations, B-fields, Pontryagin forms, naive cohomology, quotients.

A deformation is a kernel-valued alternating 2-cochain killed by every
D f; adding it to the bracket table yields another pre-Courant structure
on the same bundle.  The two Jacobiators differ by the covariant
derivative of the deformation plus half its square.

The obstruction form of a transitive structure is read off the Jacobiator
through a user-supplied right inverse of the anchor.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import List, Optional, Sequence, Tuple

from .algebroid import PreCourantAlgebroid, bracket, frame_jacobiators, jacobiator
from .bundle import (
    CourantBundle,
    Section,
    anchor_apply,
    format_section,
    format_sections,
    pairing,
)
from .cochain import (
    Cochain,
    KerCochain,
    cobound_d,
    cobound_partial,
    cochain_sharp,
    is_in_ckd,
    jacobiator_flat,
    member_samples,
    partial_section_values,
    pullback_form,
)
from .errors import DegreeError
from .exterior import KForm, VectorField, ext_d, format_kform, format_vector_coeffs
from .poly import format_poly
from .reports import VerifyReport
from .sampling import random_poly, random_section, zero_anchor_frames
from .twoterm import skew_jacobiator_direct

def twist_deformation(bundle: CourantBundle, h: KForm) -> KerCochain:
    """The deformation pulling a 3-form back through the anchor:
    omega(e1, e2) = rho*( h(rho(e1), rho(e2), .) )."""
    if h.degree != 3:
        raise DegreeError("twist deformation needs a 3-form")
    return KerCochain(pullback_form(bundle, h))


def validate_deformation(p: PreCourantAlgebroid, omega: KerCochain) -> VerifyReport:
    """The invariants: degree 2, kernel values and the contraction-membership
    test.  Alternation needs no check: the flat stores increasing frame
    tuples, and `value_at` gives zero on a repeated frame."""
    report = VerifyReport("deformation validity")
    if omega.degree != 2:
        report.add("degree-2", False, f"degree is {omega.degree}")
        return report
    report.add("degree-2", True)
    report.first(
        "kernel-valued",
        (f"omega(u{i + 1}, u{j + 1}) leaves the kernel"
         for (i, j), v in sorted(omega.frame_values.items())
         if not anchor_apply(v).is_zero()),
    )
    report.first("contraction-membership", [is_in_ckd(omega.flat)])
    return report


def apply_deformation(p: PreCourantAlgebroid, omega: KerCochain) -> PreCourantAlgebroid:
    """New structure with table[i][j] + omega(u_i, u_j).  Adds omega as
    given; `validate_deformation` checks it."""
    b = p.bundle
    table = [
        [p.table[i][j] + omega.value_at((i, j)) for j in range(b.rank)]
        for i in range(b.rank)
    ]
    return PreCourantAlgebroid(b, table)


def omega_square(
    p: PreCourantAlgebroid, omega: KerCochain, e1: Section, e2: Section, e3: Section
) -> Section:
    """omega^2(e1,e2,e3) = 2 (omega(e1, omega(e2,e3)) + cyclic)."""
    total = (
        omega.evaluate([e1, omega.evaluate([e2, e3])])
        + omega.evaluate([e2, omega.evaluate([e3, e1])])
        + omega.evaluate([e3, omega.evaluate([e1, e2])])
    )
    return total.scale(2)


def verify_deformation_identity(
    p: PreCourantAlgebroid,
    omega: KerCochain,
    deformed: PreCourantAlgebroid,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
) -> VerifyReport:
    """Exact equality of the deformed Jacobiator with
    J + partial(omega) + (1/2) omega^2, on frames and seeded sections.
    The caller validates omega and passes `apply_deformation(p, omega)`
    as `deformed`."""
    report = VerifyReport("deformation identity")
    b = p.bundle
    partial_omega = partial_section_values(p, omega)
    zero = b.zero_section()

    half = Fraction(1, 2)
    table, deformed_table = frame_jacobiators(p), frame_jacobiators(deformed)
    squares = {idx: omega_square(p, omega, *(b.frame(i) for i in idx)) for idx in table}
    report.first(
        "identity-on-frames",
        (
            f"frames {tuple(i + 1 for i in idx)}: deformed J = "
            f"({format_section(lhs)}) vs ({format_section(rhs)})"
            for idx, j in table.items()
            if (lhs := deformed_table[idx])
            != (rhs := j + partial_omega.get(idx, zero) + squares[idx].scale(half))
        ),
    )
    report.notes.append(
        "omega-square vanishes on all frame triples"
        if all(sq.is_zero() for sq in squares.values())
        else "omega-square is nonzero on some frame triple"
    )

    # partial(omega) packaged once from its frame values; evaluated on
    # general sections via its flat.  The sections are drawn as they are checked.
    pom = KerCochain.from_values(b, omega.degree + 1, partial_omega)
    rng = random.Random(seed)
    draws = ([random_section(rng, b, max_degree) for _ in range(3)] for _ in range(trials))
    report.first(
        "identity-on-sections",
        (
            "seeded sections"
            for es in draws
            if jacobiator(deformed, *es)
            != jacobiator(p, *es) + pom.evaluate(es) + omega_square(p, omega, *es).scale(half)
        ),
    )
    return report


# --- B-fields ----------------------------------------------------------


def bfield_verify(
    p: PreCourantAlgebroid,
    beta: KForm,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
) -> VerifyReport:
    """The five transformation properties of a B-field, exact."""
    report = VerifyReport("b-field transformation")
    b = p.bundle
    # B#, the section with <B#(e), e'> = beta(rho e, rho e')
    b_sharp = KerCochain(pullback_form(b, beta))

    # the equivalent structure o + rho*(d beta (rho ., rho ., .))
    deformed = apply_deformation(p, twist_deformation(b, ext_d(beta)))
    rng = random.Random(seed)
    sections = [b.frame(i) for i in range(b.rank)]
    sections += [random_section(rng, b, max_degree) for _ in range(trials)]
    # each section with its transform e + B#(e), computed once
    moved = [(e, e + b_sharp.evaluate([e])) for e in sections]

    # (1) conjugation property on frames and seeded sections
    pairs = (
        (x1, x2)
        for i, x1 in enumerate(moved)
        for x2 in moved[: len(moved) if i < b.rank else b.rank]
    )
    report.first(
        "conjugation",
        (format_sections(e1, e2) for (e1, t1), (e2, t2) in pairs
         if bracket(deformed, e1, e2)
         != (t12 := bracket(p, t1, t2)) - b_sharp.evaluate([t12])),
    )
    # (2) metric preserved
    report.first(
        "metric-preserved",
        (format_sections(e1, e2) for (e1, t1), (e2, t2) in product(moved, repeat=2)
         if pairing(t1, t2) != pairing(e1, e2)),
    )
    # (3) anchor preserved
    report.first(
        "anchor-preserved",
        (f"({format_section(e)})" for e, te in moved if anchor_apply(te) != anchor_apply(e)),
    )
    # (4) Jacobiator invariant on frame triples
    deformed_table = frame_jacobiators(deformed)
    report.first(
        "jacobiator-invariant",
        (f"frames {tuple(i + 1 for i in idx)}" for idx, j in frame_jacobiators(p).items()
         if deformed_table[idx] != j),
    )

    # (5) closed 2-form leaves the bracket table unchanged
    if ext_d(beta).is_zero():
        same = all(
            deformed.table[i][j] == p.table[i][j]
            for i in range(b.rank)
            for j in range(b.rank)
        )
        report.add("closed-beta-identity", same, "" if same else "table differs")
        report.notes.append("d beta = 0: transformation is an automorphism")
    else:
        report.notes.append("d beta != 0: bracket deformed by the pullback of d beta")
    return report


# --- Pontryagin-type forms ----------------------------------------------


def kernel_generators_from_lift(
    p: PreCourantAlgebroid, lift: Sequence[Section]
) -> List[Section]:
    """Frame-level generators of the anchor kernel in the transitive case:
    kappa_a = u_a - sum_i A[a][i] sigma_i."""
    b = p.bundle
    out = []
    for a in range(b.rank):
        kappa = b.frame(a)
        for i, coeff in b.anchor_rows[a]:
            kappa = kappa - lift[i].scale(coeff)
        out.append(kappa)
    return out


def check_lift(p: PreCourantAlgebroid, lift: Sequence[Section]) -> Optional[str]:
    """A lift must send each coordinate direction to a section anchored on it."""
    b = p.bundle
    if len(lift) != b.chart.dim:
        return f"lift must supply {b.chart.dim} sections"
    for i, sigma in enumerate(lift):
        rho = anchor_apply(sigma)
        expected = VectorField.coordinate(b.chart, i)
        if rho != expected:
            return (
                f"rho(sigma_{i + 1}) = ({format_vector_coeffs(rho)})"
                f" is not the coordinate direction {b.chart.var_names[i]}"
            )
    return None


def _require_lift(report: VerifyReport, p: PreCourantAlgebroid, lift: Sequence[Section]) -> bool:
    """Record `lift-is-right-inverse`; a lift that fails it skips the report."""
    problem = check_lift(p, lift)
    report.skipped = not report.require("lift-is-right-inverse", problem is None, problem or "")
    return not report.skipped


def pontryagin_representative(
    p: PreCourantAlgebroid, lift: Sequence[Section]
) -> Tuple[Optional[KForm], VerifyReport]:
    """The 4-form H with H(d_{i1},...,d_{i4}) = <J(s_{i1},s_{i2},s_{i3}), s_{i4}>.

    Requires a transitive structure via the right-inverse lift; verifies that
    kernel slots kill J (so the form is well defined) and that d H = 0.
    """
    report = VerifyReport("pontryagin representative")
    b = p.bundle
    if not _require_lift(report, p, lift):
        return None, report

    kappas = kernel_generators_from_lift(p, lift)
    if not report.first(
        "kernel-slots-vanish",
        (f"J(kappa_{a + 1}, u{i + 1}, u{j + 1}) != 0"
         for a, kappa in enumerate(kappas) if not kappa.is_zero()
         for i, j in combinations(range(b.rank), 2)
         if not jacobiator(p, kappa, b.frame(i), b.frame(j)).is_zero()),
    ):
        report.skipped = True
        return None, report

    n = b.chart.dim
    comps = {
        idx: pairing(jacobiator(p, lift[idx[0]], lift[idx[1]], lift[idx[2]]), lift[idx[3]])
        for idx in combinations(range(n), 4)
    }
    h_form = KForm(b.chart, 4, comps)
    closed = ext_d(h_form).is_zero()
    report.add("d-h-zero", closed, "" if closed else format_kform(ext_d(h_form)))
    return h_form, report


def pontryagin_vanishing_check(
    p: PreCourantAlgebroid, h: KForm
) -> VerifyReport:
    """Whether the 3-form h exhibits the obstruction as a coboundary:
    J-flat = rho*(d h) on frame quadruples; if so, untwisting by h yields a
    structure whose Jacobiator vanishes on frame triples."""
    report = VerifyReport("pontryagin vanishing")
    if h.degree != 3:
        report.add("h-degree-3", False, f"degree {h.degree}")
        return report
    b = p.bundle
    jflat = jacobiator_flat(p)
    target = pullback_form(b, ext_d(h))
    witnesses = (
        f"frames {tuple(i + 1 for i in idx)}: J-flat = {format_poly(jflat.value_at(idx))}"
        f" but rho*(dh) = {format_poly(target.value_at(idx))}"
        for idx in sorted((jflat - target).terms)
    )
    if not report.first("jflat-equals-pullback-dh", witnesses):
        return report

    # untwist and confirm the Jacobiator dies
    deformed = apply_deformation(p, twist_deformation(b, -h))
    report.first(
        "untwisted-jacobiator-zero",
        (
            f"frames {tuple(i + 1 for i in idx)}: J = ({format_section(j)})"
            for idx, j in frame_jacobiators(deformed).items() if not j.is_zero()
        ),
    )
    return report


# --- naive cohomology and the quotient -----------------------------------


def check_image_condition(
    p: PreCourantAlgebroid, kernel_generators: Sequence[Section]
) -> Tuple[bool, str]:
    """Whether every Jacobiator value pairs to zero with the kernel,
    i.e. lands in the kernel's orthogonal."""
    witness = next(
        (
            f"<J(u{i + 1}, u{j + 1}, u{k + 1}), kappa_{a + 1}> = {format_poly(v)}"
            for (i, j, k), jv in frame_jacobiators(p).items() if not jv.is_zero()
            for a, kappa in enumerate(kernel_generators)
            if not (v := pairing(jv, kappa)).is_zero()
        ),
        None,
    )
    return witness is None, witness or ""


def default_kernel_generators(
    p: PreCourantAlgebroid, lift: Optional[Sequence[Section]] = None
) -> List[Section]:
    """Kernel generators: lift-based in the transitive case, otherwise the
    frames whose anchor row vanishes."""
    b = p.bundle
    if lift is not None:
        return [k for k in kernel_generators_from_lift(p, lift) if not k.is_zero()]
    return [b.frame(i) for i in zero_anchor_frames(b)]


def _check_zero(report: VerifyReport, name: str, label: str, c: Cochain) -> None:
    """Declare that c vanishes; the witness is its first nonzero frame value."""
    report.first(
        name,
        (f"{label} at frames {tuple(i + 1 for i in idx)} = {format_poly(c.terms[idx])}"
         for idx in sorted(c.terms)),
    )


def naive_cohomology_check(
    p: PreCourantAlgebroid,
    samples: Sequence[Cochain],
    lift: Optional[Sequence[Section]] = None,
) -> VerifyReport:
    """D squared and partial squared vanish exactly on each sample, once the
    Jacobiator lands in the orthogonal of the kernel generators that
    `default_kernel_generators(p, lift)` gives, after `_require_lift` has
    passed a given lift.  When the precondition fails the squares are still
    evaluated so the report can exhibit a counterexample."""
    report = VerifyReport("naive cohomology")
    if lift is not None and not _require_lift(report, p, lift):
        return report
    cond, witness = check_image_condition(p, default_kernel_generators(p, lift))
    report.add("jacobiator-in-orthogonal", cond, witness)
    for n, psi in member_samples(report, samples):
        dd = cobound_d(p, cobound_d(p, psi))
        _check_zero(report, f"sample-{n}-d-squared", "D^2", dd)
        pp = cobound_partial(p, cobound_partial(p, cochain_sharp(psi)))
        _check_zero(report, f"sample-{n}-partial-squared", "partial^2", pp.flat)
    if not cond:
        report.notes.append(
            "precondition fails; any nonzero square above is the counterexample"
        )
    return report


def quotient_jacobi_check(
    p: PreCourantAlgebroid,
    complement: Sequence[Section],
    lift: Sequence[Section],
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
) -> VerifyReport:
    """Jacobi identity of the skew bracket modulo the kernel's orthogonal,
    on the supplied complement representatives and seeded combinations."""
    report = VerifyReport("quotient jacobi identity")
    b = p.bundle
    if not _require_lift(report, p, lift):
        return report
    kappas = default_kernel_generators(p, lift)
    cond, witness = check_image_condition(p, kappas)
    if not report.require("jacobiator-in-orthogonal", cond, witness):
        report.skipped = True
        report.notes.append("quotient bracket has no Lie algebroid structure")
        return report

    rng = random.Random(seed)
    tuples: List[Tuple[Section, Section, Section]] = []
    for idx in combinations(range(len(complement)), 3):
        tuples.append((complement[idx[0]], complement[idx[1]], complement[idx[2]]))
    for _ in range(trials):
        picks = []
        for _ in range(3):
            e = b.zero_section()
            for c in complement:
                e = e + c.scale(random_poly(rng, b.chart, max_degree))
            picks.append(e)
        tuples.append(tuple(picks))

    report.first(
        "jacobi-mod-orthogonal",
        (
            f"defect pairs with a kernel generator: {format_poly(v)}"
            for defect in (skew_jacobiator_direct(p, *es) for es in tuples)
            for kappa in kappas
            if not (v := pairing(defect, kappa)).is_zero()
        ),
    )
    return report
