"""Cochain spaces of a pre-Courant algebroid and their coboundaries.

A degree-k cochain is an alternating form whose index set is the frame of
the bundle (`exterior.KForm` over the bundle): its nonzero values sit on
strictly increasing frame index tuples.  Members of the contraction-closed
space (those killed by every D f) are tensorial, so frame storage is
lossless; `exterior.contract` inserts a general section and
`exterior.evaluate` expands on k sections.  Kernel-valued cochains are
stored as their flat, one degree up.

Two coboundaries act here: the extension of D (anchor terms plus bracket
insertions) and the covariant derivative with left and right bracket
actions.  They are implemented from their own formulas so that the
commutation lemma D psi = (partial sharp(psi))-flat is a genuine
cross-check between independent code paths.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain, combinations, product
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .algebroid import (
    PreCourantAlgebroid,
    bracket,
    frame_jacobiators,
    jacobiator,
    verify_axioms,
)
from .bundle import CourantBundle, Section, anchor_apply, format_section, pairing
from .errors import DegreeError, MembershipError
from .exterior import KForm, contract, evaluate, vf_apply
from .poly import Chart, Poly, add_into, format_poly, sort_sign
from .reports import VerifyReport
from .sampling import random_poly, random_section

FrameTuple = Tuple[int, ...]


class Cochain(KForm):
    """Alternating k-linear data on the frame, with Poly values."""

    __slots__ = ()

    @property
    def bundle(self) -> CourantBundle:
        return self.space[0]

    @property
    def chart(self) -> Chart:
        return self.space[0].chart

    @property
    def size(self) -> int:
        """The number of index values: the rank of the bundle."""
        return self.space[0].rank

    def _mismatch(self, other: "Cochain") -> None:
        raise DegreeError("cochain mismatch")


class KerCochain:
    """Kernel-valued k-cochain, stored as its flat (a (k+1)-cochain).

    It is C-infinity-multilinear, so its section values on increasing
    k-tuples determine it.  They are raised from the flat: a flat key K of
    length k+1 with value v gives the covector of K without K[t] the entry
    (-1)^(k-t) v at index K[t].
    """

    def __init__(self, flat: Cochain):
        self.flat = flat

    @property
    def bundle(self) -> CourantBundle:
        return self.flat.bundle

    @property
    def degree(self) -> int:
        return self.flat.degree - 1

    @staticmethod
    def zero(bundle: CourantBundle, degree: int) -> "KerCochain":
        return KerCochain(Cochain.zero(bundle, degree + 1))

    @staticmethod
    def from_values(
        bundle: CourantBundle, degree: int, values: Dict[FrameTuple, Section]
    ) -> "KerCochain":
        """The cochain with these section values on the increasing frame
        tuples: its flat pairs the value on K[:-1] with the frame K[-1]."""
        flat = {
            big: pairing(values[big[:-1]], bundle.frame(big[-1]))
            for big in combinations(range(bundle.rank), degree + 1)
        }
        return KerCochain(Cochain(bundle, degree + 1, flat))

    @cached_property
    def frame_values(self) -> Dict[FrameTuple, Section]:
        """The nonzero section values on increasing frame tuples."""
        b = self.bundle
        k = self.degree
        covectors: Dict[FrameTuple, Dict[int, Poly]] = {}
        for key, v in self.flat.terms.items():
            for t, j in enumerate(key):
                rest = key[:t] + key[t + 1 :]
                covectors.setdefault(rest, {})[j] = v if (k - t) % 2 == 0 else -v
        zero = Poly.zero(b.chart)
        raised = {
            rest: b.raise_covector([c.get(j, zero) for j in range(b.rank)])
            for rest, c in covectors.items()
        }
        return {rest: s for rest, s in raised.items() if s.terms}

    def value_at(self, indices: Sequence[int]) -> Section:
        """Section value on a frame tuple."""
        key, sign = sort_sign(indices)
        s = self.frame_values.get(key)
        if s is None:
            return self.bundle.zero_section()
        return s if sign > 0 else -s

    def eval_section_first(self, s: Section, rest: Sequence[int]) -> Section:
        """sum_i s_i phi(u_i, rest), by C-infinity-linearity in the first slot."""
        out: Dict[int, Poly] = {}
        for i, si in s.terms.items():
            key, sign = sort_sign((i, *rest))
            v = self.frame_values.get(key)
            if v is not None:
                f = si if sign > 0 else -si
                for m, c in v.terms.items():
                    add_into(out, m, f * c)
        return Section.from_terms(self.bundle, out)

    def evaluate(self, sections: Sequence[Section]) -> Section:
        """The section value on k general sections: the flat contracted
        with each in turn, then raised."""
        if len(sections) != self.degree:
            raise DegreeError(f"need {self.degree} sections, got {len(sections)}")
        last = self.flat
        for s in sections:
            last = contract(s, last)
        b = self.bundle
        return b.raise_covector([last.value_at((j,)) for j in range(b.rank)])

    def __eq__(self, other) -> bool:
        return isinstance(other, KerCochain) and self.flat == other.flat


def pullback_form(bundle: CourantBundle, alpha: KForm) -> Cochain:
    """The cochain alpha(rho(.), ..., rho(.)); always killed by every D f."""
    k = alpha.degree
    values = {}
    for idx in combinations(range(bundle.rank), k):
        values[idx] = evaluate(alpha, [bundle.rho_frames[i] for i in idx])
    return Cochain(bundle, k, values)


def is_in_ckd(psi: Cochain) -> Optional[str]:
    """Contraction-membership: i_{D x_m} psi = 0 for every coordinate.
    Returns None for a member, else the first nonzero contraction.

    D(fg) = f Dg + g Df together with Poly-linearity of contraction makes
    the coordinate functions sufficient.
    """
    if psi.degree == 0:
        return None
    b = psi.bundle
    return next(
        (
            f"i_D{b.chart.var_names[m]} psi at frames "
            f"{tuple(i + 1 for i in idx)} = {format_poly(p)}"
            for m in range(b.chart.dim)
            for idx, p in sorted(contract(b.dee_columns[m], psi).terms.items())
        ),
        None,
    )


def _require_membership(psi: Cochain) -> None:
    witness = is_in_ckd(psi)
    if witness is not None:
        raise MembershipError(witness)


def member_samples(
    report: VerifyReport, samples: Sequence[Cochain]
) -> Iterator[Tuple[int, Cochain]]:
    """The samples, numbered from 1, that pass their sample-N-membership
    check; each check is recorded in `report` as its sample comes up."""
    for n, psi in enumerate(samples, 1):
        if report.first(f"sample-{n}-membership", [is_in_ckd(psi)]):
            yield n, psi


def cochain_sharp(psi: Cochain) -> KerCochain:
    """Lower a (k+1)-cochain to a kernel-valued k-cochain; requires membership."""
    if psi.degree < 1:
        raise DegreeError("sharp needs degree >= 1")
    _require_membership(psi)
    return KerCochain(psi)


def cobound_d(p: PreCourantAlgebroid, psi: Cochain) -> Cochain:
    """The coboundary extending D: anchor terms plus bracket insertions.

    D psi(e_1..e_{k+1}) = sum_i (-1)^{i+1} rho(e_i) psi(..no i..)
                        + sum_{i<j} (-1)^{i+j} psi(e_i o e_j, ..no i,j..)
    """
    _require_membership(psi)
    b = p.bundle
    k = psi.degree
    rho_frames = b.rho_frames
    # psi(e_i o e_j, rest) for every frame pair i < j
    inserted = {
        (i, j): contract(p.table[i][j], psi).terms
        for i, j in combinations(range(b.rank), 2)
    } if k else {}
    values: Dict[FrameTuple, Poly] = {}
    for big in combinations(range(b.rank), k + 1):
        total = Poly.zero(b.chart)
        for t in range(k + 1):
            inner = psi.terms.get(big[:t] + big[t + 1 :])
            if inner is not None:
                term = vf_apply(rho_frames[big[t]], inner)
                total = total + term if t % 2 == 0 else total - term
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(x for u, x in enumerate(big) if u != s and u != t)
                term = inserted[big[s], big[t]].get(rest)
                if term is not None:
                    # 1-based sign (-1)^{i+j} is (-1)^{s+t} on 0-based positions
                    total = total + term if (s + t) % 2 == 0 else total - term
        values[big] = total
    return Cochain(b, k + 1, values)


def partial_section_values(
    p: PreCourantAlgebroid, phi: KerCochain
) -> Dict[FrameTuple, Section]:
    """Covariant derivative values on increasing frame tuples.

    partial phi(e_1..e_{k+1}) = sum_{i<=k} (-1)^{i+1} e_i o phi(..no i..)
                              + (-1)^{k+1} phi(e_1..e_k) o e_{k+1}
                              + sum_{i<j} (-1)^{i+j} phi(e_i o e_j, ..no i,j..)
    """
    b = p.bundle
    k = phi.degree
    out: Dict[FrameTuple, Section] = {}
    for big in combinations(range(b.rank), k + 1):
        total = b.zero_section()
        # left actions on positions 0..k-1
        for t in range(k):
            rest = big[:t] + big[t + 1 :]
            inner = phi.value_at(rest)
            if not inner.is_zero():
                term = bracket(p, b.frame(big[t]), inner)
                total = total + (term if t % 2 == 0 else -term)
        # single right action on the last position, sign (-1)^{k+1}
        head = phi.value_at(big[:k])
        if not head.is_zero():
            term = bracket(p, head, b.frame(big[k]))
            total = total + (term if k % 2 == 1 else -term)
        # insertion terms
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(x for u, x in enumerate(big) if u != s and u != t)
                entry = p.table[big[s]][big[t]]
                if entry.is_zero():
                    continue
                term = phi.eval_section_first(entry, rest)
                if not term.is_zero():
                    total = total + (term if (s + t) % 2 == 0 else -term)
        out[big] = total
    return out


def cobound_partial(p: PreCourantAlgebroid, phi: KerCochain) -> KerCochain:
    """Covariant derivative packaged as a kernel-valued cochain again."""
    return KerCochain.from_values(p.bundle, phi.degree + 1, partial_section_values(p, phi))


def verify_comm_lemma(
    p: PreCourantAlgebroid, samples: Sequence[Cochain]
) -> VerifyReport:
    """Exact equality D psi = (partial sharp(psi))-flat on every frame tuple."""
    report = VerifyReport("commutation of D with the covariant derivative")
    for n, psi in member_samples(report, samples):
        lhs = cobound_d(p, psi)
        rhs = cobound_partial(p, cochain_sharp(psi)).flat
        report.first(
            f"sample-{n}-equal",
            (
                f"frames {tuple(i + 1 for i in idx)}: D side = "
                f"{format_poly(a)}, partial side = {format_poly(bb)}"
                for idx in sorted(set(lhs.terms) | set(rhs.terms))
                if (a := lhs.value_at(idx)) != (bb := rhs.value_at(idx))
            ),
        )
    return report


def jacobiator_flat(p: PreCourantAlgebroid) -> Cochain:
    """The 4-cochain <J(u_a, u_b, u_c), u_d> on increasing frame tuples:
    the flat of the kernel cochain with the values `frame_jacobiators(p)`.

    Only meaningful once total alternation has been verified.  It depends
    on the algebroid alone, so it is built once and kept in `p.jflat`.
    """
    if p.jflat is None:
        p.jflat = KerCochain.from_values(p.bundle, 3, frame_jacobiators(p)).flat
    return p.jflat


def verify_jacobiator_theorem(
    p: PreCourantAlgebroid,
    trials: int = 16,
    seed: int = 0,
    max_degree: int = 2,
    precheck: bool = True,
) -> VerifyReport:
    """The full Jacobiator theorem: skewness, tensoriality, kernel values,
    total alternation of the flat, D-annihilation, and partial J = 0."""
    report = VerifyReport("jacobiator theorem suite")
    if precheck:
        axioms = verify_axioms(p, trials=min(trials, 4), seed=seed, max_degree=1)
        if not axioms.ok:
            fail = axioms.first_failure()
            report.add(
                "precondition-axioms", False,
                f"{fail.name}: {fail.witness}" if fail else "axioms failed",
            )
            report.skipped = True
            report.notes.append("theorem suite skipped: axioms do not hold")
            return report
        report.add("precondition-axioms", True)
    b = p.bundle
    r = b.rank
    frames = b.frames()
    table = frame_jacobiators(p)

    # (1) skew-symmetry on frame triples (adjacent swaps + repeated arguments)
    report.first(
        "skew-symmetric",
        chain(
            (f"frames ({i + 1},{j + 1},{k + 1})" for (i, j, k), base in table.items()
             if not ((base + jacobiator(p, frames[j], frames[i], frames[k])).is_zero()
                     and (base + jacobiator(p, frames[i], frames[k], frames[j])).is_zero())),
            # the three repeated triples coincide when i == j
            (f"repeated frames ({i + 1},{j + 1})" for i, j in product(range(r), repeat=2)
             if not all(jacobiator(p, *(frames[x] for x in t)).is_zero()
                        for t in dict.fromkeys([(i, i, j), (i, j, j), (i, j, i)]))),
        ),
    )

    # (2) tensoriality under function multiplication in the first slot, on
    # functions and sections drawn as they are checked
    rng = random.Random(seed)
    draws = (
        (random_poly(rng, b.chart, max_degree),
         *(random_section(rng, b, max_degree) for _ in range(3)))
        for _ in range(trials)
    )
    report.first(
        "tensorial",
        (f"f = {format_poly(f)}" for f, e1, e2, e3 in draws
         if jacobiator(p, e1.scale(f), e2, e3) != jacobiator(p, e1, e2, e3).scale(f)),
    )

    # (3) values in the kernel of the anchor
    report.first(
        "kernel-valued",
        (f"frames ({i + 1},{j + 1},{k + 1})" for (i, j, k), v in table.items()
         if not anchor_apply(v).is_zero()),
    )

    # (4) total alternation of <J(.,.,.), .> on frame quadruples
    report.first(
        "flat-alternating",
        chain(
            (f"frames ({i + 1},{j + 1},{k + 1},{l + 1})"
             for i, j, k, l in combinations(range(r), 4)
             if not (pairing(table[i, j, k], frames[l])
                     + pairing(table[i, j, l], frames[k])).is_zero()),
            (f"frames ({i + 1},{j + 1},{k + 1}) self-pairing" for (i, j, k), v in table.items()
             if not all(pairing(v, frames[x]).is_zero() for x in (i, j, k))),
        ),
    )

    # (5) J(D x_m, ., .) = 0
    report.first(
        "derivative-slot-vanishes",
        (f"D{b.chart.var_names[m]}, frames ({i + 1},{j + 1})"
         for m, km in enumerate(b.dee_columns)
         for i in range(r)
         for j in range(i, r)
         if not jacobiator(p, km, frames[i], frames[j]).is_zero()),
    )

    if not report.ok:
        report.notes.append("flat checks skipped: prerequisites failed")
        return report

    # storage of the flat is sound now that (1) and (4) hold
    jflat = jacobiator_flat(p)
    report.first("flat-membership", [is_in_ckd(jflat)])

    # (6) partial J = 0 on frame quadruples
    values = partial_section_values(p, KerCochain(jflat))
    report.first(
        "partial-j-zero",
        (f"frames {tuple(i + 1 for i in idx)}: partial J = ({format_section(section)})"
         for idx, section in sorted(values.items()) if not section.is_zero()),
    )

    # equivalent flat statement D(J-flat) = 0
    dflat = cobound_d(p, jflat)
    report.first(
        "d-jflat-zero",
        (f"frames {tuple(i + 1 for i in idx)}: D(J-flat) = {format_poly(dflat.terms[idx])}"
         for idx in sorted(dflat.terms)),
    )
    return report
