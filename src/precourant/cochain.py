"""Cochain spaces of a pre-Courant algebroid and their coboundaries.

A degree-k cochain is an alternating form whose index set is the frame of
the bundle (`exterior.KForm` over the bundle): its nonzero values sit on
strictly increasing frame index tuples, and a missing tuple is zero.  The
values derived here (D psi, the covariant derivative, a kernel cochain's
flat) take that format too: each is scattered from nonzero frame data.
Members of the contraction-closed space (those killed by every D f) are
tensorial, so frame storage is lossless; `exterior.contract` inserts a
general section and `exterior.evaluate` expands on k sections.
Kernel-valued cochains are stored as their flat, one degree up.

Two coboundaries act here: the extension of D (anchor terms plus bracket
insertions) and the covariant derivative with left and right bracket
actions.  They are implemented from their own formulas so that the
commutation lemma D psi = (partial sharp(psi))-flat is a genuine
cross-check between independent code paths.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cached_property
from itertools import chain, combinations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebroid import PreCourantAlgebroid, bracket, jacobiator, verify_axioms
from .bundle import CourantBundle, Section, anchor_apply, format_section, lower, pairing
from .errors import DegreeError, MembershipError
from .exterior import KForm, contract, evaluate, vf_apply
from .poly import Chart, Poly, add_into, alternating_covector, format_poly, sort_sign
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
    def from_values(
        bundle: CourantBundle, degree: int, values: Dict[FrameTuple, Section]
    ) -> "KerCochain":
        """The cochain with these section values on increasing frame tuples,
        zero where a tuple is missing: each value v on K puts <v, u_x>, read
        from `lower(v)`, at K + (x,) for every frame x after K[-1]."""
        flat = {(*key, x): c for key, v in values.items()
                for x, c in lower(v).items() if not key or x > key[-1]}
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

    def evaluate(self, sections: Sequence[Section]) -> Section:
        """The value on k sections: the flat's covector on them, raised once."""
        if len(sections) != self.degree:
            raise DegreeError(f"need {self.degree} sections, got {len(sections)}")
        b = self.bundle
        return b.raise_covector(alternating_covector(
            b.chart, self.flat.terms, [s.terms for s in sections], b.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, KerCochain) and self.flat == other.flat


def pullback_form(bundle: CourantBundle, alpha: KForm) -> Cochain:
    """The cochain alpha(rho(.), ..., rho(.)); always killed by every D f.
    A frame with zero anchor makes every value on it zero, so alpha is
    evaluated only on tuples of anchored frames."""
    rho = bundle.rho_frames
    anchored = [i for i, v in enumerate(rho) if not v.is_zero()]
    return Cochain(
        bundle,
        alpha.degree,
        {idx: evaluate(alpha, [rho[i] for i in idx])
         for idx in combinations(anchored, alpha.degree)},
    )


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


def _insert(key: FrameTuple, *xs: int) -> Tuple[FrameTuple, int]:
    """The increasing tuple key with the increasing frames xs, none of them
    in it, inserted, and the sum of their positions there."""
    total = 0
    for x in xs:
        t = bisect_left(key, x)
        key, total = key[:t] + (x,) + key[t:], total + t
    return key, total


def _upper_entries(p: PreCourantAlgebroid) -> List[Tuple[int, int, Section]]:
    """(i, j, u_i o u_j) for every frame pair i < j whose table entry is
    not zero."""
    return [(i, j, row[j]) for i, row in enumerate(p.table)
            for j in range(i + 1, p.rank) if not row[j].is_zero()]


def cobound_d(p: PreCourantAlgebroid, psi: Cochain) -> Cochain:
    """The coboundary extending D: anchor terms plus bracket insertions.

    D psi(e_1..e_{k+1}) = sum_i (-1)^{i+1} rho(e_i) psi(..no i..)
                        + sum_{i<j} (-1)^{i+j} psi(e_i o e_j, ..no i,j..)

    On frames it is scattered from the nonzero data: each value psi(K)
    reaches K with an anchored frame x added, and each nonzero entry R of
    psi(u_i o u_j, .) reaches R with i and j added.  The 1-based signs are
    (-1)^t and (-1)^{s+t} on the 0-based positions of the added frames.
    """
    _require_membership(psi)
    b = p.bundle
    k = psi.degree
    anchored = [(x, v) for x, v in enumerate(b.rho_frames) if not v.is_zero()]
    values: Dict[FrameTuple, Poly] = {}
    for key, inner in psi.terms.items():
        for x, rho_x in anchored:
            if x not in key:
                big, t = _insert(key, x)
                term = vf_apply(rho_x, inner)
                add_into(values, big, -term if t % 2 else term)
    for i, j, entry in _upper_entries(p) if k else ():
        for rest, term in contract(entry, psi).terms.items():
            if i not in rest and j not in rest:
                big, st = _insert(rest, i, j)
                add_into(values, big, -term if st % 2 else term)
    return Cochain(b, k + 1, values)


def partial_section_values(
    p: PreCourantAlgebroid, phi: KerCochain
) -> Dict[FrameTuple, Section]:
    """The nonzero covariant derivative values on increasing frame tuples,
    in increasing order.

    partial phi(e_1..e_{k+1}) = sum_{i<=k} (-1)^{i+1} e_i o phi(..no i..)
                              + (-1)^{k+1} phi(e_1..e_k) o e_{k+1}
                              + sum_{i<j} (-1)^{i+j} phi(e_i o e_j, ..no i,j..)

    It is scattered from `phi.frame_values`: each value phi(K) is bracketed
    with every frame u_x, x not in K, from the left when x lands before the
    last position and from the right when it lands last; the insertion
    terms are formed only at rests that are a value's key less one frame.
    """
    b = p.bundle
    k = phi.degree
    out: Dict[FrameTuple, Section] = {}
    for key, value in phi.frame_values.items():
        for x in range(b.rank):
            if x in key:
                continue
            big, t = _insert(key, x)
            if t < k:
                term, sign = bracket(p, b.frame(x), value), t
            else:
                term, sign = bracket(p, value, b.frame(x)), k + 1
            add_into(out, big, -term if sign % 2 else term)
    rests = dict.fromkeys(
        key[:u] + key[u + 1 :] for key in phi.frame_values for u in range(k)
    )
    entries = _upper_entries(p)
    for rest in rests:
        for i, j, entry in entries:
            if i not in rest and j not in rest:
                term = phi.evaluate([entry, *map(b.frame, rest)])
                if not term.is_zero():
                    big, st = _insert(rest, i, j)
                    add_into(out, big, -term if st % 2 else term)
    return {key: out[key] for key in sorted(out) if not out[key].is_zero()}


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
    the flat of the kernel cochain with the values `p.jframes`.

    Only meaningful once total alternation has been verified.  It depends
    on the algebroid alone, so it is built once and kept in `p.jflat`.
    """
    if p.jflat is None:
        p.jflat = KerCochain.from_values(p.bundle, 3, p.jframes).flat
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
        if not report.first("precondition-axioms", [axioms.first_failure()]):
            report.skipped = True
            report.notes.append("theorem suite skipped: axioms do not hold")
            return report
    b = p.bundle
    r = b.rank
    frames = b.frames()
    table = p.jframes

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
    report.first(
        "partial-j-zero",
        (f"frames {tuple(i + 1 for i in idx)}: partial J = ({format_section(section)})"
         for idx, section in partial_section_values(p, KerCochain(jflat)).items()),
    )

    # equivalent flat statement D(J-flat) = 0
    dflat = cobound_d(p, jflat)
    report.first(
        "d-jflat-zero",
        (f"frames {tuple(i + 1 for i in idx)}: D(J-flat) = {format_poly(dflat.terms[idx])}"
         for idx in sorted(dflat.terms)),
    )
    return report
