"""Courant vector bundles over a chart.

A bundle fixes a global frame, a constant nondegenerate symmetric pairing
in that frame, and a polynomial anchor matrix (row i is the vector field
the i-th frame section maps to).  The compatibility condition rho rho* = 0
reads A^T g^-1 A = 0 as a polynomial matrix identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple

from . import linalg
from .errors import ChartMismatchError, DegreeError, RankMismatchError
from .exterior import KForm, VectorField
from .poly import Chart, Poly, PolyMap, add_into, format_poly
from .reports import VerifyReport


class Section(PolyMap):
    """A section in the fixed frame: its nonzero coefficients by frame index."""

    __slots__ = ()

    def __init__(self, bundle: "CourantBundle", coeffs: Iterable[Poly]):
        cs = tuple(coeffs)
        if len(cs) != bundle.rank:
            raise RankMismatchError(f"expected {bundle.rank} coefficients, got {len(cs)}")
        chart = bundle.chart
        for c in cs:
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatchError("section coefficient on a different chart")
        self.space = bundle
        self.terms = {i: c for i, c in enumerate(cs) if not c.is_zero()}
        self._hash = None
        self._jet = None

    @property
    def bundle(self) -> "CourantBundle":
        return self.space

    @property
    def coeffs(self) -> Tuple[Poly, ...]:
        """Every coefficient, zeros included, in frame order."""
        zero = Poly.zero(self.space.chart)
        return tuple(self.terms.get(i, zero) for i in range(self.space.rank))

    def _mismatch(self, other: "Section") -> None:
        raise RankMismatchError("sections belong to different bundles")

    def __repr__(self) -> str:
        return f"Section[{format_section(self)}]"


class CourantBundle:
    """Chart + rank + constant pseudo-metric + polynomial anchor matrix.

    The metric must be a nondegenerate symmetric form: any other raises
    ConstructionError (see `linalg.symmetric_inverse`).  A bundle is never
    changed after it is built, so what is derived from it is kept on it:
    the frames and the nonzero entries of the metric, its inverse and the
    anchor from the start, the cached properties from their first read.
    """

    def __init__(
        self,
        chart: Chart,
        rank: int,
        metric: Sequence[Sequence],
        anchor: Sequence[Sequence[Poly]],
    ):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.chart = chart
        self.rank = rank
        self.metric = linalg.to_matrix(metric)
        if len(self.metric) != rank or any(len(row) != rank for row in self.metric):
            raise ValueError("metric must be rank x rank")
        rows = [tuple(row) for row in anchor]
        if len(rows) != rank or any(len(row) != chart.dim for row in rows):
            raise ValueError("anchor must be rank x dim")
        for row in rows:
            for p in row:
                if p.chart != chart:
                    raise ChartMismatchError("anchor entry on a different chart")
        self.anchor = tuple(rows)
        self.metric_rows = linalg.nonzero_rows(self.metric)
        self.metric_inv_rows = linalg.nonzero_rows(linalg.symmetric_inverse(self.metric, "metric"))
        self.anchor_rows = tuple(
            tuple((m, p) for m, p in enumerate(row) if not p.is_zero()) for row in rows
        )
        # point -> (kernel basis of the anchor, anchor rank, coisotropy witness)
        self._pointwise: Dict[Tuple[Fraction, ...], Tuple[List[list], int, str]] = {}
        zero, one = Poly.zero(chart), Poly.const(chart, 1)
        self._frames = tuple(
            Section(self, [one if k == i else zero for k in range(rank)])
            for i in range(rank)
        )
        self.rho_frames = tuple(anchor_apply(f) for f in self._frames)

    @cached_property
    def dee_columns(self) -> Tuple[Section, ...]:
        """Column m of g^-1 A, which is the section D x_m."""
        return tuple(
            self.raise_covector([row[m] for row in self.anchor])
            for m in range(self.chart.dim)
        )

    @cached_property
    def frame_index(self) -> Dict[Section, int]:
        """The index of each frame section."""
        return {f: i for i, f in enumerate(self._frames)}

    @cached_property
    def _report(self) -> VerifyReport:
        return _bundle_report(self)

    def raise_covector(self, covector: Sequence[Poly]) -> "Section":
        """The section s with <s, u_j> = covector[j] on every frame: g^-1 c."""
        out = {}
        for i, row in enumerate(self.metric_inv_rows):
            for j, c in row:
                p = covector[j]
                if not p.is_zero():
                    add_into(out, i, p * c)
        return Section.from_terms(self, out)

    # --- constructors ---------------------------------------------------

    def zero_section(self) -> Section:
        return Section.from_terms(self, {})

    def frame(self, i: int) -> Section:
        return self._frames[i]

    def frames(self) -> List[Section]:
        return list(self._frames)

    def section(self, coeffs: Iterable[Poly]) -> Section:
        return Section(self, coeffs)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, CourantBundle)
            and self.chart == other.chart
            and self.rank == other.rank
            and self.metric == other.metric
            and self.anchor == other.anchor
        )

    def __repr__(self) -> str:
        return f"CourantBundle(rank={self.rank}, dim={self.chart.dim})"


def standard_bundle(chart: Chart, aux_pairing: Sequence[Sequence] = ()) -> CourantBundle:
    """The generalized tangent bundle of the chart, with an auxiliary block
    of rank g = len(aux_pairing) between its two halves.

    Rank 2n + g; frames 0..n-1 are the coordinate tangent directions,
    frames n..n+g-1 the auxiliary ones and frames n+g..2n+g-1 the
    coordinate cotangent directions; the pairing is the tangent/cotangent
    duality around the auxiliary pairing and the anchor projects onto the
    first block.
    """
    n, g = chart.dim, len(aux_pairing)
    r = 2 * n + g
    metric = [[0] * r for _ in range(r)]
    for i in range(n):
        metric[i][n + g + i] = 1
        metric[n + g + i][i] = 1
    for a, row in enumerate(aux_pairing):
        metric[n + a][n : n + g] = row
    zero, one = Poly.zero(chart), Poly.const(chart, 1)
    anchor = [[one if j == i else zero for j in range(n)] for i in range(n)]
    anchor += [[zero] * n for _ in range(r - n)]
    return CourantBundle(chart, r, metric, anchor)


def validate_bundle(b: CourantBundle) -> VerifyReport:
    """Check the one type invariant that the construction does not, since
    it is polynomial: A^T g^-1 A = 0.  Each nonzero entry is one failed
    check, named by its witness entry.  Every call gets its own copy."""
    return b._report.copy()


def _bundle_report(b: CourantBundle) -> VerifyReport:
    report = VerifyReport("bundle")
    # rho rho* = 0 in the frame: (A^T g^-1 A)_{mk} is the m-th component of
    # rho(D x_k), since D x_k is column k of g^-1 A
    rho_dee = [anchor_apply(column) for column in b.dee_columns]
    for m in range(b.chart.dim):
        for k, vf in enumerate(rho_dee):
            total = vf.terms.get(m)
            if total is not None:
                report.add(
                    f"anchor-not-isotropic: (A^T g^-1 A)[{m + 1}][{k + 1}] = "
                    f"{format_poly(total)}",
                    False,
                )
    return report


def pairing(e1: Section, e2: Section) -> Poly:
    """The pseudo-metric e1^T g e2; symmetric and Poly-bilinear."""
    e1._check(e2)
    b = e1.bundle
    out = Poly.zero(b.chart)
    for i, ci in e1.terms.items():
        for j, gij in b.metric_rows[i]:
            cj = e2.terms.get(j)
            if cj is not None:
                out = out + (ci * cj) * gij
    return out


def lower(e: Section) -> Dict[int, Poly]:
    """The nonzero <e, u_k>, by frame k in increasing order."""
    out: Dict[int, Poly] = {}
    for i, ci in e.terms.items():
        for k, gik in e.bundle.metric_rows[i]:
            add_into(out, k, ci * gik)
    return {k: out[k] for k in sorted(out) if not out[k].is_zero()}


def anchor_apply(e: Section) -> VectorField:
    """The anchored vector field sum_i e_i rho(frame_i)."""
    b = e.bundle
    out = {}
    for i, ei in e.terms.items():
        for m, a in b.anchor_rows[i]:
            add_into(out, m, ei * a)
    return VectorField.from_terms(b.chart, out)


def rho_star(b: CourantBundle, xi: KForm) -> Section:
    """The section s with <s, e> = xi(rho(e)) for every e: g^-1 (A xi)."""
    if xi.degree != 1:
        raise DegreeError("rho_star needs a 1-form")
    if xi.chart != b.chart:
        raise ChartMismatchError("form on a different chart")
    zero = Poly.zero(b.chart)
    a_xi = [
        sum((a * xi.terms[(m,)] for m, a in row if (m,) in xi.terms), zero)
        for row in b.anchor_rows
    ]
    return b.raise_covector(a_xi)


def dee(b: CourantBundle, f: Poly) -> Section:
    """The derivative section characterized by <D f, e> = rho(e) f:
    the sum over m of (d f / d x_m) D x_m."""
    if f.chart != b.chart:
        raise ChartMismatchError("function on a different chart")
    out = {}
    for m, column in enumerate(b.dee_columns):
        df_m = f.diff(m)
        for k, c in column.terms.items():
            add_into(out, k, df_m * c)
    return Section.from_terms(b, out)


def anchor_at(b: CourantBundle, pt: Sequence[Fraction]) -> linalg.Matrix:
    """A(p)^T at a rational point: row m holds the m-th component of every
    frame's anchor, so its null space is Ker rho at the point.  Integral
    entries are ints (see `linalg.rational`)."""
    return [
        [linalg.rational(b.anchor[i][m].eval(pt)) for i in range(b.rank)]
        for m in range(b.chart.dim)
    ]


def _pointwise(b: CourantBundle, pt: Tuple[Fraction, ...]) -> Tuple[List[list], int, str]:
    """The kernel basis of rho at pt, the anchor rank there, and a witness
    when (Ker rho)-perp is not inside Ker rho; computed once per point."""
    out = b._pointwise.get(pt)
    if out is None:
        a_t = anchor_at(b, pt)
        kernel = linalg.kernel_basis(a_t, b.rank)
        constraints = [
            [sum(c * v[j] for j, c in row) for row in b.metric_rows] for v in kernel
        ]
        perp = linalg.kernel_basis(constraints, b.rank)
        bad = next(
            (w for w in perp if any(sum(map(mul, row, w)) != 0 for row in a_t)), None
        )
        witness = "" if bad is None else (
            "perp-vector outside kernel: (" + ", ".join(map(str, bad)) + ")"
        )
        out = b._pointwise[pt] = (kernel, b.rank - len(kernel), witness)
    return out


def kernel_at(b: CourantBundle, point: Sequence) -> List[list]:
    """A basis of Ker rho at a rational point, over the rationals.  The
    basis is kept on the bundle; callers must not change it."""
    return _pointwise(b, tuple(Fraction(x) for x in point))[0]


def kernel_coisotropy_check(b: CourantBundle, points: Sequence[Sequence]) -> VerifyReport:
    """At each rational point, check that (Ker rho)-perp lies inside Ker rho.

    The kernel is computed over the rationals from the evaluated anchor; the
    perp is taken with the metric.  Each point is one check, and a note
    gives the anchor rank there.  Each point is computed once per bundle,
    and `kernel_at` reads the same kernel.
    """
    if not points:
        raise ValueError("need at least one sample point")
    report = VerifyReport("kernel coisotropy")
    for raw in points:
        pt = tuple(Fraction(x) for x in raw)
        _, anchor_rank, witness = _pointwise(b, pt)
        point = f"point {tuple(map(str, pt))}"
        report.add(point, not witness, witness)
        report.notes.append(f"{point}: anchor rank {anchor_rank}")
    return report


def format_section(e: Section) -> str:
    return ", ".join(format_poly(c) for c in e.coeffs)


def format_sections(*sections: Section) -> str:
    """Sections in a witness: each parenthesized, separated by bars."""
    return " | ".join("(" + format_section(s) + ")" for s in sections)
