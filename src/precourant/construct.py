"""Builders that produce pre-Courant algebroids from structured data.

Two recipes are implemented:

* a metric connection together with a skew-adjusted bilinear corrector on
  any Courant vector bundle;
* quadratic Lie algebras, their hyperbolic doubles, and (twisted) actions
  on a chart, giving structures on trivial bundles.

A transitive dissection (tangent + auxiliary + cotangent blocks with a
fiber metric, a metric connection, a curvature-like 2-form and a 3-form)
is an instance of the first recipe.  Its Jacobiator has known closed-form
components, which are computed on sections of the standard bundle with
the one covariant derivative `_covariant` that the first recipe uses too.

No builder expands a frame table by hand: a twisted action's bracket and
a dissection's fiber bracket are compiled from `algebroid.bracket_families`.

Builders validate their stated preconditions and raise ConstructionError
with a witness; verifying the output axioms is the caller's business (the
task runner and the test-suite always do).

The algebra and action checks run in int arithmetic wherever the data is
integral.  The antisymmetry, Jacobi and invariance checks of a quadratic
Lie algebra combine its nonzero structure constants and pairing entries,
each integral one held as an int, with no basis vectors in between.  The
defect check of a twisted action evaluates the defect table once per
sample point, at which an integral point gives ints, and reads the kernel
of the anchor that the bundle keeps for that point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, combinations, product, starmap
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebroid import PreCourantAlgebroid, bracket_families, skew_defects, zero_table
from .bundle import (
    CourantBundle,
    Section,
    anchor_apply,
    format_section,
    format_sections,
    kernel_at,
    kernel_coisotropy_check,
    lower,
    pairing,
    rho_star,
    standard_bundle,
    validate_bundle,
)
from .cochain import jacobiator_flat, pullback_form
from .errors import ConstructionError
from .exterior import KForm, ext_d, vf_bracket
from .poly import BilinearOperator, Chart, Poly, add_into, format_poly
from .reports import VerifyReport
from .sampling import random_poly

Matrix = linalg.Matrix
# a vector of a Lie algebra as its {basis index: coefficient} entries
AlgebraVector = Dict[int, linalg.Scalar]
# a bracket of basis vectors as its nonzero (basis index, coefficient) pairs
BasisBracket = Tuple[Tuple[int, linalg.Scalar], ...]


# --- connection + corrector on a general bundle ---------------------------


def from_connection_beta(
    b: CourantBundle,
    nabla: Sequence[Sequence[Section]],
    beta: Sequence[Sequence[Section]],
) -> PreCourantAlgebroid:
    """Structure from a metric connection and a skew corrector.

    `nabla[m][a]` is the section nabla_m u_a, the covariant derivative of
    the a-th frame along the m-th coordinate, as `_covariant` reads it.
    `beta` is the frame table of the corrector.  Preconditions (each
    checked, witness on failure): the connection is metric, the corrector
    pairing is totally skew, and the corrector supplies the anchor defect.
    """
    r = b.rank
    rho_frames = b.rho_frames
    zero = Poly.zero(b.chart)

    # conn[m][a][c] = <nabla_m u_a, u_c>, the connection 1-forms
    conn = [[lower(e) for e in row] for row in nabla]

    # metric connection: the frame condition with a constant pairing
    for m, rows in enumerate(conn):
        for a, c, v in skew_defects(rows, zero):
            raise ConstructionError(
                "connection-not-metric",
                f"direction {m + 1}, frames ({a + 1},{c + 1}): {format_poly(v)}",
            )

    # corrector totally skew with respect to the pairing
    for a, c in product(range(r), repeat=2):
        if not (beta[a][c] + beta[c][a]).is_zero():
            raise ConstructionError("corrector-not-skew", f"frames ({a + 1},{c + 1})")
    for a, row in enumerate(beta):
        for c, e, v in skew_defects([lower(s) for s in row], zero):
            raise ConstructionError(
                "corrector-pairing-not-alternating",
                f"frames ({a + 1},{c + 1},{e + 1}): {format_poly(v)}",
            )

    # moved[a][c] = nabla along rho(u_a) of the constant frame u_c
    moved = [
        [sum((nabla[m][c].scale(xm) for m, xm in x.terms.items()), b.zero_section())
         for c in range(r)]
        for x in rho_frames
    ]

    # anchor condition on frames; both sides are skew in (a, c)
    for a, c in combinations(range(r), 2):
        if anchor_apply(beta[a][c]) != vf_bracket(rho_frames[a], rho_frames[c]) - anchor_apply(
            moved[a][c] - moved[c][a]
        ):
            raise ConstructionError("corrector-anchor-defect", f"frames ({a + 1},{c + 1})")

    # the frame table, with the 1-form X -> <nabla_X u_a, u_c> pushed through rho*
    table = [[moved[a][c] - moved[c][a] + beta[a][c] for c in range(r)] for a in range(r)]
    forms: Dict[Tuple[int, int], Dict[Tuple[int], Poly]] = {}
    for m, rows in enumerate(conn):
        for a, row in enumerate(rows):
            for c, v in row.items():
                forms.setdefault((a, c), {})[(m,)] = v
    for (a, c), xi in forms.items():
        table[a][c] = table[a][c] + rho_star(b, KForm(b.chart, 1, xi))
    return PreCourantAlgebroid(b, table)


def _covariant(nabla: Sequence[Sequence[Section]], m: int, e: Section) -> Section:
    """nabla_m e for the connection with frame derivatives nabla[m][a]: the
    componentwise derivative plus the coefficients times those."""
    terms = {a: c.diff(m) for a, c in e.terms.items()}
    for a, c in e.terms.items():
        for t, q in nabla[m][a].terms.items():
            add_into(terms, t, q * c)
    return Section.from_terms(e.bundle, terms)


# --- quadratic Lie algebras and doubles -----------------------------------


class QuadraticLieAlgebra:
    """Structure constants, with an invariant pairing on a rational basis.

    structure[i][j] lists the nonzero coefficients of [b_i, b_j] as (k, c)
    pairs in increasing k, each integral c held as an int, and
    `pairing_rows` lists those of the pairing rows.  A pairing must be a
    nondegenerate symmetric form: any other raises ConstructionError (see
    `linalg.symmetric_inverse`).  A plain Lie algebra (the admissible input
    of the double, which needs no pairing of its own) carries pairing None.
    """

    def __init__(
        self, dim: int, structure: Sequence[Sequence[BasisBracket]], pairing: Optional[Matrix]
    ):
        if pairing is not None:
            linalg.symmetric_inverse(pairing, "pairing")
        self.dim = dim
        self.structure = structure
        self.pairing = pairing
        self.pairing_rows = None if pairing is None else linalg.nonzero_rows(pairing)

    @cached_property
    def _report(self) -> VerifyReport:
        return _quadratic_lie_report(self)


def quadratic_lie_algebra(
    dim: int,
    brackets: Dict[Tuple[int, int], Sequence],
    pairing: Optional[Sequence[Sequence]],
) -> QuadraticLieAlgebra:
    """Build from a sparse list of basis brackets [b_i, b_j] with i < j,
    each a coefficient vector; [b_j, b_i] is its negative.  Pass pairing
    None for a plain Lie algebra (a double input)."""
    pairs: Dict[Tuple[int, int], BasisBracket] = {}
    for (i, j), vec in brackets.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ConstructionError("bracket-index-range", f"({i + 1},{j + 1})")
        pairs[i, j] = linalg.nonzero_rows([vec])[0]
        pairs[j, i] = tuple((k, -c) for k, c in pairs[i, j])
    structure = tuple(tuple(pairs.get((i, j), ()) for j in range(dim)) for i in range(dim))
    return QuadraticLieAlgebra(
        dim, structure, None if pairing is None else linalg.to_matrix(pairing)
    )


def validate_lie(g: QuadraticLieAlgebra) -> VerifyReport:
    """Antisymmetry and the Jacobi identity only (no pairing demands)."""
    full = validate_quadratic_lie(g)
    report = VerifyReport("lie algebra")
    for c in full.checks:
        if c.name in ("antisymmetric", "jacobi"):
            report.checks.append(c)
    return report


def validate_quadratic_lie(g: QuadraticLieAlgebra) -> VerifyReport:
    """Antisymmetry, the Jacobi identity on all basis triples, and a pairing
    that is invariant, all brute force; the construction has checked that a
    pairing is symmetric and nondegenerate.  Every call gets its own copy."""
    return g._report.copy()


def _quadratic_lie_report(g: QuadraticLieAlgebra) -> VerifyReport:
    report = VerifyReport("quadratic lie algebra")
    m = g.dim
    s = g.structure  # s[i][j]: the (l, c) pairs of [b_i, b_j]

    report.first(
        "antisymmetric",
        (f"basis ({i + 1},{j + 1})" for i, j in product(range(m), repeat=2)
         if dict(s[i][j]) != {k: -c for k, c in s[j][i]}),
    )

    def jacobi_defect(i: int, j: int, k: int) -> AlgebraVector:
        # [b_i, [b_j, b_k]] - [[b_i, b_j], b_k] - [b_j, [b_i, b_k]]
        out: AlgebraVector = {}
        for l, c in s[j][k]:
            for t, d in s[i][l]:
                out[t] = out.get(t, 0) + c * d
        for l, c in s[i][j]:
            for t, d in s[l][k]:
                out[t] = out.get(t, 0) - c * d
        for l, c in s[i][k]:
            for t, d in s[j][l]:
                out[t] = out.get(t, 0) - c * d
        return out

    report.first(
        "jacobi",
        (f"basis triple ({i + 1},{j + 1},{k + 1})" for i, j, k in product(range(m), repeat=3)
         if any(jacobi_defect(i, j, k).values())),
    )

    if g.pairing is None:
        report.add("pairing-present", False, "no pairing supplied")
        return report
    # <[b_i, b_j], b_k> + <b_j, [b_i, b_k]> = 0
    pair = [dict(row) for row in g.pairing_rows]
    report.first(
        "pairing-invariant",
        (f"basis triple ({i + 1},{j + 1},{k + 1})" for i, j, k in product(range(m), repeat=3)
         if sum(c * pair[l].get(k, 0) for l, c in s[i][j])
         + sum(pair[j].get(l, 0) * c for l, c in s[i][k])),
    )
    return report


def double(g: QuadraticLieAlgebra) -> QuadraticLieAlgebra:
    """The hyperbolic double on g + g*: semidirect bracket through the
    coadjoint action, pairing the two summands dually.  The input needs no
    pairing of its own."""
    fail = validate_lie(g).first_failure()
    if fail is not None:
        raise ConstructionError("invalid-lie-algebra", fail)
    m = g.dim
    n2 = 2 * m
    brackets: Dict[Tuple[int, int], List[linalg.Scalar]] = {}
    for i, row in enumerate(g.structure):
        for j, pairs in enumerate(row):
            for k, c in pairs:
                if i < j:
                    brackets.setdefault((i, j), [0] * n2)[k] = c
                # the coadjoint action: [b_i, b*_k] = - sum_j c_ij^k b*_j
                brackets.setdefault((i, m + k), [0] * n2)[m + j] -= c
    pair = [[int(j == (i + m) % n2) for j in range(n2)] for i in range(n2)]
    return quadratic_lie_algebra(n2, brackets, pair)


# --- twisted actions -------------------------------------------------------


class TwistedAction:
    """A quadratic Lie algebra acting on a chart up to a curvature defect.

    `bundle` carries the algebra pairing as metric and the action as anchor.
    bracket_table holds the algebra bracket and k_table the defect on basis
    pairs, both as sections of `bundle`.  `defect_operator` is the action
    Lie bracket of their sum, compiled once from `bracket_families`.
    """

    def __init__(
        self,
        algebra: QuadraticLieAlgebra,
        bracket_table: List[List[Section]],
        k_table: List[List[Section]],
        sample_points: List[Tuple[Fraction, ...]],
        bundle: CourantBundle,
    ):
        self.algebra = algebra
        self.bracket_table = bracket_table
        self.k_table = k_table
        self.sample_points = sample_points
        self.bundle = bundle

    @cached_property
    def _report(self) -> VerifyReport:
        return _twisted_action_report(self)

    @cached_property
    def defect_operator(self) -> BilinearOperator:
        """L_{rho(e1)} e2 - L_{rho(e2)} e1 + [e1, e2]_g + k(e1, e2), acting by
        derivatives of components: all but the pairing `bracket_families`."""
        b = self.bundle
        table = [[s + k for s, k in zip(*rows)] for rows in zip(self.bracket_table, self.k_table)]
        return BilinearOperator(b.chart, chain(*bracket_families(b, table)[:-1]))


def make_twisted_action(
    algebra: QuadraticLieAlgebra,
    chart: Chart,
    rho_matrix: Sequence[Sequence[Poly]],
    k_entries: Dict[Tuple[int, int], Sequence[Poly]],
    sample_points: Sequence[Sequence],
) -> TwistedAction:
    # the trivial bundle with the algebra pairing as metric and the action as anchor
    if algebra.pairing is None:
        raise ConstructionError("missing-pairing", "a twisted action needs a quadratic Lie algebra")
    bundle = CourantBundle(chart, algebra.dim, algebra.pairing, rho_matrix)
    m = algebra.dim
    brackets = [
        [Section.from_terms(bundle, {k: Poly.const(chart, c) for k, c in pairs}) for pairs in row]
        for row in algebra.structure
    ]
    zero = bundle.zero_section()
    table = [[zero for _ in range(m)] for _ in range(m)]
    for (i, j), coeffs in k_entries.items():
        s = bundle.section(coeffs)
        table[i][j] = s
        table[j][i] = -s
    points = [tuple(Fraction(x) for x in pt) for pt in sample_points]
    return TwistedAction(algebra, brackets, table, points, bundle)


def _bilinear(op: BilinearOperator, e1: Section, e2: Section) -> Section:
    """The section op(e1, e2) of a compiled frame-table operator."""
    return Section.from_terms(e1.bundle, op.apply(e1, e2))


def validate_twisted_action(ta: TwistedAction) -> VerifyReport:
    """Antisymmetry of the defect, its vanishing on the pointwise kernel,
    the anchor-defect equation on basis pairs and seeded function multiples,
    and pointwise coisotropy of the kernel.  Every call gets its own copy."""
    return ta._report.copy()


def _twisted_action_report(ta: TwistedAction) -> VerifyReport:
    report = VerifyReport("twisted action")
    report.first("quadratic-algebra", [validate_quadratic_lie(ta.algebra).first_failure()])
    bundle = ta.bundle
    m = ta.algebra.dim

    report.first(
        "defect-antisymmetric",
        (f"basis ({i + 1},{j + 1})" for i, j in product(range(m), repeat=2)
         if not (ta.k_table[i][j] + ta.k_table[j][i]).is_zero()),
    )

    # k(e, .) = 0 for pointwise kernel vectors at the sample points
    def kernel_defects() -> Iterator[str]:
        for pt in ta.sample_points:
            kernel = kernel_at(bundle, pt)
            if not kernel:
                continue
            # the defect table at pt, each integral value held as an int
            k_at = [
                [{k: linalg.rational(c.eval(pt)) for k, c in s.terms.items()} for s in row]
                for row in ta.k_table
            ]
            for v, j in product(kernel, range(m)):
                val = [0] * m
                for a, va in enumerate(v):
                    for k, c in k_at[a][j].items():
                        val[k] += va * c
                if any(val):
                    yield f"point {tuple(map(str, pt))}: k(kernel vector, basis {j + 1}) != 0"

    report.first("defect-kills-kernel", kernel_defects())

    # anchor-defect equation on basis pairs and on seeded multiples
    rng = random.Random(0)
    frames = bundle.frames()
    tests = [(frames[i], frames[j]) for i in range(m) for j in range(m)]
    for _ in range(8):
        i, j = rng.randrange(m), rng.randrange(m)
        f = random_poly(rng, bundle.chart, 2)
        tests.append((frames[i].scale(f), frames[j]))
        g_ = random_poly(rng, bundle.chart, 2)
        tests.append((frames[i], frames[j].scale(g_)))
    report.first(
        "anchor-defect-equation",
        (format_sections(e1, e2) for e1, e2 in tests
         if anchor_apply(_bilinear(ta.defect_operator, e1, e2))
         != vf_bracket(anchor_apply(e1), anchor_apply(e2))),
    )

    report.first(
        "kernel-coisotropic", [kernel_coisotropy_check(bundle, ta.sample_points).first_failure()]
    )
    return report


def from_twisted_action(ta: TwistedAction) -> PreCourantAlgebroid:
    """The trivial-bundle structure with the twisted-action bracket.

    On constant basis frames the Lie-derivative and flat-connection terms
    drop, leaving the algebra bracket, the defect, and its two metric
    adjustments.
    """
    fail = validate_twisted_action(ta).first_failure()
    if fail is not None:
        raise ConstructionError("invalid-twisted-action", fail)
    bundle = ta.bundle
    fail = validate_bundle(bundle).first_failure()
    if fail is not None:
        raise ConstructionError("invalid-bundle", fail)
    m = ta.algebra.dim
    zero = Poly.zero(bundle.chart)
    # k_flat[a][e] holds the nonzero <u_c, k(u_a, u_e)> by c
    k_flat = [[lower(s) for s in row] for row in ta.k_table]
    # adjust[a][c] is the section <u_c, k(u_a, .)>: covector e -> <u_c, k(u_a, u_e)>
    adjust = [
        [bundle.raise_covector([k_flat[a][e].get(c, zero) for e in range(m)]) for c in range(m)]
        for a in range(m)
    ]
    table = [
        [
            ta.bracket_table[a][c] + ta.k_table[a][c] - adjust[a][c] + adjust[c][a]
            for c in range(m)
        ]
        for a in range(m)
    ]
    return PreCourantAlgebroid(bundle, table)


# --- dissections -----------------------------------------------------------


class DissectionData:
    """Transitive structure data on tangent + auxiliary + cotangent blocks.

    gamma[m] is the auxiliary connection matrix along the m-th coordinate
    (pairing-skew); curvature[(i, j)] for i < j lists auxiliary components
    of the 2-form R; psi is a 3-form on the base; fiber_table[(a, b)] for
    a < b lists auxiliary components of the fiber bracket.

    Built once from these, as sections of the standard bundle `bundle`:
    the auxiliary frames `aux_frames`; the connection extended by zero to
    every frame, as the frame derivatives nabla[m][t] = nabla_m u_t that
    `from_connection_beta` takes, in `nabla`; R(x_i, x_j) in
    `curvature_table[i][j]`; and the fiber bracket on frame pairs in
    `bracket_table`, its table family of `bracket_families` compiled in
    `fiber_operator`.  The bundle refuses an auxiliary pairing that is not
    a nondegenerate symmetric form.
    """

    __slots__ = (
        "chart", "aux_rank", "aux_pairing", "gamma", "curvature", "psi", "fiber_table",
        "bundle", "aux_frames", "nabla", "curvature_table", "bracket_table",
        "fiber_operator",
    )

    def __init__(
        self,
        chart: Chart,
        aux_rank: int,
        aux_pairing: Matrix,
        gamma: List[List[List[Poly]]],
        curvature: Dict[Tuple[int, int], List[Poly]],
        psi: KForm,
        fiber_table: Dict[Tuple[int, int], List[Poly]],
    ):
        self.chart = chart
        self.aux_rank = aux_rank
        self.aux_pairing = aux_pairing
        self.gamma = gamma
        self.curvature = curvature
        self.psi = psi
        self.fiber_table = fiber_table
        self.bundle = b = standard_bundle(chart, aux_pairing)
        n, g = chart.dim, aux_rank
        self.aux_frames = tuple(b.frame(n + a) for a in range(g))
        zero = b.zero_section()
        # nabla_m u_{n+a} = sum_c gamma[m][c][a] u_{n+c}; every other frame is parallel
        self.nabla = tuple(
            (zero,) * n
            + tuple(Section.from_terms(b, {n + c: row[a] for c, row in enumerate(g_m)})
                    for a in range(g))
            + (zero,) * n
            for g_m in gamma
        )
        self.curvature_table = [[zero] * n for _ in range(n)]
        self.bracket_table = zero_table(b)
        for table, entries, offset in (
            (self.curvature_table, curvature, 0), (self.bracket_table, fiber_table, n)
        ):
            for (i, j), comps in entries.items():
                s = Section.from_terms(b, {n + a: p for a, p in enumerate(comps)})
                table[offset + i][offset + j] = s
                table[offset + j][offset + i] = -s
        self.fiber_operator = BilinearOperator(chart, bracket_families(b, self.bracket_table)[0])


def from_dissection(dd: DissectionData) -> PreCourantAlgebroid:
    """The dissection as a connection-plus-corrector structure.

    The connection is the auxiliary one extended by zero; the corrector is
    R + psi on tangent pairs, -<u_a, R(x_i, .)> on tangent-auxiliary pairs
    and the fiber bracket on auxiliary pairs.  What only a dissection has is
    checked here; `from_connection_beta` checks the rest.
    """
    if dd.psi.degree != 3:
        raise ConstructionError("psi-not-degree-3")
    b, n, g = dd.bundle, dd.chart.dim, dd.aux_rank
    aux, bracket_table = dd.aux_frames, dd.bracket_table
    # fiber bracket: invariance of the pairing on basis triples
    for a, c, e in product(range(g), repeat=3):
        total = pairing(bracket_table[n + a][n + c], aux[e]) + pairing(
            aux[c], bracket_table[n + a][n + e]
        )
        if not total.is_zero():
            raise ConstructionError(
                "fiber-pairing-not-invariant", f"basis ({a + 1},{c + 1},{e + 1})"
            )
    beta = [list(row) for row in bracket_table]
    for i, r_i in enumerate(dd.curvature_table):
        for j, r_ij in enumerate(r_i):
            beta[i][j] = r_ij + _cotangent(b, [dd.psi.value_at((i, j, k)) for k in range(n)])
        for a, u in enumerate(aux):
            beta[i][n + a] = _cotangent(b, [-pairing(u, r_ik) for r_ik in r_i])
            beta[n + a][i] = -beta[i][n + a]
    return from_connection_beta(b, dd.nabla, beta)


def _cotangent(b: CourantBundle, values: Sequence[Poly]) -> Section:
    """The section sum_k values[k] dx_k of a standard bundle, which keeps
    dx_k at frame rank - dim + k."""
    start = b.rank - b.chart.dim
    return Section.from_terms(b, {start + k: v for k, v in enumerate(values)})


def _derivation_defect(dd: DissectionData, m: int, u: Section, v: Section) -> Section:
    """nabla_m [u,v] - [nabla_m u, v] - [u, nabla_m v] on the auxiliary block."""
    t, nabla = dd.fiber_operator, dd.nabla
    return (
        _covariant(nabla, m, _bilinear(t, u, v))
        - _bilinear(t, _covariant(nabla, m, u), v)
        - _bilinear(t, u, _covariant(nabla, m, v))
    )


def _fiber_jacobi_defect(dd: DissectionData, u: Section, v: Section, w: Section) -> Section:
    """[[u,v],w] + [[w,u],v] + [[v,w],u] on the auxiliary block."""
    t = dd.fiber_operator
    return (
        _bilinear(t, _bilinear(t, u, v), w)
        + _bilinear(t, _bilinear(t, w, u), v)
        + _bilinear(t, _bilinear(t, v, w), u)
    )


def _bianchi_term(dd: DissectionData, i: int, j: int, k: int) -> Section:
    """The cyclic sum of nabla_{x_i} R(x_j, x_k); coordinate brackets vanish."""
    r = dd.curvature_table
    return (
        _covariant(dd.nabla, i, r[j][k])
        + _covariant(dd.nabla, j, r[k][i])
        + _covariant(dd.nabla, k, r[i][j])
    )


def _connection_curvature_defect(dd: DissectionData, i: int, j: int, u: Section) -> Section:
    """nabla_i nabla_j - nabla_j nabla_i on an auxiliary section (coordinate
    fields commute) minus the fiber adjoint of the curvature R(x_i, x_j)."""
    nabla = dd.nabla
    return (
        _covariant(nabla, i, _covariant(nabla, j, u))
        - _covariant(nabla, j, _covariant(nabla, i, u))
        - _bilinear(dd.fiber_operator, dd.curvature_table[i][j], u)
    )


def curvature_square_form(dd: DissectionData) -> KForm:
    """(R wedge R) with the auxiliary pairing: for increasing (i,j,k,l),
    2 [ (R_ij, R_kl) - (R_ik, R_jl) + (R_il, R_jk) ].  The brute-force
    permutation sum lives in the tests as the independent oracle."""
    r = dd.curvature_table
    values: Dict[Tuple[int, int, int, int], Poly] = {}
    for idx in combinations(range(dd.chart.dim), 4):
        i, j, k, l = idx
        v = pairing(r[i][j], r[k][l]) - pairing(r[i][k], r[j][l]) + pairing(r[i][l], r[j][k])
        values[idx] = v * 2
    return KForm(dd.chart, 4, values)


def _pontryagin_form(dd: DissectionData) -> KForm:
    """d psi - half the curvature square: the cotangent block of the
    Jacobiator on tangent triples."""
    return ext_d(dd.psi) - curvature_square_form(dd).scale(Fraction(1, 2))


def dissection_jacobiator_check(
    p: PreCourantAlgebroid, dd: DissectionData
) -> VerifyReport:
    """The computed Jacobiator against the closed-form block components on
    every increasing frame triple."""
    report = VerifyReport("dissection jacobiator components")
    b = p.bundle
    n, g = dd.chart.dim, dd.aux_rank
    form = _pontryagin_form(dd)
    # the closed forms recur across triples: each is computed once per check
    bianchi = cache(partial(_bianchi_term, dd))
    curvature_defect = cache(partial(_connection_curvature_defect, dd))

    def witness(idx: Tuple[int, int, int], actual: Section) -> Optional[str]:
        frames = [b.frame(t) for t in idx]
        blocks = tuple(
            "x" if t < n else ("r" if t < n + g else "xi") for t in idx
        )
        expected = b.zero_section()
        if "xi" in blocks:
            pass  # cotangent slots kill the Jacobiator
        elif blocks == ("x", "x", "x"):
            i, j, k = idx
            cot = [form.value_at((i, j, k, l)) for l in range(n)]
            expected = bianchi(i, j, k) + _cotangent(b, cot)
        elif blocks == ("x", "x", "r"):
            i, j, u = idx[0], idx[1], frames[2]
            cot = [-pairing(bianchi(i, j, l), u) for l in range(n)]
            expected = curvature_defect(i, j, u) + _cotangent(b, cot)
        elif blocks == ("x", "r", "r"):
            i, u, v = idx[0], frames[1], frames[2]
            cot = [pairing(curvature_defect(i, l, u), v) for l in range(n)]
            expected = _derivation_defect(dd, i, u, v) + _cotangent(b, cot)
        elif blocks == ("r", "r", "r"):
            u, v, w = frames
            cot = [-pairing(_derivation_defect(dd, l, u, v), w) for l in range(n)]
            expected = _fiber_jacobi_defect(dd, u, v, w) + _cotangent(b, cot)
        if actual == expected:
            return None
        return (
            f"frames {tuple(i + 1 for i in idx)} [{'/'.join(blocks)}]: computed "
            f"({format_section(actual)}) vs closed form ({format_section(expected)})"
        )

    report.first("components-match", starmap(witness, p.jframes.items()))
    return report


def dissection_flatness_conditions(dd: DissectionData) -> VerifyReport:
    """The four equalities under which the Jacobiator lands in the kernel's
    orthogonal: fiber Jacobi, the connection acting as a derivation of the
    fiber bracket, the curvature Bianchi sum, and the connection curvature
    matching the fiber adjoint of R.  A failing check names its first
    tuple, 1-based, and the defect section; a check with no tuple to scan
    says so in a note."""
    report = VerifyReport("dissection flatness conditions")
    n, g = dd.chart.dim, dd.aux_rank
    u = dd.aux_frames
    # name, the tuples scanned, what a tuple is, how one prints, its defect
    for name, cases, what, label, defect in (
        ("fiber-jacobi", product(range(g), repeat=3), "auxiliary basis triple",
         "aux basis triple ({},{},{})",
         lambda a, c, e: _fiber_jacobi_defect(dd, u[a], u[c], u[e])),
        ("connection-derivation", product(range(n), range(g), range(g)),
         "direction and auxiliary basis pair", "direction {}, aux basis pair ({},{})",
         lambda m, a, c: _derivation_defect(dd, m, u[a], u[c])),
        ("curvature-bianchi", combinations(range(n), 3), "coordinate triple",
         "coordinate triple ({},{},{})", partial(_bianchi_term, dd)),
        ("connection-curvature-matches", product(range(n), range(n), range(g)),
         "coordinate pair and auxiliary basis index", "coordinate pair ({},{}), aux basis {}",
         lambda i, j, a: _connection_curvature_defect(dd, i, j, u[a])),
    ):
        cases = list(cases)
        if not cases:
            report.notes.append(
                f"{name} scanned no {what} (chart dimension {n}, auxiliary rank {g})"
            )
        report.first(
            name,
            (f"{label.format(*(t + 1 for t in idx))}: {format_section(v)}"
             for idx in cases if not (v := defect(*idx)).is_zero()),
        )
    return report


def dissection_pontryagin(
    p: PreCourantAlgebroid, dd: DissectionData
) -> Tuple[KForm, VerifyReport]:
    """Half the curvature square minus the differential of the 3-form.

    When the four flatness conditions hold, the flat of the Jacobiator is
    exactly the pullback of the negative of this form; the sign of the
    returned representative follows the curvature-square convention, and
    the verification below pins the true relation J-flat = rho*(d psi -
    half curvature-square).
    """
    report = VerifyReport("dissection pontryagin form")
    form = _pontryagin_form(dd)
    h_form = -form
    flat = dissection_flatness_conditions(dd)
    report.merge(flat, prefix="flatness/")
    if flat.ok:
        jflat = jacobiator_flat(p)
        target = pullback_form(p.bundle, form)
        report.first(
            "jflat-matches-sign-corrected-form",
            (
                f"frames {tuple(t + 1 for t in idx)}: J-flat = "
                f"{format_poly(jflat.value_at(idx))} vs {format_poly(target.value_at(idx))}"
                for idx in sorted((jflat - target).terms)
            ),
        )
        closed = ext_d(h_form).is_zero()
        report.add("d-h-zero", closed)
    else:
        report.notes.append(
            "flatness conditions fail; the form is reported without the "
            "Jacobiator comparison"
        )
    return h_form, report
