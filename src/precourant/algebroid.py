"""Pre-Courant algebroids: frame bracket tables and their Leibniz extension.

The structure is stored as the bracket of every frame pair.  Brackets of
arbitrary sections are produced by the two extension rules

    e1 o (f e2) = f (e1 o e2) + (rho(e1) f) e2
    (f e1) o e2 = f (e1 o e2) - (rho(e2) f) e1 + <e1, e2> D f

which determine the operation uniquely; the two possible expansion orders
agree, and a property test pins that down.  Summed over both frames they
give the closed form that `bracket_operator` compiles and `bracket`
evaluates, for e1 = sum f_i u_i and e2 = sum g_j u_j:

    e1 o e2 = sum_{i,j} f_i g_j (u_i o u_j) - sum_i (rho(e2) f_i) u_i
            + sum_i <u_i, e2> D f_i + sum_j (rho(e1) g_j) u_j
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .bundle import (
    CourantBundle,
    Section,
    anchor_apply,
    dee,
    format_section,
    format_sections,
    lower,
    pairing,
    validate_bundle,
)
from .errors import RankMismatchError
from .exterior import vf_apply, vf_bracket
from .poly import BilinearOperator, Poly, format_poly
from .reports import VerifyReport
from .sampling import random_poly, random_section


class PreCourantAlgebroid:
    """A Courant vector bundle with a frame bracket table.

    `bracket_operator` is the bracket compiled once, as a bilinear operator
    of order at most one in each slot: its entries come from the table, the
    anchor, the pairing and the columns D x_m, with every coefficient held
    as numerators over one denominator (see `bracket_families`).  So is
    `t_operator`, the kernel K of the cyclic pairing scalar T (`t_families`).
    `bracket` memoises its results in `bracket_memo` by the value of its
    arguments, `jacobiator` J on ordered frame triples in `jmemo`, the
    cached `jframes` J on the increasing ones and `cochain.jacobiator_flat`
    the flat of J in `jflat`; these and the cached properties live exactly
    as long as the algebroid.
    """

    def __init__(self, bundle: CourantBundle, table: Sequence[Sequence[Section]]):
        r = bundle.rank
        rows = [tuple(row) for row in table]
        if len(rows) != r or any(len(row) != r for row in rows):
            raise RankMismatchError("bracket table must be rank x rank")
        for row in rows:
            for s in row:
                if s.bundle != bundle:
                    raise RankMismatchError("table entry on a different bundle")
        self.bundle = bundle
        self.table = tuple(rows)
        self.bracket_memo = {}
        self.jmemo: Dict[Tuple[int, int, int], Section] = {}
        self.jflat = None

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @cached_property
    def bracket_operator(self) -> BilinearOperator:
        """The closed form of the module docstring as one bilinear operator
        on frame coefficients, entries from `bracket_families`."""
        return BilinearOperator(self.chart, chain(*bracket_families(self.bundle, self.table)))

    @cached_property
    def frame_report(self) -> VerifyReport:
        """The frame-level verdicts of `verify_axioms`."""
        return _frame_axiom_report(self)

    @cached_property
    def t_operator(self) -> BilinearOperator:
        """The kernel K of `twoterm.t_scalar`, entries from `t_families`."""
        return BilinearOperator(self.chart, chain(*t_families(self)))

    @cached_property
    def jframes(self) -> Dict[Tuple[int, int, int], Section]:
        """J on every increasing frame triple, keyed in `combinations` order
        and read through `jacobiator`, which no caller changes; J is
        C-infinity-multilinear, so these values determine it."""
        u = self.bundle.frames()
        return {t: jacobiator(self, *(u[i] for i in t)) for t in combinations(range(self.rank), 3)}

    @property
    def chart(self):
        return self.bundle.chart

    def with_table(self, table) -> "PreCourantAlgebroid":
        return PreCourantAlgebroid(self.bundle, table)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PreCourantAlgebroid)
            and self.bundle == other.bundle
            and self.table == other.table
        )


def bracket_families(b: CourantBundle, table: Sequence[Sequence[Section]]) -> Tuple[Iterator, ...]:
    """The entries (i, j, a, b, k, c) of the closed form for a frame table of
    sections of b, one lazy iterator per term: the table f_i g_j (u_i o u_j),
    then -(rho(e2) f_i) u_i from the anchor a_jm, (rho(e1) g_j) u_j from a_im
    and last <u_i, e2> D f_i from g_ij and the columns D x_m of the bundle.
    So all but the last, the pairing family, give the table's action bracket."""
    r = b.rank
    return (
        ((i, j, None, None, k, c) for i, row in enumerate(table)
         for j, s in enumerate(row) for k, c in s.terms.items()),
        ((i, j, m, None, i, -a) for i in range(r) for j in range(r)
         for m, a in b.anchor_rows[j]),
        ((i, j, None, m, j, a) for i in range(r) for j in range(r)
         for m, a in b.anchor_rows[i]),
        ((i, j, m, None, k, c * gij) for i in range(r) for j, gij in b.metric_rows[i]
         for m, column in enumerate(b.dee_columns) for k, c in column.terms.items()),
    )


def t_families(p: PreCourantAlgebroid) -> Tuple[List[Tuple], ...]:
    """The entries (i, j, a, b, k, c) of the kernel K of `twoterm.t_scalar`:
    the lowered table c_ijk = <u_i o u_j, u_k>, whose cyclic sum is the frame
    tau_ijk, then (3/2) g_ij a_km on d_m f_i g_j and its negative on f_i d_m g_j."""
    b, h = p.bundle, Fraction(3, 2)
    return (
        [(i, j, None, None, k, c) for i, row in enumerate(p.table)
         for j, s in enumerate(row) for k, c in lower(s).items()],
        [e for i, row in enumerate(b.metric_rows) for j, gij in row
         for k, arow in enumerate(b.anchor_rows) for m, a in arow
         for e in ((i, j, m, None, k, a * (gij * h)), (i, j, None, m, k, a * (gij * -h)))],
    )


def zero_table(bundle: CourantBundle) -> List[List[Section]]:
    zero = bundle.zero_section()
    return [[zero for _ in range(bundle.rank)] for _ in range(bundle.rank)]


def bracket(p: PreCourantAlgebroid, e1: Section, e2: Section) -> Section:
    """The unique Leibniz extension of the frame table, memoised in p."""
    b = p.bundle
    if (e1.space is not b and e1.space != b) or (e2.space is not b and e2.space != b):
        raise RankMismatchError("sections not on this algebroid's bundle")
    key = (e1, e2)
    out = p.bracket_memo.get(key)
    if out is not None:
        return out
    out = Section.from_terms(b, p.bracket_operator.apply(e1, e2))
    p.bracket_memo[key] = out
    return out


def jacobiator(p: PreCourantAlgebroid, e1: Section, e2: Section, e3: Section) -> Section:
    """Leibniz-identity defect e1o(e2oe3) - (e1oe2)oe3 - e2o(e1oe3); on three
    frames it is evaluated once per ordered triple, with the bundle's own
    frame objects, and kept in `p.jmemo`, and no value is read from another
    order up to sign.  The bracket of two constant frames is their table
    entry, so on frames (i, j, k) the inner brackets are table reads and J
    takes three brackets: u_i o t[j][k] - t[i][j] o u_k - u_j o t[i][k]."""
    index = p.bundle.frame_index
    key = (index.get(e1), index.get(e2), index.get(e3))
    out = p.jmemo.get(key)
    if out is None:
        if None in key:
            return (
                bracket(p, e1, bracket(p, e2, e3))
                - bracket(p, bracket(p, e1, e2), e3)
                - bracket(p, e2, bracket(p, e1, e3))
            )
        # a section equal to a frame would reach the bracket memo by value
        (i, j, k), t = key, p.table
        e1, e2, e3 = map(p.bundle.frame, key)
        out = bracket(p, e1, t[j][k]) - bracket(p, t[i][j], e3) - bracket(p, e2, t[i][k])
        p.jmemo[key] = out
    return out


def skew_bracket(p: PreCourantAlgebroid, e1: Section, e2: Section) -> Section:
    """Skew-symmetrization e1 o e2 - (1/2) D <e1, e2>."""
    out = bracket(p, e1, e2)
    pr = pairing(e1, e2)
    if not pr.is_zero():
        out = out - dee(p.bundle, pr).scale(Fraction(1, 2))
    return out


def _anchor_defect(p: PreCourantAlgebroid, e1: Section, e2: Section) -> bool:
    """Whether axiom (i), rho(e1 o e2) = [rho(e1), rho(e2)], fails at (e1, e2)."""
    return anchor_apply(bracket(p, e1, e2)) != vf_bracket(anchor_apply(e1), anchor_apply(e2))


def _symmetrization_defect(
    p: PreCourantAlgebroid, e1: Section, e2: Section
) -> Optional[Tuple[Section, Section]]:
    """(e1 o e2 + e2 o e1, D<e1, e2>) when the two sides of axiom (ii)
    differ at (e1, e2), else None."""
    lhs = bracket(p, e1, e2) + bracket(p, e2, e1)
    rhs = dee(p.bundle, pairing(e1, e2))
    return None if lhs == rhs else (lhs, rhs)


def _axiom_iii_witness(p: PreCourantAlgebroid, name: str, e1, e2, e3) -> Optional[str]:
    """The witness of rho(e1)<e2,e3> != <e1oe2,e3> + <e2,e1oe3>, or None."""
    lhs = vf_apply(anchor_apply(e1), pairing(e2, e3))
    rhs = pairing(bracket(p, e1, e2), e3) + pairing(e2, bracket(p, e1, e3))
    if lhs != rhs:
        return (
            f"{name}: rho(e1)<e2,e3> = {format_poly(lhs)} but RHS = "
            f"{format_poly(rhs)} at {format_sections(e1, e2, e3)}"
        )
    return None


def skew_defects(rows: Sequence[Dict[int, Poly]], zero) -> Iterator[Tuple[int, int, Poly]]:
    """(i, j, rows[i][j] + rows[j][i]) wherever that sum is not zero, in
    index order; rows[i] holds the nonzero entries of row i by column."""
    pairs = {(i, j) for i, row in enumerate(rows) for j in row}
    for i, j in sorted(pairs | {(j, i) for i, j in pairs}):
        v = rows[i].get(j, zero) + rows[j].get(i, zero)
        if not v.is_zero():
            yield i, j, v


def frame_axiom_defects(p: PreCourantAlgebroid):
    """Where axioms (i), (ii) and (iii) fail on frame pairs, pairs and
    triples, lazily in `product` order.  Frames and the metric are constant,
    so D<u_i,u_j> and rho(u_i)<u_j,u_k> vanish: each axiom reads the table,
    (iii) its lowered entries <u_i o u_j, u_k>, and a failing tuple gets the
    witness of the general form."""
    b, t = p.bundle, p.table
    rho, pairs = b.rho_frames, list(product(range(p.rank), repeat=2))
    return (
        ((i, j) for i, j in pairs if anchor_apply(t[i][j]) != vf_bracket(rho[i], rho[j])),
        ((i, j) for i, j in pairs if not (t[i][j] + t[j][i]).is_zero()),
        ((i, j, k) for i, row in enumerate(t)
         for j, k, _ in skew_defects([lower(s) for s in row], Poly.zero(b.chart))),
    )


def _frame_axiom_report(p: PreCourantAlgebroid) -> VerifyReport:
    """bundle-valid and the three axioms on every frame tuple."""
    report = VerifyReport("pre-courant axioms")
    if not report.first("bundle-valid", [validate_bundle(p.bundle).first_failure()]):
        return report
    u = p.bundle.frames()
    i_pairs, ii_pairs, iii_triples = frame_axiom_defects(p)
    report.first("axiom-i-frames", (f"frames ({i + 1},{j + 1})" for i, j in i_pairs))
    report.first(
        "axiom-ii-frames",
        (
            f"frames ({i + 1},{j + 1}): t[i][j]+t[j][i] = ({format_section(d[0])})"
            f" but D<u_i,u_j> = ({format_section(d[1])})"
            for i, j in ii_pairs
            if (d := _symmetrization_defect(p, u[i], u[j]))
        ),
    )
    report.first(
        "axiom-iii-frames",
        (
            _axiom_iii_witness(p, f"frames ({i + 1},{j + 1},{k + 1})", u[i], u[j], u[k])
            for i, j, k in iii_triples
        ),
    )
    return report


def verify_axioms(
    p: PreCourantAlgebroid, trials: int = 16, seed: int = 0, max_degree: int = 2
) -> VerifyReport:
    """Check the three defining axioms on all frame tuples and on seeded
    random sections; the report carries the first counterexample."""
    report = p.frame_report.copy()
    if not report.checks[0].ok:  # bundle-valid
        return report

    # the random layer guards the extension rules themselves
    rng = random.Random(seed)
    draws = [
        [random_section(rng, p.bundle, max_degree) for _ in range(3)] for _ in range(trials)
    ]
    report.first(
        "axiom-i-random",
        (f"sections {format_sections(e1, e2)}" for e1, e2, e3 in draws
         if _anchor_defect(p, e1, e2)),
    )
    report.first(
        "axiom-ii-random",
        (f"sections {format_sections(e1, e2)}" for e1, e2, e3 in draws
         if _symmetrization_defect(p, e1, e2)),
    )
    report.first("axiom-iii-random", (_axiom_iii_witness(p, "sections", *es) for es in draws))
    return report


def verify_derived_identities(
    p: PreCourantAlgebroid, trials: int = 16, seed: int = 0, max_degree: int = 2
) -> VerifyReport:
    """Check the bracket calculus that follows from the axioms:
    both extension rules, D-annihilation, and the symmetrization identity."""
    report = VerifyReport("derived bracket identities")
    b = p.bundle
    rng = random.Random(seed)
    functions = [Poly.var(b.chart, m) for m in range(b.chart.dim)]
    functions += [random_poly(rng, b.chart, max_degree) for _ in range(4)]
    draws = []
    for t in range(trials):
        e1 = random_section(rng, b, max_degree)
        e2 = random_section(rng, b, max_degree)
        f = functions[t % len(functions)]
        draws.append((e1, e2, f, dee(b, f)))

    def rho_f(e: Section, f: Poly) -> Poly:
        return vf_apply(anchor_apply(e), f)

    # the bracket differentiates functions in its second slot
    report.first(
        "right-function-rule",
        (f"f = {format_poly(f)}, {format_sections(e1, e2)}" for e1, e2, f, df in draws
         if bracket(p, e1, e2.scale(f))
         != bracket(p, e1, e2).scale(f) + e2.scale(rho_f(e1, f))),
    )
    # first-slot functions pick up a derivative and a pairing term
    report.first(
        "left-function-rule",
        (f"f = {format_poly(f)}, {format_sections(e1, e2)}" for e1, e2, f, df in draws
         if bracket(p, e1.scale(f), e2)
         != bracket(p, e1, e2).scale(f) - e1.scale(rho_f(e2, f)) + df.scale(pairing(e1, e2))),
    )
    # derivative sections annihilate from the left
    report.first(
        "derivative-left-zero",
        (f"f = {format_poly(f)}, e = ({format_section(e1)})" for e1, e2, f, df in draws
         if not bracket(p, df, e1).is_zero()),
    )
    # bracketing into a derivative section chains through the anchor
    report.first(
        "derivative-right-chain",
        (f"f = {format_poly(f)}, e = ({format_section(e1)})" for e1, e2, f, df in draws
         if bracket(p, e1, df) != dee(b, rho_f(e1, f))),
    )
    # the anchor kills every derivative section
    report.first(
        "anchor-kills-derivative",
        (f"f = {format_poly(f)}" for e1, e2, f, df in draws
         if not anchor_apply(df).is_zero()),
    )
    report.first(
        "symmetrization",
        (format_sections(e1, e2) for e1, e2, f, df in draws
         if _symmetrization_defect(p, e1, e2)),
    )
    return report
