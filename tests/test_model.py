"""The evaluators of the paper's maps against `model.py`, their definitions
over sympy's sparse rings, on seeded inputs: one differential test over the
six builtins and seven structures that break axioms, carry denominators,
anchor every frame, fill every table entry or twist the dissection.  sympy
is imported unconditionally: a check that ran nothing must not pass."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

from model import Model
from precourant.algebroid import (PreCourantAlgebroid, bracket, frame_jacobiators, jacobiator,
                                  skew_bracket, zero_table)
from precourant.bundle import CourantBundle, Section, dee, validate_bundle
from precourant.cli import resolve_manifest
from precourant.cochain import (Cochain, KerCochain, cobound_d, cobound_partial, is_in_ckd,
                                jacobiator_flat, partial_section_values, pullback_form)
from precourant.deform import apply_deformation, twist_deformation
from precourant.exterior import evaluate
from precourant.manifest import parse_manifest
from precourant.parsing import parse_form
from precourant.poly import Chart, Poly
from precourant.runner import build_context
from precourant.sampling import random_form, random_kernel_section, random_poly, random_section
from precourant.twoterm import build_leibniz2, build_lie2, skew_jacobiator_direct, t_scalar
from test_witnesses import BROKEN_TABLE_MANIFEST

BUILTINS = ["standard_r3", "twisted_r4", "twisted_action_synthetic", "dissection_rank2",
            "action_abelian", "double_nonabelian"]


def load(name):
    return parse_manifest(resolve_manifest(name).read_text(), name=name)


def _fractional_algebroid():
    """Hand-built data with denominators everywhere: a metric whose inverse
    is not integral, a polynomial anchor with rational coefficients and a
    table with Fraction and polynomial entries.  No axiom holds; the
    bracket is the Leibniz extension all the same."""
    chart = Chart(["x1", "x2"])
    x1, x2 = Poly.var(chart, 0), Poly.var(chart, 1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    zero = Poly.zero(chart)
    anchor = [[x1, Poly.const(chart, half)], [zero, x2 * x2], [x1 * x2 * Fraction(2, 3), zero]]
    b = CourantBundle(chart, 3, [[2, 1, 0], [1, 2, 0], [0, 0, 3]], anchor)
    table = zero_table(b)
    table[0][1] = Section(b, [Poly.const(chart, half), x1 * third, zero])
    table[1][0] = Section(b, [zero, x2 * x1 + Poly.const(chart, Fraction(3, 4)), x2])
    table[2][2] = Section(b, [x1 * x1 * Fraction(5, 7), zero, Poly.const(chart, -2)])
    table[1][2] = b.frame(2).scale(Poly.const(chart, Fraction(-1, 6)))
    return PreCourantAlgebroid(b, table)


def _polynomial_anchor_algebroid():
    """A plane with a symmetric nonsingular metric that is not hyperbolic, a
    polynomial anchor and a table that is neither skew nor anchor-compatible."""
    c = Chart(["x1", "x2"])
    z, o = Poly.zero(c), Poly.const(c, 1)
    x1, x2 = Poly.var(c, 0), Poly.var(c, 1)
    metric = [[0, 0, 1, 0], [0, 0, 2, 1], [1, 2, 0, 0], [0, 1, 0, 3]]
    b = CourantBundle(c, 4, metric, [[o, z], [z, x1], [x2, z], [z, z]])
    table = [list(row) for row in zero_table(b)]
    table[0][1] = b.section([x2, z, x1, o])
    table[1][2] = b.section([z, x1 * x2, z, x2])
    table[3][0] = b.section([o, z, z, x1])
    return PreCourantAlgebroid(b, table)


def _anchored_plane():
    """A plane whose four frames all have a nonzero anchor, with rho g^-1
    rho^T = 0 so that pulled-back forms are members."""
    c = Chart(["x1", "x2"])
    z, o, x1 = Poly.zero(c), Poly.const(c, 1), Poly.var(c, 0)
    metric = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    b = CourantBundle(c, 4, metric, [[o, z], [z, o], [z, x1], [-x1, z]])
    return PreCourantAlgebroid(b, zero_table(b))


def _full_table(p, seed):
    """p with a seeded section added to every table entry, redrawn until
    the sum is nonzero."""
    b, rng = p.bundle, random.Random(seed)

    def moved(e):
        while (out := e + random_section(rng, b, 1)).is_zero():
            pass
        return out

    return p.with_table([[moved(e) for e in row] for row in p.table])


def _twisted(name, h):
    p = build_context(load(name)).algebroid
    return apply_deformation(p, twist_deformation(p.bundle, parse_form(p.chart, h)))


CASES = {
    **{name: lambda name=name: build_context(load(name)).algebroid for name in BUILTINS},
    "broken-table": lambda: build_context(parse_manifest(BROKEN_TABLE_MANIFEST)).algebroid,
    "polynomial-anchor": _polynomial_anchor_algebroid,
    "fractional": _fractional_algebroid,
    # no vanishing anchor row, and a nonzero table entry on every frame pair
    "anchored-plane": _anchored_plane,
    "full-table-twisted_r4": lambda: _full_table(build_context(load("twisted_r4")).algebroid, 31),
    "full-table-anchored-plane": lambda: _full_table(_anchored_plane(), 31),
    # both terms of theta_flat are nonzero: the dissection's twisted by a
    # 3-form that is not closed
    "twisted-dissection": lambda: _twisted("dissection_rank2", "x1*x4*dx(1,2,3) + x2*dx(2,3,4)"),
}


def build(case):
    """The case's structure, built afresh, its model and a section converter."""
    p = CASES[case]()
    m = Model(p)
    return p, m, cache(m.section)


# kept per case for this module's tests: they fill the structures' memos and
# the models' bracket memos, which hold values only
_case = cache(build)


def model_sections(b):
    """Seeded sections of degree 2, 3 and 4 and a frame, zero, constant,
    single-term, derivative, kernel (where rho is isotropic, else seeded),
    sparse, den > 1 and seeded degree-0 section of b."""
    rng = random.Random(12)
    x, y = random_section(rng, b, 2), random_section(rng, b, 2)
    last = b.frame(b.rank - 1)
    v0, v1 = Poly.var(b.chart, 0), Poly.var(b.chart, b.chart.dim - 1)
    return [
        x, y, b.frame(0), last, b.zero_section(),
        b.frame(0).scale(Poly.const(b.chart, 3)) + last,
        b.frame(1).scale(v0 * v1),
        dee(b, v1 * v0 + v0),
        (random_kernel_section if validate_bundle(b).ok else random_section)(rng, b, 2),
        random_section(rng, b, 2, density=0.2),
        x.scale(Fraction(2, 3)) + last.scale(Fraction(-1, 5)),
        random_section(rng, b, 3), random_section(rng, b, 4), random_section(rng, b, 0),
    ]


def _triples(p, outputs=True):
    """Seeded (of degree 2-4), kernel, repeated, zero and den > 1 triples,
    and with `outputs` two that hold brackets, as the coherence checks feed
    them."""
    x, y, f0, last, zero, const, one, df, k, sparse, q, z, w, c = model_sections(p.bundle)
    out = [(x, y, sparse), (k, x, y), (y, k, df), (y, y, sparse), (x, sparse, x), (k, k, k),
           (zero, x, y), (f0, last, x), (q, y, one), (y, q, sparse), (one, one, one), (x, one, one),
           (w, z, x), (c, w, f0)]
    if outputs:
        out += [(bracket(p, x, y), const, x), (x, skew_bracket(p, y, k), y)]
    return out


def _bracket(p, m, s, case):
    sections = model_sections(p.bundle)
    q = p.with_table(p.table)  # an empty bracket memo, whatever ran before
    for e1, e2 in product(sections, repeat=2):
        expected = m.bracket(s(e1), s(e2))
        yield (e1, e2), s(bracket(q, e1, e2)), expected  # computed
        yield (e1, e2), s(bracket(q, e1, e2)), expected  # from the memo
    for e1, e2 in product(sections[:4], sections):
        yield ("skew", e1, e2), s(skew_bracket(p, e1, e2)), m.skew_bracket(s(e1), s(e2))


def _jacobiator(p, m, s, case):
    u = p.bundle.frames()
    for es in _triples(p, outputs=False):
        yield es, s(jacobiator(p, *es)), m.jacobiator(*map(s, es))
    # seeded ordered frame triples, repeated frames included, kept in jmemo
    rng = random.Random(35)
    for t in (tuple(rng.randrange(p.rank) for _ in range(3)) for _ in range(12)):
        yield t, s(jacobiator(p, *(u[i] for i in t))), m.jacobiator(*(m.frames[i] for i in t))


def _t_scalar(p, m, s, case):
    for es in _triples(p):
        expected = m.t_scalar(*map(s, es))
        x1, x2, x3 = es
        for rotated in (es, (x2, x3, x1), (x3, x1, x2)):  # T is invariant under rotation
            yield rotated, m.poly(t_scalar(p, *rotated)), expected


def _two_term(p, m, s, case):
    # l2 and l3 of both flavours, and the Lie l3 from the cyclic double skew
    # bracket too: the identity J - D T = that sum holds where the theorem does
    sections = model_sections(p.bundle)
    for alg in (build_leibniz2(p), build_lie2(p)):
        for e1, e2 in product(sections[:3], sections[8:]):
            yield (alg.flavor, e1, e2), s(alg.l2(e1, e2)), m.l2(alg.flavor, s(e1), s(e2))
        for es in _triples(p):
            expected = m.l3(alg.flavor, *map(s, es))
            yield (alg.flavor, *es), s(alg.l3(*es)), expected
            if alg.flavor == "lie":
                yield ("direct", *es), s(skew_jacobiator_direct(p, *es)), expected


def _dee(p, m, s, case):
    c, rng = p.chart, random.Random(11)
    functions = [Poly.var(c, i) for i in range(c.dim)] + [Poly.zero(c), Poly.const(c, 5)]
    functions += [Poly.var(c, 0) * Fraction(2, 3)]
    functions += [random_poly(rng, c, 4, max_terms=3) for _ in range(4)]
    for f in functions:
        yield f, s(dee(p.bundle, f)), m.dee(m.poly(f))


def _forms(p):
    rng = random.Random(32)
    return [random_form(rng, p.chart, degree, 2, max_components=3)
            for degree in range(min(p.chart.dim, 3) + 1) for _ in range(2)]


def _pullback_form(p, m, s, case):
    for a in _forms(p):
        yield a, m.cochain(pullback_form(p.bundle, a)), m.pullback(m.cochain(a), a.degree)


def _members(p, case):
    """Pulled-back forms, and the Jacobiator flat of a builtin."""
    cochains = [pullback_form(p.bundle, alpha) for alpha in _forms(p)]
    assert any(not psi.is_zero() for psi in cochains)
    if case in BUILTINS:
        cochains.append(jacobiator_flat(p))
    assert all(is_in_ckd(psi) is None for psi in cochains)
    return cochains


def _coboundaries(p, m, s, case):
    # D on each member, and partial on each member of degree >= 1 as a
    # kernel cochain: its values, increasing and nonzero, and their flat
    for psi in _members(p, case):
        yield psi, m.cochain(cobound_d(p, psi)), m.cobound_d(m.cochain(psi), psi.degree)
        if not psi.degree:
            continue
        phi, k = KerCochain(psi), psi.degree - 1
        values = partial_section_values(p, phi)
        assert list(values) == sorted(values)
        assert all(a < c for key in values for a, c in zip(key, key[1:]))
        expected = m.partial(m.cochain(psi), k)
        yield psi, {key: s(v) for key, v in values.items()}, expected
        yield psi, m.cochain(cobound_partial(p, phi).flat), m.flat(expected, k + 1)


def _ker_cochains(p, case):
    """Of a builtin: the Jacobiator flat, the twist of its [deform] block and
    a seeded pulled-back form of each degree the chart allows; and seeded
    flats of degree 2-4, with rational values on up to six keys, and the
    zero flat of each degree."""
    b, rng = p.bundle, random.Random(22)
    out = [KerCochain(jacobiator_flat(p))] + [
        KerCochain(pullback_form(b, random_form(rng, b.chart, degree, 2, max_components=3)))
        for degree in range(1, min(b.chart.dim, 3) + 1)]
    blocks = load(case).blocks
    if "deform" in blocks:
        out.append(twist_deformation(b, blocks["deform"]))
    rng = random.Random(28)
    for degree in range(2, min(b.rank, 4) + 1):
        keys = list(combinations(range(b.rank), degree))
        values = {key: random_poly(rng, b.chart, 2) * Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                  for key in rng.sample(keys, min(6, len(keys)))}
        out += [KerCochain(Cochain(b, degree, values)), KerCochain(Cochain.zero(b, degree))]
    return out


def _ker_cochain_values(p, m, s, case):
    # value_at on increasing, unsorted and repeated frame tuples; evaluate
    # on seeded, rational, reversed, repeated, zero and frame arguments; and
    # the flat itself on sections, as exterior.evaluate reads it
    b = p.bundle
    rng = random.Random(24)
    sections = [random_section(rng, b, degree) for degree in (1, 2, 3, 4)]

    def argument_lists(n):
        yield sections[:n]
        yield [e.scale(Fraction(t + 2, 3)) for t, e in enumerate(sections[:n])]
        yield sections[::-1][:n]
        if n:
            yield [sections[1]] * n
            yield [b.zero_section()] + sections[1:n]
            yield sections[: n - 1] + [b.frame(b.rank - 1)]

    for phi in _ker_cochains(p, case):
        k, flat = phi.degree, m.cochain(phi.flat)
        tuples = list(combinations(range(b.rank), k))
        tuples += [tuple(rng.randrange(b.rank) for _ in range(k)) for _ in range(6)]
        tuples += [tuple(reversed(t)) for t in tuples[:4]]
        if k >= 2:
            tuples += [(0,) * k, (b.rank - 1,) * 2 + tuple(range(k - 2))]
        for idx in tuples:
            yield idx, s(phi.value_at(idx)), m.ker_value(flat, [m.frames[i] for i in idx])
        for args in argument_lists(k):
            yield args, s(phi.evaluate(args)), m.ker_value(flat, list(map(s, args)))
        for args in argument_lists(k + 1):
            yield args, m.poly(evaluate(phi.flat, args)), m.evaluate(flat, list(map(s, args)))


def _from_values(p, m, s, case):
    # the flat is scattered from the nonzero values, and a missing tuple
    # holds zero
    b = p.bundle
    rng = random.Random(34)
    for degree in range(4):
        keys = list(combinations(range(b.rank), degree))
        for chosen in (rng.sample(keys, min(3, len(keys))), keys):
            values = {key: random_section(rng, b, 1) for key in chosen}
            yield values, m.cochain(KerCochain.from_values(b, degree, values).flat), m.flat(
                {key: s(v) for key, v in values.items()}, degree)


def _jacobiator_flat(p, m, s, case):
    # J on the increasing frame triples, in `combinations` order and held on
    # the algebroid; its flat, and Theta's, which needs the axioms on frames
    table = frame_jacobiators(p)
    assert list(table) == list(combinations(range(p.rank), 3)) and frame_jacobiators(p) is table
    for key, v in table.items():
        yield key, s(v), m.jacobiator(*(m.frames[i] for i in key))
    flat = m.cochain(jacobiator_flat(p))
    yield "flat", flat, m.jacobiator_flat()
    if p.frame_report.ok:
        yield "theta", flat, m.theta_flat()


# the bracket's evaluators on the builtins and three structures with broken
# axioms, the cochain maps on the builtins and three more anchored ones
BRACKET_CASES = [*BUILTINS, "broken-table", "polynomial-anchor", "fractional"]
COCHAIN_CASES = [*BUILTINS, "anchored-plane", "full-table-twisted_r4", "full-table-anchored-plane"]
EVALUATORS = {
    "bracket-skew_bracket": (_bracket, BRACKET_CASES),
    "jacobiator": (_jacobiator, BRACKET_CASES),
    "t_scalar": (_t_scalar, BRACKET_CASES),
    "dee": (_dee, BRACKET_CASES),
    # l3 reads J from its flat, which is J only where the theorem holds
    "l2-l3": (_two_term, BUILTINS),
    "jacobiator_flat": (_jacobiator_flat, [*BRACKET_CASES, "twisted-dissection"]),
    "ker_cochain_values": (_ker_cochain_values, BUILTINS),
    "from_values": (_from_values, BUILTINS),
    "pullback_form": (_pullback_form, COCHAIN_CASES),
    "cobound_d-partial_section_values": (_coboundaries, COCHAIN_CASES),
}


@pytest.mark.parametrize(
    "evaluator, case", [(e, c) for e, (_, cases) in EVALUATORS.items() for c in cases]
)
def test_evaluator_matches_the_model(evaluator, case):
    p, m, s = _case(case)
    count = 0
    for args, got, expected in EVALUATORS[evaluator][0](p, m, s, case):
        assert got == expected, args
        count += 1
    assert count  # every evaluator compared something on every case


def teardown_module():
    _case.cache_clear()  # the kept structures and models go with this module
