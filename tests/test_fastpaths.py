"""What is built once and kept (frame data, the bracket memo, J on frame
triples, each map's jets, the axiom, bundle and builder verdicts), and what
the paper does not define: metric rows, structure-constant Lie checks, the
sparse Lie algebra and double builders, the dissection's connection recipe
and the builders' compiled brackets, against the earlier implementations
kept below.  The paper's maps are checked against `model.py` here and in
test_model.py; J's general path, on twice a frame, checks the ordered-triple
memo, and the section-level axiom checks the frame axioms.  The Dorfman
oracle in test_algebroid.py is an independent one."""

import random
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from precourant import algebroid, bundle, cochain, construct, exterior, linalg, poly, runner
from precourant.algebroid import (
    PreCourantAlgebroid,
    _anchor_defect,
    _axiom_iii_witness,
    _symmetrization_defect,
    bracket,
    frame_axiom_defects,
    frame_jacobiators,
    jacobiator,
    verify_axioms,
    zero_table,
)
from precourant.bundle import Section, anchor_apply, pairing, standard_bundle
from precourant.cochain import KerCochain, jacobiator_flat, pullback_form
from precourant.construct import QuadraticLieAlgebra, from_twisted_action, quadratic_lie_algebra
from precourant.deform import apply_deformation, bfield_verify, twist_deformation
from precourant.exterior import KForm, evaluate, vf_apply
from precourant.manifest import parse_manifest
from precourant.parsing import parse_form
from precourant.poly import BilinearOperator, Chart, Poly, PolyMap
from precourant.runner import build_context, run_manifest
from precourant.sampling import random_form, random_poly, random_section
from precourant.twoterm import t_scalar
from test_builders import _dissection as _builders_dissection
from test_construct import _flat_dissection, _so3_dissection
from test_deform import _rank5_dissection, _so3_curved_dissection
from test_model import BRACKET_CASES, BUILTINS, CASES, _ker_cochains, build, load, model_sections
from test_witnesses import _dissection_line, _dissection_so3_plane, _dissection_x4


def pairing_reference(e1, e2):
    """e1^T g e2 over every entry of the metric."""
    b = e1.bundle
    out = Poly.zero(b.chart)
    for i, ci in enumerate(e1.coeffs):
        if ci.is_zero():
            continue
        for j, cj in enumerate(e2.coeffs):
            gij = b.metric[i][j]
            if gij != 0 and not cj.is_zero():
                out = out + (ci * cj) * gij
    return out


def raise_reference(b, covector):
    """g^-1 c over every entry of the inverted metric."""
    g_inv = linalg.invert(b.metric)
    return Section(
        b,
        [
            sum(
                (covector[j] * g_inv[i][j] for j in range(b.rank) if g_inv[i][j] != 0),
                Poly.zero(b.chart),
            )
            for i in range(b.rank)
        ],
    )


def dissection_table_reference(dd):
    """The dissection's frame table assembled block by block from its raw
    data, on lists of auxiliary coefficients."""
    b = standard_bundle(dd.chart, dd.aux_pairing)
    n, g = dd.chart.dim, dd.aux_rank
    zero = Poly.zero(dd.chart)

    def skew_entry(values, i, j):
        if i == j:
            return [zero] * g
        if i < j:
            return list(values.get((i, j), [zero] * g))
        return [-p for p in skew_entry(values, j, i)]

    def column(m, a):
        return [dd.gamma[m][c][a] for c in range(g)]

    def pair(u, v):
        out = zero
        for a, c in product(range(g), repeat=2):
            if dd.aux_pairing[a][c] != 0:
                out = out + (u[a] * v[c]) * dd.aux_pairing[a][c]
        return out

    def section(aux, cotangent):
        return Section(b, [zero] * n + list(aux) + list(cotangent))

    unit = [[Poly.const(dd.chart, int(t == a)) for t in range(g)] for a in range(g)]
    table = zero_table(b)
    for i, j in product(range(n), repeat=2):
        cot = [dd.psi.value_at((i, j, k)) for k in range(n)]
        table[i][j] = section(skew_entry(dd.curvature, i, j), cot)
    for i, a in product(range(n), range(g)):
        cot = [-pair(unit[a], skew_entry(dd.curvature, i, k)) for k in range(n)]
        table[i][n + a] = section(column(i, a), cot)
        table[n + a][i] = -table[i][n + a]
    for a, c in product(range(g), repeat=2):
        cot = [pair(unit[c], column(k, a)) for k in range(n)]
        table[n + a][n + c] = section(skew_entry(dd.fiber_table, a, c), cot)
    return table


def _test_dissections():
    """Every dissection the tests build, the builtin one and one without
    an auxiliary block."""
    chart = Chart(["x1", "x2", "x3"])
    yield construct.DissectionData(chart, 0, [], [[] for _ in range(3)], {},
                                   KForm.zero(chart, 3), {})
    yield build_context(load("dissection_rank2")).dissection
    yield _builders_dissection()[2]["dissection"]
    yield from (_flat_dissection(), _so3_dissection(), _rank5_dissection(),
                _so3_curved_dissection(), _dissection_x4(), _dissection_so3_plane(),
                _dissection_line())


@pytest.mark.parametrize("name", BUILTINS)
def test_frames_and_anchors_match_the_model(name):
    p, m, s = build(name)
    b = p.bundle
    assert [s(f) for f in b.frames()] == [s(b.frame(i)) for i in range(b.rank)] == m.frames
    assert b.frames() is not b.frames()  # a fresh list each time
    assert [list(map(m.poly, v.coeffs)) for v in b.rho_frames] == list(map(m.rho, m.frames))


def test_twisted_action_builds_on_its_own_bundle():
    ctx = build_context(load("twisted_action_synthetic"))
    # one bundle object, so bundle checks stop at identity
    assert ctx.bundle is ctx.action.bundle
    assert from_twisted_action(ctx.action).bundle is ctx.action.bundle
    assert all(s.bundle is ctx.action.bundle for row in ctx.action.k_table for s in row)


def test_bilinear_operator_on_empty_maps_and_cancelling_sums(chart3):
    x1, x2 = Poly.var(chart3, 0), Poly.var(chart3, 1)
    half = Fraction(1, 2)
    op = BilinearOperator(chart3, [
        (0, 0, None, None, 0, 1), (0, 0, 0, None, 0, -x1),
        (0, 0, None, None, 1, half), (0, 0, None, 0, 1, x1 * -half),
        (0, 1, None, None, 2, 0), (1, 0, None, None, 2, Poly.zero(chart3)),
    ])
    assert op.den == 2
    assert op.rows.keys() == {0}  # zero coefficients are dropped

    def pm(terms):
        return PolyMap.from_terms(chart3, terms)

    f = {0: x1, 1: x1 * x1}
    assert op.apply(pm({}), pm({})) == {}
    assert op.apply(pm(f), pm({})) == {} and op.apply(pm({}), pm(f)) == {}
    # x1 * x1 - x1 * d_1 x1 * x1 and x1^2 / 2 - x1 * x1 * d_1 x1 / 2 cancel
    assert op.apply(pm(f), pm(f)) == {}
    # 3 * x1^2, and 3 * x1^2 / 2 - 3 * d_1(x1^2) * x1 / 2
    assert op.apply(pm({0: Poly.const(chart3, 3)}), pm({0: x1 * x1})) == {
        0: x1 * x1 * 3, 1: x1 * x1 * Fraction(-3, 2)
    }
    # component 2 has no row, and d_1 of 3 and of x2 are zero: only the
    # order-(0, 0) entries are left
    assert op.apply(pm({0: Poly.const(chart3, 3), 2: x1}), pm({0: x2, 2: x1})) == {
        0: x2 * 3, 1: x2 * half * 3
    }
    assert op.apply(pm({2: x1 * x2}), pm(f)) == {}
    # denominators above 1 on both sides, against the entries written out
    f0 = x1 * x1 * half + Poly.const(chart3, Fraction(1, 3))
    g0 = x2 * Fraction(2, 5) + x1 * Fraction(1, 7)
    expected = {0: f0 * g0 - x1 * f0.diff(0) * g0, 1: (f0 * g0 - x1 * f0 * g0.diff(0)) * half}
    assert all(p.den > 1 for p in (f0, g0, *expected.values()))
    assert op.apply(pm({0: f0}), pm({0: g0})) == expected
    h = {0: x2 * Fraction(3, 4), 1: x1 * Fraction(1, 6)}
    rotations = ((f, {0: g0}, h), ({0: g0}, h, f), (h, f, {0: g0}))
    assert op.cyclic_pairing(pm(f), pm({0: g0}), pm(h)) == sum(
        (v * z[k] for x, y, z in rotations for k, v in op.apply(pm(x), pm(y)).items() if k in z),
        Poly.zero(chart3),
    )
    # the pairing of empty maps, or with one map empty, is the zero Poly
    assert op.cyclic_pairing(pm({}), pm({}), pm({})) == Poly.zero(chart3)
    assert op.cyclic_pairing(pm(f), pm({}), pm(f)) == Poly.zero(chart3)


@pytest.mark.parametrize(
    "kind, family",
    [("bracket", t) for t in range(4)] + [("t", t) for t in range(2)],
    ids=[*map(str, range(4)), "t-0", "t-1"],
)
def test_every_bracket_family_counts(kind, family):
    # the model sees each family: without it the bracket differs from the
    # model on `model_sections`, or T on consecutive triples of them
    for name in BUILTINS:
        p, m, s = build(name)
        families = (algebroid.bracket_families(p.bundle, p.table) if kind == "bracket"
                    else algebroid.t_families(p))
        q = PreCourantAlgebroid(p.bundle, p.table)
        setattr(q, f"{kind}_operator", BilinearOperator(
            p.chart, [e for t, fam in enumerate(families) if t != family for e in fam]
        ))
        sections = model_sections(p.bundle)
        if kind == "bracket":
            differs = any(s(bracket(q, e1, e2)) != m.bracket(s(e1), s(e2))
                          for e1 in sections for e2 in sections)
        else:
            differs = any(m.poly(t_scalar(q, *es)) != m.t_scalar(*map(s, es))
                          for es in zip(sections, sections[1:], sections[2:]))
        if differs:
            return
    pytest.fail(f"dropping {kind} family {family} changes no value")


def test_frame_triples_hit_the_memo(monkeypatch, std4, chart4):
    base = PreCourantAlgebroid(std4, zero_table(std4))
    p = apply_deformation(base, twist_deformation(std4, parse_form(chart4, "x4*dx(1,2,3)")))
    calls = []

    def counted(q, e1, e2):
        calls.append(1)
        return bracket(q, e1, e2)

    monkeypatch.setattr("precourant.algebroid.bracket", counted)
    frames = std4.frames()
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 1, 2), (3, 4, 5), (0, 1, 3)]:
        jacobiator(p, frames[i], frames[j], frames[k])
    # three brackets for each of the five triples, the inner ones read from
    # the table, all on distinct pairs; the repeated triple is read from jmemo
    assert len(p.bracket_memo) == len(calls) == 15


def test_derived_algebroids_do_not_share_the_memo(std4, chart4):
    base = PreCourantAlgebroid(std4, zero_table(std4))
    u0, u1 = std4.frame(0), std4.frame(1)
    assert bracket(base, u0, u1).is_zero()
    assert base.bracket_memo
    same = base.with_table(base.table)
    assert same == base and same.bracket_memo == {}
    twisted = apply_deformation(base, twist_deformation(std4, parse_form(chart4, "x4*dx(1,2,3)")))
    assert twisted.bracket_memo == {}
    # the twist puts x4 dx3 into u0 o u1; a shared memo would answer zero
    assert bracket(twisted, u0, u1) == std4.frame(6).scale(Poly.var(chart4, 3))
    assert bracket(base, u0, u1).is_zero()


def test_each_run_builds_its_own_memo(monkeypatch):
    built = []

    def capture(m):
        ctx = build_context(m)
        built.append((ctx.algebroid, dict(ctx.algebroid.bracket_memo)))
        return ctx

    monkeypatch.setattr(runner, "build_context", capture)
    m = load("standard_r3")
    m.trials = 1
    first = run_manifest(m, tasks=["verify-axioms"])
    second = run_manifest(m, tasks=["verify-axioms"])
    (p1, memo1), (p2, memo2) = built
    assert p1 is not p2 and p1.bracket_memo is not p2.bracket_memo
    assert memo1 == memo2 == {}
    assert p1.bracket_memo and p2.bracket_memo.keys() == p1.bracket_memo.keys()
    assert first.to_text() == second.to_text()


def test_section_hash_agrees_with_equality():
    chart = Chart(["x1", "x2"])
    b1, b2 = standard_bundle(chart), standard_bundle(chart)
    assert b1 is not b2 and b1 == b2

    def section(b, order):
        terms = [((1, 0), 2), ((0, 2), -1), ((0, 0), 3)]
        if order:
            terms.reverse()
        p = Poly(chart, dict(terms))
        return Section(b, [p, Poly.zero(chart), Poly.var(chart, 1), p])

    s, t = section(b1, False), section(b2, True)
    assert s is not t and s == t and hash(s) == hash(t)
    assert {s: "value"}[t] == "value"
    assert len({s, t, b1.frame(0), b2.frame(0)}) == 2


@pytest.mark.parametrize("name", BUILTINS)
def test_metric_rows_match_reference(name):
    b = build_context(load(name)).bundle
    assert b.metric_rows == tuple(
        tuple((j, c) for j, c in enumerate(row) if c != 0) for row in b.metric
    )
    rng = random.Random(13)
    sections = [random_section(rng, b, 3) for _ in range(4)] + b.frames()
    for e1 in sections:
        for e2 in sections[:4]:
            assert pairing(e1, e2) == pairing_reference(e1, e2)
    for _ in range(6):
        covector = [random_poly(rng, b.chart, 3) for _ in range(b.rank)]
        assert b.raise_covector(covector) == raise_reference(b, covector)


@pytest.mark.parametrize(
    "name, algebras",
    [("twisted_action_synthetic", 2), ("double_nonabelian", 2), ("action_abelian", 1)],
)
def test_each_algebra_is_validated_once_per_run(monkeypatch, name, algebras):
    validated = []
    real = construct._quadratic_lie_report

    def counted(g):
        validated.append(g)
        return real(g)

    monkeypatch.setattr(construct, "_quadratic_lie_report", counted)
    m = load(name)
    m.trials = 1
    report = run_manifest(m, tasks=["validate-algebra", "validate-action"])
    assert report.ok
    # the action's algebra, and the base algebra of a double, once each
    assert len(validated) == len({id(g) for g in validated}) == algebras
    run_manifest(m, tasks=["validate-action"])
    assert len(validated) == len({id(g) for g in validated}) == 2 * algebras


def test_validation_reports_are_copies():
    g = build_context(load("twisted_action_synthetic")).algebra
    first = construct.validate_quadratic_lie(g)
    first.checks[0].ok = False
    first.notes.append("mutated")
    second = construct.validate_quadratic_lie(g)
    assert second.ok and not second.notes
    assert second.lines() == construct._quadratic_lie_report(g).lines()
    assert second.checks[0] is not construct.validate_quadratic_lie(g).checks[0]


@pytest.mark.parametrize("k", range(4))
def test_pullback_evaluates_only_anchored_frame_tuples(monkeypatch, k):
    # standard_r3 anchors its three tangent frames and not its cotangent ones
    p, m, _ = build("standard_r3")
    b = p.bundle
    calls = []
    monkeypatch.setattr(cochain, "evaluate", lambda a, vs: calls.append(vs) or evaluate(a, vs))
    alpha = random_form(random.Random(33), b.chart, k, 2)
    assert m.cochain(pullback_form(b, alpha)) == m.pullback(m.cochain(alpha), k)
    assert len(calls) == comb(3, k)


@pytest.mark.parametrize("case", BRACKET_CASES)
def test_bracket_and_t_on_held_jets_match_the_model(case):
    # a map takes its jets on first use and keeps them: the bracket operator
    # and T read the held jets of the same objects again, and the jets of a
    # value-equal but distinct object, and agree with the model both times
    p, m, _ = build(case)
    b, op = p.bundle, p.bracket_operator
    if case == "fractional":  # both kernels over a common denominator
        assert op.den > 1 and p.t_operator.den > 1
    rng = random.Random(36)
    x, y = random_section(rng, b, 2), random_section(rng, b, 3)
    q = x.scale(Fraction(2, 3)) + b.frame(0).scale(Fraction(-1, 5))
    twin = Section(b, q.coeffs)
    assert twin == q and twin is not q and any(c.den > 1 for c in q.terms.values())
    sections = [x, y, q, twin, b.frame(b.rank - 1)]
    for _ in range(2):  # the jets are taken on the first pass and read on the second
        for e1, e2 in product(sections, repeat=2):
            value = Section.from_terms(b, op.apply(e1, e2))
            assert m.section(value) == m.bracket(m.section(e1), m.section(e2))
        for es in ((x, y, q), (twin, q, y), (q, twin, twin)):
            assert m.poly(t_scalar(p, *es)) == m.t_scalar(*map(m.section, es)), es
    assert all(s.jets() is s.jets() for s in sections)
    assert twin.jets() == q.jets() and twin.jets() is not q.jets()
    # an empty map on either side returns at once, before the other map's
    # jets are taken
    zero, fresh = b.zero_section(), Section(b, y.coeffs)
    assert op.apply(zero, fresh) == {} == op.apply(fresh, zero)
    assert bracket(p, zero, fresh).is_zero() and bracket(p, fresh, zero).is_zero()
    rotations = ((zero, fresh, fresh), (fresh, zero, fresh), (fresh, fresh, zero))
    assert all(t_scalar(p, *es) == Poly.zero(p.chart) for es in rotations)
    assert fresh._jet is None


@pytest.mark.parametrize("name", BUILTINS)
def test_each_map_takes_its_jets_once(monkeypatch, name):
    # a full run of a builtin takes the jets of each map at most once: the
    # terms dict of each map is its own, and every one passed is kept
    # alive here, so no id is reused
    taken, jets = [], poly._jets

    def counted(f):
        taken.append(f)
        return jets(f)

    monkeypatch.setattr(poly, "_jets", counted)
    m = load(name)
    m.trials = 2
    run_manifest(m)
    assert taken
    assert len({id(f) for f in taken}) == len(taken)


def test_t_scalar_and_ker_evaluate_reach_no_apply_or_contract(monkeypatch):
    # T is one cyclic sum and a kernel cochain is contracted with all its
    # sections at once, so neither calls `apply` nor builds a contracted
    # cochain; the model test checks their values, and the J-flat is built,
    # by brackets, before the patch
    cases = []
    for name in BUILTINS:
        p = CASES[name]()
        rng = random.Random(29)
        es = [random_section(rng, p.bundle, 2) for _ in range(3)]
        cases.append((p, es, _ker_cochains(p, name)))

    def refuse(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(BilinearOperator, "apply", refuse)
    monkeypatch.setattr(cochain, "contract", refuse)
    monkeypatch.setattr(exterior, "contract", refuse)
    for p, es, phis in cases:
        t_scalar(p, *es)
        for phi in phis:
            phi.evaluate(es[:phi.degree])


def test_bfield_transforms_each_section_once(monkeypatch):
    # B#(e) once per drawn section; the conjugation check also reads B# of
    # each bracket it takes
    seen = []
    real = KerCochain.evaluate

    def counted(phi, sections):
        seen.append(sections[0])
        return real(phi, sections)

    monkeypatch.setattr(KerCochain, "evaluate", counted)
    m = load("standard_r3")
    p = build_context(m).algebroid
    trials = 3
    assert bfield_verify(p, m.blocks["bfield"], trials=trials, seed=1).ok
    drawn = p.bundle.rank + trials
    assert len(set(seen[:drawn])) == drawn
    assert len(seen) == drawn + p.bundle.rank * (drawn + trials)


def test_frame_axioms_run_once_per_algebroid(monkeypatch, std4, chart4):
    seen = []
    real = algebroid._frame_axiom_report

    def counted(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(algebroid, "_frame_axiom_report", counted)
    m = load("twisted_r4")
    m.trials = 1
    assert run_manifest(m, tasks=["verify-axioms", "jacobiator-theorem"]).ok
    assert len(seen) == 1
    p = seen[0]
    first = verify_axioms(p, trials=1, seed=4)
    assert len(seen) == 1 and first.ok
    # each call gets its own copy of the kept verdicts
    first.checks[1].ok = False
    assert verify_axioms(p, trials=1, seed=4).lines() == verify_axioms(
        p.with_table(p.table), trials=1, seed=4
    ).lines()
    assert len(seen) == 2 and seen[1] is not p
    # a derived algebroid starts without verdicts of its own
    base = PreCourantAlgebroid(std4, zero_table(std4))
    verify_axioms(base, trials=1)
    twisted = apply_deformation(base, twist_deformation(std4, parse_form(chart4, "x4*dx(1,2,3)")))
    assert "frame_report" not in vars(twisted) and "frame_report" in vars(base)
    assert verify_axioms(twisted, trials=1).ok
    assert seen[2:] == [base, twisted]


def test_jacobiator_flat_built_once_per_algebroid(monkeypatch, std4, chart4):
    bases = []
    filled = _log_jmemo_fills(monkeypatch)

    def built():
        """The algebroids that kept J on frames, in first-fill order."""
        return list({id(q): q for q, _ in filled}.values())

    def capture(m):
        ctx = build_context(m)
        bases.append(ctx.algebroid)
        return ctx

    monkeypatch.setattr(runner, "build_context", capture)
    for name, deformed in (("twisted_r4", 1), ("dissection_rank2", 0)):
        filled.clear()
        m = load(name)
        m.trials = 1
        # every frame-level check of the full task list reads one memo per
        # algebroid: the base and each deformed structure fill theirs once
        assert run_manifest(m).ok
        p = bases[-1]
        assert built()[0] is p and len(built()) == 1 + deformed
        assert len({(id(q), t) for q, t in filled}) == len(filled)
        n = len(filled)
        assert jacobiator_flat(p) is p.jflat
        assert all(v is p.jmemo[t] for t, v in frame_jacobiators(p).items())
        assert len(filled) == n
        assert p.jflat == jacobiator_flat(p.with_table(p.table))
    # a derived algebroid starts with neither cache
    derived = p.with_table(p.table)
    assert not derived.jmemo and derived.jflat is None
    base = PreCourantAlgebroid(std4, zero_table(std4))
    jacobiator_flat(base)
    twisted = apply_deformation(base, twist_deformation(std4, parse_form(chart4, "x4*dx(1,2,3)")))
    assert not twisted.jmemo and twisted.jflat is None
    assert base.jmemo and base.jflat is not None
    assert not jacobiator_flat(twisted).is_zero() and base.jflat.is_zero()
    assert built()[-2:] == [base, twisted]


@pytest.mark.parametrize("name", ["twisted_action_synthetic", "double_nonabelian", "action_abelian"])
def test_each_action_is_validated_once_per_run(monkeypatch, name):
    validated = []
    real = construct._twisted_action_report

    def counted(ta):
        validated.append(ta)
        return real(ta)

    monkeypatch.setattr(construct, "_twisted_action_report", counted)
    m = load(name)
    m.trials = 1
    # the builder validates the action, and validate-action reads that verdict
    assert run_manifest(m, tasks=["validate-action"]).ok
    assert len(validated) == 1
    ta = validated[0]
    first = construct.validate_twisted_action(ta)
    first.checks[0].ok = False
    first.notes.append("mutated")
    second = construct.validate_twisted_action(ta)
    assert second.ok and not second.notes and len(validated) == 1
    assert second.lines() == real(ta).lines()


def quadratic_lie_table_reference(dim, brackets):
    """The dense dim x dim x dim bracket table of the sparse brackets
    [b_i, b_j], as `construct.quadratic_lie_algebra` built and kept it
    before the algebra held only its structure constants."""
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k, c in enumerate(vec):
            table[i][j][k] = linalg.rational(c)
            table[j][i][k] = -table[i][j][k]
    return table


def double_reference(c):
    """The dense bracket table and the pairing of the hyperbolic double of
    the Lie algebra with dense bracket table c, by the two triple loops
    that `construct.double` ran."""
    m = len(c)
    n2 = 2 * m
    table = [[[0] * n2 for _ in range(n2)] for _ in range(n2)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                table[i][j][k] = c[i][j][k]
    # coadjoint action: [b_i, b*_j] = - sum_k c[i][k][j] b*_k
    for i in range(m):
        for j in range(m):
            for k in range(m):
                coeff = -c[i][k][j]
                if coeff != 0:
                    table[i][m + j][m + k] = coeff
                    table[m + j][i][m + k] = -coeff
    pair = [[0] * n2 for _ in range(n2)]
    for i in range(m):
        pair[i][m + i] = 1
        pair[m + i][i] = 1
    return table, pair


def structure_of(table):
    """The nonzero (k, c) pairs of each bracket of a dense table."""
    return tuple(linalg.nonzero_rows(row) for row in table)


def dense_table(g):
    """The dense m x m x m bracket table of g's structure constants."""
    m = g.dim
    table = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i, j in product(range(m), repeat=2):
        for k, c in g.structure[i][j]:
            table[i][j][k] = c
    return table


def lie_checks_reference(g):
    """The antisymmetry, Jacobi and pairing-invariance loops over basis
    vectors and the dense tables, as they ran before the structure-constant
    form: each check's name -> (ok, witness)."""
    m = g.dim
    table = dense_table(g)
    basis = [{i: Fraction(1)} for i in range(m)]

    def br(u, v):
        out = {}
        for i, ui in u.items():
            for j, vj in v.items():
                for k, c in enumerate(table[i][j]):
                    out[k] = out.get(k, 0) + ui * vj * c
        return out

    def pair(u, v):
        return sum(ui * g.pairing[i][j] * vj for i, ui in u.items() for j, vj in v.items())

    out = {"antisymmetric": (True, ""), "jacobi": (True, "")}
    for i, j in product(range(m), repeat=2):
        s = [a + b for a, b in zip(table[i][j], table[j][i])]
        if any(x != 0 for x in s):
            out["antisymmetric"] = (False, f"basis ({i + 1},{j + 1})")
            break
    for i, j, k in product(range(m), repeat=3):
        a = br(basis[i], br(basis[j], basis[k]))
        b = br(br(basis[i], basis[j]), basis[k])
        c = br(basis[j], br(basis[i], basis[k]))
        if any(a.get(t, 0) - b.get(t, 0) - c.get(t, 0) != 0 for t in range(m)):
            out["jacobi"] = (False, f"basis triple ({i + 1},{j + 1},{k + 1})")
            break
    if g.pairing is None:
        return out
    out["pairing-invariant"] = (True, "")
    for i, j, k in product(range(m), repeat=3):
        v = pair(br(basis[i], basis[j]), basis[k]) + pair(basis[j], br(basis[i], basis[k]))
        if v != 0:
            out["pairing-invariant"] = (False, f"basis triple ({i + 1},{j + 1},{k + 1})")
            break
    return out


SO3 = {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}


def _so3(bracket_02, pairing):
    return quadratic_lie_algebra(3, {**SO3, (0, 2): bracket_02}, pairing)


def _builtin_algebras():
    out = []
    for name in BUILTINS:
        ctx = build_context(load(name))
        out += [g for g in (ctx.algebra, ctx.base_algebra) if g is not None]
    return out


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
SL2 = {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]}  # e, h, f
HEISENBERG3 = {(0, 1): [0, 0, 1]}  # [x, y] = z


def test_sparse_builders_match_dense_reference():
    # the base algebra of every builtin, and its double where it has one
    built = 0
    for name in BUILTINS:
        m = load(name)
        if m.builder_kind != "twisted_action":
            continue
        ctx = build_context(m)
        s = m.spec
        table = quadratic_lie_table_reference(s["dim"], s["brackets"])
        if s["double"]:
            assert ctx.base_algebra.structure == structure_of(table)
            table, pair = double_reference(table)
            assert ctx.algebra.pairing == pair
        assert ctx.algebra.structure == structure_of(table)
        built += 1
    assert built
    for dim, brackets in ((3, SO3), (3, SL2), (3, HEISENBERG3)):
        g = quadratic_lie_algebra(dim, brackets, None)
        table = quadratic_lie_table_reference(dim, brackets)
        assert g.structure == structure_of(table)
        d = construct.double(g)
        table, pair = double_reference(table)
        assert (d.dim, d.structure, d.pairing) == (2 * dim, structure_of(table), pair)


@pytest.mark.parametrize(
    "make, failing",
    [
        (_builtin_algebras, set()),
        (lambda: [_so3([-1, 0, 0], IDENTITY3)], {"jacobi", "pairing-invariant"}),
        # [b1, b2] = b1 but [b2, b1] = b2
        (
            lambda: [QuadraticLieAlgebra(
                2, structure_of([[[0, 0], [1, 0]], [[0, 1], [0, 0]]]), [[0, 1], [1, 0]]
            )],
            {"antisymmetric", "jacobi", "pairing-invariant"},
        ),
        # Lie brackets whose pairing is not invariant
        (
            lambda: [_so3([0, 1, 0], IDENTITY3), quadratic_lie_algebra(3, SL2, IDENTITY3)],
            {"pairing-invariant"},
        ),
        # sl(2) with its trace form, and so(3) without a pairing
        (
            lambda: [
                quadratic_lie_algebra(3, SL2, [[0, 0, 1], [0, 2, 0], [1, 0, 0]]),
                _so3([0, -1, 0], None),
            ],
            set(),
        ),
    ],
    ids=["builtins", "non-jacobi", "non-antisymmetric", "non-invariant", "valid"],
)
def test_lie_checks_match_reference(make, failing):
    seen = set()
    for g in make():
        expected = lie_checks_reference(g)
        checks = {c.name: (c.ok, c.witness) for c in construct._quadratic_lie_report(g).checks}
        assert {name: checks[name] for name in expected} == expected
        seen |= {name for name, (ok, _) in expected.items() if not ok}
    assert seen == failing


def test_jacobiator_reads_the_frame_index_kept_on_the_bundle(chart4):
    # the index is built on first read and is then a plain attribute, which
    # every algebroid on the bundle reads
    b = standard_bundle(chart4)
    p = PreCourantAlgebroid(b, zero_table(b))
    assert "frame_index" not in vars(b)
    u = b.frames()
    jacobiator(p, u[0], u[1], u[2])
    index = vars(b)["frame_index"]
    assert index == {f: i for i, f in enumerate(u)}
    jacobiator(p, u[3], u[0], u[5])
    jacobiator(p, u[1], u[2].scale(Poly.var(chart4, 0)), u[3])
    assert list(p.jmemo) == [(0, 1, 2), (3, 0, 5)]
    q = p.with_table(p.table)
    jacobiator(q, u[5], u[5], u[1])
    assert list(q.jmemo) == [(5, 5, 1)] and vars(b)["frame_index"] is index


def test_jacobiator_brackets_the_bundles_own_frames(monkeypatch, twisted4):
    # a section equal to a frame but built apart, as D x_m is, reaches the
    # bracket only as the frame itself, which the bracket memo finds by
    # identity rather than by comparing coefficients
    p = twisted4.with_table(twisted4.table)
    u = p.bundle.frames()
    copy = p.bundle.section([Poly.const(p.bundle.chart, int(i == 1)) for i in range(p.rank)])
    assert copy == u[1] and copy is not u[1]
    seen = []
    real = algebroid.bracket

    def spy(q, e1, e2):
        seen.extend((e1, e2))
        return real(q, e1, e2)

    monkeypatch.setattr(algebroid, "bracket", spy)
    value = jacobiator(p, u[0], copy, u[2])
    monkeypatch.undo()
    assert value == jacobiator(twisted4.with_table(twisted4.table), u[0], u[1], u[2])
    assert any(e is u[1] for e in seen)
    assert all(e is u[1] for e in seen if e == u[1])


@pytest.mark.parametrize("name", BUILTINS)
def test_bundle_checks_run_once_per_bundle(monkeypatch, name):
    validated, inverted = [], []
    real_report, real_invert = bundle._bundle_report, linalg.invert

    def counted_report(b):
        validated.append(b)
        return real_report(b)

    def counted_invert(a):
        inverted.append(a)
        return real_invert(a)

    monkeypatch.setattr(bundle, "_bundle_report", counted_report)
    monkeypatch.setattr(linalg, "invert", counted_invert)
    m = load(name)
    m.trials = 1
    tasks = [t for t in m.tasks if t not in ("leibniz2", "lie2")]
    # the builder, validate-bundle and verify-axioms read one verdict, and
    # raise_covector the inverse metric that the construction computed
    assert run_manifest(m, tasks=tasks).ok
    assert len(validated) == 1
    b = validated[0]
    assert sum(a is b.metric for a in inverted) == 1
    first = bundle.validate_bundle(b)
    first.add("mutated", False)
    assert bundle.validate_bundle(b).checks == [] and len(validated) == 1


def test_coisotropy_shared_with_the_twisted_action(monkeypatch):
    kernels = []
    real = linalg.kernel_basis

    def counted(a, n_cols):
        kernels.append(a)
        return real(a, n_cols)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    m = load("twisted_action_synthetic")
    m.trials = 1
    # defect-kills-kernel, kernel-coisotropic and the coisotropy task: one
    # kernel and one perp per sample point
    assert run_manifest(m, tasks=["validate-action", "coisotropy"]).ok
    assert len(kernels) == 2 * len(m.blocks["points"])


def test_dissection_table_matches_reference(monkeypatch):
    calls = []
    real = construct.from_connection_beta

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct, "from_connection_beta", counted)
    for dd in _test_dissections():
        calls.clear()
        p = construct.from_dissection(dd)
        assert [list(row) for row in p.table] == dissection_table_reference(dd)
        assert len(calls) == 1


def bilinear_reference(table, e1, e2):
    """Function-bilinear extension of a frame table of sections."""
    out = e1.bundle.zero_section()
    for i, fi in e1.terms.items():
        for j, fj in e2.terms.items():
            if table[i][j].terms:
                out = out + table[i][j].scale(fi * fj)
    return out


def action_lie_bracket_reference(ta, e1, e2):
    """The action algebroid bracket L_{rho(e1)} e2 - L_{rho(e2)} e1 + [e1,e2]_g
    with the componentwise derivative as Lie action on trivial sections."""
    x1, x2 = anchor_apply(e1), anchor_apply(e2)
    lie = e2.map(lambda c: vf_apply(x1, c)) - e1.map(lambda c: vf_apply(x2, c))
    return lie + bilinear_reference(ta.bracket_table, e1, e2)


ACTIONS = ["action_abelian", "double_nonabelian", "twisted_action_synthetic"]


def _fractional_action():
    """so(3) with the pairing 2 I acting on a plane through a fractional
    polynomial anchor, with a fractional defect; not validated."""
    chart = Chart(["x1", "x2"])
    x1, x2 = Poly.var(chart, 0), Poly.var(chart, 1)
    zero = Poly.zero(chart)
    so3 = quadratic_lie_algebra(
        3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]},
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    )
    rho = [[x1 * Fraction(1, 2), Poly.const(chart, Fraction(2, 3))],
           [zero, x1 * x2 * Fraction(-3, 4)], [x2, zero]]
    k = {(0, 1): [zero, Poly.const(chart, Fraction(1, 5)), x1 * Fraction(1, 3)]}
    return construct.make_twisted_action(so3, chart, rho, k, [])


def _actions():
    return [build_context(load(name)).action for name in ACTIONS] + [_fractional_action()]


def _action_pairs(ta):
    """Every basis pair, then 16 pairs of seeded function multiples of basis
    frames."""
    b = ta.bundle
    u = b.frames()
    rng = random.Random(3)
    pairs = list(product(u, repeat=2))
    for _ in range(16):
        f, g = random_poly(rng, b.chart, 2), random_poly(rng, b.chart, 2)
        pairs.append((rng.choice(u).scale(f), rng.choice(u).scale(g)))
    return pairs


def _defect_differs(ta, op):
    """Whether op(e1, e2) differs from the reference action bracket plus the
    reference defect extension on some pair of `_action_pairs`."""
    return any(
        construct._bilinear(op, e1, e2)
        != action_lie_bracket_reference(ta, e1, e2) + bilinear_reference(ta.k_table, e1, e2)
        for e1, e2 in _action_pairs(ta)
    )


def test_defect_operator_matches_reference():
    actions = _actions()
    assert actions[-1].defect_operator.den > 1
    for ta in actions:
        assert not _defect_differs(ta, ta.defect_operator)


@pytest.mark.parametrize("family", range(3))
def test_every_defect_family_counts(family):
    # the table family and both anchor families reach the oracle
    for ta in _actions()[:-1]:
        table = [[s + k for s, k in zip(*rows)] for rows in zip(ta.bracket_table, ta.k_table)]
        families = algebroid.bracket_families(ta.bundle, table)[:-1]
        op = BilinearOperator(
            ta.bundle.chart, [e for t, fam in enumerate(families) if t != family for e in fam]
        )
        if _defect_differs(ta, op):
            return
    pytest.fail(f"dropping defect family {family} changes no value")


def test_fiber_operator_matches_reference():
    for dd in _test_dissections():
        quartic = [random_section(random.Random(k), dd.bundle, 4) for k in range(3)]
        sections = quartic + model_sections(dd.bundle) + list(dd.aux_frames)
        for e1, e2 in product(sections, repeat=2):
            assert construct._bilinear(dd.fiber_operator, e1, e2) == bilinear_reference(
                dd.bracket_table, e1, e2
            )


BROKEN_TABLES = sorted(
    (Path(__file__).resolve().parent.parent / "perfbench" / "manifests").glob("*.pcm")
)


def _frame_table_algebroids():
    """The six builtins, the two broken benchmark tables and, per builtin,
    three seeded perturbations of one table entry and its transpose."""
    rng = random.Random(17)
    for name in BUILTINS:
        p = build_context(load(name)).algebroid
        yield p
        b = p.bundle
        for _ in range(3):
            i, j = rng.randrange(b.rank), rng.randrange(b.rank)
            table = [list(row) for row in p.table]
            table[i][j] = table[i][j] + random_section(rng, b, 1)
            if rng.random() < 0.5:
                table[j][i] = -table[i][j]
            yield p.with_table(table)
    for path in BROKEN_TABLES:
        yield build_context(parse_manifest(path.read_text(), name=path.stem)).algebroid


def test_frame_axiom_defects_match_section_checks():
    failing = [False, False, False]
    for p in _frame_table_algebroids():
        u, r = p.bundle.frames(), p.rank
        i_pairs, ii_pairs, iii_triples = frame_axiom_defects(p)
        q = p.with_table(p.table)  # the section checks get a memo of their own
        expected = [
            [(i, j) for i, j in product(range(r), repeat=2) if _anchor_defect(q, u[i], u[j])],
            [(i, j) for i, j in product(range(r), repeat=2)
             if _symmetrization_defect(q, u[i], u[j])],
            [(i, j, k) for i, j, k in product(range(r), repeat=3)
             if _axiom_iii_witness(q, "", u[i], u[j], u[k])],
        ]
        assert [list(i_pairs), list(ii_pairs), list(iii_triples)] == expected
        failing = [f or bool(e) for f, e in zip(failing, expected)]
    # every axiom fails somewhere, so each predicate is tested on failures too
    assert failing == [True, True, True]


def test_jacobiator_keeps_each_ordered_frame_triple():
    nonzero = False
    for p in _frame_table_algebroids():
        u, r = p.bundle.frames(), p.rank
        q = p.with_table(p.table)
        # repeated indices included; every order is evaluated, none read by
        # sign, and each agrees with J's general path, which twice a frame takes
        for t in product(range(r), repeat=3):
            es = [u[i] for i in t]
            value = jacobiator(p, *es)
            assert value.scale(2) == jacobiator(q, es[0].scale(2), *es[1:])
            assert jacobiator(p, *es) is value
            nonzero = nonzero or not value.is_zero()
        assert len(p.jmemo) == r ** 3 and not q.jmemo
        assert all(v is p.jmemo[t] for t, v in frame_jacobiators(p).items())
        # a section that is not a frame is evaluated and not kept
        e = u[0] + u[-1].scale(Poly.var(p.bundle.chart, 0))
        assert jacobiator(p, e, u[-1], u[0]).scale(2) == jacobiator(q, e.scale(2), u[-1], u[0])
        assert jacobiator(p, u[0].scale(2), u[-1], u[0]) == p.jmemo[0, r - 1, 0].scale(2)
        assert len(p.jmemo) == r ** 3
    assert nonzero


def _log_jmemo_fills(monkeypatch):
    """Give every algebroid built a `jmemo` that logs each fill as
    (algebroid, ordered frame triple), in fill order; the log keeps the
    algebroids alive, so that no id is reused."""
    filled = []
    real = PreCourantAlgebroid.__init__

    class LoggedMemo(dict):
        def __init__(self, owner):
            super().__init__()
            self.owner = owner

        def __setitem__(self, key, value):
            filled.append((self.owner, key))
            super().__setitem__(key, value)

    def init(self, *args):
        real(self, *args)
        self.jmemo = LoggedMemo(self)

    monkeypatch.setattr(PreCourantAlgebroid, "__init__", init)
    return filled


@pytest.mark.parametrize("name", BUILTINS)
def test_full_run_evaluates_each_frame_triple_once(monkeypatch, name):
    # J on frames is evaluated only to fill jmemo, so a second evaluation
    # of an ordered triple would fill it again
    filled = _log_jmemo_fills(monkeypatch)
    m = load(name)
    m.trials = 1
    assert run_manifest(m).ok
    assert filled and len({(id(p), t) for p, t in filled}) == len(filled)


def test_dissection_closed_forms_once_per_check(monkeypatch):
    calls = {"_bianchi_term": [], "_connection_curvature_defect": []}
    for fname, seen in calls.items():
        real = getattr(construct, fname)
        monkeypatch.setattr(construct, fname,
                            lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    m = load("dissection_rank2")
    assert run_manifest(m, tasks=["dissection-jacobiator"]).ok
    assert [len(seen) for seen in calls.values()] == [24, 22]
    assert all(len(set(seen)) == len(seen) for seen in calls.values())
