"""Acceptance suite: the exit criteria for the library, one test per
criterion, each printing a single pass/fail line.

Every comparison is exact (zero tolerance): all arithmetic is rational.
The trial counts and seeds match the golden manifests.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from precourant.algebroid import (
    jacobiator,
    verify_axioms,
    verify_derived_identities,
)
from precourant.cli import resolve_manifest
from precourant.cochain import (
    pullback_form,
    verify_comm_lemma,
    verify_jacobiator_theorem,
)
from precourant.construct import (
    dissection_jacobiator_check,
    dissection_pontryagin,
    validate_quadratic_lie,
    validate_twisted_action,
)
from precourant.deform import (
    apply_deformation,
    bfield_verify,
    naive_cohomology_check,
    omega_square,
    pontryagin_representative,
    pontryagin_vanishing_check,
    twist_deformation,
    verify_deformation_identity,
)
from precourant.exterior import ext_d, format_kform
from precourant.manifest import parse_manifest
from precourant.parsing import parse_form
from precourant.poly import Poly
from precourant.runner import build_context, run_manifest
from precourant.sampling import random_form, random_section
from precourant.twoterm import (
    build_leibniz2,
    build_lie2,
    verify_leibniz2,
    verify_lie2,
    verify_morphism,
)

GOLDENS = [
    "standard_r3",
    "twisted_r4",
    "dissection_rank2",
    "action_abelian",
    "twisted_action_synthetic",
    "double_nonabelian",
]

# reports of the builtin manifests at their own settings, stored so that
# byte-stability holds across versions and not only within one process
GOLDEN_DIR = Path(__file__).parent / "goldens"


def load(name):
    path = resolve_manifest(name)
    return parse_manifest(path.read_text(), name=name)


def context(name):
    return build_context(load(name))


def announce(number, name, started):
    elapsed = time.monotonic() - started
    print(f"\n[PASS] criterion-{number:02d} {name} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def ctx_std3():
    return context("standard_r3")


@pytest.fixture(scope="module")
def ctx_tw4():
    return context("twisted_r4")


def test_criterion_01_standard_courant(ctx_std3):
    t0 = time.monotonic()
    p, b = ctx_std3.algebroid, ctx_std3.bundle
    assert verify_axioms(p, trials=16, seed=0, max_degree=2).ok
    assert verify_derived_identities(p, trials=16, seed=0, max_degree=2).ok
    for idx in combinations(range(b.rank), 3):
        assert jacobiator(p, b.frame(idx[0]), b.frame(idx[1]), b.frame(idx[2])).is_zero()
    rng = random.Random(0)
    for _ in range(16):
        es = [random_section(rng, b, 2) for _ in range(3)]
        assert jacobiator(p, *es).is_zero()
    announce(1, "standard courant algebroid", t0)


def test_criterion_02_twisted_theorem_suite(ctx_tw4):
    t0 = time.monotonic()
    report = verify_jacobiator_theorem(ctx_tw4.algebroid, trials=16, seed=0, max_degree=2)
    assert report.ok, report.lines()
    names = {c.name for c in report.checks}
    assert {
        "skew-symmetric",
        "tensorial",
        "derivative-slot-vanishes",
        "flat-alternating",
        "partial-j-zero",
        "d-jflat-zero",
    } <= names
    announce(2, "twisted exact theorem suite", t0)


def test_criterion_03_leibniz_two_term(ctx_tw4):
    t0 = time.monotonic()
    alg = build_leibniz2(ctx_tw4.algebroid)
    report = verify_leibniz2(alg, trials=16, seed=0, max_degree=2)
    assert report.ok, report.lines()
    assert {c.name for c in report.checks} == {
        "inclusion-right",
        "inclusion-left",
        "inclusion-balanced",
        "defect-degree0",
        "defect-kernel-slot3",
        "defect-kernel-slot2",
        "defect-kernel-slot1",
        "coherence",
    }
    announce(3, "leibniz two-term conditions", t0)


def test_criterion_04_lie_two_term(ctx_tw4):
    t0 = time.monotonic()
    alg = build_lie2(ctx_tw4.algebroid)
    report = verify_lie2(alg, trials=16, seed=0, max_degree=2)
    assert report.ok, report.lines()
    names = {c.name for c in report.checks}
    assert {"l2-skew", "l3-skew", "l3-kernel-valued", "homotopy-jacobi"} <= names
    announce(4, "lie two-term conditions", t0)


def test_criterion_05_deformation_identity(ctx_std3):
    t0 = time.monotonic()
    m = ctx_std3.manifest
    p, b = ctx_std3.algebroid, ctx_std3.bundle
    omega = twist_deformation(b, m.blocks["deform"])
    deformed = apply_deformation(p, omega)
    report = verify_deformation_identity(p, omega, deformed, trials=16, seed=0, max_degree=2)
    assert report.ok, report.lines()
    for idx in combinations(range(b.rank), 3):
        assert omega_square(p, omega, *(b.frame(i) for i in idx)).is_zero()
    morphism = verify_morphism(
        build_leibniz2(p), build_leibniz2(deformed), omega, trials=16, seed=0, max_degree=2
    )
    assert morphism.ok
    announce(5, "deformation identity and morphism", t0)


def test_criterion_06_bfield(ctx_std3):
    t0 = time.monotonic()
    p = ctx_std3.algebroid
    chart = p.chart
    report = bfield_verify(p, parse_form(chart, "x1*dx(1,2)"), trials=16, seed=0)
    assert report.ok, report.lines()
    assert len([c for c in report.checks if c.ok]) == 5
    closed = bfield_verify(p, parse_form(chart, "dx(1,2)"), trials=16, seed=0)
    assert closed.ok
    assert any(c.name == "closed-beta-identity" and c.ok for c in closed.checks)
    announce(6, "b-field transformation", t0)


def test_criterion_07_commutation_lemma(ctx_tw4):
    t0 = time.monotonic()
    b = ctx_tw4.bundle
    rng = random.Random(0)
    samples = [pullback_form(b, random_form(rng, b.chart, 2)) for _ in range(8)]
    report = verify_comm_lemma(ctx_tw4.algebroid, samples)
    assert report.ok, report.lines()
    assert sum(1 for c in report.checks if c.name.endswith("equal")) == 8
    announce(7, "commutation lemma on eight samples", t0)


def test_criterion_08_pontryagin(ctx_tw4):
    t0 = time.monotonic()
    m = ctx_tw4.manifest
    p, b = ctx_tw4.algebroid, ctx_tw4.bundle
    form, report = pontryagin_representative(p, [b.section(c) for c in m.blocks["lift"]])
    assert report.ok, report.lines()
    dh = ext_d(m.spec["h"])
    assert format_kform(form) == format_kform(dh)
    assert form == dh
    assert ext_d(form).is_zero()
    vanish = pontryagin_vanishing_check(p, m.blocks["pontryagin"])
    assert vanish.ok, vanish.lines()
    untwisted = apply_deformation(p, twist_deformation(b, m.blocks["pontryagin"].scale(-1)))
    for idx in combinations(range(b.rank), 3):
        assert jacobiator(untwisted, *(b.frame(i) for i in idx)).is_zero()
    announce(8, "pontryagin representative and vanishing", t0)


def test_criterion_09_naive_cohomology(ctx_tw4):
    t0 = time.monotonic()
    p, b = ctx_tw4.algebroid, ctx_tw4.bundle
    rng = random.Random(0)
    samples = [
        pullback_form(b, random_form(rng, b.chart, 2 if i % 2 == 0 else 1))
        for i in range(8)
    ]
    lift = [b.section(c) for c in ctx_tw4.manifest.blocks["lift"]]
    report = naive_cohomology_check(p, samples, lift)
    assert report.ok, report.lines()
    assert sum(1 for c in report.checks if "d-squared" in c.name) == 8
    assert sum(1 for c in report.checks if "partial-squared" in c.name) == 8
    announce(9, "naive cohomology squares vanish", t0)


def test_criterion_10_dissection():
    t0 = time.monotonic()
    ctx = context("dissection_rank2")
    p, dd = ctx.algebroid, ctx.dissection
    assert verify_axioms(p, trials=8, seed=0).ok
    assert dissection_jacobiator_check(p, dd).ok
    form, report = dissection_pontryagin(p, dd)
    assert report.ok, report.lines()

    # independent oracle: the quarter-weighted signed sum over all 24
    # argument orders of the curvature pairing, read from the raw data
    def curvature(i, j):
        zero = [Poly.zero(dd.chart)] * dd.aux_rank
        if i < j:
            return dd.curvature.get((i, j), zero)
        return [-p for p in dd.curvature.get((j, i), zero)]

    def brute_force(idx):
        total = Poly.zero(dd.chart)
        for perm in permutations(range(4)):
            sign = 1
            perm_list = list(perm)
            for i in range(4):
                for j in range(i + 1, 4):
                    if perm_list[i] > perm_list[j]:
                        sign = -sign
            r1 = curvature(idx[perm[0]], idx[perm[1]])
            r2 = curvature(idx[perm[2]], idx[perm[3]])
            val = Poly.zero(dd.chart)
            for a in range(dd.aux_rank):
                for b in range(dd.aux_rank):
                    if dd.aux_pairing[a][b] != 0:
                        val = val + (r1[a] * r2[b]) * dd.aux_pairing[a][b]
            total = total + val * Fraction(sign, 4)
        return total

    for idx in combinations(range(dd.chart.dim), 4):
        assert form.value_at(idx) == brute_force(idx) * Fraction(1, 2)
    assert ext_d(form).is_zero()
    announce(10, "dissection jacobiator and pontryagin oracle", t0)


def test_criterion_11_constructions():
    t0 = time.monotonic()
    # untwisted abelian action: the Leibniz identity holds on the nose
    ctx = context("action_abelian")
    b = ctx.bundle
    assert validate_twisted_action(ctx.action).ok
    for i in range(b.rank):
        for j in range(b.rank):
            for k in range(b.rank):
                assert jacobiator(
                    ctx.algebroid, b.frame(i), b.frame(j), b.frame(k)
                ).is_zero()
    # synthetic twisted action: validation plus the full theorem suite
    ctx = context("twisted_action_synthetic")
    assert validate_twisted_action(ctx.action).ok
    report = verify_jacobiator_theorem(ctx.algebroid, trials=8, seed=0, max_degree=1)
    assert report.ok, report.lines()
    # the double validates brute force over all basis triples
    ctx = context("double_nonabelian")
    report = validate_quadratic_lie(ctx.algebra)
    assert report.ok, report.lines()
    assert {c.name for c in report.checks} == {
        "antisymmetric",
        "jacobi",
        "pairing-invariant",
    }
    announce(11, "builder constructions", t0)


def test_criterion_12_determinism():
    t0 = time.monotonic()
    for name in GOLDENS:
        first = run_manifest(load(name))
        second = run_manifest(load(name))
        assert first.to_text() == second.to_text(), name
        assert first.to_json() == second.to_json(), name
        assert first.to_text() == (GOLDEN_DIR / f"{name}.txt").read_text(), name
        assert first.to_json() == (GOLDEN_DIR / f"{name}.json").read_text(), name
        assert first.ok, f"{name} must pass for the determinism comparison"
    announce(12, "byte-identical reports", t0)
