"""Two-term algebra construction, verification batteries, the components of
the skew Jacobiator, and morphisms.  The skew Jacobiator identity
J - D T = the cyclic double skew bracket, and the ten-term coherence as the
homotopy Jacobi identity, are checked in test_model.py."""

import random
from fractions import Fraction

import pytest

from precourant import twoterm
from precourant.algebroid import jacobiator, skew_bracket
from precourant.bundle import anchor_apply, dee, pairing
from precourant.cli import resolve_manifest
from precourant.cochain import Cochain, KerCochain
from precourant.deform import apply_deformation, twist_deformation, validate_deformation
from precourant.errors import RankMismatchError
from precourant.exterior import KForm
from precourant.manifest import parse_manifest
from precourant.poly import Poly
from precourant.runner import build_context
from precourant.sampling import random_kernel_section, random_section
from precourant.twoterm import (
    DEGREE1_DOMAIN_NOTE,
    build_leibniz2,
    build_lie2,
    curly_jacobiator,
    t_scalar,
    verify_leibniz2,
    verify_lie2,
    verify_morphism,
)

def test_leibniz2_standard_strict(courant3):
    alg = build_leibniz2(courant3)
    # the trilinear corrector vanishes identically on the standard structure
    b = courant3.bundle
    assert alg.l3(b.frame(0), b.frame(1), b.frame(2)).is_zero()
    assert verify_leibniz2(alg, trials=5, seed=0).ok


def test_leibniz2_twisted(twisted4, std4):
    alg = build_leibniz2(twisted4)
    got = alg.l3(std4.frame(0), std4.frame(1), std4.frame(2))
    assert got == jacobiator(twisted4, std4.frame(0), std4.frame(1), std4.frame(2))
    assert not got.is_zero()
    assert verify_leibniz2(alg, trials=5, seed=0).ok


def test_leibniz2_mixed_degree_stays_in_kernel(twisted4, std4):
    alg = build_leibniz2(twisted4)
    rng = random.Random(2)
    for _ in range(4):
        e = random_section(rng, std4, 1)
        k = random_kernel_section(rng, std4, 1)
        assert anchor_apply(alg.l2(e, k)).is_zero()


def test_leibniz2_rejects_nonkernel_degree1(courant3, std3):
    alg = build_leibniz2(courant3)
    with pytest.raises(RankMismatchError):
        alg.check_degree1(std3.frame(0))


def test_doubled_corrector_fails_b1(twisted4):
    alg = build_leibniz2(twisted4)
    alg.l3 = lambda x, y, z: jacobiator(twisted4, x, y, z).scale(2)
    report = verify_leibniz2(alg, trials=3, seed=0)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "defect-degree0" in failed
    assert any(c.witness for c in report.checks if not c.ok)


def test_zero_algebra_passes(std3):
    from precourant.algebroid import PreCourantAlgebroid, zero_table
    from precourant.bundle import CourantBundle

    chart = std3.chart
    flat = CourantBundle(chart, 2, [[0, 1], [1, 0]], [[Poly.zero(chart)] * 3] * 2)
    p = PreCourantAlgebroid(flat, zero_table(flat))
    assert verify_leibniz2(build_leibniz2(p), trials=3, seed=0).ok
    assert verify_lie2(build_lie2(p), trials=3, seed=0).ok


def test_skew_bracket_and_t_examples(courant3, std3, chart3):
    e = std3.frame(0) + std3.frame(4).scale(Poly.var(chart3, 1))
    assert skew_bracket(courant3, e, e).is_zero()
    t = t_scalar(courant3, std3.frame(0), std3.frame(1), std3.frame(2))
    assert t.is_zero()
    # a cyclic sum that actually produces a scalar
    e1 = std3.frame(0).scale(Poly.var(chart3, 1))
    e2 = std3.frame(3)
    e3 = std3.frame(1)
    got = t_scalar(courant3, e1, e2, e3)
    oracle = (
        pairing(skew_bracket(courant3, e1, e2), e3)
        + pairing(skew_bracket(courant3, e2, e3), e1)
        + pairing(skew_bracket(courant3, e3, e1), e2)
    ) * Fraction(1, 6)
    assert got == oracle


@pytest.mark.parametrize("slot", range(3))
def test_t_scalar_rejects_a_section_of_another_bundle(slot, courant3, std3, std4):
    # like the bracket, T takes sections of its algebroid's bundle in every slot
    es = [std3.frame(0), std3.frame(1), std3.frame(2)]
    es[slot] = std4.frame(0)
    with pytest.raises(RankMismatchError, match="sections not on this algebroid's bundle"):
        t_scalar(courant3, *es)


def test_curly_jacobiator_components(twisted4, courant3, std4, std3):
    # standard: both the corrector and the cyclic scalar vanish on frames
    assert curly_jacobiator(courant3, std3.frame(0), std3.frame(1), std3.frame(2)).is_zero()
    # twisted: component-wise J - D T
    e = [std4.frame(0), std4.frame(1), std4.frame(2)]
    j = jacobiator(twisted4, *e)
    t = t_scalar(twisted4, *e)
    expected = j - dee(std4, t) if not t.is_zero() else j
    assert curly_jacobiator(twisted4, *e) == expected


def test_lie2_suites(courant3, twisted4):
    assert verify_lie2(build_lie2(courant3), trials=3, seed=1, max_degree=1).ok
    report = verify_lie2(build_lie2(twisted4), trials=3, seed=1, max_degree=1)
    assert report.ok
    assert DEGREE1_DOMAIN_NOTE in report.notes


@pytest.mark.parametrize(
    "build, verify, name",
    [(build_leibniz2, verify_leibniz2, "coherence"), (build_lie2, verify_lie2, "homotopy-jacobi")],
    ids=["leibniz", "lie"],
)
@pytest.mark.parametrize("trials", [3, 10])
def test_one_four_slot_identity_per_draw(courant3, monkeypatch, build, verify, name, trials):
    # both flavours evaluate the ten-term coherence once on each battery
    # draw, and the Lie flavour reports it as the homotopy Jacobi identity
    seen = []
    real = twoterm._coherence_defect
    monkeypatch.setattr(twoterm, "_coherence_defect", lambda *a: seen.append(a) or real(*a))
    report = verify(build(courant3), trials=trials, seed=0, max_degree=1)
    assert report.ok
    assert len(seen) == trials
    assert report.checks[-1].name == name


@pytest.mark.parametrize("battery", ["leibniz2", "lie2", "morphism"])
def test_battery_refuses_fewer_than_one_trial(battery, courant3):
    # with no draw every check would pass having scanned nothing
    leibniz = build_leibniz2(courant3)
    zero = KerCochain(Cochain.zero(courant3.bundle, 3))
    run = {
        "leibniz2": lambda trials: verify_leibniz2(leibniz, trials=trials),
        "lie2": lambda trials: verify_lie2(build_lie2(courant3), trials=trials),
        "morphism": lambda trials: verify_morphism(leibniz, leibniz, zero, trials=trials),
    }[battery]
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            run(trials)
    assert run(1).ok


def test_lie2_uncorrected_l3_fails(twisted4):
    # plain J without the D T correction breaks the skew battery
    alg = build_lie2(twisted4)
    alg.l3 = lambda x, y, z: jacobiator(twisted4, x, y, z)
    report = verify_lie2(alg, trials=4, seed=2, max_degree=1)
    assert not report.ok


def test_identity_morphism(twisted4):
    alg = build_leibniz2(twisted4)
    zero = KerCochain(Cochain.zero(alg.bundle, 3))
    assert verify_morphism(alg, alg, zero, trials=4, seed=0, max_degree=1).ok


@pytest.mark.parametrize("build", [build_leibniz2, build_lie2])
def test_deformation_morphism_passes_and_zero_homotopy_fails(build, courant3, std3, chart3):
    # both two-term algebras are stable under the deformation: (id, id, omega)
    # is a morphism onto the deformed one, and no morphism without f2 is
    h = KForm.basis(chart3, [0, 1, 2]).scale(Poly.var(chart3, 0))
    omega = twist_deformation(std3, h)
    deformed = apply_deformation(courant3, omega)
    src, tgt = build(courant3), build(deformed)
    assert verify_morphism(src, tgt, omega, trials=4, seed=1).ok
    report = verify_morphism(src, tgt, KerCochain(Cochain.zero(std3, 3)), trials=4, seed=1)
    assert not report.ok
    assert report.first_failure().startswith("deg0-equation: ")


@pytest.mark.parametrize("build", [build_leibniz2, build_lie2])
def test_morphism_with_a_homotopy_nonzero_on_the_kernel(build):
    # on dissection_rank2 (frames 1-4 tangent, 5-6 auxiliary) this omega pairs
    # the auxiliary frames, so omega(x, k) is nonzero for anchor-kernel k and
    # the mixed equations compare nonzero sides, in the order f2 takes them
    ctx = build_context(parse_manifest(resolve_manifest("dissection_rank2").read_text()))
    p, b = ctx.algebroid, ctx.bundle
    omega = KerCochain(Cochain(b, 3, {(0, 4, 5): Poly.var(b.chart, 0)}))
    assert validate_deformation(p, omega).ok
    rng = random.Random(0)
    k, x = random_kernel_section(rng, b, 1), random_section(rng, b, 1)
    assert not omega.evaluate([x, k]).is_zero()
    target = build(apply_deformation(p, omega))
    assert verify_morphism(build(p), target, omega, trials=3, seed=0, max_degree=1).ok


def test_morphism_flavor_mismatch(courant3):
    src = build_leibniz2(courant3)
    tgt = build_lie2(courant3)
    with pytest.raises(ValueError):
        verify_morphism(src, tgt, KerCochain(Cochain.zero(src.bundle, 3)))
