"""Deformations, B-fields, obstruction forms, naive cohomology, quotient."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from precourant import deform, tasks
from precourant.bundle import pairing, rho_star
from precourant.cochain import Cochain, KerCochain, pullback_form
from precourant.construct import DissectionData, from_dissection
from precourant.deform import (
    apply_deformation,
    bfield_verify,
    check_image_condition,
    default_kernel_generators,
    naive_cohomology_check,
    omega_square,
    pontryagin_representative,
    pontryagin_vanishing_check,
    quotient_jacobi_check,
    twist_deformation,
    validate_deformation,
    verify_deformation_identity,
)
from precourant.cli import resolve_manifest
from precourant.exterior import KForm, ext_d, format_kform
from precourant.manifest import parse_manifest
from precourant.parsing import parse_form
from precourant.poly import Chart, Poly
from precourant.runner import run_manifest
from precourant.sampling import random_form


def extract_deformation(p, deformed):
    """Inverse of apply_deformation: omega(e1, e2) = e1 o~ e2 - e1 o e2."""
    b = p.bundle
    values = {
        (i, j, k): pairing(deformed.table[i][j] - p.table[i][j], b.frame(k))
        for i, j, k in combinations(range(b.rank), 3)
    }
    return KerCochain(Cochain(b, 3, values))


def test_validate_twist_deformation(courant3, std3, chart3):
    h = parse_form(chart3, "x1*dx(1,2,3)")
    omega = twist_deformation(std3, h)
    assert validate_deformation(courant3, omega).ok
    assert validate_deformation(courant3, KerCochain(Cochain.zero(std3, 3))).ok


def test_validate_rejects_nonkernel_image(courant3, std3, chart3):
    # flat pairing a frame pair against a tangent frame: image leaves the kernel
    bad = KerCochain(Cochain(std3, 3, {(0, 1, 3): Poly.const(chart3, 1)}))
    report = validate_deformation(courant3, bad)
    assert not report.ok
    assert any(c.name == "kernel-valued" and not c.ok for c in report.checks)


def test_apply_extract_roundtrip(courant3, std3, chart3):
    h = parse_form(chart3, "x1*dx(1,2,3)")
    omega = twist_deformation(std3, h)
    deformed = apply_deformation(courant3, omega)
    assert extract_deformation(courant3, deformed) == omega
    # zero deformation returns an identical table
    same = apply_deformation(courant3, KerCochain(Cochain.zero(std3, 3)))
    assert same == courant3
    # deform then undo
    minus = KerCochain(-omega.flat)
    assert apply_deformation(deformed, minus) == courant3


def test_validate_rejects_what_apply_adds(courant3, std3, chart3):
    # apply_deformation adds omega as given; validate_deformation rejects it
    bad = KerCochain(Cochain(std3, 3, {(0, 1, 3): Poly.const(chart3, 1)}))
    assert not validate_deformation(courant3, bad).ok
    assert extract_deformation(courant3, apply_deformation(courant3, bad)) == bad


def test_deformation_identity_standard_twist(courant3, std3, chart3):
    h = parse_form(chart3, "x1*dx(1,2,3)")
    omega = twist_deformation(std3, h)
    report = verify_deformation_identity(
        courant3, omega, apply_deformation(courant3, omega), trials=4, seed=0
    )
    assert report.ok
    assert any("vanishes" in n for n in report.notes)


def test_deform_task_validates_and_deforms_once(monkeypatch):
    # the deform task validates omega once and builds the deformed structure
    # once, for the identity and the morphism both
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("validate_deformation", "apply_deformation"):
        wrapper = counted(name, getattr(deform, name))
        for module in (deform, tasks):
            monkeypatch.setattr(module, name, wrapper)
    m = parse_manifest(resolve_manifest("standard_r3").read_text(), name="standard_r3")
    m.trials = 2
    assert run_manifest(m, tasks=["deform"]).ok
    assert calls == {"validate_deformation": 1, "apply_deformation": 1}


def _rank5_dissection():
    """A flat rank-5 auxiliary block with the identity pairing over two
    coordinates."""
    c2 = Chart(["x1", "x2"])
    zero = Poly.zero(c2)
    identity5 = [[Fraction(1 if i == j else 0) for j in range(5)] for i in range(5)]
    return DissectionData(
        chart=c2,
        aux_rank=5,
        aux_pairing=identity5,
        gamma=[[[zero] * 5 for _ in range(5)] for _ in range(2)],
        curvature={},
        psi=KForm.zero(c2, 3),
        fiber_table={},
    )


def _so3_curved_dissection():
    """An so(3) fiber over three coordinates whose connection curvature
    does not match the fiber adjoint of the curvature 2-form."""
    c3 = Chart(["x1", "x2", "x3"])
    zero, one = Poly.zero(c3), Poly.const(c3, 1)
    x1, x2 = Poly.var(c3, 0), Poly.var(c3, 1)
    so3 = {(0, 1): [zero, zero, one], (1, 2): [one, zero, zero], (0, 2): [zero, -one, zero]}

    def skew(a, b, c):
        return [[zero, a, b], [-a, zero, c], [-b, -c, zero]]

    return DissectionData(
        chart=c3,
        aux_rank=3,
        aux_pairing=[[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]],
        gamma=[skew(x2, zero, zero), skew(zero, x1, zero), skew(zero, zero, one)],
        curvature={(0, 1): [Poly.var(c3, 2), zero, zero]},
        psi=KForm.zero(c3, 3),
        fiber_table=so3,
    )


def test_deformation_identity_with_nonzero_square():
    """Deforming inside a rank-5 auxiliary block by a non-decomposable
    alternating form produces a nonvanishing square term.  (Any 3-form on
    four or fewer auxiliary directions is decomposable and its induced
    product satisfies the Jacobi identity, so the square would vanish.)"""
    p = from_dissection(_rank5_dissection())
    b = p.bundle
    one = Poly.const(b.chart, 1)
    # auxiliary frames are 2..6; the flat is vol(123) + vol(145) there
    omega = KerCochain(Cochain(b, 3, {(2, 3, 4): one, (2, 5, 6): one}))
    assert validate_deformation(p, omega).ok
    sq = omega_square(p, omega, b.frame(3), b.frame(4), b.frame(5))
    assert not sq.is_zero()
    report = verify_deformation_identity(
        p, omega, apply_deformation(p, omega), trials=3, seed=1, max_degree=1
    )
    assert report.ok
    assert any("nonzero" in n for n in report.notes)


def test_bfield_examples(courant3, std3, chart3):
    # closed: the transform is an automorphism and the table is unchanged
    closed = bfield_verify(courant3, parse_form(chart3, "dx(1,2)"), trials=4, seed=0)
    assert closed.ok
    assert any(c.name == "closed-beta-identity" for c in closed.checks)
    # x1 dx1^dx2 is also closed on this chart
    rep = bfield_verify(courant3, parse_form(chart3, "x1*dx(1,2)"), trials=4, seed=0)
    assert rep.ok
    # genuinely non-closed: deformation by the pullback of d beta
    rep = bfield_verify(courant3, parse_form(chart3, "x3*dx(1,2)"), trials=4, seed=0)
    assert rep.ok
    assert any("d beta != 0" in n for n in rep.notes)


def test_bfield_zero_is_identity(courant3, std3, chart3):
    b_sharp = KerCochain(pullback_form(std3, KForm.zero(chart3, 2)))
    e = std3.frame(0) + std3.frame(4).scale(Poly.var(chart3, 0))
    assert e + b_sharp.evaluate([e]) == e


def test_bfield_twisted_bundle(twisted4, chart4):
    rep = bfield_verify(twisted4, parse_form(chart4, "x3*dx(1,2)"), trials=3, seed=0, max_degree=1)
    assert rep.ok


def test_pontryagin_representative_twisted(twisted4, std4, chart4, twist_h4):
    lift = [std4.frame(i) for i in range(4)]
    form, report = pontryagin_representative(twisted4, lift)
    assert report.ok
    assert form == ext_d(twist_h4)
    assert format_kform(form) == "(-1)*dx(1,2,3,4)"
    assert ext_d(form).is_zero()


def test_pontryagin_representative_standard_zero(courant3, std3):
    lift = [std3.frame(i) for i in range(3)]
    form, report = pontryagin_representative(courant3, lift)
    assert report.ok
    assert form.is_zero()


def test_pontryagin_lift_independence(twisted4, std4, chart4):
    lift = [std4.frame(i) for i in range(4)]
    shifted = [
        lift[i] + rho_star(std4, random_form(random.Random(i), chart4, 1))
        for i in range(4)
    ]
    h1, _ = pontryagin_representative(twisted4, lift)
    h2, rep = pontryagin_representative(twisted4, shifted)
    assert rep.ok
    assert h1 == h2


def test_pontryagin_rejects_bad_lift(twisted4, std4):
    bad = [std4.frame(0)] * 4
    form, report = pontryagin_representative(twisted4, bad)
    assert form is None
    assert report.skipped


def test_pontryagin_vanishing(twisted4, twist_h4, chart4, courant3, chart3):
    report = pontryagin_vanishing_check(twisted4, twist_h4)
    assert report.ok
    # a wrong 3-form fails at the comparison
    report = pontryagin_vanishing_check(twisted4, KForm.zero(chart4, 3))
    assert not report.ok
    assert report.first_failure().startswith("jflat-equals-pullback-dh: ")
    # the standard structure passes with any closed 3-form
    report = pontryagin_vanishing_check(courant3, KForm.basis(chart3, [0, 1, 2]))
    assert report.ok


def test_naive_cohomology_twisted(twisted4, std4, chart4):
    rng = random.Random(5)
    samples = [pullback_form(std4, random_form(rng, chart4, 2)) for _ in range(3)]
    samples += [pullback_form(std4, random_form(rng, chart4, 1)) for _ in range(2)]
    lift = [std4.frame(i) for i in range(4)]
    report = naive_cohomology_check(twisted4, samples, lift)
    assert report.ok


def test_naive_cohomology_precondition_fails_with_witness():
    """A dissection whose connection curvature does not match the fiber
    adjoint has Jacobiator values outside the kernel's orthogonal; the
    squared coboundary then exhibits a counterexample."""
    p = from_dissection(_so3_curved_dissection())
    generators = default_kernel_generators(p)
    assert check_image_condition(p, generators)
    # pullback samples cannot witness the failure (they kill the anchor of
    # the Jacobiator); an auxiliary-frame covector can
    b = p.bundle
    samples = [Cochain(b, 1, {(j,): pairing(b.frame(3), b.frame(j)) for j in range(b.rank)})]
    report = naive_cohomology_check(p, samples)
    assert not report.ok
    d_squared_failures = [
        c for c in report.checks if "squared" in c.name and not c.ok
    ]
    assert d_squared_failures and d_squared_failures[0].witness


def test_quotient_jacobi_twisted_and_standard(twisted4, std4, courant3, std3):
    lift4 = [std4.frame(i) for i in range(4)]
    comp4 = [std4.frame(i) for i in range(4)]
    assert quotient_jacobi_check(twisted4, comp4, lift4, trials=3, seed=0, max_degree=1).ok
    lift3 = [std3.frame(i) for i in range(3)]
    comp3 = [std3.frame(i) for i in range(3)]
    assert quotient_jacobi_check(courant3, comp3, lift3, trials=3, seed=0, max_degree=1).ok


def test_quotient_jacobi_precondition_failure():
    p = from_dissection(_so3_curved_dissection())
    b = p.bundle
    lift = [b.frame(i) for i in range(3)]
    comp = [b.frame(i) for i in range(6)]
    report = quotient_jacobi_check(p, comp, lift, trials=2, seed=0)
    assert report.skipped
    assert not report.ok
