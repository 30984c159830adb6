import pytest

from precourant.bundle import (
    CourantBundle,
    anchor_apply,
    dee,
    kernel_coisotropy_check,
    pairing,
    rho_star,
    validate_bundle,
)
from precourant.errors import ConstructionError, RankMismatchError
from precourant.exterior import KForm, VectorField, vf_apply
from precourant.poly import Chart, Poly
from precourant.sampling import random_form, random_section
import random


def test_standard_bundle_valid(std3):
    report = validate_bundle(std3)
    assert report.ok and not report.checks


def test_validate_fails_when_anchor_hits_cotangent(chart3, std3):
    # additionally anchor dx1 onto the first coordinate direction
    anchor = [list(row) for row in std3.anchor]
    anchor[3][0] = Poly.const(chart3, 1)
    bad = CourantBundle(chart3, 6, std3.metric, anchor)
    report = validate_bundle(bad)
    assert not report.ok
    assert any("anchor-not-isotropic" in c.name for c in report.checks)


def test_bundle_refuses_singular_metric(chart3):
    with pytest.raises(ConstructionError) as err:
        CourantBundle(chart3, 2, [[1, 2], [2, 4]], [[Poly.zero(chart3)] * 3] * 2)
    assert (err.value.code, err.value.witness) == ("metric-singular", "")


def test_bundle_refuses_skewed_metric():
    # entry (2,3) is 2 but entry (3,2) is 0
    c = Chart(["x1", "x2"])
    metric = [[0, 0, 1, 0], [0, 0, 2, 1], [1, 0, 0, 0], [0, 1, 0, 3]]
    with pytest.raises(ConstructionError) as err:
        CourantBundle(c, 4, metric, [[Poly.zero(c)] * 2] * 4)
    assert (err.value.code, err.value.witness) == ("metric-not-symmetric", "(2,3)")


def test_trivial_rank_one_bundle(chart3):
    b = CourantBundle(chart3, 1, [[1]], [[Poly.zero(chart3)] * 3])
    assert validate_bundle(b).ok


def test_pairing_examples(std3, chart3):
    d1 = std3.frame(0)
    dx1 = std3.frame(3)
    assert pairing(d1, dx1) == Poly.const(chart3, 1)
    assert pairing(d1, std3.frame(1)).is_zero()
    x1 = Poly.var(chart3, 0)
    assert pairing(d1.scale(x1), dx1) == x1
    assert pairing(dx1, d1) == pairing(d1, dx1)


def test_anchor_examples(std3, chart3):
    assert anchor_apply(std3.frame(0)) == VectorField.coordinate(chart3, 0)
    assert anchor_apply(std3.frame(3)).is_zero()
    x2 = Poly.var(chart3, 1)
    e = std3.frame(0).scale(x2) + std3.frame(5)
    assert anchor_apply(e) == VectorField.coordinate(chart3, 0).scale(x2)


def test_rho_star_examples(std3, chart3):
    assert rho_star(std3, KForm.basis(chart3, [0])) == std3.frame(3)
    # zero anchor bundle sends everything to zero
    b0 = CourantBundle(chart3, 2, [[0, 1], [1, 0]], [[Poly.zero(chart3)] * 3] * 2)
    assert rho_star(b0, KForm.basis(chart3, [1])).is_zero()
    rng = random.Random(0)
    for _ in range(4):
        xi = random_form(rng, chart3, 1)
        assert anchor_apply(rho_star(std3, xi)).is_zero()


def test_dee_examples(std3, chart3):
    x1, x2 = Poly.var(chart3, 0), Poly.var(chart3, 1)
    assert dee(std3, x1) == std3.frame(3)
    assert dee(std3, Poly.const(chart3, 7)).is_zero()
    expected = std3.frame(3).scale(x2) + std3.frame(4).scale(x1)
    assert dee(std3, x1 * x2) == expected


def test_dee_defining_property(std3, chart3):
    rng = random.Random(1)
    for _ in range(5):
        from precourant.sampling import random_poly

        f = random_poly(rng, chart3, 3)
        e = random_section(rng, std3, 2)
        assert pairing(dee(std3, f), e) == vf_apply(anchor_apply(e), f)


def test_section_rank_mismatch(std3, chart3):
    with pytest.raises(RankMismatchError):
        std3.section([Poly.zero(chart3)] * 5)


def test_coisotropy_standard(std3):
    report = kernel_coisotropy_check(std3, [(0, 0, 0), (1, 2, 3)])
    assert report.ok
    assert report.notes == [
        "point ('0', '0', '0'): anchor rank 3",
        "point ('1', '2', '3'): anchor rank 3",
    ]


def test_coisotropy_isotropic_kernel_passes():
    # rank 2 over a 2-dim chart, both frames anchored on the first direction;
    # the kernel is spanned by the difference, isotropic for diag(1,-1)
    c = Chart(["x", "y"])
    one, zero = Poly.const(c, 1), Poly.zero(c)
    b = CourantBundle(c, 2, [[1, 0], [0, -1]], [[one, zero], [one, zero]])
    report = kernel_coisotropy_check(b, [(0, 0), (5, -1)])
    assert report.ok
    assert report.notes == ["point ('0', '0'): anchor rank 1", "point ('5', '-1'): anchor rank 1"]


def test_coisotropy_failure_detected():
    c = Chart(["x", "y"])
    one, zero = Poly.const(c, 1), Poly.zero(c)
    b = CourantBundle(c, 2, [[1, 0], [0, 1]], [[one, zero], [zero, zero]])
    report = kernel_coisotropy_check(b, [(0, 0)])
    assert not report.ok
    assert report.checks[0].witness
