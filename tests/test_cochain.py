"""Cochain membership, sharp/flat, both coboundaries, the commutation
lemma and the Jacobiator theorem suite."""

import random
from itertools import combinations

import pytest

from precourant.algebroid import PreCourantAlgebroid, jacobiator, zero_table
from precourant.bundle import dee, pairing, rho_star
from precourant.cochain import (
    Cochain,
    KerCochain,
    cobound_d,
    cobound_partial,
    cochain_sharp,
    is_in_ckd,
    jacobiator_flat,
    partial_section_values,
    pullback_form,
    verify_comm_lemma,
    verify_jacobiator_theorem,
)
from precourant.deform import twist_deformation
from precourant.errors import MembershipError
from precourant.exterior import KForm, evaluate
from precourant.poly import Poly
from precourant.sampling import random_form, random_section


def section_covector(e):
    """A section viewed as the 1-cochain <e, .>."""
    b = e.bundle
    return Cochain(b, 1, {(j,): pairing(e, b.frame(j)) for j in range(b.rank)})


def test_membership_subtle_regression(std3, chart3):
    # the pullback of dx1 IS a member: the anchor image is isotropic, so
    # contracting with any D x_m gives <rho* dx1, rho* dx_m> = 0
    psi = section_covector(rho_star(std3, KForm.basis(chart3, [0])))
    assert is_in_ckd(psi) is None
    # the tangent-frame covector is not: i_{D x1} pairs to 1
    witness = is_in_ckd(section_covector(std3.frame(0)))
    assert "Dx1" in witness.replace("D x1", "Dx1")
    assert is_in_ckd(Cochain.zero(std3, 2)) is None


def test_membership_pullbacks_any_degree(std4, chart4):
    rng = random.Random(0)
    for degree in (1, 2, 3):
        psi = pullback_form(std4, random_form(rng, chart4, degree))
        assert is_in_ckd(psi) is None


def test_sharp_flat_roundtrip(twisted4):
    jflat = jacobiator_flat(twisted4)
    assert not jflat.is_zero()
    phi = cochain_sharp(jflat)
    assert phi.flat == jflat
    # defining relation on a frame triple
    b = twisted4.bundle
    for idx in list(combinations(range(b.rank), 4))[:6]:
        lhs = pairing(phi.value_at(idx[:3]), b.frame(idx[3]))
        assert lhs == jflat.value_at(idx)


def test_sharp_rejects_nonmembers(std3):
    bad = section_covector(std3.frame(0))
    with pytest.raises(MembershipError):
        cochain_sharp(bad)


def test_sharp_of_zero(std3):
    z = cochain_sharp(Cochain.zero(std3, 2))
    assert z.value_at((0,)).is_zero()


def test_cochain_evaluation_alternates(twisted4, std4):
    jflat = jacobiator_flat(twisted4)
    rng = random.Random(1)
    e = [random_section(rng, std4, 1) for _ in range(4)]
    base = evaluate(jflat, e)
    swapped = evaluate(jflat, [e[1], e[0], e[2], e[3]])
    assert swapped == -base
    assert evaluate(jflat, [e[0], e[0], e[2], e[3]]).is_zero()


def test_cobound_d_degree_zero_reproduces_dee(courant3, std3, chart3):
    f = Poly.var(chart3, 0) * Poly.var(chart3, 1)
    psi = Cochain(std3, 0, {(): f})
    dpsi = cobound_d(courant3, psi)
    expected = section_covector(dee(std3, f))
    assert dpsi == expected


def test_cobound_d_annihilates_jacobiator_flat(twisted4):
    jflat = jacobiator_flat(twisted4)
    assert cobound_d(twisted4, jflat).is_zero()
    assert cobound_d(twisted4, Cochain.zero(twisted4.bundle, 2)).is_zero()


def test_cobound_d_requires_membership(courant3, std3):
    with pytest.raises(MembershipError):
        cobound_d(courant3, section_covector(std3.frame(0)))


def test_partial_of_twist_equals_twisted_jacobiator(std4, chart4, twist_h4, twisted4):
    # deform the untwisted structure by the pullback twist; the covariant
    # derivative of the twist evaluated on tangent frames is the deformed
    # Jacobiator because the square term vanishes
    base = PreCourantAlgebroid(std4, zero_table(std4))
    omega = twist_deformation(std4, twist_h4)
    values = partial_section_values(base, omega)
    got = values[(0, 1, 2)]
    expected = jacobiator(twisted4, std4.frame(0), std4.frame(1), std4.frame(2))
    assert got == expected
    assert got == -rho_star(std4, KForm.basis(chart4, [3]))


def test_partial_of_zero(courant3, std3):
    zero = KerCochain(Cochain.zero(std3, 3))
    out = cobound_partial(courant3, zero)
    assert out.flat.is_zero()


def test_comm_lemma_on_samples(twisted4, std4, chart4):
    rng = random.Random(3)
    samples = [pullback_form(std4, random_form(rng, chart4, 2)) for _ in range(3)]
    samples.append(jacobiator_flat(twisted4))
    samples.append(Cochain.zero(std4, 2))
    report = verify_comm_lemma(twisted4, samples)
    assert report.ok


def test_comm_lemma_gates_on_membership(twisted4, std4, chart4):
    # a 2-cochain pairing a tangent frame against a cotangent one is not
    # killed by D x1, so the lemma must refuse it instead of comparing
    bad = Cochain(std4, 2, {(0, 4): Poly.const(chart4, 1)})
    report = verify_comm_lemma(twisted4, [bad])
    assert not report.ok
    assert "membership" in report.first_failure()


def test_jacobiator_theorem_standard_and_twisted(courant3, twisted4):
    rep = verify_jacobiator_theorem(courant3, trials=4, seed=0)
    assert rep.ok
    rep = verify_jacobiator_theorem(twisted4, trials=4, seed=0)
    assert rep.ok
    names = [c.name for c in rep.checks]
    for expected in (
        "skew-symmetric",
        "tensorial",
        "kernel-valued",
        "flat-alternating",
        "derivative-slot-vanishes",
        "flat-membership",
        "partial-j-zero",
        "d-jflat-zero",
    ):
        assert expected in names


def test_jacobiator_theorem_gates_on_axioms(std3):
    table = zero_table(std3)
    # break axiom (iii): metric invariance fails for this entry
    table[0][1] = std3.frame(3)
    broken = PreCourantAlgebroid(std3, table)
    report = verify_jacobiator_theorem(broken, trials=2, seed=0)
    assert report.skipped
    assert not report.ok
    assert report.checks[0].name == "precondition-axioms"
