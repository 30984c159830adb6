"""Bracket extension against an independently coded Dorfman oracle, the
axiom verifiers, and the Jacobiator examples."""

import random
from fractions import Fraction

from precourant.algebroid import (
    PreCourantAlgebroid,
    bracket,
    jacobiator,
    skew_bracket,
    verify_axioms,
    verify_derived_identities,
    zero_table,
)
from precourant.bundle import anchor_apply, dee, pairing, rho_star
from precourant.exterior import KForm, VectorField, contract, ext_d, vf_apply
from precourant.poly import Poly
from precourant.sampling import random_section


def split(bundle, e):
    """Tangent field and cotangent 1-form of a generalized section."""
    n = bundle.chart.dim
    x = VectorField(bundle.chart, e.coeffs[:n])
    xi = KForm(bundle.chart, 1, {(m,): e.coeffs[n + m] for m in range(n)})
    return x, xi


def join(bundle, x, xi):
    n = bundle.chart.dim
    coeffs = list(x.coeffs) + [xi.value_at((m,)) for m in range(n)]
    return bundle.section(coeffs)


def lie_derivative(x, a):
    """The Cartan formula L_X = i_X d + d i_X on a form of degree >= 1."""
    return contract(x, ext_d(a)) + ext_d(contract(x, a))


def dorfman_oracle(bundle, e1, e2, h=None):
    """[X,Y] + L_X eta - i_Y d xi + h(X, Y, .), straight from the calculus."""
    from precourant.exterior import vf_bracket

    x, xi = split(bundle, e1)
    y, eta = split(bundle, e2)
    field = vf_bracket(x, y)
    form = lie_derivative(x, eta) - contract(y, ext_d(xi))
    if h is not None:
        form = form + contract(y, contract(x, h))
    return join(bundle, field, form)


def test_bracket_matches_dorfman_on_examples(courant3, std3, chart3):
    x1 = Poly.var(chart3, 0)
    e1 = std3.frame(0)
    e2 = std3.frame(4).scale(x1)  # x1 dx2
    assert bracket(courant3, e1, e2) == std3.frame(4)
    assert bracket(courant3, std3.frame(1).scale(x1), std3.frame(0)) == -std3.frame(1)
    # constant sections over the zero table bracket to zero
    assert bracket(courant3, std3.frame(2) + std3.frame(5), std3.frame(0)).is_zero()


def test_bracket_matches_dorfman_random(courant3, std3):
    rng = random.Random(7)
    for _ in range(8):
        e1 = random_section(rng, std3, 2)
        e2 = random_section(rng, std3, 2)
        assert bracket(courant3, e1, e2) == dorfman_oracle(std3, e1, e2)


def test_twisted_bracket_matches_twisted_dorfman(twisted4, std4, twist_h4):
    rng = random.Random(8)
    for _ in range(6):
        e1 = random_section(rng, std4, 2)
        e2 = random_section(rng, std4, 2)
        assert bracket(twisted4, e1, e2) == dorfman_oracle(std4, e1, e2, twist_h4)


def test_extension_orders_agree(twisted4, std4):
    """Expanding the first argument first agrees with the second-first order."""

    def bracket_first_argument_first(p, e1, e2):
        b = p.bundle
        out = b.zero_section()
        frames = b.frames()
        for i, fi in enumerate(e1.coeffs):
            if fi.is_zero():
                continue
            # u_i o e2 by the second-argument rule
            inner = b.zero_section()
            rho_ui = anchor_apply(frames[i])
            for j, gj in enumerate(e2.coeffs):
                if not gj.is_zero():
                    inner = inner + p.table[i][j].scale(gj)
                der = vf_apply(rho_ui, gj)
                if not der.is_zero():
                    inner = inner + frames[j].scale(der)
            out = out + inner.scale(fi)
            der = vf_apply(anchor_apply(e2), fi)
            if not der.is_zero():
                out = out - frames[i].scale(der)
            pr = pairing(frames[i], e2)
            if not pr.is_zero():
                dfi = dee(b, fi)
                if not dfi.is_zero():
                    out = out + dfi.scale(pr)
        return out

    rng = random.Random(9)
    for _ in range(6):
        e1 = random_section(rng, std4, 2)
        e2 = random_section(rng, std4, 2)
        assert bracket(twisted4, e1, e2) == bracket_first_argument_first(twisted4, e1, e2)


def test_verify_axioms_standard_and_twisted(courant3, twisted4):
    assert verify_axioms(courant3, trials=6, seed=0).ok
    assert verify_axioms(twisted4, trials=4, seed=0).ok


def test_verify_axioms_catches_broken_table(std3):
    table = zero_table(std3)
    # rho(table[0][1]) != 0 although the anchors of the frames commute
    table[0][1] = std3.frame(0)
    bad = PreCourantAlgebroid(std3, table)
    report = verify_axioms(bad, trials=2, seed=0)
    assert not report.ok
    failed = [c for c in report.checks if not c.ok]
    assert any(c.name == "axiom-i-frames" for c in failed)
    assert any(c.witness for c in failed)


def test_verify_axioms_reports_invalid_bundle(chart3, std3):
    from precourant.bundle import CourantBundle

    anchor = [list(row) for row in std3.anchor]
    anchor[3][0] = Poly.const(chart3, 1)
    bad_bundle = CourantBundle(chart3, 6, std3.metric, anchor)
    bad = PreCourantAlgebroid(bad_bundle, zero_table(bad_bundle))
    report = verify_axioms(bad, trials=2, seed=0)
    assert not report.ok
    assert report.checks[0].name == "bundle-valid"
    assert not report.checks[0].ok


def test_derived_identities(courant3, twisted4, std3, chart3):
    assert verify_derived_identities(courant3, trials=6, seed=1).ok
    assert verify_derived_identities(twisted4, trials=4, seed=1).ok
    x1 = Poly.var(chart3, 0)
    # (D x1) o d2 = 0 and d1 o D(x1) = D(1) = 0
    assert bracket(courant3, dee(std3, x1), std3.frame(1)).is_zero()
    assert bracket(courant3, std3.frame(0), dee(std3, x1)).is_zero()
    assert anchor_apply(dee(std3, x1 * Poly.var(chart3, 1))).is_zero()


def test_jacobiator_standard_zero(courant3, std3):
    rng = random.Random(11)
    from itertools import combinations

    for i, j, k in combinations(range(6), 3):
        assert jacobiator(courant3, std3.frame(i), std3.frame(j), std3.frame(k)).is_zero()
    for _ in range(4):
        es = [random_section(rng, std3, 2) for _ in range(3)]
        assert jacobiator(courant3, *es).is_zero()


def test_jacobiator_twisted_value(twisted4, std4, chart4):
    got = jacobiator(twisted4, std4.frame(0), std4.frame(1), std4.frame(2))
    assert got == -rho_star(std4, KForm.basis(chart4, [3]))
    # annihilated by derivative sections
    x1 = Poly.var(chart4, 0)
    assert jacobiator(twisted4, dee(std4, x1), std4.frame(1), std4.frame(5)).is_zero()


def test_skew_bracket_example(courant3, std3, chart3):
    x2 = Poly.var(chart3, 1)
    e1 = std3.frame(0) + std3.frame(3).scale(x2)  # d1 + x2 dx1
    e2 = std3.frame(1)
    got = skew_bracket(courant3, e1, e2)
    # Courant-bracket oracle: [X,Y] + L_X eta - L_Y xi - (1/2) d(i_X eta - i_Y xi)
    from precourant.exterior import vf_bracket

    x = VectorField.coordinate(chart3, 0)
    y = VectorField.coordinate(chart3, 1)
    xi = KForm.basis(chart3, [0]).scale(x2)
    eta = KForm.zero(chart3, 1)
    pairing_form = contract(x, eta) - contract(y, xi)
    form = (
        lie_derivative(x, eta)
        - lie_derivative(y, xi)
        - ext_d(pairing_form).scale(Fraction(1, 2))
    )
    n = chart3.dim
    expected = std3.section(
        list(vf_bracket(x, y).coeffs) + [form.value_at((m,)) for m in range(n)]
    )
    assert got == expected
    # skew-symmetrization kills the diagonal
    assert skew_bracket(courant3, e1, e1).is_zero()
