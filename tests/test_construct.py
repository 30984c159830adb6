"""Builders: connection pairs, quadratic doubles, twisted actions,
dissections, and their closed-form checks."""

from fractions import Fraction
from itertools import combinations

import pytest

from precourant.algebroid import bracket, jacobiator, verify_axioms
from precourant.bundle import CourantBundle
from precourant.cochain import verify_jacobiator_theorem
from precourant.construct import (
    DissectionData,
    curvature_square_form,
    dissection_flatness_conditions,
    dissection_jacobiator_check,
    dissection_pontryagin,
    double,
    from_connection_beta,
    from_dissection,
    from_twisted_action,
    make_twisted_action,
    quadratic_lie_algebra,
    validate_lie,
    validate_quadratic_lie,
    validate_twisted_action,
)
from precourant.deform import pontryagin_representative, twist_deformation
from precourant.errors import ConstructionError
from precourant.exterior import KForm, evaluate, VectorField
from precourant.parsing import parse_form
from precourant.poly import Chart, Poly


# --- connection + corrector ------------------------------------------------


def frame_derivatives(b, gamma):
    """The sections nabla_m u_a = sum_c gamma[m][c][a] u_c of the connection
    matrices gamma[m], the form `from_connection_beta` takes."""
    return [[b.section([g_m[c][a] for c in range(b.rank)]) for a in range(b.rank)]
            for g_m in gamma]


def test_connection_beta_standard_reduction(std3, chart3, courant3):
    r, n = std3.rank, chart3.dim
    zero = Poly.zero(chart3)
    gamma = [[[zero] * r for _ in range(r)] for _ in range(n)]
    beta = [[std3.zero_section() for _ in range(r)] for _ in range(r)]
    p = from_connection_beta(std3, frame_derivatives(std3, gamma), beta)
    assert p == courant3


def test_connection_beta_twist_matches_twisted(std4, chart4, twisted4, twist_h4):
    r, n = std4.rank, chart4.dim
    zero = Poly.zero(chart4)
    gamma = [[[zero] * r for _ in range(r)] for _ in range(n)]
    omega = twist_deformation(std4, twist_h4)
    beta = [
        [omega.value_at((i, j)) for j in range(r)]
        for i in range(r)
    ]
    p = from_connection_beta(std4, frame_derivatives(std4, gamma), beta)
    assert p == twisted4


def test_connection_beta_rejects_non_skew(std3, chart3):
    r, n = std3.rank, chart3.dim
    zero = Poly.zero(chart3)
    gamma = [[[zero] * r for _ in range(r)] for _ in range(n)]
    beta = [[std3.zero_section() for _ in range(r)] for _ in range(r)]
    beta[0][1] = std3.frame(3)  # not balanced by beta[1][0]
    with pytest.raises(ConstructionError) as err:
        from_connection_beta(std3, frame_derivatives(std3, gamma), beta)
    assert "skew" in err.value.code


def test_connection_beta_rejects_non_metric_connection(std3, chart3):
    r, n = std3.rank, chart3.dim
    zero, one = Poly.zero(chart3), Poly.const(chart3, 1)
    gamma = [[[zero] * r for _ in range(r)] for _ in range(n)]
    gamma[0][0][0] = one  # pairs tangent frame 0 against cotangent frame 3
    beta = [[std3.zero_section() for _ in range(r)] for _ in range(r)]
    with pytest.raises(ConstructionError) as err:
        from_connection_beta(std3, frame_derivatives(std3, gamma), beta)
    assert err.value.code == "connection-not-metric"


def test_connection_beta_nonflat_metric_connection(chart3):
    """A genuinely curved metric connection on a rank-2 bundle with zero
    anchor: the builder accepts it and the axioms hold."""
    b = CourantBundle(chart3, 2, [[1, 0], [0, 1]], [[Poly.zero(chart3)] * 3] * 2)
    zero = Poly.zero(chart3)
    x1 = Poly.var(chart3, 0)
    # so(2)-valued connection depending on x1
    gamma = [
        [[zero, -x1], [x1, zero]],
        [[zero, zero], [zero, zero]],
        [[zero, zero], [zero, zero]],
    ]
    beta = [[b.zero_section()] * 2 for _ in range(2)]
    p = from_connection_beta(b, frame_derivatives(b, gamma), beta)
    assert verify_axioms(p, trials=4, seed=0).ok
    assert verify_jacobiator_theorem(p, trials=3, seed=0, max_degree=1).ok


# --- quadratic algebras and doubles ----------------------------------------


def test_validate_quadratic_examples():
    so3 = quadratic_lie_algebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    assert validate_quadratic_lie(so3).ok
    broken = quadratic_lie_algebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, 1, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    report = validate_quadratic_lie(broken)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "jacobi" in failed or "pairing-invariant" in failed


def test_double_of_abelian_line():
    ab = quadratic_lie_algebra(1, {}, None)
    dab = double(ab)
    assert dab.dim == 2
    assert validate_quadratic_lie(dab).ok
    assert dab.pairing == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def test_double_of_nonabelian():
    g = quadratic_lie_algebra(2, {(0, 1): [0, 1]}, None)
    assert validate_lie(g).ok
    d = double(g)
    assert d.dim == 4
    report = validate_quadratic_lie(d)
    assert report.ok
    # the coadjoint action: [a, b*] = -b*, [b, b*] = a*
    assert d.structure[0][3] == ((3, -1),)
    assert d.structure[1][3] == ((2, 1),)


def test_double_rejects_non_lie():
    # [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e1 breaks the Jacobi identity
    bad = quadratic_lie_algebra(
        3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [-1, 0, 0]}, None
    )
    assert not validate_lie(bad).ok
    with pytest.raises(ConstructionError):
        double(bad)


# --- twisted actions ---------------------------------------------------------


def _synthetic_action():
    c4 = Chart(["x1", "x2", "x3", "x4"])
    g4 = quadratic_lie_algebra(4, {(0, 1): [0, 1, 0, 0]}, None)
    d8 = double(g4)
    zero, one = Poly.zero(c4), Poly.const(c4, 1)
    x1, x4 = Poly.var(c4, 0), Poly.var(c4, 3)
    rows = [[zero] * 4 for _ in range(8)]
    rows[0][0] = one
    rows[1][0] = x1 * x1
    rows[1][1] = one
    rows[2][2] = one
    rows[3][3] = one
    k_entries = {(0, 1): [x1 * 2, Poly.const(c4, -1), zero, zero, zero, zero, x4, zero]}
    return make_twisted_action(d8, c4, rows, k_entries, [[0, 0, 0, 0], [1, 2, 1, -1]])


def test_untwisted_action_is_courant():
    c1 = Chart(["x1"])
    ab2 = quadratic_lie_algebra(2, {}, [[0, 1], [1, 0]])
    zero, one = Poly.zero(c1), Poly.const(c1, 1)
    ta = make_twisted_action(ab2, c1, [[one], [zero]], {}, [[0], [2]])
    assert validate_twisted_action(ta).ok
    p = from_twisted_action(ta)
    assert verify_axioms(p, trials=4, seed=0).ok
    b = p.bundle
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert jacobiator(p, b.frame(i), b.frame(j), b.frame(k)).is_zero()


def test_twisted_action_needs_a_pairing():
    # a plain Lie algebra, the input of `double`, has no metric for the bundle
    c1 = Chart(["x1"])
    with pytest.raises(ConstructionError) as err:
        make_twisted_action(quadratic_lie_algebra(1, {}, None), c1, [[Poly.zero(c1)]], {}, [[0]])
    assert err.value.code == "missing-pairing"
    assert "quadratic Lie algebra" in err.value.witness


def test_zero_anchor_action_is_pointwise_lie():
    c1 = Chart(["x1"])
    so3 = quadratic_lie_algebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    zero = Poly.zero(c1)
    ta = make_twisted_action(so3, c1, [[zero]] * 3, {}, [[0]])
    assert validate_twisted_action(ta).ok
    p = from_twisted_action(ta)
    b = p.bundle
    # the bracket is the pointwise algebra bracket; its Jacobiator vanishes
    assert bracket(p, b.frame(0), b.frame(1)) == b.frame(2)
    for i, j, k in combinations(range(3), 3):
        assert jacobiator(p, b.frame(i), b.frame(j), b.frame(k)).is_zero()


def test_synthetic_twisted_action_full_suite():
    ta = _synthetic_action()
    assert validate_twisted_action(ta).ok
    p = from_twisted_action(ta)
    assert verify_axioms(p, trials=4, seed=0).ok
    report = verify_jacobiator_theorem(p, trials=3, seed=1, max_degree=1)
    assert report.ok
    b = p.bundle
    j = jacobiator(p, b.frame(0), b.frame(1), b.frame(2))
    assert not j.is_zero()


def test_twisted_action_defect_must_kill_kernel():
    ta = _synthetic_action()
    chart = ta.bundle.chart
    zero, one = Poly.zero(chart), Poly.const(chart, 1)
    # a defect pairing a kernel direction (the 5th basis element is a dual
    # vector with zero anchor) against the first one
    bad = make_twisted_action(
        ta.algebra,
        chart,
        ta.bundle.anchor,
        {(4, 0): [one, zero, zero, zero, zero, zero, zero, zero]},
        ta.sample_points,
    )
    report = validate_twisted_action(bad)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "defect-kills-kernel" in failed


def test_twisted_action_anchor_equation_violation():
    c4 = Chart(["x1", "x2", "x3", "x4"])
    g4 = quadratic_lie_algebra(4, {(0, 1): [0, 1, 0, 0]}, None)
    d8 = double(g4)
    zero, one = Poly.zero(c4), Poly.const(c4, 1)
    x1 = Poly.var(c4, 0)
    rows = [[zero] * 4 for _ in range(8)]
    rows[0][0] = one
    rows[1][0] = x1 * x1
    rows[1][1] = one
    rows[2][2] = one
    rows[3][3] = one
    # wrong defect: misses the commutator correction entirely
    bad = make_twisted_action(d8, c4, rows, {}, [[0, 0, 0, 0]])
    report = validate_twisted_action(bad)
    assert not report.ok
    assert any(c.name == "anchor-defect-equation" and not c.ok for c in report.checks)


# --- dissections -------------------------------------------------------------


def _flat_dissection():
    c4 = Chart(["x1", "x2", "x3", "x4"])
    zero, one = Poly.zero(c4), Poly.const(c4, 1)
    return DissectionData(
        chart=c4,
        aux_rank=2,
        aux_pairing=[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
        gamma=[[[zero, zero], [zero, zero]] for _ in range(4)],
        curvature={(0, 1): [one, zero], (2, 3): [zero, one]},
        psi=KForm.zero(c4, 3),
        fiber_table={},
    )


def test_degenerate_dissection_is_standard(courant3, chart3):
    dd = DissectionData(
        chart=chart3,
        aux_rank=0,
        aux_pairing=[],
        gamma=[[] for _ in range(3)],
        curvature={},
        psi=KForm.zero(chart3, 3),
        fiber_table={},
    )
    p = from_dissection(dd)
    assert p == courant3


def test_flat_dissection_jacobiator_and_pontryagin():
    dd = _flat_dissection()
    p = from_dissection(dd)
    assert verify_axioms(p, trials=4, seed=0).ok
    assert dissection_jacobiator_check(p, dd).ok
    assert dissection_flatness_conditions(dd).ok
    h_form, report = dissection_pontryagin(p, dd)
    assert report.ok
    # half the curvature square, no 3-form correction
    assert h_form == curvature_square_form(dd).scale(Fraction(1, 2))
    assert evaluate(
        h_form,
        [VectorField.coordinate(dd.chart, i) for i in range(4)],
    ) == Poly.const(dd.chart, 1)
    # the Jacobiator route carries the opposite sign (see decisions ledger)
    lift = [p.bundle.frame(i) for i in range(4)]
    j_route, jrep = pontryagin_representative(p, lift)
    assert jrep.ok
    assert j_route == -h_form


def _so3_dissection():
    """An so(3) fiber over three coordinates, with a curved connection, a
    curvature that does not match it and a 3-form."""
    c3 = Chart(["x1", "x2", "x3"])
    zero, one = Poly.zero(c3), Poly.const(c3, 1)
    x1, x2, x3 = (Poly.var(c3, i) for i in range(3))
    so3 = {(0, 1): [zero, zero, one], (1, 2): [one, zero, zero], (0, 2): [zero, -one, zero]}

    def skew(a, b, c):
        return [[zero, a, b], [-a, zero, c], [-b, -c, zero]]

    return DissectionData(
        chart=c3,
        aux_rank=3,
        aux_pairing=[[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]],
        gamma=[skew(x2, zero, zero), skew(zero, x1, zero), skew(zero, zero, one)],
        curvature={(0, 1): [x3, zero, zero], (0, 2): [zero, one, zero], (1, 2): [zero, zero, x1]},
        psi=parse_form(c3, "x1*dx(1,2,3)"),
        fiber_table=so3,
    )


def test_nonflat_dissection_components_match():
    dd = _so3_dissection()
    p = from_dissection(dd)
    assert verify_axioms(p, trials=4, seed=0).ok
    assert dissection_jacobiator_check(p, dd).ok
    assert verify_jacobiator_theorem(p, trials=3, seed=0, max_degree=1).ok
    flat = dissection_flatness_conditions(dd)
    assert not flat.ok  # curvature is genuinely incompatible here
    _, report = dissection_pontryagin(p, dd)
    assert not report.ok
    assert any("flatness" in n for n in report.notes)


def test_dissection_rejects_bad_connection():
    flat = _flat_dissection()
    gamma = [[list(row) for row in g_m] for g_m in flat.gamma]
    gamma[0][0][0] = Poly.const(flat.chart, 1)  # not pairing-skew for the hyperbolic block
    dd = DissectionData(
        flat.chart, flat.aux_rank, flat.aux_pairing, gamma, flat.curvature, flat.psi,
        flat.fiber_table,
    )
    with pytest.raises(ConstructionError) as err:
        from_dissection(dd)
    assert err.value.code == "connection-not-metric"
    assert err.value.witness == "direction 1, frames (5,6): 1"


def test_dissection_rejects_singular_aux_pairing():
    flat = _flat_dissection()
    with pytest.raises(ConstructionError) as err:
        DissectionData(
            flat.chart, flat.aux_rank, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
            flat.gamma, flat.curvature, flat.psi, flat.fiber_table,
        )
    assert err.value.code == "metric-singular"


def test_curvature_square_brute_force_oracle():
    """The three-partition formula against the 24-term signed sum."""
    from itertools import permutations

    dd = _flat_dissection()
    p = from_dissection(dd)
    form = curvature_square_form(dd)
    coords = list(range(4))

    def curvature(i, j):
        zero = [Poly.zero(dd.chart)] * dd.aux_rank
        if i < j:
            return dd.curvature.get((i, j), zero)
        return [-p for p in dd.curvature.get((j, i), zero)]

    def pair_aux(u, v):
        total = Poly.zero(dd.chart)
        for a in range(2):
            for b in range(2):
                if dd.aux_pairing[a][b] != 0:
                    total = total + (u[a] * v[b]) * dd.aux_pairing[a][b]
        return total

    def sign(perm):
        s = 1
        perm = list(perm)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    s = -s
        return s

    for idx in combinations(coords, 4):
        brute = Poly.zero(dd.chart)
        for perm in permutations(range(4)):
            val = pair_aux(
                curvature(idx[perm[0]], idx[perm[1]]),
                curvature(idx[perm[2]], idx[perm[3]]),
            )
            term = val * Fraction(sign(perm), 4)
            brute = brute + term
        assert form.value_at(idx) == brute
