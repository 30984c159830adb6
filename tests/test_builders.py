"""Every builder, from manifest text to built structure: the frame table
equals the one the direct `construct` call gives, and the lift and
complement rows have the built bundle's rank."""

from fractions import Fraction

import pytest

from precourant.algebroid import PreCourantAlgebroid, zero_table
from precourant.bundle import CourantBundle, standard_bundle
from precourant.construct import (
    DissectionData,
    double,
    from_connection_beta,
    from_dissection,
    from_twisted_action,
    make_twisted_action,
    quadratic_lie_algebra,
)
from precourant.deform import apply_deformation, twist_deformation
from precourant.manifest import parse_manifest
from precourant.parsing import parse_form
from precourant.poly import Chart, Poly, format_poly
from precourant.runner import build_context
from test_construct import frame_derivatives


def _chart(n):
    return Chart([f"x{i + 1}" for i in range(n)])


def _row(values):
    return ", ".join(format_poly(v) if isinstance(v, Poly) else str(v) for v in values)


def _bundle_block(b):
    lines = ["[bundle]", f"rank = {b.rank}"]
    lines += [f"metric.{i + 1} = {_row(row)}" for i, row in enumerate(b.metric)]
    lines += [f"anchor.{i + 1} = {_row(row)}" for i, row in enumerate(b.anchor)]
    return "\n".join(lines) + "\n"


def _bracket():
    chart = _chart(1)
    b = CourantBundle(chart, 2, [[0, 1], [1, 0]], [[Poly.const(chart, 1)], [Poly.zero(chart)]])
    table = zero_table(b)
    table[0][1] = b.section([Poly.zero(chart), Poly.var(chart, 0)])
    table[1][0] = -table[0][1]
    text = _bundle_block(b) + "\n[bracket]\nt.1.2 = 0, x1\nt.2.1 = 0, -x1\n"
    return text, PreCourantAlgebroid(b, table), {}


def _standard():
    b = standard_bundle(_chart(2))
    return "[builder]\nkind = standard\n", PreCourantAlgebroid(b, zero_table(b)), {}


def _twisted_exact():
    chart = _chart(4)
    b = standard_bundle(chart)
    h = parse_form(chart, "x4*dx(1,2,3)")
    p = apply_deformation(PreCourantAlgebroid(b, zero_table(b)), twist_deformation(b, h))
    return "[builder]\nkind = twisted_exact\nh = x4*dx(1,2,3)\n", p, {}


def _connection_beta_twist():
    # zero connection, the corrector of the twist by x4 dx1^dx2^dx3; one
    # pair is given both ways, the others only as beta.I.J with I < J
    chart = _chart(4)
    b = standard_bundle(chart)
    omega = twist_deformation(b, parse_form(chart, "x4*dx(1,2,3)"))
    beta = [[omega.value_at((i, j)) for j in range(b.rank)] for i in range(b.rank)]
    entries = []
    for i in range(b.rank):
        for j in range(b.rank):
            if beta[i][j].terms and (i < j or (i, j) == (2, 1)):
                entries.append(f"beta.{i + 1}.{j + 1} = {_row(beta[i][j].coeffs)}")
    zero = Poly.zero(chart)
    gamma = [[[zero] * b.rank for _ in range(b.rank)] for _ in range(chart.dim)]
    text = _bundle_block(b) + "\n[builder]\nkind = connection_beta\n" + "\n".join(entries) + "\n"
    return text, from_connection_beta(b, frame_derivatives(b, gamma), beta), {}


def _connection_beta_connection():
    # a torsion-free connection on the tangent block, nabla_1 d1 = x2 d2,
    # with its dual on the cotangent block and a zero corrector
    chart = _chart(2)
    b = standard_bundle(chart)
    zero, x2 = Poly.zero(chart), Poly.var(chart, 1)
    gamma = [[[zero] * 4 for _ in range(4)] for _ in range(2)]
    gamma[0][1][0] = x2
    gamma[0][2][3] = -x2
    beta = [[b.zero_section()] * 4 for _ in range(4)]
    text = (
        _bundle_block(b)
        + "\n[builder]\nkind = connection_beta\ngamma.1.1 = 0, x2, 0, 0\ngamma.1.4 = 0, 0, -x2, 0\n"
    )
    return text, from_connection_beta(b, frame_derivatives(b, gamma), beta), {}


def _twisted_action_paired():
    chart = _chart(1)
    algebra = quadratic_lie_algebra(2, {}, [[0, 1], [1, 0]])
    rho = [[Poly.const(chart, 1)], [Poly.zero(chart)]]
    action = make_twisted_action(algebra, chart, rho, {}, [(0,)])
    text = (
        "[builder]\nkind = twisted_action\n\n[algebra]\ndim = 2\n"
        "pairing.1 = 0, 1\npairing.2 = 1, 0\n\n[action]\nrho.1 = 1\nrho.2 = 0\n"
    )
    return text, from_twisted_action(action), {"algebra": algebra, "base_algebra": None,
                                               "action": action}


def _twisted_action_double():
    chart = _chart(4)
    base = quadratic_lie_algebra(4, {(0, 1): [0, 1, 0, 0]}, None)
    algebra = double(base)
    x1, x4 = Poly.var(chart, 0), Poly.var(chart, 3)
    zero, one = Poly.zero(chart), Poly.const(chart, 1)
    rho = [[one if j == i else zero for j in range(4)] for i in range(4)]
    rho[1][0] = x1 * x1
    rho += [[zero] * 4 for _ in range(4)]
    k = {(0, 1): [2 * x1, -one, zero, zero, zero, zero, x4, zero]}
    points = [(0, 0, 0, 0), (1, 2, -1, 1)]
    action = make_twisted_action(algebra, chart, rho, k, points)
    text = (
        "[builder]\nkind = twisted_action\n\n[algebra]\ndim = 4\ndouble = true\n"
        "bracket.1.2 = 0, 1, 0, 0\n\n[action]\n"
        + "".join(f"rho.{i + 1} = {_row(row)}\n" for i, row in enumerate(rho))
        + "k.1.2 = 2*x1, -1, 0, 0, 0, 0, x4, 0\n\n[points]\np.1 = 0, 0, 0, 0\np.2 = 1, 2, -1, 1\n"
    )
    return text, from_twisted_action(action), {"algebra": algebra, "base_algebra": base,
                                               "action": action}


def _dissection():
    chart = _chart(3)
    zero, x2 = Poly.zero(chart), Poly.var(chart, 1)
    pairing = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    gamma = [[[x2, zero], [zero, -x2]], [[zero] * 2] * 2, [[zero] * 2] * 2]
    dd = DissectionData(
        chart=chart,
        aux_rank=2,
        aux_pairing=pairing,
        gamma=gamma,
        curvature={(0, 1): [Poly.var(chart, 0), zero]},
        psi=parse_form(chart, "x3*dx(1,2,3)"),
        fiber_table={},
    )
    text = (
        "[builder]\nkind = dissection\n\n[dissection]\naux_rank = 2\n"
        "pairing.1 = 0, 1\npairing.2 = 1, 0\ngamma.1.1 = x2, 0\ngamma.1.2 = 0, -x2\n"
        "r.1.2 = x1, 0\npsi = x3*dx(1,2,3)\n"
    )
    return text, from_dissection(dd), {"dissection": dd}


CASES = {
    "bracket": _bracket,
    "standard": _standard,
    "twisted_exact": _twisted_exact,
    "connection_beta-twist": _connection_beta_twist,
    "connection_beta-connection": _connection_beta_connection,
    "twisted_action-paired": _twisted_action_paired,
    "twisted_action-double": _twisted_action_double,
    "dissection": _dissection,
}


def _same_algebra(a, b):
    return (a is None and b is None) or (
        a.dim == b.dim and a.structure == b.structure and a.pairing == b.pairing
    )


@pytest.mark.parametrize("case", list(CASES))
def test_manifest_builds_the_direct_structure(case):
    body, direct, extras = CASES[case]()
    n = direct.bundle.chart.dim
    rank = direct.bundle.rank
    unit = _row([1] + [0] * (rank - 1))
    text = (
        f"[chart]\nvars = {' '.join(f'x{i + 1}' for i in range(n))}\n\n{body}\n"
        f"[lift]\nsigma.1 = {unit}\n\n[complement]\nc.1 = {unit}\nc.2 = {unit}\n"
    )
    m = parse_manifest(text, name=case)
    ctx = build_context(m)
    assert ctx.bundle == direct.bundle
    assert ctx.algebroid.bundle is ctx.bundle
    assert ctx.algebroid.table == direct.table
    # [lift] and [complement] rows have the rank of the built bundle
    assert [len(row) for row in m.blocks["lift"]] == [rank]
    assert [len(row) for row in m.blocks["complement"]] == [rank, rank]
    assert _same_algebra(ctx.algebra, extras.get("algebra"))
    assert _same_algebra(ctx.base_algebra, extras.get("base_algebra"))
    action = extras.get("action")
    if action is None:
        assert ctx.action is None
    else:
        assert ctx.action.k_table == action.k_table
        assert ctx.action.bracket_table == action.bracket_table
        assert ctx.action.sample_points == action.sample_points
    dd = extras.get("dissection")
    if dd is None:
        assert ctx.dissection is None
    else:
        for attr in ("aux_rank", "aux_pairing", "gamma", "curvature", "psi", "fiber_table"):
            assert getattr(ctx.dissection, attr) == getattr(dd, attr), attr
