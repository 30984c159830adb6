"""Failure witnesses of the builder and axiom checks, pinned as strings.

The goldens only hold passing runs, so these tests fix what the closed-form
Jacobiator check, the four dissection flatness conditions (and the notes
of those that scan nothing), the
twisted-action validation, the quadratic Lie
validation, the pre-Courant axioms, the degree guards of the deformation
and vanishing checks, the B-field transformation on an anchor that is not
isotropic and the seeded batteries (two-term conditions, among
them an ungated `lie2` run on a broken table, derived identities,
Jacobiator theorem, the morphism equations) report on broken input,
a kept Jacobiator flat that is not J's among it, the quotient Jacobi
identity with J in the kernel's orthogonal, a B-field that moves J, the dissection
Pontryagin comparison on a table moved off its form, the comparison of
J-flat with the pullback of dh and the Jacobiator left after untwisting:
which case fails first and how both sides print.  The deformation identity is pinned passing, since a valid omega
cannot fail it.
"""

from fractions import Fraction

import pytest

from precourant.algebroid import (
    PreCourantAlgebroid,
    jacobiator,
    verify_axioms,
    verify_derived_identities,
    zero_table,
)
from precourant.bundle import CourantBundle, standard_bundle, validate_bundle
from precourant.cli import resolve_manifest
from precourant.cochain import Cochain, KerCochain, jacobiator_flat, verify_jacobiator_theorem
from precourant.construct import (
    DissectionData,
    dissection_flatness_conditions,
    dissection_jacobiator_check,
    dissection_pontryagin,
    double,
    from_dissection,
    make_twisted_action,
    quadratic_lie_algebra,
    validate_quadratic_lie,
    validate_twisted_action,
)
from precourant.deform import (
    apply_deformation,
    bfield_verify,
    pontryagin_representative,
    pontryagin_vanishing_check,
    quotient_jacobi_check,
    twist_deformation,
    validate_deformation,
    verify_deformation_identity,
)
from precourant.exterior import KForm
from precourant.manifest import parse_manifest
from precourant.parsing import parse_form
from precourant.poly import Chart, Poly
from precourant.runner import build_context, run_manifest
from precourant.twoterm import (
    build_leibniz2,
    build_lie2,
    verify_leibniz2,
    verify_lie2,
    verify_morphism,
)
from test_construct import _so3_dissection

F = Fraction


def _dissection_x4():
    """Four coordinates, a hyperbolic auxiliary plane, curvature and a
    3-form with nonzero differential."""
    c = Chart(["x1", "x2", "x3", "x4"])
    z, o = Poly.zero(c), Poly.const(c, 1)
    x = [Poly.var(c, i) for i in range(4)]
    flat = [[z, z], [z, z]]
    return DissectionData(
        chart=c,
        aux_rank=2,
        aux_pairing=[[F(0), F(1)], [F(1), F(0)]],
        gamma=[[[x[1], z], [z, -x[1]]], flat, flat, flat],
        curvature={(0, 1): [o, z], (2, 3): [z, x[0]], (0, 2): [x[3], o]},
        psi=parse_form(c, "x4*dx(1,2,3) + x1*x2*dx(2,3,4)"),
        fiber_table={},
    )


def _dissection_so3_plane():
    """Two coordinates, an so(3) fiber and a curved connection."""
    c = Chart(["x1", "x2"])
    z, o = Poly.zero(c), Poly.const(c, 1)
    x1, x2 = Poly.var(c, 0), Poly.var(c, 1)

    def skew(a, b, d):
        return [[z, a, b], [-a, z, d], [-b, -d, z]]

    return DissectionData(
        chart=c,
        aux_rank=3,
        aux_pairing=[[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]],
        gamma=[skew(x2, z, z), skew(z, x1, o)],
        curvature={},
        psi=KForm.zero(c, 3),
        fiber_table={(0, 1): [z, z, o], (1, 2): [o, z, z], (0, 2): [z, -o, z]},
    )


def _dissection_line():
    """One coordinate and a four-dimensional fiber bracket that depends on
    the coordinate."""
    c = Chart(["x1"])
    z, o = Poly.zero(c), Poly.const(c, 1)
    x1 = Poly.var(c, 0)
    return DissectionData(
        chart=c,
        aux_rank=4,
        aux_pairing=[[F(int(i == j)) for j in range(4)] for i in range(4)],
        gamma=[[[z] * 4 for _ in range(4)]],
        curvature={},
        psi=KForm.zero(c, 3),
        fiber_table={
            (0, 1): [z, z, x1, o],
            (0, 2): [z, -x1, z, z],
            (1, 2): [x1, z, z, z],
            (0, 3): [z, -o, z, z],
            (1, 3): [o, z, z, z],
        },
    )


# data, the frame pair (i, j) whose bracket gains frame k, the witness
DISSECTION_CASES = {
    "x/x/x": (
        _dissection_x4, (0, 2), 1,
        "frames (1, 3, 4) [x/x/x]: computed (0, 0, 0, 0, 1, -x1*x2 + 1, 0, "
        "-x1 + x2 - 1, x1*x2, 0) vs closed form (0, 0, 0, 0, 1, -x1*x2 + 1, 0, "
        "-x1 + x2 - 1, 0, 0)",
    ),
    "x/x/r": (
        _dissection_so3_plane, (0, 1), 0,
        "frames (1, 2, 3) [x/x/r]: computed (0, 0, 0, x2 + 1, -x2 - 1, 0, 0) "
        "vs closed form (0, 0, 0, 1, -x2 - 1, 0, 0)",
    ),
    "x/r/r": (
        _dissection_so3_plane, (0, 5), 0,
        "frames (1, 3, 4) [x/r/r]: computed (-x2, 0, 0, 0, 0, 0, 1) "
        "vs closed form (0, 0, 0, 0, 0, 0, 1)",
    ),
    "r/r/r": (
        _dissection_line, (1, 2), 1,
        "frames (2, 3, 4) [r/r/r]: computed (0, 0, x1, 0, 0, -1) "
        "vs closed form (0, 0, 0, 0, 0, -1)",
    ),
}


@pytest.mark.parametrize("blocks", list(DISSECTION_CASES))
def test_dissection_jacobiator_first_witness(blocks):
    make, (i, j), k, expected = DISSECTION_CASES[blocks]
    dd = make()
    p = from_dissection(dd)
    assert dissection_jacobiator_check(p, dd).ok
    b = p.bundle
    table = [list(row) for row in p.table]
    table[i][j] = table[i][j] + b.frame(k)
    table[j][i] = table[j][i] - b.frame(k)
    report = dissection_jacobiator_check(PreCourantAlgebroid(b, table), dd)
    assert [(c.name, c.ok, c.witness) for c in report.checks] == [
        ("components-match", False, expected)
    ]


def _identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _non_jacobi_fiber():
    """Rank 3 with [b1,b2] = b1, [b2,b3] = b2, [b1,b3] = b3, which fails
    Jacobi; no connection and no curvature."""
    c = Chart(["x1"])
    z, o = Poly.zero(c), Poly.const(c, 1)
    return DissectionData(
        c, 3, _identity(3), [[[z] * 3 for _ in range(3)]], {}, KForm.zero(c, 3),
        {(0, 1): [o, z, z], (1, 2): [z, o, z], (0, 2): [z, z, o]},
    )


def _non_derivation_connection():
    """The so(3) fiber with the connection x1 E_11 along x1, which does not
    act as a derivation of the bracket."""
    c = Chart(["x1"])
    z, o, x1 = Poly.zero(c), Poly.const(c, 1), Poly.var(c, 0)
    return DissectionData(
        c, 3, _identity(3), [[[x1, z, z], [z, z, z], [z, z, z]]], {}, KForm.zero(c, 3),
        {(0, 1): [z, z, o], (1, 2): [o, z, z], (0, 2): [z, -o, z]},
    )


# data, and its whole flatness report; each check reads the fiber bracket
# or the connection's covariant derivative
FLATNESS_CASES = {
    "fiber-jacobi": (_non_jacobi_fiber, [
        "[FAIL] dissection flatness conditions",
        "  FAIL fiber-jacobi  witness: aux basis triple (1,2,3): 0, -1, 1, 1, 0",
        "  ok   connection-derivation",
        "  ok   curvature-bianchi",
        "  ok   connection-curvature-matches",
        "  note: curvature-bianchi scanned no coordinate triple "
        "(chart dimension 1, auxiliary rank 3)",
    ]),
    "connection-derivation": (_non_derivation_connection, [
        "[FAIL] dissection flatness conditions",
        "  ok   fiber-jacobi",
        "  FAIL connection-derivation  witness: direction 1, aux basis pair (1,2): "
        "0, 0, 0, -x1, 0",
        "  ok   curvature-bianchi",
        "  ok   connection-curvature-matches",
        "  note: curvature-bianchi scanned no coordinate triple "
        "(chart dimension 1, auxiliary rank 3)",
    ]),
    "curvature": (_so3_dissection, [
        "[FAIL] dissection flatness conditions",
        "  ok   fiber-jacobi",
        "  ok   connection-derivation",
        "  FAIL curvature-bianchi  witness: coordinate triple (1,2,3): "
        "0, 0, 0, 1, 0, 1, 0, 0, 0",
        "  FAIL connection-curvature-matches  witness: coordinate pair (1,2), aux basis 1: "
        "0, 0, 0, 0, 1, -1, 0, 0, 0",
    ]),
}


@pytest.mark.parametrize("case", list(FLATNESS_CASES))
def test_dissection_flatness_failure_report(case):
    make, expected = FLATNESS_CASES[case]
    assert dissection_flatness_conditions(make()).lines() == expected


def test_dissection_flatness_notes_each_empty_scan():
    # no auxiliary block: three checks scan nothing; the notes reach the
    # pontryagin report, and the form compares against J-flat as before
    c = Chart(["x1", "x2", "x3"])
    dd = DissectionData(c, 0, [], [[] for _ in range(3)], {}, KForm.zero(c, 3), {})
    report = dissection_flatness_conditions(dd)
    assert report.lines() == [
        "[pass] dissection flatness conditions",
        "  ok   fiber-jacobi",
        "  ok   connection-derivation",
        "  ok   curvature-bianchi",
        "  ok   connection-curvature-matches",
        "  note: fiber-jacobi scanned no auxiliary basis triple "
        "(chart dimension 3, auxiliary rank 0)",
        "  note: connection-derivation scanned no direction and auxiliary basis pair "
        "(chart dimension 3, auxiliary rank 0)",
        "  note: connection-curvature-matches scanned no coordinate pair and auxiliary "
        "basis index (chart dimension 3, auxiliary rank 0)",
    ]
    _, pontryagin = dissection_pontryagin(from_dissection(dd), dd)
    assert pontryagin.ok and pontryagin.notes == report.notes


# --- twisted actions -------------------------------------------------------


def _so3(bracket_02):
    return quadratic_lie_algebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): bracket_02},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )


def _double_action(k_entries, points):
    c4 = Chart(["x1", "x2", "x3", "x4"])
    d8 = double(quadratic_lie_algebra(4, {(0, 1): [0, 1, 0, 0]}, None))
    zero, one = Poly.zero(c4), Poly.const(c4, 1)
    x1 = Poly.var(c4, 0)
    rows = [[zero] * 4 for _ in range(8)]
    rows[0][0] = one
    rows[1][0] = x1 * x1
    rows[1][1] = one
    rows[2][2] = one
    rows[3][3] = one
    return make_twisted_action(d8, c4, rows, k_entries(c4), points)


def _broken_algebra_action():
    c1 = Chart(["x1"])
    zero = Poly.zero(c1)
    return make_twisted_action(_so3([0, 1, 0]), c1, [[zero]] * 3, {}, [[0]])


def _diagonal_defect_action():
    def k_entries(c4):
        zero, x1 = Poly.zero(c4), Poly.var(c4, 0)
        return {
            (0, 1): [x1 * 2, Poly.const(c4, -1), zero, zero, zero, zero, Poly.var(c4, 3), zero],
            (2, 2): [zero, zero, zero, zero, zero, x1, zero, zero],
        }

    return _double_action(k_entries, [[0, 0, 0, 0]])


def _kernel_defect_action():
    def k_entries(c4):
        zero, one = Poly.zero(c4), Poly.const(c4, 1)
        return {(4, 0): [one] + [zero] * 7}

    return _double_action(k_entries, [[0, 0, 0, 0], [1, 2, 1, -1]])


def _non_coisotropic_action():
    c1 = Chart(["x1"])
    ab2 = quadratic_lie_algebra(2, {}, [[1, 0], [0, 1]])
    zero, one = Poly.zero(c1), Poly.const(c1, 1)
    return make_twisted_action(ab2, c1, [[one], [zero]], {}, [[0], [3]])


def _action_lines(failures):
    """The twisted-action report with the given checks failing."""
    names = [
        "quadratic-algebra",
        "defect-antisymmetric",
        "defect-kills-kernel",
        "anchor-defect-equation",
        "kernel-coisotropic",
    ]
    return ["[FAIL] twisted action"] + [
        f"  FAIL {n}  witness: {failures[n]}" if n in failures else f"  ok   {n}"
        for n in names
    ]


ANCHOR_WITNESS = "(1, 0, 0, 0, 0, 0, 0, 0) | (0, 1, 0, 0, 0, 0, 0, 0)"

TWISTED_ACTION_CASES = {
    "quadratic-algebra": (
        _broken_algebra_action,
        _action_lines({"quadratic-algebra": "pairing-invariant: basis triple (1,2,3)"}),
    ),
    "defect-antisymmetric": (
        _diagonal_defect_action,
        _action_lines({"defect-antisymmetric": "basis (3,3)"}),
    ),
    "defect-kills-kernel": (
        _kernel_defect_action,
        _action_lines(
            {
                "defect-kills-kernel": "point ('0', '0', '0', '0'): "
                "k(kernel vector, basis 1) != 0",
                "anchor-defect-equation": ANCHOR_WITNESS,
            }
        ),
    ),
    "anchor-defect-equation": (
        lambda: _double_action(lambda c4: {}, [[0, 0, 0, 0]]),
        _action_lines({"anchor-defect-equation": ANCHOR_WITNESS}),
    ),
    "kernel-coisotropic": (
        _non_coisotropic_action,
        _action_lines(
            {"kernel-coisotropic": "point ('0',): perp-vector outside kernel: (1, 0)"}
        ),
    ),
}


@pytest.mark.parametrize("check", list(TWISTED_ACTION_CASES))
def test_twisted_action_failure_report(check):
    make, expected = TWISTED_ACTION_CASES[check]
    report = validate_twisted_action(make())
    assert not next(c for c in report.checks if c.name == check).ok
    assert report.lines() == expected


# --- quadratic Lie algebras ------------------------------------------------


QUADRATIC_LIE_CASES = {
    "jacobi": (
        lambda: _so3([-1, 0, 0]),
        [
            "[FAIL] quadratic lie algebra",
            "  ok   antisymmetric",
            "  FAIL jacobi  witness: basis triple (1,2,3)",
            "  FAIL pairing-invariant  witness: basis triple (1,1,3)",
        ],
    ),
    "pairing-invariant": (
        lambda: _so3([0, 1, 0]),
        [
            "[FAIL] quadratic lie algebra",
            "  ok   antisymmetric",
            "  ok   jacobi",
            "  FAIL pairing-invariant  witness: basis triple (1,2,3)",
        ],
    ),
    # so(3) as a plain Lie algebra, which only the double accepts
    "pairing-present": (
        lambda: quadratic_lie_algebra(
            3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}, None
        ),
        [
            "[FAIL] quadratic lie algebra",
            "  ok   antisymmetric",
            "  ok   jacobi",
            "  FAIL pairing-present  witness: no pairing supplied",
        ],
    ),
}


@pytest.mark.parametrize("check", list(QUADRATIC_LIE_CASES))
def test_quadratic_lie_failure_report(check):
    make, expected = QUADRATIC_LIE_CASES[check]
    report = validate_quadratic_lie(make())
    assert not next(c for c in report.checks if c.name == check).ok
    assert report.lines() == expected


# --- pre-Courant axioms ----------------------------------------------------


def _broken_plane(entries):
    """The generalized tangent bundle of a plane with a few table entries."""
    c = Chart(["x1", "x2"])
    b = standard_bundle(c)
    table = [list(row) for row in zero_table(b)]
    for (i, j), make in entries.items():
        table[i][j] = make(b, Poly.var(c, 0))
    return PreCourantAlgebroid(b, table)


RANDOM_E = "(3, 2*x1^2 + 1, -3*x1, -x1*x2 + x1) | (0, -3*x2 + 2, x2, 3*x1^2)"
RANDOM_E3 = f"{RANDOM_E} | (-2*x2, -2, -x1 - 1, 0)"
LHS_III = "rho(e1)<e2,e3> = -8*x1^2*x2 - 36*x1 - 4*x2"
III_FRAMES_112 = (
    "frames (1,1,2): rho(e1)<e2,e3> = 0 but RHS = {rhs} at "
    "(1, 0, 0, 0) | (1, 0, 0, 0) | (0, 1, 0, 0)"
)

# table entries, verify_axioms(trials=2, seed=5) lines, the precheck witness
AXIOM_CASES = {
    "anchor": (
        {(0, 1): lambda b, x1: b.frame(0), (1, 0): lambda b, x1: -b.frame(0)},
        [
            "[FAIL] pre-courant axioms",
            "  ok   bundle-valid",
            "  FAIL axiom-i-frames  witness: frames (1,2)",
            "  ok   axiom-ii-frames",
            "  FAIL axiom-iii-frames  witness: frames (1,2,3): rho(e1)<e2,e3> = 0 but "
            "RHS = 1 at (1, 0, 0, 0) | (0, 1, 0, 0) | (0, 0, 1, 0)",
            f"  FAIL axiom-i-random  witness: sections {RANDOM_E}",
            "  ok   axiom-ii-random",
            f"  FAIL axiom-iii-random  witness: sections: {LHS_III} but RHS = "
            "4*x1^2*x2^2 - 8*x1^2*x2 + 9*x1*x2 + 2*x2^2 - 42*x1 - x2 - 6 "
            f"at {RANDOM_E3}",
        ],
        "axiom-i-frames: frames (1,2)",
    ),
    "symmetrization": (
        {(0, 1): lambda b, x1: b.frame(2).scale(x1)},
        [
            "[FAIL] pre-courant axioms",
            "  ok   bundle-valid",
            "  ok   axiom-i-frames",
            "  FAIL axiom-ii-frames  witness: frames (1,2): t[i][j]+t[j][i] = "
            "(0, 0, x1, 0) but D<u_i,u_j> = (0, 0, 0, 0)",
            "  FAIL axiom-iii-frames  witness: " + III_FRAMES_112.format(rhs="x1"),
            "  ok   axiom-i-random",
            f"  FAIL axiom-ii-random  witness: sections {RANDOM_E}",
            f"  FAIL axiom-iii-random  witness: sections: {LHS_III} but RHS = "
            f"-8*x1^2*x2 + 18*x1*x2^2 - 12*x1*x2 - 36*x1 - 4*x2 at {RANDOM_E3}",
        ],
        "axiom-ii-frames: frames (1,2): t[i][j]+t[j][i] = (0, 0, x1, 0) "
        "but D<u_i,u_j> = (0, 0, 0, 0)",
    ),
    "pairing": (
        {(0, 1): lambda b, x1: b.frame(2), (1, 0): lambda b, x1: -b.frame(2)},
        [
            "[FAIL] pre-courant axioms",
            "  ok   bundle-valid",
            "  ok   axiom-i-frames",
            "  ok   axiom-ii-frames",
            "  FAIL axiom-iii-frames  witness: " + III_FRAMES_112.format(rhs="1"),
            "  ok   axiom-i-random",
            "  ok   axiom-ii-random",
            f"  FAIL axiom-iii-random  witness: sections: {LHS_III} but RHS = "
            f"-8*x1^2*x2 + 18*x2^2 - 36*x1 - 16*x2 at {RANDOM_E3}",
        ],
        "axiom-iii-frames: " + III_FRAMES_112.format(rhs="1"),
    ),
}


@pytest.mark.parametrize("case", list(AXIOM_CASES))
def test_broken_table_axiom_witnesses(case):
    entries, expected, precheck = AXIOM_CASES[case]
    p = _broken_plane(entries)
    # the second call reads the frame verdicts kept on the algebroid
    assert verify_axioms(p, trials=2, seed=5).lines() == expected
    assert verify_axioms(p, trials=2, seed=5).lines() == expected
    assert verify_jacobiator_theorem(p, trials=2, seed=5).lines() == [
        "[FAIL] jacobiator theorem suite",
        f"  FAIL precondition-axioms  witness: {precheck}",
        "  note: theorem suite skipped: axioms do not hold",
    ]
    # the precheck alone, on a fresh algebroid, reports the same witness
    fresh = verify_jacobiator_theorem(_broken_plane(entries), trials=2, seed=5)
    assert fresh.checks[0].witness == precheck


# --- failing batteries, pinned whole ----------------------------------------
#
# Each battery scans its checks in a fixed order over tuples drawn once from
# the seeded stream, and each check keeps its first counterexample; these
# reports fix that order, the draws and every witness.

LEIBNIZ2_DOUBLED_CORRECTOR = [
    "[FAIL] two-term leibniz conditions",
    "  ok   inclusion-right",
    "  ok   inclusion-left",
    "  ok   inclusion-balanced",
    "  FAIL defect-degree0  witness: d l3 = (0, 0, 0, 0, -36*x1^3*x3*x4^2 + "
    "12*x1^3*x3*x4 + 24*x1^2*x2*x3*x4 + 54*x1*x3^2*x4^2 + 24*x1^2*x2*x3 - "
    "18*x1*x3^2*x4 - 36*x2*x3^2*x4 - 36*x2*x3^2, 0, 8*x1^3*x2^2*x3 - 12*x1*x2^2*x3^2 "
    "- 16*x1^2*x2*x3 + 24*x2*x3^2, 12*x1^3*x2*x4^2 - 4*x1^3*x2*x4 - 18*x1*x2*x3*x4^2 "
    "- 24*x1^2*x4^2 + 6*x1*x2*x3*x4 + 8*x1^2*x4 + 36*x3*x4^2 - 12*x3*x4) vs defect "
    "(0, 0, 0, 0, -18*x1^3*x3*x4^2 + 6*x1^3*x3*x4 + 12*x1^2*x2*x3*x4 + "
    "27*x1*x3^2*x4^2 + 12*x1^2*x2*x3 - 9*x1*x3^2*x4 - 18*x2*x3^2*x4 - 18*x2*x3^2, 0, "
    "4*x1^3*x2^2*x3 - 6*x1*x2^2*x3^2 - 8*x1^2*x2*x3 + 12*x2*x3^2, 6*x1^3*x2*x4^2 - "
    "2*x1^3*x2*x4 - 9*x1*x2*x3*x4^2 - 12*x1^2*x4^2 + 3*x1*x2*x3*x4 + 4*x1^2*x4 + "
    "18*x3*x4^2 - 6*x3*x4) at (0, 0, 3*x4^2 - x4, -2*x2*x3, 0, 0, 2*x1, -x1 + x3) | "
    "(0, 2*x1^2 - 3*x3, 0, 0, 0, 0, 0, 0) | (x1*x2 - 2, 0, -3*x4 - 3, 3*x1*x3, -x2 - "
    "2, 0, -3*x2^2 - 3*x1, 0)",
    "  ok   defect-kernel-slot3",
    "  ok   defect-kernel-slot2",
    "  ok   defect-kernel-slot1",
    "  ok   coherence",
]

# the Lie battery draws after the triples of l2-skew, l3-skew and
# l3-kernel-valued; its last check, on the same draws as the Leibniz
# coherence, is homotopy-jacobi
LIE2_UNCORRECTED_L3 = [
    "[FAIL] two-term lie conditions",
    "  ok   l2-skew",
    "  ok   l3-skew",
    "  ok   l3-kernel-valued",
    "  ok   inclusion-right",
    "  ok   inclusion-left",
    "  ok   inclusion-balanced",
    "  FAIL defect-degree0  witness: d l3 = (0, 0, 0, 0, 0, 0, 0, 0) vs defect (0, 0, "
    "0, 0, 0, -9/4, 0, 0) at (-3*x2, 0, 0, x3, 0, 0, 0, 3) | (3*x2 - 3, 0, 0, -2, "
    "-3*x2 - 3*x4, 3*x2 + 2*x4, -x3 - 1, 0) | (0, 0, 0, -1, -3*x1 + 1, -x1 - x2, "
    "3*x4, -x2)",
    "  FAIL defect-kernel-slot3  witness: (3*x4, -3*x2 - 1, x3 + 1, -x4, -3*x2, 0, 0, "
    "0) | (-x1 + 2, -2, -3*x4, 0, x2, -2, -2*x2, 1) | (0, 0, 0, 0, 0, 0, 2*x1, -2*x2 "
    "+ 3*x3)",
    "  FAIL defect-kernel-slot2  witness: (3*x4, -3*x2 - 1, x3 + 1, -x4, -3*x2, 0, 0, "
    "0) | (0, 0, 0, 0, 0, 0, 2*x1, -2*x2 + 3*x3) | (-x1 + 2, -2, -3*x4, 0, x2, -2, "
    "-2*x2, 1)",
    "  FAIL defect-kernel-slot1  witness: (0, 0, 0, 0, 0, 0, 2*x1, -2*x2 + 3*x3) | "
    "(3*x4, -3*x2 - 1, x3 + 1, -x4, -3*x2, 0, 0, 0) | (-x1 + 2, -2, -3*x4, 0, x2, -2, "
    "-2*x2, 1)",
    "  FAIL homotopy-jacobi  witness: defect (0, 0, 0, 0, 0, 27*x4^2, -3*x4^3 + 6*x4, "
    "-9*x3*x4^2 + 54*x2*x4 + 6*x3 + 18*x4 + 6) at (-x4, 0, 0, 0, -2, 2, 2*x1 + 3, -1) "
    "| (3*x4, -3*x2 - 1, x3 + 1, -x4, -3*x2, 0, 0, 0) | (-x1 + 2, -2, -3*x4, 0, x2, "
    "-2, -2*x2, 1) | (3*x2, x3, 0, 3, 0, 0, -2*x4 - 1, 3*x3 + 1)",
    "  note: degree-1 space taken as kernel sections; the orthogonal-complement "
    "reading of the degree-1 bracket clause is not used",
]

LEIBNIZ2_MUTANT_FLAT = [
    "[FAIL] two-term leibniz conditions",
    "  ok   inclusion-right",
    "  ok   inclusion-left",
    "  ok   inclusion-balanced",
    "  FAIL defect-degree0  witness: d l3 = (0, 0, 0, 0, 0, 0, 0, 0) vs defect (0, 0,"
    " 0, 0, 2*x3^2 + 12*x3*x4 + 2*x3, 0, -6*x2*x3 - 2*x3, -12*x2*x3*x4 - 4*x3*x4) at "
    "(0, 0, 2*x4, -1, -x2, x4, x2 + 3*x4, -3) | (0, -2*x3, 0, 0, 3, 0, 0, -3*x4) | "
    "(3*x2 + 1, 0, x3 + 1, 3, -3*x1 - 2, 0, 0, 0)",
    "  ok   defect-kernel-slot3",
    "  ok   defect-kernel-slot2",
    "  ok   defect-kernel-slot1",
    "  ok   coherence",
]

LIE2_MUTANT_FLAT = [
    "[FAIL] two-term lie conditions",
    "  ok   l2-skew",
    "  ok   l3-skew",
    "  ok   l3-kernel-valued",
    "  ok   inclusion-right",
    "  ok   inclusion-left",
    "  ok   inclusion-balanced",
    "  FAIL defect-degree0  witness: d l3 = (0, 0, 0, 0, 3/2*x2*x4, 3/2*x1*x4 - 45/2*x4 "
    "+ 27/4, 0, 3/2*x1*x2 - 45/2*x2 - 31/2) vs defect (0, 0, 0, 0, -4*x1*x2 + "
    "3/2*x2*x4 + 60*x2 + 40, 19/2*x1*x4 - 7*x1 - 45/2*x4 + 27/4, 24*x2*x4 - 21*x2 + "
    "16*x4 - 14, 9/2*x1*x2 - 135/2*x2 - 91/2) at (0, 3*x2 + 2, -x1, 0, 0, -x2, 3, 3) "
    "| (-3, 0, 0, -4, 0, 0, 1, -2*x1) | (-2*x4 + 1, -x2, 5, -1, -3*x2, x2, 0, x1)",
    "  ok   defect-kernel-slot3",
    "  ok   defect-kernel-slot2",
    "  ok   defect-kernel-slot1",
    "  FAIL homotopy-jacobi  witness: defect (0, 0, 0, 0, -4*x2*x3 + 16*x4^2 + 2*x4 - "
    "14, -4*x1*x3 + 60*x3 + 24*x4 - 21, -4*x1*x2 + 60*x2 + 40, 32*x1*x4 + 2*x1 + "
    "24*x2 + 16) at (x3, 2*x4 + 2, 1, 0, -2*x1, -3*x1, 3*x1 + x2, 0) | (0, 3*x2 + 2, "
    "-x1, 0, 0, -x2, 3, 3) | (-3, 0, 0, -4, 0, 0, 1, -2*x1) | (-2*x4 + 1, -x2, 5, -1, "
    "-3*x2, x2, 0, x1)",
    "  note: degree-1 space taken as kernel sections; the orthogonal-complement "
    "reading of the degree-1 bracket clause is not used",
]

DERIVED_SYMMETRIZATION = [
    "[FAIL] derived bracket identities",
    "  ok   right-function-rule",
    "  ok   left-function-rule",
    "  ok   derivative-left-zero",
    "  ok   derivative-right-chain",
    "  ok   anchor-kills-derivative",
    "  FAIL symmetrization  witness: (2, -3*x1, -x1*x2 + x1, 0) | (-3*x2 + 2, x2, "
    "3*x1^2, -2*x2)",
]

TENSORIAL_WITNESS = {
    "anchor": "f = 3*x1*x2 + 2*x1",
    "symmetrization": "f = -3*x2",
    "pairing": "f = -3*x2",
}


def test_leibniz2_doubled_corrector_report(twisted4):
    alg = build_leibniz2(twisted4)
    alg.l3 = lambda x, y, z: jacobiator(twisted4, x, y, z).scale(2)
    report = verify_leibniz2(alg, trials=3, seed=0)
    assert report.lines() == LEIBNIZ2_DOUBLED_CORRECTOR


def test_lie2_uncorrected_l3_report(twisted4):
    alg = build_lie2(twisted4)
    alg.l3 = lambda x, y, z: jacobiator(twisted4, x, y, z)
    report = verify_lie2(alg, trials=4, seed=2, max_degree=1)
    assert report.lines() == LIE2_UNCORRECTED_L3



# a plane whose table breaks the axioms, with a polynomial anchor and table
# entries so that T's first-order terms do not vanish; `lie2` alone runs
# ungated, so every check of the battery runs on it
BROKEN_TABLE_MANIFEST = """
[meta]
seed = 1
trials = 2
max_degree = 1
tasks = lie2

[chart]
vars = x1 x2

[bundle]
rank = 4
metric.1 = 0, 0, 1, 0
metric.2 = 0, 0, 0, 1
metric.3 = 1, 0, 0, 0
metric.4 = 0, 1, 0, 0
anchor.1 = 1, 0
anchor.2 = 0, x1
anchor.3 = 0, 0
anchor.4 = 0, 0

[bracket]
t.1.2 = x2, 0, x1, 0
t.2.3 = 0, 1, 0, x2

[points]
p.1 = 0, 0
"""

LIE2_BROKEN_TABLE = [
    "task lie2 = fail",
    "  fail l2-skew: (0, 0, 3*x1 - 3, 2*x2) | (0, -3*x1, 0, 0)",
    "  fail l3-skew: (0, 0, 3*x1 - 3, 2*x2) | (0, -3*x1, 0, 0) | (-x1 + 2, -2, 0, 0)",
    "  fail inclusion-right: l2(x, m) leaves the kernel: (3*x2, 1, 0, x2) | (0, 0, -3, "
    "-3*x1)",
    "  fail defect-degree0: d l3 = (0, 0, -2*x1*x2 - 9/2, -x1^3 + 7/2*x1) vs defect "
    "(-18*x1*x2^3 + 18*x1^2*x2 - 12*x2^3 + 2*x1^2 + 12*x1*x2 + 6*x2^2 + 6*x1, "
    "-18*x1^2*x2 + 2*x1^2 - 12*x1*x2 + 18*x2^2 - 3, -18*x1^2*x2^2 + 18*x1^3 - "
    "12*x1*x2^2 + 12*x1^2 - 6*x1*x2 - 27/2, -18*x1^2*x2^2 + 6*x1^3 + 2*x1^2*x2 - "
    "12*x1*x2^2 + 18*x1*x2 + 17/2*x1 - 3*x2) at (3*x2, 1, 0, x2) | (x1, 3*x1 + 2, 3, "
    "0) | (0, 2, 0, -2)",
    "  fail defect-kernel-slot3: (3*x2, 1, 0, x2) | (x1, 3*x1 + 2, 3, 0) | (0, 0, -3, "
    "-3*x1)",
    "  fail defect-kernel-slot2: (3*x2, 1, 0, x2) | (0, 0, -3, -3*x1) | (x1, 3*x1 + 2, "
    "3, 0)",
    "  fail defect-kernel-slot1: (0, 0, -3, -3*x1) | (3*x2, 1, 0, x2) | (x1, 3*x1 + 2, "
    "3, 0)",
    "  fail homotopy-jacobi: defect (0, -9/2*x1 - 4/3*x2 - 3, 3*x2^3 + 6*x1*x2 - "
    "10/3*x1 + 2*x2 + 9, 9*x1^2*x2^2 + 3*x1^3 + 6*x1*x2^2 + 2*x1^2 - 53/2*x1*x2 - "
    "4/3*x2^2 + 23/6*x1 - 5*x2) at (0, 0, -1, -2) | (3*x2, 1, 0, x2) | (x1, 3*x1 + 2, "
    "3, 0) | (0, 2, 0, -2)",
    "  note degree-1 space taken as kernel sections; the orthogonal-complement reading "
    "of the degree-1 bracket clause is not used",
    "result = fail",
]


def test_ungated_lie2_report_on_a_broken_table():
    # l3 reads T in closed form from the table, and the defect checks
    # compare l3 with nested skew brackets, so the witnesses that carry T
    # (defect-degree0, homotopy-jacobi) pin the closed form
    report = run_manifest(parse_manifest(BROKEN_TABLE_MANIFEST))
    assert report.to_text().splitlines()[6:] == LIE2_BROKEN_TABLE


_MORPHISM_HEAD = [
    "[FAIL] two-term morphism equations",
    "  FAIL deg0-equation  witness: difference (0, 0, 0, 0, -6*x1^2*x3 + 6*x1*x3 + 4*x2*x3, 0)"
    " at (0, 0, 3*x1 - 3, 2*x2, 0, -3*x1) | (-2*x3, 0, 0, 2*x1 - 2*x3, -2, 0)",
    "  FAIL mixed-equation-1  witness: (0, 2*x2 - x3, x3, 0, 0, 0) | (0, 0, 0, -3, -3, 0)",
    "  FAIL mixed-equation-2  witness: (0, 0, 0, -3, -3, 0) | (0, 2*x2 - x3, x3, 0, 0, 0)",
    "  FAIL f2-kernel-valued  witness: (0, 2*x2 - x3, x3, 0, 0, 0) | (3*x2, x2 + 1, 1, 3*x1, 0,"
    " 3*x1)",
]
_MORPHISM_AT = (
    " at (0, 0, 3*x1 - 3, 2*x2, 0, -3*x1) | (-2*x3, 0, 0, 2*x1 - 2*x3, -2, 0)"
    " | (0, 3*x3 - 1, 3*x3, 0, 0, 0)"
)

MORPHISM_NON_MEMBER_HOMOTOPY = {
    "leibniz": _MORPHISM_HEAD + [
        "  FAIL coherence  witness: defect (0, 0, 18*x3^2 - 6*x3, 0, -18*x1^2*x3^2 + 6*x1^2*x3"
        " + 18*x1*x3^2 - 6*x1*x3 + 18*x3^2, -18*x3^2 + 6*x3)" + _MORPHISM_AT,
    ],
    "lie": _MORPHISM_HEAD + [
        "  FAIL coherence  witness: defect (0, 0, 18*x3^2 - 6*x3, -18*x1*x3^2 + 6*x1*x3 + 9*x3^2"
        " - 3*x3, -18*x1^2*x3^2 + 6*x1^2*x3 + 18*x1*x3^2 - 6*x1*x3 + 15*x3^2 - 2*x3, -18*x1^2*x3"
        " + 3*x1^2 + 18*x1*x3 + 12*x2*x3 - 18*x3^2 - 3*x1 - 2*x2 + 6*x3)" + _MORPHISM_AT,
    ],
}


def _non_member_omega(b, value):
    """The 2-cochain with <omega(u1, u2), u4> = `value` as its one flat
    entry: on standard_r3's bundle omega(u1, u2) is then tangent, so omega
    is neither kernel-valued nor in the image of the contraction."""
    return KerCochain(Cochain(b, 3, {(0, 1, 3): value}))


@pytest.mark.parametrize("build", [build_leibniz2, build_lie2])
def test_morphism_non_member_homotopy_report(build, courant3, std3, chart3):
    # standard_r3 deformed by h = x1 dx(1,2,3), with a homotopy whose flat
    # pairs a frame pair against a tangent frame: every equation fails
    h = parse_form(chart3, "x1*dx(1,2,3)")
    deformed = apply_deformation(courant3, twist_deformation(std3, h))
    omega = _non_member_omega(std3, Poly.const(chart3, 1))
    src, tgt = build(courant3), build(deformed)
    report = verify_morphism(src, tgt, omega, trials=3, seed=1, max_degree=1)
    assert report.lines() == MORPHISM_NON_MEMBER_HOMOTOPY[src.flavor]


_SEED4_PAIR = (
    "(-2*x2, -x3, 0, 0, 3*x1 - 1, -2*x2) | (3*x1, 0, -2*x3 - 1, -2*x2 - 1, -3, -x3 + 2)"
)
_SEED4_AT = f" at {_SEED4_PAIR} | (-2*x2 + 2, 2, x3, 0, -3*x2, 2*x3)"
_SEED4_HEAD = [
    "[FAIL] two-term morphism equations",
    "  FAIL deg0-equation  witness: difference (-3*x1*x3, 0, 0, -2*x2*x3 - x3, 4*x2^2 + 2*x2, 0)"
    f" at {_SEED4_PAIR}",
    "  FAIL mixed-equation-1  witness: (-2*x2, -x3, 0, 0, 3*x1 - 1, -2*x2)"
    " | (0, 0, 0, -2*x3, -5*x3, 3*x1 + x2 + 2*x3 - 1)",
    "  FAIL mixed-equation-2  witness: (0, 0, 0, -2*x3, -5*x3, 3*x1 + x2 + 2*x3 - 1)"
    " | (-2*x2, -x3, 0, 0, 3*x1 - 1, -2*x2)",
    f"  FAIL f2-kernel-valued  witness: {_SEED4_PAIR}",
]
MORPHISM_LEAVING_KERNEL = {
    "leibniz": _SEED4_HEAD + [
        "  FAIL coherence  witness: defect (-6*x2*x3 - 12*x2 + 6*x3, 0, 0, 0, 0, 0)" + _SEED4_AT,
    ],
    "lie": _SEED4_HEAD + [
        "  FAIL coherence  witness: defect (-6*x2*x3 - 12*x2 + 6*x3, 0, 0, 0,"
        " 4*x2*x3 - 9*x1 + 8*x2 - x3 + 2, 2*x2^2 - x2 - 1)" + _SEED4_AT,
    ],
}


@pytest.mark.parametrize("build", [build_leibniz2, build_lie2])
def test_morphism_homotopy_leaving_the_kernel_report(build, courant3, std3, chart3):
    # at seed 4 omega(x, y) leaves the anchor kernel on the first draw: the
    # degree-0 equation compares with omega(x, y) itself and reports the
    # pair, which f2-kernel-valued names too, instead of raising
    omega = _non_member_omega(std3, Poly.const(chart3, 1))
    src, tgt = build(courant3), build(courant3)
    report = verify_morphism(src, tgt, omega, trials=3, seed=4, max_degree=1)
    assert report.lines() == MORPHISM_LEAVING_KERNEL[src.flavor]


DEGREE_CASES = {
    # a 2-cochain, kernel-valued, is what deforms a bracket
    "degree-2": (
        lambda p: validate_deformation(p, KerCochain(Cochain.zero(p.bundle, 4))),
        ["[FAIL] deformation validity", "  FAIL degree-2  witness: degree is 3"],
    ),
    # the 3-form whose differential untwists J
    "h-degree-3": (
        lambda p: pontryagin_vanishing_check(p, KForm.zero(p.bundle.chart, 2)),
        ["[FAIL] pontryagin vanishing", "  FAIL h-degree-3  witness: degree 2"],
    ),
    # a 2-cochain of degree 2 outside the contraction image
    "contraction-membership": (
        lambda p: validate_deformation(p, _non_member_omega(p.bundle, Poly.var(p.chart, 0))),
        [
            "[FAIL] deformation validity",
            "  ok   degree-2",
            "  FAIL kernel-valued  witness: omega(u1, u2) leaves the kernel",
            "  FAIL contraction-membership  witness: i_Dx1 psi at frames (1, 2) = x1",
        ],
    ),
}


@pytest.mark.parametrize("check", list(DEGREE_CASES))
def test_wrong_degree_report(check, courant3):
    check_of, expected = DEGREE_CASES[check]
    assert check_of(courant3).lines() == expected


def test_bfield_report_on_a_non_isotropic_anchor():
    # rho rho* = 1 on the identity metric: B# moves the pairing and the
    # anchor, so metric-preserved and anchor-preserved fail on frame u1
    c = Chart(["x1", "x2"])
    one, zero = Poly.const(c, 1), Poly.zero(c)
    b = CourantBundle(c, 2, _identity(2), [[one, zero], [zero, one]])
    assert validate_bundle(b).lines() == [
        "[FAIL] bundle",
        "  FAIL anchor-not-isotropic: (A^T g^-1 A)[1][1] = 1",
        "  FAIL anchor-not-isotropic: (A^T g^-1 A)[2][2] = 1",
    ]
    p = PreCourantAlgebroid(b, zero_table(b))
    assert bfield_verify(p, parse_form(c, "dx(1,2)"), trials=2, seed=0).lines() == [
        "[FAIL] b-field transformation",
        "  FAIL conjugation  witness: (1, 0) | (3*x2^2 - x2, -2*x1*x2)",
        "  FAIL metric-preserved  witness: (1, 0) | (1, 0)",
        "  FAIL anchor-preserved  witness: (1, 0)",
        "  ok   jacobiator-invariant",
        "  ok   closed-beta-identity",
        "  note: d beta = 0: transformation is an automorphism",
    ]


def _builtin(name):
    return build_context(parse_manifest(resolve_manifest(name).read_text(), name=name))


def _builtin_with_entry(name, i, j, k):
    """The builtin's context, and its algebroid with x1 u_(k+1) added to the
    table entry u_(i+1) o u_(j+1)."""
    ctx = _builtin(name)
    p, b = ctx.algebroid, ctx.bundle
    table = [list(row) for row in p.table]
    table[i][j] = table[i][j] + b.frame(k).scale(Poly.var(b.chart, 0))
    return ctx, p.with_table(table)


def test_quotient_jacobi_report_with_j_in_the_orthogonal():
    # twisted_r4 with x1 u2 added to u2 o u2: J still pairs to zero with the
    # kernel generators, so the precondition holds, but the skew bracket's
    # cyclic defect on a seeded triple does not
    ctx, p = _builtin_with_entry("twisted_r4", 1, 1, 1)
    complement, lift = ([ctx.bundle.section(c) for c in ctx.manifest.blocks[k]]
                        for k in ("complement", "lift"))
    assert quotient_jacobi_check(p, complement, lift, trials=1, seed=0).lines() == [
        "[FAIL] quotient jacobi identity",
        "  ok   lift-is-right-inverse",
        "  ok   jacobiator-in-orthogonal",
        "  FAIL jacobi-mod-orthogonal  witness: defect pairs with a kernel generator: "
        "2*x1*x3*x4 + 2*x1*x4",
    ]


def test_bfield_report_on_a_jacobiator_the_transform_moves():
    # standard_r3 with x1 u2 added to u2 o u3, so that J(u1, u2, u3) = u2;
    # beta = x1 x3 dx1^dx2 is not closed, and the deformed structure's J
    # differs on that triple
    ctx, p = _builtin_with_entry("standard_r3", 1, 2, 1)
    beta = parse_form(ctx.bundle.chart, "x1*x3*dx(1,2)")
    assert bfield_verify(p, beta, trials=2, seed=0, max_degree=1).lines() == [
        "[FAIL] b-field transformation",
        "  FAIL conjugation  witness: (0, 1, 0, 0, 0, 0) | (0, 0, 1, 0, 0, 0)",
        "  ok   metric-preserved",
        "  ok   anchor-preserved",
        "  FAIL jacobiator-invariant  witness: frames (1, 2, 3)",
        "  note: d beta != 0: bracket deformed by the pullback of d beta",
    ]


def _twisted_r4_with_mutant_flat():
    """twisted_r4 with one entry of its Jacobiator flat moved off J:
    <J(u1, u2, u3), u4> kept as 0 instead of -1."""
    p = _builtin("twisted_r4").algebroid
    flat = jacobiator_flat(p)
    zero = Poly.zero(p.bundle.chart)
    assert flat.value_at((0, 1, 2, 3)) == Poly.const(p.bundle.chart, -1)
    p.jflat = Cochain(p.bundle, 4, {**flat.terms, (0, 1, 2, 3): zero})
    return p


def test_two_term_reports_on_a_mutant_flat():
    # l3 reads J from the kept flat, and the defect checks compare it with
    # the nested brackets, so a flat that is not J's fails both flavours
    p = _twisted_r4_with_mutant_flat()
    leibniz = verify_leibniz2(build_leibniz2(p), trials=1, seed=0, max_degree=1)
    assert leibniz.lines() == LEIBNIZ2_MUTANT_FLAT
    lie = verify_lie2(build_lie2(p), trials=1, seed=0, max_degree=1)
    assert lie.lines() == LIE2_MUTANT_FLAT


KERNEL_SLOT_MUTANT = [
    "[FAIL] pontryagin representative",
    "  ok   lift-is-right-inverse",
    "  FAIL kernel-slots-vanish  witness: J(kappa_5, u1, u2) != 0",
]


def test_pontryagin_kernel_slot_mutant_report():
    # twisted_r4 with dx1 o d2 = x1 dx2 (and its negative transposed): the
    # lift stays a right inverse, but the cotangent frame kappa_5 = u5 no
    # longer kills J, so H is not well defined and d-h-zero never runs
    ctx = _builtin("twisted_r4")
    p, b = ctx.algebroid, ctx.bundle
    table = [list(row) for row in p.table]
    x1 = Poly.var(b.chart, 0)
    table[4][1], table[1][4] = b.frame(5).scale(x1), -b.frame(5).scale(x1)
    lift = [b.section(coeffs) for coeffs in ctx.manifest.blocks["lift"]]
    form, report = pontryagin_representative(p.with_table(table), lift)
    assert form is None and report.skipped
    assert report.lines() == KERNEL_SLOT_MUTANT


# twisted_r4's [lift] row -> its replacement and the lift-is-right-inverse witness
BAD_LIFTS = {
    "sigma.1 = 1, 0, 0, 0, 0, 0, 0, 0": (
        "sigma.1 = 0, 0, 0, 0, 1, 0, 0, 0",
        "rho(sigma_1) = (0, 0, 0, 0) is not the coordinate direction x1",
    ),
    "sigma.4 = 0, 0, 0, 1, 0, 0, 0, 0": ("", "lift must supply 4 sections"),
}


@pytest.mark.parametrize("row", sorted(BAD_LIFTS), ids=["wrong-anchor", "short"])
def test_naive_cohomology_checks_its_lift(row):
    # naive-cohomology builds its kernel generators from the lift, so a lift
    # that is not a right inverse skips it as it skips pontryagin, instead of
    # failing jacobiator-in-orthogonal or indexing past a short lift
    new, witness = BAD_LIFTS[row]
    text = resolve_manifest("twisted_r4").read_text().replace(row, new)
    report = run_manifest(parse_manifest(text), tasks=["naive-cohomology", "pontryagin"])
    assert report.to_text().splitlines()[6:] == [
        "task naive-cohomology = skipped-precondition",
        f"  fail lift-is-right-inverse: {witness}",
        "task pontryagin = skipped-precondition",
        f"  fail lift-is-right-inverse: {witness}",
        "result = fail",
    ]


def test_derived_identities_symmetrization_report():
    p = _broken_plane(AXIOM_CASES["symmetrization"][0])
    assert verify_derived_identities(p, trials=4, seed=5).lines() == DERIVED_SYMMETRIZATION


@pytest.mark.parametrize("case", list(AXIOM_CASES))
def test_jacobiator_theorem_without_precheck_report(case):
    p = _broken_plane(AXIOM_CASES[case][0])
    report = verify_jacobiator_theorem(p, precheck=False, trials=2, seed=5)
    assert report.lines() == [
        "[FAIL] jacobiator theorem suite",
        "  ok   skew-symmetric",
        f"  FAIL tensorial  witness: {TENSORIAL_WITNESS[case]}",
        "  ok   kernel-valued",
        "  ok   flat-alternating",
        "  ok   derivative-slot-vanishes",
        "  note: flat checks skipped: prerequisites failed",
    ]


def test_jacobiator_theorem_reports_on_a_mutant_flat():
    # dissection_rank2 with <J(u1, u2, u3), u5> kept as x4 instead of 0: the
    # skew and kernel checks read J itself and pass, while partial J and
    # D(J-flat) are taken from the kept flat and fail on its first tuple
    p = _builtin("dissection_rank2").algebroid
    flat = jacobiator_flat(p)
    raised = flat.value_at((0, 1, 2, 4)) + Poly.var(p.bundle.chart, 3)
    p.jflat = Cochain(p.bundle, 4, {**flat.terms, (0, 1, 2, 4): raised})
    assert verify_jacobiator_theorem(p, trials=1, seed=0, max_degree=1).lines() == [
        "[FAIL] jacobiator theorem suite",
        "  ok   precondition-axioms",
        "  ok   skew-symmetric",
        "  ok   tensorial",
        "  ok   kernel-valued",
        "  ok   flat-alternating",
        "  ok   derivative-slot-vanishes",
        "  ok   flat-membership",
        "  FAIL partial-j-zero  witness: frames (1, 2, 3, 4): "
        "partial J = (0, 0, 0, 0, 0, -1, 0, 0, 0, 0)",
        "  FAIL d-jflat-zero  witness: frames (1, 2, 3, 4, 5): D(J-flat) = -1",
    ]


def test_dissection_pontryagin_reports_a_table_off_the_form():
    # dissection_rank2 with u1 o u2 moved by u3 (and u2 o u1 by -u3): the
    # flatness conditions read the dissection data and still hold, while
    # J-flat, taken from the table, leaves the pulled-back form
    ctx = _builtin("dissection_rank2")
    p, b = ctx.algebroid, ctx.bundle
    table = [list(row) for row in p.table]
    table[0][1], table[1][0] = table[0][1] + b.frame(2), table[1][0] - b.frame(2)
    _, report = dissection_pontryagin(p.with_table(table), ctx.dissection)
    assert report.lines() == [
        "[FAIL] dissection pontryagin form",
        "  ok   flatness/fiber-jacobi",
        "  ok   flatness/connection-derivation",
        "  ok   flatness/curvature-bianchi",
        "  ok   flatness/connection-curvature-matches",
        "  FAIL jflat-matches-sign-corrected-form  witness: frames (1, 2, 4, 5): "
        "J-flat = -1 vs 0",
        "  ok   d-h-zero",
    ]


def _standard_r4():
    c = Chart(["x1", "x2", "x3", "x4"])
    b = standard_bundle(c)
    return PreCourantAlgebroid(b, zero_table(b)), c


def test_pontryagin_vanishing_reports_the_first_differing_quadruple():
    # twisted_r4 has J-flat = -1 on (1, 2, 3, 4); a 3-form whose pullback
    # differs there fails on it, whether both sides are nonzero or only one
    p = _builtin("twisted_r4").algebroid
    c = p.bundle.chart
    assert pontryagin_vanishing_check(p, parse_form(c, "x3*dx(1,2,4)")).lines() == [
        "[FAIL] pontryagin vanishing",
        "  FAIL jflat-equals-pullback-dh  witness: frames (1, 2, 3, 4): "
        "J-flat = -1 but rho*(dh) = 1",
    ]
    assert pontryagin_vanishing_check(p, KForm.zero(c, 3)).lines() == [
        "[FAIL] pontryagin vanishing",
        "  FAIL jflat-equals-pullback-dh  witness: frames (1, 2, 3, 4): "
        "J-flat = -1 but rho*(dh) = 0",
    ]
    # the untwisted structure has J-flat = 0 where rho*(dh) is not
    untwisted, c = _standard_r4()
    assert pontryagin_vanishing_check(untwisted, parse_form(c, "x4*dx(1,2,3)")).lines() == [
        "[FAIL] pontryagin vanishing",
        "  FAIL jflat-equals-pullback-dh  witness: frames (1, 2, 3, 4): "
        "J-flat = 0 but rho*(dh) = -1",
    ]


def test_pontryagin_vanishing_reports_a_jacobiator_the_flat_misses():
    # standard_r3 with x3 u4 added to u1 o u2: J(u1, u2, u3) = u4 pairs only
    # with u1, so J-flat, kept on increasing keys, drops it and matches
    # rho*(dh) = 0, but the structure untwisted by h = 0 keeps that J
    p = _builtin("standard_r3").algebroid
    b = p.bundle
    table = [list(row) for row in p.table]
    table[0][1] = table[0][1] + b.frame(3).scale(Poly.var(b.chart, 2))
    q = p.with_table(table)
    assert pontryagin_vanishing_check(q, KForm.zero(b.chart, 3)).lines() == [
        "[FAIL] pontryagin vanishing",
        "  ok   jflat-equals-pullback-dh",
        "  FAIL untwisted-jacobiator-zero  witness: frames (1, 2, 3): J = (0, 0, 0, 1, 0, 0)",
    ]


def test_deformation_identity_report_with_a_sparse_partial_omega():
    # twisting the standard structure on four coordinates by x4 dx(1,2,3):
    # partial omega is nonzero on 4 of the 56 frame triples.  Neither
    # identity check can fail on a valid omega: on frames
    # J' = J + partial omega + omega^2 / 2 is the expansion of the
    # bracket plus omega, and on sections it extends C-infinity-linearly
    # because omega is kernel-valued, killed by every D f and alternating
    p, c = _standard_r4()
    omega = twist_deformation(p.bundle, parse_form(c, "x4*dx(1,2,3)"))
    deformed = apply_deformation(p, omega)
    report = verify_deformation_identity(p, omega, deformed, trials=2, seed=0, max_degree=1)
    assert report.lines() == [
        "[pass] deformation identity",
        "  ok   identity-on-frames",
        "  ok   identity-on-sections",
        "  note: omega-square vanishes on all frame triples",
    ]
