"""The one sparse store behind sections, vector fields, forms and cochains
(`poly.PolyMap`), checked against dense coefficientwise arithmetic on
seeded values over all six builtin structures."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from precourant.algebroid import bracket
from precourant.bundle import Section, anchor_apply, dee, standard_bundle
from precourant.cli import resolve_manifest
from precourant.cochain import Cochain, pullback_form
from precourant.errors import ChartMismatchError, DegreeError, RankMismatchError
from precourant.exterior import KForm, VectorField, ext_d, wedge
from precourant.manifest import parse_manifest
from precourant.poly import Chart, Poly, PolyMap
from precourant.runner import build_context
from precourant.sampling import random_form, random_poly, random_section

BUILTINS = [
    "standard_r3",
    "twisted_r4",
    "twisted_action_synthetic",
    "dissection_rank2",
    "action_abelian",
    "double_nonabelian",
]
SCALARS = [0, 1, -1, Fraction(3, 2)]


@pytest.fixture(scope="module", params=BUILTINS)
def algebroid(request):
    name = request.param
    return build_context(parse_manifest(resolve_manifest(name).read_text(), name=name)).algebroid


def samples(p, seed):
    """Seeded sections, vector fields, forms and cochains on p's bundle."""
    b = p.bundle
    rng = random.Random(seed)
    sections = [random_section(rng, b, 2) for _ in range(4)]
    sections += [b.zero_section(), b.frame(0), sections[0] - sections[0]]
    sections += [bracket(p, sections[0], sections[1]), dee(b, random_poly(rng, b.chart, 3))]
    fields = [anchor_apply(s) for s in sections] + [VectorField.coordinate(b.chart, 0)]
    forms = [random_form(rng, b.chart, k, 2, 3) for k in range(1, min(b.chart.dim, 3) + 1)]
    forms += [ext_d(f) for f in forms] + [wedge(forms[0], forms[0])]
    cochains = [pullback_form(b, f) for f in forms[:2]]
    cochains += [
        Cochain(
            b, k, {idx: random_poly(rng, b.chart, 2) for idx in combinations(range(b.rank), k)}
        )
        for k in (1, 2)
    ]
    return sections, fields, forms, cochains


def dense(m):
    """Every value of m, zeros included, in a fixed key order."""
    if isinstance(m, (Section, VectorField)):
        return m.coeffs
    # a form over a chart or a cochain over a frame
    return tuple(m.value_at(i) for i in combinations(range(m.size), m.degree))


def pairs(values):
    """Same-space pairs, a value with itself included."""
    return [(a, b) for a in values for b in values if a.space == b.space]


def test_no_zero_value_is_stored(algebroid):
    for group in samples(algebroid, 1):
        for m in group:
            assert isinstance(m, PolyMap)
            assert all(not p.is_zero() for p in m.terms.values()), m
            assert m.is_zero() == all(p.is_zero() for p in dense(m))


def test_dense_round_trip_keeps_value_and_hash(algebroid):
    sections, fields, _, _ = samples(algebroid, 2)
    b = algebroid.bundle
    for s in sections:
        again = Section(b, s.coeffs)
        assert again == s and hash(again) == hash(s)
        assert len(s.coeffs) == b.rank
    for x in fields:
        again = VectorField(b.chart, x.coeffs)
        assert again == x and hash(again) == hash(x)
        assert len(x.coeffs) == b.chart.dim


def test_arithmetic_matches_dense_coefficientwise(algebroid):
    b = algebroid.bundle
    rng = random.Random(3)
    functions = [random_poly(rng, b.chart, 2) for _ in range(2)] + [Poly.zero(b.chart)]
    for group in samples(algebroid, 3):
        for m, n in pairs(group):
            assert dense(m + n) == tuple(x + y for x, y in zip(dense(m), dense(n)))
            assert dense(m - n) == tuple(x - y for x, y in zip(dense(m), dense(n)))
            assert (m - n).is_zero() == (m == n)
        for m in group:
            assert dense(-m) == tuple(-x for x in dense(m))
            for f in functions + SCALARS:
                assert dense(m.scale(f)) == tuple(x * f for x in dense(m))
            # equal values hash equally, whichever way they were built
            rebuilt = (m + m) - m
            assert rebuilt == m and hash(rebuilt) == hash(m)


def test_mismatches_raise_the_types_of_the_dense_types():
    c2, c3 = Chart(["x1", "x2"]), Chart(["y1", "y2"])
    b2, b3 = standard_bundle(c2), standard_bundle(c3)
    one = Poly.const(c2, 1)
    with pytest.raises(RankMismatchError):
        Section(b2, [one])
    with pytest.raises(ChartMismatchError):
        Section(b2, [Poly.const(c3, 1)] + [Poly.zero(c2)] * 3)
    with pytest.raises(RankMismatchError):
        b2.frame(0) + b3.frame(0)
    with pytest.raises(RankMismatchError):
        b2.frame(0) - b3.frame(0)
    with pytest.raises(ChartMismatchError):
        b2.frame(0).scale(Poly.var(c3, 0))
    with pytest.raises(ValueError):
        VectorField(c2, [one])
    with pytest.raises(ChartMismatchError):
        VectorField(c2, [Poly.const(c3, 1), one])
    with pytest.raises(ChartMismatchError):
        VectorField.coordinate(c2, 0) + VectorField.coordinate(c3, 0)
    with pytest.raises(ChartMismatchError):
        VectorField.coordinate(c2, 0) - VectorField.coordinate(c3, 0)
    with pytest.raises(ChartMismatchError):
        KForm.basis(c2, [0]) + KForm.basis(c3, [0])
    with pytest.raises(DegreeError):
        KForm.basis(c2, [0]) + KForm.basis(c2, [0, 1])
    with pytest.raises(DegreeError):
        KForm.basis(c2, [0]) - KForm.basis(c2, [0, 1])
    with pytest.raises(ValueError):
        KForm(c2, 2, {(1, 0): one})
    with pytest.raises(DegreeError):
        Cochain(b2, 1, {(0,): one}) + Cochain(b2, 2, {(0, 1): one})
    with pytest.raises(DegreeError):
        Cochain(b2, 1, {(0,): one}) - Cochain(b3, 1, {(0,): Poly.const(c3, 1)})
    with pytest.raises(ValueError):
        Cochain(b2, 2, {(1, 1): one})
    # the space is part of the value
    assert b2.zero_section() != b3.zero_section()
    assert VectorField.zero(c2) != VectorField.zero(c3)
    assert KForm.zero(c2, 1) != KForm.zero(c2, 2)
    assert Cochain.zero(b2, 1) != Cochain.zero(b2, 2)
