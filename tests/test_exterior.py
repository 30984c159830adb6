import random

import pytest

from precourant.errors import DegreeError
from precourant.exterior import (
    KForm,
    VectorField,
    contract,
    evaluate,
    ext_d,
    format_kform,
    vf_apply,
    vf_bracket,
    wedge,
)
from precourant.parsing import parse_form
from precourant.poly import Chart, Poly
from precourant.sampling import random_form, random_poly


@pytest.fixture
def c():
    return Chart(["x1", "x2", "x3", "x4"])


def d(c, i):
    return VectorField.coordinate(c, i)


def lie_derivative(x, a):
    """The Cartan formula L_X = i_X d + d i_X on a form of degree >= 1."""
    return contract(x, ext_d(a)) + ext_d(contract(x, a))


def test_vf_apply_examples(c):
    x1, x2 = Poly.var(c, 0), Poly.var(c, 1)
    assert vf_apply(d(c, 0), x1) == Poly.const(c, 1)
    assert vf_apply(d(c, 0), Poly.const(c, 5)).is_zero()
    x = VectorField(c, [x2] + [Poly.zero(c)] * 3)
    assert vf_apply(x, x1 * x2) == x2 * x2


def test_vf_bracket_examples(c):
    zero = Poly.zero(c)
    x1 = Poly.var(c, 0)
    assert vf_bracket(d(c, 0), d(c, 1)).is_zero()
    x1d2 = VectorField(c, [zero, x1, zero, zero])
    assert vf_bracket(x1d2, d(c, 0)) == VectorField(c, [zero, -Poly.const(c, 1), zero, zero])
    x1d1 = VectorField(c, [x1, zero, zero, zero])
    assert vf_bracket(x1d1, x1d2) == x1d2


def test_vf_bracket_jacobi_sampled(c):
    rng = random.Random(0)
    for _ in range(6):
        fields = [
            VectorField(c, [random_poly(rng, c, 2) for _ in range(4)])
            for _ in range(3)
        ]
        x, y, z = fields
        total = (
            vf_bracket(x, vf_bracket(y, z))
            + vf_bracket(y, vf_bracket(z, x))
            + vf_bracket(z, vf_bracket(x, y))
        )
        assert total.is_zero()


def test_wedge_examples(c):
    dx1 = KForm.basis(c, [0])
    dx2 = KForm.basis(c, [1])
    assert wedge(dx1, dx2) == KForm.basis(c, [0, 1])
    assert wedge(dx1, dx1).is_zero()
    x1 = Poly.var(c, 0)
    assert wedge(dx2.scale(x1), dx1) == -KForm.basis(c, [0, 1]).scale(x1)


def test_wedge_properties_sampled(c):
    rng = random.Random(1)
    for _ in range(5):
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(rng, c, ka)
        b = random_form(rng, c, kb)
        e = random_form(rng, c, rng.randint(0, 2))
        assert wedge(wedge(a, b), e) == wedge(a, wedge(b, e))
        sign = -1 if (ka * kb) % 2 else 1
        ba = wedge(b, a)
        assert wedge(a, b) == (ba if sign > 0 else -ba)


def test_ext_d_examples(c):
    x1, x4 = Poly.var(c, 0), Poly.var(c, 3)
    assert ext_d(KForm.basis(c, [1]).scale(x1)) == KForm.basis(c, [0, 1])
    assert ext_d(KForm.basis(c, [0])).is_zero()
    got = ext_d(KForm.basis(c, [0, 1, 2]).scale(x4))
    assert got == -KForm.basis(c, [0, 1, 2, 3])  # dx4^dx1^dx2^dx3


def test_d_squared_zero_sampled(c):
    rng = random.Random(2)
    for degree in range(0, 3):
        for _ in range(4):
            a = random_form(rng, c, degree, max_degree=3)
            assert ext_d(ext_d(a)).is_zero()


def test_contract_examples(c):
    assert contract(d(c, 0), KForm.basis(c, [0])) == KForm.from_function(Poly.const(c, 1))
    assert contract(d(c, 1), KForm.basis(c, [0, 1])) == -KForm.basis(c, [0])
    assert contract(d(c, 2), KForm.basis(c, [0, 1])).is_zero()
    with pytest.raises(DegreeError):
        contract(d(c, 0), KForm.from_function(Poly.var(c, 0)))


def test_contract_antiderivation_and_nilpotent(c):
    rng = random.Random(3)
    for _ in range(5):
        x = VectorField(c, [random_poly(rng, c, 1) for _ in range(4)])
        a = random_form(rng, c, 2)
        b = random_form(rng, c, 1)
        lhs = contract(x, wedge(a, b))
        rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b))
        assert lhs == rhs
        big = random_form(rng, c, 3)
        assert contract(x, contract(x, big)).is_zero()


def test_lie_derivative_examples(c):
    x1 = Poly.var(c, 0)
    assert lie_derivative(d(c, 0), KForm.basis(c, [1]).scale(x1)) == KForm.basis(c, [1])
    assert lie_derivative(d(c, 0), KForm.basis(c, [1])).is_zero()
    x1d1 = VectorField(c, [x1] + [Poly.zero(c)] * 3)
    assert lie_derivative(x1d1, KForm.basis(c, [0])) == KForm.basis(c, [0])


def test_lie_derivative_is_wedge_derivation(c):
    rng = random.Random(4)
    for _ in range(5):
        x = VectorField(c, [random_poly(rng, c, 1) for _ in range(4)])
        a = random_form(rng, c, 1)
        b = random_form(rng, c, 2)
        lhs = lie_derivative(x, wedge(a, b))
        rhs = wedge(lie_derivative(x, a), b) + wedge(a, lie_derivative(x, b))
        assert lhs == rhs


def test_evaluate_order_convention(c):
    h = parse_form(c, "x4*dx(1,2,3)")
    x4 = Poly.var(c, 3)
    assert evaluate(h, [d(c, 0), d(c, 1), d(c, 2)]) == x4
    assert evaluate(h, [d(c, 1), d(c, 0), d(c, 2)]) == -x4
    assert evaluate(h, [d(c, 0), d(c, 1), d(c, 3)]).is_zero()


def test_form_parse_and_format(c):
    f = parse_form(c, "x4*dx(1,2,3) - 1/2*dx(1,2,4)")
    assert f.degree == 3
    assert parse_form(c, format_kform(f)) == f
    zero_like = parse_form(c, "dx(1,2) - dx(1,2)")
    assert zero_like.is_zero()
    from precourant.errors import ParseError

    with pytest.raises(ParseError):
        parse_form(c, "dx(1,2) + dx(1)")  # mixed degrees
    with pytest.raises(ParseError):
        parse_form(c, "dx(2,1)")  # not increasing
    with pytest.raises(ParseError):
        parse_form(c, "dx(0)")  # out of range
