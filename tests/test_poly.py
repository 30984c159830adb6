from fractions import Fraction

import pytest

from precourant.errors import ChartMismatchError, ParseError
from precourant.parsing import parse_form, parse_poly, parse_scalar
from precourant.poly import Chart, Poly, format_poly


@pytest.fixture
def c():
    return Chart(["x1", "x2", "x3"])


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart([])
    with pytest.raises(ValueError):
        Chart(["x", "x"])
    with pytest.raises(ValueError):
        Chart(["not an ident"])


def test_canonical_no_zero_terms(c):
    p = Poly(c, {(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(0)})
    assert (0, 1, 0) not in p.terms
    q = Poly.var(c, 0) * 2 - Poly.var(c, 0) * 2
    assert q.is_zero()
    assert q == Poly.zero(c)


def test_arithmetic_exact(c):
    x1, x2 = Poly.var(c, 0), Poly.var(c, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    third = Poly.const(c, Fraction(1, 3))
    assert third * 3 == Poly.const(c, 1)
    assert (x1 ** 5).terms == {(5, 0, 0): 1}


def test_diff_and_eval(c):
    x1, x2 = Poly.var(c, 0), Poly.var(c, 1)
    p = x1 * x1 * x2
    assert p.diff(0) == x1 * x2 * 2
    assert p.diff(2).is_zero()
    assert p.eval((2, 3, 0)) == 12
    assert p.eval((Fraction(1, 2), 4, 1)) == 1


def test_chart_mismatch(c):
    other = Chart(["y1", "y2", "y3"])
    with pytest.raises(ChartMismatchError):
        Poly.var(c, 0) + Poly.var(other, 0)


def test_format_graded_lex(c):
    x1, x2, x3 = (Poly.var(c, i) for i in range(3))
    p = x2 + x1 * x1 * x3 * Fraction(3, 2)
    assert format_poly(p) == "3/2*x1^2*x3 + x2"
    assert format_poly(Poly.zero(c)) == "0"
    assert format_poly(-x1) == "-x1"
    # higher total degree first, then lexicographic on exponents
    q = x3 * x3 + x1 * x2
    assert format_poly(q) == "x1*x2 + x3^2"


def test_parse_roundtrip(c):
    for text in ("(3/2)*x1^2*x3 - x2", "x1*x2 + 1", "-x1 + 2*x3^4", "7/3"):
        p = parse_poly(c, text)
        assert parse_poly(c, format_poly(p)) == p


def test_parse_examples(c):
    assert parse_poly(c, "(3/2)*x1^2*x3 - x2") == (
        Poly.var(c, 0) ** 2 * Poly.var(c, 2) * Fraction(3, 2) - Poly.var(c, 1)
    )
    assert parse_poly(c, " x1 * x1 ") == Poly.var(c, 0) ** 2
    assert parse_poly(c, "2^3") == Poly.const(c, 8)


def test_parse_error_positions(c):
    with pytest.raises(ParseError) as err:
        parse_poly(c, "x1^")
    assert err.value.line == 1
    assert err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse_poly(c, "x9 + 1")
    assert err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_poly(c, "(x1 + x2")
    assert err.value.column == 9
    with pytest.raises(ParseError) as err:
        parse_poly(c, "x1 @ x2")
    assert err.value.column == 4
    # a digit that is not an ASCII one is no number: a positioned error
    for text, column in (("x1^\u00b2", 4), ("\u00b2*x1", 1), ("2/\u00b2", 3),
                         ("x1^\u0663 + \uff12", 4), ("x1 + \uff12", 6)):
        with pytest.raises(ParseError) as err:
            parse_poly(c, text)
        assert err.value.column == column, text
    # a zero denominator is named at its first digit, in either grammar
    for parse, text, column in ((parse_poly, "x1 + 3/0", 8), (parse_poly, "1/00*x1", 3),
                                (parse_form, "1/0*dx(1,2)", 3)):
        with pytest.raises(ParseError) as err:
            parse(c, text)
        assert (err.value.column, err.value.expected) == (column, "nonzero denominator"), text


def test_integral_literals_reach_poly_as_ints(c, monkeypatch):
    seen = []
    real = Poly.const

    def recorded(chart, value):
        seen.append(value)
        return real(chart, value)

    monkeypatch.setattr(Poly, "const", staticmethod(recorded))
    x1 = Poly.var(c, 0)
    assert parse_poly(c, "12*x1 + 3/4 - 6/3") == real(c, 12) * x1 + real(c, Fraction(-5, 4))
    assert seen == [12, Fraction(3, 4), 2]
    assert [type(v) for v in seen] == [int, Fraction, Fraction]


def test_parse_scalar():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar(" -2 ") == -2
    with pytest.raises(ParseError):
        parse_scalar("x")


LONG = "3" * 5000


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (parse_poly, LONG, 1),
        (parse_poly, f"x1 + {LONG}/7", 6),
        (parse_poly, f"1/{LONG}*x2", 1),
        (parse_poly, f"x1^{LONG}", 4),
        (parse_form, f"dx({LONG})", 4),
        (parse_form, f"{LONG}*dx(1)", 1),
        (parse_scalar, LONG, 1),
        (parse_scalar, f"-2/{LONG}", 2),
    ],
    ids=["poly", "poly-numerator", "poly-denominator", "exponent", "dx-index", "form-coefficient",
         "scalar", "scalar-denominator"],
)
def test_number_beyond_the_int_digit_limit_is_a_parse_error(c, parse, text, column):
    # int() refuses such a string with a ValueError; the tokenizer positions it
    with pytest.raises(ParseError) as err:
        parse(text) if parse is parse_scalar else parse(c, text)
    assert err.value.column == column
    assert err.value.expected.endswith("digits per integer")
    assert len(str(err.value)) < 200
