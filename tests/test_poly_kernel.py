"""The exact Poly kernel against the kernel it replaced.

`ReferencePoly` and `reference_format_poly` below are the earlier `Poly`
arithmetic and formatter, copied unchanged apart from their names: every
coefficient is a Fraction and every result goes through the validating
constructor.  They are the oracle for the current kernel, which stores int
numerators over one common denominator, computes in ints only and builds
arithmetic results through its trusted constructors; its `terms` view must
equal the reference's terms.  sympy, a test dependency, is a second
oracle.
"""

import math
import operator
import random
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

import pytest
import sympy

from precourant.algebroid import PreCourantAlgebroid, bracket, zero_table
from precourant.bundle import Section, standard_bundle
from precourant.errors import ChartMismatchError
from precourant.poly import Chart, Poly, format_poly

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]


# --- the earlier kernel, kept as the oracle ------------------------------

def _grlex_key(exp: Exponent):
    # sort() is ascending; negate so the leading monomial comes first
    return (-sum(exp), tuple(-e for e in exp))


class ReferencePoly:
    """An exact polynomial attached to a chart.

    Immutable.  `terms` never contains a zero coefficient.  The hash is
    computed on first use and kept.
    """

    __slots__ = ("chart", "terms", "_hash")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Scalar]):
        clean: Dict[Exponent, Fraction] = {}
        dim = chart.dim
        for exp, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(exp) != dim or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for chart of dim {dim}")
            clean[tuple(exp)] = c
        self.chart = chart
        self.terms = clean
        self._hash = None

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "ReferencePoly":
        return ReferencePoly(chart, {})

    @staticmethod
    def const(chart: Chart, value: Scalar) -> "ReferencePoly":
        return ReferencePoly(chart, {(0,) * chart.dim: Fraction(value)})

    @staticmethod
    def var(chart: Chart, index: int) -> "ReferencePoly":
        exp = [0] * chart.dim
        exp[index] = 1
        return ReferencePoly(chart, {tuple(exp): Fraction(1)})

    # --- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # --- arithmetic ---------------------------------------------------

    def _check(self, other: "ReferencePoly") -> None:
        if self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def __add__(self, other: "ReferencePoly") -> "ReferencePoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return ReferencePoly(self.chart, out)

    def __neg__(self) -> "ReferencePoly":
        return ReferencePoly(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ReferencePoly") -> "ReferencePoly":
        return self + (-other)

    def __mul__(self, other: Union["ReferencePoly", Scalar]) -> "ReferencePoly":
        if not isinstance(other, ReferencePoly):
            c = Fraction(other)
            if c == 0:
                return ReferencePoly.zero(self.chart)
            return ReferencePoly(self.chart, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(exp, 0) + ca * cb
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return ReferencePoly(self.chart, out)

    def __rmul__(self, other: Scalar) -> "ReferencePoly":
        return self * other

    def __pow__(self, n: int) -> "ReferencePoly":
        if n < 0:
            raise ValueError("negative power")
        result = ReferencePoly.const(self.chart, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReferencePoly)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.chart, frozenset(self.terms.items())))
        return self._hash

    # --- calculus -----------------------------------------------------

    def diff(self, index: int) -> "ReferencePoly":
        """Partial derivative with respect to coordinate `index`."""
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            k = exp[index]
            if k == 0:
                continue
            e = list(exp)
            e[index] = k - 1
            out[tuple(e)] = c * k
        return ReferencePoly(self.chart, out)

    def eval(self, point: Tuple[Scalar, ...]) -> Fraction:
        """Evaluate at a rational point."""
        if len(point) != self.chart.dim:
            raise ValueError("point has wrong dimension")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(pt, exp):
                if e:
                    v *= x**e
            total += v
        return total

    # --- serialization ------------------------------------------------

    def __str__(self) -> str:
        return reference_format_poly(self)

    def __repr__(self) -> str:
        return f"ReferencePoly({reference_format_poly(self)})"


def reference_format_scalar(c: Fraction) -> str:
    return str(c)


def reference_format_poly(p: ReferencePoly) -> str:
    """Canonical string in graded-lex order, e.g. ``3/2*x1^2*x4 - x2``."""
    if p.is_zero():
        return "0"
    parts = []
    for exp in sorted(p.terms, key=_grlex_key):
        c = p.terms[exp]
        factors = []
        for name, e in zip(p.chart.var_names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = reference_format_scalar(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{reference_format_scalar(abs(c))}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# --- seeded inputs ----------------------------------------------------------

SCALARS = [0, 1, -1, Fraction(3, 2), Fraction(-2, 1), 4]


def random_terms(rng: random.Random, dim: int) -> Dict[Exponent, Scalar]:
    """Up to six terms of degree <= 4 over a few variables, so that sums and
    products collide and cancel; coefficients are ints and Fractions."""
    terms: Dict[Exponent, Scalar] = {}
    for _ in range(rng.randint(0, 6)):
        exp = [0] * dim
        for _ in range(rng.randint(0, 4)):
            exp[rng.randrange(min(dim, 3))] += 1
        if rng.random() < 0.5:
            coeff = rng.randint(-3, 3)
        else:
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[tuple(exp)] = coeff
    return terms


def cases(seed: int, count: int):
    """Pairs of (kernel, reference) operands on charts of dimension 2..8;
    the second operand is sometimes zero, a multiple, or the negation of
    part of the first, so that terms cancel."""
    rng = random.Random(seed)
    for _ in range(count):
        chart = Chart([f"x{i + 1}" for i in range(rng.randint(2, 8))])
        a = random_terms(rng, chart.dim)
        kind = rng.randrange(4)
        if kind == 0:
            b = {}
        elif kind == 1:
            b = {e: -c for e, c in a.items() if rng.random() < 0.7}
            b.update(random_terms(rng, chart.dim) if rng.random() < 0.5 else {})
        elif kind == 2:
            b = {e: c * Fraction(2, 3) for e, c in a.items()}
        else:
            b = random_terms(rng, chart.dim)
        yield (
            chart,
            (Poly(chart, a), ReferencePoly(chart, a)),
            (Poly(chart, b), ReferencePoly(chart, b)),
        )


def assert_agrees(p: Poly, ref: ReferencePoly) -> None:
    assert p.terms == ref.terms
    assert format_poly(p) == reference_format_poly(ref)
    assert hash(p) == hash(ref)
    assert p == Poly(ref.chart, ref.terms)
    assert_clean(p)


def assert_clean(p: Poly) -> None:
    """The rational view: valid exponents; each coefficient a nonzero int or
    a Fraction with a denominator above 1; never a float.  Then the stored
    form behind it."""
    for exp, c in p.terms.items():
        assert type(exp) is tuple and len(exp) == p.chart.dim
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) in (int, Fraction), (exp, c)
        assert c != 0
        if type(c) is Fraction:
            assert c.denominator > 1
    assert_canonical(p)


def assert_canonical(p: Poly) -> None:
    """num / den: int numerators, none zero, over one positive int
    denominator that shares no factor with all of them; zero is {} over 1."""
    assert type(p.num) is dict and type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1
    assert p.terms == {e: _view(Fraction(c, p.den)) for e, c in p.num.items()}


def _view(q: Fraction) -> Scalar:
    return q.numerator if q.denominator == 1 else q


# --- differential tests ------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_matches_reference(seed):
    for chart, (a, ra), (b, rb) in cases(seed, 60):
        assert_agrees(a, ra)
        assert_agrees(a + b, ra + rb)
        assert_agrees(b + a, rb + ra)
        assert_agrees(a - b, ra - rb)
        assert_agrees(b - a, rb - ra)
        assert_agrees(-a, -ra)
        assert_agrees(a * b, ra * rb)
        assert_agrees(b * a, rb * ra)
        assert_agrees(a - a, ra - ra)
        for s in SCALARS:
            assert_agrees(a * s, ra * s)
            assert_agrees(s * a, s * ra)
        for n in range(4):
            assert_agrees(a ** n, ra ** n)
        for i in range(chart.dim):
            assert_agrees(a.diff(i), ra.diff(i))
        assert (a == b) == (ra == rb)
        assert (hash(a) == hash(b)) == (hash(ra) == hash(rb))
        assert a.is_zero() == ra.is_zero()


@pytest.mark.parametrize("seed", range(2))
def test_eval_matches_reference(seed):
    rng = random.Random(100 + seed)
    for chart, (a, ra), (b, rb) in cases(seed, 40):
        point = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(chart.dim)
        )
        for p, ref in ((a, ra), (a * b, ra * rb), (a - b, ra - rb)):
            value = p.eval(point)
            assert type(value) is Fraction and value == ref.eval(point)


def test_constructors_match_reference():
    chart = Chart(["x", "y", "z"])
    for value in SCALARS + [Fraction(6, 3), Fraction(1, 7)]:
        assert_agrees(Poly.const(chart, value), ReferencePoly.const(chart, value))
    assert_agrees(Poly.zero(chart), ReferencePoly.zero(chart))
    for i in range(3):
        assert_agrees(Poly.var(chart, i), ReferencePoly.var(chart, i))


def test_sympy_cross_check():
    def to_sympy(p, gens):
        terms = {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                 for e, c in p.terms.items()}
        return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ) if terms else (
            sympy.Poly(0, *gens, domain=sympy.QQ)
        )

    def from_sympy(sp):
        return {
            e: Fraction(int(c.p), int(c.q)) for e, c in sp.as_dict().items() if c != 0
        }

    for chart, (a, _), (b, _) in cases(7, 30):
        gens = sympy.symbols(chart.var_names)
        sa, sb = to_sympy(a, gens), to_sympy(b, gens)
        assert (a * b).terms == from_sympy(sa * sb)
        assert (a + b).terms == from_sympy(sa + sb)
        assert (a - b).terms == from_sympy(sa - sb)
        assert (a ** 3).terms == from_sympy(sa ** 3)
        assert (a * Fraction(3, 2)).terms == from_sympy(sa * sympy.Rational(3, 2))
        for i, g in enumerate(gens):
            assert a.diff(i).terms == from_sympy(sa.diff(g))


# --- representation and the public constructor --------------------------------


def test_public_constructor_normalises():
    chart = Chart(["x", "y"])
    p = Poly(chart, {(1, 0): Fraction(4, 2), (0, 1): Fraction(2, 4), (0, 0): Fraction(0), (2, 0): True})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (2, 0): 1}
    assert_clean(p)
    assert type(p.terms[(1, 0)]) is int and type(p.terms[(2, 0)]) is int
    assert type(Poly.const(chart, Fraction(-6, 3)).terms[(0, 0)]) is int
    assert Poly.const(chart, Fraction(0)).is_zero()


@pytest.mark.parametrize("exp", [(1,), (1, 0, 0), (-1, 0), (0, -2)])
def test_public_constructor_rejects_bad_exponents(exp):
    chart = Chart(["x", "y"])
    with pytest.raises(ValueError, match="bad exponent"):
        Poly(chart, {exp: 1})


def test_integral_results_store_ints():
    chart = Chart(["x", "y"])
    half = Poly(chart, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    assert (half * 2).terms == {(1, 0): 1, (0, 1): 3}
    assert (half + half).terms == {(1, 0): 1, (0, 1): 3}
    assert (half * half).terms[(1, 1)] == Fraction(3, 2)
    assert (half * half * 4).terms == {(2, 0): 1, (1, 1): 6, (0, 2): 9}
    assert Poly(chart, {(3, 0): Fraction(1, 3)}).diff(0).terms == {(2, 0): 1}
    for p in (half * 2, half + half, half * half * 4, half - half * 3):
        assert_clean(p)


def test_shortcuts_keep_the_operand():
    chart = Chart(["x", "y"])
    p = Poly(chart, {(1, 1): 3, (0, 0): Fraction(1, 2)})
    zero = Poly.zero(chart)
    assert p + zero is p and zero + p is p and p - zero is p
    assert p * 1 is p and p * Fraction(1) is p and 1 * p is p
    assert (p * 0).is_zero() and (p * zero).is_zero() and (zero * p).is_zero()
    assert p ** 1 is p and p ** 0 == Poly.const(chart, 1)


def test_chart_check_survives_the_shortcuts():
    a, b = Chart(["x", "y"]), Chart(["u", "v"])
    p = Poly.var(a, 0)
    for q in (Poly.zero(b), Poly.var(b, 1)):
        for left, right in ((p, q), (q, p)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ChartMismatchError):
                    op(left, right)
    # an equal chart that is another object is no mismatch
    assert p + Poly.var(Chart(["x", "y"]), 0) == p * 2


def test_arithmetic_and_constructor_share_the_bracket_memo():
    chart = Chart(["x1", "x2"])
    b = standard_bundle(chart)
    p = PreCourantAlgebroid(b, zero_table(b))
    x1, x2 = Poly.var(chart, 0), Poly.var(chart, 1)
    built = (x1 * x2 * 2 + Poly.const(chart, Fraction(1, 2))) * (x1 + x2)
    half = Fraction(1, 2)
    parsed = Poly(chart, {(2, 1): Fraction(2), (1, 2): Fraction(4, 2), (1, 0): half, (0, 1): half})
    assert built is not parsed and built == parsed and hash(built) == hash(parsed)
    zero = Poly.zero(chart)
    e2 = b.frame(1).scale(x1)
    first = bracket(p, Section(b, [built, zero, zero, zero]), e2)
    size = len(p.bracket_memo)
    again = bracket(p, Section(b, [parsed, zero, zero, zero]), e2)
    assert again is first and len(p.bracket_memo) == size


# --- the common denominator ---------------------------------------------------


def both(chart: Chart, terms: Mapping[Exponent, Scalar]):
    return Poly(chart, terms), ReferencePoly(chart, terms)


def test_mixed_denominators_match_reference():
    chart = Chart(["x", "y"])
    a, ra = both(chart, {(1, 0): Fraction(1, 2), (0, 0): 1})
    b, rb = both(chart, {(1, 0): Fraction(1, 3), (0, 1): Fraction(-5, 4)})
    assert (a.den, b.den) == (2, 12)
    assert_agrees(a + b, ra + rb)
    assert (a + b).terms[(1, 0)] == Fraction(5, 6) and (a + b).den == 12
    assert_agrees(a - b, ra - rb)
    assert_agrees(b - a, rb - ra)
    assert_agrees(a * b, ra * rb)
    assert (a * b).den == 24


def test_cancellation_from_a_denominator_to_zero():
    chart = Chart(["x", "y"])
    a, ra = both(chart, {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)})
    b, rb = both(chart, {(1, 0): Fraction(3, 6), (0, 1): Fraction(4, 6)})
    for p, ref in ((a - b, ra - rb), (a + (-b), ra + (-rb)), (a * 0, ra * 0)):
        assert_agrees(p, ref)
        assert p.is_zero() and p.num == {} and p.den == 1
    assert_agrees(a.diff(0).diff(0), ra.diff(0).diff(0))
    # cancellation of some terms leaves a smaller denominator behind
    c, rc = both(chart, {(1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 3)})
    assert_agrees(a + c, ra + rc)
    assert (a + c).den == 1 and (a + c).terms == {(0, 1): 1}


def test_content_reduces_across_all_terms():
    chart = Chart(["x", "y"])
    half, rhalf = both(chart, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    # 1/2 x + 3/2 y doubled: both numerators and the denominator share 2
    for p, ref in ((half * 2, rhalf * 2), (half + half, rhalf + rhalf)):
        assert_agrees(p, ref)
        assert (p.num, p.den) == ({(1, 0): 1, (0, 1): 3}, 1)
    sixth, rsixth = both(chart, {(2, 0): Fraction(1, 6), (0, 1): Fraction(1, 4)})
    assert (sixth.num, sixth.den) == ({(2, 0): 2, (0, 1): 3}, 12)
    # d/dx leaves 1/3 x: the 2 of its numerator cancels against 12
    assert_agrees(sixth.diff(0), rsixth.diff(0))
    assert (sixth.diff(0).num, sixth.diff(0).den) == ({(1, 0): 1}, 3)
    assert_agrees(sixth * 12, rsixth * 12)
    assert (sixth * 12).den == 1
    assert_agrees(sixth * Fraction(4, 3), rsixth * Fraction(4, 3))
    assert ((sixth * Fraction(4, 3)).num, (sixth * Fraction(4, 3)).den) == (
        {(2, 0): 2, (0, 1): 3}, 9
    )


def test_constant_and_monomial_factors_match_reference():
    chart = Chart(["x", "y", "z"])
    p, rp = both(
        chart,
        {(2, 0, 0): Fraction(3, 4), (1, 1, 0): Fraction(-2, 3), (0, 0, 1): 5, (0, 0, 0): Fraction(1, 6)},
    )
    factors = [
        {(0, 0, 0): Fraction(2, 3)},
        {(0, 0, 0): Fraction(-4, 1)},
        {(0, 0, 0): 1},
        {(1, 0, 0): Fraction(3, 2)},
        {(0, 2, 1): Fraction(-6, 5)},
        {(1, 0, 1): 12},
    ]
    for terms in factors:
        q, rq = both(chart, terms)
        assert_agrees(p * q, rp * rq)
        assert_agrees(q * p, rq * rp)
        assert_agrees(q * q, rq * rq)
    one = Poly.const(chart, 1)
    assert p * one is p and one * p is p


def test_fraction_scalars_match_reference():
    chart = Chart(["x", "y"])
    p, rp = both(chart, {(1, 0): Fraction(2, 9), (0, 1): Fraction(-4, 3), (0, 0): 7})
    for s in (Fraction(1, 2), Fraction(-3, 2), Fraction(9, 2), Fraction(3, 1), Fraction(1, 1), -1, 6):
        assert_agrees(p * s, rp * s)
        assert_agrees(s * p, s * rp)
        assert_agrees(Poly.const(chart, s), ReferencePoly.const(chart, s))
    assert p * Fraction(1, 1) is p


def test_floats_are_refused():
    chart = Chart(["x", "y"])
    p = Poly.var(chart, 0)
    with pytest.raises(TypeError, match="float"):
        Poly(chart, {(1, 0): 0.5})
    with pytest.raises(TypeError, match="float"):
        Poly.const(chart, 0.5)
    with pytest.raises(TypeError, match="float"):
        p * 0.5
    with pytest.raises(TypeError, match="float"):
        0.5 * p
    with pytest.raises(TypeError, match="float"):
        p * 2.0
