"""Exact sparse multivariate polynomials over the rationals.

A polynomial is stored as integer numerators over one common denominator:
`num` maps each exponent tuple (one entry per chart coordinate) to a
nonzero int, and `den` is one positive int.  The form is canonical:
gcd(den, *numerators) = 1, and the zero polynomial is `num == {}` over
`den == 1`, so equality compares den and num as they are.  Arithmetic runs
on ints only and reduces each result by a single gcd; nothing ever rounds,
and a float is refused wherever a coefficient or a scalar comes in.  The
read-only `terms` view gives each coefficient as a rational: an int when
integral, else a Fraction whose denominator is above 1.

The public constructor validates and normalises its input.  Arithmetic
builds its results through `Poly._make` and `Poly._reduce`, which trust
that what they are given is clean.  A product with a constant factor is a
scaling, and one with a single-term factor shifts the other factor's
exponents, which stay distinct; only a product of two longer polynomials
accumulates colliding terms, in `_accumulate`, the one loop in this module
that sums products of numerators.

`PolyMap` carries the same sparse convention one level up: sections,
vector fields, forms and cochains map their index keys to nonzero
polynomials and share its arithmetic, equality and hash.
`BilinearOperator` evaluates a bilinear operator of order at most one in
each slot on numerators alone, as `apply` (the algebroid bracket) and as
the cyclic pairing T, on `PolyMap`s: `_jets` takes a map's values and
first partials in one pass, once per map, since the map keeps them (as
it keeps its hash), and `_products` multiplies them through `_accumulate`.
`alternating_covector` sums through `_accumulate` too.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic on the exponent vector, largest first).  Every serialization
in the library sorts by this order, which is what makes golden-file tests
byte-stable.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from operator import add as _add
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import ChartMismatchError

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]


class Chart:
    """A single affine chart: a dimension and named coordinates."""

    __slots__ = ("var_names",)

    def __init__(self, var_names: Iterable[str]):
        names = tuple(var_names)
        if len(names) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")
        for n in names:
            if not n.isidentifier():
                raise ValueError(f"coordinate name {n!r} is not an identifier")
        self.var_names = names

    @property
    def dim(self) -> int:
        return len(self.var_names)

    def index(self, name: str) -> int:
        return self.var_names.index(name)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Chart) and self.var_names == other.var_names

    def __hash__(self) -> int:
        return hash(self.var_names)

    def __repr__(self) -> str:
        return f"Chart({', '.join(self.var_names)})"


def _grlex_key(exp: Exponent):
    # sort() is ascending; negate so the leading monomial comes first
    return (-sum(exp), tuple(-e for e in exp))


def _scalar(c) -> Tuple[int, int]:
    """An exact rational as (numerator, denominator) in lowest terms with
    the denominator positive.  Anything but an int or a Fraction is refused,
    so that no float ever enters a polynomial."""
    if isinstance(c, int):
        return int(c), 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"exact coefficient needed (int or Fraction), got {type(c).__name__}")


class Poly:
    """An exact polynomial attached to a chart: num / den.

    Immutable.  `num` maps exponents to nonzero int numerators and `den` is
    one positive int with gcd(den, *numerators) = 1; the zero polynomial is
    `num == {}`, `den == 1`.  `terms` is the read-only rational view.  The
    hash is computed on first use and kept.
    """

    __slots__ = ("chart", "num", "den", "_hash")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Scalar]):
        clean: Dict[Exponent, Tuple[int, int]] = {}
        dim = chart.dim
        for exp, coeff in terms.items():
            n, d = _scalar(coeff)
            if not n:
                continue
            if len(exp) != dim or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for chart of dim {dim}")
            clean[tuple(exp)] = (n, d)
        # each n/d is in lowest terms, so the numerators over the lcm of the
        # denominators already share no factor with it
        den = lcm(*(d for _, d in clean.values()))
        self.chart = chart
        self.num = {e: n * (den // d) for e, (n, d) in clean.items()}
        self.den = den
        self._hash = None

    @staticmethod
    def _make(chart: Chart, num: Dict[Exponent, int], den: int = 1) -> "Poly":
        """Wrap a stored form the caller guarantees canonical: valid
        exponents, nonzero int numerators, den > 0 and coprime to them."""
        p = object.__new__(Poly)
        p.chart = chart
        p.num = num
        p.den = den
        p._hash = None
        return p

    @staticmethod
    def _reduce(chart: Chart, num: Dict[Exponent, int], den: int) -> "Poly":
        """`_make` after cancelling the common factor of den and num; an
        empty num comes out as the zero polynomial, den 1."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        return Poly._make(chart, num, den)

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return Poly._make(chart, {})

    @staticmethod
    def const(chart: Chart, value: Scalar) -> "Poly":
        n, d = _scalar(value)
        return Poly._make(chart, {(0,) * chart.dim: n} if n else {}, d)

    @staticmethod
    def var(chart: Chart, index: int) -> "Poly":
        exp = [0] * chart.dim
        exp[index] = 1
        return Poly._make(chart, {tuple(exp): 1})

    # --- the rational view ----------------------------------------------

    @property
    def terms(self) -> Dict[Exponent, Scalar]:
        """Exponent -> coefficient: an int when integral, else a Fraction
        with denominator above 1.  A fresh dict on every read."""
        den = self.den
        if den == 1:
            return dict(self.num)
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.num.items():
            q = Fraction(c, den)
            out[e] = q.numerator if q.denominator == 1 else q
        return out

    # --- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    # --- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def _combine(self, other: "Poly", negate: bool) -> "Poly":
        """self + other, or self - other when negate is set."""
        den = self.den
        if den == other.den:
            out = dict(self.num)
            items = other.num.items()
        else:
            g = gcd(den, other.den)
            ma, mb = other.den // g, den // g
            out = {e: c * ma for e, c in self.num.items()}
            items = [(e, c * mb) for e, c in other.num.items()]
            den *= ma
        get = out.get
        for exp, c in items:
            s = get(exp, 0) - c if negate else get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                del out[exp]  # a zero sum means exp was already present
        return Poly._reduce(self.chart, out, den)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        return self._combine(other, False)

    def __neg__(self) -> "Poly":
        return Poly._make(self.chart, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not other.num:
            return self
        return self._combine(other, True)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            return self._scale(*_scalar(other))
        self._check(other)
        p, q = self, other
        a, b = p.num, q.num
        if not a:
            return p
        if not b:
            return q
        if len(b) != 1:
            if len(a) != 1:
                out: Dict[Exponent, int] = {}
                _accumulate(out, ((None, 1),), a.items(), b.items())
                return Poly._reduce(
                    p.chart, {e: c for e, c in out.items() if c}, p.den * q.den
                )
            p, q, a, b = q, p, b, a
        # q is one term (n / d) * x^eb, with n and d coprime: shifting every
        # exponent of p by eb keeps them distinct, so nothing collides or
        # cancels
        (eb, n), = b.items()
        if not any(eb):
            return p._scale(n, q.den)
        return Poly._reduce(
            p.chart, {tuple(map(_add, e, eb)): c * n for e, c in a.items()}, p.den * q.den
        )

    def __rmul__(self, other: Scalar) -> "Poly":
        return self * other

    def _scale(self, n: int, d: int) -> "Poly":
        """self times n / d, given in lowest terms with d > 0."""
        if n == d:
            return self
        if not n:
            return Poly._make(self.chart, {})
        num = self.num if n == 1 else {e: c * n for e, c in self.num.items()}
        return Poly._reduce(self.chart, num, self.den * d)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly.const(self.chart, 1) if result is None else result

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Poly)
            and self.chart == other.chart
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        # the hash of the rational view, which a Fraction store hashes
        # alike, since hash(Fraction(n)) == hash(n)
        if self._hash is None:
            terms = self.num if self.den == 1 else self.terms
            self._hash = hash((self.chart, frozenset(terms.items())))
        return self._hash

    # --- calculus -----------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to coordinate `index`."""
        out: Dict[Exponent, int] = {}
        for exp, c in self.num.items():
            k = exp[index]
            if k == 0:
                continue
            e = list(exp)
            e[index] = k - 1
            out[tuple(e)] = c * k
        return Poly._reduce(self.chart, out, self.den)

    def eval(self, point: Tuple[Scalar, ...]) -> Fraction:
        """Evaluate at a rational point.  At an integral point the terms are
        summed in ints and divided by den once."""
        if len(point) != self.chart.dim:
            raise ValueError("point has wrong dimension")
        pt = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
        if all(x.denominator == 1 for x in pt):
            pt = [x.numerator for x in pt]
        total = 0
        for exp, c in self.num.items():
            v = c
            for x, e in zip(pt, exp):
                if e:
                    v *= x**e
            total += v
        return Fraction(total, self.den)

    # --- serialization ------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _numerators(p: Poly, scale: int, zero: Exponent) -> Dict:
    """The numerators of p times scale, with the exponent `zero` held as None:
    `p.num` itself, which no caller changes, when that leaves it as it is."""
    if scale == 1 and zero not in p.num:
        return p.num
    return {(None if e == zero else e): c * scale for e, c in p.num.items()}


def _jets(f: Mapping[int, Poly]) -> Tuple[Dict, int]:
    """({i: jet of f_i}, lcm(f dens)).  The jet of f_i is indexed by slot, 0
    for f_i itself and m + 1 for d f_i / dx_m, and each slot holds the
    (exponent, numerator) pairs over the lcm, () for a zero partial.  Pairs,
    not dicts, since most partials have a term or two and a map keeps its
    jets.  `PolyMap.jets` alone calls it, and keeps what it returns."""
    den = lcm(*(p.den for p in f.values()))
    jets = {}
    for i, p in f.items():
        scale, zero = den // p.den, (0,) * p.chart.dim
        partials = [[] for _ in zero]
        for e, c in p.num.items():
            for a, n in enumerate(e):
                if n:
                    d = e[:a] + (n - 1,) + e[a + 1:]
                    partials[a].append((None if d == zero else d, c * n * scale))
        jets[i] = (_numerators(p, scale, zero).items(), *map(tuple, partials))
    return jets, den


def _accumulate(acc: Dict, c, fa, gb) -> None:
    """acc += c * fa * gb on numerators, each factor given by its (exponent,
    numerator) pairs; a None exponent is zero, so its product keeps the
    other exponent."""
    get = acc.get
    for ec, cc in c:
        for ef, cf in fa:
            if ec is not None:
                ef = ec if ef is None else tuple(map(_add, ef, ec))
            cf *= cc
            for eg, cg in gb:
                e = eg if ef is None else ef if eg is None else tuple(map(_add, ef, eg))
                acc[e] = get(e, 0) + cf * cg


def _poly(chart: Chart, acc: Dict, den: int, zero: Exponent) -> Poly:
    """The Poly of the numerators `acc` over den, None read as `zero`."""
    return Poly._reduce(chart, {zero if e is None else e: v for e, v in acc.items() if v}, den)


class BilinearOperator:
    """A bilinear operator with polynomial coefficients and of order at
    most one in each slot, on index -> Poly maps f and g:

        out_k = sum of c * d_a f_i * d_b g_j over its entries (i, j, a, b, k, c)

    where a slot order a or b is None for the identity or a coordinate m
    for d/dx_m, and c is a Poly or a rational.  Each nonzero c is held as
    its (exponent, numerator) pairs over the one denominator `den`, with
    None for the constant exponent.  `rows[i]` groups the entries of row i
    as (a, ((j, ((b, k, c), ...)), ...)) tuples, with a and b as the jet
    slots of `_jets`: 0 for None and m + 1 for m.
    """

    __slots__ = ("chart", "den", "rows")

    def __init__(self, chart: Chart, entries: Iterable[Tuple]):
        held = []
        for i, j, a, b, k, c in entries:
            if not isinstance(c, Poly):
                c = Poly.const(chart, c)
            if c.num:
                held.append((i, j, a, b, k, c))
        self.chart = chart
        self.den = lcm(*(c.den for *_, c in held))
        rows: Dict[int, Dict] = {}
        for i, j, a, b, k, c in held:
            s = self.den // c.den
            c = tuple((e if any(e) else None, v * s) for e, v in c.num.items())
            a, b = 0 if a is None else a + 1, 0 if b is None else b + 1
            rows.setdefault(i, {}).setdefault(a, {}).setdefault(j, []).append((b, k, c))
        self.rows = {
            i: tuple((a, tuple((j, tuple(es)) for j, es in cols.items())) for a, cols in row.items())
            for i, row in rows.items()
        }

    def _products(self, x: Dict, y: Dict, keep=None) -> Dict[int, Dict]:
        """{k: numerators of out_k} on the jets x and y of f and g, over
        `den` times their dens; out_k is formed only for k in keep, if given."""
        out: Dict[int, Dict] = defaultdict(dict)
        for i, xi in x.items():
            for a, cols in self.rows.get(i, ()):
                fa = xi[a]
                for j, es in cols if fa else ():
                    yj = y.get(j)
                    for b, k, c in es if yj else ():
                        if (gb := yj[b]) and (keep is None or k in keep):
                            _accumulate(out[k], c, fa, gb)
        return out

    def apply(self, f: "PolyMap", g: "PolyMap") -> Dict[int, Poly]:
        """{k: out_k} for the nonzero out_k, each reduced once from the
        products of the held jets of f and g; {} at once if either is empty."""
        if not (f.terms and g.terms):
            return {}
        zero = (0,) * self.chart.dim
        (x, fden), (y, gden) = f.jets(), g.jets()
        den = fden * gden * self.den
        return {k: p for k, acc in self._products(x, y).items()
                if (p := _poly(self.chart, acc, den, zero)).num}

    def cyclic_pairing(self, f: "PolyMap", g: "PolyMap", h: "PolyMap") -> Poly:
        """sum_k apply(x, y)_k * z_k over the rotations (x, y, z) of (f, g, h), on
        the held jets, out_k only where z_k != 0, one dict, one den; zero at
        once if a map is empty, since every rotation multiplies all three."""
        if not (f.terms and g.terms and h.terms):
            return Poly.zero(self.chart)
        zero, total = (0,) * self.chart.dim, {}
        (jf, df), (jg, dg), (jh, dh) = f.jets(), g.jets(), h.jets()
        for x, y, z in ((jf, jg, jh), (jg, jh, jf), (jh, jf, jg)):
            for k, acc in self._products(x, y, z).items():
                _accumulate(total, ((None, 1),), acc.items(), z[k][0])
        return _poly(self.chart, total, self.den * df * dg * dh, zero)


def alternating_covector(chart: Chart, values: Mapping, vectors: Sequence, rank: int) -> List[Poly]:
    """[a(s_1, ..., s_k, u_j) for j < rank], a the alternating form with these values on
    increasing keys: each vector s_t, an index -> Poly map, fills in turn every slot it
    has a component at, with the slot's sign; numerators are summed by the slots left."""
    zero = (0,) * chart.dim
    den = lcm(*(p.den for p in values.values()))
    level = {key: _numerators(v, den // v.den, zero) for key, v in values.items()}
    for s in vectors if level else ():
        sden = lcm(*(p.den for p in s.values()))
        den *= sden
        nxt: Dict[Tuple, Dict] = defaultdict(dict)
        for key, prod in level.items():
            for t, i in enumerate(key):
                if i in s:
                    _accumulate(nxt[key[:t] + key[t + 1:]], ((None, -1 if t % 2 else 1),),
                                prod.items(), _numerators(s[i], sden // s[i].den, zero).items())
        level = nxt
    covector = [Poly.zero(chart)] * rank
    for (j,), acc in level.items():
        covector[j] = _poly(chart, acc, den, zero)
    return covector


def add_into(acc: Dict, key, p: Poly) -> None:
    """acc[key] += p, where a missing key counts as zero."""
    q = acc.get(key)
    acc[key] = p if q is None else q + p


def sort_sign(indices: Iterable[int]):
    """Sort an index tuple; returns (sorted_tuple, sign) or (None, 0) on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def increasing_key(indices: Iterable[int], degree: int, size: int) -> Tuple[int, ...]:
    """A key of a degree-`degree` form or cochain: a strictly increasing
    tuple of that length with entries in range(size)."""
    idx = tuple(indices)
    if len(idx) != degree:
        raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
    if any(not (0 <= i < size) for i in idx):
        raise ValueError(f"index out of range in {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"index tuple {idx} is not strictly increasing")
    return idx


class PolyMap:
    """Polynomial data on the keys of a fixed index set.

    `space` says what the keys index (a bundle, a chart, or one of those
    with a degree) and `terms` maps each key to its nonzero Poly value;
    a key with value zero is absent.  Immutable.  Subclasses validate
    their public constructors and name their mismatch error in
    `_mismatch`; the arithmetic, equality and the hash are defined here
    once.  The hash and the jets that `BilinearOperator` reads are computed
    on first use and kept, so they live exactly as long as the map.
    """

    __slots__ = ("space", "terms", "_hash", "_jet")

    @classmethod
    def from_terms(cls, space, terms: Mapping) -> "PolyMap":
        """Wrap a key -> Poly map whose keys the caller guarantees valid;
        zero values are dropped."""
        out = object.__new__(cls)
        out.space = space
        out.terms = {k: p for k, p in terms.items() if p.num}
        out._hash = None
        out._jet = None
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "PolyMap") -> None:
        if self.space is not other.space and self.space != other.space:
            self._mismatch(other)

    def _mismatch(self, other: "PolyMap") -> None:
        raise NotImplementedError

    def __add__(self, other: "PolyMap") -> "PolyMap":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, p in other.terms.items():
            add_into(out, k, p)
        return self.from_terms(self.space, out)

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        self._check(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, p in other.terms.items():
            q = out.get(k)
            out[k] = -p if q is None else q - p
        return self.from_terms(self.space, out)

    def __neg__(self) -> "PolyMap":
        return self.from_terms(self.space, {k: -p for k, p in self.terms.items()})

    def scale(self, f: Union[Poly, Scalar]) -> "PolyMap":
        """Multiply every value by a Poly or a rational scalar."""
        return self.from_terms(self.space, {k: p * f for k, p in self.terms.items()})

    def map(self, fn) -> "PolyMap":
        """Apply a Poly -> Poly function to every value."""
        return self.from_terms(self.space, {k: fn(p) for k, p in self.terms.items()})

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def jets(self) -> Tuple[Dict, int]:
        """The values and first partials of `terms` as numerators over one
        den (see `_jets`), taken on first use and kept."""
        if self._jet is None:
            self._jet = _jets(self.terms)
        return self._jet


def format_poly(p: Poly) -> str:
    """Canonical string in graded-lex order, e.g. ``3/2*x1^2*x4 - x2``."""
    if p.is_zero():
        return "0"
    terms = p.terms
    parts = []
    for exp in sorted(terms, key=_grlex_key):
        c = terms[exp]
        factors = []
        for name, e in zip(p.chart.var_names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
