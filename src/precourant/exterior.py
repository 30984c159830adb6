"""Vector fields and alternating forms.

Vector fields are derivations with polynomial coefficients.  A `KForm` is
an alternating form of fixed degree over a base: the coordinates of a
chart (a differential form) or, in `cochain.Cochain`, the frame of a
bundle.  It is stored sparsely on strictly increasing index tuples (0-based
internally).  A vector over the base is any `PolyMap` keyed by the same
indices: a vector field for a chart form, a section for a cochain.
`contract` and `evaluate` serve both kinds, with these conventions:

* the interior product inserts the vector in the first slot,
  ``(contract(X, a))(Y, ...) == a(X, Y, ...)``;
* evaluating a form on several vectors feeds them in the listed order,
  ``a(X1, ..., Xk) == contract(Xk, ... contract(X1, a) ...)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .errors import ChartMismatchError, DegreeError
from .poly import Chart, Poly, PolyMap, add_into, format_poly, increasing_key, sort_sign

Index = Tuple[int, ...]


class VectorField(PolyMap):
    """Polynomial vector field: its nonzero coefficients by coordinate index."""

    __slots__ = ()

    def __init__(self, chart: Chart, coeffs: Iterable[Poly]):
        cs = tuple(coeffs)
        if len(cs) != chart.dim:
            raise ValueError("vector field needs one coefficient per coordinate")
        for c in cs:
            if c.chart != chart:
                raise ChartMismatchError("coefficient on a different chart")
        self.space = chart
        self.terms = {i: c for i, c in enumerate(cs) if not c.is_zero()}
        self._hash = None
        self._jet = None

    @property
    def chart(self) -> Chart:
        return self.space

    @property
    def coeffs(self) -> Tuple[Poly, ...]:
        """Every coefficient, zeros included, in coordinate order."""
        zero = Poly.zero(self.space)
        return tuple(self.terms.get(i, zero) for i in range(self.space.dim))

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField.from_terms(chart, {})

    @staticmethod
    def coordinate(chart: Chart, index: int) -> "VectorField":
        cs = [Poly.zero(chart)] * chart.dim
        cs[index] = Poly.const(chart, 1)
        return VectorField(chart, cs)

    def _mismatch(self, other: "VectorField") -> None:
        raise ChartMismatchError("vector fields on different charts")

    def __repr__(self) -> str:
        return f"VectorField({format_vector_field(self)})"


def vf_apply(x: VectorField, f: Poly) -> Poly:
    """Apply the derivation: sum_i X_i * df/dx_i."""
    if x.chart != f.chart:
        raise ChartMismatchError("vector field and function on different charts")
    out = Poly.zero(f.chart)
    for i, c in x.terms.items():
        out = out + c * f.diff(i)
    return out


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator of derivations; coefficient j is X(Y_j) - Y(X_j)."""
    x._check(y)
    return y.map(lambda yj: vf_apply(x, yj)) - x.map(lambda xj: vf_apply(y, xj))


class KForm(PolyMap):
    """Alternating form of fixed degree with polynomial values.

    `space` is (base, degree) and `terms` maps strictly increasing 0-based
    index tuples, entries below `size`, to nonzero Poly values.  Degree 0
    uses the empty tuple.
    """

    __slots__ = ()

    def __init__(self, base, degree: int, comps: Mapping[Index, Poly]):
        # degree > size is allowed but forces the form to be zero: no
        # strictly increasing index tuple of that length exists
        if degree < 0:
            raise DegreeError(f"negative degree {degree}")
        self.space = (base, degree)
        chart, size = self.chart, self.size
        clean: Dict[Index, Poly] = {}
        for idx, p in comps.items():
            idx = increasing_key(idx, degree, size)
            if p.chart != chart:
                raise ChartMismatchError("component on a different chart")
            if not p.is_zero():
                clean[idx] = p
        self.terms = clean
        self._hash = None
        self._jet = None

    @property
    def base(self):
        return self.space[0]

    @property
    def chart(self) -> Chart:
        return self.space[0]

    @property
    def size(self) -> int:
        """The number of index values: the dimension of the chart."""
        return self.space[0].dim

    @property
    def degree(self) -> int:
        return self.space[1]

    @classmethod
    def zero(cls, base, degree: int) -> "KForm":
        return cls(base, degree, {})

    @staticmethod
    def from_function(f: Poly) -> "KForm":
        return KForm(f.chart, 0, {(): f})

    @staticmethod
    def basis(chart: Chart, indices: Iterable[int]) -> "KForm":
        """dx_{i1} ^ ... ^ dx_{ik} for strictly increasing 0-based indices."""
        idx = tuple(indices)
        return KForm(chart, len(idx), {idx: Poly.const(chart, 1)})

    def value_at(self, indices: Iterable[int]) -> Poly:
        """The value on an index tuple in any order: the stored value times
        the sign of the sorting permutation, zero on a repeated index."""
        key, sign = sort_sign(indices)
        p = self.terms.get(key)
        if p is None:
            return Poly.zero(self.chart)
        return p if sign > 0 else -p

    def _mismatch(self, other: "KForm") -> None:
        if self.chart != other.chart:
            raise ChartMismatchError("forms on different charts")
        raise DegreeError(f"degree {self.degree} vs {other.degree}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_kform(self)})"


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative exterior product."""
    if a.base != b.base:
        raise ChartMismatchError("forms over different bases")
    degree = a.degree + b.degree
    if degree > a.size:
        return a.zero(a.base, degree)
    out: Dict[Index, Poly] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged, sign = sort_sign(ia + ib)
            if merged is not None:
                add_into(out, merged, pa * pb if sign > 0 else -(pa * pb))
    return a.from_terms((a.base, degree), out)


def ext_d(a: KForm) -> KForm:
    """Exterior differential in coordinates; satisfies d(d(a)) = 0."""
    chart = a.chart
    if a.degree >= chart.dim:
        return KForm.zero(chart, a.degree + 1)
    out: Dict[Index, Poly] = {}
    for idx, p in a.terms.items():
        for m in range(chart.dim):
            merged, sign = sort_sign((m,) + idx)
            if merged is not None:
                dp = p.diff(m)
                add_into(out, merged, dp if sign > 0 else -dp)
    return KForm.from_terms((chart, a.degree + 1), out)


def contract(x: PolyMap, a: KForm) -> KForm:
    """Interior product i_x, inserting x in the first slot; x is a vector
    over the form's base."""
    if x.space is not a.base and x.space != a.base:
        raise ChartMismatchError("vector and form over different bases")
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    out: Dict[Index, Poly] = {}
    for idx, p in a.terms.items():
        for pos, i in enumerate(idx):
            xi = x.terms.get(i)
            if xi is not None:
                term = xi * p
                add_into(out, idx[:pos] + idx[pos + 1 :], -term if pos % 2 else term)
    return a.from_terms((a.base, a.degree - 1), out)


def evaluate(a: KForm, vectors: Iterable[PolyMap]) -> Poly:
    """Evaluate a k-form on exactly k vectors over its base, in the listed
    order."""
    vectors = tuple(vectors)
    if len(vectors) != a.degree:
        raise DegreeError(f"need {a.degree} vectors, got {len(vectors)}")
    for x in vectors:
        a = contract(x, a)
    return a.value_at(())


def format_vector_field(x: VectorField) -> str:
    names = x.chart.var_names
    parts = [f"({format_poly(x.terms[i])})*d/d{names[i]}" for i in sorted(x.terms)]
    return " + ".join(parts) if parts else "0"


def format_vector_coeffs(x: VectorField) -> str:
    """Every coefficient, zeros included, comma-separated."""
    return ", ".join(format_poly(c) for c in x.coeffs)


def format_kform(a: KForm) -> str:
    """Canonical string with 1-based dx(i,...) basis terms (frame indices for a cochain)."""
    if a.degree == 0:
        return format_poly(a.value_at(()))
    if a.is_zero():
        return "0"
    parts = []
    for idx in sorted(a.terms):
        basis = "dx(" + ",".join(str(i + 1) for i in idx) + ")"
        parts.append(f"({format_poly(a.terms[idx])})*{basis}")
    return " + ".join(parts)
