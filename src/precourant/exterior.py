"""Vector fields and exterior differential forms on a chart.

Vector fields are derivations with polynomial coefficients; k-forms are
stored sparsely on strictly increasing coordinate index tuples (0-based
internally).  Conventions used throughout the library:

* the interior product inserts the vector in the first slot,
  ``(contract(X, a))(Y, ...) == a(X, Y, ...)``;
* evaluating a form on several fields feeds them in the listed order,
  ``a(X1, ..., Xk) == contract(Xk, ... contract(X1, a) ...)``;
* the Lie derivative is defined by the Cartan formula ``L_X = i_X d + d i_X``.
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
    """Differential form of fixed degree with polynomial coefficients.

    `terms` maps strictly increasing 0-based index tuples to nonzero Poly
    coefficients.  Degree 0 uses the empty tuple.
    """

    __slots__ = ()

    def __init__(self, chart: Chart, degree: int, comps: Mapping[Index, Poly]):
        # degree > dim is allowed but forces the form to be zero: no strictly
        # increasing index tuple of that length exists
        if degree < 0:
            raise DegreeError(f"negative degree {degree}")
        clean: Dict[Index, Poly] = {}
        for idx, p in comps.items():
            idx = increasing_key(idx, degree, chart.dim)
            if p.chart != chart:
                raise ChartMismatchError("component on a different chart")
            if not p.is_zero():
                clean[idx] = p
        self.space = (chart, degree)
        self.terms = clean
        self._hash = None

    @property
    def chart(self) -> Chart:
        return self.space[0]

    @property
    def degree(self) -> int:
        return self.space[1]

    @staticmethod
    def zero(chart: Chart, degree: int) -> "KForm":
        return KForm(chart, degree, {})

    @staticmethod
    def from_function(f: Poly) -> "KForm":
        return KForm(f.chart, 0, {(): f})

    @staticmethod
    def basis(chart: Chart, indices: Iterable[int]) -> "KForm":
        """dx_{i1} ^ ... ^ dx_{ik} for strictly increasing 0-based indices."""
        idx = tuple(indices)
        return KForm(chart, len(idx), {idx: Poly.const(chart, 1)})

    def coefficient(self, indices: Iterable[int]) -> Poly:
        return self.terms.get(tuple(indices), Poly.zero(self.chart))

    def _mismatch(self, other: "KForm") -> None:
        if self.chart != other.chart:
            raise ChartMismatchError("forms on different charts")
        raise DegreeError(f"degree {self.degree} vs {other.degree}")

    def __repr__(self) -> str:
        return f"KForm({format_kform(self)})"


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative exterior product."""
    if a.chart != b.chart:
        raise ChartMismatchError("forms on different charts")
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return KForm.zero(a.chart, degree)
    out: Dict[Index, Poly] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged, sign = sort_sign(ia + ib)
            if merged is not None:
                add_into(out, merged, pa * pb if sign > 0 else -(pa * pb))
    return KForm.from_terms((a.chart, degree), out)


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


def contract(x: VectorField, a: KForm) -> KForm:
    """Interior product i_X, inserting X in the first slot."""
    if x.chart != a.chart:
        raise ChartMismatchError("vector field and form on different charts")
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    out: Dict[Index, Poly] = {}
    for idx, p in a.terms.items():
        for pos, i in enumerate(idx):
            xi = x.terms.get(i)
            if xi is not None:
                term = xi * p
                add_into(out, idx[:pos] + idx[pos + 1 :], -term if pos % 2 else term)
    return KForm.from_terms((a.chart, a.degree - 1), out)


def lie_derivative(x: VectorField, a: KForm) -> KForm:
    """Cartan formula L_X = i_X d + d i_X, adopted as the definition."""
    d_a = ext_d(a)
    first = contract(x, d_a) if d_a.degree > 0 else KForm.zero(a.chart, 0)
    if a.degree == 0:
        # i_X on degree 0 is zero, so L_X f = i_X df = X(f)
        return first
    return first + ext_d(contract(x, a))


def evaluate(a: KForm, fields: Iterable[VectorField]) -> Poly:
    """Evaluate a k-form on exactly k vector fields, in the listed order."""
    current = a
    fields = tuple(fields)
    if len(fields) != a.degree:
        raise DegreeError(f"need {a.degree} fields, got {len(fields)}")
    for x in fields:
        current = contract(x, current)
    return current.coefficient(())


def format_vector_field(x: VectorField) -> str:
    names = x.chart.var_names
    parts = [f"({format_poly(x.terms[i])})*d/d{names[i]}" for i in sorted(x.terms)]
    return " + ".join(parts) if parts else "0"


def format_vector_coeffs(x: VectorField) -> str:
    """Every coefficient, zeros included, comma-separated."""
    return ", ".join(format_poly(c) for c in x.coeffs)


def format_kform(a: KForm) -> str:
    """Canonical form string using 1-based dx(i,...) basis terms."""
    if a.degree == 0:
        return format_poly(a.coefficient(()))
    if a.is_zero():
        return "0"
    parts = []
    for idx in sorted(a.terms):
        basis = "dx(" + ",".join(str(i + 1) for i in idx) + ")"
        parts.append(f"({format_poly(a.terms[idx])})*{basis}")
    return " + ".join(parts)
