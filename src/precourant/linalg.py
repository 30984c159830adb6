"""Small exact linear algebra over the rationals.

A matrix is a list of rows of exact rationals, each entry held as an int
when it is integral and as a Fraction otherwise (see `rational`), so that
sums and products of integral entries stay in int arithmetic.  Elimination
is fraction-free: each row is first scaled to ints, rows are combined by
integer multiples, and each pivot row is divided by its pivot once, at the
end.  Sizes in this library stay tiny (bundle ranks around ten), so plain
Gauss-Jordan elimination is all that is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

from .errors import ConstructionError

Scalar = Union[int, Fraction]
Matrix = List[List[Scalar]]
Vector = List[Scalar]


def rational(x) -> Scalar:
    """An exact rational as an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    q = x if isinstance(x, Fraction) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[rational(x) for x in row] for row in rows]


def nonzero_rows(a: Sequence[Sequence[Scalar]]) -> Tuple[Tuple[Tuple[int, Scalar], ...], ...]:
    """Each row of a constant matrix as its (column, entry) pairs with
    entry != 0, an integral entry held as an int so that products with it
    stay in int arithmetic."""
    return tuple(
        tuple((j, rational(c)) for j, c in enumerate(row) if c != 0) for row in a
    )


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(n))


def _ratio(n: int, d: int) -> Scalar:
    """n / d, an int when d divides n."""
    return n // d if n % d == 0 else Fraction(n, d)


def rref(a: Matrix):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = []
    for row in a:
        # the same row times the lcm of its denominators, in ints
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r]
        pc = p[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                row = [pc * x - f * y for x, y in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i, c in enumerate(pivots):
        pc = m[i][c]
        m[i] = [_ratio(x, pc) for x in m[i]]
    return m, pivots


def symmetric_inverse(a: Matrix, name: str) -> Matrix:
    """The inverse of a, which must be a nondegenerate symmetric form, read
    off the rref of [a | I].  Otherwise raises ConstructionError
    `{name}-not-symmetric`, witnessed by the first entry (i,j), in row
    order, that differs from entry (j,i), or `{name}-singular`."""
    if not is_symmetric(a):
        i, j = next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x != a[j][i])
        raise ConstructionError(f"{name}-not-symmetric", f"({i + 1},{j + 1})")
    n = len(a)
    reduced, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ConstructionError(f"{name}-singular")
    return [row[n:] for row in reduced]


def kernel_basis(a: Matrix, n_cols: int) -> List[Vector]:
    """Basis of the right null space {v : a v = 0}."""
    if not a:
        return [[int(i == j) for i in range(n_cols)] for j in range(n_cols)]
    reduced, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis: List[Vector] = []
    for f in free:
        v: Vector = [0] * n_cols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis
