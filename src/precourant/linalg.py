"""Small exact linear algebra over the rationals.

Everything here works on lists of lists of Fractions.  Sizes in this
library stay tiny (bundle ranks around ten), so plain Gauss-Jordan
elimination is all that is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .errors import SingularMetricError

Matrix = List[List[Fraction]]
Vector = List[Fraction]
Scalar = Union[int, Fraction]


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def nonzero_rows(a: Sequence[Sequence[Fraction]]) -> Tuple[Tuple[Tuple[int, Scalar], ...], ...]:
    """Each row of a constant matrix as its (column, entry) pairs with
    entry != 0, an integral entry held as an int so that products with it
    stay in int arithmetic."""
    return tuple(
        tuple(
            (j, c.numerator if c.denominator == 1 else c)
            for j, c in enumerate(row)
            if c != 0
        )
        for row in a
    )


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(n))


def invert(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises SingularMetricError when singular."""
    n = len(a)
    aug = [list(row) + ident_row for row, ident_row in zip(to_matrix(a), identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMetricError(f"matrix is singular at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rref(a: Matrix):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = 1 / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: Matrix, n_cols: int) -> List[Vector]:
    """Basis of the right null space {v : a v = 0}."""
    if not a:
        return [
            [Fraction(1 if i == j else 0) for i in range(n_cols)]
            for j in range(n_cols)
        ]
    reduced, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis: List[Vector] = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis

