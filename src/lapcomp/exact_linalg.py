"""Exact dense linear algebra over the integers.

One elimination kernel serves every routine: a fraction-free (Bareiss)
forward pass over `[m | B]`, in which each division is exact and still
checked for a remainder.  `determinant` runs it over m alone.
`scaled_solve(m, B)` adds the fraction-free back substitution
`_back_substitute` and returns (d, d * m^-1 * B) with d = |det m|;
`adjugate_pair(m)` is `scaled_solve(m, I)`.  A caller that keeps the rows
of one pass, as a cone keeps its pass over [A^T | w] for the weight forms
w, back-substitutes them later without a second pass.  Every intermediate
value is an integer, a minor of the input or an entry of the scaled
solution, so no precision is ever lost and no rational arithmetic is
needed.  Nothing in this module (or anywhere else in the package)
touches floating point.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

__all__ = [
    "IntegerMatrix",
    "SingularMatrixError",
    "determinant",
    "scaled_solve",
    "adjugate_pair",
]


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix and det = 0."""


def _int_row(row: Iterable[int]) -> tuple:
    """The row as a tuple, checked to hold ints only."""
    r = tuple(row)
    if not all(map(isinstance, r, repeat(int))):
        bad = next(x for x in r if not isinstance(x, int))
        raise TypeError(f"integer matrix entry {bad!r} is not an int")
    return r


class IntegerMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = []
        width = None
        for row in rows:
            r = _int_row(row)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("matrix rows have unequal lengths")
            data.append(r)
        if not data or width == 0:
            raise ValueError("matrix must have at least one row and one column")
        self._data = tuple(data)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return len(self._data[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return self._data[i][j]
        return self._data[key]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self._data)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self._data]

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other):
        if isinstance(other, IntegerMatrix):
            return self._data == other._data
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self._data))

    def __repr__(self):
        body = ", ".join(repr(list(r)) for r in self._data)
        return f"{type(self).__name__}([{body}])"

    def transpose(self):
        return type(self)(zip(*self._data))

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product as a tuple."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum(a * x for a, x in zip(row, vector)) for row in self._data
        )

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not match for product")
        cols = [other.column(j) for j in range(other.cols)]
        return IntegerMatrix(
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in self._data
        )


def _exact_quotients(values: Iterable[int], divisor: int) -> list[int]:
    """values[i] / divisor for each value, each by a `divmod` whose
    remainder must be 0."""
    out = []
    for x in values:
        q, r = divmod(x, divisor)
        if r:
            raise ArithmeticError("Bareiss division left a remainder")
        out.append(q)
    return out


def _eliminate(rows: list[list[int]], n: int) -> tuple[int, list[list[int]]]:
    """Bareiss forward pass over [m | B], given as the n lists `rows`.

    Step k picks the first row at or below k with a nonzero entry in
    column k, swaps it up, and replaces each row below by
    (pivot * row - f * pivot row) / p, with p the pivot before.
    Sylvester's identity makes that division exact (Bareiss, Math. Comp.
    1968): every entry is a minor of [m | B].  A row with f = 0 would only
    be scaled by pivot / p, so it is left as it is and keeps the p it
    divides by next: the scalings telescope, so its next update, or its
    catch-up when it becomes the pivot row, is one exact division by that
    p.  Every division is a `divmod` whose remainder is checked.  A
    finished pivot row drops its pivot column, so row k of `upper` starts
    with its pivot and ends with its part of B.

    Returns (D, upper), where D is det m: the last pivot times the sign
    of the row swaps.  A singular m gives D = 0 and stops the pass.
    """
    sign, prev = 1, 1
    divisors = [1] * n
    upper = []
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][0]), None)
        if p is None:
            return 0, upper
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            divisors[k], divisors[p] = divisors[p], divisors[k]
            sign = -sign
        if divisors[k] != prev:
            rows[k] = _exact_quotients([x * prev for x in rows[k]], divisors[k])
        pivot, *tail = rows[k]
        upper.append(rows[k])
        for i in range(k + 1, n):
            row = rows[i]
            f = row[0]
            if f:
                rows[i] = _exact_quotients(
                    [pivot * x - f * y for x, y in zip(row[1:], tail)], divisors[i])
                divisors[i] = pivot
            else:
                rows[i] = row[1:]
        prev = pivot
    return sign * prev, upper


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant: the forward pass of `_eliminate` over m alone."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    return _eliminate(m.to_lists(), m.rows)[0]


def scaled_solve(m: IntegerMatrix, B: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """Return (d, X) with d = |det m| > 0 and X = d * m^{-1} * B integral:
    one forward pass of `_eliminate` over [m | B], then `_back_substitute`.
    """
    if not m.is_square:
        raise ValueError("solve with a non-square matrix")
    n = m.rows
    if B.rows != n:
        raise ValueError(f"right-hand side has {B.rows} rows, matrix has {n}")
    D, upper = _eliminate([list(r) + list(b) for r, b in zip(m, B)], n)
    if D == 0:
        raise SingularMatrixError("matrix is singular")
    d = abs(D)
    return d, IntegerMatrix(_back_substitute(upper, d, n))


def _back_substitute(upper: list[list[int]], d: int, n: int) -> list[list[int]]:
    """The rows of X = d * m^-1 * B from the rows `upper` that `_eliminate`
    left of [m | B], where d = |det m| > 0.

    U*X = d*b' holds for the triangle U with pivots p_i and the rows b'_i
    of B, so X_i = (d*b'_i - sum_{j>i} U_ij*X_j) / p_i from the last row
    up; each X_i is a row of the integral X, so every division is exact,
    and each is a remainder-checked `divmod`.
    """
    X = [None] * n
    for i in range(n - 1, -1, -1):
        row = upper[i]
        acc = [d * b for b in row[n - i:]]
        for j in range(i + 1, n):
            c = row[j - i]
            if c:
                acc = [a - c * x for a, x in zip(acc, X[j])]
        X[i] = _exact_quotients(acc, row[0])
    return X


def adjugate_pair(m: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """Return (d, R) with d = |det m| > 0 and R = d * m^{-1} integral.

    R satisfies m @ R = d * I exactly; its columns generate the ray lattice
    used throughout the cone machinery.  It is `scaled_solve(m, I)`.
    """
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    return scaled_solve(m, IntegerMatrix.identity(m.rows))
