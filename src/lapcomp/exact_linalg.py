"""Exact dense linear algebra over the integers.

Both routines use fraction-free (Bareiss) elimination: `determinant` runs
the forward pass only, and `adjugate_pair` runs the Gauss-Jordan pass over
`[A | I]`, which leaves d * A^-1 in the right block.  Every intermediate
value is an integer minor of the input, so no precision is ever lost and
no rational arithmetic is needed.  Nothing in this module (or anywhere else
in the package) touches floating point.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "IntegerMatrix",
    "SingularMatrixError",
    "determinant",
    "adjugate_pair",
]


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix and det = 0."""


def _check_int(x):
    if isinstance(x, int):
        return x
    raise TypeError(f"integer matrix entry {x!r} is not an int")


class IntegerMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = []
        width = None
        for row in rows:
            r = tuple(_check_int(x) for x in row)
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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls([[0] * cols for _ in range(rows)])

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

    def scale(self, k: int) -> "IntegerMatrix":
        return IntegerMatrix([[k * x for x in row] for row in self._data])


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Every division below is exact, which keeps intermediate entries at the
    size of (n-1)x(n-1) minors instead of growing exponentially.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate_pair(m: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """Return (d, R) with d = |det m| > 0 and R = d * m^{-1} integral.

    R satisfies m @ R = d * I exactly; its columns generate the ray lattice
    used throughout the cone machinery.  One Bareiss Gauss-Jordan pass over
    [m | I] clears each pivot column above and below the pivot; the row
    swaps act on both blocks, so the pass ends at [D * I | D * m^{-1}] with
    D = +-det m the last pivot.  Each step drops its finished pivot column,
    so a row ends as its n right-block entries.
    """
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][0]), None)
        if p is None:
            raise SingularMatrixError("matrix is singular")
        rows[k], rows[p] = rows[p], rows[k]
        pivot, *tail = rows[k]
        for i, row in enumerate(rows):
            if i == k:
                rows[i] = tail
                continue
            f = row[0]
            qr = [divmod(pivot * x - f * y, prev) for x, y in zip(row[1:], tail)]
            if any(r for _, r in qr):
                # Cannot happen: Sylvester's identity makes each division exact.
                raise ArithmeticError("Bareiss division left a remainder")
            rows[i] = [q for q, _ in qr]
        prev = pivot
    if prev < 0:
        rows = [[-x for x in row] for row in rows]
    return abs(prev), IntegerMatrix(rows)
