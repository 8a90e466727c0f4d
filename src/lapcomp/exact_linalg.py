"""Exact dense linear algebra over the integers.

An `IntegerMatrix` checks its rows in one C-level pass over their lengths
and entry types (every entry an int, none a bool), and walks them in
order only when that fails, so the first faulty row decides the error.
Rows that the package computed from ints itself (its minors, inverses,
identities, transposes and products) come wrapped as `_IntRows` and skip
that pass; the constructor checks any other rows in full.

One elimination kernel serves every routine: a fraction-free (Bareiss)
forward pass over `[m | B]`, in which each division is exact and still
checked for a remainder.  Its pivot is the sparsest remaining row, so a
tree minor is eliminated leaves first, with unit pivots and no fill; the
divisions stay exact under any pivot order.  `determinant` runs it over
m alone.  `scaled_solve(m, B)` adds the fraction-free back substitution
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

from itertools import chain, compress, filterfalse, repeat
from operator import add, mul
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


def _is_int(value) -> bool:
    """Whether `value` is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rows(data: list[tuple]) -> None:
    """Raise for the first faulty row of `data`, in order: a TypeError for an
    entry that is not an int or is a bool, then a ValueError for its length."""
    for r in data:
        for x in filterfalse(_is_int, r):
            raise TypeError(f"integer matrix entry {x!r} is not an int")
        if len(r) != len(data[0]):
            raise ValueError("matrix rows have unequal lengths")


class _IntRows(tuple):
    """The rows, as tuples of equal length, of a matrix whose entries the
    package computed from ints; `IntegerMatrix` takes them as they are."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence[int]]):
        return super().__new__(cls, map(tuple, rows))


class IntegerMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        if type(rows) is _IntRows:
            data = rows
        else:
            data = []
            try:
                data.extend(map(tuple, rows))
            except Exception:
                # A faulty row read before the failing one is reported first.
                _check_rows(data)
                raise
            if len(set(map(len, data))) > 1 or set(map(type, chain.from_iterable(data))) - {int}:
                _check_rows(data)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        self._data = tuple(data)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls(_IntRows(rows))

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
        return type(self)(_IntRows(zip(*self._data)))

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product as a tuple."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, vector)) for row in self._data)

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not match for product")
        cols = list(zip(*other._data))
        return IntegerMatrix(_IntRows(
            [sum(map(mul, row, col)) for col in cols] for row in self._data
        ))


def _row_values(row: Sequence[int], columns: Sequence[Sequence[int]]) -> list[int]:
    """row.x for every point x, given by its coordinate columns (columns[k]
    holds coordinate k of each point): one pass down each column where
    row is nonzero, so a sparse row reads few of them."""
    values = None
    for a, column in zip(row, columns):
        if a:
            term = map(mul, column, repeat(a))
            values = term if values is None else map(add, values, term)
    return [0] * len(columns[0]) if values is None else list(values)


def _exact_quotients(values: list[int], divisor: int) -> list[int]:
    """values[i] / divisor for each value, each by a `divmod` whose
    remainder must be 0; a divisor of 1 leaves the values as they are."""
    if divisor == 1:
        return values
    out = []
    for x in values:
        q, r = divmod(x, divisor)
        if r:
            raise ArithmeticError("Bareiss division left a remainder")
        out.append(q)
    return out


def _eliminate(rows: list[list[int]], n: int) -> tuple[int, list[tuple]]:
    """Bareiss forward pass over [m | B], given as the n lists `rows`.

    Rows and live columns are paired by position, row i with column i at
    first; a row's diagonal is its entry in its paired column, m[i][i]
    while every pivot is a diagonal (always on a Laplacian minor, which
    stays positive definite).  Each step takes the row with the fewest
    nonzeros in the live columns of m; among ties, one whose diagonal is
    +-1, then the lowest index (Markowitz, Mgmt. Sci. 1957).  A row's key
    is refreshed whenever the row changes.  The pivot is the diagonal if
    that is nonzero, else the row's first nonzero live entry.  On a tree
    minor this takes leaves first: every pivot is 1 and nothing fills in
    (Rose, J. Math. Anal. Appl. 1970).

    Each other row becomes (pivot * row - f * pivot row) / p, with p the
    pivot before.  The chosen rows and columns form the leading block of
    a permuted m, so Sylvester's identity makes each division exact under
    any pivot order (Bareiss, Math. Comp. 1968): every entry is a minor of
    [m | B].  A row with f = 0 would only be scaled by pivot / p, so it is
    left as it is and keeps the p it divides by next: the scalings
    telescope, so its next update, or its catch-up when it becomes the
    pivot row, is one exact division by that p.  A pivot of 1 defers the
    division too: the row becomes row - f * pivot row, by
    `row[j] -= f * pivot_row[j]` over the pivot row's nonzero entries
    only, and keeps its p.  The pivot column is deleted from every row, so
    each row holds its live columns only.

    Returns (D, upper) with D = det m: the last pivot times a sign that
    flips whenever the pivot's position among the remaining rows plus its
    position among the live columns, both kept in increasing order, is
    odd.  Each entry of `upper` is (pivot column, pivot, the live columns
    left after it, its row over those columns and B).  A singular m gives
    D = 0 and stops the pass.
    """
    sign, prev = 1, 1
    cols = list(range(n))
    divisors = [1] * n
    # A key is twice the row's nonzeros in m, plus 1 unless its diagonal is
    # +-1; `index(min(keys))` takes the lowest index among equal keys.
    keys = [2 * (n - r[:n].count(0)) + (abs(r[i]) != 1) for i, r in enumerate(rows)]
    upper = []
    while rows:
        t = keys.index(min(keys))
        row, p = rows.pop(t), divisors.pop(t)
        del keys[t]
        q = t if row[t] else next(compress(range(len(cols)), row), None)
        if q is None:
            return 0, upper
        if (t + q) & 1:
            sign = -sign
        if p != prev:
            row = _exact_quotients([x * prev for x in row], p)
        pivot = row.pop(q)
        c = cols.pop(q)
        w = len(cols)
        upper.append((c, pivot, cols[:], row))
        nonzero = list(compress(range(len(row)), row)) if pivot == 1 else None
        for u, other in enumerate(rows):
            f = other.pop(q)
            if f:
                if nonzero is not None:
                    for j in nonzero:
                        other[j] -= f * row[j]
                else:
                    rows[u] = other = _exact_quotients(
                        [pivot * x - f * y for x, y in zip(other, row)], divisors[u])
                    divisors[u] = pivot
                keys[u] = 2 * (w - other[:w].count(0)) + (abs(other[u]) != 1)
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
    return d, IntegerMatrix(_IntRows(_back_substitute(upper, d, n)))


def _back_substitute(upper: list[tuple], d: int, n: int) -> list[list[int]]:
    """The rows of X = d * m^-1 * B from the rows `upper` that `_eliminate`
    left of [m | B], where d = |det m| > 0.

    The kept row with pivot p in column c says p*X_c + sum U_j*X_j = d*b'
    over its other entries U_j, all in columns pivoted later, so from the
    last kept row up X_c = (d*b' - sum U_j*X_j) / p; each X_c is a row of
    the integral X, so every division is exact, and each is a
    remainder-checked `divmod`.  X comes out in the order of m's columns.
    """
    X = [None] * n
    for c, pivot, labels, row in reversed(upper):
        acc = [d * x for x in row[len(labels):]]
        for j, u in compress(zip(labels, row), row):
            acc = [a - u * x for a, x in zip(acc, X[j])]
        X[c] = _exact_quotients(acc, pivot)
    return X


def adjugate_pair(m: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """Return (d, R) with d = |det m| > 0 and R = d * m^{-1} integral.

    R satisfies m @ R = d * I exactly; its columns generate the ray lattice
    used throughout the cone machinery.  It is `scaled_solve(m, I)`.
    """
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    return scaled_solve(m, IntegerMatrix.identity(m.rows))
