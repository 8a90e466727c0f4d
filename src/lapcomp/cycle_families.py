"""The generating function of leafed-cycle minors.

The leafed n-cycle, minored at its leaf, has determinant n and a scaled
inverse R = n * L^-1 with a top row of n's, so its first-coordinate gf is
the engine's digit-class DP on R with weights (n, ..., n), which runs far
beyond where the n**(n-1) parallelepiped points could be walked.  R is
written from its closed form, not eliminated: the pair certifies it by
R's top row and by L*R = n*I, checked exactly over L's nonzero entries,
which makes R = n * L^-1 without a determinant.  The family closed forms
live with the tests, as oracles for the engine.
"""

from __future__ import annotations

from .cone_engine import UnivariateRationalGF, _numerator
from .exact_linalg import IntegerMatrix, _IntRows, _row_values

__all__ = [
    "leafed_gf",
]


def _leafed_inverse_rows(n: int) -> list[list[int]]:
    """The rows of R = n * L^-1 for the leafed n-cycle's minor L, from the
    closed form R[a][b] = min(a, b) * (n - max(a, b)) + n (0-based): row a
    rises from n by n - a up to b = a, then falls by a, so it is two
    integer ranges and no division."""
    rows = [[n] * n]
    for a in range(1, n):
        peak = a * (n - a) + n
        rows.append([*range(n, peak + 1, n - a), *range(peak - a, n, -a)])
    return rows


def _leafed_minor_pair(n: int) -> tuple[IntegerMatrix, IntegerMatrix]:
    """The leafed n-cycle's minor at its leaf, L = 2I - P - P^T + E_00 with P
    the cyclic shift, and R = n * L^-1 from `_leafed_inverse_rows`; a top
    row of R other than (n, ..., n), or L*R other than n*I, raises.

    L*R = n*I, over L's nonzero entries, is the certificate: it makes L
    invertible and R exactly n * L^-1, with no elimination and no
    determinant.  For n >= 3, L is `laplacian_minor(leafed_cycle_graph(n),
    n)`; for n = 2 it is the minor of a doubled edge with a leaf.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        rows[i][i] += 2
        rows[i][j] -= 1
        rows[j][i] -= 1
    rows[0][0] += 1
    r = _leafed_inverse_rows(n)
    if any(x != n for x in r[0]):
        raise ArithmeticError("top row of the scaled inverse is not constant n")
    for i, row in enumerate(rows):
        product = _row_values(row, r)
        if product[i] != n or product.count(0) != n - 1:
            raise ArithmeticError("minor times its scaled inverse is not n*I")
    return IntegerMatrix(_IntRows(rows)), IntegerMatrix(_IntRows(r))


def leafed_gf(n: int) -> UnivariateRationalGF:
    """Generating function of the leafed n-cycle cone by first coordinate:
    (sum_{c in S_n} q^{digit sum of c}) / (1 - q^n)^n."""
    if n < 2:
        raise ValueError("leafed gf needs n >= 2")
    minor, r = _leafed_minor_pair(n)
    return UnivariateRationalGF(_numerator(minor, r, n, [n] * n), [(n, n)])
