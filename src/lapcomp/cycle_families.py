"""The generating function of leafed-cycle minors.

The leafed n-cycle, minored at its leaf, has determinant n and a scaled
inverse R = n * L^-1 with a top row of n's, so its first-coordinate gf is
the engine's digit-class DP on R with weights (n, ..., n), which runs far
beyond where the n**(n-1) parallelepiped points could be walked.  The
family closed forms live with the tests, as oracles for the engine.
"""

from __future__ import annotations

from .cone_engine import UnivariateRationalGF, _numerator
from .exact_linalg import IntegerMatrix, adjugate_pair

__all__ = [
    "leafed_gf",
]


def _leafed_minor_pair(n: int) -> tuple[IntegerMatrix, IntegerMatrix]:
    """The leafed n-cycle's minor at its leaf, L = 2I - P - P^T + E_00 with P
    the cyclic shift, and R = n * L^-1; a determinant other than n, or a
    top row of R other than (n, ..., n), raises.

    For n >= 3, L is `laplacian_minor(leafed_cycle_graph(n), n)`; for n = 2
    it is the minor of a doubled edge with a leaf.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        rows[i][i] += 2
        rows[i][j] -= 1
        rows[j][i] -= 1
    rows[0][0] += 1
    minor = IntegerMatrix(rows)
    d, r = adjugate_pair(minor)
    if d != n:
        raise ArithmeticError(f"expected determinant {n}, got {d}")
    if any(x != n for x in r.row(0)):
        raise ArithmeticError("top row of the scaled inverse is not constant n")
    return minor, r


def leafed_gf(n: int) -> UnivariateRationalGF:
    """Generating function of the leafed n-cycle cone by first coordinate:
    (sum_{c in S_n} q^{digit sum of c}) / (1 - q^n)^n."""
    if n < 2:
        raise ValueError("leafed gf needs n >= 2")
    minor, r = _leafed_minor_pair(n)
    return UnivariateRationalGF(_numerator(minor, r, n, [n] * n), [(n, n)])
