"""The digit-sum DP and generating function of leafed-cycle minors.

The leafed n-cycle, minored at its leaf, has determinant n, and its
scaled inverse n * L^-1 reduced mod n has rank one: every column is a
multiple of a single vector.  As a consequence the digit vectors of the
fundamental parallelepiped, which `cone_engine.fpp_points` lists for any
cone, are here the vectors c in {0..n-1}^n satisfying one linear
congruence mod n, with weights (0, n-1, ..., 1); call that set S_n.  The
univariate numerator is then a dynamic program over digit positions,
which runs for n far beyond where the n**(n-1) points could be walked.
The closed-form inverses and the rank-one check live with the tests, as
oracles for the general engine.
"""

from __future__ import annotations

from .cone_engine import UnivariateRationalGF
from .exact_linalg import IntegerMatrix, adjugate_pair
from .graph_core import laplacian_minor, leafed_cycle_graph

__all__ = [
    "phi_histogram_dp",
    "leafed_gf",
]


def _leafed_minor_pair(n: int) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Minor matrix L of the leafed n-cycle, minored at its leaf, and its
    scaled inverse R = n * L^-1.

    The minor has determinant n; any other value raises.
    """
    minor = laplacian_minor(leafed_cycle_graph(n), n)
    d, r = adjugate_pair(minor.matrix)
    if d != n:
        raise ArithmeticError(f"expected determinant {n}, got {d}")
    return minor.matrix, r


def phi_histogram_dp(n: int) -> list[int]:
    """Coefficient list of sum_{c in S_n} q^{phi(c)} for the leafed family,
    phi(c) = digit sum; computed by DP over positions, states (residue,
    running digit sum).  Length n*(n-1)+1; total mass n**(n-1)."""
    if n < 2:
        raise ValueError("histogram needs n >= 2")
    weights = (0,) + tuple(range(n - 1, 0, -1))
    max_phi = n * (n - 1)
    table = [[0] * (max_phi + 1) for _ in range(n)]
    table[0][0] = 1
    for w in weights:
        new = [[0] * (max_phi + 1) for _ in range(n)]
        for r in range(n):
            row = table[r]
            for s, count in enumerate(row):
                if count:
                    for c in range(n):
                        new[(r + w * c) % n][s + c] += count
        table = new
    return table[0]


def leafed_gf(n: int) -> UnivariateRationalGF:
    """Generating function of the leafed n-cycle cone by first coordinate:
    (sum_{c in S_n} q^{phi(c)}) / (1 - q^n)^n."""
    return UnivariateRationalGF(phi_histogram_dp(n), [(n, n)])
