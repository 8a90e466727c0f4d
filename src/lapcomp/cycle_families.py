"""Closed forms and the digit-sum DP for cycle and leafed-cycle minors.

Both families have determinant n, and reducing the scaled inverse mod n
reveals a rank-one structure: every column is a multiple of a single vector
v1 (`mod_structure`).  As a consequence the digit vectors of the
fundamental parallelepiped, which `cone_engine.fpp_points` lists for any
cone, are here the vectors c in {0..n-1}^k satisfying one linear
congruence mod n; for the leafed n-cycle that set S_n has weights
(0, n-1, ..., 1).  The univariate numerator is then a dynamic program over
digit positions, which runs for n far beyond where the n**(n-1) points
could be walked.  The closed-form inverses and `mod_structure` stay as
test oracles for the general engine.
"""

from __future__ import annotations

from .cone_engine import UnivariateRationalGF
from .exact_linalg import IntegerMatrix, adjugate_pair
from .graph_core import cycle_graph, laplacian_minor, leafed_cycle_graph

__all__ = [
    "ModStructureReport",
    "cycle_inverse_closed",
    "leafed_inverse_closed",
    "mod_structure",
    "phi_histogram_dp",
    "leafed_gf",
]


def cycle_inverse_closed(n: int) -> IntegerMatrix:
    """n * L^-1 for the n-cycle Laplacian minor via the closed form
    i*(n-j) for i <= j (symmetric), with 1-based indices."""
    if n < 3:
        raise ValueError("cycle inverse needs n >= 3")
    return IntegerMatrix(
        [min(a, b) * (n - max(a, b)) for b in range(1, n)] for a in range(1, n)
    )


def leafed_inverse_closed(n: int) -> IntegerMatrix:
    """n * L^-1 for the leafed n-cycle minor: the cycle closed form plus n,
    with 0-based indices, so the top row and column are all n."""
    if n < 3:
        raise ValueError("leafed inverse needs n >= 3")
    return IntegerMatrix(
        [min(a, b) * (n - max(a, b)) + n for b in range(n)] for a in range(n)
    )


def _family_minor_pair(n: int, leafed: bool) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Minor matrix L and scaled inverse R = n * L^-1 of the leafed n-cycle
    (minored at its leaf) or of the plain n-cycle (minored at n-1).

    Both minors have determinant n; any other value raises.
    """
    if leafed:
        minor = laplacian_minor(leafed_cycle_graph(n), n)
    else:
        minor = laplacian_minor(cycle_graph(n), n - 1)
    d, r = adjugate_pair(minor.matrix)
    if d != n:
        raise ArithmeticError(f"expected determinant {n}, got {d}")
    return minor.matrix, r


class ModStructureReport:
    """Result of reducing the scaled inverse mod n: column k = k * v1."""

    __slots__ = ("family", "n", "v1", "matrix", "verified")

    def __init__(self, family: str, n: int, v1: tuple[int, ...],
                 matrix: tuple[tuple[int, ...], ...], verified: bool):
        self.family = family
        self.n = n
        self.v1 = v1
        self.matrix = matrix
        self.verified = verified

    def __repr__(self):
        return (
            f"ModStructureReport({self.family}, n={self.n}, v1={self.v1}, "
            f"verified={self.verified})"
        )


def mod_structure(n: int, leafed: bool = True) -> ModStructureReport:
    """Reduce the scaled minor inverse mod n and verify its rank-one shape.

    For the leafed family column k must equal k*v1 (column 0 is zero); for
    the plain cycle, whose columns correspond to vertices 1..n-1, column at
    index k must equal (k+1)*v1.
    """
    if n < 3:
        raise ValueError("mod structure needs n >= 3")
    family = "leafed_cycle" if leafed else "cycle"
    _, r = _family_minor_pair(n, leafed)
    reduced = tuple(
        tuple(x % n for x in r.row(i)) for i in range(r.rows)
    )
    size = r.rows
    v1 = tuple(reduced[i][1 if leafed else 0] for i in range(size))
    for k in range(size):
        mult = k if leafed else k + 1
        expected = tuple(mult * x % n for x in v1)
        actual = tuple(reduced[i][k] for i in range(size))
        if actual != expected:
            raise ArithmeticError(
                f"column {k} of the reduced inverse is not {mult} * v1"
            )
    return ModStructureReport(family, n, v1, reduced, True)


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
