"""Closed forms and congruence solvers for cycle and leafed-cycle minors.

Both families have determinant n, and reducing the scaled inverse mod n
reveals a rank-one structure: every column is a multiple of a single vector
v1.  As a consequence the lattice points of the fundamental parallelepiped
are parametrized by digit vectors c in {0..n-1}^k satisfying one linear
congruence mod n, and the univariate numerator can be computed by dynamic
programming over digit positions without materializing the solution set.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .cone_engine import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    IntegerPointTransform,
    UnivariateRationalGF,
)
from .exact_linalg import IntegerMatrix, adjugate_pair
from .graph_core import cycle_graph, laplacian_minor, leafed_cycle_graph

__all__ = [
    "CongruenceSystem",
    "cycle_system",
    "leafed_system",
    "ModStructureReport",
    "cycle_inverse_closed",
    "leafed_inverse_closed",
    "mod_structure",
    "solve_Sn",
    "phi_histogram_dp",
    "phi_zero_histogram_dp",
    "leafed_gf",
    "cycle_multivariate_gf",
]


class CongruenceSystem:
    """Digit vectors c in {0..n-1}^k with sum_j weights[j]*c[j] = 0 mod n."""

    __slots__ = ("modulus", "weights")

    def __init__(self, modulus: int, weights: tuple[int, ...]):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.weights = tuple(w % modulus for w in weights)

    @property
    def digits(self) -> int:
        return len(self.weights)

    def __repr__(self):
        return f"CongruenceSystem(mod={self.modulus}, weights={self.weights})"


def cycle_system(n: int) -> CongruenceSystem:
    """Congruence for the plain n-cycle: weights (n-1, n-2, ..., 1)."""
    if n < 2:
        raise ValueError("cycle congruence needs n >= 2")
    return CongruenceSystem(n, tuple(n - j for j in range(1, n)))


def leafed_system(n: int) -> CongruenceSystem:
    """Congruence for the leafed n-cycle: weights (0, n-1, n-2, ..., 1)."""
    if n < 2:
        raise ValueError("leafed congruence needs n >= 2")
    return CongruenceSystem(n, (0,) + tuple(n - j for j in range(1, n)))


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


def solve_Sn(system: CongruenceSystem,
             budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Iterate the digit vectors solving the system, deterministically.

    The last invertible weight's digit is forced by the others, cutting the
    work from n^k to n^(k-1); both built-in families end with weight 1, so
    their solutions come out in lexicographic order.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    n = system.modulus
    weights = system.weights
    k = system.digits
    pivot = None
    for idx in range(k - 1, -1, -1):
        try:
            inv = pow(weights[idx], -1, n)
        except ValueError:
            continue
        pivot = (idx, inv)
        break
    required = n**k if pivot is None else n ** (k - 1)
    if required > budget:
        raise BudgetExceededError(
            f"congruence solve needs {required} candidates", required
        )

    def filtered() -> Iterator[tuple[int, ...]]:
        for c in itertools.product(range(n), repeat=k):
            if sum(w * x for w, x in zip(weights, c)) % n == 0:
                yield c

    def pivoted() -> Iterator[tuple[int, ...]]:
        idx, inv = pivot
        free_positions = [p for p in range(k) if p != idx]
        for free in itertools.product(range(n), repeat=k - 1):
            acc = sum(weights[p] * x for p, x in zip(free_positions, free))
            c = list(free)
            c.insert(idx, (-acc * inv) % n)
            yield tuple(c)

    return filtered() if pivot is None else pivoted()


def phi_histogram_dp(n: int) -> list[int]:
    """Coefficient list of sum_{c in S_n} q^{phi(c)} for the leafed family,
    phi(c) = digit sum; computed by DP over positions, states (residue,
    running digit sum).  Length n*(n-1)+1; total mass n**(n-1)."""
    if n < 2:
        raise ValueError("histogram needs n >= 2")
    weights = leafed_system(n).weights
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


def phi_zero_histogram_dp(n: int) -> dict[tuple[int, int], int]:
    """Joint histogram over S_n of (digit sum, number of zero digits).

    Used for counting interior points of dilated slices, where the rays
    whose digit is zero must appear with a strictly positive coefficient.
    """
    if n < 2:
        raise ValueError("histogram needs n >= 2")
    weights = leafed_system(n).weights
    table: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for w in weights:
        new: dict[tuple[int, int, int], int] = {}
        for (r, s, z), count in table.items():
            for c in range(n):
                key = ((r + w * c) % n, s + c, z + (c == 0))
                new[key] = new.get(key, 0) + count
        table = new
    return {
        (s, z): count for (r, s, z), count in table.items() if r == 0
    }


def leafed_gf(n: int) -> UnivariateRationalGF:
    """Generating function of the leafed n-cycle cone by first coordinate:
    (sum_{c in S_n} q^{phi(c)}) / (1 - q^n)^n."""
    return UnivariateRationalGF(phi_histogram_dp(n), [(n, n)])


def cycle_multivariate_gf(n: int,
                          budget: Optional[int] = None) -> IntegerPointTransform:
    """Integer point transform of the plain n-cycle cone, built from the
    congruence solutions instead of parallelepiped enumeration."""
    if n < 3:
        raise ValueError("cycle transform needs n >= 3")
    _, r = _family_minor_pair(n, leafed=False)
    rows = [r.row(i) for i in range(r.rows)]
    numerator = []
    for c in solve_Sn(cycle_system(n), budget):
        lam = []
        for row in rows:
            num = sum(a * b for a, b in zip(row, c))
            q, rem = divmod(num, n)
            if rem:
                raise ArithmeticError("congruence solution is not a lattice point")
            lam.append(q)
        numerator.append(tuple(lam))
    rays = [r.column(j) for j in range(r.cols)]
    return IntegerPointTransform(numerator, rays)
