"""Slice simplices of leafed-cycle cones and their Ehrhart data.

Cutting the cone {x : Lx >= 0} at first coordinate n and dropping that
constant coordinate leaves a full-dimensional lattice simplex on n
vertices.  This module builds those simplices, counts lattice points of
their dilates exactly, extracts h*-vectors by finite differences, and
tests reflexivity two independent ways: a halfspace certificate at one
fixed translation, and the interior-count identity L_interior(t+1) =
L(t).  A sumset probe for normality rounds it out: it lists only the
simplex's own lattice points and holds the size of each m-fold sumset
against the count of m*s.

Every simplex keeps a facet matrix F and a height h, with
t*s = {x : F (h*t, x) >= 0}, so the facets of every dilate come from F
alone.  A simplex given by its vertices takes F from the adjugate of its
homogenized vertex matrix, once, with h = 1.  A slice is built once from
the leafed minor pair (L, R = n * L^-1), whose R comes from its closed
form with no elimination: its vertices are the columns of R below a top
row of n's, certified affinely independent by the pair's check
L*R = n*I, F is L and h is n.  The canonical interior point is read back
from the integer vertex sums, the halfspace certificate reads L one
coordinate column at a time over each row's nonzeros, and one digit-class
DP on R, run when the slice is built, gives the digit strata behind every
dilate count.

Counting goes through those strata whenever the simplex is a slice,
interior points included, by Ehrhart-Macdonald reciprocity, and the slice
keeps each count it sums.  The box-scan oracle of `cone_engine`, fed the
simplex's facet inequalities in integers, covers arbitrary simplices and
doubles as an independent cross-check.
"""

from __future__ import annotations

import math
from operator import lshift
from typing import NamedTuple, Optional, Sequence

from .cone_engine import (
    _box_points, _charge, _charge_box, _field_shifts, _json_form, _numerator,
    _one_minus_q_power, _poly_mul,
)
from .cycle_families import _leafed_minor_pair
from .exact_linalg import (
    IntegerMatrix, SingularMatrixError, _IntRows, _is_int, _row_values, adjugate_pair,
)

__all__ = [
    "LatticeSimplex",
    "HStarData",
    "HalfspaceReport",
    "NormalityReport",
    "build_slice_simplex",
    "interior_point",
    "reflexivity_by_halfspaces",
    "dilate_points",
    "dilate_count",
    "interior_count",
    "h_star",
    "reflexivity_by_interior_counts",
    "normality_probe",
]


class LatticeSimplex:
    """A full-dimensional lattice simplex: its vertices, and a facet
    matrix F and height h with t*s = {x : F (h*t, x) >= 0} for t >= 0.

    The public constructor checks the vertices, then takes (|det V|, F) =
    `adjugate_pair(V)` of the homogenized vertex matrix V, with columns
    (1, v_j), and h = 1: F (1, x) is |det V| times the barycentric
    coordinates of x, and a singular V means affinely dependent vertices.
    `_leafed_slice` fills the same slots through `_init`, with F = L and
    h = n and no elimination; `build_slice_simplex` then sets the digit
    strata, which the counting routines read instead of the box scan,
    keeping each count.  `source_n` is h, or None when h = 1.
    """

    __slots__ = ("_vertices", "_facet_matrix", "_height", "_strata", "_counts")

    def __init__(self, dimension, vertices):
        if not _is_int(dimension):
            raise ValueError("dimension must be an int")
        vertices = tuple(tuple(v) for v in vertices)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if len(vertices) != dimension + 1:
            raise ValueError(
                f"need {dimension + 1} vertices in dimension {dimension}, "
                f"got {len(vertices)}"
            )
        for v in vertices:
            if len(v) != dimension:
                raise ValueError("vertex length does not match the dimension")
            if not all(map(_is_int, v)):
                raise ValueError("vertices must have integer entries")
        homogenized = IntegerMatrix(_IntRows([(1,) * len(vertices), *zip(*vertices)]))
        try:
            facets = adjugate_pair(homogenized)[1]
        except SingularMatrixError:
            raise ValueError("vertices are affinely dependent") from None
        self._init(vertices, facets, 1)

    def _init(self, vertices, facets: IntegerMatrix, height: int) -> LatticeSimplex:
        """Fill every slot, with no strata and no counts yet; returns self."""
        self._vertices = vertices
        self._facet_matrix = facets
        self._height = height
        self._strata = None
        self._counts = {}
        return self

    @property
    def dimension(self) -> int:
        return len(self._vertices) - 1

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return self._vertices

    @property
    def source_n(self) -> Optional[int]:
        return None if self._height == 1 else self._height

    def edge_matrix(self) -> IntegerMatrix:
        """Columns are the edge vectors from vertex 0 to the others."""
        v0 = self._vertices[0]
        return IntegerMatrix(
            [
                [self._vertices[j][i] - v0[i] for j in range(1, len(self._vertices))]
                for i in range(self.dimension)
            ]
        )

    def __repr__(self) -> str:
        tag = "" if self._height == 1 else f", source_n={self._height}"
        return f"LatticeSimplex(dim={self.dimension}, vertices={self._vertices}{tag})"


def build_slice_simplex(n: int) -> LatticeSimplex:
    """The slice of the leafed n-cycle cone at first coordinate n.

    Its vertices are the columns of R = n * L^-1, which are integral
    because the minor determinant is n; every column has first coordinate
    n, so that coordinate is dropped.  The slice keeps L, and the strata
    (phi/n, count) of the digit sums phi of the cone's parallelepiped
    points with n | phi, which lie on slice dilates at height phi/n.
    """
    simplex, r = _leafed_slice(n)
    h = simplex._height  # R's top row, the DP's weights, is (h, ..., h)
    simplex._strata = list(enumerate(_numerator(simplex._facet_matrix, r, h, r.row(0))[::h]))
    return simplex


def _leafed_slice(n: int) -> tuple[LatticeSimplex, IntegerMatrix]:
    """The slice of `build_slice_simplex` with L but not yet its strata,
    and R.  Only the halfspace test and the interior point, which never
    count, use a slice without its strata.

    The vertices are R's columns below its top row, and no determinant is
    taken: L*R = n*I, which `_leafed_minor_pair` checks exactly over L's
    nonzero entries, makes R invertible, and R's columns, each (n, v_j),
    are then independent exactly when the v_j are affinely independent.
    """
    if n < 3:
        raise ValueError("leafed cycles need n >= 3")
    l, r = _leafed_minor_pair(n)
    vertices = tuple(column[1:] for column in zip(*r))
    return LatticeSimplex.__new__(LatticeSimplex)._init(vertices, l, n), r


def interior_point(n: int):
    """Row sums of L^-1: the canonical interior point of the slice.

    The first coordinate is the vertex count, the others the vertex sums
    over the height; both are n.  The point is integral exactly when n is
    odd; for even n every entry is a `Fraction`, and the halfspace
    reflexivity test reports a refutation.
    """
    from fractions import Fraction  # the one rational result, kept off import

    s = _leafed_slice(n)[0]
    sums = [Fraction(len(s.vertices))] + [Fraction(sum(c), s._height) for c in zip(*s.vertices)]
    if all(f.denominator == 1 for f in sums):
        return tuple(int(f) for f in sums)
    return tuple(sums)


class HalfspaceReport(NamedTuple):
    """Outcome of the translated halfspace description test."""

    n: int
    reflexive: bool
    reason: str
    translation: Optional[tuple[int, ...]]
    reduced_matrix: Optional[IntegerMatrix]
    rhs: Optional[tuple[int, ...]]
    translated_vertices: Optional[tuple[tuple[int, ...], ...]]

    def to_json_dict(self) -> dict:
        return _json_form(self._asdict())


def reflexivity_by_halfspaces(n: int) -> HalfspaceReport:
    """Translate the slice simplex by its canonical interior point and test
    whether the facet description becomes {z : Bz >= -1} with integral B.
    """
    return _halfspaces(_leafed_slice(n)[0])


def _halfspaces(s: LatticeSimplex) -> HalfspaceReport:
    """The halfspace test on a leafed slice, with facet matrix L and
    height h.

    u is `interior_point(n)`, from the integer vertex sums; a sum that h
    does not divide makes it non-integral, a refutation.  B is L with its
    first column dropped: for x in the slice, L(h, x) >= 0 rewrites to
    B(x - u) >= -L(h, u) = -1.  Any facet row not supported at exactly -1,
    on all vertices but one, is a refutation too.
    """
    h = s._height
    columns = list(zip(*s.vertices))
    sums = list(map(sum, columns))
    if any(c % h for c in sums):
        return HalfspaceReport(
            h, False, "canonical interior point is not integral",
            None, None, None, None,
        )
    l = s._facet_matrix
    drop = tuple(c // h for c in sums)
    if any(e != 1 for e in l.apply((h,) + drop)):
        raise ArithmeticError("minor times its inverse row sums is not all-ones")
    moved = [tuple(map((-c).__add__, column)) for column, c in zip(columns, drop)]
    translated = tuple(zip(*moved))
    reduced = IntegerMatrix(_IntRows(row[1:] for row in l))
    for i, row in enumerate(reduced):
        row_vals = _row_values(row, moved)
        if min(row_vals) < -1 or row_vals.count(-1) != s.dimension:
            return HalfspaceReport(
                h, False, f"facet row {i} is not supported at -1",
                drop, reduced, None, translated,
            )
    return HalfspaceReport(
        h, True, "certified", drop, reduced, (-1,) * len(s.vertices), translated,
    )


def _facets(s: LatticeSimplex, t: int, strict: int
            ) -> tuple[list[list[int]], list[int]]:
    """(rows, rhs): t*s is {x : row.x >= rhs for every row}, and its
    interior the same with strict 1.

    t*s is {x : F (h*t, x) >= 0} for the facet matrix F and height h of s,
    so the rows are F's without column 0, with right-hand sides
    -t*h*F[i][0]; F is integral, so the interior adds 1 to each.
    """
    f, h = s._facet_matrix, s._height
    return [row[1:] for row in f], [strict - t * h * row[0] for row in f]


def _scan_dilate(s: LatticeSimplex, t: int, budget: Optional[int],
                 strict: int) -> list[tuple[int, ...]]:
    """Lattice points of t*s (strictly inside it when strict is 1), by the
    box scan over the bounding box of t*s with the rows of `_facets`."""
    return _box_points(*_facets(s, t, strict), *_dilate_box(s, t), budget)


def _dilate_box(s: LatticeSimplex, t: int) -> tuple[list[int], list[int]]:
    """(lows, highs): the bounding box of t*s, for t >= 0."""
    columns = list(zip(*s.vertices))
    return [t * min(c) for c in columns], [t * max(c) for c in columns]


def dilate_points(s: LatticeSimplex, t: int, budget: Optional[int] = None
                  ) -> list[tuple[int, ...]]:
    """All lattice points of t*s in lexicographic order, by the box scan
    with the facet inequalities of t*s as its rows."""
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    if t == 0:
        return [(0,) * s.dimension]
    return _scan_dilate(s, t, budget, 0)


def _count(s: LatticeSimplex, t: int, budget: Optional[int], strict: int) -> int:
    """`dilate_count` (strict 0) or `interior_count` (strict 1).  A slice
    sums its strata once for each (t, strict) and keeps the count; the box
    scan is charged and run on every call."""
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    if t == 0:
        return 1 - strict
    if s._strata is None:
        return len(_scan_dilate(s, t, budget, strict))
    key = (t, strict)
    count = s._counts.get(key)
    if count is None:
        dim = s.dimension
        count = s._counts[key] = sum(
            c * math.comb(t + (k - 1 if strict else dim - k), dim) for k, c in s._strata)
    return count


def dilate_count(s: LatticeSimplex, t: int, budget: Optional[int] = None) -> int:
    """|Z^D intersect t*s|, exactly.

    Slices of leafed cycles are counted through the digit-sum histogram:
    a cone point at first coordinate n*t is a parallelepiped point with
    digit sum phi plus a nonnegative ray combination summing to
    t - phi/n, so each stratum with n | phi contributes a binomial.
    """
    return _count(s, t, budget, 0)


def interior_count(s: LatticeSimplex, t: int, budget: Optional[int] = None) -> int:
    """Number of lattice points strictly inside t*s.

    Leafed slices are counted by Ehrhart-Macdonald reciprocity,
    L_interior(t) = (-1)^D L(-t) with D = n-1: the stratum phi/n = k of
    `dilate_count` turns C(t - k + n - 1, n - 1) into C(t + k - 1, n - 1).
    On digit vectors this is the map c -> (n - c) mod n, which S_n is
    closed under: it sends the half-open parallelepiped's digits onto the
    open one's, in {1..n}, and a digit sum phi to n^2 - phi, so each point
    inside t*s is an open parallelepiped point plus a nonnegative ray
    combination.
    """
    return _count(s, t, budget, 1)


class HStarData(NamedTuple):
    """h*-vector of a lattice simplex with the dilate counts behind it."""

    h_star: tuple[int, ...]
    dilate_counts: tuple[int, ...]
    palindromic: bool
    unimodal: bool
    reflexive_certificate: Optional[bool]

    def to_json_dict(self) -> dict:
        return _json_form(self._asdict())


def _is_unimodal(seq: Sequence[int]) -> bool:
    falling = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            return False
    return True


def h_star(s: LatticeSimplex, budget: Optional[int] = None) -> HStarData:
    """h*-vector by finite differences of the first D+1 dilate counts:
    h*_j = sum_i (-1)^i C(D+1, i) L(j-i), the coefficient of q^j in
    (1 - q)^(D+1) * sum_t L(t) q^t.

    Nonnegativity of every entry is a theorem for lattice polytopes, so a
    negative entry here means inconsistent counts and raises.
    """
    dim = s.dimension
    counts = tuple(dilate_count(s, t, budget=budget) for t in range(dim + 1))
    h = _poly_mul(counts, _one_minus_q_power(1, dim + 1))[:dim + 1]
    if h[0] != 1 or any(e < 0 for e in h):
        raise ArithmeticError(f"inconsistent dilate counts: h* = {h}")
    cert = None
    if s.source_n is not None:
        cert = _halfspaces(s).reflexive
    return HStarData(tuple(h), counts, h == h[::-1], _is_unimodal(h), cert)


def reflexivity_by_interior_counts(s: LatticeSimplex, t_max: int,
                                   budget: Optional[int] = None) -> bool:
    """Check L_interior(t+1) = L(t) for all t <= t_max.

    The identity characterizes reflexive polytopes (with t ranging over
    everything; checking the first D values already settles it, both
    sides being polynomials of degree D).  Independent of the halfspace
    certificate route.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    return all(
        interior_count(s, t + 1, budget=budget) == dilate_count(s, t, budget=budget)
        for t in range(t_max + 1)
    )


class NormalityReport(NamedTuple):
    """Sumset evidence for normality up to a dilation bound."""

    m_max: int
    results: tuple[bool, ...]
    normal_up_to: int
    counterexample: Optional[tuple[int, tuple[int, ...]]]

    def to_json_dict(self) -> dict:
        cx = self.counterexample
        return _json_form({
            **self._asdict(),
            "counterexample": None if cx is None else {"m": cx[0], "point": cx[1]},
        })


def normality_probe(s: LatticeSimplex, m_max: int = 2,
                    budget: Optional[int] = None) -> NormalityReport:
    """Verify, for each m <= m_max, that every lattice point of m*s is a
    sum of m lattice points of s.  Evidence only — stops at the first
    failing m and records its least uncovered point.

    Every dilate's box, m times the box of s, is charged before any scan,
    so a probe over the budget at some m refuses at once, even where an
    earlier m would have failed.  Only L(1) is listed, by the box scan
    with the facets of `_facets`, and its size must equal
    `dilate_count(s, 1)`.  Each point is packed into one int by
    `_field_shifts` over spans of m_max times the box's extent, field i
    holding x_i - m * low_i: a sum of m packed points is then one int add
    without carries, and int order is lexicographic.
    The m-fold sumset is the set of packed sums, its |(m-1)-fold sumset|
    * |L(1)| pairs charged against the budget before any is formed; the
    2-fold sumset adds each unordered pair once.  Every L(1) point is
    checked against the facet rows of s, one coordinate column at a time,
    and those rows are linear in m, so the m-fold sums lie in m*s; m is
    normal iff their number is `dilate_count(s, m)`, which a slice reads
    from its strata.  Only a dilate that fails is listed, by the box scan,
    to name its least uncovered point.  A simplex without strata is
    counted by the box scan itself, so each of its dilates is scanned once
    and counted by its listing, L(1) included.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    lows, highs = _dilate_box(s, 1)
    for m in range(1, m_max + 1):
        _charge_box([m * l for l in lows], [m * h for h in highs], budget)
    rows, rhs = _facets(s, 1, 0)
    strata = s._strata is not None
    base = _box_points(rows, rhs, lows, highs, budget)
    if strata and len(base) != dilate_count(s, 1, budget=budget):
        raise ArithmeticError("box scan of the simplex disagrees with its count")
    columns = list(zip(*base))
    if any(min(_row_values(row, columns)) < b for row, b in zip(rows, rhs)):
        raise ArithmeticError("box scan of the simplex left its facets")
    shifts = _field_shifts([m_max * (h - l) for l, h in zip(lows, highs)])
    offset = sum(map(lshift, lows, shifts))
    packed = [sum(map(lshift, p, shifts)) - offset for p in base]
    reach = set(packed)
    pairs = 0
    counterexample = None
    for m in range(2, m_max + 1):
        pairs += len(reach) * len(packed)
        _charge(pairs, budget, "normality sumset needs {} pairs, budget is {}")
        if m == 2:  # L(1) + L(1): each unordered pair once
            reach = {a + b for i, a in enumerate(packed) for b in packed[i:]}
        else:
            reach = {a + b for a in reach for b in packed}
        listing = None if strata else dilate_points(s, m, budget=budget)
        count = dilate_count(s, m, budget=budget) if strata else len(listing)
        if len(reach) == count:
            continue
        if listing is None:
            listing = dilate_points(s, m, budget=budget)
        target = {sum(map(lshift, p, shifts)) - m * offset: p for p in listing}
        if len(target) != count:
            raise ArithmeticError(f"box scan of dilate {m} disagrees with its count")
        if not reach <= target.keys():
            raise ArithmeticError("sumset escaped the dilate; vertices corrupt")
        counterexample = (m, target[min(target.keys() - reach)])
        break
    normal_up_to = m_max if counterexample is None else counterexample[0] - 1
    results = (True,) * normal_up_to + (False,) * (counterexample is not None)
    return NormalityReport(m_max, results, normal_up_to, counterexample)
