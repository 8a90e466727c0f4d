"""Closed forms for the cycle and leafed-cycle families, a set-based
normality probe, a tuple-sorted transform, a simplex's normalized volume,
a simplex's facets from the adjugate of its edge matrix, a rational
Gauss-Jordan solver, and the line-by-line graph reader,
row-by-row matrix check, per-neighbour block split, per-shift Burnside
sum and every-level box scan that the library once had, kept as oracles.

Nothing in `lapcomp` computes these: each one reaches a result by a route
the library does not take (the adjugate facets only for simplices that
are not leafed slices), so the tests can hold the general engine, the
digit-sum DP, the packed normality probe, the packed point sort, a
slice's facets read off its minor, the block split read off one rooting,
the divisor Burnside sum and the box scan's level-0 prune against them.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import chain

from lapcomp import (
    BlockProblem,
    Graph,
    GraphError,
    IntegerMatrix,
    IntegerPointTransform,
    NormalityReport,
    adjugate_pair,
    cycle_graph,
    determinant,
    dilate_points,
    laplacian_minor,
    leafed_cycle_graph,
)
from lapcomp.cone_engine import _charge_box, _lex_walk, _sorted_points, _unpack
from lapcomp.ehrhart_reflexive import _dilate_box


def family_minor(n, leafed):
    """The leafed n-cycle's Laplacian minor at its leaf, or the n-cycle's
    at vertex n-1; both have determinant n."""
    if leafed:
        return laplacian_minor(leafed_cycle_graph(n), n)
    return laplacian_minor(cycle_graph(n), n - 1)


def cycle_inverse_closed(n):
    """n * L^-1 for the n-cycle Laplacian minor via the closed form
    i*(n-j) for i <= j (symmetric), with 1-based indices."""
    if n < 3:
        raise ValueError("cycle inverse needs n >= 3")
    return IntegerMatrix(
        [min(a, b) * (n - max(a, b)) for b in range(1, n)] for a in range(1, n)
    )


def leafed_inverse_closed(n):
    """n * L^-1 for the leafed n-cycle minor: the cycle closed form plus n,
    with 0-based indices, so the top row and column are all n."""
    if n < 3:
        raise ValueError("leafed inverse needs n >= 3")
    return IntegerMatrix(
        [min(a, b) * (n - max(a, b)) + n for b in range(n)] for a in range(n)
    )


class ModStructureReport:
    """Result of reducing the scaled inverse mod n: column k = k * v1."""

    __slots__ = ("family", "n", "v1", "matrix", "verified")

    def __init__(self, family, n, v1, matrix, verified):
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


def mod_structure(n, leafed=True):
    """Reduce the scaled minor inverse mod n and verify its rank-one shape.

    For the leafed family column k must equal k*v1 (column 0 is zero); for
    the plain cycle, whose columns correspond to vertices 1..n-1, column at
    index k must equal (k+1)*v1.
    """
    if n < 3:
        raise ValueError("mod structure needs n >= 3")
    family = "leafed_cycle" if leafed else "cycle"
    d, r = adjugate_pair(family_minor(n, leafed))
    if d != n:
        raise ArithmeticError(f"expected determinant {n}, got {d}")
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


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _power(p, k):
    out = [1]
    for _ in range(k):
        out = _mul(out, p)
    return out


def _totient(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def necklace_histogram(n):
    """Coefficients of (1/n) sum_{m | n} totient(m) (1 - q^n)^n / (1 - q^m)^(n/m).

    By Burnside's lemma over the n rotations, sum_{m | n} totient(m) /
    (1 - q^m)^(n/m) / n counts rotation classes of weak compositions into
    n parts, which is the leafed n-cycle's generating function; times
    (1 - q^n)^n it is the digit-sum histogram of S_n.  Each term is a
    polynomial because (1 - q^n) / (1 - q^m) = 1 + q^m + ... + q^(n-m).
    """
    total = [0] * (n * (n - 1) + 1)
    for m in range(1, n + 1):
        if n % m:
            continue
        k = n // m
        ratio = [1 if e % m == 0 else 0 for e in range(n - m + 1)]
        term = _mul(_power([1] + [0] * (n - 1) + [-1], n - k), _power(ratio, k))
        for e, c in enumerate(term):
            total[e] += _totient(m) * c
    if any(c % n for c in total):
        raise ArithmeticError("Burnside sum not divisible by n")
    return [c // n for c in total]


def count_cyclic_classes_by_shifts(m, n):
    """Rotation classes of weak compositions of m into n parts, by
    Burnside's lemma with one term per shift g: g fixes a composition iff
    it has period d = gcd(g, n), which needs (n/d) | m and then leaves
    C(m*d/n + d - 1, d - 1) choices."""
    total = 0
    for g in range(n):
        d = math.gcd(g, n)
        if m % (n // d) == 0:
            total += math.comb(m * d // n + d - 1, d - 1)
    assert total % n == 0
    return total // n


def box_points_every_level(rows, rhs, lows, highs):
    """The integer points x of lows <= x <= highs with row.x >= rhs for
    every row, in lexicographic order, by the pruned scan that tests the
    rows zero at a coordinate at every level: once x_0..x_{t-1} are fixed,
    a row zero at t prunes the prefix when its need exceeds the most that
    coordinates t+1.. can add, and every other row bounds x_t."""
    n = len(lows)
    tails = [[0] * len(rows)]
    for t in range(n - 1, 0, -1):
        tails.insert(0, [tail + max(row[t] * lows[t], row[t] * highs[t])
                         for tail, row in zip(tails[0], rows)])
    points = []

    def scan(t, prefix, needs):
        lo, hi = lows[t], highs[t]
        for row, need, tail in zip(rows, needs, tails[t]):
            a = row[t]
            if not a:
                if need > tail:
                    return
            elif a > 0:
                lo = max(lo, -(-(need - tail) // a))
            else:
                hi = min(hi, (need - tail) // a)
        for x in range(lo, hi + 1):
            if t == n - 1:
                points.append(prefix + (x,))
            else:
                scan(t + 1, prefix + (x,), [need - row[t] * x for row, need in zip(rows, needs)])

    scan(0, (), list(rhs))
    return points


def sumset_charges(s, m_max):
    """The pair count that the normality probe charges before forming each
    m-fold sumset, m = 2.. up to m_max or the first m whose sumset misses
    a point of m*s: the running sum of |(m-1)-fold sumset| * |L(1)|, the
    sumsets formed pair by ordered pair."""
    base = dilate_points(s, 1)
    reachable = set(base)
    charges = []
    pairs = 0
    for m in range(2, m_max + 1):
        pairs += len(reachable) * len(base)
        charges.append((m, pairs))
        reachable = {tuple(a + b for a, b in zip(p, q)) for p in reachable for q in base}
        if len(reachable) != len(dilate_points(s, m)):
            break
    return charges


def normality_by_sets(s, m_max=2, budget=None):
    """The normality probe by comparing sets of point tuples: every
    dilate's box is charged up front, then each m*s is listed by the box
    scan and held against the m-fold sumset of L(1), formed pair by pair."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    for m in range(1, m_max + 1):
        _charge_box(*_dilate_box(s, m), budget)
    base = dilate_points(s, 1, budget=budget)
    reachable = set(base)
    results = [True]
    counterexample = None
    for m in range(2, m_max + 1):
        reachable = {
            tuple(a + b for a, b in zip(p, q)) for p in reachable for q in base
        }
        target = set(dilate_points(s, m, budget=budget))
        if not reachable <= target:
            raise ArithmeticError("sumset escaped the dilate; vertices corrupt")
        missing = target - reachable
        results.append(not missing)
        if missing:
            counterexample = (m, min(missing))
            break
    normal_up_to = 0
    for ok in results:
        if not ok:
            break
        normal_up_to += 1
    return NormalityReport(m_max, tuple(results), normal_up_to, counterexample)


def transform_by_tuples(cone, budget=None):
    """The cone's transform with the numerator sorted as tuples: the walk
    lists the points in digit order, one tuple each, and the transform's
    constructor sorts them."""
    points = chain.from_iterable(zip(*lam) for _, lam in walk_columns(cone, budget))
    return IntegerPointTransform(points, cone.rays())


def walk_columns(cone, budget=None):
    """The blocks of `_lex_walk` as (digit columns, point columns), read
    by `_unpack`; the walk's checks run before this returns."""
    blocks, lo = _lex_walk(cone, budget)
    n = cone.dimension
    return ((cols[:n], cols[n:]) for cols in (_unpack(fields, lo) for fields in blocks))


def sorted_columns(cone, budget=None):
    """The blocks of `_sorted_points` as point columns, read by `_unpack`."""
    blocks, lo = _sorted_points(cone, budget)
    return (_unpack(fields, lo) for fields in blocks)


def normalized_volume(s):
    """dimension! times the euclidean volume of the simplex s."""
    return abs(determinant(s.edge_matrix()))


def facets_by_adjugate(s, t, strict):
    """(rows, rhs) with t*s = {x : row.x >= rhs} (its interior with strict
    1), from the adjugate of the edge matrix E, whatever s is: with
    M = d * E^-1, x lies in t*s iff M(x - t*v0) >= 0 and
    (1^T M)(x - t*v0) <= t*d."""
    d, m = adjugate_pair(s.edge_matrix())
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows.append([-sum(col) for col in zip(*rows)])
    v0 = s.vertices[0]
    rhs = [t * sum(a * b for a, b in zip(row, v0)) + strict for row in rows]
    rhs[-1] -= t * d
    return rows, rhs


def gauss_jordan(rows, rhs):
    """(det m, m^-1 * B) for the square integer rows of m and the rows of
    B, by Gauss-Jordan over `Fraction` with the first nonzero pivot of
    each column and a sign flip per row swap; (0, None) for a singular m."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(x) for x in b] for r, b in zip(rows, rhs)]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            f = a[i][k]
            if i != k and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det), [r[n:] for r in a]


def _is_decimal(text):
    """Whether `text` matches -?[0-9]+ in ASCII."""
    return (isinstance(text, str) and text.isascii()
            and text.removeprefix("-").isdigit())


def read_graph(text):
    """The edge-list reader as it was before it split each line only once:
    each line of `str.splitlines` loses its comment and outer blanks, and
    each token goes through `_is_decimal`."""
    count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if count is None:
            if len(tokens) != 1:
                raise GraphError(
                    f"line {lineno}: expected a single vertex count, got {line!r}"
                )
            if not _is_decimal(tokens[0]):
                raise GraphError(
                    f"line {lineno}: vertex count {tokens[0]!r} is not an integer"
                )
            count = int(tokens[0])
            continue
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = tokens
        if not (_is_decimal(u) and _is_decimal(v)):
            raise GraphError(f"line {lineno}: non-integer vertex label in {line!r}")
        edges.append((int(u), int(v)))
    if count is None:
        raise GraphError("empty graph input")
    g = Graph(count, edges)
    if not g.is_connected():
        raise GraphError("graph is not connected")
    return g


def matrix_fault(rows):
    """(type, message) of the error that `IntegerMatrix(rows)` must raise,
    or None, by the row-by-row walk it once made (with bools refused):
    each row in turn is read into a tuple, then its first entry that is
    not an int or is a bool is a TypeError, then a length unlike the first
    row's a ValueError; an empty matrix is a ValueError last."""
    width = None
    try:
        for row in rows:
            r = tuple(row)
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"integer matrix entry {x!r} is not an int")
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("matrix rows have unequal lengths")
        if not width:
            raise ValueError("matrix must have at least one row and one column")
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def block_reduction_by_search(t, v):
    """The tree split at its internal vertex v as it once was: one search of
    the tree minus v from each neighbour of v, in label order, each branch
    re-attached to v as its last local label."""
    adj = t.adjacency()
    problems = []
    for start in sorted(adj[v]):
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w != v and w not in component:
                    component.add(w)
                    queue.append(w)
        ordered = sorted(component)
        local = {orig: k for k, orig in enumerate(ordered)}
        local[v] = len(ordered)
        edges = [
            (min(local[a], local[b]), max(local[a], local[b]))
            for a, b in t.edges
            if a in local and b in local
        ]
        subtree = Graph(len(ordered) + 1, edges)
        problems.append(
            BlockProblem(subtree, len(ordered), tuple(ordered) + (v,))
        )
    return problems
