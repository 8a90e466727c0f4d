"""Combinatorial inverses and generating functions for tree Laplacian minors.

For a tree minored at a leaf the determinant is 1, so the minor's inverse is
an integer matrix with a clean description: entry (i, j) is the distance
from the chosen leaf to the path connecting i and j, i.e. the depth of their
meet when the tree is rooted at that leaf.  Column sums of this inverse give
the exponents of the product-of-geometric-series generating function, and
for complete k-ary trees those exponents have a closed form.

Each function searches its tree once, from the leaf or from the vertex it
splits at: that search checks the tree and the vertex, and its parents and
depths give the inverses and the branches of a block split.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

from .cone_engine import UnivariateRationalGF
from .exact_linalg import IntegerMatrix, _IntRows, adjugate_pair
from .graph_core import (
    Graph, GraphError, _breadth_first, incidence_subminor, laplacian_minor,
)

__all__ = [
    "TreeInverse",
    "BlockProblem",
    "tree_inverse_combinatorial",
    "incidence_inverse",
    "block_reduction",
    "block_reduction_inverse",
    "tree_gf_exponents",
    "tree_gf",
    "q_integer",
    "kary_exponent",
    "kary_gf",
    "tree_from_pruefer",
    "random_tree",
    "verify_tree_identities",
]


class TreeInverse:
    """Inverse of a tree's Laplacian minor at a leaf, with its provenance.

    Row/column k of `matrix` corresponds to vertices[k] (the non-leaf
    vertices in increasing label order).
    """

    __slots__ = ("matrix", "tree", "leaf", "vertices")

    def __init__(self, matrix: IntegerMatrix, tree: Graph, leaf: int,
                 vertices: tuple[int, ...]):
        self.matrix = matrix
        self.tree = tree
        self.leaf = leaf
        self.vertices = vertices


class BlockProblem(NamedTuple):
    """One subtree produced by splitting at an internal vertex.

    `vertex_map[local]` is the original label; the re-attached split vertex
    is always the last local label and acts as the subproblem's leaf.
    """

    subtree: Graph
    leaf: int
    vertex_map: tuple[int, ...]


def _rooted(t: Graph, root: int, internal: bool = False) -> tuple[list, ...]:
    """One search of the tree `t` from `root`: the order, parents and depths.

    Raises, in this order, unless `t` is a tree (n - 1 edges, every vertex
    reached from `root`, or from 0 when `root` is out of range), `root` is in
    range, and `root` has one child (more than one with `internal`)."""
    n = t.vertex_count
    order, parent, depth = _breadth_first(t, root if root in range(n) else 0)
    if t.edge_count != n - 1 or len(order) < n:
        raise GraphError("graph is not a tree")
    if not 0 <= root < n:
        raise GraphError(f"vertex {root} out of range")
    children = parent.count(root)
    if internal and children <= 1:
        raise GraphError(f"vertex {root} is a leaf; nothing to reduce")
    if not internal and children != 1:
        raise GraphError(f"vertex {root} is not a leaf")
    return order, parent, depth


def _meet_depth(i: int, j: int, parent: list[int], depth: list[int]) -> int:
    """Depth of the deepest common ancestor of i and j."""
    while i != j:
        if depth[i] < depth[j]:
            j = parent[j]
        else:
            i = parent[i]
    return depth[i]


def tree_inverse_combinatorial(t: Graph, leaf: int) -> TreeInverse:
    """Inverse of the Laplacian minor at `leaf`, computed from distances.

    Entry (i, j) = depth of the meet of i and j under rooting at the leaf;
    in particular the diagonal entry (i, i) is the distance from the leaf
    to i.
    """
    _, parent, depth = _rooted(t, leaf)
    vertices = tuple(v for v in range(t.vertex_count) if v != leaf)
    m = [
        [_meet_depth(i, j, parent, depth) for j in vertices]
        for i in vertices
    ]
    return TreeInverse(IntegerMatrix(_IntRows(m)), t, leaf, vertices)


def incidence_inverse(t: Graph, leaf: int) -> IntegerMatrix:
    """Inverse G of the incidence subminor at `leaf` (rows: edges, columns:
    non-leaf vertices).

    G[e, j] is +1 if edge e lies on the path from j to the leaf and is
    traversed tail-to-head on the way, -1 if traversed head-to-tail, and 0
    if the path avoids e.  Satisfies G @ incidence_subminor(t, leaf) = I.
    """
    _, parent, _ = _rooted(t, leaf)
    edge_index = {frozenset(e): k for k, e in enumerate(t.edges)}
    vertices = [v for v in range(t.vertex_count) if v != leaf]
    m = [[0] * len(vertices) for _ in range(t.edge_count)]
    for col, j in enumerate(vertices):
        u = j
        while u != leaf:
            p = parent[u]
            e = edge_index[frozenset((u, p))]
            m[e][col] = 1 if t.edges[e] == (u, p) else -1
            u = p
    return IntegerMatrix(_IntRows(m))


def block_reduction(t: Graph, v: int) -> list[BlockProblem]:
    """Split the minor at an internal vertex into independent leaf problems.

    Removing v leaves one component per neighbor subtree; re-attaching v to
    each component makes it a leaf there, and the minor's inverse is the
    block-diagonal assembly of the subproblem inverses.
    """
    n = t.vertex_count
    order, parent, depth = _rooted(t, v, internal=True)
    # A vertex's branch is its ancestor at depth 1; parents are reached first.
    branch = [v] * n
    for u in order[1:]:
        branch[u] = u if depth[u] == 1 else branch[parent[u]]
    problems = []
    for start in (u for u in range(n) if depth[u] == 1):
        ordered = [u for u in range(n) if branch[u] == start] + [v]
        local = {orig: k for k, orig in enumerate(ordered)}
        edges = [
            (min(local[a], local[b]), max(local[a], local[b]))
            for a, b in t.edges
            if a in local and b in local
        ]
        subtree = Graph(len(ordered), edges)
        problems.append(BlockProblem(subtree, local[v], tuple(ordered)))
    return problems


def block_reduction_inverse(t: Graph, v: int) -> IntegerMatrix:
    """Assemble the minor inverse at v from its block subproblems."""
    kept = [u for u in range(t.vertex_count) if u != v]
    pos = {u: k for k, u in enumerate(kept)}
    m = [[0] * len(kept) for _ in kept]
    for subtree, leaf, vertex_map in block_reduction(t, v):
        inv = tree_inverse_combinatorial(subtree, leaf)
        for a, orig_a in enumerate(vertex_map[:-1]):
            row = inv.matrix.row(a)
            for b, orig_b in enumerate(vertex_map[:-1]):
                m[pos[orig_a]][pos[orig_b]] = row[b]
    return IntegerMatrix(_IntRows(m))


def tree_gf_exponents(t: Graph, leaf: int) -> tuple[int, ...]:
    """Column sums of the combinatorial inverse, in vertex order."""
    inv = tree_inverse_combinatorial(t, leaf)
    return tuple(sum(inv.matrix.column(j)) for j in range(inv.matrix.cols))


def tree_gf(t: Graph, leaf: int) -> UnivariateRationalGF:
    """1 / prod_i (1 - q^{b_i}) with b_i the exponents above."""
    return UnivariateRationalGF([1], ((b, 1) for b in tree_gf_exponents(t, leaf)))


def q_integer(n: int, q: int) -> int:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1) at an integer q."""
    if n < 0:
        raise ValueError("q-integer needs n >= 0")
    return sum(q**i for i in range(n))


def kary_exponent(k: int, n: int, j: int) -> int:
    """Generating-function exponent for level j of a k-ary tree with n
    levels; it occurs with multiplicity k**(j-1)."""
    if k < 1 or n < 1:
        raise ValueError("k-ary exponents need k >= 1 and n >= 1")
    if not 1 <= j <= n:
        raise ValueError(f"level {j} out of range 1..{n}")
    e = j * q_integer(n - j + 1, k)
    for i in range(1, j):
        e += (j - i) * k ** (n - (j - i))
    return e


def kary_gf(k: int, n: int) -> UnivariateRationalGF:
    """Closed-form generating function of the k-ary tree with n levels."""
    return UnivariateRationalGF(
        [1], ((kary_exponent(k, n, j), k ** (j - 1)) for j in range(1, n + 1)))


def tree_from_pruefer(seq: Sequence[int]) -> Graph:
    """Decode a Prüfer sequence into its labeled tree on len(seq)+2
    vertices."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} out of range for {n} vertices")
        degree[x] += 1
    heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    u, v = heapq.heappop(heap), heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_tree(vertex_count: int, rng) -> Graph:
    """A uniformly random labeled tree, drawn through a Prüfer sequence.

    `rng` is anything with randrange, e.g. a seeded random.Random.
    """
    if vertex_count < 2:
        raise ValueError("a tree needs at least 2 vertices")
    return tree_from_pruefer(
        [rng.randrange(vertex_count) for _ in range(vertex_count - 2)]
    )


def verify_tree_identities(t: Graph, leaf: int) -> list[str]:
    """Cross-check the minor-inverse identities on one tree.

    An empty return means: every minor determinant is 1, the distance
    formula matches the algebraic inverse, G inverts the incidence
    subminor with Gram matrix equal to the minor inverse, and each
    internal-vertex block assembly matches the direct inverse there.
    Anything that fails contributes one description.
    """
    failures = []
    d, inverse = adjugate_pair(laplacian_minor(t, leaf))
    if d != 1:
        failures.append(f"minor determinant at leaf {leaf} is not 1")
    comb = tree_inverse_combinatorial(t, leaf).matrix
    if (1, comb) != (d, inverse):
        failures.append("distance formula disagrees with the algebraic inverse")
    g = incidence_inverse(t, leaf)
    if g @ incidence_subminor(t, leaf) != IntegerMatrix.identity(t.vertex_count - 1):
        failures.append("incidence inverse does not invert the subminor")
    if g.transpose() @ g != comb:
        failures.append("incidence Gram matrix is not the minor inverse")
    for v, degree in enumerate(t.degrees()):
        if degree > 1:
            d, inverse = adjugate_pair(laplacian_minor(t, v))
            if d != 1:
                failures.append(f"minor determinant at vertex {v} is not 1")
            if (1, block_reduction_inverse(t, v)) != (d, inverse):
                failures.append(
                    f"block assembly at vertex {v} disagrees with the "
                    "direct inverse"
                )
    return failures
