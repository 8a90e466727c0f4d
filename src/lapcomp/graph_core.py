"""Graph families and their Laplacian-derived matrices.

Vertices are always labeled 0..vertex_count-1.  Every edge carries a fixed
orientation (tail, head); builders orient edges from the smaller label to the
larger one.  The Laplacian and its minors do not depend on orientation, the
signed incidence matrix does.

`laplacian_minor` fills its matrix straight from the edges.  `parse_graph`
splits each line once; only labels not in ASCII digits reach `_is_decimal`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exact_linalg import IntegerMatrix, _is_int

__all__ = [
    "MAX_VERTICES",
    "GraphError",
    "Graph",
    "LaplacianMinor",
    "build_family",
    "family_from_string",
    "path_graph",
    "cycle_graph",
    "leafed_cycle_graph",
    "kary_tree",
    "complete_graph",
    "laplacian",
    "laplacian_minor",
    "incidence_matrix",
    "incidence_subminor",
    "parse_graph",
]

# Beyond this size the lattice-point machinery is infeasible anyway.
MAX_VERTICES = 64


def _is_decimal(text) -> bool:
    """Whether `text` is the package's one spelling of an integer: a str
    matching -?[0-9]+, so "1_0", " 3", "+5" and non-ASCII digits are not."""
    return (isinstance(text, str) and text.isascii()
            and text.removeprefix("-").isdigit())


class GraphError(ValueError):
    """Invalid graph construction or graph text input."""


class Graph:
    """Simple undirected graph with a fixed per-edge orientation."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]]):
        if not _is_int(vertex_count):
            raise GraphError(f"vertex count {vertex_count!r} is not an int")
        if vertex_count < 1:
            raise GraphError("graph needs at least one vertex")
        if vertex_count > MAX_VERTICES:
            raise GraphError(
                f"graph has {vertex_count} vertices; limit is {MAX_VERTICES}"
            )
        oriented = []
        seen = set()
        for edge in edges:
            u, v = edge
            if not (type(u) is type(v) is int or _is_int(u) and _is_int(v)):
                raise GraphError(f"edge ({u!r}, {v!r}) has a label that is not an int")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u}, {v}) has an out-of-range label")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            key = frozenset((u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            oriented.append((u, v))
        self.vertex_count = vertex_count
        self.edges = tuple(oriented)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degree(self, v: int) -> int:
        return sum(v in e for e in self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def is_tree(self) -> bool:
        return self.edge_count == self.vertex_count - 1 and self.is_connected()

    def leaves(self) -> list[int]:
        return [v for v, d in enumerate(self.degrees()) if d == 1]

    def __eq__(self, other):
        if isinstance(other, Graph):
            return (
                self.vertex_count == other.vertex_count
                and set(map(frozenset, self.edges))
                == set(map(frozenset, other.edges))
            )
        return NotImplemented

    def __hash__(self):
        return hash(
            (self.vertex_count, frozenset(map(frozenset, self.edges)))
        )

    def __repr__(self):
        return f"Graph({self.vertex_count}, {list(self.edges)})"


class LaplacianMinor:
    """Laplacian with one row and column deleted, plus its provenance.

    `vertices` lists the surviving vertex labels in increasing order;
    row/column k of `matrix` corresponds to vertices[k].
    """

    __slots__ = ("matrix", "source_graph", "minored_vertex", "vertices")

    def __init__(self, matrix: IntegerMatrix, source_graph: Graph,
                 minored_vertex: int, vertices: tuple[int, ...]):
        self.matrix = matrix
        self.source_graph = source_graph
        self.minored_vertex = minored_vertex
        self.vertices = vertices

    def __repr__(self):
        return (
            f"LaplacianMinor(vertex={self.minored_vertex}, "
            f"size={self.matrix.rows})"
        )


def path_graph(n: int) -> Graph:
    """Path on n vertices, 0 - 1 - ... - (n-1)."""
    if n < 2:
        raise GraphError("path needs n >= 2")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices, 0 - 1 - ... - (n-1) - 0."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def leafed_cycle_graph(n: int) -> Graph:
    """n-cycle on 0..n-1 with a pendant leaf, labeled n, attached at 0."""
    if n < 3:
        raise GraphError("leafed cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (0, n)]
    return Graph(n + 1, edges)


def kary_tree(k: int, levels: int) -> Graph:
    """Complete k-ary tree with the given number of levels, plus a pendant
    leaf (vertex 0) attached to the root (vertex 1).

    Level j (1-based, the root is level 1) holds k**(j-1) vertices, labeled
    breadth-first.
    """
    if k < 1 or levels < 1:
        raise GraphError("k-ary tree needs k >= 1 and levels >= 1")
    edges = [(0, 1)]
    next_label = 2
    frontier = [1]
    for _ in range(levels - 1):
        new_frontier = []
        for parent in frontier:
            for _ in range(k):
                edges.append((parent, next_label))
                new_frontier.append(next_label)
                next_label += 1
        frontier = new_frontier
    return Graph(next_label, edges)


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "leafed_cycle": (leafed_cycle_graph, 1),
    "kary": (kary_tree, 2),
    "complete": (complete_graph, 1),
}


def build_family(kind: str, *params: int) -> Graph:
    """Construct a built-in family: path n, cycle n, leafed_cycle n,
    kary k levels, or complete n."""
    try:
        builder, arity = _FAMILIES[kind]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise GraphError(f"unknown family {kind!r} (known: {known})") from None
    if len(params) != arity:
        raise GraphError(
            f"family {kind!r} takes {arity} parameter(s), got {len(params)}"
        )
    return builder(*params)


def family_from_string(spec: str) -> Graph:
    """Parse a 'name:p1[,p2]' family description, e.g. 'leafed_cycle:5'."""
    name, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise GraphError(f"family spec {spec!r} must look like 'name:params'")
    params = rest.split(",")
    if not all(map(_is_decimal, params)):
        raise GraphError(f"non-integer parameter in family spec {spec!r}")
    return build_family(name, *map(int, params))


def laplacian(g: Graph) -> IntegerMatrix:
    """Laplacian D - A; symmetric with zero row sums."""
    n = g.vertex_count
    m = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        m[u][u] += 1
        m[v][v] += 1
        m[u][v] -= 1
        m[v][u] -= 1
    return IntegerMatrix(m)


def laplacian_minor(g: Graph, i: int) -> LaplacianMinor:
    """Laplacian with row and column i deleted."""
    if not 0 <= i < g.vertex_count:
        raise GraphError(f"vertex {i} out of range")
    if g.vertex_count < 2:
        raise GraphError("graph too small to take a Laplacian minor")
    n = g.vertex_count
    keep = (*range(i), *range(i + 1, n))
    m = [[0] * (n - 1) for _ in keep]
    for u, v in g.edges:
        a, b = u - (u > i), v - (v > i)
        if u != i:
            m[a][a] += 1
        if v != i:
            m[b][b] += 1
            if u != i:
                m[a][b] = m[b][a] = -1
    return LaplacianMinor(IntegerMatrix(m), g, i, keep)


def incidence_matrix(g: Graph) -> IntegerMatrix:
    """Signed vertex-edge incidence matrix: +1 at the tail of each edge,
    -1 at the head.  Satisfies (incidence) @ (incidence)^T = laplacian."""
    m = [[0] * g.edge_count for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        m[u][e] = 1
        m[v][e] = -1
    return IntegerMatrix(m)


def incidence_subminor(g: Graph, i: int) -> IntegerMatrix:
    """Incidence matrix with row i deleted; square when g is a tree."""
    if not 0 <= i < g.vertex_count:
        raise GraphError(f"vertex {i} out of range")
    full = incidence_matrix(g)
    return IntegerMatrix(
        [full.row(r) for r in range(g.vertex_count) if r != i]
    )


def parse_graph(text: str) -> Graph:
    """Parse the edge-list text format.

    The first significant line is the vertex count; each following line is
    an edge 'u v' with 0-based labels.  '#' starts a comment, blank lines
    are skipped, and a graph that is not connected is refused.
    """
    count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if count is None:
            if len(tokens) != 1:
                raise GraphError(f"line {lineno}: expected a single vertex count, "
                                 f"got {line.strip()!r}")
            if not _is_decimal(tokens[0]):
                raise GraphError(
                    f"line {lineno}: vertex count {tokens[0]!r} is not an integer"
                )
            count = int(tokens[0])
            continue
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
        u, v = tokens
        # A sign or any character but an ASCII digit needs `_is_decimal`.
        uv = u + v
        if not (uv.isdigit() and uv.isascii() or _is_decimal(u) and _is_decimal(v)):
            raise GraphError(f"line {lineno}: non-integer vertex label in {line.strip()!r}")
        edges.append((int(u), int(v)))
    if count is None:
        raise GraphError("empty graph input")
    g = Graph(count, edges)
    if not g.is_connected():
        raise GraphError("graph is not connected")
    return g
