"""Graph families and their Laplacian-derived matrices.

Vertices are always labeled 0..vertex_count-1.  Every edge carries a fixed
orientation (tail, head); builders orient edges from the smaller label to the
larger one.  The Laplacian and its minors do not depend on orientation, the
signed incidence matrix does.

`laplacian_minor` fills its matrix straight from the edges.  `parse_graph`
splits each line once; only labels not in ASCII digits reach `_is_decimal`.
`_breadth_first` is the one walk of a graph's edges: a graph is connected
when the search from 0 reaches every vertex, and trees are rooted by it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .exact_linalg import IntegerMatrix, _IntRows, _is_int

__all__ = [
    "MAX_VERTICES",
    "GraphError",
    "Graph",
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
# Python's int and str convert at most this many digits by default.  A
# refused vertex count is written out only below 10**4300, so with at most
# that many digits; a larger one is named by this bound, so no refusal
# formats a huge count.  No text of more digits is read as an integer.
_MAX_DIGITS = 4300
_UNWRITTEN = 10**_MAX_DIGITS


def _is_decimal(text) -> bool:
    """Whether `text` is the package's one spelling of an integer: a str
    matching -?[0-9]{1,4300}, so "1_0", " 3", "+5", non-ASCII digits and
    more digits than int() reads by default are not."""
    if not isinstance(text, str):
        return False
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit() and len(digits) <= _MAX_DIGITS


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
            count = vertex_count if vertex_count < _UNWRITTEN else "at least 10**4300"
            raise GraphError(f"graph has {count} vertices; limit is {MAX_VERTICES}")
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

    def degrees(self) -> list[int]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def is_connected(self) -> bool:
        return len(_breadth_first(self, 0)[0]) == self.vertex_count

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


def _breadth_first(g: Graph, root: int) -> tuple[list[int], list[int], list[int]]:
    """The package's one graph search, from `root`: the vertices in the
    order reached, then each vertex's parent and depth (-1 for the root's
    parent and for every vertex not reached)."""
    adj = g.adjacency()
    parent = [-1] * g.vertex_count
    depth = [-1] * g.vertex_count
    depth[root] = 0
    order = [root]
    for u in order:
        for w in adj[u]:
            if depth[w] < 0:
                parent[w] = u
                depth[w] = depth[u] + 1
                order.append(w)
    return order, parent, depth


def _path_edges(n: int, *extra: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """The path 0 - 1 - ... - (n-1), then `extra`, one edge at a time, so
    `Graph` refuses a vertex count before any edge is made."""
    yield from ((i, i + 1) for i in range(n - 1))
    yield from extra


def path_graph(n: int) -> Graph:
    """Path on n vertices, 0 - 1 - ... - (n-1)."""
    if n < 2:
        raise GraphError("path needs n >= 2")
    return Graph(n, _path_edges(n))


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices, 0 - 1 - ... - (n-1) - 0."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, _path_edges(n, (0, n - 1)))


def leafed_cycle_graph(n: int) -> Graph:
    """n-cycle on 0..n-1 with a pendant leaf, labeled n, attached at 0."""
    if n < 3:
        raise GraphError("leafed cycle needs n >= 3")
    return Graph(n + 1, _path_edges(n, (0, n - 1), (0, n)))


def kary_tree(k: int, levels: int) -> Graph:
    """Complete k-ary tree with the given number of levels, plus a pendant
    leaf (vertex 0) attached to the root (vertex 1).

    Level j (1-based, the root is level 1) holds k**(j-1) vertices, labeled
    breadth-first, so the parent of each vertex c >= 1 is 1 + (c - 2) // k.
    The vertex count 1 + (k**levels - 1) / (k - 1) exceeds k**(levels-1),
    so once that power has more bits than `_UNWRITTEN` the count is refused
    as that bound, without forming k**levels.
    """
    if k < 1 or levels < 1:
        raise GraphError("k-ary tree needs k >= 1 and levels >= 1")
    if (levels - 1) * (k.bit_length() - 1) >= _UNWRITTEN.bit_length():
        count = _UNWRITTEN
    else:
        count = 1 + (levels if k == 1 else (k**levels - 1) // (k - 1))
    return Graph(count, ((1 + (c - 2) // k, c) for c in range(1, count)))


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


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
    return IntegerMatrix(_IntRows(m))


def laplacian_minor(g: Graph, i: int) -> IntegerMatrix:
    """Laplacian with row and column i deleted: row and column k are those
    of vertex k, or k + 1 from i on."""
    if not 0 <= i < g.vertex_count:
        raise GraphError(f"vertex {i} out of range")
    if g.vertex_count < 2:
        raise GraphError("graph too small to take a Laplacian minor")
    n = g.vertex_count
    m = [[0] * (n - 1) for _ in range(n - 1)]
    for u, v in g.edges:
        a, b = u - (u > i), v - (v > i)
        if u != i:
            m[a][a] += 1
        if v != i:
            m[b][b] += 1
            if u != i:
                m[a][b] = m[b][a] = -1
    return IntegerMatrix(_IntRows(m))


def incidence_matrix(g: Graph) -> IntegerMatrix:
    """Signed vertex-edge incidence matrix: +1 at the tail of each edge,
    -1 at the head.  Satisfies (incidence) @ (incidence)^T = laplacian."""
    m = [[0] * g.edge_count for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        m[u][e] = 1
        m[v][e] = -1
    return IntegerMatrix(_IntRows(m))


def incidence_subminor(g: Graph, i: int) -> IntegerMatrix:
    """Incidence matrix with row i deleted; square when g is a tree."""
    if not 0 <= i < g.vertex_count:
        raise GraphError(f"vertex {i} out of range")
    full = incidence_matrix(g)
    return IntegerMatrix(_IntRows(
        [full.row(r) for r in range(g.vertex_count) if r != i]
    ))


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
        # A sign, any character but an ASCII digit, or a long label needs
        # `_is_decimal`.
        uv = u + v
        if not (uv.isdigit() and uv.isascii() and len(uv) <= _MAX_DIGITS
                or _is_decimal(u) and _is_decimal(v)):
            raise GraphError(f"line {lineno}: non-integer vertex label in {line.strip()!r}")
        edges.append((int(u), int(v)))
    if count is None:
        raise GraphError("empty graph input")
    g = Graph(count, edges)
    if not g.is_connected():
        raise GraphError("graph is not connected")
    return g
