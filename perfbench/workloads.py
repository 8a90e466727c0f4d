"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of query *slots*.  A slot fixes what the
query costs (command, graph size, spanning-tree count, family parameter);
the seed fills in everything that does not change the cost: which graph,
its labelling, the minor vertex, the specialization and the query order.
That keeps the work of a pass nearly the same from seed to seed, so runs
with different seeds can be compared.

This module is independent of ``lapcomp``: it has its own determinant and
graph code, so generating inputs does not run the program under test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("cone_series", "cone_listing", "big_graphs", "leafed_cycles")


@dataclass(frozen=True)
class Query:
    """One ``lapcomp`` invocation and what its checker needs to know."""

    kind: str
    argv: tuple[str, ...]
    expect: dict


# --- exact integer helpers (independent of lapcomp) -------------------------

def bareiss_det(rows) -> int:
    """Determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def laplacian(vertex_count: int, edges) -> list[list[int]]:
    lap = [[0] * vertex_count for _ in range(vertex_count)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return lap


def minor(lap, vertex: int) -> list[list[int]]:
    keep = [i for i in range(len(lap)) if i != vertex]
    return [[lap[r][c] for c in keep] for r in keep]


def tree_count(vertex_count: int, edges, vertex: int = 0) -> int:
    """Spanning trees, as the determinant of the minor at `vertex`."""
    return bareiss_det(minor(laplacian(vertex_count, edges), vertex))


def connected(vertex_count: int, edges, removed: int | None = None) -> bool:
    adj = [[] for _ in range(vertex_count)]
    for u, v in edges:
        if removed not in (u, v):
            adj[u].append(v)
            adj[v].append(u)
    start = 0 if removed != 0 else 1
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertex_count - (removed is not None)


# --- random graphs -----------------------------------------------------------

def random_tree(rng: random.Random, vertex_count: int) -> list[tuple[int, int]]:
    """Uniform labelled tree, decoded from a random Pruefer sequence."""
    if vertex_count == 2:
        return [(0, 1)]
    seq = [rng.randrange(vertex_count) for _ in range(vertex_count - 2)]
    degree = [1] * vertex_count
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(vertex_count) if degree[i] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (i for i in range(vertex_count) if degree[i] == 1)
    edges.append((u, v))
    return sorted(edges)


def random_connected(rng: random.Random, vertex_count: int,
                     extra: int) -> list[tuple[int, int]]:
    """A random spanning tree plus `extra` random further edges."""
    edges = set(random_tree(rng, vertex_count))
    free = [(a, b) for a in range(vertex_count) for b in range(a + 1, vertex_count)
            if (a, b) not in edges]
    edges.update(rng.sample(free, min(extra, len(free))))
    return sorted(edges)


def graph_with_tree_count(rng: random.Random, vertex_count: int, extra: int,
                          target: int) -> list[tuple[int, int]]:
    """Rejection-sample a connected graph with exactly `target` spanning trees."""
    for _ in range(200_000):
        edges = random_connected(rng, vertex_count, extra)
        if tree_count(vertex_count, edges) == target:
            return edges
    raise RuntimeError(
        f"no {vertex_count}-vertex graph with {extra} extra edges and "
        f"{target} spanning trees found"
    )


def bfs_labelled(rng: random.Random, edges, root: int) -> list[tuple[int, int]]:
    """Relabel a connected graph in breadth-first order from `root` (label 0).

    The children of a vertex get their labels in random order.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    order, label = [root], {root: 0}
    for x in order:
        children = [y for y in sorted(adj[x]) if y not in label]
        rng.shuffle(children)
        for y in children:
            label[y] = len(order)
            order.append(y)
    return sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)


def write_graph(path: str, vertex_count: int, edges) -> None:
    with open(path, "w") as fh:
        fh.write(f"{vertex_count}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


# --- workload definitions ----------------------------------------------------
#
# Cone slots are (vertex count, extra edges over a tree, spanning-tree
# count d, copies).  The parallelepiped holds d**(V-2) points, which sets
# the cost of a query; every (V, extra, d) listed is reached by at least 1%
# of random graphs of that shape, so rejection sampling stays cheap.  The
# copies of a slot alternate between the workload's two commands.
#
# Each list has about 78 light queries, a plateau of about 20 queries of
# nearly equal cost, and one or two heavy ones.  The median falls among
# several copies of one light slot and p90 inside the plateau, so neither
# percentile hangs on a single graph.

_CONE_SERIES_SLOTS = [
    # 78 queries of 500 to 4100 points
    (5, 2, 8, 8), (6, 1, 5, 8), (8, 1, 3, 8), (7, 1, 4, 8), (6, 1, 6, 8),
    (5, 2, 11, 8), (5, 2, 12, 8), (9, 1, 3, 8), (7, 1, 5, 7), (5, 3, 16, 7),
    # plateau: 20 queries of 6500 to 9300 points
    (5, 3, 20, 7), (6, 2, 9, 7), (5, 3, 21, 6),
    # 32768 points each
    (7, 2, 8, 2),
]

_CONE_LISTING_SLOTS = [
    # 78 queries of 500 to 2200 points
    (5, 2, 8, 10), (6, 1, 5, 10), (8, 1, 3, 10), (7, 1, 4, 10),
    (6, 1, 6, 10), (5, 2, 11, 10), (5, 2, 12, 9), (9, 1, 3, 9),
    # plateau: 20 queries of 3100 to 4100 points
    (7, 1, 5, 10), (5, 3, 16, 5), (6, 2, 8, 5),
    # 6561 and 8000 points
    (6, 2, 9, 1), (5, 3, 20, 1),
]

_CONE_SERIES_TINY = [(5, 2, 8, 2), (6, 1, 5, 2), (9, 1, 3, 1)]
_CONE_LISTING_TINY = [(5, 2, 8, 2), (6, 1, 5, 1), (7, 1, 4, 1)]


def _cone_queries(rng, workdir, slots, commands):
    queries = []
    for vertex_count, extra, d, copies in slots:
        for copy in range(copies):
            edges = graph_with_tree_count(rng, vertex_count, extra, d)
            # The minor vertex must leave G - v connected, so that the ray
            # matrix is positive and both specializations are defined.
            candidates = [v for v in range(vertex_count)
                          if connected(vertex_count, edges, removed=v)]
            queries.append((vertex_count, edges, d, rng.choice(candidates),
                            commands[copy % 2]))
    rng.shuffle(queries)
    out = []
    for i, (vertex_count, edges, d, v, command) in enumerate(queries):
        path = os.path.join(workdir, f"g{i:03d}.txt")
        write_graph(path, vertex_count, edges)
        expect = {"vertex_count": vertex_count, "edges": edges, "d": d,
                  "minor": v}
        if command in ("total", "first"):
            argv = ("gf", "--file", path, "--minor", str(v), "--spec", command)
            out.append(Query(f"gf_{command}", argv, expect))
        else:
            argv = (command, "--file", path, "--minor", str(v), "--json")
            out.append(Query(f"{command}_json", argv, expect))
    return out


def _cone_series(rng, workdir, tiny):
    slots = _CONE_SERIES_TINY if tiny else _CONE_SERIES_SLOTS
    return _cone_queries(rng, workdir, slots, ("total", "first"))


def _cone_listing(rng, workdir, tiny):
    slots = _CONE_LISTING_TINY if tiny else _CONE_LISTING_SLOTS
    return _cone_queries(rng, workdir, slots, ("gf", "fpp"))


# big_graphs: (kind, size, extra edges, copies).  For trees and dense graphs
# the size is the vertex count; for tree_equivalence it is the largest
# allowed size of the one random tree the check builds.
#
# A tree is labelled in breadth-first order from the leaf whose minor the
# query takes (that leaf is vertex 0).  With random labels a tree query's
# cost moves by about 14% (coefficient of variation) with the tree's shape
# and labels; in breadth-first order by about 7%.  Each percentile sits in
# the middle of a block of one slot: 40 trees on 22 vertices hold the
# median and 22 trees on 28 vertices hold p90.  The light queries cost
# less than any tree of the median block, the refusals on 26 vertices lie
# between the two blocks.
_BIG_GRAPHS_SLOTS = [
    # 30 light queries
    ("tree_equivalence", 9, 0, 18), ("dense", 16, 5, 12),
    # median block
    ("tree", 22, 0, 40),
    ("dense", 26, 8, 8),
    # p90 block
    ("tree", 28, 0, 22),
]
_BIG_GRAPHS_TINY = [("tree", 12, 0, 2), ("dense", 10, 3, 2),
                    ("tree_equivalence", 6, 0, 2)]


def tree_equivalence_seed(rng: random.Random, largest: int) -> int:
    """A seed whose `check tree_equivalence SEED 1` tree has <= `largest` vertices.

    The check draws its tree size first, as ``Random(SEED).randint(2, 12)``,
    so the size is known without running the program.
    """
    while True:
        seed = rng.randrange(10**6)
        if random.Random(seed).randint(2, 12) <= largest:
            return seed


def _big_graphs(rng, workdir, tiny):
    plan = []
    for kind, size, extra, copies in (_BIG_GRAPHS_TINY if tiny else _BIG_GRAPHS_SLOTS):
        plan.extend([(kind, size, extra)] * copies)
    rng.shuffle(plan)
    out = []
    for i, (kind, size, extra) in enumerate(plan):
        if kind == "tree_equivalence":
            argv = ("check", "tree_equivalence",
                    str(tree_equivalence_seed(rng, size)), "1")
            out.append(Query(kind, argv, {"count": 1}))
            continue
        path = os.path.join(workdir, f"g{i:03d}.txt")
        if kind == "tree":
            edges = random_tree(rng, size)
            degree = [0] * size
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            leaves = [v for v in range(size) if degree[v] == 1]
            # The query's minor leaf becomes vertex 0.
            edges = bfs_labelled(rng, edges, rng.choice(leaves))
            write_graph(path, size, edges)
            argv = ("gf", "--file", path, "--minor", "0", "--spec", "total")
            out.append(Query("tree_gf", argv,
                             {"vertex_count": size, "edges": edges, "leaf": 0}))
        else:
            edges = random_connected(rng, size, extra)
            v = rng.randrange(size)
            # Any other minor gives the same tree count; use a different
            # vertex than the query's so the check takes another route.
            d = tree_count(size, edges, vertex=(v + 1) % size)
            write_graph(path, size, edges)
            argv = ("gf", "--file", path, "--minor", str(v))
            out.append(Query("dense_refusal", argv,
                             {"vertex_count": size, "d": d}))
    return out


# leafed_cycles: the box scan (ehrhart --normal-m 2) and the digit-sum DPs
# (ehrhart --normal-m 0, check reflexive, check cyclic, near_symmetry) each
# take between a third and two thirds of traced self time.  The cost of a
# query grows steeply with N and differs between odd and even N, so every
# slot whose cost matters has a fixed N; the seed draws N only where the
# choices cost about the same, and sets the order.  The 36 box scans at
# N = 5 form the plateau that holds p90; only the six DP-heavy queries
# (N = 9, 10 and 12) cost more.
_LEAFED_SLOTS = (
    [("ehrhart2", (5,), 36), ("ehrhart2", (3, 4), 6)]
    + [(kind, (n,), 1) for kind in ("ehrhart0", "reflexive") for n in (9, 10, 12)]
    + [("ehrhart0", (n,), 3) for n in (3, 4, 5, 6)]
    + [("reflexive", (n,), 3) for n in (3, 4, 5, 6, 8)]
    + [("cyclic", (n,), 2) for n in (10, 11, 12, 13, 14)]
    + [("cyclic", tuple(range(3, 10)), 30)]
    + [("near_symmetry", (2, 3), 12)]
)
_LEAFED_TINY = [("ehrhart2", (3, 4), 2), ("ehrhart0", (3, 5), 2),
                ("reflexive", (3, 4), 2), ("cyclic", (3, 5), 2),
                ("near_symmetry", (2,), 1)]


def _leafed_cycles(rng, workdir, tiny):
    plan = []
    for kind, choices, copies in (_LEAFED_TINY if tiny else _LEAFED_SLOTS):
        plan.extend((kind, rng.choice(choices)) for _ in range(copies))
    rng.shuffle(plan)
    out = []
    for kind, n in plan:
        if kind == "ehrhart2":
            argv = ("ehrhart", str(n), "--normal-m", "2")
        elif kind == "ehrhart0":
            argv = ("ehrhart", str(n), "--normal-m", "0")
        elif kind == "reflexive":
            argv = ("check", "reflexive", str(n))
        elif kind == "cyclic":
            argv = ("check", "cyclic", str(n), str(3 * n))
        else:
            argv = ("check", "near_symmetry", str(n))
        out.append(Query(kind, argv, {"n": n}))
    return out


_BUILDERS = {
    "cone_series": _cone_series,
    "cone_listing": _cone_listing,
    "big_graphs": _big_graphs,
    "leafed_cycles": _leafed_cycles,
}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Query]:
    """Write the workload's input files under `workdir` and return its queries."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir, tiny)
