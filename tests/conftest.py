import sys

from hypothesis import strategies as st

from lapcomp import Graph, IntegerMatrix, cone_engine


def scaled(m, k):
    """k times the matrix m."""
    return IntegerMatrix([[k * x for x in row] for row in m])


def random_connected_graph(data, max_vertices=6, min_extra=0, min_vertices=2):
    """Draw a connected graph: a random spanning tree plus extra edges, at
    least `min_extra` of them where the graph has room (each closes a
    cycle, so a positive `min_extra` biases the draw toward many cycles)."""
    n = data.draw(st.integers(min_vertices, max_vertices))
    edges = set()
    for v in range(1, n):
        u = data.draw(st.integers(0, v - 1))
        edges.add((u, v))
    non_tree = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    extra = data.draw(st.lists(st.sampled_from(non_tree), unique=True,
                               min_size=min(min_extra, len(non_tree)))) if non_tree else []
    return Graph(n, sorted(edges | set(extra)))


def record_routes(patch):
    """The names of the numerator routes of `specialized_gf` that run from
    now on, in order, each wrapped by `patch.setattr` (a monkeypatch or
    its context)."""
    taken = []
    for name in ("_product_numerator", "_numerator"):
        def route(*args, real=getattr(cone_engine, name), name=name):
            taken.append(name)
            return real(*args)
        patch.setattr(cone_engine, name, route)
    return taken


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance pass/fail lines where `pytest -v` shows them."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
