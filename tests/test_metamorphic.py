"""Metamorphic relations on random connected graphs, which need no
oracle and so reach past the box scan: Kirchhoff's matrix-tree theorem
(d = |det| of the Laplacian minor is the same at every vertex) and
relabeling (a permutation sigma of the vertices carries the `total` gf
at minor v to the one at sigma(v), byte for byte).  The elimination's
pivot ties and the routes' inputs follow the labels, so the relations
test more than the mathematics they restate."""

import json

import pytest
from hypothesis import assume, event, given, seed, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, record_routes
from lapcomp import Graph, SimplicialCone, laplacian_minor, specialized_gf


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kirchhoff_d_is_the_same_at_every_vertex(data):
    # 10 to 16 vertices: d reaches far past what the box scan or the
    # walk could count, and the kernel's pivot order differs per minor.
    g = random_connected_graph(data, max_vertices=16, min_extra=1, min_vertices=10)
    ds = {SimplicialCone(laplacian_minor(g, v)).d for v in range(g.vertex_count)}
    assert len(ds) == 1


def relabeled(g, sigma):
    """The graph whose edge {sigma(a), sigma(b)} stands for g's edge {a, b}."""
    return Graph(g.vertex_count, sorted(tuple(sorted((sigma[a], sigma[b]))) for a, b in g.edges))


def total_gf(g, v):
    """The total gf at minor v, its text and JSON, and the numerator
    routes it took (none for d = 1)."""
    cone = SimplicialCone(laplacian_minor(g, v))
    with pytest.MonkeyPatch.context() as patch:
        taken = record_routes(patch)
        gf = specialized_gf(cone, "total", budget=cone.d ** cone.dimension)
    return str(gf), json.dumps(gf.to_json_dict()), taken


@seed(20261021)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_relabeling_carries_the_total_gf(data):
    # Up to 8 vertices and d up to 400, so that both routes run: the
    # product on ray exponents coprime to d over few slots, the DP on the
    # rest.
    g = random_connected_graph(data, max_vertices=8, min_extra=1)
    v = data.draw(st.integers(0, g.vertex_count - 1))
    assume(SimplicialCone(laplacian_minor(g, v)).d <= 400)
    sigma = data.draw(st.permutations(range(g.vertex_count)))
    here = total_gf(g, v)
    there = total_gf(relabeled(g, sigma), sigma[v])
    event(f"routes: {here[2]}")
    assert here == there
