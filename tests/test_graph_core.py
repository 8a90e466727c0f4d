"""Tests for graph families, Laplacians, and incidence matrices."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapcomp import (
    Graph,
    GraphError,
    IntegerMatrix,
    build_family,
    complete_graph,
    graph_core,
    cycle_graph,
    determinant,
    family_from_string,
    incidence_matrix,
    incidence_subminor,
    kary_tree,
    laplacian,
    laplacian_minor,
    leafed_cycle_graph,
    parse_graph,
    path_graph,
)


def brute_spanning_trees(g):
    """Count spanning trees by trying every (n-1)-edge subset."""
    n = g.vertex_count
    count = 0
    for subset in itertools.combinations(g.edges, n - 1):
        count += Graph(n, subset).is_connected()
    return count


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edges_either_orientation(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_rejects_oversized_graph(self):
        with pytest.raises(GraphError):
            Graph(65, [])

    @pytest.mark.parametrize("count,edges,message", [
        (3, [(0, 1.0), (1, 2)], "edge (0, 1.0) has a label that is not an int"),
        (3, [(0, True), (1, 2)], "edge (0, True) has a label that is not an int"),
        (3, [("0", 1)], "edge ('0', 1) has a label that is not an int"),
        (3.0, [(0, 1), (1, 2)], "vertex count 3.0 is not an int"),
        (True, [], "vertex count True is not an int"),
    ])
    def test_rejects_labels_and_counts_that_are_not_ints(self, count, edges, message):
        # A float, a bool or a str is refused here, not read as an int or
        # left to fail later inside `laplacian_minor`.
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Graph(count, edges)

    def test_degrees_and_leaves(self):
        g = leafed_cycle_graph(3)
        assert g.degrees() == [3, 2, 2, 1]
        assert g.leaves() == [3]

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()

    def test_is_tree(self):
        assert path_graph(5).is_tree()
        assert not cycle_graph(3).is_tree()
        assert not Graph(3, [(0, 1)]).is_tree()

    def test_equality_ignores_edge_order(self):
        assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(1, 2), (0, 1)])


class TestFamilies:
    def test_path(self):
        g = path_graph(4)
        assert g.vertex_count == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edge_count == 4
        assert g.degrees() == [2, 2, 2, 2]

    def test_leafed_cycle(self):
        g = leafed_cycle_graph(4)
        assert g.vertex_count == 5
        assert sorted(g.degrees()) == [1, 2, 2, 2, 3]
        assert g.degree(0) == 3

    def test_kary_tree_shape(self):
        g = kary_tree(2, 3)
        # pendant leaf + root + 2 + 4 internal levels
        assert g.vertex_count == 1 + 1 + 2 + 4
        assert g.is_tree()
        assert g.degree(0) == 1
        assert g.degree(1) == 3

    def test_kary_down_to_a_path(self):
        assert kary_tree(1, 3) == path_graph(4)

    def test_complete(self):
        g = complete_graph(5)
        assert g.edge_count == 10
        assert g.degrees() == [4] * 5

    def test_minimum_sizes_enforced(self):
        for build, bad in [
            (path_graph, 1),
            (cycle_graph, 2),
            (leafed_cycle_graph, 2),
            (complete_graph, 1),
        ]:
            with pytest.raises(GraphError):
                build(bad)
        with pytest.raises(GraphError):
            kary_tree(0, 2)

    def test_build_family(self):
        assert build_family("cycle", 5) == cycle_graph(5)
        assert build_family("kary", 2, 2) == kary_tree(2, 2)
        with pytest.raises(GraphError):
            build_family("moebius", 5)
        with pytest.raises(GraphError):
            build_family("path", 3, 4)

    def test_family_from_string(self):
        assert family_from_string("leafed_cycle:4") == leafed_cycle_graph(4)
        assert family_from_string("kary:3,2") == kary_tree(3, 2)
        for bad in ("path", "path:", "path:x", "kary:2"):
            with pytest.raises(GraphError):
                family_from_string(bad)

    @pytest.mark.parametrize("spec", [
        "path:1_0", "cycle: 3", "cycle:3 ", "kary:+2,2", "kary:2,\u0662",
        "complete:\u0663",
    ])
    def test_family_parameters_are_decimal_digits_only(self, spec):
        # int() reads all of these; the package's one spelling does not.
        with pytest.raises(GraphError, match="non-integer parameter in family spec"):
            family_from_string(spec)


class TestLaplacian:
    def test_example(self):
        assert laplacian(path_graph(3)) == IntegerMatrix(
            [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_sums_zero_and_symmetric(self, data):
        g = random_connected_graph(data)
        lap = laplacian(g)
        assert lap == lap.transpose()
        for row in lap:
            assert sum(row) == 0
        for v in range(g.vertex_count):
            assert lap[v, v] == g.degree(v)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_incidence_factorization(self, data):
        g = random_connected_graph(data)
        inc = incidence_matrix(g)
        assert inc @ inc.transpose() == laplacian(g)

    def test_incidence_columns_sum_to_zero(self):
        inc = incidence_matrix(cycle_graph(4))
        for e in range(inc.cols):
            col = inc.column(e)
            assert sorted(col) == [-1, 0, 0, 1]


class TestMinors:
    def test_minor_drops_row_and_column(self):
        g = leafed_cycle_graph(3)
        m = laplacian_minor(g, 3)
        assert m.matrix == IntegerMatrix(
            [[3, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )
        assert m.minored_vertex == 3
        assert m.vertices == (0, 1, 2)
        assert m.source_graph is g

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            laplacian_minor(path_graph(3), 3)
        with pytest.raises(GraphError, match="^vertex 3 out of range$"):
            incidence_subminor(path_graph(3), 3)

    def test_one_vertex_has_no_minor(self):
        with pytest.raises(GraphError, match="^graph too small to take a Laplacian minor$"):
            laplacian_minor(Graph(1, []), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_minor_is_the_laplacian_without_row_and_column(self, data):
        g = random_connected_graph(data, max_vertices=8)
        lap = laplacian(g).to_lists()
        n = g.vertex_count
        # Every vertex, the first and the last included.
        for i in range(n):
            minor = laplacian_minor(g, i)
            assert minor.matrix.to_lists() == [
                row[:i] + row[i + 1:] for r, row in enumerate(lap) if r != i]
            assert minor.vertices == tuple(v for v in range(n) if v != i)

    def test_minor_builds_one_matrix(self, monkeypatch):
        built = []

        class Counted(IntegerMatrix):
            __slots__ = ()

            def __init__(self, rows):
                built.append(self)
                super().__init__(rows)

        def refuse(g):
            raise AssertionError("laplacian_minor built the full Laplacian")

        monkeypatch.setattr(graph_core, "IntegerMatrix", Counted)
        monkeypatch.setattr(graph_core, "laplacian", refuse)
        minor = laplacian_minor(kary_tree(2, 3), 4)
        assert built == [minor.matrix]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_minor_determinant_independent_of_vertex(self, data):
        g = random_connected_graph(data)
        dets = {
            determinant(laplacian_minor(g, i).matrix)
            for i in range(g.vertex_count)
        }
        assert len(dets) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_minor_equals_incidence_subminor_product(self, data):
        g = random_connected_graph(data)
        for i in range(g.vertex_count):
            sub = incidence_subminor(g, i)
            assert sub @ sub.transpose() == laplacian_minor(g, i).matrix


def matrix_tree(g):
    """Kirchhoff's spanning-tree count: the determinant of a Laplacian minor."""
    return determinant(laplacian_minor(g, 0).matrix)


class TestSpanningTreeCount:
    def test_known_families(self):
        assert matrix_tree(path_graph(6)) == 1
        assert matrix_tree(cycle_graph(5)) == 5
        assert matrix_tree(leafed_cycle_graph(7)) == 7
        assert matrix_tree(complete_graph(5)) == 5 ** 3
        assert matrix_tree(kary_tree(3, 3)) == 1

    def test_disconnected_graph_has_none(self):
        g = Graph(3, [(0, 1)])
        assert matrix_tree(g) == 0 == brute_spanning_trees(g)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_count(self, data):
        g = random_connected_graph(data)
        assert matrix_tree(g) == brute_spanning_trees(g)


class TestParseGraph:
    def test_round_trip_with_comments(self):
        text = """
        # a 3-cycle with a leaf
        4
        0 1
        1 2   # closing soon
        0 2
        0 3
        """
        assert parse_graph(text) == leafed_cycle_graph(3)

    def test_vertex_count_header_required(self):
        with pytest.raises(GraphError):
            parse_graph("0 1\n1 2\n")
        with pytest.raises(GraphError):
            parse_graph("x\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(GraphError):
            parse_graph("# nothing\n\n")

    def test_bad_edge_lines(self):
        with pytest.raises(GraphError):
            parse_graph("3\n0 1 2\n")
        with pytest.raises(GraphError):
            parse_graph("3\n0 a\n")

    @pytest.mark.parametrize("count", ["1_0", "+3", "\u0663"])
    def test_vertex_count_is_decimal_digits_only(self, count):
        message = f"line 1: vertex count {count!r} is not an integer"
        with pytest.raises(GraphError, match=re.escape(message)):
            parse_graph(f"{count}\n0 1\n1 2\n")

    @pytest.mark.parametrize("label", ["1_0", "+2", "\u0662"])
    def test_vertex_labels_are_decimal_digits_only(self, label):
        line = f"1 {label}"
        message = f"line 3: non-integer vertex label in {line!r}"
        with pytest.raises(GraphError, match=re.escape(message)):
            parse_graph(f"3\n0 1\n{line}\n")

    def test_blanks_around_tokens_are_separators(self):
        # " 3" cannot reach the integer rule in this format: lines are
        # stripped and split on whitespace before any token is read.
        assert parse_graph(" 3\n 0  1\n1\t2 \n") == path_graph(3)

    def test_connectivity_enforcement(self):
        with pytest.raises(GraphError, match="^graph is not connected$"):
            parse_graph("4\n0 1\n2 3\n")

    def test_single_vertex(self):
        g = parse_graph("1\n")
        assert g.vertex_count == 1 and g.edge_count == 0
