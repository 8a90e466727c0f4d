"""Tests for tree minor inverses and their generating functions."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled
from lapcomp import (
    Graph,
    GraphError,
    IntegerMatrix,
    adjugate_pair,
    block_reduction,
    block_reduction_inverse,
    cycle_graph,
    incidence_inverse,
    incidence_subminor,
    kary_exponent,
    kary_gf,
    kary_tree,
    laplacian_minor,
    path_graph,
    q_integer,
    random_tree,
    series_expand,
    tree_from_pruefer,
    tree_gf,
    tree_gf_exponents,
    tree_inverse_combinatorial,
    verify_tree_identities,
)
from lapcomp import tree_transforms
from oracles import block_reduction_by_search

pruefer_sequences = st.integers(2, 12).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
)


LEAF_FUNCTIONS = (tree_inverse_combinatorial, incidence_inverse, tree_gf_exponents)
BLOCK_FUNCTIONS = (block_reduction, block_reduction_inverse)

# (graph, vertex, message of the leaf functions, message of the block
# functions); None means the call returns.
REFUSALS = {
    "cycle": (cycle_graph(4), 0, "graph is not a tree", "graph is not a tree"),
    "triangle_and_isolated_at_9": (
        Graph(4, [(0, 1), (1, 2), (0, 2)]), 9,
        "graph is not a tree", "graph is not a tree",
    ),
    "path_at_9": (path_graph(4), 9, "vertex 9 out of range", "vertex 9 out of range"),
    "path_internal": (path_graph(4), 1, "vertex 1 is not a leaf", None),
    "path_leaf": (path_graph(4), 0, None, "vertex 0 is a leaf; nothing to reduce"),
    "single_vertex": (
        Graph(1, []), 0,
        "vertex 0 is not a leaf", "vertex 0 is a leaf; nothing to reduce",
    ),
}


@pytest.mark.parametrize("function", LEAF_FUNCTIONS + BLOCK_FUNCTIONS,
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_messages_in_order(function, case):
    # The tree check comes first (even for an out-of-range vertex), then
    # the range, then the vertex's degree.
    graph, vertex, leaf_message, block_message = REFUSALS[case]
    message = block_message if function in BLOCK_FUNCTIONS else leaf_message
    if message is None:
        function(graph, vertex)
    else:
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            function(graph, vertex)


class TestCombinatorialInverse:
    def test_path_at_far_leaf(self):
        # rooted at vertex 3, meet depths of {0,1,2} pairs
        inv = tree_inverse_combinatorial(path_graph(4), 3)
        assert inv.matrix == IntegerMatrix(
            [[3, 2, 1], [2, 2, 1], [1, 1, 1]]
        )
        assert inv.vertices == (0, 1, 2)
        assert inv.leaf == 3

    def test_star_at_a_leaf(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inv = tree_inverse_combinatorial(star, 3)
        assert inv.matrix == IntegerMatrix(
            [[1, 1, 1], [1, 2, 1], [1, 1, 2]]
        )

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError):
            tree_inverse_combinatorial(cycle_graph(3), 0)

    def test_rejects_internal_vertex(self):
        with pytest.raises(GraphError):
            tree_inverse_combinatorial(path_graph(4), 1)

    def test_inverts_the_minor(self):
        t = kary_tree(2, 3)
        inv = tree_inverse_combinatorial(t, 0)
        assert adjugate_pair(laplacian_minor(t, 0)) == (1, inv.matrix)


class TestIncidenceInverse:
    def test_one_sided_inverse(self):
        t = kary_tree(2, 2)
        g = incidence_inverse(t, 0)
        sub = incidence_subminor(t, 0)
        n = t.vertex_count - 1
        assert g @ sub == IntegerMatrix.identity(n)

    def test_gram_matrix_is_combinatorial_inverse(self):
        t = path_graph(5)
        g = incidence_inverse(t, 4)
        assert g.transpose() @ g == tree_inverse_combinatorial(t, 4).matrix


class TestBlockReduction:
    def test_split_structure(self):
        t = path_graph(5)
        problems = block_reduction(t, 2)
        assert len(problems) == 2
        maps = sorted(p.vertex_map for p in problems)
        assert maps == [(0, 1, 2), (3, 4, 2)]
        for p in problems:
            assert p.subtree.is_tree()
            assert p.subtree.degrees()[p.leaf] == 1

    def test_leaf_rejected(self):
        with pytest.raises(GraphError):
            block_reduction(path_graph(3), 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_neighbour_search(self, seed):
        rng = random.Random(seed)
        for n in range(2, 13):
            t = random_tree(n, rng)
            for v, degree in enumerate(t.degrees()):
                if degree > 1:
                    got, want = block_reduction(t, v), block_reduction_by_search(t, v)
                    assert got == want
                    assert [p.subtree.edges for p in got] == [
                        p.subtree.edges for p in want
                    ]

    def test_assembled_inverse_matches_algebra(self):
        t = kary_tree(2, 3)
        for v, degree in enumerate(t.degrees()):
            if degree > 1:
                assert adjugate_pair(laplacian_minor(t, v)) == (
                    1, block_reduction_inverse(t, v)
                )


class TestGeneratingFunctions:
    def test_path_exponents_closed_form(self):
        # path with n+1 vertices at the far leaf: j(n-j+1) + j(j-1)/2,
        # where j counts distance from the leaf (vertex order reverses it)
        for n in range(1, 8):
            t = path_graph(n + 1)
            expected = [
                j * (n - j + 1) + j * (j - 1) // 2 for j in range(1, n + 1)
            ]
            assert sorted(tree_gf_exponents(t, n)) == sorted(expected)

    def test_three_vertex_path_gf(self):
        gf = tree_gf(path_graph(3), 2)
        assert gf.numerator == (1,)
        assert gf.denominator == ((2, 1), (3, 1))
        assert series_expand(gf, 6) == [1, 0, 1, 1, 1, 1, 2]

    def test_q_integer(self):
        assert q_integer(4, 1) == 4
        assert q_integer(3, 2) == 7
        assert q_integer(0, 5) == 0
        with pytest.raises(ValueError):
            q_integer(-1, 2)

    def test_kary_exponent_binary_closed_form(self):
        for n in range(1, 13):
            for j in range(1, n + 1):
                assert kary_exponent(2, n, j) == 2 ** (n - j + 1) * (2**j - 1) - j

    def test_kary_exponent_validation(self):
        with pytest.raises(ValueError):
            kary_exponent(0, 3, 1)
        with pytest.raises(ValueError):
            kary_exponent(2, 3, 4)

    def test_kary_gf_matches_tree_pipeline(self):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                t = kary_tree(k, n)
                assert kary_gf(k, n) == tree_gf(t, 0)

    def test_unary_tree_is_a_path(self):
        for n in range(1, 7):
            assert kary_gf(1, n) == tree_gf(path_graph(n + 1), n)


class TestPruefer:
    def test_known_decoding(self):
        # sequence (3, 3) on 4 vertices: both 0,1,2 hang off 3? no - decode:
        # leaves 0,1 join 3, then 3 joins remaining max 2.
        t = tree_from_pruefer([3, 3])
        assert t == Graph(4, [(0, 3), (1, 3), (2, 3)])

    def test_empty_sequence_is_an_edge(self):
        assert tree_from_pruefer([]) == Graph(2, [(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tree_from_pruefer([4])

    @settings(max_examples=80, deadline=None)
    @given(pruefer_sequences)
    def test_always_a_tree(self, seq):
        t = tree_from_pruefer(seq)
        assert t.vertex_count == len(seq) + 2
        assert t.is_tree()

    def test_random_tree_deterministic_per_seed(self):
        a = random_tree(9, random.Random(7))
        b = random_tree(9, random.Random(7))
        assert a == b and a.is_tree()

    def test_random_tree_two_vertices(self):
        assert random_tree(2, random.Random(0)) == Graph(2, [(0, 1)])


class TestIdentitySuite:
    @settings(max_examples=40, deadline=None)
    @given(pruefer_sequences, st.randoms(use_true_random=False))
    def test_random_trees_pass_all_identities(self, seq, rng):
        t = tree_from_pruefer(seq)
        leaf = rng.choice(t.leaves())
        assert verify_tree_identities(t, leaf) == []

    def test_one_adjacency_per_rooting(self, monkeypatch):
        calls = []
        adjacency = Graph.adjacency

        def counted(g):
            calls.append(g)
            return adjacency(g)

        monkeypatch.setattr(Graph, "adjacency", counted)
        assert verify_tree_identities(kary_tree(2, 3), 0) == []
        # Two rootings at leaf 0 (distance inverse, incidence inverse), then
        # at each internal vertex 1, 2, 3 one split and one per branch.
        assert len(calls) == 2 + 3 * (1 + 3)

    def test_reports_failures_for_corrupted_input(self):
        # An internal vertex is not a valid minor root for the leaf formulas.
        with pytest.raises(GraphError):
            verify_tree_identities(path_graph(4), 1)

    def test_each_minor_eliminated_once_failures_in_order(self, monkeypatch):
        # A doubled adjugate (d = 2, 2 * inverse) fails both checks of every
        # minor; each minor is eliminated once and reports in the old order.
        seen = []

        def doubled(m):
            seen.append(m)
            d, r = adjugate_pair(m)
            return 2 * d, scaled(r, 2)

        monkeypatch.setattr(tree_transforms, "adjugate_pair", doubled)
        t = path_graph(4)  # vertices 1 and 2 are internal
        assert verify_tree_identities(t, 0) == [
            "minor determinant at leaf 0 is not 1",
            "distance formula disagrees with the algebraic inverse",
            "minor determinant at vertex 1 is not 1",
            "block assembly at vertex 1 disagrees with the direct inverse",
            "minor determinant at vertex 2 is not 1",
            "block assembly at vertex 2 disagrees with the direct inverse",
        ]
        assert seen == [laplacian_minor(t, v) for v in (0, 1, 2)]
