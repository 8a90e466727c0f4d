"""Tests for the cone / parallelepiped / generating-function engine."""

import contextlib
import io
import itertools
import json
import math
import random
import time
from collections import Counter
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, scaled
from lapcomp import (
    BudgetExceededError,
    Graph,
    IntegerMatrix,
    IntegerPointTransform,
    SimplicialCone,
    SingularMatrixError,
    UnivariateRationalGF,
    adjugate_pair,
    brute_force_count,
    build_family,
    build_slice_simplex,
    determinant,
    fpp_points,
    integer_point_transform,
    laplacian_minor,
    normality_probe,
    series_expand,
    specialize,
    specialized_gf,
)
from lapcomp import cli, cone_engine, exact_linalg, graph_core, parse_graph
from lapcomp.cone_engine import (
    _field_shifts, _json_form, _series_updates, _times_binomial_series, _times_geometric,
    polynomial_string,
)
from oracles import sorted_columns, transform_by_tuples, walk_columns


def minor_cone(family, *params, vertex=None):
    g = build_family(family, *params)
    if vertex is None:
        vertex = g.vertex_count - 1
    return SimplicialCone(laplacian_minor(g, vertex))


LEAFED3 = minor_cone("leafed_cycle", 3)  # minored at the pendant leaf
CYCLE3 = minor_cone("cycle", 3, vertex=0)


class TestSimplicialCone:
    def test_leafed_cycle_three(self):
        assert LEAFED3.d == 3
        assert LEAFED3.R == IntegerMatrix([[3, 3, 3], [3, 5, 4], [3, 4, 5]])
        assert LEAFED3.dimension == 3
        assert LEAFED3.rays() == [(3, 3, 3), (3, 5, 4), (3, 4, 5)]

    def test_defining_identity(self):
        for cone in (LEAFED3, CYCLE3, minor_cone("complete", 4)):
            n = cone.dimension
            assert cone.A @ cone.R == scaled(IntegerMatrix.identity(n), cone.d)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            SimplicialCone(IntegerMatrix([[1, 1], [1, 1]]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rays_built_on_demand(self, data):
        # The cone holds d alone until R is read; R is then d * A^-1.
        g = random_connected_graph(data)
        A = laplacian_minor(g, data.draw(st.integers(0, g.vertex_count - 1)))
        cone = SimplicialCone(A)
        assert cone._R is None
        d, R = adjugate_pair(A)
        assert (cone.d, cone.R) == (d, R)
        assert A @ cone.R == scaled(IntegerMatrix.identity(A.rows), cone.d)
        assert cone.R is cone.R

    def test_rays_checked_against_d(self):
        # R comes from a second, independent elimination, which must give
        # the d of the cone's own pass.
        cone = SimplicialCone(CYCLE3.A)
        cone.d = 2
        with pytest.raises(ArithmeticError, match="^ray matrix has d = 3, the cone d = 2$"):
            cone.R

    def test_one_constructor(self):
        # `SimplicialCone(A)` is the one way to build a cone: the same A
        # gives the same cone, and its refusals keep their messages.
        for cone in (LEAFED3, CYCLE3, minor_cone("complete", 4)):
            built = SimplicialCone(cone.A)
            assert (built.A, built.d, built._upper, built.R) == (
                cone.A, cone.d, cone._upper, cone.R)
        with pytest.raises(ValueError, match="^constraint matrix must be square$"):
            SimplicialCone(IntegerMatrix([[1, 2]]))
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            SimplicialCone(IntegerMatrix([[1, 1], [1, 1]]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kept_pass_solves_the_transpose(self, data):
        # The pass that gave d, back-substituted, is d * A^-T times the
        # weight forms of "total" and "first_coordinate".
        n = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))
        A = IntegerMatrix(rows)
        assume(determinant(A) != 0)
        cone = SimplicialCone(A)
        weights = IntegerMatrix([[1, int(i == 0)] for i in range(n)])
        d, X = exact_linalg.scaled_solve(A.transpose(), weights)
        assert d == cone.d
        assert exact_linalg._back_substitute(cone._upper, d, n) == X.to_lists()


class TestFppPoints:
    def test_cycle_three(self):
        pts = fpp_points(CYCLE3)
        assert [lam for _, lam in pts] == [(0, 0), (1, 1), (2, 2)]
        for c, lam in pts:
            assert c == CYCLE3.A.apply(lam)
            assert all(0 <= x < 3 for x in c)

    def test_point_count_is_d_to_n_minus_one(self):
        for cone in (
            CYCLE3,
            minor_cone("cycle", 5, vertex=0),
            LEAFED3,
            minor_cone("leafed_cycle", 4),
            minor_cone("complete", 4),
        ):
            pts = fpp_points(cone)
            assert len(pts) == cone.d ** (cone.dimension - 1)
            # distinct residue vectors, all inside the cone
            assert len({c for c, _ in pts}) == len(pts)
            for _, lam in pts:
                assert all(x >= 0 for x in cone.A.apply(lam))

    def test_walk_builds_rays_once(self, monkeypatch):
        # The basis steps come from A alone, but each field of a packed
        # point is bounded by a row of R, so a cone with d > 1 solves for
        # R once, after the charge; a tree's apex needs no R.
        calls = []

        def counted(m):
            calls.append(m)
            return exact_linalg.adjugate_pair(m)

        monkeypatch.setattr(cone_engine, "adjugate_pair", counted)
        cone = minor_cone("complete", 4)
        with pytest.raises(BudgetExceededError):
            fpp_points(cone, budget=255)
        assert calls == [] and cone._R is None
        assert cone.d == 16 and len(list(fpp_points(cone))) == 256
        assert calls == [cone.A] and cone._R is not None
        tree = minor_cone("path", 5)
        assert fpp_points(tree) == (((0,) * 4, (0,) * 4),)
        assert list(sorted_columns(tree)) == [[[0]] * 4]
        assert len(calls) == 1 and tree._R is None

    def test_unimodular_cone_has_only_the_origin(self):
        cone = minor_cone("path", 4, vertex=3)
        assert cone.d == 1
        pts = fpp_points(cone)
        assert pts == (((0, 0, 0), (0, 0, 0)),)

    def test_budget_respected(self):
        cone = minor_cone("cycle", 4, vertex=0)  # d = 4, dimension 3
        with pytest.raises(BudgetExceededError) as err:
            fpp_points(cone, budget=5)
        assert err.value.required == 16
        assert len(fpp_points(cone, budget=16)) == 16

    def test_oversized_instance_reports_requirement(self):
        cone = minor_cone("complete", 6)
        with pytest.raises(BudgetExceededError) as err:
            fpp_points(cone)
        assert err.value.required == 1296**4


def spanning_tree_count_by_subsets(g):
    """Spanning trees as the (V-1)-edge subsets that union-find shows are
    acyclic: an oracle with no determinant in it."""
    count = 0
    for subset in itertools.combinations(g.edges, g.vertex_count - 1):
        parent = list(range(g.vertex_count))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            count += 1
    return count


class TestFppRandomGraphs:
    """`fpp_points` on arbitrary connected graphs, against independent facts:
    d is the spanning-tree count, and the walk lists d**(n-1) distinct
    digit vectors c in [0, d)^n, each with A*lam == c."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_digit_vectors(self, data):
        g = random_connected_graph(data)
        vertex = data.draw(st.integers(0, g.vertex_count - 1))
        cone = SimplicialCone(laplacian_minor(g, vertex))
        d, n = cone.d, cone.dimension
        assert d == spanning_tree_count_by_subsets(g)
        if d ** (n - 1) > 20000:
            with pytest.raises(BudgetExceededError) as err:
                fpp_points(cone, budget=20000)
            assert err.value.required == d ** (n - 1)
            return
        pts = fpp_points(cone, budget=20000)
        assert len(pts) == d ** (n - 1)
        assert len({c for c, _ in pts}) == len(pts)
        for c, lam in pts:
            assert all(0 <= x < d for x in c)
            assert cone.A.apply(lam) == c


def flat_fpp(cone):
    """(c, R*c/d) for every c of {0..d-1}^n with R*c = 0 (mod d), scanned
    flat in lexicographic order: no lattice basis, no walk."""
    d, n = cone.d, cone.dimension
    rows = [cone.R.row(i) for i in range(n)]
    out = []
    for c in itertools.product(range(d), repeat=n):
        rc = [sum(map(mul, row, c)) for row in rows]
        if not any(x % d for x in rc):
            out.append((c, tuple(x // d for x in rc)))
    return out


def graph_cone(n, edges, vertex):
    return SimplicialCone(laplacian_minor(Graph(n, edges), vertex))


class TestLexWalk:
    """The walk emits the digit vectors in lexicographic order without a
    sort, so it must equal the flat filter of {0..d-1}^n exactly."""

    @pytest.mark.parametrize("cone,diagonal", [
        # A tree: d = 1, the origin only.
        (graph_cone(4, [(0, 1), (1, 2), (1, 3)], 3), None),
        # The 3-cycle: the last level takes a single digit.
        (graph_cone(3, [(0, 1), (0, 2), (1, 2)], 1), [1, 3]),
        # A triangle with a pendant edge: the single-digit level is in the
        # middle of the walk.
        (graph_cone(4, [(0, 1), (0, 2), (1, 2), (2, 3)], 3), [1, 3, 1]),
        # The 4-cycle: every level steps.
        (graph_cone(4, [(0, 1), (0, 3), (1, 2), (2, 3)], 1), [1, 2, 2]),
        # The first level takes a single digit.
        (SimplicialCone(IntegerMatrix([[3, 0, 0], [1, 1, 0], [2, 0, 1]])),
         [3, 1, 1]),
        # One dimension, d > 1.
        (SimplicialCone(IntegerMatrix([[-4]])), [4]),
    ])
    def test_single_digit_levels(self, cone, diagonal):
        if diagonal is None:
            assert cone.d == 1
        else:
            h, _ = cone_engine._column_hermite(cone.A)
            assert [h[i][i] for i in range(cone.dimension)] == diagonal
        assert list(fpp_points(cone)) == flat_fpp(cone)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        g = random_connected_graph(data, max_vertices=6, min_extra=2)
        vertex = data.draw(st.integers(0, g.vertex_count - 1))
        cone = SimplicialCone(laplacian_minor(g, vertex))
        d, n = cone.d, cone.dimension
        if d ** (n - 1) > 20000:
            return
        pts = list(fpp_points(cone))
        assert all(a[0] < b[0] for a, b in zip(pts, pts[1:]))
        if d ** n <= 50000:
            assert pts == flat_fpp(cone)

    def test_checks_run_before_the_first_point(self, monkeypatch):
        # `_lex_walk` refuses when called, not when first iterated.  Each
        # broken basis below comes with the true steps u, A*u_j = h_j.
        cone = minor_cone("cycle", 4, vertex=0)
        h, u = cone_engine._column_hermite(cone.A)
        assert h == [[1, 0, 0], [0, 1, 0], [1, 2, 4]]
        with pytest.raises(BudgetExceededError):
            cone_engine._lex_walk(cone, 5)
        # (0, 2, 0) is not a valid digit vector, so no integral step
        # reaches it; nor does the true basis with one step off by one.
        for basis, steps in (([[1, 0, 0], [0, 2, 0], [0, 0, 2]], u),
                             (h, [u[0], u[1], [x + 1 for x in u[2]]])):
            monkeypatch.setattr(cone_engine, "_column_hermite", lambda A: (basis, steps))
            with pytest.raises(ArithmeticError, match="not a valid digit vector"):
                cone_engine._lex_walk(cone, None)
        # A basis inside the lattice but of index 4 in it (every column is a
        # valid digit vector; the walk would list d**(n-1) / 4 points), and
        # the true basis with two columns negated (the diagonal multiplies
        # to d, but the walk would list nothing).
        for basis in ([[1, 0, 0], [-2, 4, 0], [1, -8, 4]],
                      [[-1, 0, 0], [2, -1, 0], [-1, 2, 4]]):
            monkeypatch.setattr(cone_engine, "_column_hermite", lambda A: (basis, u))
            with pytest.raises(ArithmeticError, match="determinant"):
                cone_engine._lex_walk(cone, None)
        # The reduced basis with its last column added to its first: the
        # same lattice, but h[2][0] = 5 is not below h[2][2] = 4.
        monkeypatch.setattr(cone_engine, "_column_hermite",
                            lambda A: ([[1, 0, 0], [0, 1, 0], [5, 2, 4]], u))
        with pytest.raises(ArithmeticError, match="not reduced"):
            cone_engine._lex_walk(cone, None)

    @pytest.mark.parametrize("cone", [
        # d = 9, critical group (Z/3)^2: two levels of 3 digits in 9.
        SimplicialCone(laplacian_minor(parse_graph(
            (Path(__file__).parent / "golden/graphs/bowtie_pendant.txt").read_text()),
            5)),
        # d = 7: the single-digit level is last.
        minor_cone("cycle", 7),
    ], ids=["bowtie_pendant", "cycle:7"])
    def test_several_blocks(self, cone):
        blocks = list(walk_columns(cone))
        assert len(blocks) > 1
        for digits, points in blocks:
            assert len(digits) == len(points) == cone.dimension
            assert len({len(col) for col in digits + points}) == 1
            assert len(digits[0]) <= cone_engine._BLOCK
        assert list(fpp_points(cone)) == flat_fpp(cone)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matrices_with_negative_rays(self, data):
        # A = L*U with L unit lower and U upper triangular, so d is the
        # product of U's diagonal.  The walk, at several block sizes, must
        # equal the flat filter, and the listings must be what the JSON
        # forms and str() give, negative entries and all; the packed sort
        # must give the tuple-sorted transform.
        n = data.draw(st.integers(2, 4))
        entries = st.integers(-3, 3)
        diag = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        assume(1 < math.prod(diag) and math.prod(diag) ** n <= 20000)
        lower = [[1 if i == j else data.draw(entries) if j < i else 0
                  for j in range(n)] for i in range(n)]
        upper = [[diag[i] if i == j else data.draw(entries) if j > i else 0
                  for j in range(n)] for i in range(n)]
        cone = SimplicialCone(IntegerMatrix(lower) @ IntegerMatrix(upper))
        assume(any(x < 0 for row in cone.R for x in row))
        h, u = cone_engine._column_hermite(cone.A)
        assert all(0 <= h[r][j] < h[r][r] for r in range(n) for j in range(r))
        assert [cone.A.apply(step) for step in u] == list(zip(*h))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cone_engine, "_BLOCK", data.draw(st.sampled_from([1, 7, 64, 1024])))
            points = list(fpp_points(cone))
            assert points == flat_fpp(cone)
            listing = printed(cli._write_fpp, cone, None, True)
            assert_sorted_route(cone)
        assert listing == json.dumps(_json_form({
            "determinant": cone.d,
            "points": [{"digits": c, "point": lam} for c, lam in points],
        }), indent=2) + "\n"


def assert_sorted_route(cone, budget=None):
    """`_sorted_points` lists the points of the tuple-sorted transform in
    its order, in blocks of at most `_BLOCK` coordinate columns, and
    `integer_point_transform` and both `gf` listings are that transform."""
    ipt = transform_by_tuples(cone, budget)
    blocks = list(sorted_columns(cone, budget))
    assert all(len(b) == cone.dimension for b in blocks)
    assert all(0 < len(col) <= cone_engine._BLOCK for b in blocks for col in b)
    assert [p for b in blocks for p in zip(*b)] == list(ipt.numerator)
    assert integer_point_transform(cone, budget) == ipt
    assert printed(cli._write_transform, cone, budget, False) == f"{ipt}\n"
    assert printed(cli._write_transform, cone, budget, True) == (
        json.dumps(ipt.to_json_dict(), indent=2) + "\n")
    return blocks


class TestSortedPoints:
    """The packed route to the transform: each point is one int whose
    fields hold its coordinates, sorted as ints.  It must agree with the
    tuple sort of the walk's points everywhere, negative and huge
    coordinates included."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_minor_of_random_graphs(self, data):
        g = random_connected_graph(data, max_vertices=7)
        block = data.draw(st.sampled_from([1, 7, 64, 1024]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cone_engine, "_BLOCK", block)
            for vertex in range(g.vertex_count):
                cone = SimplicialCone(laplacian_minor(g, vertex))
                if cone.d ** (cone.dimension - 1) > 3000:
                    with pytest.raises(BudgetExceededError):
                        cone_engine._sorted_points(cone, 3000)
                else:
                    assert_sorted_route(cone, 3000)

    @pytest.mark.parametrize("cone,block", [
        # d = 9, critical group (Z/3)^2; 6,561 points.
        *((SimplicialCone(laplacian_minor(parse_graph(
            (Path(__file__).parent / "golden/graphs/bowtie_pendant.txt").read_text()),
            5)), block) for block in (7, 64, 1024)),
        # d = 16, critical group (Z/4)^2; 256 points.
        *((minor_cone("complete", 4, vertex=1), block) for block in (1, 7, 64, 1024)),
    ])
    def test_block_sizes(self, cone, block, monkeypatch):
        monkeypatch.setattr(cone_engine, "_BLOCK", block)
        blocks = assert_sorted_route(cone)
        assert len(blocks) == -(-cone.d ** (cone.dimension - 1) // block)

    def test_coordinates_past_64_bits(self):
        # d = 2 and R = [[1, -(2**70 + 1)], [0, 2]]: the points are the
        # origin and (-2**69, 1), which sorts first, and coordinate 0 spans
        # 71 bits, so every field takes 9 bytes.
        cone = SimplicialCone(IntegerMatrix([[2, 2**70 + 1], [0, 1]]))
        assert cone.R == IntegerMatrix([[1, -(2**70 + 1)], [0, 2]])
        assert assert_sorted_route(cone) == [[[-2**69, 0], [1, 0]]]

    def test_unimodular_cone(self):
        # d = 1: the apex is the one point, with no basis and no sort.
        cone = minor_cone("path", 4)
        assert cone.d == 1
        assert list(sorted_columns(cone, 1)) == [[[0], [0], [0]]]
        assert_sorted_route(cone)

    def test_checks_run_before_the_first_point(self, monkeypatch):
        # Like `_lex_walk`, it refuses when called, not when first iterated.
        cone = minor_cone("cycle", 4, vertex=0)
        with pytest.raises(BudgetExceededError):
            cone_engine._sorted_points(cone, 5)
        _, u = cone_engine._column_hermite(cone.A)
        monkeypatch.setattr(cone_engine, "_column_hermite",
                            lambda A: ([[1, 0, 0], [0, 2, 0], [0, 0, 2]], u))
        with pytest.raises(ArithmeticError, match="not a valid digit vector"):
            cone_engine._sorted_points(cone, None)


# A = [[2, k], [0, 1]] has d = 2 and R = [[1, -k], [0, 2]], so lam_0 spans
# k + 1: these k put the widest field on either side of 1, 2, 4 and 8 bytes
# and past 64 bits.  With k > 0 lam_0 runs down to -k, with k < 0 up to -k.
BYTE_BOUNDARIES = [254, 255, 256, 65535, 65536, 2**32, 2**64, 2**70 + 1]


class TestByteFields:
    """A listing packs each point into one int whose fields all take the
    same whole number of bytes, and unpacks a block by the bytes of its
    keys.  Both listings must read back every field, whatever its width
    and the sign of its lower bound."""

    @pytest.mark.parametrize("span,width", [
        (0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4),
        (2**32, 8), (2**64 - 1, 8), (2**64, 9), (2**72 - 1, 9), (2**72, 10),
    ])
    def test_width(self, span, width):
        assert cone_engine._byte_width(span) == width

    @pytest.mark.parametrize("block", [1, 1024])
    @pytest.mark.parametrize("k", [*BYTE_BOUNDARIES, *(-k for k in BYTE_BOUNDARIES)])
    def test_listings_across_byte_boundaries(self, k, block, monkeypatch):
        monkeypatch.setattr(cone_engine, "_BLOCK", block)
        cone = SimplicialCone(IntegerMatrix([[2, k], [0, 1]]))
        assert cone.R == IntegerMatrix([[1, -k], [0, 2]])
        points = fpp_points(cone)
        assert list(points) == flat_fpp(cone)
        sizes = [1, 1] if block == 1 else [2]
        assert [len(c[0]) for c, _ in walk_columns(cone)] == sizes
        assert printed(cli._write_fpp, cone, None, False) == "".join(
            ["determinant 2, 2 lattice points\n"]
            + [f"digits {list(c)} -> point {list(lam)}\n" for c, lam in points])
        assert printed(cli._write_fpp, cone, None, True) == json.dumps(_json_form({
            "determinant": 2,
            "points": [{"digits": c, "point": lam} for c, lam in points],
        }), indent=2) + "\n"
        assert [len(b[0]) for b in assert_sorted_route(cone)] == sizes


# (w, m): fields of 1, 2, 4, 8 and more bytes, in records of at most and
# of more than 8 bytes, some padded up to the next array itemsize.
RECORD_SHAPES = [(1, 1), (1, 3), (1, 7), (1, 8), (1, 9), (1, 16), (2, 1), (2, 3),
                 (2, 4), (2, 5), (4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (9, 1),
                 (9, 3), (10, 2), (17, 2)]


class TestRecordReader:
    """`_record_reader(w, m)` reads a block of keys of m fields of w bytes,
    field 0 highest, into one view or list per field; `_unpack` adds lo;
    `cli._block_text` formats the fields with lo added.  Each must agree
    with plain shift-and-mask unpacking of the keys."""

    @staticmethod
    def shift_fields(keys, w, m):
        mask = (1 << 8 * w) - 1
        return [[key >> 8 * w * (m - 1 - i) & mask for key in keys] for i in range(m)]

    @pytest.mark.parametrize("w,m", RECORD_SHAPES)
    def test_reader_against_shifts(self, w, m):
        rng = random.Random(f"{w}:{m}")
        top = 1 << 8 * w * m
        keys = [0, top - 1, *(rng.randrange(top) for _ in range(50))]
        fields = cone_engine._record_reader(w, m)(keys)
        assert [list(f) for f in fields] == self.shift_fields(keys, w, m)
        # The same through int.to_bytes, big-endian, field by field.
        records = [key.to_bytes(w * m, "big") for key in keys]
        assert [list(f) for f in fields] == [
            [int.from_bytes(r[i * w:(i + 1) * w], "big") for r in records] for i in range(m)]

    @pytest.mark.parametrize("w,m", RECORD_SHAPES)
    def test_unpack_and_block_text_add_lo(self, w, m):
        rng = random.Random(f"lo:{w}:{m}")
        span = 1 << 8 * w
        lo = [rng.randrange(-span, 1) if i % 2 else 0 for i in range(m)]
        keys = [rng.randrange(1 << 8 * w * m) for _ in range(40)]
        fields = cone_engine._record_reader(w, m)(keys)
        expected = [[v + low for v in col]
                    for col, low in zip(self.shift_fields(keys, w, m), lo)]
        assert cone_engine._unpack(fields, lo) == expected
        template = "<" + ";".join(["{}"] * m) + ">\n"
        assert cli._block_text(template, lo)(fields) == "".join(
            template.format(*row) for row in zip(*expected))

    def test_tables_shared_by_lead_lo_and_separator(self, monkeypatch):
        made = []

        class Counted(cli._FieldText):
            def __init__(self, *key):
                super().__init__(*key)
                made.append(key)

        monkeypatch.setattr(cli, "_FieldText", Counted)
        text = cli._block_text("[{},{},{},{}]", [0, 0, 0, -5])
        assert text([[1, 2], [3, 4], [5, 6], [7, 8]]) == "[1,3,5,2][2,4,6,3]"
        # Fields 1 and 2 share one table; field 0 takes the lead, so it has
        # its own although its lo and separator are theirs.
        assert made == [("[", 0, ","), ("", 0, ","), ("", -5, "]")]

    def test_negative_lo_through_fpp_points(self):
        # R = [[1, -3], [0, 2]]: lam_0 runs down to -3, so its field is read
        # with lo_0 = -3, both in walk order and sorted.
        cone = SimplicialCone(IntegerMatrix([[2, 3], [0, 1]]))
        blocks, lo = cone_engine._lex_walk(cone, None)
        assert lo == [0, 0, -3, 0]
        assert list(fpp_points(cone)) == flat_fpp(cone) == [
            ((0, 0), (0, 0)), ((1, 1), (-1, 1))]
        _, lo = cone_engine._sorted_points(cone, None)
        assert lo == [-3, 0]
        assert integer_point_transform(cone).numerator == ((-1, 1), (0, 0))


class TestPresortedTransform:
    """`integer_point_transform` hands its numerator over already sorted,
    not through the constructor; it must equal the transform that the
    public constructor builds, and sorts, from the same points."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_equals_the_public_constructor(self, data):
        g = random_connected_graph(data, max_vertices=6)
        cone = SimplicialCone(laplacian_minor(g, data.draw(st.integers(0, g.vertex_count - 1))))
        assume(cone.d ** (cone.dimension - 1) <= 5000)
        points = [lam for _, lam in fpp_points(cone)]
        data.draw(st.randoms()).shuffle(points)
        rays = cone.rays()[::-1]
        with mock.patch.object(IntegerPointTransform, "__init__",
                               side_effect=AssertionError("constructor called")):
            ipt = integer_point_transform(cone)
        public = IntegerPointTransform(points, rays)
        assert ipt == public and hash(ipt) == hash(public)
        assert ipt.numerator == public.numerator and ipt.denominator == public.denominator
        assert str(ipt) == str(public) and ipt.to_json_dict() == public.to_json_dict()

    def test_public_constructor_still_sorts(self):
        ipt = IntegerPointTransform([[1, 0], (0, 1), [0, 0]], [(2, 0), [0, 2]])
        assert ipt.numerator == ((0, 0), (0, 1), (1, 0))
        assert ipt.denominator == ((0, 2), (2, 0))


def printed(write, *args):
    """What `write(*args)` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write(*args)
    return out.getvalue()


class TestIntegerPointTransform:
    def test_sorted_canonical_form(self):
        a = IntegerPointTransform([(1, 0), (0, 1)], [(1, 1), (0, 2)])
        b = IntegerPointTransform([(0, 1), (1, 0)], [(0, 2), (1, 1)])
        assert a == b
        assert a.numerator == ((0, 1), (1, 0))
        assert a.denominator == ((0, 2), (1, 1))

    def test_str(self):
        t = IntegerPointTransform([(0, 0), (1, 2)], [(1, 0), (0, 1)])
        assert str(t) == "(1 + z^(1,2))/((1 - z^(0,1))(1 - z^(1,0)))"

    def test_requires_content(self):
        with pytest.raises(ValueError):
            IntegerPointTransform([], [(1,)])
        with pytest.raises(ValueError):
            IntegerPointTransform([(0,)], [])

    def test_json_uses_decimal_strings(self):
        data = integer_point_transform(LEAFED3).to_json_dict()
        assert all(
            isinstance(e, str) for vec in data["numerator"] for e in vec
        )
        assert all(isinstance(d["mult"], str) for d in data["denominator"])

    def test_repeated_rays_merge_in_json(self):
        t = IntegerPointTransform([(0,)], [(2,), (2,), (3,)])
        data = t.to_json_dict()
        assert data["denominator"] == [
            {"ray": ["2"], "mult": "2"},
            {"ray": ["3"], "mult": "1"},
        ]


class TestUnivariateRationalGF:
    def test_trims_and_merges(self):
        gf = UnivariateRationalGF([1, 0, 1, 0, 0], [(3, 1), (2, 1), (3, 2)])
        assert gf.numerator == (1, 0, 1)
        assert gf.denominator == ((2, 1), (3, 3))

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            UnivariateRationalGF([1], [(0, 1)])
        with pytest.raises(ValueError):
            UnivariateRationalGF([1], [(2, 0)])

    def test_str(self):
        gf = UnivariateRationalGF([1, 1], [(3, 3)])
        assert str(gf) == "(1 + q)/(1 - q^3)^3"

    def test_json_round_trip(self):
        gf = UnivariateRationalGF([1, -2, 0, 1], [(2, 1), (5, 4)])
        again = UnivariateRationalGF.from_json_dict(
            json.loads(json.dumps(gf.to_json_dict()))
        )
        assert again == gf

    def test_polynomial_string(self):
        assert polynomial_string([1, -2, 0, 0, 1]) == "1 - 2q + q^4"
        assert polynomial_string([0]) == "0"
        assert polynomial_string([0, 1]) == "q"
        assert polynomial_string([-1, 1]) == "-1 + q"


class TestSpecialize:
    IPT3 = integer_point_transform(LEAFED3)

    def test_first_coordinate(self):
        gf = specialize(self.IPT3, "first_coordinate")
        assert gf.numerator == (1, 1, 2, 1, 2, 1, 1)
        assert gf.denominator == ((3, 3),)

    def test_total(self):
        gf = specialize(self.IPT3, "total")
        # ray column sums 9, 12, 12; numerator from the 9 lattice points
        assert gf.denominator == ((9, 1), (12, 2))
        assert sum(gf.numerator) == 9

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            specialize(self.IPT3, "diagonal")

    def test_hand_built_transforms(self):
        # Only a transform built outside the engine can hold a point of
        # negative exponent; its rays are checked first.
        points = [(0, 0), (-1, 0)]
        with pytest.raises(ValueError, match="^specialization produced a negative "
                                             "numerator exponent$"):
            specialize(IntegerPointTransform(points, [(1, 0), (0, 1)]), "total")
        with pytest.raises(ValueError, match=f"^{RAY_REFUSAL}$"):
            specialize(IntegerPointTransform(points, [(1, 0), (-1, 1)]), "total")


def outcome(route):
    """A route's gf, or the type, message and size of what it raised."""
    try:
        return route()
    except (ValueError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "required", None)


def assert_routes_agree(cone, mode, budget=None):
    streamed = outcome(lambda: specialized_gf(cone, mode, budget=budget))
    materialized = outcome(
        lambda: specialize(integer_point_transform(cone, budget=budget), mode)
    )
    assert streamed == materialized, (cone.A, mode)
    return streamed


MODES = st.sampled_from(["total", "first_coordinate"])

RAY_REFUSAL = "specialization sends a ray to a non-positive exponent"


def counted_gf(exponents, s):
    """The gf sum of exponents[e]*q^e over prod_j (1 - q^(s_j)) for a
    Counter of point exponents, or the ray refusal if some s_j <= 0."""
    if min(s) <= 0:
        raise ValueError(RAY_REFUSAL)
    coeffs = [0] * (max(exponents) + 1)
    for e, count in exponents.items():
        coeffs[e] = count
    return UnivariateRationalGF(coeffs, [(e, 1) for e in s])


def walk_gfs(cone):
    """The outcome of `specialized_gf` in each mode, by the walk: the
    coordinate sums and the first coordinates of the points of
    `_lex_walk`, a block at a time, so no transform is built."""
    totals, firsts = Counter(), Counter()
    for _, lam in walk_columns(cone):
        totals.update(map(sum, zip(*lam)))
        firsts.update(lam[0])
    rays = cone.rays()
    return {"total": outcome(lambda: counted_gf(totals, list(map(sum, rays)))),
            "first_coordinate": outcome(
                lambda: counted_gf(firsts, [ray[0] for ray in rays]))}


class TestSpecializedGf:
    """The streamed walk against `specialize(integer_point_transform(...))`."""

    def test_leafed_three(self):
        gf = specialized_gf(LEAFED3, "first_coordinate")
        assert gf == specialize(TestSpecialize.IPT3, "first_coordinate")
        assert str(gf) == "(1 + q + 2q^2 + q^3 + 2q^4 + q^5 + q^6)/(1 - q^3)^3"

    def test_unimodular_shortcut(self):
        tree = minor_cone("path", 5)
        assert tree.d == 1
        gf = specialized_gf(tree, "total")
        assert gf == specialize(integer_point_transform(tree), "total")
        assert str(gf) == "1/(1 - q^4)(1 - q^7)(1 - q^9)(1 - q^10)"

    @pytest.mark.parametrize("rows,d", [
        ([[1, -1], [0, 1]], 1),
        ([[2, -1, 0], [0, 1, -1], [-1, 0, 2]], 3),
    ])
    def test_non_symmetric_cones(self, rows, d):
        # Every Laplacian minor is symmetric, so only a cone like these
        # tells the kept pass over A^T from one over A.
        cone = SimplicialCone(IntegerMatrix(rows))
        assert cone.d == d
        for mode in ("total", "first_coordinate"):
            assert isinstance(assert_routes_agree(cone, mode), UnivariateRationalGF)

    @pytest.mark.parametrize("A,d", [
        (CYCLE3.A, 2), (CYCLE3.A, 1), (minor_cone("path", 4).A, 2), (CYCLE3.A, 6),
    ])
    def test_wrong_d_raises(self, A, d):
        # A cone whose d is set wrong.  Back substitution on its kept pass
        # gives (d / |det A|) * R^T * W, whose remainders these cones show
        # unless |det A| divides d; then the DP reads R, whose own
        # elimination disagrees on d.
        cone = SimplicialCone(A)
        cone.d = d
        det = abs(determinant(A))
        message = (f"^ray matrix has d = {det}, the cone d = {d}$" if d % det == 0
                   else "^Bareiss division left a remainder$")
        for mode in ("total", "first_coordinate"):
            with pytest.raises(ArithmeticError, match=message):
                specialized_gf(cone, mode)

    @pytest.mark.parametrize("rows,mode,message", [
        ([[3, 1], [1, -2]], "total", "non-positive exponent"),
        ([[2, 1], [1, -1]], "total", "non-positive exponent"),
        ([[1, 0], [1, 2]], "first_coordinate", "non-positive exponent"),
    ])
    def test_same_value_errors(self, rows, mode, message):
        cone = SimplicialCone(IntegerMatrix(rows))
        name, text, _ = assert_routes_agree(cone, mode)
        assert name == "ValueError" and message in text

    @pytest.mark.parametrize("rows,mode,negative", [
        ([[10000, 0], [0, 1]], "first_coordinate", False),  # s = (1, 0)
        ([[1, 0], [1, 2]], "first_coordinate", False),  # s = (2, 0)
        ([[2, 1], [1, -1]], "total", True),  # s = (2, -1)
        ([[3, 1], [1, -2]], "total", True),  # s = (3, -2)
    ])
    def test_zero_ray_exponent_refused_before_the_dp(self, rows, mode, negative,
                                                      monkeypatch):
        # A zero s_j, and a negative one alike, leaves no gf of the form
        # num(q) / prod_j (1 - q^(s_j)): the kept pass alone refuses it,
        # before R is built or the DP runs.
        A = IntegerMatrix(rows)
        w = cone_engine._mode_weights(mode, 2)
        s = [sum(map(mul, w, col)) for col in adjugate_pair(A)[1].transpose()]
        assert min(s) <= 0 and (min(s) < 0) == negative
        cone = SimplicialCone(A)

        def no_dp(A, R, d, s):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(cone_engine, "_numerator", no_dp)
        with pytest.raises(ValueError, match=f"^{RAY_REFUSAL}$"):
            specialized_gf(cone, mode)
        assert cone._R is None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rays_decide_on_both_routes(self, data):
        # On arbitrary A, whose R may have negative entries, the rays alone
        # decide: some s_j <= 0 is the ray refusal on both routes, and with
        # every s_j > 0 both give one gf, so the transform has no point of
        # negative exponent.
        n = data.draw(st.integers(1, 4))
        A = IntegerMatrix(data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )))
        d = abs(determinant(A))
        assume(d and d ** (n - 1) <= 2000)
        mode = data.draw(MODES)
        w = cone_engine._mode_weights(mode, n)
        s = [sum(map(mul, w, col)) for col in adjugate_pair(A)[1].transpose()]
        result = assert_routes_agree(SimplicialCone(A), mode)
        if min(s) > 0:
            assert isinstance(result, UnivariateRationalGF)
        else:
            assert result == ("ValueError", RAY_REFUSAL, None)

    def test_budget_refusal_comes_before_ray_check(self):
        cone = SimplicialCone(IntegerMatrix([[2, 1], [1, -1]]))
        refusal = assert_routes_agree(cone, "total", budget=2)
        assert refusal[0] == "BudgetExceededError" and refusal[2] == 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown specialization mode"):
            specialized_gf(LEAFED3, "diagonal")

    def test_basis_certificate(self, monkeypatch):
        # A triangular basis that divides d = 3 but leaves the lattice of
        # valid digit vectors: (1, 0) is not one for the 3-cycle minor, so
        # the true steps do not reach it.
        _, u = cone_engine._column_hermite(CYCLE3.A)
        with monkeypatch.context() as patch:
            patch.setattr(cone_engine, "_column_hermite",
                          lambda A: ([[1, 0], [0, 3]], u))
            with pytest.raises(ArithmeticError, match="not a valid digit vector"):
                fpp_points(CYCLE3)
        # The DP's certificate: a ray matrix other than d * A^-1 sorts the
        # digit vectors into more (9) or fewer (1) classes than d = 3.  The
        # ray exponents come from the kept pass, so the DP runs on it.
        for rays in (IntegerMatrix.identity(2), IntegerMatrix([[3, 0], [0, 3]])):
            cone = SimplicialCone(CYCLE3.A)
            cone._R = rays
            with pytest.raises(ArithmeticError, match="d = 3 classes"):
                specialized_gf(cone, "total")

    @pytest.mark.parametrize("source", [
        "complete:4", "complete:5", "k23", "bowtie_pendant",
    ])
    def test_every_minor_against_the_walk(self, source):
        # Non-cyclic critical groups, (Z/4)^2, (Z/5)^3, Z/2 x Z/6 and
        # (Z/3)^2, so every column's order is below d, and 1 on two minors
        # of bowtie_pendant.  Every minor of K_n is the same cone, so each
        # distinct constraint matrix is walked once.
        if ":" in source:
            g = graph_core.family_from_string(source)
        else:
            g = parse_graph((Path(__file__).parent / f"golden/graphs/{source}.txt").read_text())
        walked = {}
        for v in range(g.vertex_count):
            cone = SimplicialCone(laplacian_minor(g, v))
            key = tuple(map(tuple, cone.A))
            if key not in walked:
                walked[key] = walk_gfs(cone)
            for mode, expected in walked[key].items():
                assert outcome(lambda: specialized_gf(cone, mode)) == expected

    def test_diagonal_cone_against_the_walk(self):
        # diag(400, 1): one column of order d and one of order 1, whose
        # first-coordinate weight is 0.
        cone = SimplicialCone(IntegerMatrix([[400, 0], [0, 1]]))
        for mode, expected in walk_gfs(cone).items():
            assert outcome(lambda: specialized_gf(cone, mode)) == expected
        assert specialized_gf(cone, "total").numerator == (1,) * 400

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        g = random_connected_graph(data)
        vertex = data.draw(st.integers(0, g.vertex_count - 1))
        cone = SimplicialCone(laplacian_minor(g, vertex))
        # Cones with more than 20000 parallelepiped points are refused by
        # both routes alike, before any walking.
        assert_routes_agree(cone, data.draw(MODES), budget=20000)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_cones(self, data):
        n = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))
        A = IntegerMatrix(rows)
        assume(determinant(A) != 0)
        assert_routes_agree(SimplicialCone(A), data.draw(MODES))


@st.composite
def weight_pass_matrix(draw):
    """An invertible n x n matrix, n <= 7: a permutation matrix with its
    rows scaled by nonzero integers, or a matrix, often sparse and often
    with a zero diagonal, of entries up to 4 or 2**70 in size, either sign,
    not symmetric in general."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        scales = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n))
        return [[scales[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    bound = draw(st.sampled_from([4, 2**70]))
    cells = draw(st.sets(st.integers(0, n * n - 1), min_size=n))
    rows = [[draw(st.integers(-bound, bound)) if i * n + j in cells else 0
             for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
    assume(determinant(IntegerMatrix(rows)) != 0)
    return rows


class TestRayExponents:
    """The scalar solve of the kept pass's two weight columns."""

    @settings(max_examples=300, deadline=None)
    @given(weight_pass_matrix())
    def test_both_columns_of_the_kept_pass(self, rows):
        # The columns `_back_substitute` gives on the same pass, and
        # s = w^T R of each mode from the adjugate's own elimination.
        cone = SimplicialCone(IntegerMatrix(rows))
        X = exact_linalg._back_substitute(cone._upper, cone.d, cone.dimension)
        total, first = cone_engine._ray_exponents(cone)
        assert (total, first) == ([x[0] for x in X], [x[1] for x in X])
        assert total == [sum(ray) for ray in cone.rays()]
        assert first == [ray[0] for ray in cone.rays()]

    @settings(max_examples=150, deadline=None)
    @given(weight_pass_matrix(), st.data())
    def test_every_division_is_checked(self, rows, data):
        # One divmod per column for each kept row whose pivot is not 1,
        # the total column first; a remainder reported by any one of them,
        # in either column, is refused.
        cone = SimplicialCone(IntegerMatrix(rows))
        calls = []

        def counted(a, b):
            calls.append(b)
            return divmod(a, b)

        with mock.patch.object(cone_engine, "divmod", counted, create=True):
            expected = cone_engine._ray_exponents(cone)
        pivots = [pivot for _, pivot, _, _ in reversed(cone._upper) if pivot != 1]
        assert calls == [p for p in pivots for _ in range(2)]
        assume(calls)
        k = data.draw(st.integers(0, len(calls) - 1))

        def remainder_at_k(a, b):
            calls.append(b)
            return (a // b, 1) if len(calls) == k + 1 else divmod(a, b)

        calls.clear()
        with mock.patch.object(cone_engine, "divmod", remainder_at_k, create=True):
            with pytest.raises(ArithmeticError, match="^Bareiss division left a remainder$"):
                cone_engine._ray_exponents(cone)
        assert cone_engine._ray_exponents(cone) == expected


def flat_numerator(R, d, s):
    """The dense list whose coefficient e counts the digit vectors of
    exponent s.c/d = e, by filtering all of {0..d-1}^n for R*c = 0
    (mod d): no walk and no DP."""
    rows = [R.row(i) for i in range(R.rows)]
    coeffs = [0] * (sum(s) * (d - 1) // d + 1)
    for c in itertools.product(range(d), repeat=len(s)):
        if all(sum(map(mul, row, c)) % d == 0 for row in rows):
            e, rem = divmod(sum(map(mul, s, c)), d)
            assert rem == 0
            coeffs[e] += 1
    while coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def geometric(step, terms):
    """Coefficients of 1 + q^step + ... + q^(step*(terms-1))."""
    return [1 if e % step == 0 else 0 for e in range(step * (terms - 1) + 1)]


def poly_product(*factors):
    """Coefficients of the product of the given polynomials."""
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return tuple(out)


def geometric_product(*factors):
    """Coefficients of the product of 1 + q^step + ... + q^(step*(terms-1))
    over the (step, terms) factors, each by a window sum: coefficient k
    gains the old one at k and loses the one at k - step*terms."""
    out = [1]
    for step, terms in factors:
        window, old = [], out
        for k in range(len(old) + step * (terms - 1)):
            window.append((window[k - step] if k >= step else 0)
                          + (old[k] if k < len(old) else 0)
                          - (old[k - step * terms] if 0 <= k - step * terms < len(old) else 0))
        out = window
    return tuple(out)


class TestNumerator:
    """`_numerator`, the digit-class DP behind `specialized_gf`."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_flat_filter(self, data):
        wide = data.draw(st.booleans())
        n = data.draw(st.integers(1, 2 if wide else 3))
        rows = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))
        if wide:
            # Row 0 times m multiplies d by m and the columns j > 0 of R
            # by m, which keeps their order: each gains a geometric factor
            # of m times as many terms.  With n <= 2 and d up to 150, the
            # columns fall on both sides of `_LOOP_ORDER`.
            m = data.draw(st.integers(1, 40))
            rows[0] = [m * x for x in rows[0]]
        A = IntegerMatrix(rows)
        assume(0 < abs(determinant(A)) <= (150 if wide else 30))
        cone = SimplicialCone(A)
        d = cone.d
        # Positive weights: any at all, or an integer form u^T R plus
        # multiples of d, which leave every s.c/d integral.  Off the row
        # lattice of R some s.c/d may be fractional, in any slot, and the
        # DP must then raise.
        s = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            u = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            lifts = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            s = [sum(map(mul, u, col)) % d + d * k for col, k in zip(cone.rays(), lifts)]
            assume(min(s) > 0)
        try:
            expected = flat_numerator(cone.R, cone.d, s)
        except AssertionError:
            with pytest.raises(ArithmeticError, match="not integral"):
                cone_engine._numerator(cone.A, cone.R, cone.d, s)
        else:
            assert cone_engine._numerator(cone.A, cone.R, cone.d, s) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_is_the_stored_numerator(self, data):
        # The DP's list is the numerator `specialized_gf` stores, d = 1
        # included, whenever the rays admit a gf.
        g = random_connected_graph(data, min_extra=2)
        cone = SimplicialCone(
            laplacian_minor(g, data.draw(st.integers(0, g.vertex_count - 1))))
        mode = data.draw(MODES)
        w = cone_engine._mode_weights(mode, cone.dimension)
        s = [sum(map(mul, w, col)) for col in cone.rays()]
        assume(min(s) > 0)
        gf = specialized_gf(cone, mode, budget=cone.d ** cone.dimension)
        assert cone_engine._numerator(cone.A, cone.R, cone.d, s) == list(gf.numerator)
        assert gf.denominator == tuple(sorted(Counter(s).items()))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_gcd_of_the_weights_divides_d(self, data):
        # Each mode's s = w^T R has a primitive w, and s*A = d*w^T, so
        # gcd(s) divides every entry of d*w and so d: no caller's slots
        # could be packed closer by a common factor of s.
        g = random_connected_graph(data)
        cone = SimplicialCone(
            laplacian_minor(g, data.draw(st.integers(0, g.vertex_count - 1))))
        for mode in ("total", "first_coordinate"):
            w = cone_engine._mode_weights(mode, cone.dimension)
            s = [sum(map(mul, w, col)) for col in cone.rays()]
            assert cone.d % math.gcd(*s) == 0

    def test_slots_spread_by_unit(self):
        # No caller passes weights whose gcd does not divide d, but the DP
        # stays exact on them.  The 3-cycle minor's digit vectors are
        # (c, c), c < 3; weights (6, 6), gcd 6 and d = 3, give them
        # exponents 0, 4 and 8, each in its own slot.
        assert cone_engine._numerator(CYCLE3.A, CYCLE3.R, 3, [6, 6]) == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_zero_weight_breaks_the_mass_certificate(self):
        # Every caller passes positive weights.  A weight of 0 on a column
        # of order 4 < d = 16 (s = (0, 8, 8), whose exponents are integral)
        # has the geometric factor 1 + 1 + 1 + 1, which would pile the
        # column's mass on q^0 and pass the mass certificate, so the DP
        # refuses it first.
        cone = minor_cone("complete", 4)
        with pytest.raises(ArithmeticError, match="^digit DP needs positive ray exponents$"):
            cone_engine._numerator(cone.A, cone.R, cone.d, [0, 8, 8])

    def test_non_integral_weight_raises(self):
        # (1, 0) is not in the row lattice of R, so 1*c_0/3 is fractional.
        with pytest.raises(ArithmeticError, match="^parallelepiped point not integral$"):
            cone_engine._numerator(CYCLE3.A, CYCLE3.R, 3, [1, 0])

    @pytest.mark.parametrize("family,params", [
        ("cycle", (7,)), ("leafed_cycle", (7,)),
    ])
    def test_past_the_sampled_sizes(self, family, params):
        # 7 vertices, 16807 and 117649 points: the hypothesis tests draw at
        # most 6 vertices and 20000 points.
        cone = minor_cone(family, *params)
        ipt = integer_point_transform(cone)
        for mode in ("total", "first_coordinate"):
            assert specialized_gf(cone, mode) == specialize(ipt, mode)

    def test_complete_five(self):
        # K5's minor is 5I - J, so R = 25(I + J) and R*c = 0 (mod 125) iff
        # every c_i = 5*a_i + r for one r < 5 and a_i < 25.  Then the total
        # weight is 5*sum(a) + 4r and the first-coordinate one
        # 2*a_0 + a_1 + a_2 + a_3 + r.  This closed form stands in for the
        # materialized route, which would hold all 1,953,125 points.
        cone = minor_cone("complete", 5)
        assert cone.R == IntegerMatrix([[50 if i == j else 25 for j in range(4)]
                                        for i in range(4)])
        total = specialized_gf(cone, "total")
        assert total.numerator == poly_product(geometric(4, 5), *[geometric(5, 25)] * 4)
        assert total.denominator == ((125, 4),)
        first = specialized_gf(cone, "first_coordinate")
        assert first.numerator == poly_product(
            geometric(1, 5), geometric(2, 25), *[geometric(1, 25)] * 3)
        assert first.denominator == ((25, 3), (50, 1))

    def test_complete_six(self):
        # K6's minor is 6I - J, so R = 216(I + J), and R*c = 0 (mod 1296)
        # iff every c_i = 6*a_i + r for one r < 6 and a_i < 216: each
        # column has order 6 in the critical group (Z/6)^4.  The total
        # weight is 6*sum(a) + 5r, the first-coordinate one
        # 2*a_0 + a_1 + ... + a_4 + r.
        cone = minor_cone("complete", 6)
        budget = 1296**4
        start = time.perf_counter()
        total = specialized_gf(cone, "total", budget=budget)
        first = specialized_gf(cone, "first_coordinate", budget=budget)
        assert time.perf_counter() - start < 1
        assert total.numerator == geometric_product((5, 6), *[(6, 216)] * 5)
        assert total.denominator == ((1296, 5),)
        assert first.numerator == geometric_product(
            (1, 6), (2, 216), *[(1, 216)] * 4)
        assert first.denominator == ((216, 4), (432, 1))

    def test_mass_certificate(self, monkeypatch):
        # complete:4's columns have order 4 < d = 16.  A DP that drops
        # their geometric factors is left with the 4**3 / 16 digit vectors
        # of class 0 whose digits are all below 4, of the 16**3.
        cone = minor_cone("complete", 4)
        s = [sum(col) for col in cone.rays()]
        monkeypatch.setattr(cone_engine, "_times_packed_geometric", lambda x, shift, m: x)
        with pytest.raises(ArithmeticError,
                           match=r"^numerator counts 4 digit vectors, not d\*\*\(n-1\) = 256$"):
            cone_engine._numerator(cone.A, cone.R, cone.d, s)


class TestSeriesExpand:
    def test_geometric(self):
        gf = UnivariateRationalGF([1], [(1, 1)])
        assert series_expand(gf, 5) == [1] * 6

    def test_double_pole_counts_integers(self):
        gf = UnivariateRationalGF([1], [(1, 2)])
        assert series_expand(gf, 5) == [1, 2, 3, 4, 5, 6]

    def test_numerator_shift(self):
        gf = UnivariateRationalGF([0, 0, 1], [(2, 1)])
        assert series_expand(gf, 6) == [0, 0, 1, 0, 1, 0, 1]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            series_expand(UnivariateRationalGF([1], [(1, 1)]), -1)

    def test_leafed_three_series(self):
        gf = specialize(integer_point_transform(LEAFED3), "first_coordinate")
        assert series_expand(gf, 8) == [1, 1, 2, 4, 5, 7, 10, 12, 15]

    def test_huge_multiplicity_in_closed_form(self):
        # (1 - q)^-m has C(m - 1 + k, k) at q^k, and (1 - q^2)^-m the same
        # at q^(2k); the cost follows the order, not m.
        m = 10**12
        start = time.perf_counter()
        single = series_expand(UnivariateRationalGF([1], [(1, m)]), 4)
        double = series_expand(UnivariateRationalGF([1], [(2, m)]), 4)
        assert time.perf_counter() - start < 0.5
        assert single == [math.comb(m - 1 + k, k) for k in range(5)]
        assert double == [1, 0, m, 0, math.comb(m + 1, 2)]

    def test_charge_counts_the_list_and_each_pass(self):
        # (1 - q)^2 takes 2 passes and (1 - q^3)^50 takes 10 // 3 = 3, so
        # 11 coefficients are made once and updated 5 times.
        gf = UnivariateRationalGF([1], [(1, 2), (3, 50)])
        assert _series_updates(gf, 10) == 11 * 6
        assert _series_updates(gf, 0) == 1
        assert _series_updates(UnivariateRationalGF([1, 1], []), 4) == 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=4),
           st.integers(0, 15))
    def test_equals_one_geometric_pass_per_unit(self, num, den, order):
        assume(any(num))
        coeffs = list(num[:order + 1]) + [0] * (order + 1 - len(num))
        for e, m in den:
            once = list(coeffs)
            for _ in range(m):
                _times_geometric(coeffs, e)
            assert _times_binomial_series(once, e, m) == coeffs
        assert series_expand(UnivariateRationalGF(num, den), order) == coeffs


class TestBruteForceCount:
    @pytest.mark.parametrize("family,params", [
        ("cycle", (3,)), ("cycle", (4,)), ("leafed_cycle", (3,)),
        ("complete", (3,)), ("path", (4,)),
    ])
    def test_total_matches_series(self, family, params):
        cone = minor_cone(family, *params)
        gf = specialize(integer_point_transform(cone), "total")
        series = series_expand(gf, 12)
        for m in range(13):
            assert brute_force_count(cone.A, "total", m) == series[m]

    def test_first_coordinate_matches_series(self):
        cone = LEAFED3
        gf = specialize(integer_point_transform(cone), "first_coordinate")
        series = series_expand(gf, 9)
        for m in range(10):
            assert brute_force_count(cone.A, "first_coordinate", m) == series[m]

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            brute_force_count(CYCLE3.A, "total", -1)

    def test_box_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            brute_force_count(LEAFED3.A, "first_coordinate", 50, budget=10)
        # bounds [50, 84, 84]: x_i <= ceil(max_j R[i][j] / R[0][j] * 50)
        assert err.value.required == 51 * 85 * 85

    def test_unbounded_slice_detected(self):
        # a cone whose ray matrix has a non-positive top entry
        A = IntegerMatrix([[1, 0], [0, -1]])
        with pytest.raises(ValueError):
            brute_force_count(A, "first_coordinate", 3)


class TestAgainstTheBoxScan:
    """The DP's series against `brute_force_count` on arbitrary connected
    graphs: the box scan shares nothing with the engine but the minor."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_series_equals_box_counts(self, data):
        # Two extra edges or more where they fit, so that non-cyclic
        # critical groups, where the DP splits its columns, are drawn too.
        g = random_connected_graph(data, max_vertices=7, min_extra=2)
        cone = SimplicialCone(
            laplacian_minor(g, data.draw(st.integers(0, g.vertex_count - 1))))
        for mode in ("total", "first_coordinate"):
            try:
                series = series_expand(specialized_gf(cone, mode, budget=20000), 6)
                counts = [brute_force_count(cone.A, mode, m) for m in range(7)]
            except BudgetExceededError:
                continue
            except ValueError as refused:
                # A first-coordinate ray at 0 is an unbounded slice.
                assert mode == "first_coordinate" and str(refused) == RAY_REFUSAL
                with pytest.raises(ValueError, match="^first-coordinate slices of "
                                                     "this cone are not bounded$"):
                    brute_force_count(cone.A, mode, 0)
                continue
            assert series == counts


class TestCharge:
    """The one budget rule: a charge equal to the budget runs, and one over
    it is refused with its exact `required` and message."""

    BOX = 51 * 85 * 85  # brute_force_count's box at first coordinate 50

    @pytest.mark.parametrize("run,required,message", [
        (lambda budget: fpp_points(LEAFED3, budget), 9,
         "parallelepiped has 9 lattice points; budget is 8"),
        (lambda budget: specialized_gf(LEAFED3, "total", budget), 9,
         "parallelepiped has 9 lattice points; budget is 8"),
        (lambda budget: brute_force_count(LEAFED3.A, "first_coordinate", 50, budget), BOX,
         f"box scan needs {BOX} candidates, budget is {BOX - 1}"),
        (lambda budget: normality_probe(build_slice_simplex(3), 3, budget), 56,
         "normality sumset needs 56 pairs, budget is 55"),
    ], ids=["walk", "dp", "box", "sumset"])
    def test_boundary(self, run, required, message):
        run(required)
        with pytest.raises(BudgetExceededError) as refused:
            run(required - 1)
        assert str(refused.value) == message
        assert refused.value.required == required


class TestFieldShifts:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_packing_keeps_order_and_fields(self, data):
        spans = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=5))
        points = data.draw(st.lists(st.tuples(*[st.integers(0, s) for s in spans]),
                                    min_size=1, max_size=20))
        shifts = _field_shifts(spans)
        keys = [sum(x << s for x, s in zip(p, shifts)) for p in points]
        assert sorted(keys) == [sum(x << s for x, s in zip(p, shifts))
                                for p in sorted(points)]
        masks = [(1 << s.bit_length()) - 1 for s in spans]
        assert [tuple(k >> s & m for s, m in zip(shifts, masks)) for k in keys] == points


class TestBoxPoints:
    """The box scan against a flat filter of the whole box."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_flat_filter(self, data):
        n = data.draw(st.integers(1, 4))
        ends = [sorted(data.draw(st.lists(st.integers(-4, 4), min_size=2,
                                          max_size=2))) for _ in range(n)]
        lows = [lo for lo, _ in ends]
        highs = [hi for _, hi in ends]
        k = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=k, max_size=k,
        ))
        rhs = data.draw(st.lists(st.integers(-10, 10), min_size=k, max_size=k))
        box = list(itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
        ))
        expected = [
            x for x in box
            if all(sum(a * b for a, b in zip(row, x)) >= c
                   for row, c in zip(rows, rhs))
        ]
        assert cone_engine._box_points(rows, rhs, lows, highs, len(box)) == expected
        with pytest.raises(BudgetExceededError) as err:
            cone_engine._box_points(rows, rhs, lows, highs, len(box) - 1)
        assert err.value.required == len(box)
        assert str(err.value) == (
            f"box scan needs {len(box)} candidates, budget is {len(box) - 1}"
        )
