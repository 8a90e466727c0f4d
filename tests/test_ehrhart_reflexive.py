"""Tests for slice simplices, Ehrhart counts, and reflexivity checks."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from lapcomp import (
    BudgetExceededError,
    LatticeSimplex,
    build_slice_simplex,
    dilate_count,
    dilate_points,
    h_star,
    interior_count,
    interior_point,
    normality_probe,
    reflexivity_by_halfspaces,
    reflexivity_by_interior_counts,
)
from lapcomp import (
    cli, cone_engine, cycle_families, ehrhart_reflexive, exact_linalg, graph_core,
)
from lapcomp.cli import main
from lapcomp.conjecture_lab import integral_shift_profile
from lapcomp.ehrhart_reflexive import _halfspaces, _is_unimodal
from oracles import (
    facets_by_adjugate, necklace_histogram, normality_by_sets, normalized_volume,
    sumset_charges,
)


def count_minor_pairs(monkeypatch):
    """Record n for every leafed minor pair the slice code builds."""
    calls = []
    real = ehrhart_reflexive._leafed_minor_pair

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(ehrhart_reflexive, "_leafed_minor_pair", counted)
    return calls


def patch_every_binding(monkeypatch, real, fake):
    """Replace `real` by `fake` in every lapcomp module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "lapcomp":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, fake)


def count_eliminations(monkeypatch):
    """Record the size of every `exact_linalg._eliminate` pass, through
    whichever module imported it."""
    calls = []
    real = exact_linalg._eliminate

    def counted(rows, size):
        calls.append(size)
        return real(rows, size)

    patch_every_binding(monkeypatch, real, counted)
    return calls


# hull of (-1,-1), (1,0), (0,1): the origin is its only interior point
REFLEXIVE_TRIANGLE = LatticeSimplex(2, [(-1, -1), (1, 0), (0, 1)])
UNIT_TRIANGLE = LatticeSimplex(2, [(0, 0), (1, 0), (0, 1)])


def reeve(r):
    """Reeve's tetrahedron: its only lattice points are its vertices, and
    for r >= 2 its second dilate holds (1, 1, 1), which no two reach."""
    return LatticeSimplex(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)])


def random_simplices(seed, count):
    """`count` random 2- and 3-dimensional simplices with vertex
    coordinates in -3..3, each with an m_max in 1..3."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < count:
        dim = rng.choice((2, 3))
        vertices = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + 1)]
        try:
            drawn.append((LatticeSimplex(dim, vertices), rng.randint(1, 3)))
        except ValueError:  # affinely dependent
            pass
    return drawn


class TestLatticeSimplex:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSimplex(0, [()])
        with pytest.raises(ValueError):
            LatticeSimplex(2, [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            LatticeSimplex(2, [(0, 0), (1, 0), (0, 1, 1)])
        with pytest.raises(ValueError):
            LatticeSimplex(2, [(0, 0), (1, 0), (0, True)])
        with pytest.raises(ValueError, match="^vertices are affinely dependent$"):
            LatticeSimplex(2, [(0, 0), (1, 1), (2, 2)])

    @pytest.mark.parametrize("dimension,vertices", [
        (True, [(0,), (1,)]), (2.0, [(0, 0), (1, 0), (0, 1)]),
    ])
    def test_dimension_must_be_an_int(self, dimension, vertices):
        with pytest.raises(ValueError, match="^dimension must be an int$"):
            LatticeSimplex(dimension, vertices)

    @pytest.mark.parametrize("entry", [True, 1.0, "1", None])
    def test_entries_must_be_ints(self, entry):
        with pytest.raises(ValueError, match="^vertices must have integer entries$"):
            LatticeSimplex(2, [(0, 0), (1, 0), (0, entry)])

    def test_edge_matrix_and_volume(self):
        assert REFLEXIVE_TRIANGLE.edge_matrix().to_lists() == [
            [2, 1],
            [1, 2],
        ]
        assert normalized_volume(REFLEXIVE_TRIANGLE) == 3
        assert normalized_volume(UNIT_TRIANGLE) == 1

    def test_generic_simplex_has_no_source(self):
        assert UNIT_TRIANGLE.source_n is None

    def test_only_slices_are_counted_by_digits(self):
        # The n = 3 slice doubled: the slice's digit formula would give
        # [1, 4, 10, 19] for it.
        doubled = [(6, 6), (10, 8), (8, 10)]
        with pytest.raises(TypeError):
            LatticeSimplex(2, doubled, source_n=3)
        s = LatticeSimplex(2, doubled)
        assert s.source_n is None
        assert [dilate_count(s, t) for t in range(4)] == [1, 10, 31, 64]


class TestSliceSimplex:
    def test_three(self):
        s = build_slice_simplex(3)
        assert s.dimension == 2
        assert s.vertices == ((3, 3), (5, 4), (4, 5))
        assert s.source_n == 3
        assert normalized_volume(s) == 3

    @pytest.mark.parametrize("n", range(3, 8))
    def test_volume_counts_spanning_trees(self, n):
        # the leafed n-cycle has n spanning trees per extra cycle vertex:
        # normalized volume is n**(n-2)
        assert normalized_volume(build_slice_simplex(n)) == n ** (n - 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_slice_simplex(2)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_keeps_its_minor_and_strata(self, n, monkeypatch):
        pairs = count_minor_pairs(monkeypatch)
        dps = []
        real = ehrhart_reflexive._numerator

        def counted(A, R, d, s):
            dps.append(d)
            return real(A, R, d, s)

        monkeypatch.setattr(ehrhart_reflexive, "_numerator", counted)
        s = build_slice_simplex(n)
        assert (pairs, dps) == ([n], [n])
        h_star(s)
        for t in range(n + 2):
            dilate_count(s, t)
            interior_count(s, t)
        _halfspaces(s)
        reflexivity_by_interior_counts(s, n - 1)
        assert (pairs, dps) == ([n], [n])

    def test_commands_never_build_the_graph(self, monkeypatch, capsys):
        """`check reflexive N` and `ehrhart N` read L from the slice: with
        every binding of `leafed_cycle_graph` raising, their bytes stay the
        same.  `--normal-m 0` skips the probe, which reads only vertices."""
        argvs = [argv for n in range(3, 10)
                 for argv in (["check", "reflexive", str(n)],
                              ["ehrhart", str(n), "--normal-m", "0"])]

        def outputs():
            return [(main(argv), *capsys.readouterr()) for argv in argvs]

        expected = outputs()

        def refuse(n):
            raise AssertionError("the slice code built the leafed cycle graph")

        patch_every_binding(monkeypatch, graph_core.leafed_cycle_graph, refuse)
        assert outputs() == expected


class TestSliceCertificate:
    """A leafed slice fills its slots with F = L and h = n, certified by
    L*R = n*I instead of the public constructor's adjugate."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_the_public_constructor(self, n):
        # From the same vertices the public constructor's facet matrix is
        # n^(n-3) * L * diag(n, 1, ..., 1), so at height 1 its facets are
        # the slice's times n^(n-3), row for row.
        l, r = cycle_families._leafed_minor_pair(n)
        public = LatticeSimplex(n - 1, [[r[i, j] for i in range(1, n)] for j in range(n)])
        s = build_slice_simplex(n)
        assert s.vertices == public.vertices
        assert {type(x) for v in s.vertices for x in v} == {int}
        assert ([(k, c) for k, c in s._strata if c]
                == [(k, c) for k, c in enumerate(necklace_histogram(n)[::n]) if c])
        assert (s.source_n, public.source_n) == (n, None)
        assert repr(s) == f"{repr(public)[:-1]}, source_n={n})"
        scale = n ** (n - 3)
        for t in (1, 2):
            rows, rhs = ehrhart_reflexive._facets(s, t, 0)
            assert ehrhart_reflexive._facets(public, t, 0) == (
                [tuple(scale * a for a in row) for row in rows], [scale * b for b in rhs])
        if n <= 4:  # the box scan counts the public simplex
            assert h_star(public) == h_star(s)._replace(reflexive_certificate=None)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_no_elimination(self, n, monkeypatch, capsys):
        # R comes from its closed form and L*R = n*I certifies it, so no
        # leafed command eliminates: not the slice, not the gf.
        calls = count_eliminations(monkeypatch)
        build_slice_simplex(n)
        codes = [main(argv) for argv in (["ehrhart", str(n), "--normal-m", "0"],
                                         ["ehrhart", str(n), "--normal-m", "2"],
                                         ["check", "reflexive", str(n)],
                                         ["check", "cyclic", str(n), str(3 * n)])]
        capsys.readouterr()
        # From n = 8 the probe's box is over the default budget: exit 2.
        assert codes == [0, 2 if n >= 8 else 0, 0, 0]
        assert calls == []

    @pytest.mark.parametrize("k", [2, 3])
    def test_near_symmetry_runs_no_elimination(self, k, monkeypatch, capsys):
        calls = count_eliminations(monkeypatch)
        assert main(["check", "near_symmetry", str(k)]) == 0
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 5) for j in range(5)])
    def test_corrupt_inverse_is_refused(self, i, j, monkeypatch, capsys):
        # Any entry of R below its top row off by one breaks L*R = n*I; the
        # top row is checked first, by the pair too.
        real = cycle_families._leafed_inverse_rows

        def off_by_one(n):
            rows = real(n)
            rows[i][j] += 1
            return rows

        monkeypatch.setattr(cycle_families, "_leafed_inverse_rows", off_by_one)
        message = "minor times its scaled inverse is not n*I"
        for build in (build_slice_simplex, interior_point, reflexivity_by_halfspaces,
                      cycle_families.leafed_gf, lambda n: integral_shift_profile(n, 3)):
            with pytest.raises(ArithmeticError) as failed:
                build(5)
            assert str(failed.value) == message
        for argv in (["ehrhart", "5"], ["check", "cyclic", "5", "15"]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: internal identity failed: {message}\n")

    @pytest.mark.parametrize("n", range(3, 8))
    def test_ehrhart_counts_each_value_once(self, n, monkeypatch, capsys):
        # `ehrhart N --normal-m 2` asks for L(1) and L(2) in the probe,
        # L(0..n-1) in h*, and L(0..n-1) and L_interior(1..n) in the
        # interior-count test, which stops at its first failure; the strata
        # are summed once for each distinct value asked for.
        expected = main(["ehrhart", str(n), "--normal-m", "2"]), capsys.readouterr()
        asked, sums = [], []

        class Strata(list):
            def __iter__(self):
                sums.append(1)
                return super().__iter__()

        real_build, real_count = cli.build_slice_simplex, ehrhart_reflexive._count

        def build(n):
            s = real_build(n)
            s._strata = Strata(s._strata)
            return s

        def count(s, t, budget, strict):
            if t:
                asked.append((t, strict))
            return real_count(s, t, budget, strict)

        monkeypatch.setattr(cli, "build_slice_simplex", build)
        monkeypatch.setattr(ehrhart_reflexive, "_count", count)
        assert (main(["ehrhart", str(n), "--normal-m", "2"]), capsys.readouterr()) == expected
        assert len(sums) == len(set(asked)) < len(asked)
        if n % 2:  # reflexive: every interior count is asked for
            assert set(asked) == {(t, 0) for t in range(1, n)} | {(t, 1) for t in range(1, n + 1)}

    def test_box_counts_are_charged_every_call(self):
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as refused:
                interior_count(REFLEXIVE_TRIANGLE, 10, budget=3)
            assert refused.value.required == 21 * 21


class TestInteriorPoint:
    def test_odd_is_integral(self):
        assert interior_point(3) == (3, 4, 4)
        assert interior_point(5) == (5, 7, 8, 8, 7)
        assert interior_point(7) == (7, 10, 12, 13, 13, 12, 10)

    def test_even_is_fractional(self):
        u = interior_point(4)
        assert any(isinstance(e, Fraction) for e in u)
        assert u[0] == 4

    def test_first_coordinate_is_n(self):
        for n in range(3, 9):
            assert interior_point(n)[0] == n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_values_and_types(self, n):
        # n + i(n - i)/2: integral for odd n; for even n every entry is a
        # Fraction, the integral first one included.
        u = interior_point(n)
        assert u == (n, *(n + Fraction(i * (n - i), 2) for i in range(1, n)))
        assert {type(e) for e in u} == {int if n % 2 else Fraction}

    def test_past_the_graph_limit(self):
        # The leafed 65-cycle has 66 vertices, more than `Graph` takes; its
        # slice comes from the leafed minor pair alone, so both answer.
        with pytest.raises(graph_core.GraphError, match="^graph has 66 vertices"):
            graph_core.leafed_cycle_graph(65)
        assert interior_point(65) == (65, *(65 + i * (65 - i) // 2 for i in range(1, 65)))
        assert reflexivity_by_halfspaces(65).reason == "certified"


class TestHalfspaceReflexivity:
    def test_three_certified(self):
        rep = reflexivity_by_halfspaces(3)
        assert rep.reflexive
        assert rep.reason == "certified"
        assert rep.translation == (4, 4)
        assert rep.rhs == (-1, -1, -1)
        assert rep.translated_vertices == ((-1, -1), (1, 0), (0, 1))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_primes_certified(self, n):
        assert reflexivity_by_halfspaces(n).reflexive

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_refuted_by_fractional_point(self, n):
        rep = reflexivity_by_halfspaces(n)
        assert not rep.reflexive
        assert rep.reason == "canonical interior point is not integral"
        assert rep.reduced_matrix is None

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_builds_the_minor_pair_once(self, n, monkeypatch):
        calls = count_minor_pairs(monkeypatch)
        reflexivity_by_halfspaces(n)
        assert calls == [n]

    @pytest.mark.parametrize("n", [3, 5, 9])
    @pytest.mark.parametrize("command", [
        "ehrhart {n}", "ehrhart {n} --normal-m 0", "check reflexive {n}",
    ])
    def test_each_command_builds_the_minor_pair_once(self, command, n,
                                                     monkeypatch, capsys):
        calls = count_minor_pairs(monkeypatch)
        # the default normality probe of slice 9 is refused
        refused = command == "ehrhart {n}" and n == 9
        assert main(command.format(n=n).split()) == (2 if refused else 0)
        assert calls == [n]

    @pytest.mark.parametrize("n", [3, 4, 7, 32])
    def test_never_runs_the_digit_dp(self, n, monkeypatch):
        # Neither reads the strata, so neither may pay for the DP.
        expected = reflexivity_by_halfspaces(n), interior_point(n)

        def no_dp(*args):
            raise AssertionError("the digit DP ran")

        monkeypatch.setattr(ehrhart_reflexive, "_numerator", no_dp)
        assert (reflexivity_by_halfspaces(n), interior_point(n)) == expected

    def test_json_round_trip_types(self):
        data = reflexivity_by_halfspaces(3).to_json_dict()
        assert data["reflexive"] is True
        assert data["translation"] == ["4", "4"]
        assert data["rhs"] == ["-1", "-1", "-1"]


class TestDilateCounting:
    def test_three_counts(self):
        s = build_slice_simplex(3)
        assert [dilate_count(s, t) for t in range(5)] == [1, 4, 10, 19, 31]
        assert [interior_count(s, t) for t in range(5)] == [0, 1, 4, 10, 19]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_digit_formula_matches_box_scan(self, n):
        s = build_slice_simplex(n)
        generic = LatticeSimplex(s.dimension, s.vertices)  # no source tag
        for t in range(4):
            assert dilate_count(s, t) == dilate_count(generic, t)
            assert interior_count(s, t) == interior_count(generic, t)

    @pytest.mark.parametrize("n,t_max", [(3, 3), (4, 3), (5, 3), (6, 2), (7, 2), (8, 2)])
    def test_minor_facets_scan_like_the_adjugate_facets(self, n, t_max):
        # A slice's facets are its minor's rows; the adjugate of its edge
        # matrix gives positive multiples of them, so the box scan lists
        # the same points of each dilate and its interior, in one order.
        s = build_slice_simplex(n)
        for t in range(1, t_max + 1):
            box = ehrhart_reflexive._dilate_box(s, t)
            for strict in (0, 1):
                expected = cone_engine._box_points(*facets_by_adjugate(s, t, strict), *box,
                                                   10**12)
                assert ehrhart_reflexive._scan_dilate(s, t, 10**12, strict) == expected
                assert len(expected) == (interior_count if strict else dilate_count)(s, t)

    @pytest.mark.parametrize("seed", range(3))
    def test_stored_facets_scan_like_the_adjugate_facets(self, seed):
        # The facets of a bare simplex come from the adjugate of its
        # homogenized vertex matrix, kept when it is built; the oracle's
        # d * E^-1 rows list the same points of each dilate, in one order.
        for s, _ in random_simplices(seed, 40):
            for t in (1, 2, 3):
                box = ehrhart_reflexive._dilate_box(s, t)
                for strict in (0, 1):
                    expected = cone_engine._box_points(*facets_by_adjugate(s, t, strict), *box)
                    assert ehrhart_reflexive._scan_dilate(s, t, None, strict) == expected, s

    def test_bare_simplex_eliminates_once(self, monkeypatch):
        # One elimination, of the homogenized vertex matrix, when it is
        # built; every later scan reads the facet matrix it kept.
        calls = count_eliminations(monkeypatch)
        s = reeve(3)
        assert calls == [4]
        dilate_points(s, 2)
        interior_count(s, 2)
        normality_probe(s, 3)
        assert calls == [4]

    def test_slice_facets_need_no_elimination(self, monkeypatch):
        s = build_slice_simplex(5)
        expected = dilate_points(s, 2), interior_count(s, 2), normality_probe(s)

        def refuse(m):
            raise AssertionError("a slice's facets ran an elimination")

        monkeypatch.setattr(ehrhart_reflexive, "adjugate_pair", refuse)
        assert (dilate_points(s, 2), interior_count(s, 2), normality_probe(s)) == expected

    @pytest.mark.parametrize("argv", [
        ["ehrhart", "9", "--normal-m", "0"], ["check", "reflexive", "9"],
    ])
    def test_digit_dp_runs_once_per_slice(self, argv, monkeypatch, capsys):
        calls = []
        real = cone_engine._numerator

        def counted(A, R, d, s):
            calls.append(d)
            return real(A, R, d, s)

        # Bound under its name in every module that imports it.
        for module in (cone_engine, cycle_families, ehrhart_reflexive):
            monkeypatch.setattr(module, "_numerator", counted)
        assert main(argv) == 0
        assert calls == [9]

    def test_unit_triangle_closed_forms(self):
        for t in range(6):
            assert dilate_count(UNIT_TRIANGLE, t) == (t + 1) * (t + 2) // 2
        assert [interior_count(UNIT_TRIANGLE, t) for t in range(6)] == [
            0, 0, 0, 1, 3, 6,
        ]

    def test_dilate_points_zero_and_negative(self):
        assert dilate_points(UNIT_TRIANGLE, 0) == [(0, 0)]
        with pytest.raises(ValueError):
            dilate_points(UNIT_TRIANGLE, -1)
        with pytest.raises(ValueError):
            dilate_count(UNIT_TRIANGLE, -2)
        with pytest.raises(ValueError):
            interior_count(UNIT_TRIANGLE, -1)

    def test_box_scan_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            dilate_points(REFLEXIVE_TRIANGLE, 10, budget=3)
        assert err.value.required == 21 * 21

    def test_points_are_actually_inside(self):
        pts = dilate_points(REFLEXIVE_TRIANGLE, 2)
        assert (0, 0) in pts and (2, 2) not in pts
        assert len(pts) == dilate_count(REFLEXIVE_TRIANGLE, 2)


class TestHStar:
    def test_unimodal_helper(self):
        assert _is_unimodal([1, 2, 2, 1])
        assert _is_unimodal([1, 1])
        assert not _is_unimodal([1, 2, 1, 2])
        assert not _is_unimodal([2, 1, 1, 3])

    def test_slice_three(self):
        data = h_star(build_slice_simplex(3))
        assert data.h_star == (1, 1, 1)
        assert data.dilate_counts == (1, 4, 10)
        assert data.palindromic and data.unimodal
        assert data.reflexive_certificate is True

    def test_slice_four(self):
        data = h_star(build_slice_simplex(4))
        assert data.h_star == (1, 6, 9, 0)
        assert not data.palindromic and data.unimodal
        assert data.reflexive_certificate is False

    def test_slice_five(self):
        data = h_star(build_slice_simplex(5))
        assert data.h_star == (1, 21, 81, 21, 1)
        assert data.palindromic and data.unimodal
        assert data.reflexive_certificate is True

    @pytest.mark.parametrize("n", range(3, 7))
    def test_sum_is_normalized_volume(self, n):
        s = build_slice_simplex(n)
        assert sum(h_star(s).h_star) == normalized_volume(s)

    def test_generic_simplexes(self):
        assert h_star(UNIT_TRIANGLE).h_star == (1, 0, 0)
        data = h_star(REFLEXIVE_TRIANGLE)
        assert data.h_star == (1, 1, 1)
        assert data.reflexive_certificate is None

    def test_json_types(self):
        data = h_star(build_slice_simplex(3)).to_json_dict()
        assert data["h_star"] == ["1", "1", "1"]
        assert data["palindromic"] is True


class TestInteriorCountReflexivity:
    def test_slice_three_passes(self):
        assert reflexivity_by_interior_counts(build_slice_simplex(3), 3)

    def test_slice_four_fails(self):
        assert not reflexivity_by_interior_counts(build_slice_simplex(4), 3)

    def test_generic_reflexive_triangle(self):
        assert reflexivity_by_interior_counts(REFLEXIVE_TRIANGLE, 2)
        assert not reflexivity_by_interior_counts(UNIT_TRIANGLE, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            reflexivity_by_interior_counts(UNIT_TRIANGLE, 0)


class TestNormalityProbe:
    def test_slice_three(self):
        report = normality_probe(build_slice_simplex(3), m_max=3)
        assert report.results == (True, True, True)
        assert report.normal_up_to == 3
        assert report.counterexample is None

    def test_unit_triangle(self):
        report = normality_probe(UNIT_TRIANGLE, m_max=4)
        assert report.normal_up_to == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            normality_probe(UNIT_TRIANGLE, m_max=0)

    @pytest.mark.parametrize("n,m_max,required", [
        (7, 3, 474934849), (8, 2, 4459640625), (8, 3, 4459640625),
    ])
    def test_every_box_charged_before_any_scan(self, n, m_max, required, monkeypatch):
        # The first box over the default budget refuses, with its own size,
        # before L(1) or any sumset is scanned.
        simplex = build_slice_simplex(n)

        def no_scan(*args):
            raise AssertionError("a box was scanned")

        monkeypatch.setattr(ehrhart_reflexive, "_box_points", no_scan)
        with pytest.raises(BudgetExceededError, match="box scan needs") as refused:
            normality_probe(simplex, m_max=m_max)
        assert refused.value.required == required

    def test_refusal_comes_before_a_non_normal_dilate(self):
        # Reeve's tetrahedron: 2T holds (1, 1, 1), which no sum of two of
        # its four lattice points (the vertices) reaches.  Its boxes have
        # 12, 45 and 112 cells; at budget 50 the probe to m = 2 finds the
        # gap, and the probe to m = 3 is refused before it looks.
        reeve = LatticeSimplex(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        report = normality_probe(reeve, m_max=2, budget=50)
        assert report.results == (True, False)
        assert report.counterexample == (2, (1, 1, 1))
        with pytest.raises(BudgetExceededError) as refused:
            normality_probe(reeve, m_max=3, budget=50)
        assert refused.value.required == 112

    def test_sumset_charged_before_any_pair(self):
        # The unit segment's boxes have 2 and 3 cells, so both pass a
        # budget of 3, but its 2-fold sumset has 2 * 2 pairs.
        segment = LatticeSimplex(1, [(0,), (1,)])
        assert normality_probe(segment, m_max=2, budget=4).normal_up_to == 2
        with pytest.raises(BudgetExceededError,
                           match="normality sumset needs 4 pairs") as refused:
            normality_probe(segment, m_max=2, budget=3)
        assert refused.value.required == 4

    def test_sumset_charge_accumulates_over_dilates(self):
        # UNIT_TRIANGLE: L(1) and L(2) have 3 and 6 points, so the sums
        # to m = 3 form 3 * 3 + 6 * 3 pairs; its largest box has 16 cells.
        assert normality_probe(UNIT_TRIANGLE, m_max=3, budget=27).normal_up_to == 3
        with pytest.raises(BudgetExceededError) as refused:
            normality_probe(UNIT_TRIANGLE, m_max=3, budget=26)
        assert refused.value.required == 27

    @pytest.mark.parametrize("n,m_max", [(n, 3) for n in range(3, 6)] + [(7, 2)])
    def test_normal_slice_lists_only_its_base(self, n, m_max, monkeypatch):
        scans = []
        real = ehrhart_reflexive._box_points

        def counted(rows, rhs, lows, highs, budget=None):
            scans.append(lows)
            return real(rows, rhs, lows, highs, budget)

        monkeypatch.setattr(ehrhart_reflexive, "_box_points", counted)
        s = build_slice_simplex(n)
        assert normality_probe(s, m_max=m_max).normal_up_to == m_max
        assert scans == [ehrhart_reflexive._dilate_box(s, 1)[0]]

    @pytest.mark.parametrize("simplex,m_max,scans", [
        # Reeve's tetrahedra fail at m = 2: L(1) and 2T, each listed once.
        *((reeve(r), 2, 2) for r in range(2, 6)),
        # The unit triangle is normal: L(1), L(2) and L(3), once each.
        (UNIT_TRIANGLE, 3, 3),
    ])
    def test_simplex_without_strata_scans_each_dilate_once(self, simplex, m_max, scans,
                                                           monkeypatch):
        # With no digit strata the box scan is the count, so a dilate's
        # listing gives its count and is not scanned again.
        calls = []
        real = ehrhart_reflexive._box_points

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ehrhart_reflexive, "_box_points", counted)
        report = normality_probe(simplex, m_max)
        assert len(calls) == scans
        monkeypatch.undo()
        assert report == normality_by_sets(simplex, m_max)

    def test_base_listing_must_match_its_count(self, monkeypatch):
        real = ehrhart_reflexive._box_points
        s = build_slice_simplex(4)
        monkeypatch.setattr(ehrhart_reflexive, "_box_points",
                            lambda *args: real(*args)[1:])
        with pytest.raises(ArithmeticError, match="disagrees with its count"):
            normality_probe(s)

    def test_base_listing_must_satisfy_the_facets(self, monkeypatch):
        real = ehrhart_reflexive._box_points
        s = build_slice_simplex(4)
        far = tuple(v + 100 for v in s.vertices[0])
        monkeypatch.setattr(ehrhart_reflexive, "_box_points",
                            lambda *args: real(*args)[1:] + [far])
        with pytest.raises(ArithmeticError, match="left its facets"):
            normality_probe(s)

    def test_json_types(self):
        data = normality_probe(build_slice_simplex(3)).to_json_dict()
        assert data["m_max"] == "2"
        assert data["normal_up_to"] == "2"
        assert data["counterexample"] is None


def check_against_sets(s, m_max):
    """The probe's report equals the ordered-pair oracle's, and each sumset
    charge that no box charge hides refuses a budget one below it with its
    exact `.required`; the probe completes at the largest charge."""
    report = normality_probe(s, m_max)
    assert report == normality_by_sets(s, m_max), s
    box = math.prod(h - l + 1 for l, h in zip(*ehrhart_reflexive._dilate_box(s, m_max)))
    charges = sumset_charges(s, m_max)
    for m, pairs in charges:
        if pairs <= box:
            continue  # the boxes, charged first, refuse this budget
        with pytest.raises(BudgetExceededError) as refused:
            normality_probe(s, m_max, budget=pairs - 1)
        assert str(refused.value) == f"normality sumset needs {pairs} pairs, budget is {pairs - 1}"
        assert refused.value.required == pairs
    assert normality_probe(s, m_max, budget=max([box] + [p for _, p in charges])) == report
    return report


class TestNormalityAgainstSets:
    """The packed probe against the set-comparison oracle: equal reports,
    counterexample included, and equal sumset charges."""

    @pytest.mark.parametrize("n,m_max", [(3, 3), (4, 3), (5, 3), (6, 3), (7, 2)])
    def test_leafed_slices(self, n, m_max):
        s = build_slice_simplex(n)
        for m in range(1, m_max + 1):
            check_against_sets(s, m)

    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_generic_simplices(self, data):
        dim = data.draw(st.integers(1, 3))
        coordinate = st.integers(-3, 3)
        vertices = data.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                                      min_size=dim + 1, max_size=dim + 1))
        try:
            s = LatticeSimplex(dim, vertices)
        except ValueError:  # affinely dependent
            assume(False)
        check_against_sets(s, data.draw(st.integers(1, 3)))

    def test_sumset_refusal_of_slice_three(self):
        # The n = 3 slice's boxes reach 49 cells at m = 3; its sumsets
        # charge 4 * 4 and then 10 * 4 more pairs.
        assert sumset_charges(build_slice_simplex(3), 3) == [(2, 16), (3, 56)]
        with pytest.raises(BudgetExceededError, match="^normality sumset needs 56 pairs"):
            normality_probe(build_slice_simplex(3), 3, budget=55)

    def test_unit_triangle(self):
        for m in range(1, 5):
            assert normality_probe(UNIT_TRIANGLE, m) == normality_by_sets(UNIT_TRIANGLE, m)

    @pytest.mark.parametrize("r", range(2, 6))
    def test_reeve_tetrahedra(self, r):
        for m in (2, 3):
            report = normality_probe(reeve(r), m)
            assert report == normality_by_sets(reeve(r), m)
            assert report.counterexample == (2, (1, 1, 1))

    def test_random_simplices(self):
        failing = 0
        for s, m_max in random_simplices(15, 120):
            report = normality_probe(s, m_max)
            assert report == normality_by_sets(s, m_max), s
            failing += report.counterexample is not None
        assert failing > 20  # the draw reaches the listing path often


class TestEhrhartCommandOrder:
    def test_refused_probe_does_no_h_star_work(self, monkeypatch, capsys):
        def no_h_star(*args, **kwargs):
            raise AssertionError("h* ran before the refused probe")

        monkeypatch.setattr(cli, "h_star", no_h_star)
        assert main(["ehrhart", "9"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: budget exhausted: box scan needs 2901438225")
