"""Tests for the leafed-cycle generating function, whose numerator is the
engine's digit-class DP, against the cycle and leafed-cycle closed forms
of `oracles`."""

import itertools

import pytest

from lapcomp import (
    BudgetExceededError,
    IntegerMatrix,
    IntegerPointTransform,
    SimplicialCone,
    adjugate_pair,
    cycle_graph,
    fpp_points,
    integer_point_transform,
    laplacian_minor,
    leafed_cycle_graph,
    leafed_gf,
    series_expand,
    specialize,
)

from lapcomp import cycle_families
from lapcomp.cli import main
from lapcomp.conjecture_lab import integral_shift_profile

from oracles import (
    cycle_inverse_closed,
    family_minor,
    leafed_inverse_closed,
    mod_structure,
    necklace_histogram,
)


def family_cone(n, leafed):
    """The leafed n-cycle minored at its leaf, or the n-cycle at n-1."""
    return SimplicialCone(family_minor(n, leafed))


def brute_solutions(n, leafed):
    """S_n by filtering: digit vectors with sum_j w_j*c_j = 0 mod n for the
    weights (0, n-1, ..., 1) (leafed) or (n-1, ..., 1) (plain cycle)."""
    weights = tuple(range(n - 1, 0, -1))
    if leafed:
        weights = (0,) + weights
    return [
        c
        for c in itertools.product(range(n), repeat=len(weights))
        if sum(w * x for w, x in zip(weights, c)) % n == 0
    ]


def fpp_digits(n, leafed):
    return [c for c, _ in fpp_points(family_cone(n, leafed))]


class TestClosedInverses:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_matches_algebra(self, n):
        minor = laplacian_minor(cycle_graph(n), n - 1)
        assert adjugate_pair(minor) == (n, cycle_inverse_closed(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_leafed_matches_algebra(self, n):
        minor = laplacian_minor(leafed_cycle_graph(n), n)
        assert adjugate_pair(minor) == (n, leafed_inverse_closed(n))

    # 64 and 65 are past `Graph`'s cap, so L is built here from its
    # definition and the adjugate stays the independent route to R.
    @pytest.mark.parametrize("n", range(2, 71))
    def test_minor_pair_is_the_adjugate_pair(self, n):
        L = IntegerMatrix(
            [2 * (a == b) - ((b - a) % n == 1) - ((a - b) % n == 1) + (a == b == 0)
             for b in range(n)]
            for a in range(n)
        )
        d, r = adjugate_pair(L)
        assert d == n
        assert cycle_families._leafed_minor_pair(n) == (L, r)

    def test_leafed_border_is_all_n(self):
        m = leafed_inverse_closed(6)
        assert set(m.row(0)) == {6}
        assert set(m.column(0)) == {6}


class TestModStructure:
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    @pytest.mark.parametrize("leafed", [True, False])
    def test_rank_one_shape_verified(self, n, leafed):
        report = mod_structure(n, leafed=leafed)
        assert report.verified
        assert report.n == n
        size = n if leafed else n - 1
        assert len(report.matrix) == size
        # column k is the claimed multiple of v1
        for k in range(size):
            mult = k if leafed else k + 1
            for i in range(size):
                assert report.matrix[i][k] == mult * report.v1[i] % n

    def test_leafed_first_column_zero(self):
        report = mod_structure(5, leafed=True)
        assert all(row[0] == 0 for row in report.matrix)


class TestSolveSn:
    """The parallelepiped engine lists exactly S_n as the family cones'
    digit vectors."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_leafed_solution_set(self, n):
        sols = fpp_digits(n, leafed=True)
        assert sols == brute_solutions(n, leafed=True)
        assert len(sols) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_cycle_solution_set(self, n):
        sols = fpp_digits(n, leafed=False)
        assert sols == brute_solutions(n, leafed=False)
        assert len(sols) == n ** (n - 2)

    def test_lexicographic_order(self):
        sols = fpp_digits(4, leafed=True)
        assert sols == sorted(sols)

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            fpp_points(family_cone(6, leafed=True), budget=100)
        assert err.value.required == 6**5


def histogram(n):
    """leafed_gf(n)'s numerator, the digit-sum histogram of S_n, padded to
    its full length n*(n-1)+1."""
    numerator = list(leafed_gf(n).numerator)
    assert len(numerator) <= n * (n - 1) + 1
    return numerator + [0] * (n * (n - 1) + 1 - len(numerator))


class TestPhiHistograms:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_histogram_matches_enumeration(self, n):
        hist = histogram(n)
        if n == 2:
            # S_2 = {(0, 0), (1, 0)}; the leafed 2-cycle is not a simple graph
            assert hist == [1, 1, 0]
            return
        expected = [0] * (n * (n - 1) + 1)
        for c in fpp_digits(n, leafed=True):
            expected[sum(c)] += 1
        assert hist == expected
        assert sum(hist) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_zero_histogram_matches_enumeration(self, n):
        # c -> (n - c) mod n maps S_n onto itself, so counting each zero
        # digit as n (the open parallelepiped's digits, in {1..n}) sends a
        # digit sum phi to n^2 - phi: the reciprocity behind interior_count.
        sols = fpp_digits(n, leafed=True)
        assert {tuple(-x % n for x in c) for c in sols} == set(sols)
        open_hist = [0] * (n * n + 1)
        for c in sols:
            open_hist[sum(x or n for x in c)] += 1
        assert open_hist[::-1] == histogram(n) + [0] * n

    # From n = 17 the DP's slots take 9 to 12 bytes, read by `int.from_bytes`.
    @pytest.mark.parametrize("n", range(2, 23))
    def test_matches_necklace_oracle(self, n):
        assert histogram(n) == necklace_histogram(n)

    def test_leafed_three_histogram(self):
        # 9 solutions with digit sums {0,1,2,2,3,4,4,5,6}
        assert leafed_gf(3).numerator == (1, 1, 2, 1, 2, 1, 1)

    # Every n the CLI's slices reach: they read L from this pair alone.
    @pytest.mark.parametrize("n", range(3, 33))
    def test_minor_pair_is_the_graph_minor(self, n):
        minor = laplacian_minor(leafed_cycle_graph(n), n)
        L, r = cycle_families._leafed_minor_pair(n)
        assert L == minor
        assert adjugate_pair(minor) == (n, r)

    def test_small_n_refused(self):
        with pytest.raises(ValueError, match="n >= 2"):
            leafed_gf(1)

    def test_top_row_checked_with_the_pair(self, monkeypatch, capsys):
        # The gf passes the weights (n, ..., n) to the DP on the strength of
        # R's top row, so the pair itself refuses any other top row, before
        # its L*R check.
        real = cycle_families._leafed_inverse_rows

        def corrupt(n):
            rows = real(n)
            rows[0][-1] += 1
            return rows

        monkeypatch.setattr(cycle_families, "_leafed_inverse_rows", corrupt)
        message = "top row of the scaled inverse is not constant n"
        for build in (leafed_gf, lambda n: integral_shift_profile(n, 3)):
            with pytest.raises(ArithmeticError, match=f"^{message}$"):
                build(5)
        assert main(["check", "cyclic", "5", "15"]) == 1
        assert capsys.readouterr() == ("", f"error: internal identity failed: {message}\n")


class TestGeneratingFunctions:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_leafed_gf_matches_parallelepiped_route(self, n):
        cone = SimplicialCone(laplacian_minor(leafed_cycle_graph(n), n))
        via_fpp = specialize(integer_point_transform(cone), "first_coordinate")
        assert leafed_gf(n) == via_fpp

    def test_leafed_three_series(self):
        assert series_expand(leafed_gf(3), 8) == [1, 1, 2, 4, 5, 7, 10, 12, 15]

    @pytest.mark.parametrize("n", range(3, 6))
    def test_cycle_transform_matches_parallelepiped_route(self, n):
        # Oracle: the closed-form rays applied to S_n found by filtering.
        r = cycle_inverse_closed(n)
        numerator = []
        for c in brute_solutions(n, leafed=False):
            scaled = r.apply(c)
            assert all(x % n == 0 for x in scaled)
            numerator.append([x // n for x in scaled])
        rays = [r.column(j) for j in range(r.cols)]
        expected = IntegerPointTransform(numerator, rays)
        assert integer_point_transform(family_cone(n, leafed=False)) == expected

    def test_cycle_transform_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            integer_point_transform(family_cone(7, leafed=False), budget=10)
        assert err.value.required == 7**5
