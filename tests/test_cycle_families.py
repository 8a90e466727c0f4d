"""Tests for cycle and leafed-cycle closed forms and congruence solvers."""

import itertools

import pytest

from lapcomp import (
    BudgetExceededError,
    CongruenceSystem,
    adjugate_pair,
    cone_from_constraints,
    cycle_graph,
    cycle_inverse_closed,
    cycle_multivariate_gf,
    cycle_system,
    fpp_points,
    integer_point_transform,
    laplacian_minor,
    leafed_cycle_graph,
    leafed_gf,
    leafed_inverse_closed,
    leafed_system,
    mod_structure,
    phi_histogram_dp,
    phi_zero_histogram_dp,
    series_expand,
    solve_Sn,
    specialize,
)


def brute_solutions(system):
    n, k = system.modulus, system.digits
    return [
        c
        for c in itertools.product(range(n), repeat=k)
        if sum(w * x for w, x in zip(system.weights, c)) % n == 0
    ]


class TestSystems:
    def test_cycle_weights(self):
        assert cycle_system(5).weights == (4, 3, 2, 1)
        assert cycle_system(5).modulus == 5

    def test_leafed_weights(self):
        assert leafed_system(5).weights == (0, 4, 3, 2, 1)
        assert leafed_system(3).weights == (0, 2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            CongruenceSystem(1, (0,))
        with pytest.raises(ValueError):
            cycle_system(1)

    def test_weights_reduced_mod_n(self):
        assert CongruenceSystem(3, (5, -1)).weights == (2, 2)


class TestClosedInverses:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_matches_algebra(self, n):
        minor = laplacian_minor(cycle_graph(n), n - 1)
        assert adjugate_pair(minor.matrix) == (n, cycle_inverse_closed(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_leafed_matches_algebra(self, n):
        minor = laplacian_minor(leafed_cycle_graph(n), n)
        assert adjugate_pair(minor.matrix) == (n, leafed_inverse_closed(n))

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
    @pytest.mark.parametrize("n", range(2, 7))
    def test_leafed_solution_set(self, n):
        sols = list(solve_Sn(leafed_system(n)))
        assert sols == brute_solutions(leafed_system(n))
        assert len(sols) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_cycle_solution_set(self, n):
        sols = list(solve_Sn(cycle_system(n)))
        assert sols == brute_solutions(cycle_system(n))
        assert len(sols) == n ** (n - 2)

    def test_lexicographic_order(self):
        sols = list(solve_Sn(leafed_system(4)))
        assert sols == sorted(sols)

    def test_no_invertible_weight_falls_back_to_filtering(self):
        system = CongruenceSystem(4, (2, 2))
        assert list(solve_Sn(system)) == brute_solutions(system)

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            list(solve_Sn(leafed_system(6), budget=100))
        assert err.value.required == 6**5


class TestPhiHistograms:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_histogram_matches_enumeration(self, n):
        hist = phi_histogram_dp(n)
        assert len(hist) == n * (n - 1) + 1
        expected = [0] * (n * (n - 1) + 1)
        for c in solve_Sn(leafed_system(n)):
            expected[sum(c)] += 1
        assert hist == expected
        assert sum(hist) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_zero_histogram_matches_enumeration(self, n):
        joint = phi_zero_histogram_dp(n)
        expected: dict = {}
        for c in solve_Sn(leafed_system(n)):
            key = (sum(c), c.count(0))
            expected[key] = expected.get(key, 0) + 1
        assert joint == expected
        # marginal over zero counts reproduces the plain histogram
        hist = phi_histogram_dp(n)
        for phi in range(len(hist)):
            assert hist[phi] == sum(
                v for (s, _), v in joint.items() if s == phi
            )

    def test_leafed_three_histogram(self):
        # 9 solutions with digit sums {0,1,2,2,3,4,4,5,6}
        assert phi_histogram_dp(3) == [1, 1, 2, 1, 2, 1, 1]


class TestGeneratingFunctions:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_leafed_gf_matches_parallelepiped_route(self, n):
        minor = laplacian_minor(leafed_cycle_graph(n), n)
        cone = cone_from_constraints(minor.matrix)
        via_fpp = specialize(integer_point_transform(cone), "first_coordinate")
        assert leafed_gf(n) == via_fpp

    def test_leafed_three_series(self):
        assert series_expand(leafed_gf(3), 8) == [1, 1, 2, 4, 5, 7, 10, 12, 15]

    @pytest.mark.parametrize("n", range(3, 6))
    def test_cycle_transform_matches_parallelepiped_route(self, n):
        minor = laplacian_minor(cycle_graph(n), n - 1)
        cone = cone_from_constraints(minor.matrix)
        assert cycle_multivariate_gf(n) == integer_point_transform(cone)

    def test_cycle_transform_budget(self):
        with pytest.raises(BudgetExceededError):
            cycle_multivariate_gf(7, budget=10)
