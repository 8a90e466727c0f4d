"""Tests for the cyclic-composition and near-symmetry machine checks."""

import math

import pytest

from lapcomp import (
    BudgetExceededError,
    check_conjecture_cyclic,
    check_near_symmetry,
    compositions,
    count_cyclic_classes,
    cyclic_classes,
    integral_shift_profile,
    profile_entry_for,
)
from lapcomp import cone_engine, conjecture_lab
from lapcomp.cone_engine import _divide_exact, _one_minus_q_power, _poly_mul
from oracles import count_cyclic_classes_by_shifts


class TestCompositions:
    def test_lexicographic_and_complete(self):
        got = list(compositions(3, 2))
        assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]

    @pytest.mark.parametrize("m,n", [(0, 1), (4, 3), (6, 4), (2, 5)])
    def test_count(self, m, n):
        assert sum(1 for _ in compositions(m, n)) == math.comb(m + n - 1, n - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(compositions(-1, 2))
        with pytest.raises(ValueError):
            list(compositions(2, 0))


class TestCyclicClasses:
    def test_representatives_are_lexmin_and_sorted(self):
        classes = cyclic_classes(3, 3)
        reps = [c.representative for c in classes]
        assert reps == [(0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 1, 1)]
        for cls in classes:
            assert cls.representative == min(cls.rotations())
            assert cls.total == 3 and cls.parts == 3

    def test_orbit_sizes(self):
        by_rep = {c.representative: c.orbit_size for c in cyclic_classes(2, 4)}
        assert by_rep[(0, 1, 0, 1)] == 2
        assert by_rep[(0, 0, 1, 1)] == 4

    def test_rotations_keep_periodic_repeats(self):
        cls = next(
            c for c in cyclic_classes(2, 4) if c.representative == (0, 1, 0, 1)
        )
        assert len(cls.rotations()) == 4
        assert len(set(cls.rotations())) == 2

    def test_orbits_partition_all_compositions(self):
        for m, n in [(4, 3), (5, 4), (6, 2)]:
            classes = cyclic_classes(m, n)
            assert sum(c.orbit_size for c in classes) == math.comb(
                m + n - 1, n - 1
            )


class TestBurnsideCount:
    def test_examples(self):
        assert count_cyclic_classes(3, 3) == 4
        assert count_cyclic_classes(2, 3) == 2
        assert count_cyclic_classes(3, 4) == 5
        assert count_cyclic_classes(4, 4) == 10
        assert count_cyclic_classes(0, 5) == 1
        assert count_cyclic_classes(7, 1) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_explicit_orbits(self, n):
        for m in range(9):
            assert count_cyclic_classes(m, n) == len(cyclic_classes(m, n))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_per_shift_sum(self, n):
        for m in range(3 * n + 1):
            assert count_cyclic_classes(m, n) == count_cyclic_classes_by_shifts(m, n)

    def test_large_n(self):
        # One term per divisor of gcd(m, n), where the per-shift sum would
        # take n = 10**12 terms.  Two into n parts: a 2 somewhere, or two 1s
        # at cyclic distance 1..n/2.  Three into 3 | n parts: Burnside's
        # (C(n + 2, 3) + 2 * n/3) / n.
        n = 10**12
        assert count_cyclic_classes(0, n) == 1
        assert count_cyclic_classes(1, n) == 1
        assert count_cyclic_classes(2, n) == 1 + n // 2
        n = 3 * 10**11
        assert count_cyclic_classes(3, n) == ((n + 2) * (n + 1) + 4) // 6

    def test_divisor_totients(self):
        for g in range(1, 400):
            assert sorted(conjecture_lab._divisor_totients(g)) == [
                (k, sum(math.gcd(j, k) == 1 for j in range(k)))
                for k in range(1, g + 1) if g % k == 0
            ]

    def test_burnside_sum_must_divide(self, monkeypatch):
        # Keeping only the identity's term, 2 into 2 parts sums to the
        # C(3, 1) = 3 compositions, which 2 does not divide.
        monkeypatch.setattr(conjecture_lab, "_divisor_totients", lambda g: [(1, 1)])
        with pytest.raises(ArithmeticError, match="^Burnside sum not divisible by n$"):
            count_cyclic_classes(2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_cyclic_classes(-1, 3)
        with pytest.raises(ValueError):
            count_cyclic_classes(3, 0)


class TestShiftProfile:
    def test_three_three(self):
        profile = integral_shift_profile(3, 3)
        hits = {
            e.cyclic_class.representative: e.integral_rotations for e in profile
        }
        assert hits == {
            (0, 0, 3): 3,
            (0, 1, 2): 0,
            (0, 2, 1): 0,
            (1, 1, 1): 3,
        }

    def test_profile_entry_for_follows_rotation(self):
        profile = integral_shift_profile(3, 3)
        assert [
            profile_entry_for(profile, c).integral_rotations
            for c in [(3, 0, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)]
        ] == [3, 0, 0, 3]

    def test_profile_entry_for_unknown(self):
        profile = integral_shift_profile(3, 3)
        with pytest.raises(KeyError):
            profile_entry_for(profile, (4, 0, 0))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_single_congruence(self, n):
        # The profile tests integrality through the full scaled inverse; the
        # single digit congruence, weights (0, n-1, ..., 1), must induce
        # the same hit counts.
        weights = (0,) + tuple(range(n - 1, 0, -1))
        for m in range(6):
            for entry in integral_shift_profile(n, m):
                expected = sum(
                    sum(w * x for w, x in zip(weights, rot)) % n == 0
                    for rot in entry.cyclic_class.rotations()
                )
                assert entry.integral_rotations == expected

    def test_coprime_weight_gives_one_hit_per_class(self):
        for m in (1, 2, 4, 5):
            for entry in integral_shift_profile(3, m):
                assert entry.integral_rotations == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_shift_profile(2, 3)


class TestCyclicCheck:
    def test_small_cycle_matches(self):
        report = check_conjecture_cyclic(3, 12)
        assert report.all_match and report.first_mismatch is None
        assert len(report.rows) == 13
        assert [row["lhs"] for row in report.rows] == [
            1, 1, 2, 4, 5, 7, 10, 12, 15, 19, 22, 26, 31,
        ]
        assert all(row["lhs"] == row["rhs"] for row in report.rows)

    def test_degenerate_two_cycle(self):
        report = check_conjecture_cyclic(2, 8)
        assert report.all_match

    def test_json_uses_decimal_strings(self):
        data = check_conjecture_cyclic(3, 2).to_json_dict()
        assert data["n"] == "3" and data["m_max"] == "2"
        assert data["rows"][2] == {
            "n": "3", "m": "2", "lhs": "2", "rhs": "2", "match": True,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            check_conjecture_cyclic(1, 5)
        with pytest.raises(ValueError):
            check_conjecture_cyclic(3, -1)

    def test_series_is_charged_before_it_expands(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("the series was expanded")

        with pytest.raises(BudgetExceededError) as err:
            check_conjecture_cyclic(4, 10**8)
        assert err.value.required == (10**8 + 1) * (1 + 4)
        monkeypatch.setattr(cone_engine, "_times_geometric", no_expansion)
        with pytest.raises(BudgetExceededError) as err:
            check_conjecture_cyclic(3, 5, budget=11)
        assert err.value.required == 12
        assert str(err.value) == "series needs 12 coefficient updates; budget is 11"


class TestExactDivision:
    def test_exact(self):
        # (1 - q^2) * (1 + q + q^2) = 1 + q - q^3 - q^4
        assert _divide_exact([1, 1, 0, -1, -1], 2) == [1, 1, 1]

    def test_inexact_returns_none(self):
        assert _divide_exact([1, 1], 1) is None

    def test_zero_dividend(self):
        assert _divide_exact([0], 3) == [0]

    def test_round_trip(self):
        p = [3, -1, 4, 1, -5, 9, 2, 6]
        for e in (1, 2, 3):
            prod = _poly_mul(p, _one_minus_q_power(e, 1))
            assert _divide_exact(prod, e) == p


class TestNearSymmetry:
    def test_k2_division_exact_but_target_misses(self):
        report = check_near_symmetry(2)
        assert report.n == 4
        assert report.division_exact
        assert report.f == [1, -1, 1, 1]
        assert report.difference == [1, -2, 0, 2, -1]
        assert report.expected == [1, 0, 0, 0, -2, 0, 0, 0, 1]
        assert report.verdict is False

    def test_k2_numerator_identity_holds(self):
        report = check_near_symmetry(2)
        assert report.numerator_match
        # (1 - q^4)^3
        assert report.numerator_expected == [
            1, 0, 0, 0, -3, 0, 0, 0, 3, 0, 0, 0, -1,
        ]
        assert report.numerator_difference == report.numerator_expected

    def test_k3_division_exact_and_numerator_identity(self):
        report = check_near_symmetry(3)
        assert report.n == 8
        assert report.division_exact
        assert report.f == [1, -3, 5, 3, -4, 4, 6, -4, 7, -1, 1, 1]
        assert report.verdict is False
        assert report.numerator_match

    def test_json_round_trip_types(self):
        data = check_near_symmetry(2).to_json_dict()
        assert data["f"] == ["1", "-1", "1", "1"]
        assert data["verdict"] is False
        assert data["numerator_match"] is True

    def test_validation(self):
        with pytest.raises(ValueError):
            check_near_symmetry(1)
