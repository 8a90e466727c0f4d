"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each test measures its own runtime against the stated bound and records a
single line through ``record``; the conftest repeats those lines in the
terminal summary.  Criterion 8 is split: the exact-division half holds, the
stated difference identity does not (the computed difference is recorded),
so that half is a strict expected failure rather than a silent skip.
"""

import math
import random
import time

import pytest

from lapcomp import (
    BudgetExceededError,
    SimplicialCone,
    brute_force_count,
    build_family,
    build_slice_simplex,
    check_conjecture_cyclic,
    check_near_symmetry,
    h_star,
    integer_point_transform,
    integral_shift_profile,
    kary_exponent,
    kary_gf,
    kary_tree,
    laplacian_minor,
    leafed_gf,
    normality_probe,
    profile_entry_for,
    random_tree,
    reflexivity_by_halfspaces,
    reflexivity_by_interior_counts,
    series_expand,
    specialize,
    tree_gf,
    verify_tree_identities,
)

ACCEPTANCE_LINES = []


def record(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def minor_cone(family, *params, vertex=None):
    g = build_family(family, *params)
    if vertex is None:
        vertex = g.vertex_count - 1
    return SimplicialCone(laplacian_minor(g, vertex))


def test_criterion_01_shift_profile_example():
    start = time.monotonic()
    profile = integral_shift_profile(3, 3)
    counts = tuple(
        profile_entry_for(profile, c).integral_rotations
        for c in [(3, 0, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)]
    )
    elapsed = time.monotonic() - start
    ok = counts == (3, 0, 0, 3) and elapsed < 1
    record(1, ok, f"shift profile counts {counts} in {elapsed:.3f}s")
    assert counts == (3, 0, 0, 3)
    assert elapsed < 1


def test_criterion_02_first_coordinate_identity():
    start = time.monotonic()
    checked = 0
    for n in range(3, 7):
        cone = minor_cone("leafed_cycle", n)
        series = series_expand(leafed_gf(n), 3 * n)
        budget = 10**10 if n == 6 else None
        for m in range(3 * n + 1):
            assert series[m] == brute_force_count(
                cone.A, "first_coordinate", m, budget=budget
            ), (n, m)
            checked += 1
    elapsed = time.monotonic() - start
    record(
        2, elapsed < 60,
        f"digit-sum gf = brute force at {checked} (n, m) pairs, "
        f"n <= 6, in {elapsed:.1f}s",
    )
    assert elapsed < 60


def test_criterion_03_cyclic_class_counts():
    start = time.monotonic()
    for n in range(3, 9):
        report = check_conjecture_cyclic(n, 3 * n)
        assert report.all_match, (n, report.first_mismatch)
    elapsed = time.monotonic() - start
    record(
        3, elapsed < 120,
        f"gf coefficient = cyclic class count for n in 3..8, m <= 3n, "
        f"in {elapsed:.2f}s",
    )
    assert elapsed < 120


def test_criterion_04_unique_integral_rotation():
    start = time.monotonic()
    for n in (3, 5, 7):
        for m in range(0, 2 * n + 1):
            profile = integral_shift_profile(n, m)
            if math.gcd(m, n) == 1:
                assert all(
                    e.integral_rotations == 1 for e in profile
                ), (n, m)
            elif m % n == 0:
                assert all(
                    e.integral_rotations in (0, n) for e in profile
                ), (n, m)
    elapsed = time.monotonic() - start
    record(
        4, elapsed < 120,
        f"one integral rotation per class (coprime m), 0-or-n (n | m), "
        f"primes 3/5/7, in {elapsed:.2f}s",
    )
    assert elapsed < 120


def test_criterion_05_tree_identity_suite():
    start = time.monotonic()
    rng = random.Random(20260814)
    for _ in range(200):
        t = random_tree(rng.randint(2, 12), rng)
        leaf = rng.choice(t.leaves())
        failures = verify_tree_identities(t, leaf)
        assert failures == [], (t.edges, leaf, failures)
    elapsed = time.monotonic() - start
    record(
        5, elapsed < 30,
        f"200 random trees pass combinatorial/incidence/block-reduction "
        f"identities in {elapsed:.1f}s",
    )
    assert elapsed < 30


def test_criterion_06_kary_closed_form():
    start = time.monotonic()
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            assert kary_gf(k, n) == tree_gf(kary_tree(k, n), 0), (k, n)
    for n in range(1, 13):
        for j in range(1, n + 1):
            assert kary_exponent(2, n, j) == 2 ** (n - j + 1) * (2**j - 1) - j
    elapsed = time.monotonic() - start
    record(
        6, elapsed < 10,
        f"k-ary closed form = tree pipeline (k, n <= 3) and binary "
        f"exponent identity (n <= 12) in {elapsed:.2f}s",
    )
    assert elapsed < 10


def test_criterion_07_reflexivity():
    start = time.monotonic()
    for p in (3, 5, 7):
        rep = reflexivity_by_halfspaces(p)
        assert rep.reflexive and rep.rhs == (-1,) * p, p
        assert h_star(build_slice_simplex(p)).unimodal, p
    for n in range(3, 9):
        agree = reflexivity_by_halfspaces(n).reflexive
        counts = reflexivity_by_interior_counts(
            build_slice_simplex(n), max(1, n - 1)
        )
        assert agree == counts, n
    assert h_star(build_slice_simplex(3)).h_star == (1, 1, 1)
    assert reflexivity_by_halfspaces(8).reflexive is False
    elapsed = time.monotonic() - start
    record(
        7, elapsed < 300,
        f"halfspace certificates (3/5/7), route agreement (3..8), "
        f"h*=(1,1,1) at 3, non-reflexive at 8, in {elapsed:.2f}s",
    )
    assert elapsed < 300


def test_criterion_08_near_symmetry_division():
    start = time.monotonic()
    reports = {k: check_near_symmetry(k) for k in (2, 3)}
    for k, rep in reports.items():
        assert rep.division_exact, k
        assert rep.f is not None, k
        assert rep.numerator_match, k
    assert reports[2].f == [1, -1, 1, 1]
    elapsed = time.monotonic() - start
    record(
        "8 (division)", True,
        f"exact division produces f for k in {{2, 3}} and the "
        f"numerator-level identity holds, in {elapsed:.2f}s",
    )
    assert elapsed < 60


@pytest.mark.xfail(
    strict=True,
    reason="the computed difference is not the stated binomial "
    "alternating sum for either k; see notes on the k=2 value "
    "[1, -2, 0, 2, -1] vs (1 - q^4)^2",
)
def test_criterion_08_near_symmetry_difference():
    start = time.monotonic()
    matches = {}
    for k in (2, 3):
        rep = check_near_symmetry(k)
        matches[k] = rep.verdict
    elapsed = time.monotonic() - start
    ok = all(matches.values())
    rep2 = check_near_symmetry(2)
    record(
        "8 (difference)", ok,
        f"append-zero-minus-reverse difference vs (1-q^n)^(n-2): "
        f"k=2 gives {rep2.difference}, expected {rep2.expected}; "
        f"verdicts {matches} in {elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 60


def test_criterion_09_cone_oracle_equivalence():
    start = time.monotonic()
    checked = 0

    def sweep(cone, m_max, budget=None):
        nonlocal checked
        gf = specialize(integer_point_transform(cone, budget=budget), "total")
        series = series_expand(gf, m_max)
        for m in range(m_max + 1):
            assert series[m] == brute_force_count(
                cone.A, "total", m, budget=budget
            ), (cone.A, m)
            checked += 1
        return gf

    for n in range(2, 7):
        sweep(minor_cone("path", n), 3)
    for k, levels in [(2, 2), (3, 2), (4, 2)]:
        sweep(minor_cone("kary", k, levels, vertex=0), 3)
    for n in range(3, 7):
        sweep(minor_cone("cycle", n), 3 * n)
        sweep(minor_cone("leafed_cycle", n), 3 * n)
    sweep(minor_cone("complete", 3), 9)
    sweep(minor_cone("complete", 4), 48)

    # complete:5 (d = 125): full sweep to 60, single probe at m = 3d
    k5 = minor_cone("complete", 5)
    gf5 = sweep(k5, 60, budget=10**11)
    probe = series_expand(gf5, 375)[375]
    assert probe == brute_force_count(k5.A, "total", 375, budget=10**11)
    checked += 1

    # complete:6 (d = 1296): the parallelepiped itself is out of reach;
    # the required size must be reported exactly
    k6 = minor_cone("complete", 6)
    with pytest.raises(BudgetExceededError) as err:
        integer_point_transform(k6)
    assert err.value.required == 1296**4

    elapsed = time.monotonic() - start
    record(
        9, elapsed < 120,
        f"transform series = box counts at {checked} points across all "
        f"families (complete:5 probed at m=375, complete:6 reports "
        f"required size 1296^4), in {elapsed:.1f}s",
    )
    assert elapsed < 120


def test_criterion_10_normality_probe():
    start = time.monotonic()
    for p in (3, 5):
        report = normality_probe(build_slice_simplex(p), m_max=2)
        assert report.normal_up_to == 2, (p, report)
        assert report.counterexample is None, p
    elapsed = time.monotonic() - start
    record(
        10, elapsed < 60,
        f"m <= 2 sumset normality evidence for p in {{3, 5}} "
        f"in {elapsed:.2f}s",
    )
    assert elapsed < 60
