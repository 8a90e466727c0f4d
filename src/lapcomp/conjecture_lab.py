"""Machine checks for the cyclic-composition and near-symmetry conjectures.

Two counting questions are compared here.  The first: does the coefficient
of q^m in the leafed-cycle generating function equal the number of cyclic
equivalence classes of weak compositions of m into n parts?  The class count
comes from Burnside's lemma, the coefficient from the engine's digit-class
DP, so the two sides are computed by unrelated methods.  The second: for
n = 2^k, does a prescribed rescaling of the generating function produce an
almost palindromic polynomial whose asymmetry is (1 - q^n)^(n-2)?"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .cone_engine import (
    _divide_exact, _json_form, _one_minus_q_power, _poly_mul, _poly_trim,
    series_expand,
)
from .cycle_families import _leafed_minor_pair, leafed_gf

__all__ = [
    "compositions",
    "CyclicClass",
    "cyclic_classes",
    "count_cyclic_classes",
    "ShiftProfileEntry",
    "integral_shift_profile",
    "profile_entry_for",
    "CyclicCheckReport",
    "check_conjecture_cyclic",
    "NearSymmetryReport",
    "check_near_symmetry",
]


def compositions(m: int, n: int):
    """Weak compositions of m into n parts, in lexicographic order."""
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if n == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in compositions(m - first, n - 1):
            yield (first,) + rest


class CyclicClass(NamedTuple):
    """A rotation orbit of compositions, named by its smallest element."""

    representative: tuple[int, ...]
    orbit_size: int
    total: int
    parts: int

    def rotations(self) -> list[tuple[int, ...]]:
        """All n rotations of the representative (with repeats if periodic)."""
        return _rotations(self.representative)


def _rotations(c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The len(c) rotations of c, shift 0 first (with repeats if periodic)."""
    return [c[t:] + c[:t] for t in range(len(c))]


def cyclic_classes(m: int, n: int) -> list[CyclicClass]:
    """All rotation orbits of weak compositions of m into n parts."""
    seen = set()
    classes = []
    for c in compositions(m, n):
        rots = _rotations(c)
        rep = min(rots)
        if rep not in seen:
            seen.add(rep)
            classes.append(CyclicClass(rep, len(set(rots)), m, n))
    classes.sort()
    return classes


def count_cyclic_classes(m: int, n: int) -> int:
    """Number of rotation orbits, by Burnside's lemma.

    A shift g fixes a composition iff the composition has period
    d = gcd(g, n), which requires k = n/d to divide m and then leaves
    C(m/k + d - 1, d - 1) choices.  phi(k) of the n shifts have that
    period, so the sum runs over the divisors k of gcd(m, n), one term
    each.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    total = 0
    for k, phi in _divisor_totients(math.gcd(m, n)):
        d = n // k
        total += phi * math.comb(m // k + d - 1, d - 1)
    if total % n:
        raise ArithmeticError("Burnside sum not divisible by n")
    return total // n


def _divisor_totients(g: int) -> list[tuple[int, int]]:
    """(k, phi(k)) for every divisor k of g >= 1, built prime by prime from
    g's factorization by trial division."""
    pairs = [(1, 1)]
    p = 2
    while p * p <= g:
        if g % p == 0:
            powers = [(1, 1)]  # (p^i, phi(p^i))
            q = p
            while g % p == 0:
                g //= p
                powers.append((q, q - q // p))
                q *= p
            pairs = [(k * a, phi * b) for k, phi in pairs for a, b in powers]
        p += 1
    if g > 1:
        pairs += [(k * g, phi * (g - 1)) for k, phi in pairs]
    return pairs


class ShiftProfileEntry(NamedTuple):
    """How many of the n rotations of a class map to cone lattice points."""

    cyclic_class: CyclicClass
    integral_rotations: int


def integral_shift_profile(n: int, m: int) -> list[ShiftProfileEntry]:
    """For each rotation class of compositions of m into n parts, count the
    shifts t for which the leafed minor inverse sends the shifted
    composition to an integer vector.

    The test multiplies by the scaled integer inverse R = n * L^{-1} and
    checks divisibility by n, which is the exact rational product in scaled
    form; the single-congruence description of the solution set is never
    consulted, so this stays an independent oracle for it.
    """
    if n < 3:
        raise ValueError("shift profile needs n >= 3")
    _, r = _leafed_minor_pair(n)
    rows = [r.row(i) for i in range(r.rows)]
    profile = []
    for cls in cyclic_classes(m, n):
        hits = 0
        for c in cls.rotations():
            if all(
                sum(a * b for a, b in zip(row, c)) % n == 0 for row in rows
            ):
                hits += 1
        profile.append(ShiftProfileEntry(cls, hits))
    return profile


def profile_entry_for(profile: Sequence[ShiftProfileEntry],
                      composition: tuple[int, ...]) -> ShiftProfileEntry:
    """The profile entry whose orbit contains the given composition."""
    rep = min(_rotations(composition))
    for entry in profile:
        if entry.cyclic_class.representative == rep:
            return entry
    raise KeyError(f"no class contains {composition}")


class CyclicCheckReport(NamedTuple):
    n: int
    m_max: int
    rows: list[dict]
    all_match: bool
    first_mismatch: Optional[int]

    def to_json_dict(self) -> dict:
        return _json_form({
            "n": self.n,
            "m_max": self.m_max,
            "rows": [{"n": self.n, **row} for row in self.rows],
            "all_match": self.all_match,
        })


def check_conjecture_cyclic(n: int, m_max: int,
                            budget: Optional[int] = None) -> CyclicCheckReport:
    """Compare generating-function coefficients with Burnside class counts
    for every m <= m_max; the series expansion is charged to the budget."""
    if n < 2:
        raise ValueError("cyclic check needs n >= 2")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    series = series_expand(leafed_gf(n), m_max, budget)
    rows = []
    first_mismatch = None
    for m in range(m_max + 1):
        lhs = series[m]
        rhs = count_cyclic_classes(m, n)
        match = lhs == rhs
        if not match and first_mismatch is None:
            first_mismatch = m
        rows.append({"m": m, "lhs": lhs, "rhs": rhs, "match": match})
    return CyclicCheckReport(n, m_max, rows, first_mismatch is None,
                             first_mismatch)


class NearSymmetryReport(NamedTuple):
    k: int
    n: int
    division_exact: bool
    f: Optional[list[int]]
    difference: Optional[list[int]]
    expected: list[int]
    verdict: bool
    numerator_difference: list[int]
    numerator_expected: list[int]
    numerator_match: bool

    def to_json_dict(self) -> dict:
        return _json_form(self._asdict())


def check_near_symmetry(k: int) -> NearSymmetryReport:
    """Run the near-symmetry pipeline for n = 2^k.

    Computes f(q) = N(q) * D(q) / (1 - q^n)^n by exact division, where N is
    the digit-sum numerator and D = (1 - q^n) * prod_i (1 -
    q^(2^(k-i-1)))^(2^i); appends a zero to f's coefficients, subtracts the
    reversed list, and compares against (1 - q^n)^(n-2).  An inexact
    division or a mismatch is reported as a negative verdict, not an error;
    after an inexact one, f and the difference are None.

    The report also carries a numerator-level diagnostic: the same
    append-and-reverse difference applied to N itself, compared against
    (1 - q^n)^(n-1), which is the sharper identity the data actually
    satisfies.
    """
    if k < 2:
        raise ValueError("near-symmetry check needs k >= 2")
    n = 2**k
    numerator = leafed_gf(n).numerator
    target_den = _one_minus_q_power(n, 1)
    for i in range(k):
        target_den = _poly_mul(target_den, _one_minus_q_power(2 ** (k - i - 1), 2**i))
    expected = _one_minus_q_power(n, n - 2)

    # Numerator-level diagnostic, independent of the division below.
    padded = list(numerator) + [0] * (n * (n - 1) + 1 - len(numerator))
    numerator_difference = [
        a - b for a, b in zip(padded, reversed(padded))
    ]
    numerator_expected = _one_minus_q_power(n, n - 1)
    numerator_match = numerator_difference == numerator_expected

    product = _poly_mul(numerator, target_den)
    f: Optional[list[int]] = _poly_trim(product)
    for _ in range(n):
        f = _divide_exact(f, n)
        if f is None:
            break
    difference = None
    if f is not None:
        appended = list(f) + [0]
        difference = [a - b for a, b in zip(appended, reversed(appended))]
    return NearSymmetryReport(
        k, n, f is not None, f, difference, expected, difference == expected,
        numerator_difference, numerator_expected, numerator_match,
    )
