"""Simplicial cones, fundamental parallelepipeds, and their transforms.

A cone is given by an invertible integer constraint matrix A as
C = {x : A x >= 0}.  With d = |det A| and R = d * A^{-1}, the columns of R
are integral ray generators, and the half-open parallelepiped they span
contains exactly d**(n-1) lattice points.  `SimplicialCone(A)` runs one
forward elimination over [A^T | w] for the two weight forms w below,
which gives d and is kept; R is solved for on first read, so a query
refused on its d**(n-1) charge never builds it.  The parallelepiped
points form the numerator of the integer point transform

    sigma_C(z) = (sum over parallelepiped points w of z^w)
                 / prod over ray columns v of (1 - z^v),

which can be specialized to a univariate rational generating function by
sending every variable to q ("total") or only the first one ("first
coordinate").  `fpp_points` lists the points of a walk along the reduced
triangular (Hermite) basis h of the valid digit vectors, in lexicographic
order with no sort; the column operations that give h also give each
step's point A^-1*h_j, so the walk never builds R.  It yields blocks of
at most `_BLOCK` points as coordinate columns, so `lapcomp fpp` prints a
block at a time.  The transform's numerator is ordered by the point
instead of its digits: the same walk runs on points packed into one int
each by `_field_shifts`, coordinate 0 highest, and one int sort orders
them.  Every point lies in the box lo <= lam <= hi, where lo_i and hi_i
sum the negative and the positive entries of row i of R, since
lam = R*c/d with each c_j < d; field i spans hi_i - lo_i and holds
lam_i - lo_i, so no field carries or borrows into the next and int order
is lexicographic point order.  `lapcomp gf` prints the sorted points a
block at a time as they are unpacked, and `integer_point_transform`
makes its tuples from the same blocks.
`specialized_gf` takes one route for every cone.  Back substitution on
the kept pass gives the ray exponents s = w^T R of a weight form w, and a
specialized gf num(q) / prod_j (1 - q^(s_j)) exists only if every s_j is
positive, which is checked first; a unimodular cone (d = 1, as for a tree
minored anywhere) then has num = 1 and needs no second elimination.  For
d > 1, a point's exponent is linear in its digits, so a DP over the d
classes of the critical group Z^n / A*Z^n counts them instead of walking
them.  Its slots are exponents, and it runs each column's digits only up
to that column's order in the group, then multiplies the rest in as a
geometric factor.  Prefer it to `specialize(integer_point_transform(...))`
unless the points or the multivariate transform are needed too.  The one
box scan, independent of both, backs `brute_force_count` and slice
dilates.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import add, and_, lshift, mod, mul, rshift, sub
from typing import Iterable, Iterator, Literal, Optional, Sequence

from .exact_linalg import (
    IntegerMatrix, SingularMatrixError, _back_substitute, _eliminate, adjugate_pair,
)
from .graph_core import _is_decimal, _is_int

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "SimplicialCone",
    "IntegerPointTransform",
    "UnivariateRationalGF",
    "cone_from_constraints",
    "fpp_points",
    "integer_point_transform",
    "specialize",
    "specialized_gf",
    "series_expand",
    "brute_force_count",
]

# Cap on enumeration work (number of parallelepiped candidates / box cells).
DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class SimplicialCone:
    """The cone {x : Ax >= 0} of an invertible integer matrix A, with
    d = |det A| and the ray matrix R = d*A^{-1}.

    Building it runs one forward pass over [A^T | w_total | w_first], the
    weight forms of both specialization modes in the order of `_MODES`:
    det A^T = det A gives d, and the pass's rows are kept, from which
    `specialized_gf` back-substitutes the ray exponents.  R is built on
    first read, by `adjugate_pair`, an independent elimination that must
    give the same d; a query that refuses on d alone never builds it.
    """

    __slots__ = ("A", "d", "_R", "_upper")

    def __init__(self, A: IntegerMatrix):
        if not A.is_square:
            raise ValueError("constraint matrix must be square")
        n = A.rows
        weights = zip(*(_mode_weights(mode, n) for mode in _MODES))
        D, self._upper = _eliminate([[*col, *w] for col, w in zip(zip(*A), weights)], n)
        if D == 0:
            raise SingularMatrixError("matrix is singular")
        self.A, self.d, self._R = A, abs(D), None

    @property
    def R(self) -> IntegerMatrix:
        if self._R is None:
            d, R = adjugate_pair(self.A)
            if d != self.d:
                raise ArithmeticError(f"ray matrix has d = {d}, the cone d = {self.d}")
            self._R = R
        return self._R

    @property
    def dimension(self) -> int:
        return self.A.rows

    def rays(self) -> list[tuple[int, ...]]:
        return [self.R.column(j) for j in range(self.R.cols)]

    def __repr__(self):
        return f"SimplicialCone(dim={self.dimension}, d={self.d})"


class IntegerPointTransform:
    """Multivariate rational generating function of a simplicial cone.

    Stored as exponent vectors: `numerator` lists one vector per
    parallelepiped lattice point, `denominator` one vector per ray.  Both
    are kept sorted so that transforms produced by different pipelines
    compare equal.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Iterable[Sequence[int]],
                 denominator: Iterable[Sequence[int]]):
        self.numerator = tuple(sorted(map(tuple, numerator)))
        self.denominator = tuple(sorted(map(tuple, denominator)))
        if not self.numerator or not self.denominator:
            raise ValueError("transform needs a numerator and a denominator")

    def __eq__(self, other):
        if isinstance(other, IntegerPointTransform):
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __str__(self):
        num = " + ".join(_monomial(v) for v in self.numerator)
        den = "".join(f"(1 - {_monomial(v, force=True)})"
                      for v in self.denominator)
        return f"({num})/({den})"

    def to_json_dict(self) -> dict:
        return _json_form({
            "numerator": self.numerator,
            "denominator": [{"ray": ray, "mult": mult} for ray, mult
                            in sorted(Counter(self.denominator).items())],
        })


def _json_form(value):
    """The package's JSON form of a value: every int that is not a bool,
    at any depth, becomes its decimal string, because coefficients,
    exponents and class counts outgrow 64 bits.  bool, None and str pass
    through, a dict keeps its key order, and any other iterable (a tuple,
    the rows of an IntegerMatrix) becomes a list."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_form(v) for key, v in value.items()}
    return [_json_form(v) for v in value]


def _integer(value, where: str) -> int:
    """Strict inverse of `_json_form` for one integer: a string that
    `_is_decimal` accepts or a JSON integer that is not a bool.  Anything
    else, such as 1.5, true, "1_0" or " 3", is a ValueError naming the
    field `where`."""
    if _is_decimal(value) or _is_int(value):
        return int(value)
    raise ValueError(f"{where} must be an integer or a decimal string, got {value!r}")


def _integers(value, where: str, length: Optional[int] = None) -> tuple[int, ...]:
    """A JSON list of integers, `length` of them when given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length}"
        raise ValueError(f"{where} must be a list{size}, got {value!r}")
    return tuple(_integer(e, f"{where}[{i}]") for i, e in enumerate(value))


def _list_field(data, key: str) -> list:
    """The list `data[key]` of the top-level JSON object `data`."""
    if isinstance(data, dict) and isinstance(data.get(key), list):
        return data[key]
    raise ValueError(f"the top level must be a JSON object with a list {key!r}")


def _poly_trim(p: Iterable[int]) -> list[int]:
    """Coefficient list with trailing zeros dropped, keeping at least one."""
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _one_minus_q_power(e: int, m: int) -> list[int]:
    """Coefficients of (1 - q^e)^m."""
    out = [0] * (e * m + 1)
    for i in range(m + 1):
        out[e * i] = (-1) ** i * math.comb(m, i)
    return out


def _times_geometric(coeffs: list[int], e: int) -> None:
    """Multiply a truncated power series by 1/(1 - q^e), in place."""
    for i in range(e, len(coeffs)):
        coeffs[i] += coeffs[i - e]


def _times_binomial_series(coeffs: list[int], e: int, m: int) -> list[int]:
    """A truncated power series times (1 - q^e)^-m, whose series has
    C(m - 1 + k, k) at q^(e*k): one pass per k with e*k in range, however
    large m is."""
    out = list(coeffs)
    c = 1
    for k in range(1, (len(coeffs) - 1) // e + 1):
        c = c * (m - 1 + k) // k
        out[e * k:] = map(add, out[e * k:], map(c.__mul__, coeffs))
    return out


def _divide_exact(p: Sequence[int], e: int) -> Optional[list[int]]:
    """Quotient of p by (1 - q^e), or None if the division is inexact."""
    running = list(p)
    _times_geometric(running, e)
    split = max(len(running) - e, 0)
    if any(running[split:]):
        return None
    return _poly_trim(running[:split]) if split else [0]


class UnivariateRationalGF:
    """Rational generating function num(q) / prod (1 - q^e)^m.

    The numerator is a dense coefficient list (constant term first, trailing
    zeros trimmed); the denominator is a sorted tuple of (exponent,
    multiplicity) pairs with equal exponents merged.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Iterable[int],
                 denominator: Iterable[tuple[int, int]]):
        coeffs = _poly_trim(numerator)
        if not coeffs:
            raise ValueError("empty numerator")
        merged: Counter = Counter()
        for e, m in denominator:
            if e < 1 or m < 1:
                raise ValueError(f"invalid denominator factor (1 - q^{e})^{m}")
            merged[e] += m
        self.numerator = tuple(coeffs)
        self.denominator = tuple(sorted(merged.items()))

    def __eq__(self, other):
        if isinstance(other, UnivariateRationalGF):
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __str__(self):
        num = polynomial_string(self.numerator)
        if not self.denominator:
            return num
        den = "".join(
            f"(1 - q^{e})" + (f"^{m}" if m > 1 else "")
            for e, m in self.denominator
        )
        if len(self.numerator) > 1:
            num = f"({num})"
        return f"{num}/{den}"

    def to_json_dict(self) -> dict:
        return _json_form({"num": self.numerator, "den": self.denominator})

    @classmethod
    def from_json_dict(cls, data: dict) -> "UnivariateRationalGF":
        """Strict inverse of `to_json_dict`; see `_integer`."""
        return cls(_integers(_list_field(data, "num"), "num"),
                   [_integers(pair, f"den[{i}]", 2)
                    for i, pair in enumerate(_list_field(data, "den"))])


def _monomial(exponents: Sequence[int], force: bool = False) -> str:
    if not force and all(e == 0 for e in exponents):
        return "1"
    return "z^(" + ",".join(str(e) for e in exponents) + ")"


def polynomial_string(coeffs: Sequence[int]) -> str:
    """Human-readable form of a dense coefficient list."""
    terms = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    if not terms:
        return "0"
    return " ".join(terms)


# The specialization modes, in the order of their weight columns in a
# cone's kept forward pass.
_MODES = ("total", "first_coordinate")


def cone_from_constraints(A: IntegerMatrix) -> SimplicialCone:
    """Cone {x : Ax >= 0} for invertible A: `SimplicialCone(A)`."""
    return SimplicialCone(A)


def _column_hermite(A: IntegerMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """(h, u): the reduced lower-triangular basis h of the column lattice
    of A, with a positive diagonal and 0 <= h[r][j] < h[r][r] for every
    j < r, and the integral columns u[j] with A*u[j] = h_j.

    Uses gcd-style integer column operations only, so the column span over
    the integers is preserved exactly; each column carries an identity
    block under A, so the same operations turn it into u.  The reduction
    subtracts multiples of column r from the columns left of it, which
    leaves rows 0..r-1 alone.
    """
    n = A.rows
    cols = [[*A.column(j), *(int(i == j) for i in range(n))] for j in range(n)]
    for i in range(n):
        while True:
            nonzero = [j for j in range(i, n) if cols[j][i] != 0]
            if not nonzero:
                raise ValueError("matrix is singular")
            j_min = min(nonzero, key=lambda j: abs(cols[j][i]))
            cols[i], cols[j_min] = cols[j_min], cols[i]
            done = True
            pivot = cols[i][i]
            for j in range(i + 1, n):
                if cols[j][i] != 0:
                    q = cols[j][i] // pivot
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
                    if cols[j][i] != 0:
                        done = False
            if done:
                break
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
    for r in range(1, n):
        for j in range(r):
            q = cols[j][r] // cols[r][r]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[r])]
    # Rows of the returned basis: entry (r, c) = cols[c][r].
    return [[cols[c][r] for c in range(n)] for r in range(n)], [col[n:] for col in cols]


def _charge(required: int, budget: Optional[int], message: str) -> None:
    """The one budget rule: refuse work of `required` units over `budget`
    (None is DEFAULT_BUDGET), with `message` formatted by the two."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if required > budget:
        raise BudgetExceededError(message.format(required, budget), required)


def _charge_points(cone: SimplicialCone, budget: Optional[int]) -> None:
    """Refuse a parallelepiped with more than `budget` lattice points."""
    _charge(cone.d ** (cone.dimension - 1), budget,
            "parallelepiped has {} lattice points; budget is {}")


def _field_shifts(spans: Sequence[int]) -> list[int]:
    """The one packing rule: the shift of each field of a packed int whose
    field i is spans[i].bit_length() bits wide, field 0 highest.  A value
    in [0, spans[i]] in each field never carries into the next, and int
    order is the lexicographic order of the fields."""
    widths = [span.bit_length() for span in reversed(spans[1:])]
    return list(accumulate(widths, initial=0))[::-1]


# Points in one block of the walk, and so in one write of a listing.
_BLOCK = 1024

# A block: the digit columns c_0..c_{n-1}, then the point columns lam_0..lam_{n-1}.
_Block = tuple[list[list[int]], list[list[int]]]


def _checked_basis(cone: SimplicialCone, budget: Optional[int]
                   ) -> tuple[list[list[int]], list[list[int]]]:
    """(h, u): the reduced triangular basis h of the valid digit vectors of
    a cone, and the point u[j] = A^-1*h_j of each basis step.

    A point lam is in the parallelepiped iff c = A*lam has every coordinate
    in {0..d-1}; the valid c are the column lattice of A reduced mod d.
    With d = 1, h is the identity and every step 0, as the apex is the one
    point; otherwise the budget is charged first, and h and u are checked
    before they are returned.
    """
    n, d = cone.dimension, cone.d
    if d == 1:
        return [[int(i == j) for j in range(n)] for i in range(n)], [[0] * n] * n
    _charge_points(cone, budget)
    h, u = _column_hermite(cone.A)
    # A positive diagonal multiplying to d: each h_ii divides d, so level i
    # takes d / h_ii digits, d**(n-1) in all.
    diagonal = [h[i][i] for i in range(n)]
    if min(diagonal) < 1 or math.prod(diagonal) != d:
        raise ArithmeticError("triangular basis does not have determinant d")
    # Reduced: zero above the diagonal and 0 <= h[r][j] < h_rr left of it,
    # so a level with h_ii = 1 takes every digit whatever the prefix.
    if any(h[r][j] if j > r else not 0 <= h[r][j] < diagonal[r]
           for r in range(n) for j in range(n) if j != r):
        raise ArithmeticError("triangular basis is not reduced")
    # A*u_j = h_j with u_j integral puts every basis column in the column
    # lattice of A, so every walked c, a combination of them, is the image
    # of an integral point; with the determinant, h spans the whole lattice.
    if any(list(cone.A.apply(step)) != [row[j] for row in h] for j, step in enumerate(u)):
        raise ArithmeticError("triangular basis column is not a valid digit vector")
    return h, u


def _lex_walk(cone: SimplicialCone, budget: Optional[int]) -> Iterator[_Block]:
    """The parallelepiped's (c, lam) pairs, c in lexicographic order, in
    blocks of at most `_BLOCK` points held as coordinate columns.

    The budget charge and the checks of `_checked_basis` run here, before
    the iterator is returned, so a refused or broken walk yields nothing.
    """
    return _lex_points(*_checked_basis(cone, budget), cone.d)


def _sorted_points(cone: SimplicialCone, budget: Optional[int]
                   ) -> Iterator[list[list[int]]]:
    """The parallelepiped points in lexicographic order, in blocks of at
    most `_BLOCK` points held as coordinate columns.

    The points are packed as the module docstring says, coordinate i
    shifted by s_i.  Each basis step becomes the one int
    sum_i u[j][i] << s_i, and the walk is linear in its steps, so it emits
    sum_i lam_i << s_i for each point.  One int sort orders them; each
    block then adds offset = -sum_i lo_i << s_i, which leaves lam_i - lo_i
    in field i, and is unpacked.  The charge, the basis checks and the
    sort run before the iterator is returned.
    """
    h, u = _checked_basis(cone, budget)
    rows = [cone.R.row(i) for i in range(cone.dimension)]
    lo = [sum(min(0, x) for x in row) for row in rows]
    spans = [sum(max(0, x) for x in row) - low for row, low in zip(rows, lo)]
    shifts = _field_shifts(spans)
    packed = [[sum(map(lshift, step, shifts))] for step in u]
    keys = list(chain.from_iterable(
        lam[0] for _, lam in _lex_points(h, packed, cone.d, with_digits=False)))
    keys.sort()
    offset = -sum(map(lshift, lo, shifts))
    # No key + offset reaches past the top field, so it needs no mask.
    masks = [0] + [(1 << span.bit_length()) - 1 for span in spans[1:]]
    fields = list(zip(shifts, masks, lo))

    def blocks():
        for j in range(0, len(keys), _BLOCK):
            part = keys[j:j + _BLOCK]
            if offset:
                part = list(map(offset.__add__, part))
            yield [_field(part, *field) for field in fields]

    return blocks()


def _field(keys: list[int], shift: int, mask: int, low: int) -> list[int]:
    """(key >> shift & mask) + low for each key, skipping a shift or low
    of 0 and a mask of 0, which stands for none."""
    col = map(rshift, keys, repeat(shift)) if shift else keys
    if mask:
        col = map(and_, col, repeat(mask))
    return list(map(low.__add__, col) if low else col)


def _stretch(col: Iterable[int], times: int) -> list[int]:
    """Each entry of col, `times` times over."""
    return list(chain.from_iterable(map(repeat, col, repeat(times))))


def _kron(incs: Iterable[Sequence[int]]) -> list[int]:
    """Every sum of one entry of each list, the last list varying fastest."""
    out = [0]
    for inc in incs:
        out = [a + y for a in out for y in inc]
    return out


def _lex_points(h: list[list[int]], g: list[list[int]], d: int,
                with_digits: bool = True) -> Iterator[_Block]:
    """Walk of `_lex_walk` along a checked reduced lower-triangular basis
    h, whose step j moves the point by g[j].  A point has len(g[0])
    coordinates, so `_sorted_points` walks points packed into one int, and
    as it reads no digits, it passes `with_digits=False` to get none.

    Once c_0..c_{i-1} are fixed, the valid c_i are the values = off_i
    (mod h_ii) in {0..d-1}, where off_i is row i of the basis steps so far;
    digit c_i is basis step x_i = (c_i - off_i) / h_ii, exactly, so the
    point is the sum of x_j * g[j] and needs no division.  Only a level
    with h_ii > 1 has an offset, and every level has the fixed fan-out
    d / h_ii.  Running every level up from its smallest value emits the c
    in lexicographic order, with no sort.

    The outer levels run depth-first.  The inner levels k..n-1, up to one
    block, expand breadth-first into columns: a run of levels with h_ii = 1
    is the same tile of digits under every parent, and a level with
    h_ii = d takes the one digit its offset names, any other level a range
    per parent.  Each point and offset column grows by one Kronecker sum a
    run or level.  Level k is cut into chunks of digits whose points fill
    at most one block.
    """
    n, width = len(h), len(g[0])
    diag = [h[i][i] for i in range(n)]
    fan = [d // x for x in diag]
    k, inner = n - 1, 1
    while k and inner * fan[k] <= _BLOCK:
        inner *= fan[k]
        k -= 1
    chunk = max(1, _BLOCK // inner)
    # below[i]: the offset levels r > i that a step of level i moves.
    below = [[(r, h[r][i]) for r in range(i + 1, n) if h[r][i]] for i in range(n)]
    stepped = [r for r in range(k + 1, n) if diag[r] > 1]
    # The inner levels i..j-1 of each step of a block, hoisted out of the
    # blocks: a run of levels with h_ii = 1 or one other level; the points
    # below each of its digits; the digit tiles of a run; and what its
    # basis steps add to each point and offset column.
    plan = []
    i = k + 1
    while i < n:
        j = i + 1 if diag[i] > 1 else next((j for j in range(i, n) if diag[j] > 1), n)
        tiles = [_stretch(range(d), math.prod(fan[l + 1:])) * d ** (l - i)
                 for l in range(i, j) if diag[l] == 1] if with_digits else []
        plan.append((i, diag[i], math.prod(fan[i:j]), math.prod(fan[j:]), tiles,
                     [_kron([g[l][r] * x for x in range(fan[l])] for l in range(i, j))
                      for r in range(width)],
                     {r: _kron([h[r][l] * x for x in range(fan[l])] for l in range(i, j))
                      for r in stepped if r >= j}))
        i = j

    def block(prefix, off, acc, top):
        xs = [(c - off[k]) // diag[k] for c in top]
        digits = [_stretch(top, inner)] if with_digits else []
        points = [[a + v * x for x in xs] for a, v in zip(acc, g[k])]
        offs = {r: [off[r] + h[r][k] * x for x in xs] for r in stepped}
        m = len(top)
        for i, hi, f, after, tiles, adds, moves in plan:
            if hi == 1:
                digits += [t * m for t in tiles]
            else:
                # Under a parent with offset o the digits run up from
                # o mod h_ii, and digit o mod h_ii + x*h_ii is the basis
                # step x - o // h_ii.
                o_i = offs.pop(i)
                if with_digits:
                    cs = list(map(mod, o_i, repeat(hi)))
                    if f > 1:
                        cs = list(chain.from_iterable(map(range, cs, repeat(d), repeat(hi))))
                    digits.append(_stretch(cs, after) if after > 1 else cs)
                q = [o // hi for o in o_i]
                points = [list(map(sub, col, map(v.__mul__, q))) if v else col
                          for col, v in zip(points, g[i])]
                offs = {r: list(map(sub, col, map(h[r][i].__mul__, q)))
                        for r, col in offs.items()}
            if f > 1:
                points = [[a + y for a in col for y in inc] for col, inc in zip(points, adds)]
                offs = {r: [a + y for a in col for y in moves[r]] for r, col in offs.items()}
                m *= f
        if with_digits:
            digits[:0] = [[c] * len(points[0]) for c in prefix]
        return digits, points

    def walk(i, prefix, off, acc):
        if i == k:
            run = range(off[k] % diag[k], d, diag[k])
            for j in range(0, len(run), chunk):
                yield block(prefix, off, acc, run[j:j + chunk])
            return
        hi = diag[i]
        for c in range(off[i] % hi, d, hi):
            x = (c - off[i]) // hi
            nxt = list(off)
            for r, v in below[i]:
                nxt[r] += x * v
            yield from walk(i + 1, prefix + (c,), nxt,
                            [a + v * x for a, v in zip(acc, g[i])])

    return walk(0, (), [0] * n, [0] * width)


def fpp_points(cone: SimplicialCone, budget: Optional[int] = None
               ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The lattice points of the half-open parallelepiped, as the walk's
    pairs (c, lam): lam is the point and c = A*lam lies in {0..d-1}^n.

    The pairs come in lexicographic order of the digit vector c straight
    from the walk, with no sort: a triangular lattice basis lets it take
    d**(n-1) steps instead of scanning d**n candidates.
    """
    return tuple(chain.from_iterable(zip(zip(*c), zip(*lam))
                                     for c, lam in _lex_walk(cone, budget)))


def integer_point_transform(cone: SimplicialCone,
                            budget: Optional[int] = None) -> IntegerPointTransform:
    """The transform of the cone: parallelepiped points over the rays.

    The numerator comes from `_sorted_points` already in the lexicographic
    order the transform keeps it in, by one int sort of packed points (see
    the module docstring); only the sorted points become tuples.
    """
    points = chain.from_iterable(zip(*cols) for cols in _sorted_points(cone, budget))
    return IntegerPointTransform(points, cone.rays())


def _mode_weights(mode: str, n: int) -> tuple[int, ...]:
    """The linear form w that gives a vector v the exponent w.v."""
    if mode == "total":
        return (1,) * n
    if mode == "first_coordinate":
        return (1,) + (0,) * (n - 1)
    raise ValueError(f"unknown specialization mode {mode!r}")


def _ray_factors(s: Sequence[int]) -> list[tuple[int, int]]:
    """The denominator factors (1 - q^(s_j)) of a specialized gf, whose
    form num(q) / prod_j (1 - q^(s_j)) needs every s_j > 0."""
    if min(s) <= 0:
        raise ValueError("specialization sends a ray to a non-positive exponent")
    return [(e, 1) for e in s]


def specialize(ipt: IntegerPointTransform,
               mode: Literal["total", "first_coordinate"]) -> UnivariateRationalGF:
    """Collapse a transform to one variable.

    "total" sends every variable to q (exponent = coordinate sum);
    "first_coordinate" sends the first variable to q and the rest to 1.
    The rays are checked first, as by `specialized_gf`; then a numerator
    exponent below 0, which only a transform built by hand can hold, is
    refused.
    """
    w = _mode_weights(mode, len(ipt.denominator[0]))
    factors = _ray_factors([sum(map(mul, w, ray)) for ray in ipt.denominator])
    exponents = Counter(sum(map(mul, w, v)) for v in ipt.numerator)
    if min(exponents) < 0:
        raise ValueError("specialization produced a negative numerator exponent")
    coeffs = [0] * (max(exponents) + 1)
    for e, count in exponents.items():
        coeffs[e] = count
    return UnivariateRationalGF(coeffs, factors)


def _numerator(R: IntegerMatrix, d: int, s: Sequence[int]) -> list[int]:
    """The numerator of the specialized gf whose ray exponents s are all
    positive: coefficient e counts the parallelepiped's digit vectors c,
    the c in {0..d-1}^n with R*c = 0 (mod d), of exponent s.c/d = e.  It
    is the dense list that `UnivariateRationalGF` stores, found by a DP
    over the coordinates.

    The residues R*c mod d form a group of order d (Z^n / A*Z^n, the
    critical group of a Laplacian minor), numbered by closure from 0 under
    adding a column of R.  The exponent s.c/d is integral iff s.c = 0
    (mod d).  So r = s.c mod d must be a function of the class: r_0 = 0,
    and r_t = r_k + s_j (mod d) on every closure edge k -> t of column j,
    or some point is not integral.  Per class the DP keeps the histogram
    of floor(s.c/d) in its slots, packed into one int with bits enough
    that no slot carries, so slot e of class 0 is exponent e.

    Column j's class has order o_j, so the class of c depends on c_j mod
    o_j only: digit c_j + o_j reaches the class of c_j again, e =
    s_j*o_j/d slots on.  The DP runs the digits below o_j, sum_j d*o_j
    shifted adds in all, and then multiplies class 0 by
    (1 - Q^(e*m)) / (1 - Q^e), m = d/o_j, for each column: by 1 - Q^(e*m),
    then `_times_geometric`, in time linear in its length.  The counts
    must sum to d**(n-1), the digit vectors' number, which a weight of 0
    would break.
    """
    n = len(s)
    # A residue vector is one int, coordinate i in field i of b + 1 bits,
    # 2**b > d.  A sum of two has each field below 2*d, and adding 2**b - d
    # to every field sets the top bit of those that d must come off.
    b = d.bit_length()
    fields = range(0, n * (b + 1), b + 1)
    cols = [sum(x % d << f for x, f in zip(R.column(j), fields)) for j in range(n)]
    top = sum(1 << b << f for f in fields)
    lift = sum((1 << b) - d << f for f in fields)
    classes, index, via = [0], {0: 0}, [None]
    step = [[] for _ in range(n)]  # step[j][k]: class k plus column j
    for k, v in enumerate(classes):
        for j, col in enumerate(cols):
            w = v + col
            w -= ((w + lift & top) >> b) * d
            if w not in index:
                index[w] = len(classes)
                classes.append(w)
                via.append((k, j))
            step[j].append(index[w])
        if len(classes) > d:
            break
    if len(classes) != d:
        raise ArithmeticError(f"digit vectors do not fall into d = {d} classes")
    r = [0]
    for k, j in via[1:]:
        r.append((r[k] + s[j]) % d)
    for weight, nxt in zip(s, step):
        if [r[t] for t in nxt] != [(x + weight) % d for x in r]:
            raise ArithmeticError("parallelepiped point not integral")
    orders = []
    for nxt in step:
        o, t = 1, nxt[0]
        while t:
            o, t = o + 1, nxt[t]
        orders.append(o)
    # Whole bytes per slot, for the read-out; no slot counts past prod(orders).
    width = (math.prod(orders).bit_length() + 7) // 8
    bits = 8 * width
    hist = [1] + [0] * (d - 1)
    for weight, nxt, o in zip(s, step, orders):
        # Digit c moves class k by floor((r_k + weight*c)/d) slots, which
        # grows by moves[t] >= 0 from class t to nxt[t].
        moves = [(r[t] + weight - r[nxt[t]]) // d * bits for t in range(d)]
        new = [0] * d
        for k, packed in enumerate(hist):
            if packed:
                t, shift = k, 0
                for _ in range(o):
                    new[t] += packed << shift
                    shift += moves[t]
                    t = nxt[t]
        hist = new
    raw = hist[0].to_bytes((hist[0].bit_length() + 7) // 8, "little")
    coeffs = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    for weight, o in zip(s, orders):
        e, m = weight * o // d, d // o
        if m > 1:
            coeffs += [0] * (e * (m - 1))
            coeffs[e * m:] = [a - c for a, c in zip(coeffs[e * m:], coeffs)]
            _times_geometric(coeffs, e)
    if sum(coeffs) != d ** (n - 1):
        raise ArithmeticError(
            f"numerator counts {sum(coeffs)} digit vectors, not d**(n-1) = {d ** (n - 1)}")
    return coeffs


def specialized_gf(cone: SimplicialCone, mode: Literal["total", "first_coordinate"],
                   budget: Optional[int] = None) -> UnivariateRationalGF:
    """`specialize(integer_point_transform(cone, budget), mode)`, by the DP.

    Back substitution on the cone's kept forward pass gives X = d*A^-T*W =
    R^T*W for the weight forms W of both modes, so the mode's column of X
    is s = w^T R: ray j has exponent s_j, and the point lam = R*c/d has
    s.c/d.  With d > 1 the budget is charged d**(n-1) points first.  Then
    every s_j must be positive, so no point's exponent is negative, before
    `_numerator` runs on R.  With d = 1 the apex is the one point, and
    neither R nor a second elimination is needed.
    """
    n, d = cone.dimension, cone.d
    _mode_weights(mode, n)  # an unknown mode is refused first
    if d > 1:
        _charge_points(cone, budget)
    k = _MODES.index(mode)
    s = [x[k] for x in _back_substitute(cone._upper, d, n)]
    factors = _ray_factors(s)
    return UnivariateRationalGF(_numerator(cone.R, d, s) if d > 1 else [1], factors)


def series_expand(gf: UnivariateRationalGF, order: int) -> list[int]:
    """Exact coefficients of q^0..q^order of the rational function.

    A denominator factor (1 - q^e)^m takes min(m, order // e) passes over
    the coefficients: m geometric passes, or the order // e of its
    binomial series when m is larger, so a huge multiplicity costs no more
    than the order allows.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = list(gf.numerator[: order + 1])
    coeffs += [0] * (order + 1 - len(coeffs))
    for e, mult in gf.denominator:
        if mult > order // e:
            coeffs = _times_binomial_series(coeffs, e, mult)
        else:
            for _ in range(mult):
                _times_geometric(coeffs, e)
    return coeffs


def _first_coordinate_bounds(R: IntegerMatrix, value: int) -> list[int]:
    """Upper bounds on each coordinate over the slice first-coordinate = value."""
    n = R.rows
    top = R.row(0)
    if any(x <= 0 for x in top):
        raise ValueError(
            "first-coordinate slices of this cone are not bounded"
        )
    bounds = [value]
    for i in range(1, n):
        best = 0
        for rij, r0j in zip(R.row(i), top):
            if rij > 0:
                # lam_i <= max_j (R[i][j] / R[0][j]) * value over the slice.
                best = max(best, -(-rij * value // r0j))
        bounds.append(best)
    return bounds


def _charge_box(lows: Sequence[int], highs: Sequence[int],
                budget: Optional[int]) -> None:
    """Refuse a box lows <= x <= highs with more than `budget` cells."""
    _charge(math.prod(h - l + 1 for l, h in zip(lows, highs)), budget,
            "box scan needs {} candidates, budget is {}")


def _box_points(rows: Sequence[Sequence[int]], rhs: Sequence[int],
                lows: Sequence[int], highs: Sequence[int],
                budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """Integer points x of the box lows <= x <= highs with row.x >= rhs for
    every row, in lexicographic order.

    The whole box is charged against the budget up front, by
    `_charge_box`.  Each row keeps the most that coordinates t+1.. can add
    to it over the box, so once coordinates 0..t-1 are fixed every row
    bounds x_t to an interval; an empty interval prunes the prefix, and the
    last level emits its interval without scanning it.
    """
    _charge_box(lows, highs, budget)
    n = len(lows)
    columns = [[row[t] for row in rows] for t in range(n)]
    # tails[t][r]: the most that coordinates t+1.. can add to row r.
    tails = [[0] * len(rows)]
    for t in range(n - 1, 0, -1):
        tails.insert(0, [tail + max(a * lows[t], a * highs[t])
                         for tail, a in zip(tails[0], columns[t])])
    points = []

    def scan(t: int, prefix: tuple[int, ...], needs: Sequence[int]):
        lo, hi = lows[t], highs[t]
        for a, need, tail in zip(columns[t], needs, tails[t]):
            slack = need - tail
            if a > 0:
                bound = -(-slack // a)
                if bound > lo:
                    lo = bound
            elif a < 0:
                bound = slack // a
                if bound < hi:
                    hi = bound
            elif slack > 0:
                return
        if t == n - 1:
            points.extend(prefix + (x,) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            scan(t + 1, prefix + (x,),
                 [need - a * x for need, a in zip(needs, columns[t])])

    scan(0, (), rhs)
    return points


def brute_force_count(A: IntegerMatrix,
                      statistic: Literal["total", "first_coordinate"],
                      value: int,
                      budget: Optional[int] = None) -> int:
    """Count lattice points of {x : Ax >= 0} with the given statistic value
    by the box scan.

    This is an oracle deliberately independent of the parallelepiped
    machinery: it needs the cone to sit inside the nonnegative orthant,
    which it checks by requiring the ray matrix to be entrywise >= 0, and
    scans the box [0, bounds] with the statistic w.x = value written as
    the two rows w.x >= value and -w.x >= -value.
    """
    if value < 0:
        raise ValueError("statistic value must be nonnegative")
    n = A.rows
    _, R = adjugate_pair(A)
    if any(x < 0 for row in R for x in row):
        raise ValueError(
            "ray matrix has a negative entry; box oracle is inapplicable"
        )
    if statistic == "total":
        bounds = [value] * n
    elif statistic == "first_coordinate":
        bounds = _first_coordinate_bounds(R, value)
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    w = _mode_weights(statistic, n)
    rows = [A.row(i) for i in range(n)] + [w, [-a for a in w]]
    rhs = [0] * n + [value, -value]
    return len(_box_points(rows, rhs, [0] * n, bounds, budget))
