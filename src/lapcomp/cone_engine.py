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
step's point A^-1*h_j.  The walk carries one packed int per point, and
both listings read it a block of at most `_BLOCK` points at a time, so
`lapcomp fpp` and `lapcomp gf` print a block at a time.  Every point lies
in the box lo <= lam <= hi, where lo_i and hi_i sum the negative and the
positive entries of row i of R, since lam = R*c/d with each c_j < d; so a
listing of a cone with d > 1 builds R.  A field holds lam_i - lo_i, or a
digit c_i, and every field of a key takes the same whole number of bytes,
field 0 highest, so no field carries or borrows into the next and int
order is lexicographic.  A block's keys become one buffer of records, by
one array conversion or one `bytes.join`, whose strided memoryview
slices are the fields: the CLI prints them through its tables, and
`_unpack` adds lo for the tuples.  `fpp`'s keys hold the digits, then the
point; `gf`'s hold the point alone, the transform's order, and one int
sort orders them, so `integer_point_transform` sorts no tuple.
`specialized_gf` takes one of two routes for a cone with d > 1.  Back
substitution on the kept pass, two scalar columns at once, gives the ray
exponents s = w^T R of both weight forms w, and a specialized gf
num(q) / prod_j (1 - q^(s_j)) exists only if every s_j is positive,
which is checked first; a unimodular cone (d = 1, as for a tree minored
anywhere) then has num = 1 and needs no second elimination.  For d > 1,
s is certified by s*A = d*w, and a point's exponent s.c/d is linear in
its digits c.  When d and the s_j are coprime, the digit vectors are
exactly the c with s.c = 0 (mod d), and the numerator is every d-th
coefficient of prod_j (1 + x^(s_j) + ... + x^((d-1)*s_j)), one packed
int with no R, once an elimination over A alone has checked d.  This
product route is taken up to `_PRODUCT_SLOTS` slots, a size guard: the
largest size at which it beat R and the DP on every sampled cone, though
some larger cones are still faster by it.  Every other cone takes a DP over
the d classes of the critical group Z^n / A*Z^n, which counts them
instead of walking them.  Its slots are exponents, and it runs each
column's digits only up to that column's order o_j in the group, then
multiplies the rest in as a geometric factor.  A column costs o_j
shifted adds per class when o_j is at most 8 and about five big-int
operations per class, by prefix sums over the cycles of the class
permutation, when it is longer; a geometric factor of m terms costs
O(log m) shifted adds inside the packed int.  Both routes read their
slots the same way, and their counts are certified by their mass and
their first moment, which A alone gives.  Prefer `specialized_gf` to
`specialize(integer_point_transform(...))` unless the points or the
multivariate transform are needed too.  The one
box scan, independent of both, backs `brute_force_count` and slice
dilates.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from itertools import accumulate, chain, compress, repeat
from operator import add, lshift, mul, sub
from typing import Callable, Iterable, Iterator, Literal, Optional, Sequence

from .exact_linalg import (IntegerMatrix, SingularMatrixError, _eliminate, adjugate_pair,
                           determinant)
from .graph_core import _is_decimal, _is_int

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "SimplicialCone",
    "IntegerPointTransform",
    "UnivariateRationalGF",
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
    `_ray_exponents` back-substitutes the ray exponents of both modes at
    once, with two scalars per row.  R is built on first read, by
    `adjugate_pair`, an independent elimination that must give the same d;
    a query that refuses on d alone never builds it.
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
    order is the lexicographic order of the fields.  The listings pass
    every span as 2**(8*w) - 1, for fields of w bytes; the normality probe
    passes its own spans, for the fewest bits."""
    widths = [span.bit_length() for span in reversed(spans[1:])]
    return list(accumulate(widths, initial=0))[::-1]


# Points in one block of the walk, and so in one write of a listing.
_BLOCK = 1024

# A block's fields, field 0 first: strided views, or int lists past 8 bytes.
_Fields = list[Sequence[int]]


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


def _packed_walk(cone: SimplicialCone, budget: Optional[int], digits: bool
                 ) -> tuple[Iterator[list[int]], Callable[[list[int]], _Fields], list[int]]:
    """The walk's points packed one int each, in blocks in lexicographic
    order of their digits; the reader of a block into its fields, the
    digits c_0..c_{n-1} if `digits`, then the point lam_0..lam_{n-1}; and
    the lower bound lo_i of each field.

    Field i of a key holds value - lo_i in [0, spans[i]]: a digit in
    [0, d - 1], and lam_i in the box of the module docstring, which reads
    R.  With d = 1 every span is 0 and R is not built.  Every field is w
    bytes, as `_byte_width` gives it, field 0 highest, so each basis step
    becomes one int and the walk, from the origin's key, is linear in
    them.  The charge and the basis checks run first.
    """
    h, u = _checked_basis(cone, budget)
    n, d = cone.dimension, cone.d
    rows = cone.R if d > 1 else [[0]] * n
    lo = [sum(min(0, x) for x in row) for row in rows]
    spans = [sum(max(0, x) for x in row) - low for row, low in zip(rows, lo)]
    if digits:
        lo, spans = [0] * n + lo, [d - 1] * n + spans
        u = [[*col, *step] for col, step in zip(zip(*h), u)]
    w = _byte_width(max(spans))
    shifts = _field_shifts([(1 << 8 * w) - 1] * len(spans))
    packed = [sum(map(lshift, step, shifts)) for step in u]
    origin = -sum(map(lshift, lo, shifts))
    return _lex_points(h, packed, d, origin), _record_reader(w, len(lo)), lo


def _byte_width(span: int) -> int:
    """Bytes per field for fields up to `span`: the least of 1, 2, 4 and 8
    that holds it, or past 8 bytes the least whole number that does."""
    bits = span.bit_length()
    return next((w for w in (1, 2, 4, 8) if bits <= 8 * w), -(-bits // 8))


# The native unsigned array typecode, also a memoryview format, of each size in bytes.
_CASTS = {array(code).itemsize: code for code in "BHILQ"}


def _record_reader(w: int, m: int) -> Callable[[list[int]], _Fields]:
    """The reader of a block of keys of m fields of w bytes, field 0
    highest, into its fields.  One array conversion lays the keys out as
    records in native byte order when a record fits in 1, 2, 4 or 8 bytes,
    its unused top fields zero, else one `bytes.join`; a field of at most
    8 bytes is a strided slice of a cast of that buffer, and a wider one is
    read by `int.from_bytes`."""
    size = next((size for size in sorted(_CASTS) if size >= w * m), 0)
    k, order = size // w or m, sys.byteorder
    # Field i is element k - m + i of a big-endian record of k fields.
    index = range(k - m, k) if order == "big" else range(m - 1, -1, -1)

    def read(keys: list[int]) -> _Fields:
        raw = (memoryview(array(_CASTS[size], keys)).cast("B") if size
               else b"".join(map(int.to_bytes, keys, repeat(w * m), repeat(order))))
        if w > 8:
            return [[int.from_bytes(raw[p:p + w], order) for p in range(i * w, len(raw), w * m)]
                    for i in index]
        view = memoryview(raw).cast(_CASTS[w])
        return [view[i::k] for i in index]

    return read


def _unpack(fields: _Fields, lo: Sequence[int]) -> list[list[int]]:
    """The coordinate columns of a block's fields: field i plus lo_i."""
    return [list(map(low.__add__, field)) if low else list(field)
            for field, low in zip(fields, lo)]


def _lex_walk(cone: SimplicialCone, budget: Optional[int]
              ) -> tuple[Iterator[_Fields], list[int]]:
    """The parallelepiped's (c, lam) pairs, c in lexicographic order, in
    blocks of at most `_BLOCK` points held as fields, and the fields' lo.

    The budget charge and the checks of `_checked_basis` run here, before
    the iterator is returned, so a refused or broken walk yields nothing.
    """
    blocks, read, lo = _packed_walk(cone, budget, digits=True)
    return map(read, blocks), lo


def _sorted_points(cone: SimplicialCone, budget: Optional[int]
                   ) -> tuple[Iterator[_Fields], list[int]]:
    """The parallelepiped points in lexicographic order, in blocks of at
    most `_BLOCK` points held as fields, and the fields' lo.

    The walk packs each point into one int, coordinate 0 highest, with no
    digits; no field carries or borrows into the next, so one int sort
    orders them, and each block is then read.  The charge, the basis
    checks and the sort run before the iterator is returned.
    """
    blocks, read, lo = _packed_walk(cone, budget, digits=False)
    keys = list(chain.from_iterable(blocks))
    keys.sort()
    return (read(keys[j:j + _BLOCK]) for j in range(0, len(keys), _BLOCK)), lo


def _kron(incs: Iterable[Sequence[int]]) -> list[int]:
    """Every sum of one entry of each list, the last list varying fastest."""
    out = [0]
    for inc in incs:
        out = [a + y for a in out for y in inc]
    return out


def _lex_points(h: list[list[int]], g: list[int], d: int, origin: int) -> Iterator[list[int]]:
    """Walk of `_packed_walk` from the key `origin` along a checked reduced
    lower-triangular basis h, whose step j adds the packed int g[j].

    Once c_0..c_{i-1} are fixed, the valid c_i are the values = off_i
    (mod h_ii) in {0..d-1}, where off_i is row i of the basis steps so far;
    digit c_i is basis step x_i = (c_i - off_i) / h_ii, exactly, so the
    key is origin + sum x_j * g[j], with no division.  Only a level with
    h_ii > 1 has an offset, and every level has the fixed fan-out d / h_ii.
    Running every level up from its smallest value emits the c in
    lexicographic order, with no sort.

    The outer levels run depth-first.  The inner levels k..n-1, up to one
    block, expand breadth-first into one column of keys: a level with
    h_ii = d takes the one digit its offset names, any other level a range
    per parent, and a run of levels with h_ii = 1 every digit.  The key and
    offset columns grow by one Kronecker sum a run or level.  Level k is
    cut into chunks of digits whose keys fill at most one block.
    """
    n = len(h)
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
    # blocks: a run of levels with h_ii = 1 or one other level, and what its
    # basis steps add to each key and offset column.
    plan = []
    i = k + 1
    while i < n:
        j = i + 1 if diag[i] > 1 else next((j for j in range(i, n) if diag[j] > 1), n)
        plan.append((i, diag[i], math.prod(fan[i:j]),
                     _kron([g[l] * x for x in range(fan[l])] for l in range(i, j)),
                     {r: _kron([h[r][l] * x for x in range(fan[l])] for l in range(i, j))
                      for r in stepped if r >= j}))
        i = j

    def block(off, acc, top):
        xs = [(c - off[k]) // diag[k] for c in top]
        keys = [acc + g[k] * x for x in xs]
        offs = {r: [off[r] + h[r][k] * x for x in xs] for r in stepped}
        for i, hi, f, adds, moves in plan:
            if hi > 1:
                # Under a parent with offset o the digits run up from
                # o mod h_ii, and digit o mod h_ii + x*h_ii is the basis
                # step x - o // h_ii.
                q = [o // hi for o in offs.pop(i)]
                if g[i]:
                    keys = list(map(sub, keys, map(g[i].__mul__, q)))
                offs = {r: list(map(sub, col, map(h[r][i].__mul__, q)))
                        for r, col in offs.items()}
            if f > 1:
                keys = [a + y for a in keys for y in adds]
                offs = {r: [a + y for a in col for y in moves[r]] for r, col in offs.items()}
        return keys

    def walk(i, off, acc):
        if i == k:
            run = range(off[k] % diag[k], d, diag[k])
            for j in range(0, len(run), chunk):
                yield block(off, acc, run[j:j + chunk])
            return
        hi = diag[i]
        for c in range(off[i] % hi, d, hi):
            x = (c - off[i]) // hi
            nxt = list(off)
            for r, v in below[i]:
                nxt[r] += x * v
            yield from walk(i + 1, nxt, acc + g[i] * x)

    return walk(0, [0] * n, origin)


def fpp_points(cone: SimplicialCone, budget: Optional[int] = None
               ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The lattice points of the half-open parallelepiped, as the walk's
    pairs (c, lam): lam is the point and c = A*lam lies in {0..d-1}^n.

    The pairs come in lexicographic order of the digit vector c straight
    from the walk, with no sort: a triangular lattice basis lets it take
    d**(n-1) steps instead of scanning d**n candidates.
    """
    blocks, lo = _lex_walk(cone, budget)
    n, columns = cone.dimension, (_unpack(fields, lo) for fields in blocks)
    return tuple(chain.from_iterable(zip(zip(*c[:n]), zip(*c[n:])) for c in columns))


def integer_point_transform(cone: SimplicialCone,
                            budget: Optional[int] = None) -> IntegerPointTransform:
    """The transform of the cone: parallelepiped points over the rays.

    The numerator comes from `_sorted_points` already in the lexicographic
    order the transform keeps it in, by one int sort of packed points (see
    the module docstring), and its tuples are not sorted again.
    """
    blocks, lo = _sorted_points(cone, budget)
    ipt = IntegerPointTransform.__new__(IntegerPointTransform)
    ipt.numerator = tuple(chain.from_iterable(zip(*_unpack(fields, lo)) for fields in blocks))
    ipt.denominator = tuple(sorted(cone.rays()))
    return ipt


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


def _numerator(A: IntegerMatrix, R: IntegerMatrix, d: int, s: Sequence[int]) -> list[int]:
    """The numerator of the specialized gf whose ray exponents s are all
    positive: coefficient e counts the parallelepiped's digit vectors c,
    the c in {0..d-1}^n with R*c = 0 (mod d), of exponent s.c/d = e.  It
    is the dense list that `UnivariateRationalGF` stores, found by a DP
    over the coordinates; R = d*A^-1.

    The residues R*c mod d form a group of order d (Z^n / A*Z^n, the
    critical group of a Laplacian minor), numbered by closure from 0 under
    adding a column of R.  The exponent s.c/d is integral iff s.c = 0
    (mod d).  So r = s.c mod d must be a function of the class: r_0 = 0,
    and r_t = r_k + s_j (mod d) on every closure edge k -> t of column j,
    or some point is not integral.  Per class the DP keeps the histogram
    of floor(s.c/d) in its slots, packed into one int with slots of
    `_byte_width(d**(n-1))` bytes, so slot e of class 0 is exponent e.  No
    slot carries: the prefixes c_0..c_j with c_i < o_i that reach one
    class number at most d**(n-1) (at j = n-1 the classes split
    prod(o_i) <= d**n evenly), and each partial product below counts no
    more than the final coefficient, at most the mass d**(n-1).

    Column j's class has order o_j = d / gcd(d, column j of R), known
    before the closure, so the class of c depends on c_j mod o_j only:
    digit c_j + o_j reaches the class of c_j again, e = s_j*o_j/d slots
    on.  The DP runs the digits below o_j.  Adding column j permutes the
    classes in d/o_j cycles of length o_j; a column of order at most
    `_LOOP_ORDER` takes o_j shifted adds per class, a longer one about
    five big-int operations per class by `_cycle_step`.  Then class 0 is
    multiplied by 1 + Q^e + ... + Q^(e*(m-1)), m = d/o_j, for each column,
    inside the packed int by `_times_packed_geometric` in O(log m)
    shifted adds, and its slots are read by one memoryview cast.

    Two certificates check the counts.  They sum to d**(n-1), the digit
    vectors' number.  And c_j is uniform on the multiples of
    g_j = gcd(d, row j of A) below d, since the valid c are a subgroup of
    (Z/d)^n (the column lattice of A mod d), so the first moment
    sum_e e*N_e is d**(n-2) * sum_j s_j*(d - g_j) / 2, computed from A and
    s alone.  A weight s_j <= 0 is refused before the DP: its geometric
    factor would pile the whole mass on q^0 and pass the mass certificate.
    """
    n = len(s)
    columns = list(zip(*R))
    orders = [d // math.gcd(d, *col) for col in columns]
    # A residue vector is one int, coordinate i in field i of b + 1 bits,
    # 2**b > d.  A sum of two has each field below 2*d, and adding 2**b - d
    # to every field sets the top bit of those that d must come off.
    b = d.bit_length()
    fields = range(0, n * (b + 1), b + 1)
    cols = [sum(x % d << f for x, f in zip(col, fields)) for col in columns]
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
    if min(s) <= 0:
        raise ArithmeticError("digit DP needs positive ray exponents")
    width = _byte_width(d ** (n - 1))
    bits = 8 * width
    hist = [1] + [0] * (d - 1)
    for weight, nxt, o in zip(s, step, orders):
        # Digit c moves class k by floor((r_k + weight*c)/d) slots, which
        # grows by moves[t] >= 0 from class t to nxt[t].
        moves = [(r[t] + weight - r[nxt[t]]) // d * bits for t in range(d)]
        new = [0] * d
        if o > _LOOP_ORDER:
            _cycle_step(hist, new, nxt, moves)
        else:
            for k, packed in enumerate(hist):
                if packed:
                    t, shift = k, 0
                    for _ in range(o):
                        new[t] += packed << shift
                        shift += moves[t]
                        t = nxt[t]
        hist = new
    packed = hist[0]
    for weight, o in zip(s, orders):
        if o < d:
            packed = _times_packed_geometric(packed, weight * o // d * bits, d // o)
    return _certified(A, d, s, _slots(packed, width, 1))


# The most slots, (d-1)*sum(s) + 1, for which `specialized_gf` takes
# `_product_numerator`.  It is a size guard, since the slots grow without
# bound in d, measured in process by tools/product_sweep.py: the largest
# size at which the product beat R and the DP on every sampled cone.  Some
# cones over it are still faster by the product, and no benchmark workload
# has a coprime cone over it, so it is not a tuned crossover.
_PRODUCT_SLOTS = 4_000


def _product_numerator(A: IntegerMatrix, d: int, s: Sequence[int]) -> list[int]:
    """`_numerator`'s list for positive ray exponents s with
    gcd(d, s_1, ..., s_n) = 1, with no R and no classes: every d-th
    coefficient of prod_j (1 + x^(s_j) + ... + x^((d-1)*s_j)).

    The digit vectors c in {0..d-1}^n of the parallelepiped, the column
    lattice of A mod d, have s.c = 0 (mod d) when s*A = d*w, which
    `specialized_gf` checks first.  They form a subgroup of index d in
    (Z/d)^n, as |det A| = d, and so does the kernel of c -> s.c mod d when
    the s_j and d are coprime; so the two are equal, and the digit vectors
    of exponent s.c/d = e are the terms x^(d*e) of the product (Beck &
    Robins, *Computing the Continuous Discretely*, ch. 3).

    s*A = d*w shows only that the denominator of w*A^-1 divides d, and
    with gcd(d, s) = 1 that d is that denominator, a divisor of |det A|;
    the mass and the first moment hold for such a d too.  So d = |det A|
    is checked first, by `determinant`, one elimination over A alone and
    cheaper than R, whose own elimination checks d on the DP's route.

    The product is one packed int in `_numerator`'s slots: coefficient k
    counts the c with s.c = k, at most one per choice of c_1..c_(n-1), so
    no slot carries.  Its n factors take O(log d) shifted adds each, by
    `_times_packed_geometric`, on up to (d-1)*sum(s) + 1 slots.  The
    counts are certified as the DP's are; a common factor g of d and s
    would count g*d**(n-1) vectors and fail the mass.
    """
    det = abs(determinant(A))
    if det != d:
        raise ArithmeticError(f"|det A| = {det}, the cone d = {d}")
    width = _byte_width(d ** (len(s) - 1))
    packed = 1
    for weight in s:
        packed = _times_packed_geometric(packed, weight * 8 * width, d)
    return _certified(A, d, s, _slots(packed, width, d))


def _slots(packed: int, width: int, step: int) -> list[int]:
    """Slots 0, step, 2*step, ... of a packed int of slots `width` bytes
    wide, slot 0 lowest, up to the last nonzero one, read by one
    memoryview cast, or by `int.from_bytes` past 8 bytes."""
    order = sys.byteorder
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, order)
    if width > 8:
        slots = [int.from_bytes(raw[i:i + width], order) for i in range(0, len(raw), width)]
    else:
        slots = memoryview(raw).cast(_CASTS[width])
    if order == "big":
        slots = slots[::-1]
    return _poly_trim(slots[::step])


def _certified(A: IntegerMatrix, d: int, s: Sequence[int], coeffs: list[int]) -> list[int]:
    """`coeffs`, a numerator of ray exponents s, once its two certificates
    hold: the counts sum to the d**(n-1) digit vectors, and their first
    moment is the one that the digit gcds of A give (see `_numerator`)."""
    mass = d ** (len(s) - 1)
    if sum(coeffs) != mass:
        raise ArithmeticError(
            f"numerator counts {sum(coeffs)} digit vectors, not d**(n-1) = {mass}")
    # sum_e e*N_e: each of the len(coeffs) prefix sums misses the N_e above it.
    moment = len(coeffs) * mass - sum(accumulate(coeffs))
    # g_j = gcd(d, row j of A); a row with an entry -1, as in a Laplacian
    # minor at any vertex with another neighbor, has g_j = 1.
    gcds = [1 if -1 in row else math.gcd(d, *row) for row in A]
    spread = mass * (d * sum(s) - sum(map(mul, s, gcds)))
    if 2 * d * moment != spread:
        raise ArithmeticError(f"numerator has first moment {moment}, not the "
                              f"{spread}/{2 * d} that the digit gcds of A give")
    return coeffs


# Columns whose order in the critical group is at most this take the DP's
# per-class loop of o_j shifted adds; longer ones the prefix sums of
# `_cycle_step`, whose five or so big-int operations per class cost more
# than a short loop.
_LOOP_ORDER = 8


def _cycle_step(hist: list[int], new: list[int], nxt: list[int], moves: list[int]) -> None:
    """One column of `_numerator`'s DP by prefix sums over each cycle of
    the class permutation `nxt`, whose cycles have the column's order o:
    new[t] sums hist[k] shifted by the moves along the c steps from k to
    t = nxt^c(k), over the classes k and digits c < o that reach t.

    On a cycle t_0..t_{o-1}, P_i sums the moves from t_0 to t_i, and P_o,
    the whole cycle's, is e slots.  With H_i = hist[t_i] << (P_o - P_i) and
    A_m = H_0 + ... + H_m, class t_m gains (A_m << P_m) >> P_o from the
    classes up to it, a right shift that is exact since P_m >= P_i for
    i <= m, and (A_{o-1} - A_m) << P_m from the classes past it, which
    wrap around the cycle.

    A cycle is started at a class with a count, and its classes in hist
    are emptied once read: so each cycle runs once, a cycle of empty
    classes never, and no class holds its old and new histograms at once.
    """
    for k in range(len(hist)):
        if not hist[k]:
            continue
        cycle, t = [k], nxt[k]
        while t != k:
            cycle.append(t)
            t = nxt[t]
        counts = [hist[t] for t in cycle]
        for t in cycle:
            hist[t] = 0
        P = list(accumulate([moves[t] for t in cycle], initial=0))
        total = P.pop()
        sums = list(accumulate(map(lshift, counts, map(total.__sub__, P))))
        del counts
        last = sums[-1]
        for t, a, p in zip(cycle, sums, P):
            new[t] = ((a << p) >> total) + ((last - a) << p)


def _times_packed_geometric(x: int, shift: int, m: int) -> int:
    """x * (1 + Q + ... + Q^(m-1)) for Q = 2**shift, by binary doubling over
    the bits of m: G_2k = G_k * (1 + Q^k) and G_(2k+1) = 1 + Q * G_2k."""
    y, k = x, 1
    for bit in bin(m)[3:]:
        y += y << (k * shift)
        k *= 2
        if bit == "1":
            y = x + (y << shift)
            k += 1
    return y


def _ray_exponents(cone: SimplicialCone) -> tuple[list[int], list[int]]:
    """The ray exponents s = w^T R of both modes, in the order of `_MODES`.

    They are the two weight columns of X = d*A^-T*W that `_back_substitute`
    gives on the cone's kept pass, solved here with one scalar accumulator
    per column: from the last kept row up, X_c = (d*b' - sum U_j*X_j) / p
    over the row's nonzero U_j.  A pivot p other than 1 divides each column
    by a `divmod` whose remainder must be 0, so a wrong d is refused in
    either column.
    """
    n, d = cone.dimension, cone.d
    total, first = [0] * n, [0] * n
    for c, pivot, labels, row in reversed(cone._upper):
        t, f = d * row[-2], d * row[-1]
        for j, u in compress(zip(labels, row), row):
            t -= u * total[j]
            f -= u * first[j]
        if pivot != 1:
            (t, r), (f, r2) = divmod(t, pivot), divmod(f, pivot)
            if r or r2:
                raise ArithmeticError("Bareiss division left a remainder")
        total[c], first[c] = t, f
    return total, first


def specialized_gf(cone: SimplicialCone, mode: Literal["total", "first_coordinate"],
                   budget: Optional[int] = None) -> UnivariateRationalGF:
    """`specialize(integer_point_transform(cone, budget), mode)`, with no walk.

    Back substitution on the cone's kept forward pass gives X = d*A^-T*W =
    R^T*W for the weight forms W of both modes, so the mode's column of X
    is s = w^T R: ray j has exponent s_j, and the point lam = R*c/d has
    s.c/d.  `_ray_exponents` solves both columns by scalars, each division
    checked, so a wrong d is refused whichever mode is asked for.  With
    d > 1 the budget is charged d**(n-1) points first.  Then every s_j
    must be positive, so no point's exponent is negative.  With d = 1 the
    apex is the one point, and neither R nor a second elimination is
    needed.  With d > 1, s*A = d*w^T is checked, in O(n^2) and with no R:
    it ties s to A, which the product route reads nowhere else.  Then
    there are two routes, chosen from d and s:

    - gcd(d, s_1, ..., s_n) = 1 and (d-1)*sum(s) + 1 <= `_PRODUCT_SLOTS`:
      `_product_numerator`, one packed product, with no R; d is checked
      there by `determinant`, as R checks it on the DP's route;
    - every other cone: the digit-class DP `_numerator` on R.
    """
    n, d = cone.dimension, cone.d
    w = _mode_weights(mode, n)  # an unknown mode is refused first
    if d > 1:
        _charge_points(cone, budget)
    s = _ray_exponents(cone)[_MODES.index(mode)]
    factors = _ray_factors(s)
    if d == 1:
        return UnivariateRationalGF([1], factors)
    if [sum(map(mul, s, col)) for col in zip(*cone.A)] != [d * x for x in w]:
        raise ArithmeticError("ray exponents s do not satisfy s*A = d*w")
    if math.gcd(d, *s) == 1 and (d - 1) * sum(s) + 1 <= _PRODUCT_SLOTS:
        return UnivariateRationalGF(_product_numerator(cone.A, d, s), factors)
    return UnivariateRationalGF(_numerator(cone.A, cone.R, d, s), factors)


def series_expand(gf: UnivariateRationalGF, order: int,
                  budget: Optional[int] = None) -> list[int]:
    """Exact coefficients of q^0..q^order of the rational function.

    A denominator factor (1 - q^e)^m takes min(m, order // e) passes over
    the coefficients: m geometric passes, or the order // e of its
    binomial series when m is larger, so a huge multiplicity costs no more
    than the order allows.  Its `_series_updates` are charged first.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    _charge(_series_updates(gf, order), budget,
            "series needs {} coefficient updates; budget is {}")
    coeffs = list(gf.numerator[: order + 1])
    coeffs += [0] * (order + 1 - len(coeffs))
    for e, mult in gf.denominator:
        if mult > order // e:
            coeffs = _times_binomial_series(coeffs, e, mult)
        else:
            for _ in range(mult):
                _times_geometric(coeffs, e)
    return coeffs


def _series_updates(gf: UnivariateRationalGF, order: int) -> int:
    """Coefficient updates of `series_expand(gf, order)`: the coefficient
    list, then one update per coefficient in each of its passes."""
    passes = sum(min(m, order // e) for e, m in gf.denominator)
    return (order + 1) * (1 + passes)


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
    last level emits its interval without scanning it.  Only the rows
    nonzero at t bound x_t and update their needs.

    The rows zero at level 0 are tested once, there, and prune the whole
    box when a need exceeds its tail; no later level could fire that
    test.  After level t every row's need is at most its tail at t: a row
    nonzero at t bounds x_t so, and a row zero at t keeps the need it had
    and the tail it had one level up.
    """
    _charge_box(lows, highs, budget)
    n = len(lows)
    columns = [[row[t] for row in rows] for t in range(n)]
    # tails[t][r]: the most that coordinates t+1.. can add to row r.
    tails = [[0] * len(rows)]
    for t in range(n - 1, 0, -1):
        tails.insert(0, [tail + max(a * lows[t], a * highs[t])
                         for tail, a in zip(tails[0], columns[t])])
    if any(b > tail for a, b, tail in zip(columns[0], rhs, tails[0]) if not a):
        return []
    # Per level: (r, a, tail) of each row r with a != 0 there.
    nonzero = [[(r, a, tail[r]) for r, a in enumerate(column) if a]
               for column, tail in zip(columns, tails)]
    points = []

    def scan(t: int, prefix: tuple[int, ...], needs: list[int]):
        lo, hi = lows[t], highs[t]
        for r, a, tail in nonzero[t]:
            slack = needs[r] - tail
            if a > 0:
                bound = -(-slack // a)
                if bound > lo:
                    lo = bound
            else:
                bound = slack // a
                if bound < hi:
                    hi = bound
        if t == n - 1:
            points.extend(prefix + (x,) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            child = needs.copy()
            for r, a, _ in nonzero[t]:
                child[r] -= a * x
            scan(t + 1, prefix + (x,), child)

    scan(0, (), list(rhs))
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
