"""Correctness gate: verify each query's output by a route other than the
one the query times.

`verify(query, rc, stdout, stderr)` returns None when the output is right
and a one-line reason otherwise.  The oracles are this module's own exact
arithmetic (cofactor adjugates, Bareiss determinants, Burnside counts,
finite differences) plus ``lapcomp``'s independent routes: the box-scan
`brute_force_count` and the distance-based `tree_inverse_combinatorial`.
"""

from __future__ import annotations

import ast
import json
import math
import re
from collections import Counter

from workloads import Query, bareiss_det, laplacian, minor

# Series coefficients q^0..q^m compared against brute_force_count, and the
# largest box it may scan for one coefficient; higher coefficients whose box
# is larger are left to the mass and denominator checks.
SERIES_TERMS = {"gf_total": 3, "gf_first": 2}
BRUTE_FORCE_CELLS = 200_000

_DEN_FACTOR = re.compile(r"\(1 - q\^(\d+)\)(?:\^(\d+))?")
_TERM = re.compile(r"^(\d*)(q(?:\^(\d+))?)?$")
_REFUSAL = re.compile(
    r"error: budget exhausted: parallelepiped has (\d+) lattice points; "
    r"budget is (\d+)\n"
)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _adjugate(a: list[list[int]]) -> list[list[int]]:
    """adj(a) by cofactors: adj[i][j] = (-1)^(i+j) det(a without row j, col i)."""
    n = len(a)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            out[i][j] = (-1) ** (i + j) * bareiss_det(sub)
    return out


def _parse_poly(text: str) -> list[int]:
    """Dense coefficients of a `polynomial_string` rendering (q-powers)."""
    coeffs: dict[int, int] = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        m = _TERM.match(token)
        _require(m is not None and token != "", f"bad polynomial term {token!r}")
        digits, var, power = m.groups()
        coeff = int(digits) if digits else 1
        exp = 0 if var is None else (int(power) if power else 1)
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        sign = 1
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def _parse_rational(line: str) -> tuple[list[int], Counter]:
    """Split 'num/den' as printed by UnivariateRationalGF.__str__."""
    num_text, _, den_text = line.partition("/")
    _require(bool(den_text), f"no denominator in {line[:60]!r}")
    if num_text.startswith("("):
        num_text = num_text[1:-1]
    den: Counter = Counter()
    consumed = 0
    for m in _DEN_FACTOR.finditer(den_text):
        den[int(m.group(1))] += int(m.group(2) or 1)
        consumed += len(m.group(0))
    _require(consumed == len(den_text), f"bad denominator {den_text[:60]!r}")
    return _parse_poly(num_text), den


def _expand(num: list[int], den: Counter, order: int) -> list[int]:
    coeffs = (num + [0] * (order + 1))[: order + 1]
    for e, mult in den.items():
        for _ in range(mult):
            for i in range(e, order + 1):
                coeffs[i] += coeffs[i - e]
    return coeffs


def _one_line(stdout: str) -> str:
    _require(stdout.endswith("\n") and stdout.count("\n") == 1,
             "expected one line of output")
    return stdout[:-1]


# --- cone workloads ----------------------------------------------------------

def _cone_matrix(expect) -> list[list[int]]:
    return minor(laplacian(expect["vertex_count"], expect["edges"]), expect["minor"])


def _check_gf_series(q: Query, stdout: str) -> None:
    from lapcomp.cone_engine import BudgetExceededError, brute_force_count
    from lapcomp.exact_linalg import IntegerMatrix

    e = q.expect
    num, den = _parse_rational(_one_line(stdout))
    a = _cone_matrix(e)
    points = e["d"] ** (e["vertex_count"] - 2)
    _require(sum(num) == points, f"numerator mass {sum(num)} != d^(n-2) = {points}")
    _require(min(num) >= 0, "negative numerator coefficient")
    rays = _adjugate(a)  # = d * A^-1, since det A = d > 0
    if q.kind == "gf_total":
        expected_den = Counter(sum(col) for col in zip(*rays))
        statistic = "total"
    else:
        expected_den = Counter(rays[0])
        statistic = "first_coordinate"
    _require(den == expected_den, "denominator exponents disagree with the adjugate")
    order = SERIES_TERMS[q.kind]
    series = _expand(num, den, order)
    matrix = IntegerMatrix(a)
    for m in range(order + 1):
        try:
            brute = brute_force_count(matrix, statistic, m, budget=BRUTE_FORCE_CELLS)
        except BudgetExceededError:
            break
        _require(series[m] == brute,
                 f"coefficient of q^{m} is {series[m]}, box count {brute}")


def _in_parallelepiped(a, lam, d) -> tuple[int, ...]:
    c = tuple(sum(x * y for x, y in zip(row, lam)) for row in a)
    _require(all(0 <= x < d for x in c), f"point {lam} is outside the parallelepiped")
    return c


def _check_fpp_json(q: Query, stdout: str) -> None:
    e = q.expect
    data = json.loads(stdout)
    a = _cone_matrix(e)
    d = e["d"]
    _require(int(data["determinant"]) == d, "wrong determinant")
    entries = data["points"]
    _require(len(entries) == d ** (e["vertex_count"] - 2), "wrong point count")
    seen = set()
    for entry in entries:
        lam = [int(x) for x in entry["point"]]
        digits = tuple(int(x) for x in entry["digits"])
        _require(_in_parallelepiped(a, lam, d) == digits, "digits are not A*point")
        seen.add(digits)
    _require(len(seen) == len(entries), "repeated parallelepiped points")


def _check_gf_json(q: Query, stdout: str) -> None:
    e = q.expect
    data = json.loads(stdout)
    a = _cone_matrix(e)
    d = e["d"]
    numerator = data["numerator"]
    _require(len(numerator) == d ** (e["vertex_count"] - 2), "wrong numerator size")
    seen = {_in_parallelepiped(a, [int(x) for x in lam], d) for lam in numerator}
    _require(len(seen) == len(numerator), "repeated numerator exponents")
    hit = Counter()
    for entry in data["denominator"]:
        ray = [int(x) for x in entry["ray"]]
        image = [sum(x * y for x, y in zip(row, ray)) for row in a]
        _require(sorted(image) == [0] * (len(a) - 1) + [d], f"A*ray is not d*e_j for {ray}")
        hit[image.index(d)] += int(entry["mult"])
    _require(hit == Counter(range(len(a))), "rays do not cover every axis once")


# --- big_graphs --------------------------------------------------------------

def _check_tree_gf(q: Query, stdout: str) -> None:
    from lapcomp.graph_core import Graph
    from lapcomp.tree_transforms import tree_inverse_combinatorial

    e = q.expect
    num, den = _parse_rational(_one_line(stdout))
    _require(num == [1], "tree numerator is not 1")
    inv = tree_inverse_combinatorial(Graph(e["vertex_count"], e["edges"]), e["leaf"])
    expected = Counter(sum(col) for col in zip(*inv.matrix.to_lists()))
    _require(den == expected, "tree denominators are not the distance-matrix column sums")


def _check_refusal(q: Query, rc: int, stdout: str, stderr: str) -> None:
    e = q.expect
    _require(rc == 2, f"exit code {rc}, expected a budget refusal (2)")
    _require(stdout == "", "refusal printed to stdout")
    m = _REFUSAL.fullmatch(stderr)
    _require(m is not None, f"unexpected refusal message {stderr[:80]!r}")
    required = e["d"] ** (e["vertex_count"] - 2)
    _require(int(m.group(1)) == required, "refusal does not report required = d^(n-2)")


def _check_tree_equivalence(q: Query, stdout: str) -> None:
    _require(stdout == f"{q.expect['count']} random trees: all identities hold\n",
             "tree identities reported a failure")


# --- leafed_cycles -----------------------------------------------------------

def _burnside(m: int, n: int) -> int:
    """Rotation classes of weak compositions of m into n parts."""
    total = 0
    for g in range(n):
        period = math.gcd(g, n)
        if m % (n // period) == 0:
            total += math.comb(m * period // n + period - 1, period - 1)
    return total // n


def _check_cyclic(q: Query, stdout: str) -> None:
    n = q.expect["n"]
    lines = stdout.splitlines()
    _require(len(lines) == 3 * n + 2, "wrong number of cyclic rows")
    for m, line in enumerate(lines[:-1]):
        burnside = _burnside(m, n)
        _require(line == f"m={m}: coefficient {burnside} vs classes {burnside} ok",
                 f"row m={m} disagrees with the Burnside count {burnside}")
    _require(lines[-1] == f"{3 * n + 1}/{3 * n + 1} match", "bad summary line")


def _check_near_symmetry(q: Query, stdout: str) -> None:
    k = q.expect["n"]
    n = 2 ** k
    lines = stdout.splitlines()
    _require(lines[0] == f"k={k} (n={n})", "bad header")
    fields = dict(line.split(":", 1) for line in lines[1:] if ":" in line)
    expected = [0] * (n * (n - 2) + 1)
    for i in range(n - 1):
        expected[n * i] = (-1) ** i * math.comb(n - 2, i)
    _require(ast.literal_eval(fields["expected"].strip()) == expected,
             "expected polynomial is not (1 - q^n)^(n-2)")
    if "difference" in fields:
        diff = ast.literal_eval(fields["difference"].strip())
        _require(fields["verdict"].strip() == str(diff == expected),
                 "verdict does not follow from the difference")
    _require(fields["numerator-level identity holds"].strip() == "True",
             "numerator-level identity failed")


def _check_reflexive(q: Query, stdout: str) -> None:
    n = q.expect["n"]
    line = _one_line(stdout)
    _require(line.startswith(f"n={n}: reflexive={n % 2 == 1} "),
             "reflexivity must hold exactly for odd n")
    _require(line.endswith("; interior-count test agrees"), "tests disagree")


def _check_ehrhart(q: Query, stdout: str) -> None:
    n = q.expect["n"]
    lines = stdout.splitlines()
    _require(lines[0] == f"n={n}, dimension {n - 1}", "bad header")
    vertices = ast.literal_eval(lines[1].removeprefix("vertices: "))
    counts = ast.literal_eval(lines[2].removeprefix("dilate counts: "))
    h = ast.literal_eval(lines[3].removeprefix("h*: "))
    dim = n - 1
    v0 = vertices[0]
    volume = abs(bareiss_det([[v[i] - v0[i] for v in vertices[1:]] for i in range(dim)]))
    _require(sum(h) == volume, f"h* sums to {sum(h)}, normalized volume is {volume}")
    diffs = [sum((-1) ** i * math.comb(dim + 1, i) * counts[j - i] for i in range(j + 1))
             for j in range(dim + 1)]
    _require(h == diffs and counts[0] == 1, "h* is not the difference of the counts")
    _require(lines[4].endswith(f"reflexive={n % 2 == 1}"), "wrong reflexivity")
    if q.kind == "ehrhart2":
        _require(len(lines) == 6 and lines[5] in ("normal up to dilate 1",
                                                   "normal up to dilate 2"),
                 "missing normality result")
    else:
        _require(len(lines) == 5, "unexpected normality line")


_STDOUT_CHECKS = {
    "gf_total": _check_gf_series,
    "gf_first": _check_gf_series,
    "fpp_json": _check_fpp_json,
    "gf_json": _check_gf_json,
    "tree_gf": _check_tree_gf,
    "tree_equivalence": _check_tree_equivalence,
    "cyclic": _check_cyclic,
    "near_symmetry": _check_near_symmetry,
    "reflexive": _check_reflexive,
    "ehrhart0": _check_ehrhart,
    "ehrhart2": _check_ehrhart,
}


def verify(q: Query, rc, stdout: str, stderr: str) -> str | None:
    """None if the output is correct, else the reason it is not."""
    try:
        if q.kind == "dense_refusal":
            _check_refusal(q, rc, stdout, stderr)
            return None
        _require(rc == 0, f"exit code {rc}: {stderr.strip()[:120]}")
        _require(stderr == "", f"unexpected stderr {stderr[:80]!r}")
        _STDOUT_CHECKS[q.kind](q, stdout)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, SyntaxError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"
    return None
