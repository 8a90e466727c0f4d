"""Tests for the exact integer matrix layer."""

import re
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import scaled
from lapcomp import (
    Graph,
    IntegerMatrix,
    SingularMatrixError,
    adjugate_pair,
    cycle_families,
    determinant,
    exact_linalg,
    laplacian_minor,
    scaled_solve,
)
from oracles import gauss_jordan, matrix_fault


def cofactor_det(rows):
    """Reference determinant by Laplace expansion (test oracle only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def square(draw_n=5):
    return st.integers(min_value=1, max_value=draw_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


# Half the entries zero: rows whose multiplier is zero skip steps of the
# elimination, and zero pivots force row swaps.
SPARSE_ENTRY = st.one_of(st.just(0), st.integers(-4, 4))


def sparse_square(draw, n):
    return draw(st.lists(st.lists(SPARSE_ENTRY, min_size=n, max_size=n),
                         min_size=n, max_size=n))


class TestConstruction:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntegerMatrix([])
        with pytest.raises(ValueError):
            IntegerMatrix([[]])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            IntegerMatrix([[1, 2.5]])
        with pytest.raises(TypeError):
            IntegerMatrix([["3"]])

    def test_rejects_bool_entries(self):
        # A bool would print as JSON `true` where the package promises
        # decimal strings.
        with pytest.raises(TypeError, match="^integer matrix entry True is not an int$"):
            IntegerMatrix([[True, 2], [3, 4]])
        with pytest.raises(TypeError, match="^integer matrix entry False is not an int$"):
            IntegerMatrix([[1, 2], [3, False]])

    def test_int_subclasses_are_ints(self):
        class Label(int):
            pass
        assert IntegerMatrix([[Label(3), 1]]) == IntegerMatrix([[3, 1]])

    @pytest.mark.parametrize("rows, error, message", [
        # The first faulty row decides, whatever comes after it.
        ([[1, 2], [3], [4, 1.5]], ValueError, "matrix rows have unequal lengths"),
        ([[1, 2], [3, "4"], [5]], TypeError, "integer matrix entry '4' is not an int"),
        # Within one row an entry is checked before the row's length.
        ([[1, 2], [3, None, 5]], TypeError, "integer matrix entry None is not an int"),
        ([[1, True], []], TypeError, "integer matrix entry True is not an int"),
        # A row that is not iterable fails only after the rows before it.
        ([[2.5], 7], TypeError, "integer matrix entry 2.5 is not an int"),
        ([[1], [2, 3], 7], ValueError, "matrix rows have unequal lengths"),
        ([[1], 7, [2.5]], TypeError, "'int' object is not iterable"),
        ([[], [1]], ValueError, "matrix rows have unequal lengths"),
        ([[], []], ValueError, "matrix must have at least one row and one column"),
    ])
    def test_first_faulty_row_decides(self, rows, error, message):
        assert matrix_fault(rows) == (error, message)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            IntegerMatrix(rows)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            IntegerMatrix(iter(rows))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_errors_match_the_row_walk(self, data):
        entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3), st.booleans(),
                          st.sampled_from([1.5, "7", None]))
        row = st.one_of(st.lists(entry, max_size=3), st.just(5))
        rows = data.draw(st.lists(row, max_size=4))
        lazy = data.draw(st.booleans())
        expected = matrix_fault(rows)
        try:
            m = IntegerMatrix((r for r in rows) if lazy else rows)
        except (TypeError, ValueError) as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert expected is None
            assert list(m) == [tuple(r) for r in rows]


    def test_package_rows_skip_the_entry_pass(self, monkeypatch):
        # Rows the package computed from ints come as `_IntRows`; only
        # rows from outside get the C-level type pass.
        scanned = []

        class Chain:
            @staticmethod
            def from_iterable(data):
                scanned.append(len(data))
                return chain.from_iterable(data)

        monkeypatch.setattr(exact_linalg, "chain", Chain)
        m = IntegerMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert scanned == [3]
        built = [m @ m, m.transpose(), IntegerMatrix.identity(3), adjugate_pair(m)[1],
                 scaled_solve(m, m)[1], *cycle_families._leafed_minor_pair(5),
                 laplacian_minor(Graph(4, [(0, 1), (1, 2), (2, 3)]), 0)]
        assert scanned == [3]
        for b in built:
            assert type(b._data) is tuple
            assert IntegerMatrix(b.to_lists()) == b
        with pytest.raises(ValueError, match="^matrix must have at least one row and one column$"):
            IntegerMatrix.identity(0)


class TestAccessors:
    def setup_method(self):
        self.m = IntegerMatrix([[1, 2, 3], [4, 5, 6]])

    def test_shape(self):
        assert (self.m.rows, self.m.cols) == (2, 3)
        assert not self.m.is_square

    def test_getitem(self):
        assert self.m[1, 2] == 6
        assert self.m[0] == (1, 2, 3)

    def test_row_column(self):
        assert self.m.row(1) == (4, 5, 6)
        assert self.m.column(2) == (3, 6)

    def test_transpose(self):
        assert self.m.transpose() == IntegerMatrix([[1, 4], [2, 5], [3, 6]])

    def test_iteration_matches_rows(self):
        assert list(self.m) == [(1, 2, 3), (4, 5, 6)]

    def test_equality(self):
        assert IntegerMatrix([[1, 2], [3, 4]]) == IntegerMatrix([[1, 2], [3, 4]])
        assert IntegerMatrix([[1]]) != IntegerMatrix([[2]])

    def test_hashable(self):
        assert len({IntegerMatrix([[1]]), IntegerMatrix([[1]])}) == 1


class TestProducts:
    def test_apply(self):
        m = IntegerMatrix([[1, 2], [3, 4]])
        assert m.apply([1, 1]) == (3, 7)

    def test_apply_length_mismatch(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2]]).apply([1, 2, 3])

    def test_matmul(self):
        a = IntegerMatrix([[1, 2], [3, 4]])
        b = IntegerMatrix([[0, 1], [1, 0]])
        assert a @ b == IntegerMatrix([[2, 1], [4, 3]])

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2]]) @ IntegerMatrix([[1, 2]])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_products_equal_the_triple_loop(self, data):
        p, q, r = (data.draw(st.integers(1, 4)) for _ in range(3))
        entries = st.integers(-2**70, 2**70)
        a = data.draw(st.lists(st.lists(entries, min_size=q, max_size=q),
                               min_size=p, max_size=p))
        b = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                               min_size=q, max_size=q))
        x = data.draw(st.lists(entries, min_size=q, max_size=q))
        product = [[0] * r for _ in range(p)]
        for i in range(p):
            for j in range(r):
                for k in range(q):
                    product[i][j] += a[i][k] * b[k][j]
        assert IntegerMatrix(a) @ IntegerMatrix(b) == IntegerMatrix(product)
        assert IntegerMatrix(a).apply(x) == tuple(
            sum(a[i][k] * x[k] for k in range(q)) for i in range(p))


class TestDeterminant:
    def test_examples(self):
        assert determinant(IntegerMatrix([[5]])) == 5
        assert determinant(IntegerMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(IntegerMatrix.identity(4)) == 1

    def test_zero_pivot_needs_row_swap(self):
        assert determinant(IntegerMatrix([[0, 1], [1, 0]])) == -1

    def test_singular(self):
        assert determinant(IntegerMatrix([[1, 2], [2, 4]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
            determinant(IntegerMatrix([[1, 2]]))

    @settings(max_examples=150, deadline=None)
    @given(square())
    def test_matches_cofactor_expansion(self, rows):
        assert determinant(IntegerMatrix(rows)) == cofactor_det(rows)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_determinant(self, data):
        rows = sparse_square(data.draw, data.draw(st.integers(1, 6)))
        assert determinant(IntegerMatrix(rows)) == cofactor_det(rows)

    @settings(max_examples=60, deadline=None)
    @given(square(4), square(4))
    def test_multiplicative(self, a_rows, b_rows):
        if len(a_rows) != len(b_rows):
            a_rows = b_rows
        a, b = IntegerMatrix(a_rows), IntegerMatrix(b_rows)
        assert determinant(a @ b) == determinant(a) * determinant(b)


def cofactor_adjugate(rows):
    """Reference adjugate, the transposed cofactor matrix (test oracle only)."""
    n = len(rows)
    if n == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j)
            * cofactor_det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def cofactor_pair(rows):
    """(|det|, sign(det) * adjugate) by cofactor expansion."""
    det = cofactor_det(rows)
    sign = 1 if det > 0 else -1
    adj = [[sign * x for x in row] for row in cofactor_adjugate(rows)]
    return abs(det), IntegerMatrix(adj)


class TestInverse:
    """adjugate_pair as the scaled inverse d * m^-1."""

    def test_example(self):
        assert adjugate_pair(IntegerMatrix([[2, 1], [1, 1]])) == (
            1, IntegerMatrix([[1, -1], [-1, 2]])
        )

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            adjugate_pair(IntegerMatrix([[1, 1], [1, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^adjugate of a non-square matrix$"):
            adjugate_pair(IntegerMatrix([[1, 2]]))

    @settings(max_examples=100, deadline=None)
    @given(square())
    def test_product_is_identity(self, rows):
        m = IntegerMatrix(rows)
        if determinant(m) == 0:
            with pytest.raises(SingularMatrixError):
                adjugate_pair(m)
        else:
            d, r = adjugate_pair(m)
            scaled_identity = scaled(IntegerMatrix.identity(m.rows), d)
            assert m @ r == scaled_identity
            assert r @ m == scaled_identity


class TestAdjugatePair:
    def test_example(self):
        d, r = adjugate_pair(IntegerMatrix([[2, 1], [1, 2]]))
        assert d == 3
        assert r == IntegerMatrix([[2, -1], [-1, 2]])

    def test_negative_determinant_still_positive_d(self):
        d, r = adjugate_pair(IntegerMatrix([[0, 1], [1, 0]]))
        assert d == 1
        assert r == IntegerMatrix([[0, 1], [1, 0]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            adjugate_pair(IntegerMatrix([[0, 0], [0, 0]]))

    # Zero leading pivots (the first three) and negative determinants (all).
    @pytest.mark.parametrize("rows", [
        [[0, 2], [3, 1]],
        [[0, 1, 2], [1, 0, 3], [4, -3, 8]],
        [[0, 0, 1, 2], [0, 3, 0, 1], [2, 1, 1, 0], [1, 0, 2, 5]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
    ])
    def test_matches_cofactor_adjugate(self, rows):
        assert adjugate_pair(IntegerMatrix(rows)) == cofactor_pair(rows)

    @settings(max_examples=100, deadline=None)
    @given(square())
    def test_defining_identity(self, rows):
        m = IntegerMatrix(rows)
        det = determinant(m)
        if det == 0:
            return
        d, r = adjugate_pair(m)
        assert d == abs(det)
        assert m @ r == scaled(IntegerMatrix.identity(m.rows), d)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                    min_size=n - 1,
                    max_size=n - 1,
                ),
                st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
                st.integers(0, n - 1),
            )
        )
    )
    def test_every_singular_matrix_raises(self, data):
        # One row is an integer combination of the others, so det = 0.
        rows, coeffs, position = data
        dependent = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
        rows.insert(position, dependent)
        with pytest.raises(SingularMatrixError):
            adjugate_pair(IntegerMatrix(rows))


@st.composite
def solvable_system(draw):
    """(m, B): m is 1x1 to 6x6 and invertible, often with a zero leading
    pivot (m[0][0] = 0) and, through a swap of its first two rows, often
    with a negative determinant; B has one to three columns."""
    n = draw(st.integers(1, 6))
    rows = sparse_square(draw, n)
    if n > 1 and draw(st.booleans()):
        rows[0][0] = 0
    if n > 1 and draw(st.booleans()):
        rows[0], rows[1] = rows[1], rows[0]
    assume(cofactor_det(rows) != 0)
    k = draw(st.integers(1, 3))
    b = draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                      min_size=n, max_size=n))
    return IntegerMatrix(rows), IntegerMatrix(b)


class TestScaledSolve:
    def test_example(self):
        m = IntegerMatrix([[0, 2], [3, 1]])  # zero leading pivot, det -6
        d, x = scaled_solve(m, IntegerMatrix([[2], [1]]))
        assert (d, x) == (6, IntegerMatrix([[0], [6]]))

    @settings(max_examples=150, deadline=None)
    @given(solvable_system())
    def test_scaled_solution(self, system):
        m, b = system
        d, x = scaled_solve(m, b)
        assert d == abs(cofactor_det(m.to_lists()))
        assert m @ x == scaled(b, d)
        assert x == adjugate_pair(m)[1] @ b

    @pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]],
                                      [[0, 1, 2], [0, 3, 4], [0, 5, 6]]])
    def test_singular_raises(self, rows):
        m = IntegerMatrix(rows)
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            scaled_solve(m, IntegerMatrix.identity(m.rows))

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="^solve with a non-square matrix$"):
            scaled_solve(IntegerMatrix([[1, 2]]), IntegerMatrix([[1]]))
        with pytest.raises(ValueError,
                           match="^right-hand side has 1 rows, matrix has 2$"):
            scaled_solve(IntegerMatrix.identity(2), IntegerMatrix([[1, 2]]))

    def test_every_division_is_checked(self, monkeypatch):
        # The divisions are exact for any integer input, so a remainder
        # can only be provoked by a divmod that reports one: each routine
        # must then refuse rather than return.  No row of m has a unit
        # diagonal, so every routine's pass divides by a non-unit pivot.
        monkeypatch.setattr(exact_linalg, "divmod", lambda a, b: (a // b, 1),
                            raising=False)
        m = IntegerMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        calls = [lambda: determinant(m), lambda: adjugate_pair(m),
                 lambda: scaled_solve(m, IntegerMatrix([[1], [0], [0]])),
                 lambda: scaled_solve(IntegerMatrix([[3]]), IntegerMatrix([[1]]))]
        for call in calls:
            with pytest.raises(ArithmeticError,
                               match="^Bareiss division left a remainder$"):
                call()


@st.composite
def oracle_matrix(draw):
    """An n x n matrix, n <= 7, at least half of whose entries are 0:
    small or up to 2**70 in size, often with a zero diagonal, and often
    singular, one row a multiple of another."""
    n = draw(st.integers(1, 7))
    bound = draw(st.sampled_from([4, 2**70]))
    cells = draw(st.sets(st.integers(0, n * n - 1), max_size=n * n // 2))
    rows = [[draw(st.integers(-bound, bound)) if i * n + j in cells else 0
             for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        rows[i] = [c * x for x in rows[j]]
    assume(2 * sum(r.count(0) for r in rows) >= n * n)
    return rows


@st.composite
def relabelled_minor(draw):
    """The Laplacian minor, at a drawn vertex, of a tree, a cycle or a
    connected graph on up to 9 vertices whose labels are drawn at random."""
    kind = draw(st.sampled_from(["tree", "cycle", "graph"]))
    n = draw(st.integers(3 if kind == "cycle" else 2, 9))
    if kind == "cycle":
        edges = {(v, (v + 1) % n) for v in range(n)}
    else:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if kind == "graph":
        extra = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges |= set(draw(st.lists(st.sampled_from(extra), unique=True))) if extra else set()
    label = draw(st.permutations(range(n)))
    g = Graph(n, [(label[u], label[v]) for u, v in sorted(edges)])
    return laplacian_minor(g, draw(st.integers(0, n - 1))).to_lists()


class TestAgainstGaussJordan:
    """The kernel against an independent rational Gauss-Jordan oracle: the
    pivot order changes neither the sign of det nor the scaled solution."""

    @staticmethod
    def scaled(d, solution):
        """d times the rational solution, which must be integral."""
        assert all((d * x).denominator == 1 for r in solution for x in r)
        return IntegerMatrix([[int(d * x) for x in r] for r in solution])

    def check(self, rows, rhs):
        det, solution = gauss_jordan(rows, rhs)
        m = IntegerMatrix(rows)
        assert determinant(m) == det
        identity = IntegerMatrix.identity(len(rows))
        if det == 0:
            for call in (lambda: adjugate_pair(m),
                         lambda: scaled_solve(m, IntegerMatrix(rhs))):
                with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                    call()
            return
        d = abs(det)
        assert scaled_solve(m, IntegerMatrix(rhs)) == (d, self.scaled(d, solution))
        inverse = gauss_jordan(rows, identity.to_lists())[1]
        assert adjugate_pair(m) == (d, self.scaled(d, inverse))

    @settings(max_examples=300, deadline=None)
    @given(oracle_matrix(), st.data())
    def test_sparse_matrices(self, rows, data):
        k = data.draw(st.integers(1, 3))
        rhs = data.draw(st.lists(st.lists(st.integers(-2**70, 2**70), min_size=k, max_size=k),
                                 min_size=len(rows), max_size=len(rows)))
        self.check(rows, rhs)

    @settings(max_examples=150, deadline=None)
    @given(relabelled_minor())
    def test_relabelled_graph_minors(self, rows):
        n = len(rows)
        self.check(rows, [[1, int(i == 0)] for i in range(n)])

    @settings(max_examples=100, deadline=None)
    @given(st.permutations(range(7)), st.integers(1, 7))
    def test_permutation_sign(self, perm, n):
        # Every diagonal may be 0, so pivots leave their rows' columns.
        perm = [p for p in perm if p < n]
        rows = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        assert determinant(IntegerMatrix(rows)) == (-1) ** inversions
        self.check(rows, [[j - i for j in range(2)] for i in range(n)])


class TestTreePivots:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_leaves_first_without_fill(self, data):
        # A random 30-60-vertex tree with random labels and a random minor
        # vertex: every pivot of the pass over [A^T | w] is 1, and a kept
        # row holds nonzeros only where A^T does.
        n = data.draw(st.integers(30, 60))
        label = data.draw(st.permutations(range(n)))
        edges = [(label[data.draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)]
        A = laplacian_minor(Graph(n, edges), data.draw(st.integers(0, n - 1)))
        At = A.transpose()
        D, upper = exact_linalg._eliminate(
            [list(r) + [1, int(i == 0)] for i, r in enumerate(At)], n - 1)
        assert D == 1 and len(upper) == n - 1
        for c, pivot, labels, row in upper:
            assert pivot == 1
            assert all(At[c, j] for j, x in zip(labels, row) if x)
