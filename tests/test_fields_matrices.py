import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronhf.errors import ShapeError, ValidationError
from kronhf.fields import QQ, PrimeField, is_prime, parse_rational
from kronhf.matrices import (Matrix, column_space_dim_of_stack, matrix_from_text,
                             min_eigenvalue_symmetric, random_matrix,
                             random_invertible)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2_147_483_647)
    assert not is_prime(2_147_483_647 * 3)


def test_prime_field_rejects_composite():
    with pytest.raises(ValidationError):
        PrimeField(4)


def test_prime_field_arithmetic():
    F7 = PrimeField(7)
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.coerce(-1) == 6
    assert F7.coerce(Fraction(1, 2)) == 4


def test_parse_rational_rejects_floats():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(ValidationError):
        parse_rational("0.75")


def test_rank_identity_and_zero():
    F5 = PrimeField(5)
    assert Matrix.identity(F5, 3).rank() == 3
    assert Matrix.zeros(QQ, 2, 4).rank() == 0


def test_kernel_identity_zero_and_f2():
    assert Matrix.identity(QQ, 4).kernel_basis().cols == 0
    assert Matrix.zeros(QQ, 2, 3).kernel_basis().cols == 3
    F2 = PrimeField(2)
    m = Matrix.from_dense(F2, [[1, 1], [1, 1]])
    ker = m.kernel_basis()
    assert ker.cols == 1
    assert [ker.entry(0, 0), ker.entry(1, 0)] == [1, 1]


def test_rank_transpose_invariant_random():
    rng = random.Random(7)
    for fld in (QQ, PrimeField(5)):
        for _ in range(200):
            m = random_matrix(fld, rng.randint(0, 6), rng.randint(0, 6), rng)
            assert m.rank() == m.transpose().rank()


def test_rank_nullity_and_exact_kernel():
    rng = random.Random(11)
    for fld in (QQ, PrimeField(3)):
        for _ in range(60):
            m = random_matrix(fld, rng.randint(1, 6), rng.randint(1, 6), rng)
            ker = m.kernel_basis()
            assert m.cols == m.rank() + ker.cols
            assert (m @ ker).is_zero()


def test_solve_exact():
    rng = random.Random(3)
    a = random_invertible(QQ, 5, rng)
    b = random_matrix(QQ, 5, 2, rng)
    x = a.solve(b)
    assert a @ x == b


def test_column_space_dim_of_stack():
    F2 = PrimeField(2)
    i2 = Matrix.identity(QQ, 2)
    assert column_space_dim_of_stack([i2, i2]) == 2
    e1 = Matrix.from_dense(QQ, [[1], [0]])
    e2 = Matrix.from_dense(QQ, [[0], [1]])
    assert column_space_dim_of_stack([e1, e2]) == 2
    # both images of span{(1,1)} under id and the swap coincide over F_2
    v = Matrix.from_dense(F2, [[1], [1]])
    swap = Matrix.from_dense(F2, [[0, 1], [1, 0]])
    assert column_space_dim_of_stack([v, swap @ v]) == 1
    with pytest.raises(ShapeError):
        column_space_dim_of_stack([i2, Matrix.identity(QQ, 3)])


def test_matrix_text_roundtrip():
    m = Matrix.from_dense(QQ, [[Fraction(1, 2), -1], [0, 3]])
    again = matrix_from_text(m.to_text())
    assert again == m
    F5 = PrimeField(5)
    m5 = Matrix.from_dense(F5, [[1, 4, 0], [2, 2, 3]])
    assert matrix_from_text(m5.to_text()) == m5


def test_selection_detection():
    s = Matrix.selection(QQ, 6, [2, 0, 5])
    assert s.is_selection() == [2, 0, 5]
    assert s.rank() == 3
    m = Matrix.from_dense(QQ, [[1, 1], [0, 0]])
    assert m.is_selection() == [0, 0]  # unit columns, repeated row
    assert m.rank() == 1  # duplicate rows force the generic path
    assert Matrix.from_dense(QQ, [[2, 0], [0, 1]]).is_selection() is None


def test_min_eigenvalue_symmetric():
    assert min_eigenvalue_symmetric([[1.0, 0, 0], [0, 2, 0], [0, 0, 3]]) == pytest.approx(1.0)
    assert min_eigenvalue_symmetric([[0.0, 0], [0, 0]]) == pytest.approx(0.0)
    assert min_eigenvalue_symmetric([[2.0, 1], [1, 2]]) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError):
        min_eigenvalue_symmetric([[0.0, 1], [0, 0]])


def test_min_eigenvalue_random_diagonal():
    rng = random.Random(5)
    for _ in range(20):
        diag = [rng.uniform(-4, 4) for _ in range(rng.randint(1, 8))]
        m = [[diag[i] if i == j else 0.0 for j in range(len(diag))]
             for i in range(len(diag))]
        assert min_eigenvalue_symmetric(m) == pytest.approx(min(diag), abs=1e-10)


# -- the elimination kernel against the plain Gauss-Jordan loop -------------------


def reference_rref(m):
    """Dense-order Gauss-Jordan with one field call per entry: the oracle.

    Columns left to right, first nonzero row top to bottom, rows swapped.
    """
    fld = m.field
    rows = [dict(m.row_items(i)) for i in range(m.rows)]
    pivots = []
    rpos = 0
    nrows = len(rows)
    for c in range(m.cols):
        pr = None
        for i in range(rpos, nrows):
            if c in rows[i]:
                pr = i
                break
        if pr is None:
            continue
        rows[rpos], rows[pr] = rows[pr], rows[rpos]
        pv = rows[rpos][c]
        if pv != fld.one:
            inv = fld.inv(pv)
            rows[rpos] = {j: fld.mul(v, inv) for j, v in rows[rpos].items()}
        prow = rows[rpos]
        for i in range(nrows):
            if i != rpos and c in rows[i]:
                f = rows[i][c]
                ri = rows[i]
                for j, v in prow.items():
                    nv = fld.sub(ri.get(j, fld.zero), fld.mul(f, v))
                    if nv:
                        ri[j] = nv
                    else:
                        ri.pop(j, None)
        pivots.append(c)
        rpos += 1
        if rpos == nrows:
            break
    return Matrix(fld, m.rows, m.cols, {i: r for i, r in enumerate(rows) if r}), pivots


KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(2 ** 31 - 1)]


@st.composite
def _entries(draw, field, rows, cols):
    if field.char == 0:
        value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        value = st.integers(0, field.q - 1)
    cell = st.one_of(st.just(0), value)
    if not rows:
        return Matrix.zeros(field, 0, cols)
    return Matrix.from_dense(field, [[draw(cell) for _ in range(cols)] for _ in range(rows)])


@st.composite
def kernel_cases(draw):
    """(matrix, random x with as many rows as the matrix has columns)."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if draw(st.booleans()):
        m = draw(_entries(field, rows, cols))
    else:   # a product through a narrow middle: rank at most k
        k = draw(st.integers(0, 3))
        m = draw(_entries(field, rows, k)) @ draw(_entries(field, k, cols))
    return m, draw(_entries(field, cols, draw(st.integers(1, 2))))


def _check_against_reference(m):
    R, pivots = m.rref()
    assert (R, pivots) == reference_rref(m)
    assert m.pivot_columns() == pivots
    assert m.rank() == len(pivots)
    return pivots


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_kernel_matches_reference_rref(case):
    m, x = case
    pivots = _check_against_reference(m)
    ker = m.kernel_basis()
    assert ker.cols == m.cols - len(pivots)
    assert (m @ ker).is_zero()
    b = m @ x
    assert m @ m.solve(b) == b


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)])
def test_kernel_matches_reference_on_sparse_shift(field):
    """The witness path solves [identity | shift] systems of a few thousand
    rows; here both column orders at n = 300, rows shuffled."""
    n = 300
    rng = random.Random(5)
    shift = Matrix.from_entries(field, n, n, [(i + 1, i, 1) for i in range(n - 1)])
    order = list(range(n))
    rng.shuffle(order)
    for big, want in ((Matrix.hstack([Matrix.identity(field, n), shift]), list(range(n))),
                      (Matrix.hstack([shift, Matrix.identity(field, n)]),
                       list(range(n - 1)) + [n])):
        big = big.submatrix(order, range(2 * n))
        assert _check_against_reference(big) == want
        # a scaled copy exercises the Q row content and the mod-q leading-1 scaling
        _check_against_reference(big.scale(Fraction(3, 2) if field.char == 0 else 3))
