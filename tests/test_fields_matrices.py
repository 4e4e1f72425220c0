import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronhf.errors import ShapeError, ValidationError
from kronhf.fields import QQ, PrimeField, is_prime, parse_rational, rational
from kronhf.matrices import (Matrix, column_space_dim_of_stack, matrix_from_text,
                             random_invertible)

from oracles import dense_matrix_text, per_token_matrix_from_text, random_matrix


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


TEXT_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))
ENTRY_POOL = (0, 0, 0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7))


@st.composite
def text_matrices(draw):
    """Matrices over Q and GF(2/3/5) with 0 to 6 rows and columns, entries
    from ENTRY_POOL (Fractions and negatives over Q) and some rows zero."""
    fld = draw(st.sampled_from(TEXT_FIELDS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    ent = []
    for i in range(rows):
        for j in range(cols):
            v = draw(st.sampled_from(ENTRY_POOL))
            if i in zero_rows:
                continue
            if fld.char and isinstance(v, Fraction):
                v = v.numerator
            ent.append((i, j, v))
    return Matrix.from_entries(fld, rows, cols, ent)


@settings(max_examples=400, deadline=None)
@given(text_matrices())
def test_matrix_text_matches_the_dense_writer_and_per_token_reader(m):
    text = m.to_text()
    assert text == dense_matrix_text(m)
    assert matrix_from_text(text) == m
    assert per_token_matrix_from_text(text) == m


def _outcome(read, text):
    try:
        return read(text)
    except ValidationError as exc:
        return type(exc), str(exc)


# zero spellings, signed and fractional entries, and tokens Q or F_q refuse
TOKEN_POOL = ("0", "0", "0", "-0", "00", "0/7", "1", "-1", "6", "-12", "5/2", "-7/3",
              "0.0", "1/0", "x")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_matrix_reader_parses_every_token_as_the_per_token_reader(data):
    fld = data.draw(st.sampled_from(TEXT_FIELDS))
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    toks = data.draw(st.lists(st.sampled_from(TOKEN_POOL), min_size=rows * cols,
                              max_size=rows * cols))
    seps = data.draw(st.lists(st.sampled_from((" ", "\n", "\t", "  ", " \n ")),
                              min_size=len(toks), max_size=len(toks)))
    text = f"field {fld.label}\n{rows} {cols}\n" + "".join(t + s for t, s in zip(toks, seps))
    got = _outcome(matrix_from_text, text)
    assert got == _outcome(per_token_matrix_from_text, text)


def test_zero_spellings_store_nothing_and_bad_tokens_are_still_refused():
    m = matrix_from_text("field rational\n2 4\n0 -0 00 0/7\n-0 3 00 0\n")
    assert list(m.entries()) == [(1, 1, 3)]
    assert matrix_from_text("field 5\n1 3\n-0 00 7\n").to_dense() == [[0, 0, 2]]
    for fld, tok in ((QQ, "0.0"), (QQ, "1/0"), (PrimeField(5), "0/7"), (PrimeField(5), "0.0")):
        text = f"field {fld.label}\n1 2\n0 {tok}\n"
        with pytest.raises(ValidationError) as exc:
            matrix_from_text(text)
        assert _outcome(per_token_matrix_from_text, text) == (ValidationError, str(exc.value))


def test_malformed_matrix_text_is_a_validation_error():
    for text in ("field rational\n1 x\n", "field rational\n-1 0\n", "field 5\n1.0 1\n3\n"):
        with pytest.raises(ValidationError, match="malformed matrix block in matrix text"):
            matrix_from_text(text)
    with pytest.raises(ValueError) as exc:          # the per-token reader's bare int()
        per_token_matrix_from_text("field rational\n1 x\n")
    assert type(exc.value) is ValueError
    for text, msg in (("rational\n1 1\n1\n", "must start with a 'field' line"),
                      ("field rational\n1 2\n1\n", "expected 2 entries, got 1"),
                      ("field rational\n1 1\n1 2\n", "expected 1 entries, got 2")):
        with pytest.raises(ValidationError, match=msg):
            matrix_from_text(text)
        assert msg in _outcome(per_token_matrix_from_text, text)[1]


def test_selection_detection():
    s = Matrix.selection(QQ, 6, [2, 0, 5])
    assert s.is_selection() == [2, 0, 5]
    assert s.rank() == 3
    m = Matrix.from_dense(QQ, [[1, 1], [0, 0]])
    assert m.is_selection() == [0, 0]  # unit columns, repeated row
    assert m.rank() == 1  # duplicate rows force the generic path
    assert Matrix.from_dense(QQ, [[2, 0], [0, 1]]).is_selection() is None


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


def _assert_canonical_rational(v):
    """An element of Q in canonical form: an int (not a bool), or a Fraction
    whose denominator is above 1 (never Fraction(n, 1))."""
    assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


def _check_against_reference(m):
    R, pivots = m.rref()
    assert (R, pivots) == reference_rref(m)
    _assert_canonical(R)
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
    sol = m.solve(b)
    assert m @ sol == b
    for out in (ker, b, sol):
        _assert_canonical(out)


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


# -- products against the per-entry loops -----------------------------------------


def reference_matmul(a, b):
    """Row-by-row product with one field call per entry: the oracle."""
    fld = a.field
    out = {}
    for i in range(a.rows):
        acc = {}
        for k, v in a.row_items(i):
            for j, w in b.row_items(k):
                nv = fld.add(acc.get(j, fld.zero), fld.mul(v, w))
                if nv:
                    acc[j] = nv
                else:
                    acc.pop(j, None)
        if acc:
            out[i] = acc
    return Matrix(fld, a.rows, b.cols, out)


def reference_add(a, b):
    """Entrywise sum with one field call per entry of b: the oracle."""
    fld = a.field
    out = {i: dict(a.row_items(i)) for i in range(a.rows)}
    for i in range(b.rows):
        row = out[i]
        for j, v in b.row_items(i):
            nv = fld.add(row.get(j, fld.zero), v)
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)
    return Matrix(fld, a.rows, a.cols, {i: r for i, r in out.items() if r})


def reference_map(a, f):
    """f applied to every stored entry, zeros dropped: the oracle of -a and scale."""
    return Matrix.from_entries(a.field, a.rows, a.cols,
                               ((i, j, f(v)) for i, j, v in a.entries()))


PRODUCT_FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2 ** 31 - 1)]


@st.composite
def _mixed(draw, field, rows, cols):
    """Like _entries, with denominators up to 12 over Q, or integral over Q
    in about half the draws (the product's all-int path)."""
    if field.char or not rows:
        return draw(_entries(field, rows, cols))
    den = draw(st.sampled_from([1, 12]))
    cell = st.one_of(st.just(0), st.builds(Fraction, st.integers(-30, 30), st.integers(1, den)))
    return Matrix.from_dense(QQ, [[draw(cell) for _ in range(cols)] for _ in range(rows)])


@st.composite
def product_cases(draw):
    """(a, a2, b, c): a and a2 of one shape, b with as many rows as a has columns."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    rows, mid, cols = (draw(st.integers(0, 6)) for _ in range(3))
    a, a2 = draw(_mixed(field, rows, mid)), draw(_mixed(field, rows, mid))
    b = draw(_mixed(field, mid, cols))
    if field.char:
        c = draw(st.integers(-field.q, 2 * field.q))
    else:
        c = draw(st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))
    return a, a2, b, c


def _assert_canonical(m):
    """No zero entry and no empty row is stored; entries are residues in
    [1, q) over F_q and canonical rationals over Q."""
    for row in m._rows.values():
        assert row
        for v in row.values():
            if m.field.char:
                assert type(v) is int and 0 < v < m.field.q
            else:
                assert v
                _assert_canonical_rational(v)


@settings(max_examples=400, deadline=None)
@given(product_cases())
def test_products_match_reference_loops(case):
    a, a2, b, c = case
    fld = a.field
    neg_a = reference_map(a, fld.neg)
    zero = Matrix.zeros(fld, a.rows, a.cols)
    for got, want in (
            (a @ b, reference_matmul(a, b)),
            (a + a2, reference_add(a, a2)),
            (a - a2, reference_add(a, reference_map(a2, fld.neg))),
            (-a, neg_a),
            (a.scale(c), reference_map(a, lambda v: fld.mul(fld.coerce(c), v))),
            (a + neg_a, zero),
            (a - a, zero),
            # every product cancels: [a | -a] [b; b] = 0
            (Matrix.hstack([a, neg_a]) @ Matrix.vstack([b, b]),
             Matrix.zeros(fld, a.rows, b.cols))):
        assert got == want
        _assert_canonical(got)


def _all_ints(m):
    return all(type(v) is int for _, _, v in m.entries())


def test_q_results_that_become_integral_are_ints():
    half = Fraction(1, 2)
    h = Matrix.from_dense(QQ, [[half, Fraction(3, 2)], [Fraction(-1, 2), 0]])
    assert not _all_ints(h)
    ones = Matrix.from_dense(QQ, [[1], [1]])
    for got, want in (
            (h + h, [[1, 3], [-1, 0]]),                      # 1/2 + 1/2
            (h.scale(2), [[1, 3], [-1, 0]]),
            (h - h.scale(-1), [[1, 3], [-1, 0]]),
            (h @ ones, [[2], [Fraction(-1, 2)]]),
            (h.scale(2) @ ones, [[4], [-1]]),                # lcm of denominators 1
            (h @ h.scale(4), [[-2, 3], [-1, -3]]),           # fractions in, ints out
            (Matrix.from_dense(QQ, [[2, 4], [3, 6]]).rref()[0], [[1, 2], [0, 0]]),
            (Matrix.from_dense(QQ, [[-3, 6, 1]]).rref()[0], [[1, -2, Fraction(-1, 3)]]),
            (h.rref()[0], [[1, 0], [0, 1]]),
            (Matrix.from_dense(QQ, [[half, 1]]).kernel_basis(), [[-2], [1]]),
            (Matrix.from_dense(QQ, [[half]]).solve(Matrix.from_dense(QQ, [[3]])), [[6]])):
        assert got.to_dense() == want
        _assert_canonical(got)
        for row in got.to_dense():
            for v in row:
                _assert_canonical_rational(v)
    assert type((h + h).entry(0, 0)) is int and type(h.entry(1, 1)) is int
    assert _all_ints(Matrix.identity(QQ, 3)) and _all_ints(random_invertible(QQ, 6, random.Random(1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cached_integrality_matches_a_fresh_scan(data):
    """_integral records its answer on first use; products of the same
    factors, before and after it is recorded, equal the reference product."""
    rows, mid, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(_mixed(QQ, rows, mid))
    b = data.draw(_mixed(QQ, mid, cols))
    want = reference_matmul(a, b)
    for _ in range(2):
        assert a @ b == want
        _assert_canonical(a @ b)
        for m in (a, b, want, a @ b, a.transpose(), b.scale(2)):
            assert m._integral() == _all_ints(m)


def test_rational_field_scalars_are_canonical():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for v, want in ((QQ.inv(Fraction(-1, 2)), -2), (QQ.inv(-1), -1), (QQ.inv(3), Fraction(1, 3)),
                    (QQ.inv(Fraction(-4, 6)), Fraction(-3, 2)),
                    (QQ.coerce(Fraction(6, 3)), 2), (QQ.coerce(True), 1), (QQ.coerce(-7), -7),
                    (QQ.parse("4/2"), 2), (QQ.parse("-3"), -3), (QQ.parse("-2/6"), Fraction(-1, 3)),
                    (QQ.add(Fraction(1, 2), Fraction(1, 2)), 1), (QQ.mul(Fraction(2, 3), 3), 2),
                    (QQ.sub(Fraction(5, 4), Fraction(1, 4)), 1),
                    (rational(6, -3), -2), (rational(3, -6), Fraction(-1, 2)), (rational(0, 5), 0)):
        assert v == want
        _assert_canonical_rational(v)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ValidationError):
        QQ.coerce(0.5)


_RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_rational_field_operations_match_fraction_arithmetic(a, b):
    ca, cb = QQ.coerce(a), QQ.coerce(b)
    results = [(ca, a), (QQ.parse(str(a)), a), (QQ.add(ca, cb), a + b), (QQ.sub(ca, cb), a - b),
               (QQ.mul(ca, cb), a * b), (QQ.neg(ca), -a),
               (rational(a.numerator * b.denominator, a.denominator * b.denominator), a)]
    if a:
        results.append((QQ.inv(ca), 1 / a))
    for got, want in results:
        assert got == want
        _assert_canonical_rational(got)


# -- selections against equal matrices built entry by entry --------------------


def _plain(m):
    """An equal matrix built entry by entry."""
    return Matrix.from_entries(m.field, m.rows, m.cols, m.entries())


def _index_lists(n, max_size=6):
    return st.lists(st.integers(0, n - 1), max_size=max_size) if n else st.just([])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recorded_selections_match_plain_matrices(data):
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n = data.draw(st.integers(0, 6))
    ia, ia2 = data.draw(_index_lists(n)), data.draw(_index_lists(n))
    ib = data.draw(_index_lists(len(ia)))

    def built():
        a, a2 = Matrix.selection(field, n, ia), Matrix.selection(field, n, ia2)
        b = Matrix.selection(field, a.cols, ib)
        return [a, a @ b, Matrix.hstack([a, a2])], [a2, b]

    outs, factors = built()
    sels = [m.is_selection() for m in outs]
    a, (a2, b) = outs[0], factors
    plain = [_plain(a), _plain(a) @ _plain(b), Matrix.hstack([_plain(a), _plain(a2)])]
    for sel, want in zip(sels, plain):
        assert sel == want.is_selection()
    assert sels[1] == [ia[j] for j in ib]
    # every reader of entries, each on newly built matrices
    rights = [data.draw(_mixed(field, m.cols, 2)) for m in plain]
    lefts = [data.draw(_mixed(field, 2, m.rows)) for m in plain]
    readers = [
        lambda m, t: m,
        lambda m, t: sorted(m.entries()),
        lambda m, t: m.to_dense(),
        lambda m, t: m.transpose(),
        lambda m, t: m.submatrix(range(m.rows - 1, -1, -2), range(0, m.cols, 2)),
        lambda m, t: m.rank(),
        lambda m, t: m.kernel_basis(),
        lambda m, t: m.to_text(),
        lambda m, t: m @ rights[t],
        lambda m, t: lefts[t] @ m,
    ]
    for read in readers:
        for t, (got, want) in enumerate(zip(built()[0], plain)):
            assert read(got, t) == read(want, t)
    # is_selection hands out a new list: changing it leaves the matrix as it was
    got = a.is_selection()
    got.append(0)
    assert a.is_selection() == ia
    # a selection next to a plain factor
    assert a @ _plain(b) == _plain(a) @ b == plain[1]
