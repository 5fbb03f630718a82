"""Matrix kernels against naive dense list-of-lists arithmetic.

The oracle below keeps every entry, zeros included, and uses only the
field's scalar operations; the determinant is a cofactor expansion.  Every
result is also checked to store no zero and to equal, with the same hash,
the matrix built from its dense entries, and to hold only canonical
scalars: every rational (an entry over Q, a coefficient over Q[x]/(f)) is
an int when it is integral, otherwise a Fraction with denominator > 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import whiskered
from hopfsmith.field import FieldError, QQ, number_field_from_text
from hopfsmith.matrix import Matrix

EXT = number_field_from_text("x^2+x+1")
FIELDS = pytest.mark.parametrize("F", [QQ, EXT], ids=["Q", "ext"])


def _pool(F):
    small = sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)
                    if p})
    if F is QQ:
        values = [F(x) for x in small]
    else:
        values = [F.add(F(a), F.mul(F(b), F.gen))
                  for a in [0] + small[::2] for b in [0] + small[1::2]
                  if a or b]
    # about half the entries are zero, as in structure tensors
    return st.sampled_from([F.zero] * len(values) + values)


SCALARS = {F: _pool(F) for F in (QQ, EXT)}


def dense(data, F, rows, cols):
    flat = data.draw(st.lists(SCALARS[F], min_size=rows * cols,
                              max_size=rows * cols))
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def dims(data, low=0, high=4):
    return data.draw(st.integers(low, high))


def build(F, rows, cols, lists):
    return Matrix(F, rows, cols, [x for row in lists for x in row])


def is_canonical(q):
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def canonical(F, x):
    return is_canonical(x) if F is QQ \
        else all(map(is_canonical, F.coefficients(x)))


def check(F, got, rows, cols, lists):
    """got has shape rows x cols and the dense entries lists."""
    assert (got.rows, got.cols) == (rows, cols)
    assert all(canonical(F, x) for _, _, x in got.entries())
    assert all(not F.is_zero(x) for m in got._maps for x in m.values())
    assert [list(got.row(i)) for i in range(rows)] == lists
    assert [[got[i, j] for j in range(cols)] for i in range(rows)] == lists
    same = build(F, rows, cols, lists)
    assert got == same and hash(got) == hash(same)
    assert got.data == same.data


# -- the dense oracle ---------------------------------------------------------


def o_matmul(F, a, b, inner, cols):
    out = []
    for row in a:
        line = []
        for j in range(cols):
            s = F.zero
            for k in range(inner):
                s = F.add(s, F.mul(row[k], b[k][j]))
            line.append(s)
        out.append(line)
    return out


def o_kron(F, a, b):
    return [[F.mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def eye(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def o_rref(F, a, cols):
    """Dense Gauss-Jordan: the reduced rows and the pivot columns."""
    m = [list(row) for row in a]
    pivots, r = [], 0
    for c in range(cols):
        hit = [i for i in range(r, len(m)) if not F.is_zero(m[i][c])]
        if not hit:
            continue
        m[r], m[hit[0]] = m[hit[0]], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def o_det(F, a):
    if not a:
        return F.one
    total = F.zero
    for j, x in enumerate(a[0]):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = F.mul(x, o_det(F, minor))
        total = F.add(total, term) if j % 2 == 0 else F.sub(total, term)
    return total


def o_solution(F, a, b, n, k):
    """The solution with every free unknown zero, or None."""
    m, pivots = o_rref(F, [ra + rb for ra, rb in zip(a, b)], n + k)
    if any(p >= n for p in pivots):
        return None
    x = [[F.zero] * k for _ in range(n)]
    for r, p in enumerate(pivots):
        x[p] = m[r][n:]
    return x


# -- properties --------------------------------------------------------------


@FIELDS
@given(data=st.data())
def test_sum_difference_scale(F, data):
    r, c = dims(data), dims(data)
    a, b = dense(data, F, r, c), dense(data, F, r, c)
    s = data.draw(SCALARS[F])
    A, B = build(F, r, c, a), build(F, r, c, b)
    check(F, A + B, r, c, [[F.add(x, y) for x, y in zip(ra, rb)]
                           for ra, rb in zip(a, b)])
    check(F, A - B, r, c, [[F.sub(x, y) for x, y in zip(ra, rb)]
                           for ra, rb in zip(a, b)])
    check(F, A.scale(s), r, c, [[F.mul(s, x) for x in row] for row in a])
    zero = Matrix.zero(F, r, c)
    assert A - A == zero and hash(A - A) == hash(zero)


@FIELDS
@given(data=st.data())
def test_product(F, data):
    r, k, c = dims(data), dims(data), dims(data)
    a, b = dense(data, F, r, k), dense(data, F, k, c)
    check(F, build(F, r, k, a) @ build(F, k, c, b), r, c,
          o_matmul(F, a, b, k, c))


@FIELDS
@given(data=st.data())
def test_kron(F, data):
    r1, c1, r2, c2 = (dims(data, high=3) for _ in range(4))
    a, b = dense(data, F, r1, c1), dense(data, F, r2, c2)
    check(F, build(F, r1, c1, a).kron(build(F, r2, c2, b)), r1 * r2,
          c1 * c2, o_kron(F, a, b))


def same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert all(canonical(got.field, x) for _, _, x in got.entries())
    assert got == want and hash(got) == hash(want)
    assert got.data == want.data


def slot_maps(F, left, A, right):
    """I_left (x) A (x) I_right applied to an identity on either side, by
    whisker_matmul and by matmul_whisker."""
    return (A.whisker_matmul(left, right,
                             Matrix.identity(F, left * A.cols * right)),
            Matrix.identity(F, left * A.rows * right).matmul_whisker(
                A, left, right))


@FIELDS
@given(data=st.data())
def test_whisker_is_kron_by_identities(F, data):
    r, c = dims(data, high=3), dims(data, 1, 3)
    left, right = dims(data, 1, 3), dims(data, 1, 3)
    a = dense(data, F, r, c)
    if r and data.draw(st.booleans()):
        a[data.draw(st.integers(0, r - 1))] = [F.zero] * c
    A = build(F, r, c, a)
    for l, rt in ((left, right), (left, 1), (1, right), (1, 1)):
        for got in slot_maps(F, l, A, rt):
            same(got, whiskered(F, l, A, rt))
            check(F, got, l * r * rt, l * c * rt,
                  o_kron(F, o_kron(F, eye(F, l), a), eye(F, rt)))


@FIELDS
def test_whisker_of_a_wide_matrix_with_a_zero_row(F):
    A = Matrix.from_rows(F, [[0, 0, 0], [1, F(Fraction(1, 2)), 0]])
    for l, rt in ((2, 3), (1, 2), (1, 1)):
        for got in slot_maps(F, l, A, rt):
            same(got, whiskered(F, l, A, rt))
    assert all(got == A for got in slot_maps(F, 1, A, 1))


def koszul_matrix(field, deg_a, deg_b):
    """The reference for bialgebra.braiding_matrix: the graded swap
    X (x) Y -> Y (x) X as a matrix, with a sign -1 whenever both basis
    vectors are odd, so with all parities even it is the plain flip."""
    n, m = len(deg_a), len(deg_b)
    minus = field.neg(field.one)
    return Matrix.from_entries(field, n * m, n * m, (
        (j * n + i, i * m + j,
         minus if deg_a[i] * deg_b[j] % 2 else field.one)
        for i in range(n) for j in range(m)))


@FIELDS
@given(data=st.data())
def test_transpose_and_hstack(F, data):
    r, c1, c2 = dims(data), dims(data), dims(data)
    a, b = dense(data, F, r, c1), dense(data, F, r, c2)
    A, B = build(F, r, c1, a), build(F, r, c2, b)
    check(F, A.transpose(), c1, r, [[a[i][j] for i in range(r)]
                                    for j in range(c1)])
    check(F, A.hstack(B), r, c1 + c2, [ra + rb for ra, rb in zip(a, b)])


@FIELDS
@given(data=st.data())
def test_rref_rank_nullspace(F, data):
    r, c = dims(data), dims(data)
    a = dense(data, F, r, c)
    A = build(F, r, c, a)
    want, want_pivots = o_rref(F, a, c)
    R, pivots = A.rref()
    check(F, R, r, c, want)
    assert pivots == want_pivots and A.rank() == len(want_pivots)
    null = A.nullspace()
    free = [j for j in range(c) if j not in want_pivots]
    assert len(null) == len(free)
    for v, fc in zip(null, free):
        col = [F.zero] * c
        col[fc] = F.one
        for row, pc in zip(want, want_pivots):
            col[pc] = F.neg(row[fc])
        check(F, v, c, 1, [[x] for x in col])
        check(F, A @ v, r, 1, [[F.zero] for _ in range(r)])


@FIELDS
@given(data=st.data())
def test_solve(F, data):
    r, n, k = dims(data), dims(data), dims(data, 1, 2)
    a, b = dense(data, F, r, n), dense(data, F, r, k)
    A, B = build(F, r, n, a), build(F, r, k, b)
    want = o_solution(F, a, b, n, k)
    got = A.solve(B)
    if want is None:
        assert got is None
    else:
        check(F, got, n, k, want)
        assert A @ got == B


@FIELDS
@given(data=st.data())
def test_inverse_and_det(F, data):
    n = dims(data)
    a = dense(data, F, n, n)
    A = build(F, n, n, a)
    det = o_det(F, a)
    assert A.det() == det and canonical(F, A.det())
    if F.is_zero(det):
        assert not A.is_invertible()
        with pytest.raises(FieldError):
            A.inverse()
        return
    check(F, A.inverse(), n, n, o_solution(F, a, eye(F, n), n, n))
    assert A @ A.inverse() == Matrix.identity(F, n)


@FIELDS
def test_det_sign_follows_row_swaps(F):
    # a permutation matrix: the determinant is the sign of the permutation
    perm = [2, 0, 3, 1]   # the 4-cycle 0->2->3->1->0, odd
    A = Matrix.from_entries(F, 4, 4,
                            [(i, j, F.one) for i, j in enumerate(perm)])
    assert A.det() == F(-1)
    assert A.scale(Fraction(1, 2)).det() == F(Fraction(-1, 16))


@FIELDS
def test_raw_entries_hash_like_field_elements(F):
    raw = Matrix(F, 2, 2, [3, 0, 0, Fraction(1, 2)])
    same = Matrix.from_rows(F, [[F(3), F.zero], [F.zero, F(Fraction(1, 2))]])
    assert raw == same and hash(raw) == hash(same)


# raw entries with repeats and equal values spelled apart; a Fraction is not
# a JSON scalar, and 1+0j equals 1 but is no rational
RAW = ["0", "-0", "1/2", "2/4", 0, 1, Fraction(1, 2)]
RAW_EXT = ["x", "-x-1"]
BAD = ["1/0", "y", 1 + 0j]


def entrywise(F, rows, cols):
    """from_entries on the entries converted one at a time, row by row."""
    return Matrix.from_entries(F, len(rows), cols,
                               [(i, j, F(x)) for i, row in enumerate(rows)
                                for j, x in enumerate(row)])


@FIELDS
@given(data=st.data())
def test_raw_rows_read_as_entry_by_entry(F, data):
    r, c = dims(data, low=1), dims(data)   # from_rows needs a row for c
    pool = st.sampled_from(RAW + (RAW_EXT if F is EXT else []))
    rows = [data.draw(st.lists(pool, min_size=c, max_size=c))
            for _ in range(r)]
    if c and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, r - 1))][
            data.draw(st.integers(0, c - 1))] = data.draw(st.sampled_from(BAD))
    try:
        want = entrywise(F, rows, c)
    except Exception as e:
        for read in (lambda: Matrix.from_rows(F, rows),
                     lambda: build(F, r, c, rows)):
            with pytest.raises(type(e)) as got:
                read()
            assert got.value.args == e.args
        return
    for got in (Matrix.from_rows(F, rows), build(F, r, c, rows)):
        assert got == want and hash(got) == hash(want)
        assert all(canonical(F, x) for _, _, x in got.entries())


# -- sparse construction -------------------------------------------------------


def triples(data, F, rows, cols):
    """(i, j, x) triples inside the shape: positions repeat often, and some
    entries are followed by their negative, so that the pair cancels."""
    out = []
    for _ in range(data.draw(st.integers(0, 10)) if rows and cols else 0):
        i = data.draw(st.integers(0, rows - 1))
        j = data.draw(st.integers(0, cols - 1))
        x = data.draw(SCALARS[F])
        out.append((i, j, x))
        if data.draw(st.booleans()):
            out.append((i, j, F.neg(x)))
    return out


@FIELDS
@given(data=st.data())
def test_from_entries_sums_repeated_positions(F, data):
    r, c = dims(data), dims(data)
    ts = triples(data, F, r, c)
    lists = [[F.zero] * c for _ in range(r)]
    for i, j, x in ts:
        lists[i][j] = F.add(lists[i][j], x)
    check(F, Matrix.from_entries(F, r, c, ts), r, c, lists)


@FIELDS
@given(data=st.data())
def test_entries_round_trip(F, data):
    r, c = dims(data), dims(data)
    lists = dense(data, F, r, c)
    A = build(F, r, c, lists)
    got = list(A.entries())
    assert [i for i, _, _ in got] == sorted(i for i, _, _ in got)
    assert sorted((i, j) for i, j, _ in got) == [
        (i, j) for i in range(r) for j in range(c)
        if not F.is_zero(lists[i][j])]
    assert all(x == lists[i][j] for i, j, x in got)
    assert Matrix.from_entries(F, r, c, A.entries()) == A


@FIELDS
@given(data=st.data())
def test_from_entries_rejects_positions_outside_the_shape(F, data):
    r, c = dims(data), dims(data)
    if data.draw(st.booleans()):    # the row is outside
        i = data.draw(st.one_of(st.integers(-3, -1), st.integers(r, r + 3)))
        j = data.draw(st.integers(-3, c + 3))
    else:                           # the column is outside
        i = data.draw(st.integers(-3, r + 3))
        j = data.draw(st.one_of(st.integers(-3, -1), st.integers(c, c + 3)))
    inside = triples(data, F, r, c)
    with pytest.raises(IndexError):
        Matrix.from_entries(F, r, c, inside + [(i, j, F.one)])
