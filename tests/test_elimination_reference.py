"""Gauss-Jordan elimination with a column index against the row scan it
replaced.

`row_scan_eliminate` below is the elimination that searched every row at
or below r for each pivot column and then visited every row to reduce
the ones holding it.  `Matrix._eliminate` keeps, for each column, the
rows that hold an entry there, and must return the same reduced rows,
pivot columns, pivot values and swap count.  The drawn matrices are
sparse with entries in {1, -1, 2} (and x over Q[x]/(x^2+x+1)), so row
swaps, fill-in and cancellation are all common.  `det` of a permutation
matrix with scaled rows is the permutation's sign times the scales.
"""

from hypothesis import given, settings, strategies as st

from hopfsmith.field import QQ
from hopfsmith.matrix import Matrix
from test_matrix_properties import EXT, FIELDS


def row_scan_eliminate(M):
    """The reduced rows, pivot columns, pivot values and row swaps, by
    scanning every row for every pivot column."""
    F = M.field
    mul, sub, neg, is_zero = F.mul, F.sub, F.neg, F.is_zero
    m = [{} for _ in range(M.rows)]
    for i, j, x in M.entries():
        m[i][j] = x
    n = M.rows
    pivots, values = [], []
    swaps = 0
    r = 0
    for c in range(M.cols):
        if r == n:
            break
        pivot = next((i for i in range(r, n) if c in m[i]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        value = m[r][c]
        inv = F.inv(value)
        prow = {j: mul(inv, x) for j, x in m[r].items()}
        m[r] = prow
        for i, target in enumerate(m):
            f = target.get(c)
            if f is None or i == r:
                continue
            for j, y in prow.items():
                t = mul(f, y)
                x = target.get(j)
                if x is None:
                    target[j] = neg(t)
                    continue
                s = sub(x, t)
                if is_zero(s):
                    del target[j]
                else:
                    target[j] = s
        pivots.append(c)
        values.append(value)
        r += 1
    return m, pivots, values, swaps


def _pool(F):
    values = [F(1), F(-1), F(2)]
    if F is EXT:
        values += [F.gen, F.neg(F.gen)]
    # about two thirds of the entries are zero
    return st.sampled_from([F.zero] * (2 * len(values)) + values)


POOLS = {F: _pool(F) for F in (QQ, EXT)}


def sparse(F):
    return st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
        lambda d: st.lists(POOLS[F], min_size=d[0] * d[1],
                           max_size=d[0] * d[1]).map(
            lambda flat: Matrix(F, d[0], d[1], flat)))


SPARSE = {F: sparse(F) for F in (QQ, EXT)}


@FIELDS
@settings(max_examples=150)
@given(data=st.data())
def test_indexed_elimination_is_the_row_scan(F, data):
    M = data.draw(SPARSE[F])
    rows, pivots, values, swaps = M._eliminate()
    assert (rows, pivots, values, swaps) == row_scan_eliminate(M)


@FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_det_of_a_scaled_permutation_matrix(F, data):
    perm = data.draw(st.integers(0, 6).flatmap(
        lambda n: st.permutations(range(n))))
    n = len(perm)
    scales = data.draw(st.lists(POOLS[F].filter(lambda x: not F.is_zero(x)),
                                min_size=n, max_size=n))
    M = Matrix.from_entries(F, n, n, ((i, perm[i], scales[i])
                                      for i in range(n)))
    inversions = sum(perm[i] > perm[j] for i in range(n)
                     for j in range(i + 1, n))
    want = F.one if inversions % 2 == 0 else F.neg(F.one)
    for x in scales:
        want = F.mul(want, x)
    assert M.det() == want
