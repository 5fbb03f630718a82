"""Tensor products that are never built, against the ones that are.

A product by a Kronecker product applied one factor at a time, as
`reconstruct` applies it, against `kron` then `@`; `whisker_matmul` and
`matmul_whisker` against the whiskered matrix (a kron by identities)
then `@`; the bialgebra axiom's contraction against
(m (x) m) @ br(delta (x) delta), and the four shear contractions and
the integral formula for the antipode against their whisker and
braiding composites, on the fixtures and on fixtures with one entry of
m or delta changed, so that `check_bialgebra` reports the same witness;
and `tensor_comodule`'s contraction against the kron, flip and whisker
composite.  Every braiding here is the materialized Koszul swap
`koszul_matrix`.  Over Q and over Q[x]/(x^2+x+1).
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import whiskered
from hopfsmith.bialgebra import (NE, NW, SE, SW, Bialgebra, _braided_product,
                                 _functional_parity, antipode_from_integrals,
                                 check_bialgebra, integrals, shear)
from hopfsmith.comodule import (Comodule, regular_comodule, tensor_comodule,
                                trivial_comodule)
from hopfsmith.field import QQ
from hopfsmith.fixtures import FIXTURE_BUILDERS, standard_fixtures
from hopfsmith.matrix import Matrix
from test_matrix_properties import EXT, FIELDS, SCALARS, koszul_matrix

FX = {F: standard_fixtures(F) for F in (QQ, EXT)}


def matrices(F, rows, cols):
    return st.lists(SCALARS[F], min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda flat: Matrix(F, rows, cols, flat))


def kron_operands(F):
    """a (p x q), b (r x s) and x ((q * s) x t), each side 0 to 3."""
    return st.tuples(*[st.integers(0, 3)] * 5).flatmap(
        lambda d: st.tuples(matrices(F, d[0], d[1]), matrices(F, d[2], d[3]),
                            matrices(F, d[1] * d[3], d[4])))


OPERANDS = {F: kron_operands(F) for F in (QQ, EXT)}


def kron_matmul(a, b, x):
    """(a (x) b) @ x as (a (x) I)(I (x) b) @ x, never forming a (x) b."""
    return a.whisker_matmul(1, b.rows, b.whisker_matmul(a.cols, 1, x))


@FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_kron_matmul_is_kron_then_matmul(F, data):
    a, b, x = data.draw(OPERANDS[F])
    assert kron_matmul(a, b, x) == a.kron(b) @ x


def test_kron_matmul_keeps_all_zero_rows_and_empty_shapes():
    F = QQ
    a = Matrix.from_rows(F, [[1, 2], [0, 0], [3, 0]])
    # the zero rows of b are the first, a middle and the last
    b = Matrix.from_rows(F, [[0, 0], [1, -1], [0, 0], [2, 0], [0, 0]])
    x = Matrix.from_rows(F, [[1, 0], [0, 1], [2, 3], [0, 0]])
    got = kron_matmul(a, b, x)
    assert (got.rows, got.cols) == (15, 2)
    assert got == a.kron(b) @ x
    for p, q, r, s, t in [(0, 2, 3, 1, 2), (2, 1, 0, 2, 3), (2, 0, 3, 2, 1),
                          (2, 2, 2, 0, 1), (1, 2, 2, 1, 0)]:
        a, b = Matrix.zero(F, p, q), Matrix.zero(F, r, s)
        x = Matrix.identity(F, q * s).hstack(Matrix.zero(F, q * s, t))
        got = kron_matmul(a, b, x)
        assert (got.rows, got.cols) == (p * r, q * s + t)
        assert got == a.kron(b) @ x


def test_kron_matmul_shape_mismatch_raises_as_matmul_does():
    F = QQ
    a, b = Matrix.identity(F, 2), Matrix.identity(F, 3)
    x = Matrix.zero(F, 5, 1)
    with pytest.raises(ValueError):
        a.kron(b) @ x
    with pytest.raises(ValueError):
        kron_matmul(a, b, x)
    with pytest.raises(ValueError):
        kron_matmul(b, a, Matrix.zero(F, 0, 1))


def slot_operands(F):
    """a (p x q), left and right, x ((left * q * right) x t) and
    y (t x (left * p * right)); p, q and t are 0 to 3, left and right 1
    to 3, and a row of x and of y is sometimes all zero."""
    def build(d):
        p, q, left, right, t = d
        rows_x, cols_y = left * q * right, left * p * right
        return st.tuples(
            matrices(F, p, q), st.just(left), st.just(right),
            matrices(F, rows_x, t).flatmap(lambda x: zero_row(F, x)),
            matrices(F, t, cols_y).flatmap(lambda y: zero_row(F, y)))
    return st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
                     st.integers(1, 3), st.integers(0, 3)).flatmap(build)


def zero_row(F, x):
    """x, or x with one drawn row set to zero."""
    if not x.rows:
        return st.just(x)
    return st.one_of(st.just(x), st.integers(0, x.rows - 1).map(
        lambda i: Matrix.from_entries(F, x.rows, x.cols,
                                      [e for e in x.entries() if e[0] != i])))


SLOTS = {F: slot_operands(F) for F in (QQ, EXT)}


@FIELDS
@settings(max_examples=30)
@given(data=st.data())
def test_slot_maps_are_whiskered_then_matmul(F, data):
    a, left, right, x, y = data.draw(SLOTS[F])
    w = whiskered(F, left, a, right)
    assert a.whisker_matmul(left, right, x) == w @ x
    assert y.matmul_whisker(a, left, right) == y @ w


def test_slot_maps_keep_all_zero_rows_and_empty_shapes():
    F = QQ
    a = Matrix.from_rows(F, [[0, 0, 0], [1, 2, 0], [0, 0, 0], [0, -1, 3]])
    x = Matrix.from_rows(F, [[1, 0], [0, 0], [2, 3]])
    y = Matrix.from_rows(F, [[0, 0, 0, 0], [1, 0, 0, 2], [0, 0, 0, 0]])
    # l = r = 1 is the plain product
    assert a.whisker_matmul(1, 1, x) == a @ x
    assert y.matmul_whisker(a, 1, 1) == y @ a
    for left, right in ((2, 1), (1, 2), (2, 3)):
        w = whiskered(F, left, a, right)
        xs = Matrix.identity(F, w.cols)
        ys = Matrix.identity(F, w.rows)
        for got, want in ((a.whisker_matmul(left, right, xs), w @ xs),
                          (ys.matmul_whisker(a, left, right), ys @ w)):
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert got == want
    for p, q, t in ((0, 2, 2), (2, 0, 3), (2, 2, 0), (0, 0, 1)):
        a = Matrix.zero(F, p, q)
        for left, right in ((1, 1), (2, 3)):
            w = whiskered(F, left, a, right)
            x = Matrix.zero(F, w.cols, t)
            y = Matrix.zero(F, t, w.rows)
            got = a.whisker_matmul(left, right, x)
            assert (got.rows, got.cols) == (w.rows, t) and got == w @ x
            got = y.matmul_whisker(a, left, right)
            assert (got.rows, got.cols) == (t, w.cols) and got == y @ w


def test_slot_maps_shape_mismatch_raises_as_matmul_does():
    F = QQ
    a = Matrix.identity(F, 2)
    with pytest.raises(ValueError):
        a.whisker_matmul(2, 1, Matrix.zero(F, 3, 1))
    with pytest.raises(ValueError):
        Matrix.zero(F, 1, 5).matmul_whisker(a, 1, 2)
    with pytest.raises(ValueError):
        Matrix.zero(F, 1, 0).matmul_whisker(a, 1, 1)


def braided(F, left, deg_a, deg_b, right, x):
    """(I_left (x) koszul (x) I_right) @ x, with every factor built."""
    return whiskered(F, left, koszul_matrix(F, deg_a, deg_b), right) @ x


def braided_product_by_kron(B):
    F, n, p = B.field, B.n, B.parities
    return B.m.kron(B.m) @ braided(F, n, p, p, n, B.delta.kron(B.delta))


def axiom_report(B):
    return next(r for r in check_bialgebra(B) if r.name == "bialgebra_axiom")


@FIELDS
def test_braided_product_on_the_fixtures(F):
    for name, B in FX[F].items():
        assert _braided_product(B) == braided_product_by_kron(B), name
        assert axiom_report(B).holds, name


def changed(M, position, value):
    """M with the entry at flat position `position` set to value."""
    at = divmod(position, M.cols)
    entries = {(i, j): x for i, j, x in M.entries()}
    entries[at] = value
    return Matrix.from_entries(M.field, M.rows, M.cols,
                               ((i, j, x) for (i, j), x in entries.items()))


def mutant(F, name, which, position, value):
    """Fixture name with one entry of m or of delta set to value."""
    B = FX[F][name]
    parts = {"m": B.m, "delta": B.delta}
    M = parts[which]
    parts[which] = changed(M, position % (M.rows * M.cols), value)
    return Bialgebra(F, B.n, u=B.u, eps=B.eps, grading=B.grading,
                     braiding=B.braiding, basis_names=B.basis_names, **parts)


MUTATIONS = {F: st.tuples(st.sampled_from(sorted(FIXTURE_BUILDERS)),
                          st.sampled_from(["m", "delta"]),
                          st.integers(0, 1 << 16), SCALARS[F])
             for F in (QQ, EXT)}


@FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_braided_product_on_changed_fixtures_keeps_the_witness(F, data):
    B = mutant(F, *data.draw(MUTATIONS[F]))
    lhs = braided_product_by_kron(B)
    assert _braided_product(B) == lhs
    rhs = B.delta @ B.m
    report = axiom_report(B)
    assert report.holds == (lhs == rhs)
    if not report.holds:
        where = min((i, j) for i, j, _ in (lhs - rhs).entries())
        assert report.witness == f"entry {where}"


def tensor_by_kron(M, N):
    B = M.bialgebra
    n, dm, dn = B.n, M.d, N.d
    both = braided(B.field, n, (0,) * dm, (0,) * n, dn, M.rho.kron(N.rho))
    return Comodule(B, dm * dn,
                    whiskered(B.field, 1, B.m, dm * dn) @ both)


@FIELDS
def test_tensor_comodule_is_kron_braid_whisker(F):
    for name, B in FX[F].items():
        reg, triv = regular_comodule(B), trivial_comodule(B)
        for M, N in ((reg, reg), (reg, triv), (triv, reg)):
            assert tensor_comodule(M, N) == tensor_by_kron(M, N), name


def shear_by_whiskers(B, which):
    """The four shears as composites of whiskered structure maps and
    braidings."""
    F, n, p, m, d = B.field, B.n, B.parities, B.m, B.delta
    if which == SE:
        return whiskered(F, n, m, 1) @ whiskered(F, 1, d, n)
    if which == NW:
        return whiskered(F, 1, m, n) @ whiskered(F, n, d, 1)
    if which == NE:
        return whiskered(F, 1, m, n) @ braided(F, n, p, p, 1,
                                               whiskered(F, 1, d, n))
    return whiskered(F, n, m, 1) @ braided(F, 1, p, p, n,
                                           whiskered(F, n, d, 1))


SHEARS = (SE, NW, NE, SW)


@FIELDS
def test_shears_on_the_fixtures(F):
    for name, B in FX[F].items():
        for which in SHEARS:
            assert shear(B, which) == shear_by_whiskers(B, which), \
                (name, which)


@FIELDS
@settings(max_examples=20)
@given(data=st.data())
def test_shears_on_changed_fixtures(F, data):
    B = mutant(F, *data.draw(MUTATIONS[F]))
    for which in SHEARS:
        assert shear(B, which) == shear_by_whiskers(B, which), which


def antipode_by_whiskers(B, data):
    """Split the cointegral, braid the argument past its second leg and
    the integral's value line, multiply, and evaluate the integral."""
    F, n, p = B.field, B.n, B.parities
    lam = data.normalized_integral
    dl = B.delta @ data.normalized_cointegral
    deg = _functional_parity(B, lam) if any(p) else 0
    shifted = [(g + deg) % 2 for g in p]
    step2 = braided(F, n, shifted, p, 1, whiskered(F, 1, dl, n))
    return whiskered(F, n, lam, 1) @ whiskered(F, n, B.m, 1) @ step2


@FIELDS
def test_antipode_from_integrals_is_the_composite(F):
    tested = 0
    for name, B in FX[F].items():
        data = integrals(B)
        if data.normalized_integral is None:
            continue
        assert antipode_from_integrals(B, data) == \
            antipode_by_whiskers(B, data), name
        tested += 1
    assert tested == 5
