"""Tensor products that are never built, against the ones that are.

`Matrix.kron_matmul` against `kron` then `@`; the bialgebra axiom's
contraction against (m (x) m) @ braid(delta (x) delta), on the fixtures
and on fixtures with one entry of m or delta changed, so that
`check_bialgebra` reports the same witness; and `tensor_comodule`'s
contraction against the kron, braid and whisker composite.  Over Q and
over Q[x]/(x^2+x+1).
"""

import pytest
from hypothesis import given, settings, strategies as st

from hopfsmith.bialgebra import Bialgebra, _braided_product, check_bialgebra
from hopfsmith.comodule import (Comodule, regular_comodule, tensor_comodule,
                                trivial_comodule)
from hopfsmith.field import QQ
from hopfsmith.fixtures import FIXTURE_BUILDERS, standard_fixtures
from hopfsmith.matrix import Matrix
from test_matrix_properties import EXT, FIELDS, SCALARS

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


@FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_kron_matmul_is_kron_then_matmul(F, data):
    a, b, x = data.draw(OPERANDS[F])
    assert a.kron_matmul(b, x) == a.kron(b) @ x


def test_kron_matmul_keeps_all_zero_rows_and_empty_shapes():
    F = QQ
    a = Matrix.from_rows(F, [[1, 2], [0, 0], [3, 0]])
    # the zero rows of b are the first, a middle and the last
    b = Matrix.from_rows(F, [[0, 0], [1, -1], [0, 0], [2, 0], [0, 0]])
    x = Matrix.from_rows(F, [[1, 0], [0, 1], [2, 3], [0, 0]])
    got = a.kron_matmul(b, x)
    assert (got.rows, got.cols) == (15, 2)
    assert got == a.kron(b) @ x
    for p, q, r, s, t in [(0, 2, 3, 1, 2), (2, 1, 0, 2, 3), (2, 0, 3, 2, 1),
                          (2, 2, 2, 0, 1), (1, 2, 2, 1, 0)]:
        a, b = Matrix.zero(F, p, q), Matrix.zero(F, r, s)
        x = Matrix.identity(F, q * s).hstack(Matrix.zero(F, q * s, t))
        got = a.kron_matmul(b, x)
        assert (got.rows, got.cols) == (p * r, q * s + t)
        assert got == a.kron(b) @ x


def test_kron_matmul_shape_mismatch_raises_as_matmul_does():
    F = QQ
    a, b = Matrix.identity(F, 2), Matrix.identity(F, 3)
    x = Matrix.zero(F, 5, 1)
    with pytest.raises(ValueError):
        a.kron(b) @ x
    with pytest.raises(ValueError):
        a.kron_matmul(b, x)
    with pytest.raises(ValueError):
        b.kron_matmul(a, Matrix.zero(F, 0, 1))


def braided_product_by_kron(B):
    n, p = B.n, B.parities
    return B.m.kron(B.m) @ B.delta.kron(B.delta).braid(n, p, p, n)


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
    both = M.rho.kron(N.rho).braid(n, (0,) * dm, (0,) * n, dn)
    return Comodule(B, dm * dn, B.m.whisker(1, dm * dn) @ both)


@FIELDS
def test_tensor_comodule_is_kron_braid_whisker(F):
    for name, B in FX[F].items():
        reg, triv = regular_comodule(B), trivial_comodule(B)
        for M, N in ((reg, reg), (reg, triv), (triv, reg)):
            assert tensor_comodule(M, N) == tensor_by_kron(M, N), name
