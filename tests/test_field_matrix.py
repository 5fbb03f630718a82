import copy
import pickle
from fractions import Fraction

import pytest

from hopfsmith.field import (FieldError, QQ, field_from_json,
                             number_field_from_text)
from hopfsmith.fixtures import standard_fixtures
from hopfsmith.matrix import Matrix
from test_matrix_properties import koszul_matrix


def test_rational_field_basics():
    assert QQ.add(QQ("1/2"), QQ("1/3")) == Fraction(5, 6)
    assert QQ.inv(QQ(4)) == Fraction(1, 4)
    with pytest.raises(FieldError):
        QQ.inv(QQ(0))


def test_number_field_cube_roots():
    F = number_field_from_text("x^2+x+1")
    w = F.gen
    assert F.mul(w, F.mul(w, w)) == F.one
    assert F.mul(w, F.inv(w)) == F.one
    assert F.is_zero(F.add(F.add(F.one, w), F.mul(w, w)))


def test_number_field_operands():
    # rationals and text are converted, elements of another field refused
    F = number_field_from_text("x^2+x+1")
    G = number_field_from_text("x^2+1")
    w = F.gen
    assert F.add(1, "1/2*x") == F.add(F.one, F.mul(Fraction(1, 2), w))
    assert F.sub(w, w) == 0 and F.neg("x") == F.mul(-1, w)
    assert F.is_zero(0) and not F.is_zero(Fraction(1, 3))
    for op in (lambda: F.add(G.gen, w), lambda: F.sub(w, G.gen),
               lambda: F.mul(w, G.gen), lambda: F.neg(G.gen),
               lambda: F.is_zero(G.gen)):
        with pytest.raises(FieldError, match="different field"):
            op()


def test_number_field_parse_show():
    F = number_field_from_text("x^2+1")
    e = F.parse("1/2*x - 3")
    assert F.show(e) == "-3 + 1/2*x"
    assert F.parse(F.show(e)) == e


def test_rational_root_screen_rejects_reducible():
    with pytest.raises(FieldError):
        number_field_from_text("x^2-1")
    with pytest.raises(FieldError):
        number_field_from_text("x^2-x")


def test_field_from_json():
    assert field_from_json("Q") is QQ
    F = field_from_json({"ext": "x^2+x+1"})
    assert F.degree == 2


def test_matrix_rref_rank_nullspace():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    null = m.nullspace()
    assert len(null) == 1
    v = null[0]
    prod = m @ v
    assert all(QQ.is_zero(x) for x in prod.data)


def test_matrix_inverse_and_det():
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    assert m.det() == 1
    assert m @ m.inverse() == Matrix.identity(QQ, 2)
    singular = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert singular.det() == 0
    assert not singular.is_invertible()


def test_matrix_solve():
    m = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    rhs = Matrix.from_rows(QQ, [[3], [1]])
    sol = m.solve(rhs)
    assert m @ sol == rhs
    inconsistent = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert inconsistent.solve(Matrix.from_rows(QQ, [[0], [1]])) is None


def test_kron_index_convention():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.identity(QQ, 2)
    k = a.kron(b)
    # (i, j) |-> i*n + j: entry ((i,k),(j,l)) = a[i,j] b[k,l]
    assert k[0, 0] == 1 and k[1, 1] == 1
    assert k[0, 2] == 2 and k[2, 0] == 3


def test_flip_and_koszul():
    # all-even parities: the plain flip
    f = koszul_matrix(QQ, (0, 0), (0, 0, 0))
    assert f.transpose() @ f == Matrix.identity(QQ, 6)
    assert f[1 * 2 + 0, 0 * 3 + 1] == 1 and f[0, 0] == 1 and f[0, 1] == 0
    k = koszul_matrix(QQ, [0, 1], [0, 1])
    # odd-odd entry carries the sign
    assert k[(1 * 2 + 1), (1 * 2 + 1)] == -1
    assert k @ k == Matrix.identity(QQ, 4)


def test_number_field_matrix():
    F = number_field_from_text("x^2+x+1")
    w = F.gen
    m = Matrix.from_rows(F, [[F.one, w], [w, F.one]])
    assert m.is_invertible()
    assert m @ m.inverse() == Matrix.identity(F, 2)


def test_number_field_values_copy_and_pickle_over_their_field():
    """Elements compare their fields by identity, so a copy or a pickle of
    a field must come back as the one field of its modulus."""
    F = number_field_from_text("x^2+x+1")
    w = F.gen
    m = Matrix.from_rows(F, [[F.one, w], [F.mul(w, w), F.zero]])
    B = standard_fixtures(F)["QS3"]
    for copy_of in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        again = copy_of(m)
        assert again == m
        assert again + m == m + m and again @ m == m @ m
        assert copy_of(B) == B
        assert copy_of(B).m @ B.delta == B.m @ B.delta
        assert copy_of(F) is F
    assert number_field_from_text("x^2+x+1") is F
