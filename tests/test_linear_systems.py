"""An independent oracle for the linear systems that `comodule_hom`,
`integrals` and `convolution_inverse` assemble entry by entry.

The oracle never indexes an equation by hand.  It states each defining
identity with matrix products and Kronecker products by identities
(`whiskered`), checks every returned basis element against it, checks
that the basis is independent, and counts the solution space as the
kernel dimension of the identity's linear map, whose matrix is built
column by column from one-entry inputs.
"""

import pytest
from conftest import whiskered

from hopfsmith import bialgebra as ba
from hopfsmith.comodule import (comodule_hom, regular_comodule,
                                tensor_comodule, trivial_comodule)
from hopfsmith.field import QQ, number_field_from_text
from hopfsmith.fixtures import FIXTURE_BUILDERS
from hopfsmith.matrix import Matrix

EXT = number_field_from_text("x^2+x+1")
FIELDS = {"Q": QQ, "ext": EXT}
ALL = [(name, f) for f in FIELDS for name in FIXTURE_BUILDERS]
# the fixtures of dimension at most 4, whose regular (x) regular is small
SMALL = [(name, f) for name, f in ALL if name != "QS3"]


def fixture(name, field):
    return FIXTURE_BUILDERS[name](FIELDS[field])


def is_zero(F, A):
    return all(F.is_zero(x) for x in A.data)


def solution_count(F, rows, cols, equation):
    """Dimension of the space of rows x cols matrices X with
    equation(X) = 0, for a linear equation."""
    images = [list(equation(Matrix.from_entries(F, rows, cols,
                                                [(a, b, F.one)])).data)
              for a in range(rows) for b in range(cols)]
    return rows * cols - Matrix.from_rows(F, images).rank()


def assert_solution_basis(F, basis, rows, cols, equation):
    """basis is a basis of the rows x cols solutions of equation."""
    for X in basis:
        assert (X.rows, X.cols) == (rows, cols)
        assert is_zero(F, equation(X))
    if basis:
        flat = Matrix.from_rows(F, [list(X.data) for X in basis])
        assert flat.rank() == len(basis)
    assert len(basis) == solution_count(F, rows, cols, equation)


def comodule_pair(B, which):
    reg, triv = regular_comodule(B), trivial_comodule(B)
    return {"reg,reg": (reg, reg), "triv,reg": (triv, reg),
            "reg,triv": (reg, triv),
            "reg2,reg": (tensor_comodule(reg, reg), reg)}[which]


@pytest.mark.parametrize("which", ["reg,reg", "triv,reg", "reg,triv",
                                   "reg2,reg"])
@pytest.mark.parametrize("name,field", SMALL)
def test_comodule_hom_is_the_intertwiner_space(name, field, which):
    B = fixture(name, field)
    M, N = comodule_pair(B, which)
    assert_solution_basis(
        B.field, comodule_hom(M, N), N.d, M.d,
        lambda phi: N.rho @ phi - whiskered(B.field, B.n, phi, 1) @ M.rho)


@pytest.mark.parametrize("name,field", ALL)
def test_integrals_solve_their_defining_identities(name, field):
    B = fixture(name, field)
    F, n = B.field, B.n
    data = ba.integrals(B)
    assert_solution_basis(
        F, data.left_integrals, 1, n,
        lambda lam: whiskered(F, n, lam, 1) @ B.delta - B.u @ lam)
    assert_solution_basis(
        F, data.left_cointegrals, n, 1,
        lambda coint: B.m @ whiskered(F, n, coint, 1) - coint @ B.eps)


@pytest.mark.parametrize("name,field", ALL)
def test_convolution_inverse_solves_both_convolution_equations(name, field):
    B = fixture(name, field)
    n = B.n
    T = ba.convolution_inverse(B)
    if T is None:
        assert not ba.is_hopf(B)
        return
    ue = B.u @ B.eps
    assert B.m @ whiskered(B.field, 1, T, n) @ B.delta == ue
    assert B.m @ whiskered(B.field, n, T, 1) @ B.delta == ue
