"""Evaluation of diagrams through one strict functor given by an assignment.

An `Interpretation` at level k gives each k-generator a space size (any
other generator has size 1) and each (k+1)-generator a matrix; a k-cell
evaluates to the space whose size is the product over its k-generators.
`evaluate` extends it to every normal (k+1)-cell: a (k-1)-composite goes
to the tensor product, a k-composite to the matrix product through the
junction, and a lower composite, a whisker by an identity of an identity,
to the value of its other part.  At k = 1 this is a 2-cell model, 1-cells
to dimensions and 2-cells to matrices (Joyal & Street, "The geometry of
tensor calculus I", 1991), whose composites need no junction.

At k = 2, `monad_square(B)` reads the monad tensor square in a bialgebra
B, and is the one place that names its structure cells: the crossing has
B's space, the four structure cells are the four structure tensors, and
the junction is B's braiding.  A stack reads top down (the 45-degree
left rotation takes the upper crossing to the left factor), and where
two 3-cells compose across an interchange of layers, the slide of two
crossings past each other applies the braiding to their tensor slots:
this is where a noncocommutative comultiplication tells the shear
directions apart.

Evaluation is a function of terms as written.  A term is read over the
tensor square when every name in it is a generator there and the layers
at each of its junctions align there by slides, and over the smash
collapse otherwise.  In the smash all whiskers are identities, so the
slide data that selects a braiding is gone: evaluation does not commute
with the collapse, and the sides of the 4-cell `m⊗m` agree only over the
tensor square.
"""

from __future__ import annotations

from math import prod
from typing import Tuple

from . import interchange
from .bialgebra import NE, Bialgebra, braiding_matrix, shear
from .matrix import Matrix
from .presentation import Presentation
from .record import Record
from .rewriting import stack_of
from .shear import bimnd_cells, mnd_gray, mnd_smash, universal_shear
from .terms import SOURCE, TARGET, CellTerm, Comp, Gen, Id, Inv, generators


class EvaluationError(ValueError):
    pass


class _Misaligned(EvaluationError):
    """A junction whose layers no slides align: read over the smash."""


class Interpretation(Record):
    """A strict functor on the (k+1)-cells of a presentation: the space
    size of each k-generator, the matrix of each (k+1)-generator, and the
    junction: at k = 2, the matrix of a slide of two layers with a size
    past each other, or None where slides are identities."""
    __slots__ = ("field", "k", "sizes", "matrices", "junction")


def monad_square(B: Bialgebra) -> Interpretation:
    """The monad tensor square (or its smash) read in B at level 2."""
    cells = bimnd_cells()
    return Interpretation(B.field, 2, {cells["underlying"].name: B.n}, {
        cells[cell].name: tensor for cell, tensor in (
            ("mult", B.m), ("unit", B.u), ("comult", B.delta),
            ("counit", B.eps))}, braiding_matrix(B))


def evaluate(t: CellTerm, I: Interpretation, p: Presentation) -> Matrix:
    """The matrix of a (k+1)-cell term t of p in normal form, whose
    subterms are then normal too and are not normalized again."""
    if isinstance(t, Gen):
        if t.name in I.matrices:
            return I.matrices[t.name]
        raise EvaluationError(f"no matrix assigned to generator {t.name!r}")
    if isinstance(t, Id):
        return Matrix.identity(I.field, prod(
            I.sizes.get(name, 1) for name in generators(t.inner)))
    if isinstance(t, Inv):
        return evaluate(t.inner, I, p).inverse()
    assert isinstance(t, Comp)
    if t.k == I.k:
        left = _junction(t, evaluate(t.left, I, p), I, p)
        return evaluate(t.right, I, p) @ left
    if t.k == I.k - 1:
        # upper factors sit to the left
        left = evaluate(t.left, I, p)
        return evaluate(t.right, I, p).kron(left)
    if isinstance(t.left, Id) and isinstance(t.left.inner, Id):
        return evaluate(t.right, I, p)
    if isinstance(t.right, Id) and isinstance(t.right.inner, Id):
        return evaluate(t.left, I, p)
    raise EvaluationError(
        f"{t.k}-composition of two non-identity {I.k + 1}-cells")


def _junction(t: Comp, x: Matrix, I: Interpretation,
              p: Presentation) -> Matrix:
    """x, the value of t.left, carried through the interchange slides that
    align its target layers with the source layers of t.right, normal
    2-cells as Presentation.boundary gives them: both are packed over one
    atom table, interchange.align gives the swaps, and each swap of two
    atoms with a space size in I applies I.junction to their slots."""
    if I.junction is None:
        return x
    tab = interchange.AtomTable()
    a = stack_of(p.boundary(t.left, TARGET, I.k), p, tab)[1]
    b = stack_of(p.boundary(t.right, SOURCE, I.k), p, tab)[1]
    swaps = interchange.align(tab, a, b)
    if swaps is None:
        raise _Misaligned(
            "composition boundaries differ by more than interchange slides")
    sized = [name in I.sizes for name, _ in tab.keys]
    size = [I.sizes.get(name, 1) for name, _ in tab.keys]
    for flat, pos in swaps:
        ids = flat[1::2]
        if sized[ids[pos]] and sized[ids[pos + 1]]:
            # factors are read top-down: the first layer is the last factor
            x = I.junction.whisker_matmul(
                prod(size[y] for y in ids[pos + 2:]),
                prod(size[y] for y in ids[:pos]), x)
    return x


def evaluate_diagram(t: CellTerm, B: Bialgebra) -> Matrix:
    """Evaluate a 3-cell over the monad tensor square (or its smash
    collapse, as the module docstring says) to an exact matrix in the
    bialgebra B; a 4-cell evaluates to the value of both its sides."""
    I, big = monad_square(B), mnd_gray()
    if all(name in big.gens for name in generators(t)):
        try:
            return _diagram(t, I, big)
        except _Misaligned:
            pass
    return _diagram(t, I, mnd_smash()[0])


def _diagram(t: CellTerm, I: Interpretation, p: Presentation) -> Matrix:
    """The value of a 3-cell of p under I, or of both sides of a 4-cell."""
    t = p.normalize(t, push_inv=False)
    d = p.dim(t)
    if d == 4 and isinstance(t, Id):
        # both sides as written: the walk would push an Inv to the leaves
        return evaluate(t.inner, I, p)
    if d == 4:
        src = evaluate(p.boundary(t, SOURCE, 3), I, p)
        if src != evaluate(p.boundary(t, TARGET, 3), I, p):
            raise EvaluationError("4-cell asserts an equality that fails")
        return src
    if d != 3:
        raise EvaluationError(f"evaluation needs a 3-cell, got dimension {d}")
    return evaluate(t, I, p)


def shear_semantics(B: Bialgebra) -> Tuple[Matrix, Matrix]:
    """Evaluate the universal shear in B and return it with the coshear it
    is supposed to equal."""
    return evaluate_diagram(universal_shear(), B), shear(B, NE)
