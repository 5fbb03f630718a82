"""Evaluation of monad-square diagrams in an exact bialgebra.

A 2-cell of the (smashed) monad square is a stack of crossings and
collapse-trivial beads; it evaluates to the tensor power of the
underlying space with one factor per crossing.  A 3-cell evaluates to a
matrix between those powers: the four structure cells go to the four
structure tensors, vertical stacking goes to the tensor product, and
3-composition goes to matrix product.

Factor order follows the quadrant identification: reading a stack top
down (the 45-degree left rotation takes the upper crossing to the left
factor).  When two 3-cells are composed across an interchange of layers,
the slide of two crossings past each other evaluates to the bialgebra's
braiding (`bialgebra.braiding_matrix`) applied to the corresponding
tensor slots; this is where a noncocommutative comultiplication notices
the difference between the shear directions.

Evaluation is a function of terms as written.  In the collapsed
presentation all whiskers are identities, so stacks of crossings
commute strictly and the slide data that selects a braiding is gone;
consequently evaluation does not commute with the collapse at junctions
where crossings interchange.  Semantic checks therefore run on the
tensor-square term, whose trivialized beads evaluate to identities,
which is the same thing as evaluating the diagram in the smash.
"""

from __future__ import annotations

from typing import Tuple

from . import interchange
from .bialgebra import NE, Bialgebra, braiding_matrix, shear
from .gray import BASEPOINT, split_pair
from .matrix import Matrix
from .presentation import Presentation
from .rewriting import stack_of
from .shear import bimnd_cells, mnd_gray, mnd_smash, universal_shear
from .terms import (CellTerm, Comp, Gen, Id, Inv, TermError, generators,
                    identity_core)
from .walking import mnd

_CELLS = bimnd_cells()
CROSSING = _CELLS["underlying"].name
# the bialgebra attribute each structure cell evaluates to
_TENSORS = {_CELLS[cell].name: attr for cell, attr in (
    ("mult", "m"), ("unit", "u"), ("comult", "delta"), ("counit", "eps"))}


class EvaluationError(ValueError):
    pass


def _crossings(t: CellTerm) -> int:
    return sum(1 for name in generators(t) if name == CROSSING)


def _which_presentation(t: CellTerm) -> Presentation:
    """The smashed monad square when every generator of t is one of its
    generators (its basepoint, or a pair with no basepoint factor), else
    the monad tensor square; the smash is built only in the first case."""
    big, pt = mnd_gray(), mnd().basepoint
    if all(n == BASEPOINT or (n in big.gens and pt not in split_pair(n))
           for n in generators(t)):
        return mnd_smash()[0]
    return big


def evaluate_diagram(t: CellTerm, B: Bialgebra) -> Matrix:
    """Evaluate a 3-cell over the monad tensor square (or its smash
    collapse) to an exact matrix in the bialgebra B."""
    p = _which_presentation(t)
    t = p.normalize(t, push_inv=False)
    d = p.dim(t)
    if d == 4:
        src = evaluate_diagram(p.boundary(t, "source", 3), B)
        tgt = evaluate_diagram(p.boundary(t, "target", 3), B)
        if src != tgt:
            raise EvaluationError("4-cell asserts an equality that fails")
        return src
    if d != 3:
        raise EvaluationError(f"evaluation needs a 3-cell, got dimension {d}")
    return _eval3(t, B, p)


def _eval3(t: CellTerm, B: Bialgebra, p: Presentation) -> Matrix:
    """The matrix of a 3-cell term t of p in normal form, whose subterms
    are then normal too and are not normalized again."""
    F, n = B.field, B.n
    if isinstance(t, Gen):
        if t.name in _TENSORS:
            return getattr(B, _TENSORS[t.name])
        raise EvaluationError(f"no matrix assigned to generator {t.name!r}")
    if isinstance(t, Id):
        return Matrix.identity(F, n ** _crossings(t.inner))
    if isinstance(t, Inv):
        inner = _eval3(t.inner, B, p)
        return inner.inverse()
    assert isinstance(t, Comp)
    if t.k == 2:
        left = _eval3(t.left, B, p)
        right = _eval3(t.right, B, p)
        adjust = _junction(p.boundary(t.left, "target", 2),
                           p.boundary(t.right, "source", 2), B, p)
        return right @ adjust @ left
    if t.k == 1:
        # vertical stacking: upper factors sit to the left
        left = _eval3(t.left, B, p)
        right = _eval3(t.right, B, p)
        return right.kron(left)
    if t.k == 0:
        lw = _is_wire_tower(t.left, p)
        rw = _is_wire_tower(t.right, p)
        if lw and rw:
            return Matrix.identity(F, 1)
        if lw:
            return _eval3(t.right, B, p)
        if rw:
            return _eval3(t.left, B, p)
        raise EvaluationError("0-composition of two non-identity 3-cells")
    raise EvaluationError(f"unexpected composition level {t.k}")


def _is_wire_tower(t: CellTerm, p: Presentation) -> bool:
    core, _ = identity_core(t)
    try:
        return p.dim(core) <= 1
    except TermError:
        return False


def _junction(a2: CellTerm, b2: CellTerm, B: Bialgebra,
              p: Presentation) -> Matrix:
    """The matrix realizing the interchange slides that align the target
    layers of one move with the source layers of the next: both are
    packed over one atom table, interchange.align gives the swaps, and
    each swap of two crossings applies the bialgebra's braiding to their
    tensor slots."""
    F, n = B.field, B.n
    tab = interchange.AtomTable()
    a = stack_of(p.normalize(a2), p, tab)[1]
    b = stack_of(p.normalize(b2), p, tab)[1]
    crossing = [name == CROSSING for name, _ in tab.keys]
    total = sum(crossing[x] for x in a[1::2])
    out = Matrix.identity(F, n ** total)
    if a == b:
        return out
    swaps = interchange.align(tab, a, b)
    if swaps is None:
        raise EvaluationError(
            "composition boundaries differ by more than interchange slides; "
            "evaluate the uncollapsed diagram instead")
    braiding = braiding_matrix(B)
    for flat, pos in swaps:
        ids = flat[1::2]
        if crossing[ids[pos]] and crossing[ids[pos + 1]]:
            below = sum(crossing[x] for x in ids[:pos])
            # factors are read top-down: slot 0 is the topmost crossing
            slot = total - 2 - below
            out = braiding.whisker_matmul(n ** slot, n ** below, out)
    return out


def shear_semantics(B: Bialgebra) -> Tuple[Matrix, Matrix]:
    """Evaluate the universal shear in B and return it with the coshear it
    is supposed to equal."""
    return evaluate_diagram(universal_shear(), B), shear(B, NE)
