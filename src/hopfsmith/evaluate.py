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

from dataclasses import dataclass
from typing import Dict, Tuple

from . import interchange
from .bialgebra import NE, Bialgebra, braiding_matrix, shear
from .gray import pair_name
from .matrix import Matrix
from .presentation import Presentation
from .rewriting import stack_of
from .shear import universal_shear
from .terms import (CellTerm, Comp, Gen, Id, Inv, TermError, generators,
                    identity_core)

CROSSING = pair_name("A", "A")
MULT = pair_name("m", "A")
UNIT = pair_name("u", "A")
COMULT = pair_name("A", "m")
COUNIT = pair_name("A", "u")


class EvaluationError(ValueError):
    pass


@dataclass
class EvalContext:
    bialgebra: Bialgebra

    def __post_init__(self):
        us = universal_shear()
        self.presentation: Presentation = us.presentation
        self.smashed: Presentation = us.smashed
        B = self.bialgebra
        self.assignment: Dict[str, Matrix] = {
            MULT: B.m, UNIT: B.u, COMULT: B.delta, COUNIT: B.eps,
        }


def _crossings(t: CellTerm) -> int:
    return sum(1 for name in generators(t) if name == CROSSING)


def _which_presentation(t: CellTerm, ctx: EvalContext) -> Presentation:
    names = set(generators(t))
    for name in names:
        if name in ctx.presentation.gens and name not in ctx.smashed.gens:
            return ctx.presentation
    return ctx.smashed if names <= set(ctx.smashed.gens) else ctx.presentation


def evaluate_diagram(t: CellTerm, ctx: EvalContext) -> Matrix:
    """Evaluate a 3-cell over the monad tensor square (or its smash
    collapse) to an exact matrix."""
    p = _which_presentation(t, ctx)
    t = p.normalize(t, push_inv=False)
    d = p.dim(t)
    if d == 4:
        src = evaluate_diagram(p.boundary(t, "source", 3), ctx)
        tgt = evaluate_diagram(p.boundary(t, "target", 3), ctx)
        if src != tgt:
            raise EvaluationError("4-cell asserts an equality that fails")
        return src
    if d != 3:
        raise EvaluationError(f"evaluation needs a 3-cell, got dimension {d}")
    return _eval3(t, ctx, p)


def _eval3(t: CellTerm, ctx: EvalContext, p: Presentation) -> Matrix:
    """The matrix of a 3-cell term t of p in normal form, whose subterms
    are then normal too and are not normalized again."""
    B = ctx.bialgebra
    F, n = B.field, B.n
    if isinstance(t, Gen):
        if t.name in ctx.assignment:
            return ctx.assignment[t.name]
        raise EvaluationError(f"no matrix assigned to generator {t.name!r}")
    if isinstance(t, Id):
        return Matrix.identity(F, n ** _crossings(t.inner))
    if isinstance(t, Inv):
        inner = _eval3(t.inner, ctx, p)
        return inner.inverse()
    assert isinstance(t, Comp)
    if t.k == 2:
        left = _eval3(t.left, ctx, p)
        right = _eval3(t.right, ctx, p)
        adjust = _junction(p.boundary(t.left, "target", 2),
                           p.boundary(t.right, "source", 2), ctx, p)
        return right @ adjust @ left
    if t.k == 1:
        # vertical stacking: upper factors sit to the left
        left = _eval3(t.left, ctx, p)
        right = _eval3(t.right, ctx, p)
        return right.kron(left)
    if t.k == 0:
        lw = _is_wire_tower(t.left, p)
        rw = _is_wire_tower(t.right, p)
        if lw and rw:
            return Matrix.identity(F, 1)
        if lw:
            return _eval3(t.right, ctx, p)
        if rw:
            return _eval3(t.left, ctx, p)
        raise EvaluationError("0-composition of two non-identity 3-cells")
    raise EvaluationError(f"unexpected composition level {t.k}")


def _is_wire_tower(t: CellTerm, p: Presentation) -> bool:
    core, _ = identity_core(t)
    try:
        return p.dim(core) <= 1
    except TermError:
        return False


def _junction(a2: CellTerm, b2: CellTerm, ctx: EvalContext,
              p: Presentation) -> Matrix:
    """The matrix realizing the interchange slides that align the target
    layers of one move with the source layers of the next: both are
    packed over one atom table, interchange.align gives the swaps, and
    each swap of two crossings applies the bialgebra's braiding to their
    tensor slots."""
    B = ctx.bialgebra
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


def shear_semantics(ctx: EvalContext) -> Tuple[Matrix, Matrix]:
    """Evaluate the universal shear and return it with the coshear it is
    supposed to equal."""
    us = universal_shear()
    value = evaluate_diagram(us.term, ctx)
    return value, shear(ctx.bialgebra, NE)
