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
the slide of two crossings past each other evaluates to the braiding in
the corresponding tensor slots; this is where a noncocommutative
comultiplication notices the difference between the shear directions.

Evaluation is a function of terms as written.  In the collapsed
presentation all whiskers are identities, so stacks of crossings
commute strictly and the slide data that selects a braiding is gone;
consequently evaluation does not commute with the collapse at junctions
where crossings interchange.  Semantic checks therefore run on the
tensor-square term, whose trivialized beads evaluate to identities,
which is the same thing as evaluating the diagram in the smash.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Dict, List, Tuple

from .bialgebra import Bialgebra
from .gray import pair_name
from .matrix import Matrix
from .presentation import Presentation
from .rewriting import Layer, Stack, slide, stack_of
from .shear import universal_shear
from .terms import CellTerm, Comp, Gen, Id, Inv, TermError, generators

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
    presentation: Presentation = dfield(default=None)
    smashed: Presentation = dfield(default=None)

    def __post_init__(self):
        us = universal_shear()
        if self.presentation is None:
            self.presentation = us.presentation
        if self.smashed is None:
            self.smashed = us.smashed
        B = self.bialgebra
        self.assignment: Dict[str, Matrix] = {
            MULT: B.m, UNIT: B.u, COMULT: B.delta, COUNIT: B.eps,
        }

    def matrices(self) -> Dict[str, Matrix]:
        return dict(self.assignment)


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
    B = ctx.bialgebra
    F, n = B.field, B.n
    t = p.normalize(t, push_inv=False)
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
    core = t
    while isinstance(core, Id):
        core = core.inner
    try:
        return p.dim(core) <= 1
    except TermError:
        return False


def _junction(a2: CellTerm, b2: CellTerm, ctx: EvalContext,
              p: Presentation) -> Matrix:
    """The matrix realizing the interchange slides that align the target
    layers of one move with the source layers of the next."""
    B = ctx.bialgebra
    F, n = B.field, B.n
    sa = stack_of(p.normalize(a2), p)
    sb = stack_of(p.normalize(b2), p)
    if sa.layers == sb.layers:
        return Matrix.identity(F, n ** _count_cross(sa))
    swaps = _align(list(sa.layers), list(sb.layers), p)
    if swaps is None:
        raise EvaluationError(
            "composition boundaries differ by more than interchange slides; "
            "evaluate the uncollapsed diagram instead")
    total = _count_cross(sa)
    out = Matrix.identity(F, n ** total)
    br = B.br()
    for config, pos in swaps:
        x, y = config[pos], config[pos + 1]
        if x.atom.name == CROSSING and y.atom.name == CROSSING:
            below = sum(1 for l in config[:pos] if l.atom.name == CROSSING)
            # factors are read top-down: slot 0 is the topmost crossing
            slot = total - 2 - below
            step = Matrix.identity(F, n ** slot)
            step = step.kron(br)
            step = step.kron(Matrix.identity(F, n ** (total - 2 - slot)))
            out = step @ out
    return out


def _count_cross(s: Stack) -> int:
    return sum(1 for l in s.layers if l.atom.name == CROSSING)


def _align(a: List[Layer], b: List[Layer], p: Presentation):
    """Adjacent transpositions turning layer list a into b, or None.
    Returns pairs (configuration before the swap, position)."""
    if len(a) != len(b):
        return None
    a = list(a)
    swaps = []
    for k in range(len(b)):
        if a[k] == b[k]:
            continue
        found = None
        for j in range(k + 1, len(a)):
            moved = a[j]
            ok = True
            for back in range(j - 1, k - 1, -1):
                sw = slide(a[back], moved, p)
                if sw is None:
                    ok = False
                    break
                moved = sw[0]
            if ok and moved == b[k]:
                found = j
                break
        if found is None:
            return None
        for j in range(found, k, -1):
            sw = slide(a[j - 1], a[j], p)
            assert sw is not None
            swaps.append((tuple(a), j - 1))
            a[j - 1], a[j] = sw
    if a != b:
        return None
    return swaps


def shear_semantics(ctx: EvalContext) -> Tuple[Matrix, Matrix]:
    """Evaluate the universal shear and return it with the coshear it is
    supposed to equal."""
    from .bialgebra import shear, NE
    us = universal_shear()
    value = evaluate_diagram(us.term, ctx)
    return value, shear(ctx.bialgebra, NE)
