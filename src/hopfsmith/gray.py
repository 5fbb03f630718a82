"""Gray tensor product of presentations, and the pointed smash collapse.

Generators of the tensor are pairs (x, y), one from each factor, of total
dimension <= 4.  An object paired with a cell gives a relabelled copy of
the cell, and two 2-cells give the interchange 4-cell mediating the two
pull orders.  A wire (1-cell) paired with a bead (k-cell), in either
order, follows one rule, `_wire_bead`, after Steiner's formula
d(x (x) y) = dx (x) y +- x (x) dy: it gives the crossing square for k = 1,
the pull-across-a-wire 3-cells for k = 2 and the 4-dimensional pulls for
k = 3.

`TensorTerms.tensor` builds these cells over composite boundaries for the
generator table, the shear/proof chains and `GrayMorphism` (the tensor of
two presentation morphisms) by one recursion, `_pull`, of a wire with a
bead of dimension 1 or 2.  It is written for the wire in the first factor;
with the bead first, every level-1 composite is reversed and a 2-bead's
source and target are exchanged.
`smash` returns its collapse as a `PresMorphism`; `collapse` makes the same
quotient of a tensor that is already built.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .presentation import PresMorphism, Presentation
from .record import Record
from .terms import (MAX_DIM, CellTerm, Comp, Gen, Gens, Id, TermError, idn,
                    substitute)
from .walking import PointedPresentation

# the tensor sign; a factor's name may hold it too, as the names of an
# iterated tensor do
PAIR_SEP = "⊗"


def pair_name(x: str, y: str) -> str:
    return f"{x}{PAIR_SEP}{y}"


def split_pair(name: str, left: Gens, right: Gens) -> Tuple[str, str]:
    """The factors (x, y) of a pair generator of a tensor of two
    presentations with generator tables left and right: the one split of
    name at a tensor sign into a name of each, since `gray` refuses two
    pairs with one name.  ValueError when there is none."""
    i = name.find(PAIR_SEP)
    while i >= 0:
        x, y = name[:i], name[i + len(PAIR_SEP):]
        if x in left and y in right:
            return x, y
        i = name.find(PAIR_SEP, i + 1)
    raise ValueError(f"{name!r} is not a pair of the two factors")


def _ends(p: Presentation, t: CellTerm) -> Tuple[str, str]:
    """The names of the source and target objects of a term of p."""
    d = p.dim(t)
    s, g = p.boundary(t, "source", 0, d), p.boundary(t, "target", 0, d)
    if not (isinstance(s, Gen) and isinstance(g, Gen)):
        # a normal 0-cell is an object or the formal inverse of one
        raise TermError("0-boundary is not an object")
    return s.name, g.name


class _Order:
    """A pull's order of factors, wire first or not: the wire's and the
    bead's presentations (W, B), a term of either at an object of the
    other, and how the order reads level-1 composites and 2-bead faces."""

    def __init__(self, tt: "TensorTerms", wire_first: bool):
        self.tt, self.wire_first = tt, wire_first
        self.W, self.B = (tt.L, tt.R) if wire_first else (tt.R, tt.L)

    def at(self, t: CellTerm, y: str) -> CellTerm:
        """A term of the wire's factor at an object y of the bead's."""
        return self.tt.ten_l(t, y) if self.wire_first else self.tt.ten_r(y, t)

    def beside(self, x: str, t: CellTerm) -> CellTerm:
        """A term of the bead's factor at an object x of the wire's."""
        return self.tt.ten_r(x, t) if self.wire_first else self.tt.ten_l(t, x)

    def then(self, s: CellTerm, t: CellTerm) -> CellTerm:
        """s then t at level 1, run backwards with the bead first."""
        return Comp(1, s, t) if self.wire_first else Comp(1, t, s)

    def faces(self, t: CellTerm) -> Tuple[CellTerm, CellTerm]:
        """Normal source and target of a bead-side 2-cell, exchanged bead
        first."""
        s, g = self.B.src(t), self.B.tgt(t)
        return (s, g) if self.wire_first else (g, s)


class _Pairs(dict):
    """One tensor's pair generators by factor names (x, y), each made once."""

    def __missing__(self, xy: Tuple[str, str]) -> Gen:
        g = self[xy] = Gen(pair_name(*xy))
        return g


class TensorTerms:
    """Term constructors over the tensor of two presentations."""

    def __init__(self, left: Presentation, right: Presentation):
        self.L = left
        self.R = right
        self._pairs = _Pairs()
        self._orders = (_Order(self, False), _Order(self, True))

    # -- relabelling tensors with an object ------------------------------

    def ten_l(self, t: CellTerm, y: str) -> CellTerm:
        """t (x) y for t a term of the left factor and y an object name."""
        return substitute(t, lambda x: self._pairs[x, y])

    def ten_r(self, x: str, t: CellTerm) -> CellTerm:
        """x (x) t for x an object name and t a term of the right factor."""
        return substitute(t, lambda y: self._pairs[x, y])

    def tensor(self, a: CellTerm, da: int, b: CellTerm, db: int) -> CellTerm:
        """a (x) b for a term a of dimension da of the left factor and a term
        b of dimension db of the right factor, da + db <= 3."""
        if da == 0 or db == 0:
            x = a if da == 0 else b
            if not isinstance(x, Gen):
                raise TermError("object term is not an object generator")
            return self.ten_r(x.name, b) if da == 0 else self.ten_l(a, x.name)
        if da + db > 3:
            raise TermError(f"no tensor rule for dimension pair ({da},{db})")
        a, b = self.L.normalize(a), self.R.normalize(b)
        if da == 1:
            return self._pull(a, b, db, True)
        return self._pull(b, a, da, False)

    # -- pulling a bead across a wire -------------------------------------

    def _pull(self, wire: CellTerm, bead: CellTerm, k: int,
              wire_first: bool) -> CellTerm:
        """wire (x) bead, or bead (x) wire unless wire_first, for a normal
        1-cell wire and a normal k-cell bead, k = 1 or 2.  At k = 1 it fills
        the crossing square: a (x) b goes from (src a (x) b) then
        (a (x) tgt b) to (a (x) src b) then (tgt a (x) b).  At k = 2 it pulls
        the bead across the wire; its source fires the bead before the
        crossing with the wire first, after it with the bead first.

        The cases are written for the wire first.  With the bead first they
        keep their shape, but every level-1 composite runs backwards and a
        2-bead's source and target are exchanged (`_Order`).  The first
        factor's composite splits first, so a composite 1-bead is split as
        the wire of the other order.  Parts of normal terms and the faces
        the presentations give are normal; the splits built here are
        normalized before the recursion."""
        if isinstance(wire, Gen) and isinstance(bead, Gen):
            return self._pairs[(wire.name, bead.name) if wire_first
                              else (bead.name, wire.name)]
        o = self._orders[wire_first]
        if isinstance(wire, Id):
            return Id(o.beside(wire.inner.name, bead))
        if isinstance(bead, Id):
            return Id(self._pull(wire, bead.inner, 1, wire_first) if k == 2
                      else o.at(wire, bead.inner.name))
        if (k == 1 and isinstance(bead, Comp)
                and not (wire_first and isinstance(wire, Comp))):
            return self._pull(bead, wire, 1, not wire_first)

        def pull(w, b, j=k):
            return self._pull(w, b, j, wire_first)

        if isinstance(wire, Comp):
            # the bead crosses the first leg, then the second
            s, t = wire.left, wire.right
            p, q = _ends(o.B, bead)
            s_leg = Comp(0, pull(s, bead), idn(o.at(t, q), k))
            t_leg = Comp(0, idn(o.at(s, p), k), pull(t, bead))
            if k == 1:
                return o.then(s_leg, t_leg)
            lo, hi = o.faces(bead)
            return Comp(2,
                        o.then(s_leg, Id(Comp(0, Id(o.at(s, p)),
                                              pull(t, hi, 1)))),
                        o.then(Id(Comp(0, pull(s, lo, 1), Id(o.at(t, q)))),
                               t_leg))
        if not (isinstance(wire, Gen) and isinstance(bead, Comp)):
            raise TermError(f"no pull of {bead!r} across {wire!r}")
        x0, x1 = _ends(o.W, wire)
        # a vertical bead stack is a level-1 composite: backwards bead first
        x, y = (bead.left, bead.right) if wire_first or bead.k == 0 else (
            bead.right, bead.left)
        if bead.k == 1:
            # a vertical stack crosses one bead at a time, the other whiskered
            p, q = _ends(o.B, bead)
            return Comp(2,
                        o.then(Id(Comp(0, o.beside(x0, x), Id(o.at(wire, q)))),
                               pull(wire, y)),
                        o.then(pull(wire, x),
                               Id(Comp(0, Id(o.at(wire, p)),
                                       o.beside(x1, y)))))
        if isinstance(x, Id):
            # a left whisker rides along
            w = x.inner
            return o.then(Comp(0, Id(Id(o.beside(x0, w))), pull(wire, y)),
                          Id(Comp(0, pull(wire, w, 1),
                                  Id(o.beside(x1, o.faces(y)[1])))))
        if isinstance(y, Id):
            w = y.inner
            return o.then(Id(Comp(0, Id(o.beside(x0, o.faces(x)[0])),
                                  pull(wire, w, 1))),
                          Comp(0, pull(wire, x), Id(Id(o.beside(x1, w)))))
        # a genuine horizontal composite: expand by interchange
        return pull(wire, o.B.normalize(Comp(1, Comp(0, x, Id(o.B.src(y))),
                                             Comp(0, Id(o.B.tgt(x)), y))))

    # -- the interchange 4-cell ------------------------------------------

    def fill22_boundaries(self, alpha: Gen, beta: Gen) -> Tuple[CellTerm, CellTerm]:
        """Source and target 3-cells of the interchange 4-cell: the two ways
        of pulling both beads across each other's wires."""
        a = self.L.src(alpha)
        a2 = self.L.tgt(alpha)
        b = self.R.src(beta)
        b2 = self.R.tgt(beta)
        p, q = _ends(self.R, b)
        A0, A1 = _ends(self.L, a)
        # layers used as whiskers
        aNE = Comp(0, self.ten_l(alpha, p), Id(self.ten_r(A1, b2)))
        bNW2 = Comp(0, Id(self.ten_l(a2, p)), self.ten_r(A1, beta))
        bSE = Comp(0, self.ten_r(A0, beta), Id(self.ten_l(a, q)))
        aSW2 = Comp(0, Id(self.ten_r(A0, b)), self.ten_l(alpha, q))
        W1 = Comp(1, self.tensor(a, 1, beta, 2), Id(aNE))
        W2 = Comp(1, self.tensor(alpha, 2, b, 1), Id(bNW2))
        src = Comp(2, W1, W2)
        V1 = Comp(1, Id(bSE), self.tensor(alpha, 2, b2, 1))
        V2 = Comp(1, Id(aSW2), self.tensor(a2, 1, beta, 2))
        tgt = Comp(2, V1, V2)
        return src, tgt


def gray(P: Presentation, Q: Presentation) -> Presentation:
    """The strict lax tensor product of two presentations."""
    top = 0
    for g in P.gens.values():
        for h in Q.gens.values():
            top = max(top, g.dim + h.dim)
    if top > MAX_DIM:
        raise TermError(f"tensor would reach dimension {top} > {MAX_DIM}")
    out = Presentation(max_dim=top)
    tt = TensorTerms(P, Q)

    pairs = sorted(((g, h) for g in P.gens.values() for h in Q.gens.values()),
                   key=lambda gh: (gh[0].dim + gh[1].dim, gh[0].name, gh[1].name))
    for g, h in pairs:
        d = g.dim + h.dim
        src, tgt = _pair_boundaries(tt, g, h) if d else (None, None)
        # boundaries name only pairs added before, so they reuse add's Gen
        tt._pairs[g.name, h.name] = out.add(
            pair_name(g.name, h.name), d, src, tgt,
            invertible=d > 0 and (g.invertible or h.invertible))

    # transport relations by tensoring with objects of the other factor
    for r in P.relations:
        for y in Q.gens_of_dim(0):
            out.relate(r.dim, tt.ten_l(r.lhs, y.name), tt.ten_l(r.rhs, y.name),
                       r.oriented)
    for r in Q.relations:
        for x in P.gens_of_dim(0):
            out.relate(r.dim, tt.ten_r(x.name, r.lhs), tt.ten_r(x.name, r.rhs),
                       r.oriented)
    return out


def _pair_boundaries(tt: TensorTerms, g, h):
    if g.dim == 0:
        return tt.ten_r(g.name, h.src), tt.ten_r(g.name, h.tgt)
    if h.dim == 0:
        return tt.ten_l(g.src, h.name), tt.ten_l(g.tgt, h.name)
    if g.dim == h.dim == 2:
        return tt.fill22_boundaries(Gen(g.name), Gen(h.name))
    return _wire_bead(tt, g, h)


def _wire_bead(tt: TensorTerms, g, h) -> Tuple[CellTerm, CellTerm]:
    """Source and target of g (x) h when one factor is a wire (a
    1-generator) and the other a bead (a k-generator, k = 1..3).

    Each side is the bead tensored with one end of the wire, composed at
    every level j < k with the wire tensored with the bead's j-boundary,
    whiskered up to dimension k: a j-source on the left, a j-target on the
    right.  With the wire first, the source starts at the wire's source and
    takes j-targets, the target starts at the wire's target and takes
    j-sources.  With the bead first, the sides alternate with the level as
    in Steiner's sign (-1)^(k-1-j): the source takes a j-source when k-1-j
    is even, and starts at the wire's source when k is even; the target
    makes the opposite choices.  For k = 1 the two readings agree.

    The bead's j-boundary is taken along its source spine: sources down to
    dimension j+1, then one step to the wanted side."""
    wire_first = g.dim == 1
    wire, bead = (g, h) if wire_first else (h, g)
    w, b, k = Gen(wire.name), Gen(bead.name), bead.dim
    B = tt.R if wire_first else tt.L
    faces = []                          # faces[j]: (j-source, j-target)
    t = b
    for _ in range(k):
        faces.append((B.src(t), B.tgt(t)))
        t = faces[-1][0]
    faces.reverse()
    ends = _ends(tt.L if wire_first else tt.R, w)
    sides = []
    for target in (0, 1):
        end = Gen(ends[target if wire_first else (target + k) % 2])
        out = tt.tensor(end, 0, b, k) if wire_first else tt.tensor(b, k, end, 0)
        for j in range(k):
            on_right = 1 - target if wire_first else (target + k - 1 - j) % 2
            face = faces[j][on_right]
            piece = (tt.tensor(w, 1, face, j) if wire_first
                     else tt.tensor(face, j, w, 1))
            piece = idn(piece, k - 1 - j)
            out = Comp(j, out, piece) if on_right else Comp(j, piece, out)
        sides.append(out)
    return sides[0], sides[1]


# ---------------------------------------------------------------------------
# tensor squares of morphisms


class GrayMorphism(Record, derived=("tt",)):
    """The tensor of two presentation morphisms: a pair generator goes to
    the tensor of the images, built with the same term constructors that
    define the tensor boundaries, so functoriality is by construction.
    The codomain is gray(left.codomain, right.codomain)."""
    __slots__ = ("left", "right", "codomain", "tt")

    def __init__(self, left: PresMorphism, right: PresMorphism,
                 codomain: Presentation):
        Record.__init__(self, left, right, codomain,
                        TensorTerms(left.codomain, right.codomain))

    def push(self, t: CellTerm) -> CellTerm:
        return self.codomain.normalize(substitute(t, self._push_pair))

    def _push_pair(self, name: str) -> CellTerm:
        x, y = split_pair(name, self.left.domain.gens,
                          self.right.domain.gens)
        return self.tt.tensor(self.left.push(Gen(x)),
                              self.left.domain.gens[x].dim,
                              self.right.push(Gen(y)),
                              self.right.domain.gens[y].dim)


# ---------------------------------------------------------------------------
# smash collapse


BASEPOINT = "pt"


def smash(P: PointedPresentation,
          Q: PointedPresentation) -> Tuple[Presentation, PresMorphism]:
    """Quotient of the tensor collapsing every generator that touches either
    basepoint to an identity on the base object, with the collapse map."""
    return collapse(gray(P.base, Q.base), P, Q)


def collapse(big: Presentation, P: PointedPresentation,
             Q: PointedPresentation) -> Tuple[Presentation, PresMorphism]:
    """The smash collapse of an already built tensor `big = gray(P.base,
    Q.base)`: every pair generator with P's basepoint as its first factor
    or Q's as its second becomes an identity on the base object."""
    out = Presentation(max_dim=big.max_dim)
    out.add(BASEPOINT, 0)
    assignment: Dict[str, CellTerm] = {}

    survivors = []
    for g in big.gens.values():
        x, y = split_pair(g.name, P.base.gens, Q.base.gens)
        if x == P.basepoint or y == Q.basepoint:
            assignment[g.name] = idn(Gen(BASEPOINT), g.dim)
        else:
            survivors.append(g)

    cm = PresMorphism(big, out, assignment)
    for g in sorted(survivors, key=lambda g: (g.dim, g.name)):
        if g.dim == 0:
            out.add(g.name, 0)
            assignment[g.name] = Gen(g.name)
            continue
        # boundaries may mention survivors of the same dimension only through
        # lower cells, which are already present
        assignment[g.name] = Gen(g.name)
        src = cm.push(g.src)
        tgt = cm.push(g.tgt)
        out.add(g.name, g.dim, src, tgt, g.invertible)

    for r in big.relations:
        lhs = cm.push(r.lhs)
        rhs = cm.push(r.rhs)
        if lhs == rhs:
            continue
        out.relate(r.dim, lhs, rhs, r.oriented)
    return out, cm
