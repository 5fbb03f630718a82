"""Gray tensor product of presentations, and the pointed smash collapse.

Generators of the tensor are pairs (x, y), one from each factor, of total
dimension <= 4.  An object paired with a cell gives a relabelled copy of
the cell, and two 2-cells give the interchange 4-cell mediating the two
pull orders.  A wire (1-cell) paired with a bead (k-cell), in either
order, follows one rule, `_wire_bead`, after Steiner's formula
d(x (x) y) = dx (x) y +- x (x) dy: it gives the crossing square for k = 1,
the pull-across-a-wire 3-cells for k = 2 and the 4-dimensional pulls for
k = 3.

The same term constructors (`cross`, `move12`, `move21` and
`fill22_boundaries`), dispatched on dimensions by `TensorTerms.tensor`,
build instances of these cells over composite boundaries, which is what
both the generator table and the shear/proof-chain constructions need,
and what `GrayMorphism`, the tensor of two presentation morphisms, sends
pair generators to.
`smash` returns its collapse as a `PresMorphism`; `collapse` makes the same
quotient of a tensor that is already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .presentation import PresMorphism, Presentation
from .terms import CellTerm, Comp, Gen, Id, TermError, idn, substitute
from .walking import PointedPresentation

PAIR_SEP = "⊗"  # the tensor sign, kept out of factor names


def pair_name(x: str, y: str) -> str:
    return f"{x}{PAIR_SEP}{y}"


def split_pair(name: str) -> Tuple[str, str]:
    x, y = name.split(PAIR_SEP, 1)
    return x, y


def _ends(p: Presentation, t: CellTerm) -> Tuple[str, str]:
    """The names of the source and target objects of a term of p."""
    s = p.normalize(p.boundary(t, "source", 0))
    g = p.normalize(p.boundary(t, "target", 0))
    if not (isinstance(s, Gen) and isinstance(g, Gen)):
        raise TermError("0-boundary is not an object")
    return s.name, g.name


class TensorTerms:
    """Term constructors over the tensor of two presentations."""

    def __init__(self, left: Presentation, right: Presentation):
        self.L = left
        self.R = right

    # -- relabelling tensors with an object ------------------------------

    def ten_l(self, t: CellTerm, y: str) -> CellTerm:
        """t (x) y for t a term of the left factor and y an object name."""
        return substitute(t, lambda x: Gen(pair_name(x, y)))

    def ten_r(self, x: str, t: CellTerm) -> CellTerm:
        """x (x) t for x an object name and t a term of the right factor."""
        return substitute(t, lambda y: Gen(pair_name(x, y)))

    def tensor(self, a: CellTerm, da: int, b: CellTerm, db: int) -> CellTerm:
        """a (x) b for a term a of dimension da of the left factor and a term
        b of dimension db of the right factor, da + db <= 3."""
        if da == 0 or db == 0:
            x = a if da == 0 else b
            if not isinstance(x, Gen):
                raise TermError("object term is not an object generator")
            return self.ten_r(x.name, b) if da == 0 else self.ten_l(a, x.name)
        if (da, db) == (1, 1):
            return self.cross(a, b)
        if (da, db) == (1, 2):
            return self.move12(a, b)
        if (da, db) == (2, 1):
            return self.move21(a, b)
        raise TermError(f"no tensor rule for dimension pair ({da},{db})")

    # -- the crossing of two 1-cells --------------------------------------

    def cross(self, a: CellTerm, b: CellTerm) -> CellTerm:
        """The square filler a (x) b of two 1-cell terms, as a 2-cell from
        (src a (x) b) then (a (x) tgt b)  to  (a (x) src b) then (tgt a (x) b)."""
        a = self.L.normalize(a)
        b = self.R.normalize(b)
        if isinstance(a, Id):
            x = a.inner
            assert isinstance(x, Gen)
            return Id(self.ten_r(x.name, b))
        if isinstance(b, Id):
            y = b.inner
            assert isinstance(y, Gen)
            return Id(self.ten_l(a, y.name))
        if isinstance(a, Comp):
            s, t = a.left, a.right
            p, q = _ends(self.R, b)
            step1 = Comp(0, self.cross(s, b), Id(self.ten_l(t, q)))
            step2 = Comp(0, Id(self.ten_l(s, p)), self.cross(t, b))
            return Comp(1, step1, step2)
        if isinstance(b, Comp):
            u, v = b.left, b.right
            P, Q = _ends(self.L, a)
            step1 = Comp(0, Id(self.ten_r(P, u)), self.cross(a, v))
            step2 = Comp(0, self.cross(a, u), Id(self.ten_r(Q, v)))
            return Comp(1, step1, step2)
        assert isinstance(a, Gen) and isinstance(b, Gen)
        return Gen(pair_name(a.name, b.name))

    # -- pulling a second-factor bead across a first-factor wire ----------

    def move12(self, a: CellTerm, beta: CellTerm) -> CellTerm:
        """The 3-cell a (x) beta pulling beta from the southeast to the
        northwest of the a-wire.  Source: beta fires before the crossing;
        target: the crossing fires before beta."""
        a = self.L.normalize(a)
        beta = self.R.normalize(beta)
        if isinstance(a, Id):
            x = a.inner
            assert isinstance(x, Gen)
            return Id(self.ten_r(x.name, beta))
        if isinstance(beta, Id):
            return Id(self.cross(a, beta.inner))
        if isinstance(a, Comp):
            # beta crosses the first leg, then the second
            s, t = a.left, a.right
            b = self.R.src(beta)
            b2 = self.R.tgt(beta)
            p, q = _ends(self.R, b)
            layer3 = Comp(0, Id(self.ten_l(s, p)), self.cross(t, b2))
            W1 = Comp(1, Comp(0, self.move12(s, beta), Id(Id(self.ten_l(t, q)))),
                      Id(layer3))
            layer1 = Comp(0, self.cross(s, b), Id(self.ten_l(t, q)))
            W2 = Comp(1, Id(layer1),
                      Comp(0, Id(Id(self.ten_l(s, p))), self.move12(t, beta)))
            return Comp(2, W1, W2)
        assert isinstance(a, Gen)
        if isinstance(beta, Gen):
            return Gen(pair_name(a.name, beta.name))
        A0, A1 = _ends(self.L, a)
        if isinstance(beta, Comp) and beta.k == 1:
            # a vertical bead stack crosses top-first, idle bead whiskered
            c, d = beta.left, beta.right
            p, q = _ends(self.R, beta)
            lower = Comp(1, Id(Comp(0, self.ten_r(A0, c), Id(self.ten_l(a, q)))),
                         self.move12(a, d))
            upper = Comp(1, self.move12(a, c),
                         Id(Comp(0, Id(self.ten_l(a, p)), self.ten_r(A1, d))))
            return Comp(2, lower, upper)
        if isinstance(beta, Comp) and beta.k == 0:
            x, y = beta.left, beta.right
            if isinstance(x, Id):
                # left whisker wire rides along
                w = x.inner
                b2 = self.R.tgt(y)
                layer3 = Comp(0, self.cross(a, w), Id(self.ten_r(A1, b2)))
                inner = Comp(0, Id(Id(self.ten_r(A0, w))), self.move12(a, y))
                return Comp(1, inner, Id(layer3))
            if isinstance(y, Id):
                w = y.inner
                b = self.R.src(x)
                layer1 = Comp(0, Id(self.ten_r(A0, b)), self.cross(a, w))
                inner = Comp(0, self.move12(a, x), Id(Id(self.ten_r(A1, w))))
                return Comp(1, Id(layer1), inner)
            # genuine horizontal composite: expand by interchange
            split = Comp(1, Comp(0, x, Id(self.R.src(y))),
                         Comp(0, Id(self.R.tgt(x)), y))
            return self.move12(a, split)
        raise TermError(f"unsupported shape in move12: {beta!r}")

    # -- pulling a first-factor bead across a second-factor wire ----------

    def move21(self, alpha: CellTerm, b: CellTerm) -> CellTerm:
        """The 3-cell alpha (x) b pulling alpha from the northeast to the
        southwest of the b-wire.  Source: the crossing fires before alpha;
        target: alpha fires before the crossing."""
        alpha = self.L.normalize(alpha)
        b = self.R.normalize(b)
        if isinstance(b, Id):
            y = b.inner
            assert isinstance(y, Gen)
            return Id(self.ten_l(alpha, y.name))
        if isinstance(alpha, Id):
            return Id(self.cross(alpha.inner, b))
        if isinstance(b, Comp):
            # alpha crosses the first leg, then the second
            u, v = b.left, b.right
            a = self.L.src(alpha)
            a2 = self.L.tgt(alpha)
            A0, A1 = _ends(self.L, a)
            layer1 = Comp(0, Id(self.ten_r(A0, u)), self.cross(a, v))
            W_u = Comp(1, Id(layer1),
                       Comp(0, self.move21(alpha, u), Id(Id(self.ten_r(A1, v)))))
            layer_u2 = Comp(0, self.cross(a2, u), Id(self.ten_r(A1, v)))
            W_v = Comp(1, Comp(0, Id(Id(self.ten_r(A0, u))), self.move21(alpha, v)),
                       Id(layer_u2))
            return Comp(2, W_u, W_v)
        assert isinstance(b, Gen)
        if isinstance(alpha, Gen):
            return Gen(pair_name(alpha.name, b.name))
        p, q = _ends(self.R, b)
        if isinstance(alpha, Comp) and alpha.k == 1:
            # a vertical bead stack crosses bottom-first, idle bead whiskered
            c, d = alpha.left, alpha.right
            A0, A1 = _ends(self.L, alpha)
            lower = Comp(1, self.move21(c, b),
                         Id(Comp(0, self.ten_l(d, p), Id(self.ten_r(A1, b)))))
            upper = Comp(1, Id(Comp(0, Id(self.ten_r(A0, b)), self.ten_l(c, q))),
                         self.move21(d, b))
            return Comp(2, lower, upper)
        if isinstance(alpha, Comp) and alpha.k == 0:
            x, y = alpha.left, alpha.right
            if isinstance(x, Id):
                w = x.inner
                a2 = self.L.tgt(y)
                layer1 = Comp(0, self.cross(w, b), Id(self.ten_l(self.L.src(y), q)))
                inner = Comp(0, Id(Id(self.ten_l(w, p))), self.move21(y, b))
                return Comp(1, Id(layer1), inner)
            if isinstance(y, Id):
                w = y.inner
                a2 = self.L.tgt(x)
                inner = Comp(0, self.move21(x, b), Id(Id(self.ten_l(w, q))))
                layer2 = Comp(0, Id(self.ten_l(a2, p)), self.cross(w, b))
                return Comp(1, inner, Id(layer2))
            split = Comp(1, Comp(0, x, Id(self.L.src(y))),
                         Comp(0, Id(self.L.tgt(x)), y))
            return self.move21(split, b)
        raise TermError(f"unsupported shape in move21: {alpha!r}")

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
        W1 = Comp(1, self.move12(a, beta), Id(aNE))
        W2 = Comp(1, self.move21(alpha, b), Id(bNW2))
        src = Comp(2, W1, W2)
        V1 = Comp(1, Id(bSE), self.move21(alpha, b2))
        V2 = Comp(1, Id(aSW2), self.move12(a2, beta))
        tgt = Comp(2, V1, V2)
        return src, tgt


def gray(P: Presentation, Q: Presentation) -> Presentation:
    """The strict lax tensor product of two presentations."""
    top = 0
    for g in P.gens.values():
        for h in Q.gens.values():
            top = max(top, g.dim + h.dim)
    if top > 4:
        raise TermError(f"tensor would reach dimension {top} > 4")
    out = Presentation(max_dim=top)
    tt = TensorTerms(P, Q)

    pairs = sorted(((g, h) for g in P.gens.values() for h in Q.gens.values()),
                   key=lambda gh: (gh[0].dim + gh[1].dim, gh[0].name, gh[1].name))
    for g, h in pairs:
        d = g.dim + h.dim
        name = pair_name(g.name, h.name)
        if d == 0:
            out.add(name, 0)
            continue
        src, tgt = _pair_boundaries(tt, g, h)
        out.add(name, d, src, tgt, invertible=g.invertible or h.invertible)

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


@dataclass
class GrayMorphism:
    """The tensor of two presentation morphisms: a pair generator goes to
    the tensor of the images, built with the same term constructors that
    define the tensor boundaries, so functoriality is by construction."""
    left: PresMorphism
    right: PresMorphism
    codomain: Presentation   # gray(left.codomain, right.codomain)

    def __post_init__(self):
        self.tt = TensorTerms(self.left.codomain, self.right.codomain)

    def push(self, t: CellTerm) -> CellTerm:
        return self.codomain.normalize(substitute(t, self._push_pair))

    def _push_pair(self, name: str) -> CellTerm:
        x, y = split_pair(name)
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
    return collapse(gray(P.base, Q.base), P.basepoint, Q.basepoint)


def collapse(big: Presentation, p_point: str,
             q_point: str) -> Tuple[Presentation, PresMorphism]:
    """The smash collapse of an already built tensor `big = gray(P, Q)`:
    every pair generator with `p_point` as its first factor or `q_point` as
    its second becomes an identity on the base object."""
    out = Presentation(max_dim=big.max_dim)
    out.add(BASEPOINT, 0)
    assignment: Dict[str, CellTerm] = {}

    survivors = []
    for g in big.gens.values():
        x, y = split_pair(g.name)
        if x == p_point or y == q_point:
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
