"""Gray tensor product of presentations, and the pointed smash collapse.

Generators of the tensor are pairs (x, y), one from each factor, of total
dimension <= 4.  Boundaries follow the explicit case table for dimension
pairs (0,k), (k,0), (1,1), (2,1), (1,2), (2,2), (1,3), (3,1):

  * the crossing square for a pair of 1-cells, oriented so the first
    factor's source stays in the source;
  * the two pull-across-a-wire 3-cells, moving second-factor beads to the
    northwest and first-factor beads to the southwest;
  * the interchange 4-cell mediating the two pull orders.

The same term constructors (`cross`, `move12`, `move21` and
`fill22_boundaries`) build instances of these cells over composite
boundaries, which is what both the generator table and the
shear/proof-chain constructions need, and what `GrayMorphism`, the
tensor of two presentation morphisms, sends pair generators to.
`smash` returns its collapse as a `PresMorphism`; `collapse` makes the same
quotient of a tensor that is already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .presentation import PresMorphism, Presentation
from .terms import CellTerm, Comp, Gen, Id, TermError, comp, idn, substitute
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
    dg, dh = g.dim, h.dim
    gx, hy = Gen(g.name), Gen(h.name)
    if dg == 0:
        return tt.ten_r(g.name, h.src), tt.ten_r(g.name, h.tgt)
    if dh == 0:
        return tt.ten_l(g.src, h.name), tt.ten_l(g.tgt, h.name)
    if (dg, dh) == (1, 1):
        A0, A1 = _ends(tt.L, gx)
        p, q = _ends(tt.R, hy)
        src = comp(0, tt.ten_r(A0, hy), tt.ten_l(gx, q))
        tgt = comp(0, tt.ten_l(gx, p), tt.ten_r(A1, hy))
        return src, tgt
    if (dg, dh) == (1, 2):
        a = gx
        b, b2 = h.src, h.tgt
        p, q = _ends(tt.R, b)
        A0, A1 = _ends(tt.L, a)
        src = Comp(1, Comp(0, tt.ten_r(A0, hy), Id(tt.ten_l(a, q))),
                   tt.cross(a, b2))
        tgt = Comp(1, tt.cross(a, b),
                   Comp(0, Id(tt.ten_l(a, p)), tt.ten_r(A1, hy)))
        return src, tgt
    if (dg, dh) == (2, 1):
        b = hy
        a, a2 = g.src, g.tgt
        p, q = _ends(tt.R, b)
        A0, A1 = _ends(tt.L, a)
        src = Comp(1, tt.cross(a, b),
                   Comp(0, tt.ten_l(gx, p), Id(tt.ten_r(A1, b))))
        tgt = Comp(1, Comp(0, Id(tt.ten_r(A0, b)), tt.ten_l(gx, q)),
                   tt.cross(a2, b))
        return src, tgt
    if (dg, dh) == (2, 2):
        return tt.fill22_boundaries(gx, hy)
    if (dg, dh) == (1, 3):
        # by analogy with (1,2): the second-factor 3-bead travels northwest
        beta, beta2 = h.src, h.tgt
        b = tt.R.src(beta)
        b2 = tt.R.tgt(beta)
        p, q = _ends(tt.R, b)
        A0, A1 = _ends(tt.L, gx)
        w_src = Comp(1, Comp(0, tt.ten_r(A0, hy), Id(Id(tt.ten_l(gx, q)))),
                     Id(tt.cross(gx, b2)))
        src = Comp(2, w_src, tt.move12(gx, beta2))
        w_tgt = Comp(1, Id(tt.cross(gx, b)),
                     Comp(0, Id(Id(tt.ten_l(gx, p))), tt.ten_r(A1, hy)))
        tgt = Comp(2, tt.move12(gx, beta), w_tgt)
        return src, tgt
    if (dg, dh) == (3, 1):
        alpha, alpha2 = g.src, g.tgt
        a = tt.L.src(alpha)
        a2 = tt.L.tgt(alpha)
        p, q = _ends(tt.R, hy)
        A0, A1 = _ends(tt.L, a)
        w_src = Comp(1, Comp(0, Id(Id(tt.ten_r(A0, hy))), tt.ten_l(gx, q)),
                     Id(tt.cross(a2, hy)))
        src = Comp(2, tt.move21(alpha, hy), w_src)
        w_tgt = Comp(1, Id(tt.cross(a, hy)),
                     Comp(0, tt.ten_l(gx, p), Id(Id(tt.ten_r(A1, hy)))))
        tgt = Comp(2, w_tgt, tt.move21(alpha2, hy))
        return src, tgt
    raise TermError(f"no boundary rule for dimension pair ({dg},{dh})")


# ---------------------------------------------------------------------------
# tensor squares of morphisms


@dataclass
class GrayMorphism:
    """The tensor of two presentation morphisms: a pair generator goes to
    the tensor of the images, built with the same term constructors that
    define the tensor boundaries, so functoriality is by construction."""
    left: PresMorphism
    right: PresMorphism
    domain: Presentation     # gray(left.domain, right.domain)
    codomain: Presentation   # gray(left.codomain, right.codomain)

    def __post_init__(self):
        self.tt = TensorTerms(self.left.codomain, self.right.codomain)

    def push(self, t: CellTerm) -> CellTerm:
        return self.codomain.normalize(substitute(t, self._push_pair))

    def _push_pair(self, name: str) -> CellTerm:
        x, y = split_pair(name)
        fx = self.left.push(Gen(x))
        gy = self.right.push(Gen(y))
        dx = self.left.domain.gens[x].dim
        dy = self.right.domain.gens[y].dim
        tt = self.tt
        if dx == 0:
            return tt.ten_r(_object_name(fx), gy)
        if dy == 0:
            return tt.ten_l(fx, _object_name(gy))
        if (dx, dy) == (1, 1):
            return tt.cross(fx, gy)
        if (dx, dy) == (1, 2):
            return tt.move12(fx, gy)
        if (dx, dy) == (2, 1):
            return tt.move21(fx, gy)
        raise TermError(f"no tensor image rule for dimension pair ({dx},{dy})")


def _object_name(t: CellTerm) -> str:
    if not isinstance(t, Gen):
        raise TermError("object image is not an object generator")
    return t.name


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
