"""Mates of lax squares, adjunction records, and the symbolic structure
cells of the retract-induced bialgebra.

A lax square is a 2-cell alpha: (h then k) => (f then g) with f on top,
h on the left, k on the bottom, g on the right.  When f and k come with
right adjoints the square rotates clockwise to its right mate
(f_R then h) => (g then k_R); when h and g come with left adjoints it
rotates counterclockwise to the left mate.  Rotating an identity square
produces a snake, and rotating twice comes back to where one started up
to the zigzag rules; eq() decides both at the layer level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .presentation import Presentation
from .rewriting import EQ_DISTINCT, EQ_UNKNOWN, Verdict, boundaries_eq, eq
from .terms import CellTerm, Id, Inv, TermError, comp, normal_dim


@dataclass(frozen=True)
class AdjunctionRecord:
    """Data of l -| r: counit eps: (r then l) => id, unit eta: id => (l then r)."""
    presentation: Presentation
    l: CellTerm
    r: CellTerm
    eps: CellTerm
    eta: CellTerm

    @classmethod
    def trivial(cls, p: Presentation, obj: CellTerm) -> "AdjunctionRecord":
        return cls(p, Id(obj), Id(obj), Id(Id(obj)), Id(Id(obj)))

    def check_zigzags(self, budget: Optional[int] = None) -> Dict[str, Verdict]:
        p = self.presentation
        snake_r = comp(1, comp(0, Id(self.r), self.eta),
                       comp(0, self.eps, Id(self.r)))
        snake_l = comp(1, comp(0, self.eta, Id(self.l)),
                       comp(0, Id(self.l), self.eps))
        return {
            "snake_r": eq(snake_r, Id(self.r), p, budget),
            "snake_l": eq(snake_l, Id(self.l), p, budget),
        }


@dataclass(frozen=True)
class Square:
    """alpha: (h then k) => (f then g)."""
    f: CellTerm
    g: CellTerm
    h: CellTerm
    k: CellTerm
    alpha: CellTerm


class ShapeError(TermError):
    pass


def _require_parallel(p: Presentation, sq: Square) -> None:
    if (eq(comp(0, sq.h, sq.k), p.src(sq.alpha), p) is EQ_DISTINCT
            or eq(comp(0, sq.f, sq.g), p.tgt(sq.alpha), p) is EQ_DISTINCT):
        raise ShapeError("filler does not match the square's sides")


def right_mate(sq: Square, adj_f: AdjunctionRecord,
               adj_k: AdjunctionRecord) -> CellTerm:
    """Clockwise rotation: (f_R then h) => (g then k_R), assembled as
    unit insertion, whiskered filler, counit removal."""
    p = adj_f.presentation
    _require_parallel(p, sq)
    if p.normalize(adj_f.l) != p.normalize(sq.f) or \
       p.normalize(adj_k.l) != p.normalize(sq.k):
        raise ShapeError("adjunction records do not match the square's top/bottom")
    fR, kR = adj_f.r, adj_k.r
    step1 = comp(0, Id(comp(0, fR, sq.h)), adj_k.eta)
    step2 = comp(0, Id(fR), sq.alpha, Id(kR))
    step3 = comp(0, adj_f.eps, Id(comp(0, sq.g, kR)))
    return p.normalize(comp(1, step1, step2, step3))


def left_mate(sq: Square, adj_h: AdjunctionRecord,
              adj_g: AdjunctionRecord) -> CellTerm:
    """Counterclockwise rotation: (k then g_L) => (h_L then f)."""
    p = adj_h.presentation
    _require_parallel(p, sq)
    if p.normalize(adj_h.r) != p.normalize(sq.h) or \
       p.normalize(adj_g.r) != p.normalize(sq.g):
        raise ShapeError("adjunction records do not match the square's sides")
    hL, gL = adj_h.l, adj_g.l
    step1 = comp(0, adj_h.eta, Id(comp(0, sq.k, gL)))
    step2 = comp(0, Id(hL), sq.alpha, Id(gL))
    step3 = comp(0, Id(comp(0, hL, sq.f)), adj_g.eps)
    return p.normalize(comp(1, step1, step2, step3))


def rmate_square(sq: Square, adj_f: AdjunctionRecord,
                 adj_k: AdjunctionRecord) -> Square:
    """The right mate presented again as a square, ready for re-rotation:
    top g, left f_R, bottom h, right k_R."""
    m = right_mate(sq, adj_f, adj_k)
    return Square(f=sq.g, g=adj_k.r, h=adj_f.r, k=sq.h, alpha=m)


def double_mate(sq: Square, adj_f: AdjunctionRecord,
                adj_k: AdjunctionRecord) -> CellTerm:
    """(alpha^rmate)^lmate, which the zigzag rules bring back to alpha."""
    rot = rmate_square(sq, adj_f, adj_k)
    # vertical edges of the rotated square are f_R and k_R, whose left
    # adjoints are witnessed by the same records
    return left_mate(rot, adj_f, adj_k)


# ---------------------------------------------------------------------------
# the walking adjunctible retract


@dataclass(frozen=True)
class RetractRecord:
    presentation: Presentation
    f: CellTerm
    g: CellTerm
    alpha: CellTerm            # invertible, id => (f then g)
    adj_f: AdjunctionRecord    # f -| f_R
    adj_g: AdjunctionRecord    # g_L -| g
    section_l: CellTerm        # (g . ev_f)^L : g => (f_R then f then g)
    retraction_r: CellTerm     # (ev_g . f)^R : f => (f then g then g_L)
    counit3: CellTerm          # 3-cell  (Q then P) -> id  for P = section_l
    unit3: CellTerm            # 3-cell  id -> (Q' then R) for R = retraction_r

    def basepoint_id(self) -> CellTerm:
        # the identity on a normal cell is normal
        return Id(self.presentation.boundary(self.f, "source", 0))


def walking_retract() -> RetractRecord:
    """The built-in adjunctible-retract presentation: a section-retraction
    pair with an invertible filler, both one-sided adjoints, and named
    adjoints for the two whiskered counits together with their unit/counit
    3-cells (zigzags recorded as relations)."""
    p = Presentation(max_dim=3)
    one = p.add("one", 0)
    X = p.add("X", 0)
    f = p.add("f", 1, one, X)
    g = p.add("g", 1, X, one)
    alpha = p.add("alpha", 2, Id(one), comp(0, f, g), invertible=True)
    fR = p.add("fR", 1, X, one)
    eps_f = p.add("eps_f", 2, comp(0, fR, f), Id(X))
    eta_f = p.add("eta_f", 2, Id(one), comp(0, f, fR))
    gL = p.add("gL", 1, one, X)
    eps_g = p.add("eps_g", 2, comp(0, g, gL), Id(X))
    eta_g = p.add("eta_g", 2, Id(one), comp(0, gL, g))

    W = comp(0, fR, f, g)          # domain of g.ev_f
    V = comp(0, f, g, gL)          # domain of ev_g.f
    P = p.add("secL", 2, g, W)     # (g . ev_f)^L
    R = p.add("retR", 2, f, V)     # (ev_g . f)^R
    Q = comp(0, eps_f, Id(g))      # g . ev_f : W => g
    Q2 = comp(0, Id(f), eps_g)     # ev_g . f : V => f

    uP = p.add("unit_secL", 3, Id(g), comp(1, P, Q))
    cP = p.add("counit_secL", 3, comp(1, Q, P), Id(W))
    uR = p.add("unit_retR", 3, Id(V), comp(1, Q2, R))
    cR = p.add("counit_retR", 3, comp(1, R, Q2), Id(f))

    # oriented snake rules for the 1-adjunctions
    p.relate(2, comp(1, comp(0, Id(fR), eta_f), comp(0, eps_f, Id(fR))),
             Id(fR), oriented=True)
    p.relate(2, comp(1, comp(0, eta_f, Id(f)), comp(0, Id(f), eps_f)),
             Id(f), oriented=True)
    p.relate(2, comp(1, comp(0, Id(g), eta_g), comp(0, eps_g, Id(g))),
             Id(g), oriented=True)
    p.relate(2, comp(1, comp(0, eta_g, Id(gL)), comp(0, Id(gL), eps_g)),
             Id(gL), oriented=True)
    # zigzags of the 2-adjunctions, recorded one level up as oriented
    # snake-removal rules for the bounded dimension-3 search
    p.relate(3, comp(2, comp(1, Id(Q), uP), comp(1, cP, Id(Q))), Id(Q),
             oriented=True)
    p.relate(3, comp(2, comp(1, uP, Id(P)), comp(1, Id(P), cP)), Id(P),
             oriented=True)
    p.relate(3, comp(2, comp(1, Id(R), uR), comp(1, cR, Id(R))), Id(R),
             oriented=True)
    p.relate(3, comp(2, comp(1, uR, Id(Q2)), comp(1, Id(Q2), cR)), Id(Q2),
             oriented=True)
    # the two rotations of the inverted filler agree (adjoints of mates);
    # encoded as a rule so the pasting's corner cell is single-valued
    sharp_P = comp(1, eta_g,
                   comp(0, Id(gL), comp(1, P, comp(0, Id(fR), Inv(alpha)))))
    sharp_R = comp(1, eta_f,
                   comp(0, comp(1, R, comp(0, Inv(alpha), Id(gL))), Id(fR)))
    p.relate(2, sharp_P, sharp_R, oriented=True)

    adj_f = AdjunctionRecord(p, f, fR, eps_f, eta_f)
    adj_g = AdjunctionRecord(p, gL, g, eps_g, eta_g)
    return RetractRecord(p, f, g, alpha, adj_f, adj_g, P, R,
                         counit3=cP, unit3=uR)


def trivial_retract() -> RetractRecord:
    """f = g = identity, alpha trivial: everything collapses."""
    p = Presentation(max_dim=3)
    pt = p.add("one", 0)
    i = Id(pt)
    triv = AdjunctionRecord.trivial(p, pt)
    return RetractRecord(p, i, i, Id(i), triv, triv, Id(i), Id(i),
                         counit3=Id(Id(i)), unit3=Id(Id(i)))


# ---------------------------------------------------------------------------
# the Hopf square and its structure cells


@dataclass(frozen=True)
class HopfSquare:
    record: RetractRecord
    H: CellTerm
    mult: CellTerm
    unit: CellTerm
    counit: CellTerm
    comult: CellTerm
    alpha_rmate: CellTerm
    alpha_lmate: CellTerm
    alpha_sharp: CellTerm
    checks: Dict[str, str]


def hopf_square_terms(rec: RetractRecord,
                      budget: Optional[int] = None) -> HopfSquare:
    """The 3x3 pasting of the four mates of alpha, with the algebra cells
    from the section adjunction and the coalgebra cells from the
    retraction adjunction.  Agreements are verified with eq(), and a
    boundary, built normal, with boundaries_eq; Unknown is reported as
    unverified, never treated as failure."""
    p = rec.presentation
    f, g, alpha = rec.f, rec.g, rec.alpha
    fR, gL = rec.adj_f.r, rec.adj_g.l
    eps_f, eta_f = rec.adj_f.eps, rec.adj_f.eta
    eps_g, eta_g = rec.adj_g.eps, rec.adj_g.eta
    P, R = rec.section_l, rec.retraction_r
    Q = p.normalize(comp(0, eps_f, Id(g)))
    Q2 = p.normalize(comp(0, Id(f), eps_g))

    alpha_rmate = p.normalize(
        comp(1, comp(0, Id(fR), alpha), comp(0, eps_f, Id(g))))
    alpha_lmate = p.normalize(
        comp(1, comp(0, alpha, Id(gL)), comp(0, Id(f), eps_g)))
    psi = comp(1, P, comp(0, Id(fR), Inv(alpha)))       # (alpha_rmate)^L
    alpha_sharp = p.normalize(comp(1, eta_g, comp(0, Id(gL), psi)))

    H = p.normalize(comp(1, alpha_sharp,
                         comp(0, alpha_lmate, alpha_rmate), Inv(alpha)))

    gammaL = p.normalize(comp(1, alpha, comp(0, Id(f), P)))
    gamma = p.normalize(comp(1, comp(0, Id(f), Q), Inv(alpha)))
    deltaR = p.normalize(comp(1, alpha, comp(0, R, Id(g))))
    delta = p.normalize(comp(1, comp(0, Q2, Id(g)), Inv(alpha)))

    mult = comp(1, Id(gammaL), comp(0, Id(Id(f)), rec.counit3), Id(gamma))
    mu = comp(1, alpha, comp(0, eta_f, Id(comp(0, f, g))))
    counit = comp(1, Id(mu), comp(0, Id(Id(f)), rec.counit3), Id(gamma))
    comult = comp(1, Id(deltaR), comp(0, rec.unit3, Id(Id(g))), Id(delta))
    nu = comp(1, alpha, comp(0, Id(comp(0, f, g)), eta_g))
    unit = comp(1, Id(nu), comp(0, rec.unit3, Id(Id(g))), Id(delta))

    checks: Dict[str, str] = {}

    def note(name: str, verdict) -> None:
        checks[name] = verdict.name
        if verdict is EQ_DISTINCT:
            raise ShapeError(f"structure cell check {name!r} failed outright")

    def boundary_is(cell: CellTerm, side: str, k: int,
                    expected: CellTerm) -> Verdict:
        x = p.boundary(cell, side, k)
        try:
            y, d = normal_dim(expected, p.gens)
        except TermError:
            return EQ_UNKNOWN
        return boundaries_eq(x, k, y, d, p, budget)

    base = rec.basepoint_id()
    note("H_src1", boundary_is(H, "source", 1, base))
    note("H_tgt1", boundary_is(H, "target", 1, base))
    note("H_eq_algebra_form", eq(H, comp(1, gammaL, gamma), p, budget))
    note("H_eq_coalgebra_form", eq(H, comp(1, deltaR, delta), p, budget))
    HH = comp(1, H, H)
    for name, cell, src, tgt in (
            ("mult", mult, HH, H), ("counit", counit, H, Id(base)),
            ("comult", comult, H, HH), ("unit", unit, Id(base), H)):
        note(f"{name}_src", boundary_is(cell, "source", 2, src))
        note(f"{name}_tgt", boundary_is(cell, "target", 2, tgt))

    return HopfSquare(rec, H, mult, unit, counit, comult,
                      alpha_rmate, alpha_lmate, alpha_sharp, checks)
