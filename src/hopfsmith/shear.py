"""The universal shear 3-cell, the bialgebra structure cells of the smashed
monad square, and the boundary-checked factorization chain in the tensor
square of the whiskered triangle.

Everything here is built once at the triangle level and transported by
tensor-square morphisms: collapsing the triangle onto the walking monad
gives the shear in the monad square; whiskering it with the two outer
edges gives the chain whose steps are classified for the invertibility
argument.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .gray import GrayMorphism, collapse, gray, pair_name, split_pair
from .presentation import PresMorphism, Presentation
from .rewriting import (EQ_DISTINCT, EQ_EQUAL, boundaries_eq, composable,
                        parallel)
from .terms import (CellTerm, Comp, Gen, Id, Inv, comp, generators,
                    normal_comp)
from .walking import e_oriental2, mnd, oriental2

# ---------------------------------------------------------------------------
# cached tensor squares


@lru_cache(maxsize=None)
def mnd_gray() -> Presentation:
    return gray(mnd().base, mnd().base)


@lru_cache(maxsize=None)
def mnd_smash() -> Tuple[Presentation, PresMorphism]:
    m = mnd()
    return collapse(mnd_gray(), m.basepoint, m.basepoint)


@lru_cache(maxsize=None)
def _whiskered_triangle() -> Presentation:
    return e_oriental2()


@lru_cache(maxsize=None)
def whiskered_gray() -> Presentation:
    e = _whiskered_triangle()
    return gray(e, e)


def _o2_to_mnd() -> PresMorphism:
    o2 = oriental2()
    m = mnd().base
    A = Gen("A")
    asg = {"x0": Gen("pt"), "x1": Gen("pt"), "x2": Gen("pt"),
           "u": A, "v": A, "w": A, "sigma": Gen("m")}
    return PresMorphism(o2, m, asg)


def _o2_to_eo2() -> PresMorphism:
    o2 = oriental2()
    e = _whiskered_triangle()
    asg = {"x0": Gen("q0"), "x1": Gen("q2"), "x2": Gen("q4"),
           "u": comp(0, Gen("u"), Gen("e1")),
           "v": comp(0, Gen("e2"), Gen("v")),
           "w": comp(0, Gen("e2"), Gen("w"), Gen("e1")),
           "sigma": comp(0, Id(Gen("e2")), Gen("sigma"), Id(Gen("e1")))}
    return PresMorphism(o2, e, asg)


# ---------------------------------------------------------------------------
# the shear at the triangle level


def _g(x: str, y: str) -> CellTerm:
    return Gen(pair_name(x, y))


def oriental_shear_term() -> CellTerm:
    """The universal shear as a 3-cell in the tensor square of the triangle:
    pull the second factor's 2-cell northwest across the first factor's
    incoming leg, then pull the first factor's 2-cell southwest across the
    second factor's outgoing leg."""
    lam1 = comp(0, _g("v", "v"), Id(_g("x1", "u")), Id(_g("u", "x0")))
    w1 = comp(1, Id(lam1),
              comp(0, Id(Id(_g("v", "x2"))), _g("u", "sigma")),
              Id(comp(0, _g("sigma", "x2"), Id(_g("x0", "w")))))
    lam_ab = comp(0, Id(_g("x2", "v")), Id(_g("v", "x1")), _g("u", "u"))
    w2 = comp(1, Id(lam_ab),
              comp(0, _g("sigma", "v"), Id(Id(_g("x0", "u")))),
              Id(comp(0, Id(_g("w", "x2")), _g("x0", "sigma"))))
    return Comp(2, w1, w2)


@lru_cache(maxsize=None)
def universal_shear() -> CellTerm:
    """The universal shear as a 3-cell of the monad tensor square: the
    triangle's shear pushed along the triangle-to-monad morphism."""
    to_mnd = _o2_to_mnd()
    return GrayMorphism(to_mnd, to_mnd, mnd_gray()).push(
        oriental_shear_term())


def bimnd_cells() -> Dict[str, CellTerm]:
    """The five structure cells of the smashed monad square, as terms over
    the collapsed presentation: crossing, multiplication and unit 3-cells
    (second factor's wire), comultiplication and counit (first factor's)."""
    return {
        "underlying": _g("A", "A"),
        "mult": _g("m", "A"),
        "unit": _g("u", "A"),
        "comult": _g("A", "m"),
        "counit": _g("A", "u"),
    }


# ---------------------------------------------------------------------------
# the factorization chain in the whiskered tensor square


L_TYPE = "L"
R_TYPE = "R"
FOUR_CELL = "4-cell"
COLLAPSE_TRIVIAL = "collapse-trivial"

# under the functor onto the walking adjunction these factor cells collapse
_TRIVIAL_FACTORS = {"w"}


def classify_pair(name: str) -> str:
    """The kind of a generator of the whiskered tensor square, from the
    dimensions of its two factors."""
    x, y = split_pair(name)
    gens = _whiskered_triangle().gens
    dx, dy = gens[x].dim, gens[y].dim
    if x in _TRIVIAL_FACTORS or y in _TRIVIAL_FACTORS:
        return COLLAPSE_TRIVIAL
    if (dx, dy) == (2, 2):
        return FOUR_CELL
    if (dx, dy) == (2, 1):
        return L_TYPE
    if (dx, dy) == (1, 2):
        return R_TYPE
    return "whisker"


def _top_atom(t: CellTerm) -> Optional[str]:
    """The unique top-dimensional generator in a move term over the
    whiskered tensor square, if any."""
    gens = _whiskered_triangle().gens
    pairs = [n for n in generators(t)
             if sum(gens[x].dim for x in split_pair(n)) >= 3]
    return pairs[0] if pairs else None


@dataclass(frozen=True)
class ChainStep:
    label: str
    term: CellTerm
    classification: str
    composable: Optional[bool] = None


@dataclass(frozen=True)
class SkeletonReport:
    steps: List[ChainStep]
    chain_composable: bool
    boundary_match: bool
    hexagon_closes: bool
    table: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        return (self.chain_composable and self.boundary_match
                and self.hexagon_closes and not self.failures)


def _split_moves(t: CellTerm, p: Presentation) -> List[CellTerm]:
    """Expand a normal 3-cell into a sequence of single generating moves by
    distributing whiskers over 2-composition.  Subterms and boundaries of
    a normal term are normal, so normal_comp composes each part here."""
    if isinstance(t, Id):
        return []
    if isinstance(t, Comp):
        if t.k == 2:
            return _split_moves(t.left, p) + _split_moves(t.right, p)
        la = _split_moves(t.left, p)
        lb = _split_moves(t.right, p)
        if not la:
            return [normal_comp(t.k, t.left, 3, m, 3) for m in lb]
        if not lb:
            return [normal_comp(t.k, m, 3, t.right, 3) for m in la]
        # sequentialize by interchange: the left part fires first
        first = normal_comp(t.k, t.left, 3,
                            Id(p.boundary(t.right, "source", 2)), 3)
        second = normal_comp(t.k, Id(p.boundary(t.left, "target", 2)), 3,
                             t.right, 3)
        return _split_moves(first, p) + _split_moves(second, p)
    return [t]


def _chain(p: Presentation, t: CellTerm, k: int) -> Counter:
    """The k-chain of a k-cell term with no inverse: its k-generators, with
    multiplicity."""
    return Counter(n for n in generators(t) if p.gens[n].dim == k)


def _steiner_chain22(factor: Presentation, a: str, b: str,
                     side: str) -> Counter:
    """The source or target 3-chain of a⊗b for two 2-generators, by
    Steiner's chain formula for the tensor of augmented directed complexes
    (Steiner, HHA 2004): d(a⊗b) = da⊗b + (-1)^|a| a⊗db, and with |a| = 2
    both terms keep their sign, so the source is d⁻a⊗b + a⊗d⁻b and the
    target the same with d⁺."""
    get = factor.src if side == "source" else factor.tgt
    out: Counter = Counter()
    for x in _chain(factor, get(Gen(a)), 1).elements():
        out[pair_name(x, b)] += 1
    for y in _chain(factor, get(Gen(b)), 1).elements():
        out[pair_name(a, y)] += 1
    return out


def proof_skeleton_check(budget: Optional[int] = None,
                         mutate_step: Optional[int] = None) -> SkeletonReport:
    """Build the image of the shear in the whiskered tensor square, split it
    into its four generating pull moves, check consecutive composability and
    the total 2-boundary, then verify the interchange hexagon whose target
    route passes through the collapse-trivial wires.

    `mutate_step` replaces the given step of the chain by its formal
    inverse, which has its source and target swapped, to exhibit the
    failure mode."""
    eg = whiskered_gray()
    to_e = _o2_to_eo2()
    gm = GrayMorphism(to_e, to_e, eg)
    image = gm.push(oriental_shear_term())  # normal, as push returns it
    # the invertibility argument runs on the chain whiskered below by the
    # crossing of the two adjoint-pattern wires; the crossing's target is
    # exactly the image's boundary word, so the whisker composes on the nose
    beta = eg.normalize(Id(comp(
        0, Id(_g("q4", "e2")), Id(_g("q4", "v")), Id(_g("e2", "q2")),
        _g("v", "u"), Id(_g("q2", "e1")), Id(_g("u", "q0")),
        Id(_g("e1", "q0")))))
    steps_terms = [normal_comp(1, beta, 3, t, 3)
                   for t in _split_moves(image, eg)]

    chain = []  # (label, term, classification) of each step
    for i, t in enumerate(steps_terms):
        atom = _top_atom(t)
        chain.append((f"step{i}", t,
                      classify_pair(atom) if atom else "unknown"))

    if mutate_step is not None and 0 <= mutate_step < len(chain):
        label, t, cls = chain[mutate_step]
        chain[mutate_step] = (label + ":reversed", Inv(t), cls)

    # (i) consecutive composability; the first step has no predecessor
    failures: List[str] = []
    fits = [True]
    for i in range(len(chain) - 1):
        v = composable(2, chain[i][1], chain[i + 1][1], eg, budget)[0]
        fits.append(v is EQ_EQUAL)
        if v is not EQ_EQUAL:
            failures.append(
                f"boundary mismatch between step{i} and step{i + 1} ({v})")
    chain_ok = not failures
    steps = [ChainStep(*step, fit) for step, fit in zip(chain, fits)]

    # (ii) total 2-boundary against the (whiskered) shear image
    whiskered_image = normal_comp(1, beta, 3, image, 3)
    ends = [boundaries_eq(eg.boundary(s.term, side, 2), 2,
                          eg.boundary(whiskered_image, side, 2), 2, eg,
                          budget) is EQ_EQUAL
            for s, side in ((steps[0], "source"), (steps[-1], "target"))]
    boundary_match = all(ends) and chain_ok
    if not all(ends):
        failures.append("total 2-boundary differs from the shear image")

    # (iii) the hexagon: pulls in both orders around the interchange 4-cell.
    # Each route must carry the 3-chain Steiner's formula gives, and the
    # two routes must be parallel.
    hex_cell = _g("sigma", "sigma")
    hex_src, hex_tgt = eg.src(hex_cell), eg.tgt(hex_cell)
    hex_ok = True
    for what, route, side in (("hexagon source mismatch", hex_src, "source"),
                              ("hexagon target mismatch", hex_tgt, "target")):
        if _chain(eg, route, 3) != _steiner_chain22(
                _whiskered_triangle(), "sigma", "sigma", side):
            hex_ok = False
            failures.append(f"{what} at level 3")
    v, lvl = parallel(hex_src, hex_tgt, eg, budget)
    if v is EQ_DISTINCT:
        hex_ok = False
        failures.append(f"hexagon routes differ at level {lvl}")

    steps.append(ChainStep("hexagon", hex_cell, FOUR_CELL))
    sigma, w = Gen("sigma"), Gen("w")
    for mv, label in ((gm.tt.tensor(sigma, 2, w, 1), "slide-across-w2"),
                      (gm.tt.tensor(w, 1, sigma, 2), "slide-across-w1")):
        atom = _top_atom(mv)
        steps.append(ChainStep(label, mv, classify_pair(atom)))

    table: Dict[str, int] = {}
    for s in steps:
        table[s.classification] = table.get(s.classification, 0) + 1

    return SkeletonReport(steps, chain_ok, boundary_match, hex_ok, table,
                          failures)

