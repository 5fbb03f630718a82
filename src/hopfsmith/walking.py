"""Built-in walking structures: globes, suspension, the walking monad and
adjunction, and the two triangle 2-categories used by the invertibility
argument.

Orientation conventions (fixed once, used everywhere):

  * composites are written in diagram order; ``comp(0, f, g)`` is
    "f then g";
  * an adjunction l -| r with l: a -> b, r: b -> a has
      eps: comp(0, r, l) => id_b     (counit, at the target of l)
      eta: id_a => comp(0, l, r)     (unit, at the source of l)
    so that both zigzags reduce to identities and the induced monad
    comp(0, l, r) lives at a, the source of the left adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation
from .terms import MAX_DIM, Gen, Id, comp, substitute


@dataclass(frozen=True)
class PointedPresentation:
    base: Presentation
    basepoint: str

    def __post_init__(self):
        g = self.base.gens.get(self.basepoint)
        if g is None or g.dim != 0:
            raise ValueError(f"basepoint {self.basepoint!r} is not a 0-generator")


def point() -> Presentation:
    p = Presentation(max_dim=0)
    p.add("pt", 0)
    return p


def empty() -> Presentation:
    return Presentation(max_dim=0)


def globe(n: int) -> Presentation:
    """The walking n-cell: two generators in each dimension below n and a
    single top generator."""
    if not 0 <= n <= 4:
        raise ValueError(f"globe dimension {n} out of range 0..4")
    p = Presentation(max_dim=n)
    if n == 0:
        p.add("c0", 0)
        return p
    prev_s, prev_t = p.add("s0", 0), p.add("t0", 0)
    for d in range(1, n):
        prev_s, prev_t = (p.add(f"s{d}", d, prev_s, prev_t),
                          p.add(f"t{d}", d, prev_s, prev_t))
    p.add(f"c{n}", n, prev_s, prev_t)
    return p


def boundary_globe(n: int) -> Presentation:
    """Two parallel (n-1)-cells: the walking n-cell minus its top generator."""
    if not 1 <= n <= 4:
        raise ValueError(f"boundary globe dimension {n} out of range 1..4")
    p = Presentation(max_dim=n - 1)
    prev_s, prev_t = p.add("s0", 0), p.add("t0", 0)
    for d in range(1, n):
        prev_s, prev_t = (p.add(f"s{d}", d, prev_s, prev_t),
                          p.add(f"t{d}", d, prev_s, prev_t))
    return p


# the prefix of a suspended generator's name
SUSPENDED = "S."


def suspend(p: Presentation) -> Presentation:
    """Categorical suspension of a presentation: two fresh objects 0 and 1,
    every k-generator shifted to a (k+1)-generator between them and named
    with SUSPENDED before its name, relations shifted along."""
    if p.max_dim >= MAX_DIM:
        raise ValueError(f"suspension would exceed the dimension cap {MAX_DIM}")
    out = Presentation(max_dim=p.max_dim + 1)
    lo = out.add("0", 0)
    hi = out.add("1", 0)

    def rename(name):
        return Gen(SUSPENDED + name)

    for g in p.gens.values():
        src = substitute(g.src, rename, 1) if g.dim > 0 else lo
        tgt = substitute(g.tgt, rename, 1) if g.dim > 0 else hi
        out.add(SUSPENDED + g.name, g.dim + 1, src, tgt, g.invertible)
    for r in p.relations:
        out.relate(r.dim + 1, substitute(r.lhs, rename, 1),
                   substitute(r.rhs, rename, 1), r.oriented)
    return out


def mnd() -> PointedPresentation:
    """The walking monad: one object, an endo-1-cell A, multiplication
    m: A.A => A and unit u: id => A, subject to associativity and both
    unit laws (oriented: associate to the left comb, erase units)."""
    p = Presentation(max_dim=2)
    pt = p.add("pt", 0)
    A = p.add("A", 1, pt, pt)
    AA = comp(0, A, A)
    m = p.add("m", 2, AA, A)
    u = p.add("u", 2, Id(pt), A)
    # associativity, oriented toward the left comb
    right_comb = comp(1, comp(0, Id(A), m), m)
    left_comb = comp(1, comp(0, m, Id(A)), m)
    p.relate(2, right_comb, left_comb, oriented=True)
    # unit laws, oriented toward erasure
    p.relate(2, comp(1, comp(0, u, Id(A)), m), Id(A), oriented=True)
    p.relate(2, comp(1, comp(0, Id(A), u), m), Id(A), oriented=True)
    return PointedPresentation(p, "pt")


def adj() -> PointedPresentation:
    """The walking adjunction l -| r, pointed at the source of l.  The two
    zigzag composites are oriented snake-removal rules."""
    p = Presentation(max_dim=2)
    a = p.add("a", 0)
    b = p.add("b", 0)
    l = p.add("l", 1, a, b)
    r = p.add("r", 1, b, a)
    eps = p.add("eps", 2, comp(0, r, l), Id(b))
    eta = p.add("eta", 2, Id(a), comp(0, l, r))
    # (r . eta) then (eps . r)  :  r => r
    snake_r = comp(1, comp(0, Id(r), eta), comp(0, eps, Id(r)))
    p.relate(2, snake_r, Id(r), oriented=True)
    # (eta . l) then (l . eps)  :  l => l
    snake_l = comp(1, comp(0, eta, Id(l)), comp(0, Id(l), eps))
    p.relate(2, snake_l, Id(l), oriented=True)
    return PointedPresentation(p, "a")


def oriental2() -> Presentation:
    """The free 2-category on a triangle: objects x0, x1, x2, arrows
    u: x1 -> x0, v: x2 -> x1, w: x2 -> x0, and a 2-cell filling
    (v then u) => w."""
    p = Presentation(max_dim=2)
    x0 = p.add("x0", 0)
    x1 = p.add("x1", 0)
    x2 = p.add("x2", 0)
    u = p.add("u", 1, x1, x0)
    v = p.add("v", 1, x2, x1)
    w = p.add("w", 1, x2, x0)
    p.add("sigma", 2, comp(0, v, u), w)
    return p


def e_oriental2() -> Presentation:
    """The triangle whiskered by two outer edges: e1 after the triangle and
    e2 before it, matching the pattern used when mapping onto the walking
    adjunction (u |-> l, v |-> r, w |-> identity, e1 |-> r, e2 |-> l)."""
    p = Presentation(max_dim=2)
    q0 = p.add("q0", 0)
    q1 = p.add("q1", 0)
    q2 = p.add("q2", 0)
    q3 = p.add("q3", 0)
    q4 = p.add("q4", 0)
    p.add("e1", 1, q1, q0)
    u = p.add("u", 1, q2, q1)
    v = p.add("v", 1, q3, q2)
    w = p.add("w", 1, q3, q1)
    p.add("e2", 1, q4, q3)
    p.add("sigma", 2, comp(0, v, u), w)
    return p
