"""Desk-scale Tannakian reconstruction: the coend bialgebra of a finite
generating family of comodules, the canonical comparison map into a
reference bialgebra, and the regular-comodule round trip.

The coend is the span of matrix coefficients xi (x) v over the family,
modulo naturality in every basis intertwiner.  Multiplication re-expresses
tensor products of members through explicit resolutions of identity by
family members, which is where tensor closure enters; comultiplication
splits matrix coefficients; the counit evaluates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .bialgebra import (Bialgebra, check_bialgebra, is_cohopf, is_hopf,
                        shear)
from .comodule import (Comodule, ComoduleError, comodule_hom,
                       regular_comodule, tensor_comodule)
from .field import FieldError
from .matrix import Matrix
from .record import Record


# the largest resolution system solved, in unknowns times entries of id_P
MAX_RESOLUTION_CELLS = 4096 * 64


class ClosureError(ComoduleError):
    """A tensor product of members is not expressible inside the family."""


class Resolution(Record):
    """id_P = sum iota_s . pi_s with both legs comodule maps into members."""
    __slots__ = ("member_indices", "iotas", "pis")


class GeneratingFamily(Record, derived=("hom_cache",)):
    # hom_cache: intertwiner bases by member pair, made on first use
    __slots__ = ("members", "hom_cache")

    def __init__(self, members: List[Comodule]):
        if not members:
            raise ComoduleError("empty generating family")
        for i, M in enumerate(members):
            bad = M.check()
            if bad:
                raise ComoduleError(f"member {i} fails {bad}")
        Record.__init__(self, members, {})

    @property
    def bialgebra(self) -> Bialgebra:
        return self.members[0].bialgebra

    def hom(self, i: int, j: int) -> List[Matrix]:
        if (i, j) not in self.hom_cache:
            self.hom_cache[(i, j)] = comodule_hom(self.members[i],
                                                  self.members[j])
        return self.hom_cache[(i, j)]


def resolve(family: GeneratingFamily, P: Comodule) -> Resolution:
    """Express id_P through family members.  When the family has a regular
    member and P has its dimension squared, the inverse shear may give the
    isomorphism from a sum of regulars directly (for a product of two
    regular comodules of a Hopf algebra it intertwines the codiagonal
    coaction with coaction on the first factor); the intertwining is
    verified before use.  Otherwise the general two-sided hom system is
    solved."""
    return _resolve_via_shear(family, P) or _resolve_general(family, P)


def _is_regular(B: Bialgebra, M: Comodule) -> bool:
    return M.d == B.n and M.rho == B.delta


def _resolve_via_shear(family: GeneratingFamily,
                       P: Comodule) -> Optional[Resolution]:
    B = family.bialgebra
    F, n = B.field, B.n
    reg_index = next((k for k, M in enumerate(family.members)
                      if _is_regular(B, M)), None)
    if reg_index is None or P.d != n * n:
        return None
    phi = shear(B, "NW")  # (m (x) id)(id (x) delta): codiagonal -> first-only
    try:
        inv = phi.inverse()
    except FieldError:
        return None
    # verify the intertwining identity before trusting it
    if B.delta.whisker_matmul(1, n, phi) != phi.whisker_matmul(n, 1, P.rho):
        return None
    iotas, pis = [], []
    for s in range(n):
        # column embedding v |-> v (x) e_s
        emb = Matrix.from_entries(F, n * n, n,
                                  [(c * n + s, c, F.one) for c in range(n)])
        proj = emb.transpose()
        iotas.append(inv @ emb)
        pis.append(proj @ phi)
    return Resolution([reg_index] * n, iotas, pis)


def _resolve_general(family: GeneratingFamily, P: Comodule) -> Resolution:
    B = family.bialgebra
    F = B.field
    into = [comodule_hom(family.members[k], P)
            for k in range(len(family.members))]
    onto = [comodule_hom(P, family.members[k])
            for k in range(len(family.members))]
    unknowns = sum(len(into[k]) * len(onto[k])
                   for k in range(len(family.members)))
    if unknowns == 0:
        raise ClosureError("no intertwiners between the product and the family")
    if unknowns * P.d * P.d > MAX_RESOLUTION_CELLS:
        raise ClosureError("resolution system too large")
    # unknown (k, a, b) is the coefficient of into[k][a] @ onto[k][b], whose
    # entry (i, j) is equation i*P.d + j of id_P
    eqs, meta = [], []
    for k in range(len(family.members)):
        for a, iota in enumerate(into[k]):
            for b, pi in enumerate(onto[k]):
                col = len(meta)
                eqs += [(i * P.d + j, col, x)
                        for i, j, x in (iota @ pi).entries()]
                meta.append((k, a, b))
    rows = P.d * P.d
    target = Matrix.from_entries(F, rows, 1, [(i * P.d + i, 0, F.one)
                                              for i in range(P.d)])
    sol = Matrix.from_entries(F, rows, len(meta), eqs).solve(target)
    if sol is None:
        raise ClosureError("identity of the product does not factor "
                           "through the family")
    iotas, pis, idxs = [], [], []
    grouped: Dict[Tuple[int, int], Matrix] = {}
    for col, _, c in sol.entries():
        k, a, b = meta[col]
        key = (k, a)
        scaled = onto[k][b].scale(c)
        grouped[key] = grouped.get(key, Matrix.zero(
            F, family.members[k].d, P.d)) + scaled
    for (k, a), pi in grouped.items():
        iotas.append(into[k][a])
        pis.append(pi)
        idxs.append(k)
    return Resolution(idxs, iotas, pis)


# ---------------------------------------------------------------------------
# the coend


class ReconstructionResult(Record):
    # verdict: "isomorphism" | "not-isomorphism" | "no-reference"
    __slots__ = ("bialgebra", "canonical", "verdict", "details")


def _block_offsets(family: GeneratingFamily) -> List[int]:
    out = [0]
    for M in family.members:
        out.append(out[-1] + M.d * M.d)
    return out


def _relations(family: GeneratingFamily, offs: List[int]) -> Matrix:
    """The naturality span, one row for every basis intertwiner phi and
    pair (a, b): precompose-by-phi minus postcompose-by-phi."""
    F = family.bialgebra.field
    eqs = []
    row = 0
    for i, Mi in enumerate(family.members):
        di = Mi.d
        for j, Mj in enumerate(family.members):
            dj = Mj.d
            for phi in family.hom(i, j):
                # xi = e^a of Mj*, v = e_b of Mi: row + a*di + b
                for a, c, x in phi.entries():
                    eqs += [(row + a * di + b, offs[i] + c * di + b, x)
                            for b in range(di)]
                for c, b, x in phi.entries():
                    x = F.neg(x)
                    eqs += [(row + a * di + b, offs[j] + a * dj + c, x)
                            for a in range(dj)]
                row += dj * di
    return Matrix.from_entries(F, row, offs[-1], eqs)


def coend_reconstruct(family: GeneratingFamily,
                      reference: Optional[Bialgebra] = None
                      ) -> ReconstructionResult:
    B = family.bialgebra
    F, n = B.field, B.n
    members = family.members
    offs = _block_offsets(family)
    # the member and coefficient (a, b) of each ambient coordinate
    where = [(i, *divmod(f, M.d)) for i, M in enumerate(members)
             for f in range(M.d * M.d)]

    R, pivots = _relations(family, offs).rref()
    taken = set(pivots)
    # class k is the ambient basis vector nonpivot[k]
    nonpivot = [c for c in range(offs[-1]) if c not in taken]
    klass = {c: k for k, c in enumerate(nonpivot)}
    dim = len(nonpivot)

    # classes[f] lists the (k, x) of the class of ambient coordinate f: a
    # non-pivot coordinate is its own class, and the reduced relation of a
    # pivot coordinate rewrites it as minus its row on the non-pivot ones
    classes = [[] for _ in range(offs[-1])]
    for c, k in klass.items():
        classes[c].append((k, F.one))
    for r, c, x in R.entries():
        if c in klass:
            classes[pivots[r]].append((klass[c], F.neg(x)))
    # the class of an ambient vector v is v @ quotient, taken one member's
    # block of coordinates at a time
    quotient = [Matrix.from_entries(F, M.d * M.d, dim,
                                    [(f - offs[i], k, x)
                                     for f in range(offs[i], offs[i + 1])
                                     for k, x in classes[f]])
                for i, M in enumerate(members)]

    # comultiplication and counit on ambient coordinates:
    # delta [e^a (x) e_b] = sum_k [e^k (x) e_b] (x) [e^a (x) e_k], the leg
    # order that the canonical comparison map is a coalgebra morphism for
    split, counit = [], []
    for col, flat in enumerate(nonpivot):
        i, a, b = where[flat]
        o, di = offs[i], members[i].d
        split += [(x * dim + y, col, F.mul(l, r)) for k in range(di)
                  for x, l in classes[o + k * di + b]
                  for y, r in classes[o + a * di + k]]
        if a == b:
            counit.append((0, col, F.one))
    delta = Matrix.from_entries(F, dim * dim, dim, split)
    eps = Matrix.from_entries(F, 1, dim, counit)

    # multiplication through resolutions of pairwise products
    def express(P: Comodule, res: Resolution):
        """Entries (t * P.d + s, k, x) whose sums at each position give the
        class of e^t (x) e_s in P*, P: one term of the resolution at a
        time, the class of (e^t . iota) (x) (pi . e_s) in the member."""
        for idx, iota, pi in zip(res.member_indices, res.iotas, res.pis):
            # (iota (x) pi^T) @ quotient, one tensor factor at a time
            half = pi.transpose().whisker_matmul(iota.cols, 1, quotient[idx])
            yield from iota.whisker_matmul(1, pi.cols, half).entries()

    # column colx * dim + coly of m is the class of the product of the
    # section vectors nonpivot[colx] and nonpivot[coly]
    products = []
    for i, Mi in enumerate(members):
        di = Mi.d
        for j, Mj in enumerate(members):
            dj = Mj.d
            P = tensor_comodule(Mi, Mj)
            # distinct rows t land on distinct columns, so from_entries
            # sums the terms of each entry of express and nothing else
            for t, k, x in express(P, resolve(family, P)):
                # row t is e^(a, c) (x) e_(b, e) in P = Mi (x) Mj
                ac, be = divmod(t, di * dj)
                (a, c), (b, e) = divmod(ac, dj), divmod(be, dj)
                colx = klass.get(offs[i] + a * di + b)
                coly = klass.get(offs[j] + c * dj + e)
                if colx is not None and coly is not None:
                    products.append((k, colx * dim + coly, x))
    mult = Matrix.from_entries(F, dim, dim * dim, products)

    # the unit is the unique two-sided unit of the constructed
    # multiplication (the trivial comodule need not split off any member,
    # so it cannot in general be resolved through the family)
    unit = _solve_unit(F, dim, mult)
    if unit is None:
        raise ClosureError("constructed multiplication has no unit; "
                           "the family is not tensor-closed enough")

    C = Bialgebra(F, dim, m=mult, u=unit, delta=delta, eps=eps)

    details = [f"coend dimension {dim}"]
    bad = [r.name for r in check_bialgebra(C) if not r.holds]
    if bad:
        details.append(f"reconstructed axioms failing: {bad}")

    if reference is None:
        return ReconstructionResult(C, None, "no-reference", details)

    # canonical map (xi (x) v) |-> (id (x) xi)(rho v)
    coefficients = []
    for i, Mi in enumerate(members):
        for r, b, x in Mi.rho.entries():
            h, a = divmod(r, Mi.d)
            col = klass.get(offs[i] + a * Mi.d + b)
            if col is not None:
                coefficients.append((h, col, x))
    canonical = Matrix.from_entries(F, n, dim, coefficients)

    invertible = canonical.is_invertible()
    ok = invertible and not bad
    # (c (x) c) @ x as (c (x) I)(I (x) c) @ x; m (c (x) c) through its
    # transpose (c^T (x) c^T) m^T
    c_t = canonical.transpose()
    checks = [
        ("mult", c_t.whisker_matmul(1, dim, c_t.whisker_matmul(
            n, 1, reference.m.transpose())) == (canonical @ C.m).transpose()),
        ("unit", reference.u == canonical @ C.u),
        ("comult", reference.delta @ canonical == canonical.whisker_matmul(
            1, n, canonical.whisker_matmul(dim, 1, C.delta))),
        ("counit", reference.eps @ canonical == C.eps),
    ]
    for name, good in checks:
        if not good:
            ok = False
            details.append(f"canonical map fails {name}")
    if not invertible:
        details.append("canonical map is singular")
    return ReconstructionResult(C, canonical,
                                "isomorphism" if ok else "not-isomorphism",
                                details)


def _solve_unit(F, dim: int, mult: Matrix) -> Optional[Matrix]:
    """The element u with m(u (x) x) = x = m(x (x) u), solved exactly.
    Entry (r, c) of m(u (x) -) is equation 2*(r*dim + c), and of
    m(- (x) u) equation 2*(r*dim + c) + 1."""
    eqs = []
    for r, col, x in mult.entries():
        p, q = divmod(col, dim)
        eqs.append((2 * (r * dim + q), p, x))
        eqs.append((2 * (r * dim + p) + 1, q, x))
    rhs = [(2 * r * (dim + 1) + side, 0, F.one) for r in range(dim)
           for side in (0, 1)]
    return Matrix.from_entries(F, 2 * dim * dim, dim, eqs).solve(
        Matrix.from_entries(F, 2 * dim * dim, 1, rhs))


class RoundTrip(Record):
    __slots__ = ("verdict", "reconstruction", "reference_hopf",
                 "reconstruction_hopf", "reference_cohopf",
                 "reconstruction_cohopf", "details")

    def flags_agree(self) -> bool:
        return (self.reference_hopf == self.reconstruction_hopf
                and self.reference_cohopf == self.reconstruction_cohopf)


def round_trip(H: Bialgebra) -> RoundTrip:
    """Reconstruct from the regular comodule and compare canonically."""
    bad = [r.name for r in check_bialgebra(H) if not r.holds]
    if bad:
        raise ComoduleError(f"reference fails axioms: {bad}")
    family = GeneratingFamily([regular_comodule(H)])
    res = coend_reconstruct(family, reference=H)
    return RoundTrip(res.verdict, res.bialgebra,
                     is_hopf(H), is_hopf(res.bialgebra),
                     is_cohopf(H), is_cohopf(res.bialgebra),
                     res.details)
