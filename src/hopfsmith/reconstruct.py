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

from dataclasses import dataclass, field as dfield
from typing import Dict, List, Optional, Tuple

from .bialgebra import (Bialgebra, check_bialgebra, is_cohopf, is_hopf,
                        shear)
from .comodule import (Comodule, ComoduleError, comodule_hom,
                       regular_comodule, tensor_comodule)
from .matrix import Matrix


class ClosureError(ComoduleError):
    """A tensor product of members is not expressible inside the family."""


@dataclass
class Resolution:
    """id_P = sum iota_s . pi_s with both legs comodule maps into members."""
    member_indices: List[int]
    iotas: List[Matrix]
    pis: List[Matrix]


@dataclass
class GeneratingFamily:
    members: List[Comodule]
    depth: int = 2
    hom_cache: Dict[Tuple[int, int], List[Matrix]] = dfield(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ComoduleError("empty generating family")
        for i, M in enumerate(self.members):
            bad = M.check()
            if bad:
                raise ComoduleError(f"member {i} fails {bad}")

    @property
    def bialgebra(self) -> Bialgebra:
        return self.members[0].bialgebra

    def hom(self, i: int, j: int) -> List[Matrix]:
        if (i, j) not in self.hom_cache:
            self.hom_cache[(i, j)] = comodule_hom(self.members[i],
                                                  self.members[j])
        return self.hom_cache[(i, j)]


def resolve(family: GeneratingFamily, P: Comodule,
            factors: Optional[Tuple[int, int]] = None,
            size_guard: int = 4096) -> Resolution:
    """Express id_P through family members.  When P is a product of two
    regular comodules of a Hopf algebra, the inverse shear gives the
    isomorphism from a sum of regulars directly (it intertwines the
    codiagonal coaction with coaction on the first factor); the identity
    is verified before use.  Otherwise the general two-sided hom system
    is solved."""
    if factors is not None:
        fast = _resolve_via_shear(family, P, factors)
        if fast is not None:
            return fast
    return _resolve_general(family, P, size_guard)


def _is_regular(B: Bialgebra, M: Comodule) -> bool:
    return M.d == B.n and M.rho == B.delta


def _resolve_via_shear(family: GeneratingFamily, P: Comodule,
                       factors: Tuple[int, int]) -> Optional[Resolution]:
    B = family.bialgebra
    F, n = B.field, B.n
    i, j = factors
    if not (_is_regular(B, family.members[i])
            and _is_regular(B, family.members[j])):
        return None
    reg_index = i
    phi = shear(B, "NW")  # (m (x) id)(id (x) delta): codiagonal -> first-only
    if not phi.is_invertible():
        return None
    # verify the intertwining identity before trusting it
    rho_first = B.delta.whisker(1, n)
    if rho_first @ phi != phi.whisker(n, 1) @ P.rho:
        return None
    inv = phi.inverse()
    iotas, pis = [], []
    for s in range(n):
        # column embedding v |-> v (x) e_s
        emb = Matrix(F, n * n, n,
                     [F.one if r == c * n + s else F.zero
                      for r in range(n * n) for c in range(n)])
        proj = emb.transpose()
        iotas.append(inv @ emb)
        pis.append(proj @ phi)
    return Resolution([reg_index] * n, iotas, pis)


def _resolve_general(family: GeneratingFamily, P: Comodule,
                     size_guard: int) -> Resolution:
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
    if unknowns * P.d * P.d > size_guard * 64:
        raise ClosureError("resolution system too large; raise the guard")
    cols = []
    meta = []
    for k in range(len(family.members)):
        for a, iota in enumerate(into[k]):
            for b, pi in enumerate(onto[k]):
                prod = iota @ pi
                cols.append([prod[i, j] for i in range(P.d)
                             for j in range(P.d)])
                meta.append((k, a, b))
    A = Matrix.from_rows(F, cols).transpose()
    target = Matrix(F, P.d * P.d, 1,
                    [F.one if i == j else F.zero
                     for i in range(P.d) for j in range(P.d)])
    sol = A.solve(target)
    if sol is None:
        raise ClosureError("identity of the product does not factor "
                           "through the family")
    iotas, pis, idxs = [], [], []
    grouped: Dict[Tuple[int, int], Matrix] = {}
    for col, (k, a, b) in enumerate(meta):
        c = sol[col, 0]
        if F.is_zero(c):
            continue
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


@dataclass
class ReconstructionResult:
    bialgebra: Bialgebra
    canonical: Optional[Matrix]
    verdict: str   # "isomorphism" | "not-isomorphism" | "no-reference"
    details: List[str]


def _block_offsets(family: GeneratingFamily) -> List[int]:
    out = [0]
    for M in family.members:
        out.append(out[-1] + M.d * M.d)
    return out


def _relation_rows(family: GeneratingFamily, offs: List[int]) -> List[List]:
    """The naturality span: precompose-by-phi minus postcompose-by-phi for
    every basis intertwiner."""
    F = family.bialgebra.field
    N = offs[-1]
    rel_rows: List[List] = []
    for i, Mi in enumerate(family.members):
        for j, Mj in enumerate(family.members):
            for phi in family.hom(i, j):
                for a in range(Mj.d):       # xi = e^a of Mj*
                    for b in range(Mi.d):   # v = e_b of Mi
                        row = [F.zero] * N
                        for c in range(Mi.d):
                            row[offs[i] + c * Mi.d + b] = F.add(
                                row[offs[i] + c * Mi.d + b], phi[a, c])
                        for c in range(Mj.d):
                            row[offs[j] + a * Mj.d + c] = F.sub(
                                row[offs[j] + a * Mj.d + c], phi[c, b])
                        rel_rows.append(row)
    return rel_rows


def coend_dimension(family: GeneratingFamily) -> int:
    """Dimension of the quotient of the coefficient span by naturality."""
    offs = _block_offsets(family)
    rows = _relation_rows(family, offs)
    if not rows:
        return offs[-1]
    return offs[-1] - Matrix.from_rows(family.bialgebra.field, rows).rank()


def coend_reconstruct(family: GeneratingFamily,
                      reference: Optional[Bialgebra] = None
                      ) -> ReconstructionResult:
    B = family.bialgebra
    F, n = B.field, B.n
    offs = _block_offsets(family)
    N = offs[-1]

    rel_rows = _relation_rows(family, offs)
    R, pivots = (Matrix.from_rows(F, rel_rows).rref() if rel_rows
                 else (None, []))
    pivot_row = {c: r for r, c in enumerate(pivots)}
    nonpivot = [c for c in range(N) if c not in pivot_row]
    dim = len(nonpivot)
    section_cols = nonpivot  # class k is the ambient basis vector nonpivot[k]

    def class_entry(flat: int, k: int):
        # the reduced relation of a pivot coordinate rewrites it as minus
        # its row on the non-pivot coordinates
        if flat in pivot_row:
            return F.neg(R[pivot_row[flat], nonpivot[k]])
        return F.one if flat == nonpivot[k] else F.zero

    # the class of an ambient vector v is v @ quotient, taken one member's
    # block of coordinates at a time
    quotient = [Matrix.build(F, M.d * M.d, dim,
                             lambda f, k, o=offs[i]: class_entry(o + f, k))
                for i, M in enumerate(family.members)]

    # comultiplication and counit on ambient coordinates
    delta_cols = []
    eps_row = [F.zero] * dim
    for col, flat in enumerate(section_cols):
        i = next(k for k in range(len(family.members))
                 if offs[k] <= flat < offs[k + 1])
        local = flat - offs[i]
        di = family.members[i].d
        a, b = divmod(local, di)
        # delta [e^a (x) e_b] = sum_k [e^k (x) e_b] (x) [e^a (x) e_k],
        # the leg order that the canonical comparison map is a coalgebra
        # morphism for
        col_vec = [F.zero] * (dim * dim)
        for k in range(di):
            left = quotient[i].row(k * di + b)
            right = quotient[i].row(a * di + k)
            for x in range(dim):
                if F.is_zero(left[x]):
                    continue
                for y in range(dim):
                    if F.is_zero(right[y]):
                        continue
                    col_vec[x * dim + y] = F.add(col_vec[x * dim + y],
                                                 F.mul(left[x], right[y]))
        delta_cols.append(col_vec)
        eps_row[col] = F.one if a == b else F.zero
    delta = Matrix.from_rows(F, delta_cols).transpose()
    eps = Matrix(F, 1, dim, eps_row)

    # multiplication through resolutions of pairwise products
    if family.depth < 2 and len(family.members) > 0:
        raise ClosureError("depth >= 2 is needed to multiply coefficients")

    def express(P: Comodule, res: Resolution) -> Matrix:
        """Row t * P.d + s is the class of e^t (x) e_s in P*, P: the sum over
        the resolution of (e^t . iota) (x) (pi . e_s) in the member."""
        out = Matrix.zero(F, P.d * P.d, dim)
        for idx, iota, pi in zip(res.member_indices, res.iotas, res.pis):
            out = out + iota.kron(pi.transpose()) @ quotient[idx]
        return out

    classes: Dict[Tuple[int, int], Matrix] = {}
    for i, Mi in enumerate(family.members):
        for j, Mj in enumerate(family.members):
            P = tensor_comodule(Mi, Mj)
            classes[(i, j)] = express(P, resolve(family, P, factors=(i, j)))
    mult_cols: List[Tuple] = []
    for flatx in section_cols:
        i = next(k for k in range(len(family.members))
                 if offs[k] <= flatx < offs[k + 1])
        di = family.members[i].d
        a, b = divmod(flatx - offs[i], di)
        for flaty in section_cols:
            j = next(k for k in range(len(family.members))
                     if offs[k] <= flaty < offs[k + 1])
            dj = family.members[j].d
            c, e = divmod(flaty - offs[j], dj)
            # theta = e^(a, c) and w = e_(b, e) in P = Mi (x) Mj
            mult_cols.append(classes[(i, j)].row(
                (a * dj + c) * (di * dj) + b * dj + e))
    # columns are ordered (colx * dim + coly)
    mult = Matrix.from_rows(F, mult_cols).transpose()

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
    can_cols = []
    for flat in section_cols:
        i = next(k for k in range(len(family.members))
                 if offs[k] <= flat < offs[k + 1])
        Mi = family.members[i]
        di = Mi.d
        a, b = divmod(flat - offs[i], di)
        can_cols.append([Mi.rho[h * di + a, b] for h in range(n)])
    canonical = Matrix.from_rows(F, can_cols).transpose()

    ok = canonical.is_invertible() and not bad
    checks = [
        ("mult", reference.m @ canonical.kron(canonical) == canonical @ C.m),
        ("unit", reference.u == canonical @ C.u),
        ("comult", reference.delta @ canonical ==
         canonical.kron(canonical) @ C.delta),
        ("counit", reference.eps @ canonical == C.eps),
    ]
    for name, good in checks:
        if not good:
            ok = False
            details.append(f"canonical map fails {name}")
    if not canonical.is_invertible():
        details.append("canonical map is singular")
    return ReconstructionResult(C, canonical,
                                "isomorphism" if ok else "not-isomorphism",
                                details)


def _solve_unit(F, dim: int, mult: Matrix) -> Optional[Matrix]:
    """The element u with m(u (x) x) = x = m(x (x) u), solved exactly."""
    rows: List[List] = []
    rhs: List[List] = []
    for r in range(dim):
        for c in range(dim):
            left = [mult[r, t * dim + c] for t in range(dim)]
            rows.append(left)
            rhs.append([F.one if r == c else F.zero])
            right = [mult[r, c * dim + t] for t in range(dim)]
            rows.append(right)
            rhs.append([F.one if r == c else F.zero])
    sol = Matrix.from_rows(F, rows).solve(Matrix.from_rows(F, rhs))
    return sol


@dataclass
class RoundTrip:
    verdict: str
    reconstruction: Bialgebra
    reference_hopf: bool
    reconstruction_hopf: bool
    reference_cohopf: bool
    reconstruction_cohopf: bool
    details: List[str]

    def flags_agree(self) -> bool:
        return (self.reference_hopf == self.reconstruction_hopf
                and self.reference_cohopf == self.reconstruction_cohopf)


def round_trip(H: Bialgebra, depth: int = 2) -> RoundTrip:
    """Reconstruct from the regular comodule and compare canonically."""
    bad = [r.name for r in check_bialgebra(H) if not r.holds]
    if bad:
        raise ComoduleError(f"reference fails axioms: {bad}")
    family = GeneratingFamily([regular_comodule(H)], depth=depth)
    res = coend_reconstruct(family, reference=H)
    return RoundTrip(res.verdict, res.bialgebra,
                     is_hopf(H), is_hopf(res.bialgebra),
                     is_cohopf(H), is_cohopf(res.bialgebra),
                     res.details)
