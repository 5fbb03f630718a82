"""Finite-dimensional left comodules over an exact bialgebra: validation,
intertwiner spaces, tensor products, duals, and the regular comodule.

A coaction is an (n*d) x d matrix rho with the H-factor on the left;
rows are indexed (h, i) |-> h*d + i.
"""

from __future__ import annotations

from typing import List, Optional

from .bialgebra import Bialgebra, HopfData, antipode
from .matrix import Matrix
from .record import Record


class ComoduleError(ValueError):
    pass


class Comodule(Record):
    # rho: (n*d) x d
    __slots__ = ("bialgebra", "d", "rho")

    def __init__(self, bialgebra: Bialgebra, d: int, rho: Matrix):
        n = bialgebra.n
        if (rho.rows, rho.cols) != (n * d, d):
            raise ComoduleError(f"coaction shape {rho.rows}x{rho.cols}, "
                                f"expected {n * d}x{d}")
        Record.__init__(self, bialgebra, d, rho)

    def check(self) -> List[str]:
        """Names of failing comodule axioms (empty when valid)."""
        B = self.bialgebra
        n, d = B.n, self.d
        out = []
        if B.delta.whisker_matmul(1, d, self.rho) != \
                self.rho.whisker_matmul(n, 1, self.rho):
            out.append("coassociativity")
        if B.eps.whisker_matmul(1, d, self.rho) != \
                Matrix.identity(B.field, d):
            out.append("counit")
        return out

    def is_valid(self) -> bool:
        return not self.check()


def regular_comodule(B: Bialgebra) -> Comodule:
    return Comodule(B, B.n, B.delta)


def trivial_comodule(B: Bialgebra) -> Comodule:
    return Comodule(B, 1, B.u)


def _common_bialgebra(M: Comodule, N: Comodule) -> Bialgebra:
    if M.bialgebra is not N.bialgebra and M.bialgebra != N.bialgebra:
        raise ComoduleError("comodules over different bialgebras")
    return M.bialgebra


def comodule_hom(M: Comodule, N: Comodule) -> List[Matrix]:
    """Exact basis of intertwiners phi: M -> N with
    rho_N . phi = (id (x) phi) . rho_M."""
    B = _common_bialgebra(M, N)
    F, n = B.field, B.n
    dm, dn = M.d, N.d
    # unknown phi[a, b] (a < dn, b < dm) is column a*dm + b; equation
    # (h, a, c) is row (h*dn + a)*dm + c
    eqs = []
    for r, c, x in M.rho.entries():         # + phi[a, b] rho_M[(h, b), c]
        h, b = divmod(r, dm)
        eqs += [((h * dn + a) * dm + c, a * dm + b, x) for a in range(dn)]
    for r, b, x in N.rho.entries():         # - rho_N[(h, a), b] phi[b, c]
        h, a = divmod(r, dn)
        x = F.neg(x)
        eqs += [((h * dn + a) * dm + c, b * dm + c, x) for c in range(dm)]
    basis = Matrix.from_entries(F, n * dn * dm, dn * dm, eqs).nullspace()
    return [Matrix.from_entries(F, dn, dm, ((*divmod(k, dm), x)
                                            for k, _, x in v.entries()))
            for v in basis]


def tensor_comodule(M: Comodule, N: Comodule) -> Comodule:
    """Codiagonal coaction, the product of the two H-legs, as one
    contraction of entries: entry ((h, x, y), (i, j)) is the sum over
    a, b of m[h, (a, b)] rho_M[(a, x), i] rho_N[(b, y), j], and
    rho_M (x) rho_N is never formed."""
    B = _common_bialgebra(M, N)
    F, n, dm, dn = B.field, B.n, M.d, N.d
    mul = F.mul
    legs_m = [[] for _ in range(n)]     # rho_M[(a, x), i] under a
    legs_n = [[] for _ in range(n)]     # rho_N[(b, y), j] under b
    for rho, legs, d in ((M.rho, legs_m, dm), (N.rho, legs_n, dn)):
        for r, i, x in rho.entries():
            a, k = divmod(r, d)
            legs[a].append((k, i, x))
    entries = []
    for h, ab, z in B.m.entries():
        a, b = divmod(ab, n)
        for x, i, v in legs_m[a]:
            zv = mul(z, v)
            entries += [((h * dm + x) * dn + y, i * dn + j, mul(zv, w))
                        for y, j, w in legs_n[b]]
    return Comodule(B, dm * dn, Matrix.from_entries(F, n * dm * dn, dm * dn,
                                                    entries))


def dual_comodule(M: Comodule, hopf: Optional[HopfData] = None) -> Comodule:
    """Left dual with the coaction twisted by the antipode.  Raises
    NoAntipode through antipode() when the bialgebra is not Hopf."""
    if hopf is None:
        hopf = antipode(M.bialgebra)
    if hopf.bialgebra != M.bialgebra:
        raise ComoduleError("antipode belongs to a different bialgebra")
    B = M.bialgebra
    rho_t = _coefficient_transpose(M)
    return Comodule(B, M.d, hopf.S.whisker_matmul(1, M.d, rho_t))


def _coefficient_transpose(M: Comodule) -> Matrix:
    """Swap the two module indices of the matrix-coefficient family: the
    dual coaction uses coefficient (j, i) where the original uses (i, j)."""
    B, d = M.bialgebra, M.d
    out = []
    for r, j, x in M.rho.entries():
        h, i = divmod(r, d)
        out.append((h * d + j, i, x))
    return Matrix.from_entries(B.field, B.n * d, d, out)
