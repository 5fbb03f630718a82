"""Exact bialgebras on a finite-dimensional (possibly super-graded) space:
structure tensors, axiom checking, the four shear maps, antipodes, and
integrals.

Index convention: the basis of B (x) B is ordered (i, j) |-> i*n + j.
Braidings supported: the flip, and the Koszul sign rule for Z/2-graded
spaces; both are involutions, so no separate inverse braiding is kept.
Composites apply each structure map to its tensor slots with
`Matrix.whisker` and each braiding with `Matrix.braid`, so no Kronecker
product by an identity is formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import jsonshape as shape
from .field import Field, FieldError, field_from_json
from .matrix import Matrix

FLIP = "flip"
SUPER = "super"

NW, NE, SW, SE = "NW", "NE", "SW", "SE"


class BialgebraError(ValueError):
    pass


@dataclass
class Bialgebra:
    field: Field
    n: int
    m: Matrix          # n x n^2
    u: Matrix          # n x 1
    delta: Matrix      # n^2 x n
    eps: Matrix        # 1 x n
    grading: Tuple[int, ...] = ()
    braiding: str = FLIP
    basis_names: Tuple[str, ...] = ()

    def __post_init__(self):
        n = self.n
        shapes = ((self.m, n, n * n), (self.u, n, 1),
                  (self.delta, n * n, n), (self.eps, 1, n))
        for mat, r, c in shapes:
            if (mat.rows, mat.cols) != (r, c):
                raise BialgebraError(
                    f"structure tensor shape {mat.rows}x{mat.cols}, "
                    f"expected {r}x{c}")
        if not self.grading:
            self.grading = (0,) * n
        if len(self.grading) != n:
            raise BialgebraError("grading length mismatch")
        if self.braiding not in (FLIP, SUPER):
            raise BialgebraError(f"unknown braiding {self.braiding!r}")
        if not self.basis_names:
            self.basis_names = tuple(f"e{i}" for i in range(n))

    # -- helpers ----------------------------------------------------------

    @property
    def id_n(self) -> Matrix:
        return Matrix.identity(self.field, self.n)

    @property
    def parities(self) -> Tuple[int, ...]:
        """The parities the braiding signs by: the grading under the Koszul
        rule, all even under the flip."""
        return self.grading if self.braiding == SUPER else (0,) * self.n


@dataclass
class AxiomReport:
    name: str
    holds: bool
    witness: Optional[str] = None


def check_bialgebra(B: Bialgebra) -> List[AxiomReport]:
    """All axioms, exactly; a failing axiom carries a witness coordinate."""
    F, n, p = B.field, B.n, B.parities
    I = B.id_n
    out: List[AxiomReport] = []

    def cmp(name: str, lhs: Matrix, rhs: Matrix) -> None:
        if lhs == rhs:
            out.append(AxiomReport(name, True))
            return
        where = min((i, j) for i, j, _ in (lhs - rhs).entries())
        out.append(AxiomReport(name, False, f"entry {where}"))

    m, u, d, e = B.m, B.u, B.delta, B.eps
    cmp("associativity", m @ m.whisker(1, n), m @ m.whisker(n, 1))
    cmp("unit_left", m @ u.whisker(1, n), I)
    cmp("unit_right", m @ u.whisker(n, 1), I)
    cmp("coassociativity", d.whisker(1, n) @ d, d.whisker(n, 1) @ d)
    cmp("counit_left", e.whisker(1, n) @ d, I)
    cmp("counit_right", e.whisker(n, 1) @ d, I)
    # (m (x) m)(id (x) br (x) id)(d (x) d): the braiding relabels d (x) d
    cmp("bialgebra_axiom", m.kron(m) @ d.kron(d).braid(n, p, p, n), d @ m)
    cmp("comult_unit", d @ u, u.kron(u))
    cmp("counit_mult", e @ m, e.kron(e))
    cmp("counit_unit", e @ u, Matrix.identity(F, 1))
    if any(B.grading):
        out.append(_check_degree_zero(B))
    return out


def _check_degree_zero(B: Bialgebra) -> AxiomReport:
    """The first odd entry in the scan order k, (i, j), m before delta,
    then u[k] and eps[k]."""
    n, g = B.n, B.grading
    odd = []  # (scan position, witness)
    for k, c, _ in B.m.entries():
        i, j = divmod(c, n)
        if (g[i] + g[j] - g[k]) % 2:
            odd.append(((k, i, j, 0), f"m[{k},({i},{j})]"))
    for r, k, _ in B.delta.entries():
        i, j = divmod(r, n)
        if (g[i] + g[j] - g[k]) % 2:
            odd.append(((k, i, j, 1), f"delta[({i},{j}),{k}]"))
    odd += [((k, n, 0, 0), f"u[{k}]") for k, _, _ in B.u.entries()
            if g[k] % 2]
    odd += [((k, n, 0, 1), f"eps[{k}]") for _, k, _ in B.eps.entries()
            if g[k] % 2]
    if odd:
        return AxiomReport("degree_zero", False, min(odd)[1])
    return AxiomReport("degree_zero", True)


def is_valid_bialgebra(B: Bialgebra) -> bool:
    return all(r.holds for r in check_bialgebra(B))


# ---------------------------------------------------------------------------
# shears


def shear(B: Bialgebra, which: str) -> Matrix:
    """The four composites of one comultiplication and one multiplication
    on B (x) B; the letter names the direction the exchanged factor
    travels under the quadrant identification."""
    n, p, m, d = B.n, B.parities, B.m, B.delta
    if which == SE:
        return m.whisker(n, 1) @ d.whisker(1, n)
    if which == NW:
        return m.whisker(1, n) @ d.whisker(n, 1)
    if which == NE:
        return m.whisker(1, n) @ d.whisker(1, n).braid(n, p, p, 1)
    if which == SW:
        return m.whisker(n, 1) @ d.whisker(n, 1).braid(1, p, p, n)
    raise BialgebraError(f"unknown shear direction {which!r}")


def is_hopf(B: Bialgebra) -> bool:
    return shear(B, SE).is_invertible()


def is_cohopf(B: Bialgebra) -> bool:
    return shear(B, NE).is_invertible()


# ---------------------------------------------------------------------------
# antipodes


@dataclass
class HopfData:
    bialgebra: Bialgebra
    S: Matrix
    S_inv: Optional[Matrix] = None


class NoAntipode(BialgebraError):
    def __init__(self, kernel: List[Matrix]):
        super().__init__("shear map is singular; no antipode "
                         f"(kernel dimension {len(kernel)})")
        self.kernel = kernel


def antipode(B: Bialgebra) -> HopfData:
    """S = (eps (x) id) . shear_SE^{-1} . (id (x) u), checked against both
    convolution axioms and against inverting the shear."""
    sh = shear(B, SE)
    try:
        sh_inv = sh.inverse()
    except FieldError:
        raise NoAntipode(sh.nullspace()) from None
    n = B.n
    S = B.eps.whisker(1, n) @ sh_inv @ B.u.whisker(n, 1)
    conv_l = B.m @ S.whisker(1, n) @ B.delta
    conv_r = B.m @ S.whisker(n, 1) @ B.delta
    ue = B.u @ B.eps
    if conv_l != ue or conv_r != ue:
        raise BialgebraError("antipode candidate fails the convolution axioms")
    undo = B.m.whisker(n, 1) @ S.whisker(n, n) @ B.delta.whisker(1, n)
    if undo != sh_inv:
        raise BialgebraError("antipode does not invert the shear")
    # S is invertible exactly when B is co-Hopf
    try:
        S_inv = S.inverse()
    except FieldError:
        S_inv = None
    return HopfData(B, S, S_inv)


def convolution_inverse(B: Bialgebra) -> Optional[Matrix]:
    """Independent route to the antipode: solve the two-sided convolution
    equations m(T (x) id)delta = u.eps = m(id (x) T)delta as a linear
    system in the entries of T."""
    F, n = B.field, B.n
    # entry (r, c) of m (T (x) id) delta is equation r*n + c, and of
    # m (id (x) T) delta equation n*n + r*n + c; unknown T[i, j] is i*n + j.
    # Each m[r, (p, q)] is listed as (r, p, x) under q and (r, q, x) under p.
    under_q, under_p = [[] for _ in range(n)], [[] for _ in range(n)]
    for r, col, x in B.m.entries():
        p, q = divmod(col, n)
        under_q[q].append((r, p, x))
        under_p[p].append((r, q, x))
    eqs = []
    for ab, c, d in B.delta.entries():
        a, b = divmod(ab, n)
        # delta[(a, b), c] times T[t, a] m[r, (t, b)], and times
        # T[t, b] m[r, (a, t)]
        eqs += [(r * n + c, t * n + a, F.mul(d, x)) for r, t, x in under_q[b]]
        eqs += [(n * n + r * n + c, t * n + b, F.mul(d, x))
                for r, t, x in under_p[a]]
    rhs = [(half + r * n + c, 0, x) for r, c, x in (B.u @ B.eps).entries()
           for half in (0, n * n)]
    sol = Matrix.from_entries(F, 2 * n * n, n * n, eqs).solve(
        Matrix.from_entries(F, 2 * n * n, 1, rhs))
    if sol is None:
        return None
    return Matrix.from_entries(F, n, n, ((*divmod(k, n), x)
                                         for k, _, x in sol.entries()))


# ---------------------------------------------------------------------------
# integrals


@dataclass
class IntegralData:
    left_integrals: List[Matrix]     # 1 x n rows
    left_cointegrals: List[Matrix]   # n x 1 columns
    pairing: Optional[object] = None  # scalar for the normalized pair
    normalized_integral: Optional[Matrix] = None
    normalized_cointegral: Optional[Matrix] = None


def integrals(B: Bialgebra) -> IntegralData:
    """Solve (id (x) lam)delta = u.lam for integrals and
    m(id (x) Lam) = Lam.eps for cointegrals, exactly."""
    F, n = B.field, B.n
    # equation (r, c) is row r*n + c; unknown k is column k
    eqs = []
    for rk, c, x in B.delta.entries():      # + delta[(r, k), c] lam[k]
        r, k = divmod(rk, n)
        eqs.append((r * n + c, k, x))
    eqs += [(r * n + c, c, F.neg(x)) for r, _, x in B.u.entries()
            for c in range(n)]              # - u[r] lam[c]
    lam_basis = [v.transpose() for v in
                 Matrix.from_entries(F, n * n, n, eqs).nullspace()]

    eqs = []
    for r, ck, x in B.m.entries():          # + m[r, (c, k)] Lam[k]
        c, k = divmod(ck, n)
        eqs.append((r * n + c, k, x))
    eqs += [(r * n + c, r, F.neg(x)) for _, c, x in B.eps.entries()
            for r in range(n)]              # - eps[c] Lam[r]
    coint_basis = Matrix.from_entries(F, n * n, n, eqs).nullspace()

    data = IntegralData(lam_basis, coint_basis)
    if len(lam_basis) == 1 and len(coint_basis) == 1:
        lam, coint = lam_basis[0], coint_basis[0]
        pairing = (lam @ coint)[0, 0]
        data.pairing = pairing
        if not F.is_zero(pairing):
            data.normalized_integral = lam.scale(F.inv(pairing))
            data.normalized_cointegral = coint
    return data


class IntegralConditionError(BialgebraError):
    pass


def antipode_from_integrals(B: Bialgebra,
                            data: Optional[IntegralData] = None) -> Matrix:
    """The antipode assembled from a normalized integral/cointegral pair:
    split the cointegral, braid the argument past the second leg together
    with the (possibly odd) line the integral takes values in, multiply,
    and evaluate the integral on the product:

        S(h) = sum_(Lam)  +- Lam_(1) . int(h Lam_(2)).

    The sign is the Koszul sign of moving h past Lam_(2) and past the
    integral's value line; over an ungraded field it is trivial."""
    if data is None:
        data = integrals(B)
    if data.normalized_integral is None:
        raise IntegralConditionError(
            "integral and cointegral spaces must be lines with nonzero pairing")
    n, p = B.n, B.parities
    lam = data.normalized_integral
    coint = data.normalized_cointegral
    dl = B.delta @ coint         # n^2 x 1, the split cointegral
    if B.braiding == SUPER:
        deg_int = _functional_parity(B, lam)
        shifted = [(g + deg_int) % 2 for g in p]
    else:
        shifted = p
    step1 = dl.whisker(1, n)     # h |-> Lam1 (x) Lam2 (x) h
    # braid h past Lam2 and the value line: Lam1 (x) h (x) Lam2
    step2 = step1.braid(n, shifted, p, 1)
    step3 = B.m.whisker(n, 1)    # multiply h with Lam2
    step4 = lam.whisker(n, 1)    # evaluate the integral
    return step4 @ step3 @ step2


def _functional_parity(B: Bialgebra, lam: Matrix) -> int:
    degs = {B.grading[k] % 2 for _, k, _ in lam.entries()}
    if len(degs) != 1:
        raise IntegralConditionError("integral functional is not homogeneous")
    return degs.pop()


# ---------------------------------------------------------------------------
# duality and serialization


def dual_bialgebra(B: Bialgebra) -> Bialgebra:
    return Bialgebra(B.field, B.n,
                     m=B.delta.transpose(), u=B.eps.transpose(),
                     delta=B.m.transpose(), eps=B.u.transpose(),
                     grading=B.grading, braiding=B.braiding,
                     basis_names=tuple(f"{x}*" for x in B.basis_names))


def _mat_to_json(B: Bialgebra, mat: Matrix) -> list:
    return [[B.field.show(mat[i, j]) for j in range(mat.cols)]
            for i in range(mat.rows)]


def bialgebra_to_json(B: Bialgebra) -> dict:
    return {
        "field": B.field.to_json(),
        "dim": B.n,
        "grading": list(B.grading),
        "braiding": B.braiding,
        "basis": list(B.basis_names),
        "m": _mat_to_json(B, B.m),
        "u": _mat_to_json(B, B.u),
        "delta": _mat_to_json(B, B.delta),
        "epsilon": _mat_to_json(B, B.eps),
    }


def bialgebra_from_json(data: dict) -> Bialgebra:
    """Raises jsonshape.ShapeError when data is not shaped like the output
    of bialgebra_to_json."""
    data = shape.obj(data, "bialgebra")
    F = field_from_json(data.get("field"))
    n = shape.get(data, "dim", int, "bialgebra")

    def mat(key: str, rows: int, cols: int) -> Matrix:
        raw = shape.rows(data, key, "bialgebra")
        if len(raw) != rows or any(len(r) != cols for r in raw):
            raise BialgebraError(f"{key} must be {rows}x{cols}")
        return Matrix.from_rows(F, raw)

    return Bialgebra(
        F, n,
        m=mat("m", n, n * n), u=mat("u", n, 1),
        delta=mat("delta", n * n, n), eps=mat("epsilon", 1, n),
        grading=tuple(shape.get(data, "grading", list, "bialgebra", [0] * n)),
        braiding=shape.get(data, "braiding", str, "bialgebra", FLIP),
        basis_names=tuple(shape.get(data, "basis", list, "bialgebra", [])),
    )


def load_bialgebra(path: str) -> Bialgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return bialgebra_from_json(json.load(fh))
