"""Exact bialgebras on a finite-dimensional (possibly super-graded) space:
structure tensors, axiom checking, the four shear maps, antipodes, and
integrals.

Index convention: the basis of B (x) B is ordered (i, j) |-> i*n + j.
Braidings supported: the flip, and the Koszul sign rule for Z/2-graded
spaces; both are involutions, so no separate inverse braiding is kept.
The braiding is data of the bialgebra, and this module is the only one
that reads its signs: `braiding_matrix` is the braiding of B (x) B as a
matrix, for a caller that braids two tensor slots, and the composites
below sign their terms from the same parities.  Composites apply each
structure map to its tensor slots with `Matrix.whisker_matmul` and
`Matrix.matmul_whisker`, so no Kronecker product by an identity is
formed.  The bialgebra axiom's braided product
(m (x) m)(id (x) br (x) id)(delta (x) delta), the four shears and the
integral formula for the antipode are contractions of the entries of m
and delta over a shared leg, so no composite forms a Kronecker product
or a braiding that it only multiplies.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from . import jsonshape as shape
from .field import Field, FieldError, field_from_json
from .matrix import Matrix
from .record import Record

FLIP = "flip"
SUPER = "super"

NW, NE, SW, SE = "NW", "NE", "SW", "SE"


class BialgebraError(ValueError):
    pass


class Bialgebra(Record):
    # m: n x n^2, u: n x 1, delta: n^2 x n, eps: 1 x n; an empty grading
    # is all even, and empty basis names are e0, e1, ...
    __slots__ = ("field", "n", "m", "u", "delta", "eps", "grading",
                 "braiding", "basis_names")

    def __init__(self, field: Field, n: int, m: Matrix, u: Matrix,
                 delta: Matrix, eps: Matrix, grading: Tuple[int, ...] = (),
                 braiding: str = FLIP, basis_names: Tuple[str, ...] = ()):
        shapes = ((m, n, n * n), (u, n, 1), (delta, n * n, n), (eps, 1, n))
        for mat, r, c in shapes:
            if (mat.rows, mat.cols) != (r, c):
                raise BialgebraError(
                    f"structure tensor shape {mat.rows}x{mat.cols}, "
                    f"expected {r}x{c}")
        grading = grading or (0,) * n
        if len(grading) != n:
            raise BialgebraError("grading length mismatch")
        if braiding not in (FLIP, SUPER):
            raise BialgebraError(f"unknown braiding {braiding!r}")
        basis_names = basis_names or tuple(f"e{i}" for i in range(n))
        if len(basis_names) != n:
            raise BialgebraError("basis length mismatch")
        Record.__init__(self, field, n, m, u, delta, eps, grading, braiding,
                        basis_names)

    # -- helpers ----------------------------------------------------------

    @property
    def id_n(self) -> Matrix:
        return Matrix.identity(self.field, self.n)

    @property
    def parities(self) -> Tuple[int, ...]:
        """The parities the braiding signs by: the grading under the Koszul
        rule, all even under the flip."""
        return self.grading if self.braiding == SUPER else (0,) * self.n


def braiding_matrix(B: Bialgebra) -> Matrix:
    """The braiding of B (x) B, e_i (x) e_j |-> +- e_j (x) e_i: the flip,
    negated where both basis vectors are odd under the Koszul rule."""
    F, n, p = B.field, B.n, B.parities
    one, minus = F.one, F.neg(F.one)
    return Matrix.from_entries(F, n * n, n * n, (
        (j * n + i, i * n + j, minus if p[i] % 2 and p[j] % 2 else one)
        for i in range(n) for j in range(n)))


class AxiomReport(Record):
    __slots__ = ("name", "holds", "witness")
    _defaults = {"witness": None}


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
    cmp("associativity", m.matmul_whisker(m, 1, n), m.matmul_whisker(m, n, 1))
    cmp("unit_left", m.matmul_whisker(u, 1, n), I)
    cmp("unit_right", m.matmul_whisker(u, n, 1), I)
    cmp("coassociativity", d.whisker_matmul(1, n, d),
        d.whisker_matmul(n, 1, d))
    cmp("counit_left", e.whisker_matmul(1, n, d), I)
    cmp("counit_right", e.whisker_matmul(n, 1, d), I)
    cmp("bialgebra_axiom", _braided_product(B), d @ m)
    cmp("comult_unit", d @ u, u.kron(u))
    cmp("counit_mult", e @ m, e.kron(e))
    cmp("counit_unit", e @ u, Matrix.identity(F, 1))
    if any(B.grading):
        out.append(_check_degree_zero(B))
    return out


def _braided_product(B: Bialgebra) -> Matrix:
    """(m (x) m)(id (x) br (x) id)(delta (x) delta) as one contraction:
    entry ((r1, r2), (c1, c2)) is the sum over a, b, c, d of
    +- m[r1, (a, c)] m[r2, (b, d)] delta[(a, b), c1] delta[(c, d), c2],
    negated when b and c are both odd.  The left halves
    m[r1, (a, c)] delta[(a, b), c1] are summed over a, and the right
    halves m[r2, (b, d)] delta[(c, d), c2] over d, each under (b, c)."""
    F, n, p = B.field, B.n, B.parities
    add, mul, neg = F.add, F.mul, F.neg
    first = [[] for _ in range(n)]      # delta[(a, b), c1] under a
    second = [[] for _ in range(n)]     # delta[(c, d), c2] under d
    for ab, c1, x in B.delta.entries():
        a, b = divmod(ab, n)
        first[a].append((b, c1, x))
        second[b].append((a, c1, x))
    # halves[(b, c)][(r, c')]: the left or right half of the sum
    left: Dict[Tuple[int, int], Dict[Tuple[int, int], object]] = {}
    right: Dict[Tuple[int, int], Dict[Tuple[int, int], object]] = {}

    def put(halves, bc, rc, z):
        acc = halves.setdefault(bc, {})
        acc[rc] = add(acc[rc], z) if rc in acc else z

    for r, col, x in B.m.entries():
        s, t = divmod(col, n)
        for b, c1, y in first[s]:       # m[r, (a, c)] with (a, c) = (s, t)
            put(left, (b, t), (r, c1), mul(x, y))
        for c, c2, y in second[t]:      # m[r, (b, d)] with (b, d) = (s, t)
            put(right, (s, c), (r, c2), mul(x, y))
    entries = []
    for (b, c), lhalf in left.items():
        rhalf = right.get((b, c), {})
        odd = p[b] % 2 and p[c] % 2
        for (r1, c1), x in lhalf.items():
            for (r2, c2), y in rhalf.items():
                z = mul(x, y)
                entries.append((r1 * n + r2, c1 * n + c2,
                                neg(z) if odd else z))
    return Matrix.from_entries(F, n * n, n * n, entries)


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


# ---------------------------------------------------------------------------
# shears


# for each shear: whether delta keeps its first leg a (sharing b with m),
# whether m shares its first leg, and whether a braiding signs the terms
_SHEARS = {SE: (True, True, False), NW: (False, False, False),
           NE: (False, True, True), SW: (True, False, True)}


def shear(B: Bialgebra, which: str) -> Matrix:
    """The four composites of one comultiplication and one multiplication
    on B (x) B; the letter names the direction the exchanged factor
    travels under the quadrant identification."""
    if which not in _SHEARS:
        raise BialgebraError(f"unknown shear direction {which!r}")
    return _contract_shear(B, B.delta, which)


def _contract_shear(B: Bialgebra, d: Matrix, which: str) -> Matrix:
    """A shear as one contraction of m with d (an n^2 x n coproduct) over
    the leg they share, with p = B.parities:

        SE[(a, y), (i, j)] = sum_b  d[(a, b), i] m[y, (b, j)]
        NW[(y, b), (i, j)] = sum_a  m[y, (i, a)] d[(a, b), j]
        NE[(y, b), (i, j)] = sum_a +- d[(a, b), i] m[y, (a, j)]
        SW[(a, y), (i, j)] = sum_b +- d[(a, b), j] m[y, (i, b)]

    NE and SW braid a leg of d past a leg of m, and a term is negated
    when the two legs that stay, b and j or a and i, are both odd."""
    keep_a, share_first, signed = _SHEARS[which]
    F, n, p = B.field, B.n, B.parities
    mul, neg = F.mul, F.neg
    legs = [[] for _ in range(n)]   # (kept leg, column, entry, odd entry)
    for ab, c, x in d.entries():
        a, b = divmod(ab, n)
        k, s = (a, b) if keep_a else (b, a)
        legs[s].append((k, c, x, neg(x) if signed and p[k] % 2 else x))
    entries = []
    for y, st, z in B.m.entries():
        s, t = divmod(st, n)
        if not share_first:
            s, t = t, s
        odd = p[t] % 2
        for k, c, x, x_odd in legs[s]:
            entries.append((k * n + y if keep_a else y * n + k,
                            c * n + t if share_first else t * n + c,
                            mul(z, x_odd if odd else x)))
    return Matrix.from_entries(F, n * n, n * n, entries)


def is_hopf(B: Bialgebra) -> bool:
    return shear(B, SE).is_invertible()


def is_cohopf(B: Bialgebra) -> bool:
    return shear(B, NE).is_invertible()


# ---------------------------------------------------------------------------
# antipodes


class HopfData(Record):
    __slots__ = ("bialgebra", "S", "S_inv")
    _defaults = {"S_inv": None}


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
    S = B.eps.whisker_matmul(1, n, sh_inv).matmul_whisker(B.u, n, 1)
    conv_l = B.m.matmul_whisker(S, 1, n) @ B.delta
    conv_r = B.m.matmul_whisker(S, n, 1) @ B.delta
    ue = B.u @ B.eps
    if conv_l != ue or conv_r != ue:
        raise BialgebraError("antipode candidate fails the convolution axioms")
    # (id (x) m)(id (x) S (x) id)(delta (x) id) is the SE shear with
    # (id (x) S)delta in place of delta
    undo = _contract_shear(B, S.whisker_matmul(n, 1, B.delta), SE)
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


class IntegralData(Record):
    # 1 x n integral rows, n x 1 cointegral columns, and the scalar of the
    # normalized pair
    __slots__ = ("left_integrals", "left_cointegrals", "pairing",
                 "normalized_integral", "normalized_cointegral")
    _defaults = dict.fromkeys(__slots__[2:])


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

    pairing = integral = cointegral = None
    if len(lam_basis) == 1 and len(coint_basis) == 1:
        pairing = (lam_basis[0] @ coint_basis[0])[0, 0]
        if not F.is_zero(pairing):
            integral = lam_basis[0].scale(F.inv(pairing))
            cointegral = coint_basis[0]
    return IntegralData(lam_basis, coint_basis, pairing, integral,
                        cointegral)


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
    F, n, p = B.field, B.n, B.parities
    lam = data.normalized_integral
    coint = data.normalized_cointegral
    if B.braiding == SUPER:
        deg_int = _functional_parity(B, lam)
        shifted = [(g + deg_int) % 2 for g in p]
    else:
        shifted = p
    # S[a, h] = sum_b +- dl[(a, b)] (lam m)[(h, b)], with dl the split
    # cointegral, negated when shifted[b] and p[h] are both odd
    under_b = [[] for _ in range(n)]    # (h, (lam m)[(h, b)]) under b
    for _, hb, y in (lam @ B.m).entries():
        h, b = divmod(hb, n)
        under_b[b].append((h, y))
    entries = []
    for ab, _, x in (B.delta @ coint).entries():
        a, b = divmod(ab, n)
        for h, y in under_b[b]:
            z = F.mul(x, y)
            entries.append((a, h, F.neg(z) if shifted[b] % 2 and p[h] % 2
                            else z))
    return Matrix.from_entries(F, n, n, entries)


def _functional_parity(B: Bialgebra, lam: Matrix) -> int:
    degs = {B.grading[k] % 2 for _, k, _ in lam.entries()}
    if len(degs) != 1:
        raise IntegralConditionError("integral functional is not homogeneous")
    return degs.pop()


# ---------------------------------------------------------------------------
# duality and serialization


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
        grading=tuple(shape.ints(data, "grading", "bialgebra", [0] * n)),
        braiding=shape.get(data, "braiding", str, "bialgebra", FLIP),
        basis_names=tuple(shape.strs(data, "basis", "bialgebra", [])),
    )


def load_bialgebra(path: str) -> Bialgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return bialgebra_from_json(json.load(fh))
