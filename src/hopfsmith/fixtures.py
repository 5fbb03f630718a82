"""The bialgebra fixture zoo used across the test and acceptance suites.

Group algebras and the function algebra of a finite group, the
two-element idempotent monoid, the four-dimensional non-commutative
non-cocommutative algebra with nilpotent part, and the odd exterior
line.  Everything is exact over Q unless a field is passed in.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Dict, Sequence, Tuple

from .bialgebra import Bialgebra, FLIP, SUPER
from .field import Field, QQ
from .matrix import Matrix


def _structure(field: Field, names: Sequence[str],
               mul: Dict[Tuple[int, int], Dict[int, object]],
               unit: Dict[int, object],
               com: Dict[int, Dict[Tuple[int, int], object]],
               counit: Dict[int, object],
               grading: Sequence[int] = (),
               braiding: str = FLIP) -> Bialgebra:
    n, F = len(names), field
    m = [(k, i * n + j, F(c)) for (i, j), out in mul.items()
         for k, c in out.items()]
    d = [(i * n + j, k, F(c)) for k, out in com.items()
         for (i, j), c in out.items()]
    return Bialgebra(F, n,
                     m=Matrix.from_entries(F, n, n * n, m),
                     u=Matrix.from_entries(
                         F, n, 1, [(k, 0, F(c)) for k, c in unit.items()]),
                     delta=Matrix.from_entries(F, n * n, n, d),
                     eps=Matrix.from_entries(
                         F, 1, n, [(0, k, F(c)) for k, c in counit.items()]),
                     grading=tuple(grading) or (0,) * n,
                     braiding=braiding,
                     basis_names=tuple(names))


# -- groups and monoids ------------------------------------------------------


def _monoid_bialgebra(field: Field, names: Sequence[str],
                      table: Sequence[Sequence[int]],
                      unit_index: int) -> Bialgebra:
    n = len(names)
    mul = {(i, j): {table[i][j]: 1} for i in range(n) for j in range(n)}
    com = {k: {(k, k): 1} for k in range(n)}
    return _structure(field, names, mul, {unit_index: 1}, com,
                      {k: 1 for k in range(n)})


def cyclic_group_algebra(order: int, field: Field = QQ) -> Bialgebra:
    names = [f"g{i}" if i else "e" for i in range(order)]
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return _monoid_bialgebra(field, names, table, 0)


def symmetric_group_algebra(n: int = 3, field: Field = QQ) -> Bialgebra:
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(n))

    table = [[index[compose(p, q)] for q in elems] for p in elems]
    names = ["".join(str(x) for x in p) for p in elems]
    unit = index[tuple(range(n))]
    return _monoid_bialgebra(field, names, table, unit)


def idempotent_monoid_bialgebra(field: Field = QQ) -> Bialgebra:
    # {1, e} with e*e = e
    return _monoid_bialgebra(field, ["1", "e"], [[0, 1], [1, 1]], 0)


def function_hopf_algebra(order: int, field: Field = QQ) -> Bialgebra:
    """Functions on a cyclic group: pointwise product, convolution
    comultiplication."""
    n = order
    names = [f"d{i}" for i in range(n)]
    mul = {(i, j): ({i: 1} if i == j else {}) for i in range(n)
           for j in range(n)}
    com = {k: {(a, (k - a) % n): 1 for a in range(n)} for k in range(n)}
    return _structure(field, names, mul, {k: 1 for k in range(n)},
                      com, {0: 1})


# -- the four-dimensional fixture ---------------------------------------------


def sweedler_algebra(field: Field = QQ) -> Bialgebra:
    """Basis (1, g, x, gx): g^2 = 1, x^2 = 0, x g = -g x;
    the comultiplication splits x as x (x) 1 + g (x) x."""
    one, g, x, gx = 0, 1, 2, 3
    mul = {
        (one, one): {one: 1}, (one, g): {g: 1}, (one, x): {x: 1},
        (one, gx): {gx: 1},
        (g, one): {g: 1}, (g, g): {one: 1}, (g, x): {gx: 1}, (g, gx): {x: 1},
        (x, one): {x: 1}, (x, g): {gx: -1}, (x, x): {}, (x, gx): {},
        (gx, one): {gx: 1}, (gx, g): {x: -1}, (gx, x): {}, (gx, gx): {},
    }
    com = {
        one: {(one, one): 1},
        g: {(g, g): 1},
        x: {(x, one): 1, (g, x): 1},
        gx: {(gx, g): 1, (one, gx): 1},
    }
    return _structure(field, ["1", "g", "x", "gx"], mul, {one: 1}, com,
                      {one: 1, g: 1})


def exterior_line_super(field: Field = QQ) -> Bialgebra:
    """One odd generator squaring to zero, with the Koszul braiding."""
    one, th = 0, 1
    mul = {(one, one): {one: 1}, (one, th): {th: 1},
           (th, one): {th: 1}, (th, th): {}}
    com = {one: {(one, one): 1},
           th: {(th, one): 1, (one, th): 1}}
    return _structure(field, ["1", "th"], mul, {one: 1}, com, {one: 1},
                      grading=[0, 1], braiding=SUPER)


# -- negative controls ---------------------------------------------------------


def corrupted_delta(B: Bialgebra) -> Bialgebra:
    """One entry of the comultiplication bumped; breaks the bialgebra axiom
    with a witness coordinate."""
    F, n = B.field, B.n
    bump = Matrix.from_entries(F, n * n, n, [(0, 0, F.one)])
    return Bialgebra(F, n, m=B.m, u=B.u, delta=B.delta + bump,
                     eps=B.eps, grading=B.grading, braiding=B.braiding,
                     basis_names=B.basis_names)


# name -> builder over a given field; the CLI builds only the fixture it names
FIXTURE_BUILDERS: Dict[str, Callable[[Field], Bialgebra]] = {
    "QZ2": lambda field: cyclic_group_algebra(2, field),
    "QS3": lambda field: symmetric_group_algebra(3, field),
    "QZ3dual": lambda field: function_hopf_algebra(3, field),
    "QM": idempotent_monoid_bialgebra,
    "sweedler": sweedler_algebra,
    "superline": exterior_line_super,
}


def standard_fixtures(field: Field = QQ) -> Dict[str, Bialgebra]:
    return {name: build(field) for name, build in FIXTURE_BUILDERS.items()}
