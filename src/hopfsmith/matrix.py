"""Immutable exact matrices over a scalar field.

Row-major; the tensor-factor index convention for an n*n space is
(i, j) |-> i*n + j.  Storage is row-sparse: one {column: entry} map per
row that holds the nonzero entries only, so a zero is never stored and
equality and hashing compare the maps directly.  Sums, products,
Kronecker products and elimination visit stored entries only, which
keeps the structure tensors and their tensor powers (almost all zeros)
cheap.  The maps are private and never mutated once a matrix owns them,
so matrices may share rows and entries.  `from_entries` builds a matrix
from (i, j, x) triples and `entries()` reads the stored ones back, so a
caller never touches a zero; `m[i, j]`, `row(i)` and `data` read the
entries densely, with the field's zero filled in.  `from_rows` and the
dense constructor convert each distinct raw text or integer once per
matrix: a structure tensor read from JSON repeats a few texts throughout.

A map applied to one tensor slot is never built as a matrix.
`whisker_matmul(l, r, x)` is (I_l (x) A (x) I_r) @ x: it scatters each
stored entry of x over one column of A, so only the rows that receive
an entry are built; `matmul_whisker(a, l, r)` is x @ (I_l (x) a (x) I_r),
spreading each stored entry of x over one row of a.  A product by a
Kronecker product is two of these, (A (x) B) @ x =
A.whisker_matmul(1, B.rows, B.whisker_matmul(A.cols, 1, x)).  `kron` is
for the tensor products that are results in their own right, such as
u (x) u.  This module knows no grading: braidings and their signs belong
to the bialgebra that carries them.

Everything is exact, and every scalar operation goes through the field's
methods, so Q and Q[x]/(f) share this code.  Rank, nullspace, solve,
inverse and determinant all use one Gauss-Jordan elimination on sparse
rows, which keeps a column index (the rows that hold an entry in each
column) so that each pivot visits only the rows that hold its column.
A product of nonzero scalars is nonzero in a field, so only sums
are tested for zero.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .field import Field, FieldError

# every all-zero row of every matrix; like all stored maps, never mutated
_EMPTY: Dict[int, object] = {}
_KEYED = frozenset((str, int))   # the JSON scalars
_UNREAD = object()


def _row_map(field: Field, entries: Sequence,
             read: Dict[object, object]) -> Dict[int, object]:
    """The nonzero entries of a dense row, converted to field elements so
    that equal matrices hash alike.  `read` maps each str or int entry
    met before in the matrix to its value, or None for a zero; an entry
    of another type may equal one of another value (1+0j == 1), so it is
    always converted."""
    is_zero = field.is_zero
    out = {}
    for j, x in enumerate(entries):
        y = read.get(x, _UNREAD) if type(x) in _KEYED else _UNREAD
        if y is _UNREAD:
            y = field(x)
            y = None if is_zero(y) else y
            if type(x) in _KEYED:
                read[x] = y
        if y is not None:
            out[j] = y
    return out or _EMPTY


class Matrix:
    __slots__ = ("field", "rows", "cols", "_maps")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence):
        """From the dense row-major entries."""
        if len(data) != rows * cols:
            raise ValueError("data length does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        read: Dict[object, object] = {}
        self._maps = tuple(_row_map(field, data[i * cols:(i + 1) * cols],
                                    read) for i in range(rows))

    @classmethod
    def _of(cls, field: Field, rows: int, cols: int, maps) -> "Matrix":
        """Adopt row maps that hold no zero and that no caller mutates."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._maps = tuple(maps)
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        """From dense rows of raw entries, converted by `field`."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        read: Dict[object, object] = {}
        return cls._of(field, r, c,
                       [_row_map(field, row, read) for row in rows])

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._of(field, rows, cols, [_EMPTY] * rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one
        return cls._of(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_entries(cls, field: Field, rows: int, cols: int,
                     entries: Iterable[Tuple[int, int, object]]) -> "Matrix":
        """From (i, j, x) triples of field elements, which are not
        converted.  Repeated positions are summed and a zero sum is not
        stored; a position outside the shape raises IndexError."""
        add, is_zero = field.add, field.is_zero
        maps: List[Dict[int, object]] = [{} for _ in range(rows)]
        for i, j, x in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry {(i, j)} outside {rows}x{cols}")
            row = maps[i]
            row[j] = add(row[j], x) if j in row else x
        return cls._of(field, rows, cols,
                       [{j: x for j, x in m.items() if not is_zero(x)}
                        or _EMPTY for m in maps])

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {ij} outside {self.rows}x{self.cols}")
        x = self._maps[i].get(j)
        return self.field.zero if x is None else x

    def entries(self) -> Iterator[Tuple[int, int, object]]:
        """The stored (i, j, x), row by row; x is never zero."""
        for i, m in compress(enumerate(self._maps), self._maps):
            for j, x in m.items():
                yield i, j, x

    def row(self, i: int) -> Tuple:
        entries, zero = self._maps[i], self.field.zero
        return tuple(entries.get(j, zero) for j in range(self.cols))

    @property
    def data(self) -> Tuple:
        """The dense row-major entries."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._maps == other._maps)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(m.items()) for m in self._maps)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.show(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- algebra -----------------------------------------------------------

    def _merge(self, other: "Matrix", op, alone) -> "Matrix":
        """Entrywise op(a, b), with alone(b) where self has no entry."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        is_zero = self.field.is_zero
        maps = []
        for mine, theirs in zip(self._maps, other._maps):
            if not theirs:
                maps.append(mine)
                continue
            out = dict(mine)
            for j, b in theirs.items():
                a = out.get(j)
                if a is None:
                    out[j] = alone(b)
                    continue
                s = op(a, b)
                if is_zero(s):
                    del out[j]
                else:
                    out[j] = s
            maps.append(out or _EMPTY)
        return Matrix._of(self.field, self.rows, self.cols, maps)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, self.field.add, lambda b: b)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, self.field.sub, self.field.neg)

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F(c)
        if F.is_zero(c):
            return Matrix.zero(F, self.rows, self.cols)
        mul = F.mul
        return Matrix._of(F, self.rows, self.cols,
                          [{j: mul(c, a) for j, a in m.items()} or _EMPTY
                           for m in self._maps])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        right = other._maps
        maps = []
        for mine in self._maps:
            acc: Dict[int, object] = {}
            for k, a in mine.items():
                for j, b in right[k].items():
                    s = acc.get(j)
                    acc[j] = mul(a, b) if s is None else add(s, mul(a, b))
            maps.append({j: s for j, s in acc.items() if not is_zero(s)}
                        or _EMPTY)
        return Matrix._of(F, self.rows, other.cols, maps)

    def whisker_matmul(self, left: int, right: int, x: "Matrix") -> "Matrix":
        """(I_left (x) self (x) I_right) @ x without forming the whiskered
        matrix.  Row (a, j, b) of x is a*cols*right + j*right + b, and
        output row (a, i, b) likewise; each stored x[(a, j, b), c] is
        scattered over self's column j, so only the rows that receive an
        entry are built."""
        p, q = self.rows, self.cols
        if left * q * right != x.rows:
            raise ValueError(f"shape mismatch (I_{left} (x) {p}x{q} (x) "
                             f"I_{right}) @ {x.rows}x{x.cols}")
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        columns = [[] for _ in range(q)]    # (i * right, self[i, j]) under j
        for i, j, s in self.entries():
            columns[j].append((i * right, s))
        acc: Dict[int, Dict[int, object]] = {}
        summed = False      # only a sum can be zero
        for k, row in compress(enumerate(x._maps), x._maps):
            a, jb = divmod(k, q * right)
            j, b = divmod(jb, right)
            base = a * p * right + b
            for shift, s in columns[j]:
                target = acc.setdefault(base + shift, {})
                for c, y in row.items():
                    t = target.get(c)
                    if t is None:
                        target[c] = mul(s, y)
                    else:
                        target[c] = add(t, mul(s, y))
                        summed = True
        maps = [_EMPTY] * (left * p * right)
        for i, target in acc.items():
            if summed:
                target = {c: t for c, t in target.items() if not is_zero(t)}
            maps[i] = target or _EMPTY
        return Matrix._of(F, len(maps), x.cols, maps)

    def matmul_whisker(self, a: "Matrix", left: int, right: int) -> "Matrix":
        """self @ (I_left (x) a (x) I_right) without forming the whiskered
        matrix: each stored self[r, (l, i, b)] is spread over a's row i
        into the columns (l, j, b)."""
        p, width = a.rows, a.cols * right
        if self.cols != left * p * right:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"(I_{left} (x) {p}x{a.cols} (x) I_{right})")
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        shifted = [tuple((j * right, y) for j, y in m.items())
                   for m in a._maps]
        maps = []
        for mine in self._maps:
            acc: Dict[int, object] = {}
            summed = False      # only a sum can be zero
            for k, x in mine.items():
                l, ib = divmod(k, p * right)
                i, b = divmod(ib, right)
                base = l * width + b
                for shift, y in shifted[i]:
                    col = base + shift
                    s = acc.get(col)
                    if s is None:
                        acc[col] = mul(x, y)
                    else:
                        acc[col] = add(s, mul(x, y))
                        summed = True
            if summed:
                acc = {j: s for j, s in acc.items() if not is_zero(s)}
            maps.append(acc or _EMPTY)
        return Matrix._of(F, self.rows, left * width, maps)

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor product with index convention (i, j) |-> i*n + j."""
        mul = self.field.mul
        width = other.cols
        right = [tuple(m.items()) for m in other._maps]
        maps = []
        for mine in self._maps:
            left = tuple((j * width, a) for j, a in mine.items())
            for theirs in right:
                maps.append({j + l: mul(a, b) for j, a in left
                             for l, b in theirs} or _EMPTY)
        return Matrix._of(self.field, self.rows * other.rows,
                          self.cols * width, maps)

    def transpose(self) -> "Matrix":
        cols: List[Dict[int, object]] = [{} for _ in range(self.cols)]
        for i, m in enumerate(self._maps):
            for j, x in m.items():
                cols[j][i] = x
        return Matrix._of(self.field, self.cols, self.rows,
                          [c or _EMPTY for c in cols])

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        shift = self.cols
        maps = [{**mine, **{shift + j: x for j, x in theirs.items()}}
                if theirs else mine
                for mine, theirs in zip(self._maps, other._maps)]
        return Matrix._of(self.field, self.rows, self.cols + other.cols, maps)

    # -- elimination --------------------------------------------------------

    def _eliminate(self):
        """Gauss-Jordan elimination on copies of the sparse rows.  Returns
        the reduced rows, the pivot columns, each pivot's value before its
        row was normalized, and the number of row swaps.  holders[c] is
        the set of rows that hold an entry in column c, kept exact on
        every swap, fill-in and cancellation, so a pivot is the lowest row
        at or below r in holders[c], and only those rows are reduced."""
        F = self.field
        mul, sub, neg, is_zero = F.mul, F.sub, F.neg, F.is_zero
        m = [dict(row) for row in self._maps]
        n = self.rows
        holders: List[set] = [set() for _ in range(self.cols)]
        for i, row in enumerate(m):
            for j in row:
                holders[j].add(i)
        pivots: List[int] = []
        values: List[object] = []
        swaps = 0
        r = 0
        for c in range(self.cols):
            if r == n:
                break
            pivot = min((i for i in holders[c] if i >= r), default=None)
            if pivot is None:
                continue
            if pivot != r:
                for i in (r, pivot):
                    for j in m[i]:
                        holders[j].discard(i)
                m[r], m[pivot] = m[pivot], m[r]
                for i in (r, pivot):
                    for j in m[i]:
                        holders[j].add(i)
                swaps += 1
            value = m[r][c]
            inv = F.inv(value)
            prow = {j: mul(inv, x) for j, x in m[r].items()}
            m[r] = prow
            for i in tuple(holders[c]):
                if i == r:
                    continue
                target = m[i]
                f = target[c]
                for j, y in prow.items():
                    t = mul(f, y)
                    x = target.get(j)
                    if x is None:
                        target[j] = neg(t)
                        holders[j].add(i)
                        continue
                    s = sub(x, t)
                    if is_zero(s):
                        del target[j]
                        holders[j].discard(i)
                    else:
                        target[j] = s
            pivots.append(c)
            values.append(value)
            r += 1
        return m, pivots, values, swaps

    def rref(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form and the pivot column list."""
        m, pivots, _, _ = self._eliminate()
        return (Matrix._of(self.field, self.rows, self.cols,
                           [row or _EMPTY for row in m]), pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> List["Matrix"]:
        """Column-vector basis of the kernel."""
        F = self.field
        R, pivots = self.rref()
        taken = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in taken:
                continue
            v = {fc: F.one}
            for r, pc in enumerate(pivots):
                x = R._maps[r].get(fc)
                if x is not None:
                    v[pc] = F.neg(x)
            basis.append(Matrix._of(F, self.cols, 1,
                                    [{0: v[i]} if i in v else _EMPTY
                                     for i in range(self.cols)]))
        return basis

    def solve(self, rhs: "Matrix") -> Optional["Matrix"]:
        """One solution of self @ x = rhs, or None."""
        if rhs.rows != self.rows:
            raise ValueError("rhs shape mismatch")
        R, pivots = self.hstack(rhs).rref()
        n = self.cols
        # a pivot right of the coefficient columns is a row 0 = nonzero
        if pivots and pivots[-1] >= n:
            return None
        maps = [_EMPTY] * n
        for r, pc in enumerate(pivots):
            maps[pc] = {j - n: x for j, x in R._maps[r].items()
                        if j >= n} or _EMPTY
        return Matrix._of(self.field, n, rhs.cols, maps)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise FieldError("only square matrices invert")
        sol = self.solve(Matrix.identity(self.field, self.rows))
        if sol is None or (self @ sol) != Matrix.identity(self.field, self.rows):
            raise FieldError("singular matrix")
        return sol

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def det(self):
        """Product of the pivots, negated once per row swap."""
        if self.rows != self.cols:
            raise FieldError("determinant of a non-square matrix")
        F = self.field
        _, pivots, values, swaps = self._eliminate()
        if len(pivots) < self.rows:
            return F.zero
        det = F.neg(F.one) if swaps % 2 else F.one
        for value in values:
            det = F.mul(det, value)
        return det

