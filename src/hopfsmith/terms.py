"""Formal cell terms for finitely presented strict n-categories (n <= 4).

A term is one of

    Gen(name)           -- a generating cell
    Id(t)               -- the identity cell on t, one dimension up
    Comp(k, left, right)-- composite along the k-dimensional boundary,
                           in diagram order: left first, then right,
                           so target_k(left) must match source_k(right)
    Inv(t)              -- formal inverse; only legal when every generator
                           occurring in t is marked invertible

Terms are immutable and hashable.  All structural operations here
(`dim`, `boundary`, `normalize`) are pure functions of the term and the
ambient presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

SOURCE = "source"
TARGET = "target"


class TermError(Exception):
    """Malformed term: bad dimension, bad boundary, or illegal Inv."""


@dataclass(frozen=True)
class Gen:
    name: str

    def __repr__(self) -> str:
        return f"Gen({self.name!r})"


@dataclass(frozen=True)
class Id:
    inner: "CellTerm"

    def __repr__(self) -> str:
        return f"Id({self.inner!r})"


@dataclass(frozen=True)
class Comp:
    k: int
    left: "CellTerm"
    right: "CellTerm"

    def __repr__(self) -> str:
        return f"Comp({self.k}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class Inv:
    inner: "CellTerm"

    def __repr__(self) -> str:
        return f"Inv({self.inner!r})"


CellTerm = Union[Gen, Id, Comp, Inv]


def comp(k: int, *parts: CellTerm) -> CellTerm:
    """Left-associated k-composite of one or more parts, in diagram order."""
    if not parts:
        raise TermError("empty composite")
    out = parts[0]
    for p in parts[1:]:
        out = Comp(k, out, p)
    return out


def idn(t: CellTerm, times: int = 1) -> CellTerm:
    for _ in range(times):
        t = Id(t)
    return t


def generators(t: CellTerm) -> Iterator[str]:
    """All generator names occurring in t, with multiplicity."""
    if isinstance(t, Gen):
        yield t.name
    elif isinstance(t, Id):
        yield from generators(t.inner)
    elif isinstance(t, Inv):
        yield from generators(t.inner)
    else:
        yield from generators(t.left)
        yield from generators(t.right)


class Signature:
    """Just enough of a presentation to compute dimensions and boundaries:
    a map name -> (dim, src, tgt) with src/tgt = None in dimension 0."""

    def __init__(self, table):
        self.table = dict(table)

    def dim_of(self, name: str) -> int:
        return self.table[name][0]

    def src_of(self, name: str):
        return self.table[name][1]

    def tgt_of(self, name: str):
        return self.table[name][2]

    def __contains__(self, name: str) -> bool:
        return name in self.table


def dim(t: CellTerm, sig: Signature) -> int:
    if isinstance(t, Gen):
        if t.name not in sig:
            raise TermError(f"unknown generator {t.name!r}")
        return sig.dim_of(t.name)
    if isinstance(t, Id):
        return dim(t.inner, sig) + 1
    if isinstance(t, Inv):
        return dim(t.inner, sig)
    dl = dim(t.left, sig)
    dr = dim(t.right, sig)
    if dl != dr:
        raise TermError(f"composite of unequal dimensions {dl} and {dr}")
    if not 0 <= t.k < dl:
        raise TermError(f"illegal composition level {t.k} for dimension {dl}")
    return dl


def top_boundary(t: CellTerm, side: str, sig: Signature) -> CellTerm:
    """The (dim-1)-dimensional source or target of t."""
    if isinstance(t, Gen):
        b = sig.src_of(t.name) if side == SOURCE else sig.tgt_of(t.name)
        if b is None:
            raise TermError(f"0-cell {t.name!r} has no boundary")
        return b
    if isinstance(t, Id):
        return t.inner
    if isinstance(t, Inv):
        return top_boundary(t.inner, TARGET if side == SOURCE else SOURCE, sig)
    d = dim(t, sig)
    if t.k == d - 1:
        part = t.left if side == SOURCE else t.right
        return top_boundary(part, side, sig)
    # composition at a deeper level: boundaries compose at the same level
    return Comp(t.k, top_boundary(t.left, side, sig),
                top_boundary(t.right, side, sig))


def boundary(t: CellTerm, side: str, k: int, sig: Signature) -> CellTerm:
    """The k-dimensional source or target of t, for 0 <= k < dim(t)."""
    d = dim(t, sig)
    if not 0 <= k < d:
        raise TermError(f"boundary level {k} out of range for dimension {d}")
    out = t
    while d > k + 1:
        out = top_boundary(out, side, sig)
        d -= 1
    return top_boundary(out, side, sig)


def identity_core(t: CellTerm) -> Tuple[CellTerm, int]:
    """Strip Id wrappers, returning (core, number of wrappers)."""
    n = 0
    while isinstance(t, Id):
        t = t.inner
        n += 1
    return t, n


def normalize(t: CellTerm, sig: Signature, push_inv: bool = True) -> CellTerm:
    """Id-normalization.

    Eagerly performed before any comparison:
      * unit absorption  Comp(k, id-tower, x) = x  (and symmetrically),
        whenever the identity factor is an Id-tower over its own boundary;
      * identity functoriality  Comp(k, Id a, Id b) = Id(Comp(k, a, b));
      * Inv pushed to the leaves;  Inv(Id t) = Id t;  Inv(Inv t) = t.
    The result has the same dimension and boundaries as the input.
    Semantic evaluation passes push_inv=False to keep formal inverses
    at the level of whole composites.
    """
    if isinstance(t, Gen):
        return t
    if isinstance(t, Id):
        return Id(normalize(t.inner, sig, push_inv))
    if isinstance(t, Inv):
        inner = normalize(t.inner, sig, push_inv)
        if not push_inv:
            if isinstance(inner, Inv):
                return inner.inner
            return Inv(inner)
        return _push_inv(inner, sig)
    left = normalize(t.left, sig, push_inv)
    right = normalize(t.right, sig, push_inv)
    d = dim(left, sig)
    # absorb identity factors: an Id-tower of height d - k over a (k-dim) cell
    lcore, lh = identity_core(left)
    if lh >= d - t.k:
        return right
    rcore, rh = identity_core(right)
    if rh >= d - t.k:
        return left
    # functoriality of Id over composition
    if isinstance(left, Id) and isinstance(right, Id):
        return Id(normalize(Comp(t.k, left.inner, right.inner), sig, push_inv))
    return Comp(t.k, left, right)


def _push_inv(t: CellTerm, sig: Signature) -> CellTerm:
    if isinstance(t, Inv):
        return t.inner
    if isinstance(t, Id):
        return t
    if isinstance(t, Comp):
        return Comp(t.k, _push_inv(t.right, sig), _push_inv(t.left, sig))
    return Inv(t)


def flatten(t: CellTerm, k: int) -> list:
    """The list of k-composition factors of t, in diagram order."""
    if isinstance(t, Comp) and t.k == k:
        return flatten(t.left, k) + flatten(t.right, k)
    return [t]


# ---------------------------------------------------------------------------
# S-expression syntax: (gen NAME), (id EXPR), (compK L R), (inv EXPR)

def parse_term(text: str) -> CellTerm:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    term, rest = _parse_tokens(tokens)
    if rest:
        raise TermError(f"trailing tokens {rest!r} in term {text!r}")
    return term


def _parse_tokens(tokens):
    if not tokens:
        raise TermError("unexpected end of term")
    tok = tokens[0]
    if tok != "(":
        raise TermError(f"expected '(' but found {tok!r}")
    head, rest = tokens[1], tokens[2:]
    if head == "gen":
        name, rest = rest[0], rest[1:]
        out: CellTerm = Gen(name)
    elif head == "id":
        inner, rest = _parse_tokens(rest)
        out = Id(inner)
    elif head == "inv":
        inner, rest = _parse_tokens(rest)
        out = Inv(inner)
    elif head.startswith("comp") and head[4:].isdigit():
        k = int(head[4:])
        if k > 3:
            raise TermError(f"composition level {k} exceeds the dimension cap")
        left, rest = _parse_tokens(rest)
        right, rest = _parse_tokens(rest)
        out = Comp(k, left, right)
    else:
        raise TermError(f"unknown term head {head!r}")
    if not rest or rest[0] != ")":
        raise TermError(f"missing ')' after {head}")
    return out, rest[1:]


def print_term(t: CellTerm) -> str:
    if isinstance(t, Gen):
        return f"(gen {t.name})"
    if isinstance(t, Id):
        return f"(id {print_term(t.inner)})"
    if isinstance(t, Inv):
        return f"(inv {print_term(t.inner)})"
    return f"(comp{t.k} {print_term(t.left)} {print_term(t.right)})"
