"""Formal cell terms for finitely presented strict n-categories (n <= 4).

A term is one of

    Gen(name)           -- a generating cell
    Id(t)               -- the identity cell on t, one dimension up
    Comp(k, left, right)-- composite along the k-dimensional boundary,
                           in diagram order: left first, then right,
                           so target_k(left) must match source_k(right)
    Inv(t)              -- formal inverse; only legal when every generator
                           occurring in t is marked invertible

Terms are immutable and hashable records (`record.Record`): each node
class keeps its fields in `__slots__` that its `__init__` writes through
setters bound once to the slot descriptors, and any later write or
delete raises AttributeError.  Term construction dominates the rewriting
engine, so each node spells out its own equality, hash, repr and pickle
reduction instead of reading them off its slot list: equality checks
identity, then the class, then each field; a hash mixes a fixed tag per
class with the fields, so it repeats across processes under one
PYTHONHASHSEED.  `Generator`, built once per generator of a
presentation, is a record with a slot-setter `__init__` of its own.

All structural operations here (`dim`, `normalize`, `top_boundary`) are
pure functions of the term and a generator table, the mapping name ->
`Generator` that a presentation keeps as `gens`, and each visits every
node of its input once, so all three are linear in the size of the
term.  `normalize` computes dimensions bottom-up in the same pass
(`normal_dim` returns both).  `top_boundary` is the one boundary walk:
it builds the normal form of a top boundary directly, from the normal
generator faces its caller gives (a presentation keeps one table of
them, and `Presentation.boundary` iterates the walk over it), so every
boundary the program takes is normal.  Both build a composite of normal
parts with `normal_comp`, as any caller holding normal parts should.

Every walk here dispatches once per node on the node's class by
identity (`t.__class__ is Comp`), and `normal_dim` reads a leaf's
dimension from the generator table itself.  `normalize` raises TermError
exactly where `dim` does, with the same message, so a normal form is
always well-formed.  Normal forms are closed under subterms: every
subterm of a normal term is normal, and normalize is idempotent, so code
that walks a normal term, as `rewriting.word_of` and `stack_of` do, need
not normalize its parts again.  A normal form's boundaries agree with
its input's only up to eq (see `normalize`).

The S-expression syntax is read and written without recursion:
`parse_term` is one left-to-right scan of the tokens with its own stack
of open nodes, and `print_term` one walk that joins its parts once, so
both are linear in the size of the term at any depth.  Equality walks
the left spine of a composite in a loop, so a left comb such as the
word `comp` builds compares at any length; it recurses into right parts
and under `Id` and `Inv`.  Hashing, `dim`, `normalize` and
`top_boundary` still recurse once per level of nesting, so a term nested
about a thousand levels deep reaches Python's recursion limit there.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Mapping, Optional, Tuple,
                    Union)

from .record import Record

SOURCE = "source"
TARGET = "target"
# the dimension cap: no generator, composition level or tensor goes above it
MAX_DIM = 4


class TermError(Exception):
    """Malformed term: bad dimension, bad boundary, or illegal Inv."""


class _Value(Record):
    """The base of the term nodes, which compare only with each other."""

    __slots__ = ()


# the per-class hash tags: ints, whose hashes no seed changes
_GEN, _ID, _COMP, _INV = range(4)


class Gen(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Gen:
            return False if isinstance(other, _Value) else NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((_GEN, self.name))

    def __reduce__(self):
        return Gen, (self.name,)

    def __repr__(self) -> str:
        return f"Gen({self.name!r})"


class Id(_Value):
    __slots__ = ("inner",)

    def __init__(self, inner: "CellTerm"):
        _set_id_inner(self, inner)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Id:
            return False if isinstance(other, _Value) else NotImplemented
        return self.inner == other.inner

    def __hash__(self) -> int:
        return hash((_ID, self.inner))

    def __reduce__(self):
        return Id, (self.inner,)

    def __repr__(self) -> str:
        return f"Id({self.inner!r})"


class Comp(_Value):
    __slots__ = ("k", "left", "right")

    def __init__(self, k: int, left: "CellTerm", right: "CellTerm"):
        _set_k(self, k)
        _set_left(self, left)
        _set_right(self, right)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Comp:
            return False if isinstance(other, _Value) else NotImplemented
        # the left spine in a loop, so a left comb compares at any length
        a, b = self, other
        while a.k == b.k and a.right == b.right:
            a, b = a.left, b.left
            if a is b:
                return True
            if a.__class__ is not Comp or b.__class__ is not Comp:
                return a == b
        return False

    def __hash__(self) -> int:
        return hash((_COMP, self.k, self.left, self.right))

    def __reduce__(self):
        return Comp, (self.k, self.left, self.right)

    def __repr__(self) -> str:
        return f"Comp({self.k}, {self.left!r}, {self.right!r})"


class Inv(_Value):
    __slots__ = ("inner",)

    def __init__(self, inner: "CellTerm"):
        _set_inv_inner(self, inner)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Inv:
            return False if isinstance(other, _Value) else NotImplemented
        return self.inner == other.inner

    def __hash__(self) -> int:
        return hash((_INV, self.inner))

    def __reduce__(self):
        return Inv, (self.inner,)

    def __repr__(self) -> str:
        return f"Inv({self.inner!r})"


CellTerm = Union[Gen, Id, Comp, Inv]


class Generator(Record):
    # src and tgt are None exactly in dimension 0
    __slots__ = ("name", "dim", "src", "tgt", "invertible")

    def __init__(self, name: str, dim: int, src: Optional[CellTerm],
                 tgt: Optional[CellTerm], invertible: bool = False):
        _set_gen_name(self, name)
        _set_dim(self, dim)
        _set_src(self, src)
        _set_tgt(self, tgt)
        _set_invertible(self, invertible)


# the slot descriptors' setters, bound once: the one way a field is written
_set_name = Gen.name.__set__
_set_id_inner = Id.inner.__set__
_set_k = Comp.k.__set__
_set_left = Comp.left.__set__
_set_right = Comp.right.__set__
_set_inv_inner = Inv.inner.__set__
_set_gen_name = Generator.name.__set__
_set_dim = Generator.dim.__set__
_set_src = Generator.src.__set__
_set_tgt = Generator.tgt.__set__
_set_invertible = Generator.invertible.__set__


Gens = Mapping[str, Generator]


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
    """All generator names occurring in t, with multiplicity, left to
    right.  The walk keeps its own stack, so no depth of t reaches the
    recursion limit."""
    todo = [t]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is Gen:
            yield t.name
        elif cls is Comp:
            todo.append(t.right)
            todo.append(t.left)
        else:
            todo.append(t.inner)


def illegal_inverses(t: CellTerm, gens: Gens) -> Iterator[str]:
    """The generators occurring under an Inv in t that are not marked
    invertible, once per occurrence, left to right.  Every name in t must
    be in gens.  The walk keeps its own stack, so no depth of t reaches
    the recursion limit."""
    todo = [(t, False)]
    while todo:
        t, inverted = todo.pop()
        cls = t.__class__
        if cls is Gen:
            if inverted and not gens[t.name].invertible:
                yield t.name
        elif cls is Comp:
            todo.append((t.right, inverted))
            todo.append((t.left, inverted))
        else:
            todo.append((t.inner, inverted or cls is Inv))


def has_illegal_inverse(t: CellTerm, gens: Gens) -> bool:
    """any(illegal_inverses(t, gens)), by a walk that carries no flag and
    stops at the first one: only the generators under an Inv are looked
    up.  The walk keeps its own stack."""
    todo = [t]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is Comp:
            todo.append(t.right)
            todo.append(t.left)
        elif cls is Id:
            todo.append(t.inner)
        elif cls is Inv:
            for name in generators(t.inner):
                if not gens[name].invertible:
                    return True
    return False


def substitute(t: CellTerm, image: Callable[[str], CellTerm],
               shift: int = 0) -> CellTerm:
    """t with each generator replaced by image(name), every Id and Inv
    rebuilt as it is, and every Comp rebuilt at its level plus shift.
    This is how a map of presentations, the tensor with a fixed object,
    or a suspension (shift 1) acts on terms."""
    cls = t.__class__
    if cls is Gen:
        return image(t.name)
    if cls is Comp:
        return Comp(t.k + shift, substitute(t.left, image, shift),
                    substitute(t.right, image, shift))
    return type(t)(substitute(t.inner, image, shift))


def dim(t: CellTerm, gens: Gens) -> int:
    cls = t.__class__
    if cls is Gen:
        try:
            return gens[t.name].dim
        except KeyError:
            raise TermError(f"unknown generator {t.name!r}") from None
    if cls is Comp:
        return _comp_dim(t.k, dim(t.left, gens), dim(t.right, gens))
    d = dim(t.inner, gens)
    return d + 1 if cls is Id else d


def _comp_dim(k: int, dl: int, dr: int) -> int:
    """The dimension of a k-composite of parts of dimensions dl and dr."""
    if dl != dr:
        raise TermError(f"composite of unequal dimensions {dl} and {dr}")
    if not 0 <= k < dl:
        raise TermError(f"illegal composition level {k} for dimension {dl}")
    return dl


def identity_core(t: CellTerm) -> Tuple[CellTerm, int]:
    """Strip Id wrappers, returning (core, number of wrappers)."""
    n = 0
    while t.__class__ is Id:
        t = t.inner
        n += 1
    return t, n


def normalize(t: CellTerm, gens: Gens, push_inv: bool = True) -> CellTerm:
    """Id-normalization.

    Eagerly performed before any comparison:
      * unit absorption  Comp(k, id-tower, x) = x  (and symmetrically),
        whenever the identity factor is an Id-tower over its own boundary;
      * identity functoriality  Comp(k, Id a, Id b) = Id(Comp(k, a, b));
      * Inv pushed to the leaves;  Inv(Id t) = Id t;  Inv(Inv t) = t.
    The result has the same dimension as the input.  Its boundaries
    agree with the input's only up to eq: unit absorption drops an
    identity factor whose cell is its neighbour's boundary only up to eq,
    so the top boundary of normalize(t) and that of t can differ as
    syntax.  An ill-formed input raises the TermError that dim(t) raises.
    Semantic evaluation passes push_inv=False to keep formal inverses
    at the level of whole composites.
    """
    return normal_dim(t, gens, push_inv)[0]


def normal_dim(t: CellTerm, gens: Gens,
               push_inv: bool = True) -> Tuple[CellTerm, int]:
    """(normalize(t, gens, push_inv), dim(t, gens)), bottom-up in one
    pass.  When its parts come back unchanged and none is an identity, t
    itself is returned rather than rebuilt."""
    cls = t.__class__
    if cls is Gen:
        try:
            return t, gens[t.name].dim
        except KeyError:
            raise TermError(f"unknown generator {t.name!r}") from None
    if cls is Id:
        inner, d = normal_dim(t.inner, gens, push_inv)
        return (t if inner is t.inner else Id(inner)), d + 1
    if cls is Inv:
        inner, d = normal_dim(t.inner, gens, push_inv)
        if push_inv:
            return _push_inv(inner, d), d
        if inner.__class__ is Inv:
            return inner.inner, d
        return (t if inner is t.inner else Inv(inner)), d
    left, dl = normal_dim(t.left, gens, push_inv)
    right, dr = normal_dim(t.right, gens, push_inv)
    if left.__class__ is Id or right.__class__ is Id:
        return normal_comp(t.k, left, dl, right, dr), dl
    d = _comp_dim(t.k, dl, dr)
    if left is t.left and right is t.right:
        return t, d
    return Comp(t.k, left, right), d


def normal_comp(k: int, left: CellTerm, dl: int, right: CellTerm,
                dr: int) -> CellTerm:
    """The normal form of Comp(k, left, right) for normal parts of
    dimensions dl and dr, built without walking the parts: what
    normalize gives for that composite.  Raises the TermError dim raises
    on it."""
    d = _comp_dim(k, dl, dr)
    # absorb identity factors: an Id-tower of height d - k over a (k-dim) cell
    if identity_core(left)[1] >= d - k:
        return right
    if identity_core(right)[1] >= d - k:
        return left
    # functoriality of Id over composition
    if left.__class__ is Id and right.__class__ is Id:
        return Id(normal_comp(k, left.inner, d - 1, right.inner, d - 1))
    return Comp(k, left, right)


def top_boundary(t: CellTerm, side: str, d: int, gens: Gens,
                 face: Callable[[str, str], Optional[CellTerm]]
                 ) -> Optional[CellTerm]:
    """The (d-1)-dimensional source or target of a well-formed t of
    dimension d, built already normal: from the normal generator faces
    face(name, side) gives and the normal forms of the inner cells of
    identities, composed with normal_comp.  t need not be normal, so a
    side is read as it is written.  None when a face it needs is None.
    Every face the boundary needs is read first, so a generator without a
    boundary raises face's TermError wherever it sits."""
    cls = t.__class__
    if cls is Gen:
        return face(t.name, side)
    if cls is Id:
        return normal_dim(t.inner, gens)[0]
    if cls is Inv:
        return top_boundary(t.inner, TARGET if side == SOURCE else SOURCE,
                            d, gens, face)
    if t.k == d - 1:
        return top_boundary(t.left if side == SOURCE else t.right, side, d,
                            gens, face)
    left = top_boundary(t.left, side, d, gens, face)
    right = top_boundary(t.right, side, d, gens, face)
    if left is None or right is None:
        return None
    # both parts have dimension d - 1, so the composite is well-formed
    return normal_comp(t.k, left, d - 1, right, d - 1)


def _push_inv(t: CellTerm, d: int) -> CellTerm:
    """Inv of a normal term of dimension d, pushed to its leaves; the
    result is normal.  Only the top composition reverses: the inverse of
    a (d-1)-composite is the composite of the inverses in the other
    order, while a lower composite keeps its order (the inverse of
    a comp0 b is inv a comp0 inv b)."""
    cls = t.__class__
    if cls is Gen:
        return Inv(t)
    if cls is Comp:
        left, right = _push_inv(t.left, d), _push_inv(t.right, d)
        if t.k == d - 1:
            left, right = right, left
        return Comp(t.k, left, right)
    return t.inner if cls is Inv else t


def flatten(t: CellTerm, k: int) -> list:
    """The list of k-composition factors of t, in diagram order."""
    out = []
    todo = [t]
    while todo:
        t = todo.pop()
        if t.__class__ is Comp and t.k == k:
            todo.append(t.right)
            todo.append(t.left)
        else:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# S-expression syntax: (gen NAME), (id EXPR), (compK L R), (inv EXPR)


def parse_term(text: str, leaves: Optional[Dict[str, Gen]] = None
               ) -> CellTerm:
    """The term text writes, read in one left-to-right scan of its tokens.
    The scan keeps the nodes still open on its own stack, so no depth of
    nesting reaches the recursion limit, and a malformed text raises
    TermError at the first token that cannot continue it.  A reader of
    many texts passes leaves, the Gen of each name read so far, which the
    scan reuses and extends."""
    if leaves is None:
        leaves = {}
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    n = len(tokens)
    i = 0
    # the open nodes, innermost last: Id or Inv for an identity or an
    # inverse; a composite's head and level, then its left part once read
    open_: list = []
    while True:
        # a term starts at token i
        if i + 1 >= n or tokens[i] != "(":
            if i < n and tokens[i] != "(":
                raise TermError(f"expected '(' but found {tokens[i]!r}")
            raise TermError("unexpected end of term")
        head = tokens[i + 1]
        i += 2
        if head == "gen":
            if i >= n:
                raise TermError("unexpected end of term")
            name = tokens[i]
            out: CellTerm = leaves.get(name)
            if out is None:
                out = leaves[name] = Gen(name)
            i += 1
        else:
            node = _OPENS.get(head)
            if node is None:
                node = _comp_level(head)
            if node.__class__ is int:
                open_ += (head, node)
            else:
                open_.append(node)
            continue
        # out is read up to its ')'; close every node it completes
        while True:
            if i >= n or tokens[i] != ")":
                raise TermError(f"missing ')' after {head}")
            i += 1
            if not open_:
                if i < n:
                    raise TermError(
                        f"trailing tokens {tokens[i:]!r} in term {text!r}")
                return out
            node = open_.pop()
            if node is Id or node is Inv:
                out = node(out)
                head = "id" if node is Id else "inv"
            elif node.__class__ is int:
                open_ += (node, out)  # the right part starts at token i
                break
            else:
                k = open_.pop()
                head = open_.pop()
                out = Comp(k, node, out)


# what each head but gen opens: an identity, an inverse, or a composite
# at its level
_OPENS = {"id": Id, "inv": Inv, **{f"comp{k}": k for k in range(MAX_DIM)}}


def _comp_level(head: str) -> int:
    """The level of a composite head that _OPENS does not hold, such as
    comp00; TermError for any other head."""
    if not (head.startswith("comp") and head[4:].isascii()
            and head[4:].isdigit()):
        raise TermError(f"unknown term head {head!r}")
    # the level as int() writes it, without reading a long run of digits
    # as a number
    level = head[4:].lstrip("0") or "0"
    if len(level) > 1 or int(level) >= MAX_DIM:
        raise TermError(
            f"composition level {level} exceeds the dimension cap")
    return int(level)


def print_term(t: CellTerm) -> str:
    """The S-expression of t, in one walk that keeps its own stack and
    joins the parts once, so it is linear in the size of t at any depth.
    The walk descends each left spine, keeping the right parts still to
    print, and None for each ')' still to close, on its stack."""
    parts: List[str] = []
    todo: List[Optional[CellTerm]] = []
    while True:
        cls = t.__class__
        while cls is not Gen:
            if cls is Comp:
                parts.append(f"(comp{t.k} ")
                todo.append(t.right)
                t = t.left
            else:
                parts.append("(id " if cls is Id else "(inv ")
                todo.append(None)
                t = t.inner
            cls = t.__class__
        parts.append(f"(gen {t.name})")
        while todo:
            t = todo.pop()
            if t is not None:  # the right part of a composite comes next
                parts.append(" ")
                todo.append(None)
                break
            parts.append(")")
        else:
            return "".join(parts)
