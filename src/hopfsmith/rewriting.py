"""Stratified equality for cell terms.

The decision procedure is dimension-stratified and deliberately partial:

  dim 0   generator names
  dim 1   free words in the 1-generators; oriented 1-rules rewrite any
          contiguous match, and every rewrite is freely reduced
  dim 2   layered interchange: a 2-cell is decomposed into layers, one
          whiskered atom each; whisker-disjoint layers slide past each
          other into a greedy firing order (not a normal form, so single
          slides stay search moves); oriented 2-relations
          and formal-inverse cancellation are the other moves
  dim >=3 move chains, whose moves are compared as normalized terms,
          rewritten by oriented relations and cancelled in inverse pairs

Dimensions 1 and up are decided by one two-sided search (_meet): a
frontier loop (_explore) from the first side until it reaches the
second side's word, chain or cancelled canonical stack, then from the
second side until it reaches a state the first side reached.  Both
spend the caller's Budget: one unit per expanded state, and one per rule
window tried, in every dimension.  An exhausted budget gives Unknown.

A stack is a complete value: stack_of gives each atom its generator's
source and target words (swapped when inverted) from the presentation's
boundary-word table.  The 2-cell search runs in the `interchange` kernel
on packed states: _eq2 builds one atom table per search, an int id per
atom and its inverse with their words, packs both stacks and the
oriented 2-rules into (source word, (offset, id, ...)) tuples once, and
_meet explores those, so slides, canonicalization, cancellation and rule
matching are functions of the states and the table alone.  Stack,
slide and slide_left stay for evaluate, and canonical_stack packs a
single stack for the kernel and unpacks the result.

Every comparison starts with the boundary certificate, `parallel`: the
k-sources and k-targets of both sides are taken once each and compared
from level 0 upward, each level by its own decision alone.  Each pair
starts from the budget left when the certificate began, so running out
on one pair never hides a difference at another.  Validation uses the
same call for a generator's source and target and a relation's sides,
and names the lowest level that differs.

Verdicts are Equal / Distinct / Unknown.  Both sides are normalized
first; a side that is ill-formed, or that has a formal inverse of a
generator not marked invertible, is Unknown.  Distinct is only produced
with a certificate: differing boundaries, or, in dimensions 1 and 2,
two fully explored rewrite searches that do not meet.  Move chains are
never Distinct.

`presentation` imports this module, for validation and the boundary-word
table, so this module names `Presentation` only in annotations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, AbstractSet, Callable, Container, Dict,
                    Iterable, List, Optional, Sequence, Tuple, TypeVar)

from . import interchange
from .terms import (CellTerm, Comp, Gen, Id, Inv, SOURCE, TARGET, TermError,
                    boundary, flatten, illegal_inverses, print_term,
                    top_boundary)

if TYPE_CHECKING:  # presentation imports this module
    from .presentation import Presentation


class Verdict:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


EQ_EQUAL = Verdict("Equal")
EQ_DISTINCT = Verdict("Distinct")
EQ_UNKNOWN = Verdict("Unknown")

DEFAULT_BUDGET = 10_000


def default_budget() -> int:
    try:
        return int(os.environ.get("HOPFSMITH_BUDGET", DEFAULT_BUDGET))
    except ValueError:
        return DEFAULT_BUDGET


class Budget:
    def __init__(self, steps: int):
        self.left = steps

    def spend(self, n: int = 1) -> bool:
        self.left -= n
        return self.left >= 0


# ---------------------------------------------------------------------------
# words: 1-cells as tuples of signed letters


Letter = Tuple[str, bool]  # (generator name, inverted)


def word_of(t: CellTerm, p: Presentation) -> Tuple[Letter, ...]:
    """Flatten a 1-cell term to its word of generator letters."""
    out: List[Letter] = []
    # the factors of a normal term are normal
    for f in flatten(p.normalize(t), 0):
        if isinstance(f, Id):
            continue
        if isinstance(f, Gen):
            out.append((f.name, False))
        elif isinstance(f, Inv) and isinstance(f.inner, Gen):
            out.append((f.inner.name, True))
        else:
            raise TermError(f"not a 1-cell word factor: {f!r}")
    return _cancel_word(tuple(out))


def _cancel_word(w: Tuple[Letter, ...]) -> Tuple[Letter, ...]:
    out: List[Letter] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] != letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _word_rules(p: Presentation):
    return [(word_of(r.lhs, p), word_of(r.rhs, p))
            for r in p.relations if r.dim == 1 and r.oriented]


def _join(u: Tuple[Letter, ...], v: Tuple[Letter, ...]) -> Tuple[Letter, ...]:
    """The free reduction of u + v for freely reduced u and v: letters
    cancel only where the two meet."""
    j, n = 0, min(len(u), len(v))
    while j < n and u[-1 - j][0] == v[j][0] and u[-1 - j][1] != v[j][1]:
        j += 1
    return u[:len(u) - j] + v[j:]


def _rewrites(seq: tuple, rules, budget: Budget,
              join: Callable[[tuple, tuple], tuple] = tuple.__add__
              ) -> Iterable[tuple]:
    """The successors of a word or a move chain: seq with one contiguous
    match of an oriented rule's left side replaced by its right side, the
    parts joined by join (_join for a word).  Each window tried spends one
    unit of the budget, as _match_rule does for stacks."""
    for lhs, rhs in rules:
        n = len(lhs)
        for i in range(len(seq) - n + 1):
            if not budget.spend():
                return
            if seq[i:i + n] == lhs:
                yield join(join(seq[:i], rhs), seq[i + n:])


# ---------------------------------------------------------------------------
# layers: 2-cells as whiskered atom stacks


@dataclass(frozen=True)
class Atom:
    name: str
    inverted: bool
    # the words it fires on and leaves; equality and hashing ignore them
    src: Tuple[Letter, ...] = field(compare=False)
    tgt: Tuple[Letter, ...] = field(compare=False)

    def inverse(self) -> "Atom":
        return Atom(self.name, not self.inverted, self.tgt, self.src)


@dataclass(frozen=True)
class Layer:
    offset: int
    atom: Atom


@dataclass(frozen=True)
class Stack:
    """A 2-cell in layer form: the source word plus the layer sequence."""
    srcword: Tuple[Letter, ...]
    layers: Tuple[Layer, ...]

    def word_before(self, i: int) -> Tuple[Letter, ...]:
        """The word after the first i layers fire; TermError when a layer
        does not fit the word it fires on."""
        w = self.srcword
        for layer in self.layers[:i]:
            a, b = layer.atom.src, layer.atom.tgt
            if w[layer.offset:layer.offset + len(a)] != a:
                raise TermError("layer does not fit its word")
            w = w[:layer.offset] + b + w[layer.offset + len(a):]
        return w

    def tgtword(self) -> Tuple[Letter, ...]:
        return self.word_before(len(self.layers))


def stack_of(t: CellTerm, p: Presentation) -> Stack:
    """Layer decomposition of a 2-cell term.  The term is normalized once
    and its source boundary taken once; _layers_rec then walks the normal
    term without normalizing again, so the cost is linear in its size
    plus the boundary words of its 0-composites' left parts.  TermError
    when a generator's boundary is not a word."""
    t = p.normalize(t)
    d = p.dim(t)
    if d != 2:
        raise TermError(f"not a 2-cell term: dimension {d}")
    src = word_of(top_boundary(t, SOURCE, p.gens, d), p)
    layers = tuple(_layers_rec(t, 0, p))
    return Stack(src, layers)


def _layers_rec(t: CellTerm, offset: int, p: Presentation) -> List[Layer]:
    """The layers of a normal 2-cell term whose source word starts at
    offset.  Its subterms are normal too, so none is normalized again;
    boundaries are taken at the known dimension 2."""
    if isinstance(t, Id):
        return []
    if isinstance(t, Gen):
        return [Layer(offset, Atom(t.name, False, *p.boundary_words(t.name)))]
    if isinstance(t, Inv):
        if isinstance(t.inner, Gen):
            atom = Atom(t.inner.name, False, *p.boundary_words(t.inner.name))
            return [Layer(offset, atom.inverse())]
        raise TermError(f"Inv not pushed to a leaf: {t!r}")
    if not isinstance(t, Comp):
        raise TermError(f"not a 2-cell term: {t!r}")
    if t.k == 1:
        return (_layers_rec(t.left, offset, p)
                + _layers_rec(t.right, offset, p))
    if t.k == 0:
        # interchange expansion, left part fires first
        left_tgt = word_of(top_boundary(t.left, TARGET, p.gens, 2), p)
        left_layers = _layers_rec(t.left, offset, p)
        right_layers = _layers_rec(t.right, offset + len(left_tgt), p)
        return left_layers + right_layers
    raise TermError(f"composition level {t.k} inside a 2-cell")


def _swap_variants(a: Layer, b: Layer) -> List[Tuple[Layer, Layer]]:
    """All legal interchanges of adjacent layers a-then-b, as b'-then-a'
    pairs.  Normally at most one reading applies; when an insertion and a
    deletion meet at a single point (both boundary intervals empty at one
    offset) both readings are valid and genuinely equal by the interchange
    law, so both are returned."""
    a_src, a_tgt = a.atom.src, a.atom.tgt
    b_src, b_tgt = b.atom.src, b.atom.tgt
    out: List[Tuple[Layer, Layer]] = []
    if a.offset + len(a_tgt) <= b.offset:
        # b lies right of a's output: b can fire first
        shift = len(a_src) - len(a_tgt)
        out.append((Layer(b.offset + shift, b.atom), a))
    if b.offset + len(b_src) <= a.offset:
        # b lies left of a
        shift = len(b_tgt) - len(b_src)
        out.append((b, Layer(a.offset + shift, a.atom)))
    return out


def slide(a: Layer, b: Layer) -> Optional[Tuple[Layer, Layer]]:
    """The first legal interchange of adjacent layers a-then-b, as a
    b'-then-a' pair, or None when they do not commute."""
    variants = _swap_variants(a, b)
    return variants[0] if variants else None


def slide_left(block: Sequence[Layer],
               layer: Layer) -> Optional[Tuple[Layer, List[Layer]]]:
    """Slide a layer that fires right after the layers of block so that it
    fires before all of them.  Returns (the moved layer, the adjusted
    block as a list), or None when some layer of block does not commute
    with it."""
    adjusted: List[Layer] = []
    for prev in reversed(block):
        swapped = slide(prev, layer)
        if swapped is None:
            return None
        layer, shifted = swapped
        adjusted.append(shifted)
    adjusted.reverse()
    return layer, adjusted


def _pack(layers: Sequence[Layer],
          table: interchange.AtomTable) -> Tuple[int, ...]:
    """Layers as a flat (offset, atom id, ...) tuple, adding each atom to
    the table."""
    flat: List[int] = []
    for layer in layers:
        a = layer.atom
        flat += (layer.offset, table.add(a.name, a.inverted, a.src, a.tgt))
    return tuple(flat)


def _unpack(state: interchange.State,
            table: interchange.AtomTable) -> Stack:
    word, flat = state
    return Stack(word, tuple(
        Layer(o, Atom(*table.keys[x], table.src[x], table.tgt[x]))
        for o, x in zip(flat[0::2], flat[1::2])))


def canonical_stack(stack: Stack) -> Stack:
    """The greedy firing order of interchange.canonical, on a stack."""
    table = interchange.AtomTable()
    state = (stack.srcword, _pack(stack.layers, table))
    return _unpack(interchange.canonical(table, state), table)


# oriented 2-rules in layer form


@dataclass(frozen=True)
class LayerRule:
    src: Tuple[Letter, ...]
    lhs: Tuple[Layer, ...]
    rhs: Tuple[Layer, ...]


def _layer_rules(p: Presentation) -> List[LayerRule]:
    rules = []
    for r in p.relations:
        if r.dim != 2 or not r.oriented:
            continue
        try:
            ls = stack_of(r.lhs, p)
            rs = stack_of(r.rhs, p)
        except TermError:
            continue
        rules.append(LayerRule(ls.srcword, ls.layers, rs.layers))
    return rules


def _packed_rules(p: Presentation,
                  table: interchange.AtomTable) -> List[interchange.Rule]:
    return [(r.src, _pack(r.lhs, table), _pack(r.rhs, table))
            for r in _layer_rules(p)]


State = TypeVar("State")


def _explore(start: State, successors: Callable[[State], Iterable[State]],
             budget: Budget,
             stop: Container[State] = ()) -> Tuple[Dict[State, None], bool]:
    """The states reachable from start, in the order found, and whether
    every one of them was expanded.  Each expansion spends one unit of the
    budget; successors may spend more, so a search during which the
    budget ran out is incomplete.  The search also ends, incomplete, as
    soon as start or a newly found state is in stop; that state is the
    last one found."""
    found = {start: None}
    if start in stop:
        return found, False
    frontier = [start]
    while frontier:
        if not budget.spend():
            return found, False
        for nxt in successors(frontier.pop()):
            if nxt not in found:
                found[nxt] = None
                if nxt in stop:
                    return found, False
                frontier.append(nxt)
    return found, budget.left >= 0


def _meet(a: State, b: State, successors: Callable[[State], Iterable[State]],
          budget: Budget, stop: AbstractSet[State]) -> Verdict:
    """Search from a until it reaches a state in stop, then from b until
    it reaches a state the first search found.  Equal when the searches
    meet, Distinct when both ran to the end without meeting, Unknown
    otherwise.  A start already in its stop set spends nothing."""
    seen_a, done_a = _explore(a, successors, budget, stop)
    if not seen_a.keys().isdisjoint(stop):
        return EQ_EQUAL
    seen_b, done_b = _explore(b, successors, budget, seen_a)
    if not seen_a.keys().isdisjoint(seen_b):
        return EQ_EQUAL
    return EQ_DISTINCT if done_a and done_b else EQ_UNKNOWN


# ---------------------------------------------------------------------------
# top level


def eq(a: CellTerm, b: CellTerm, p: Presentation,
       budget: Optional[int] = None) -> Verdict:
    """Decide equality of two parallel terms over p, within a step budget."""
    try:
        a, b = p.normalize(a), p.normalize(b)
    except TermError:
        return EQ_UNKNOWN
    steps = default_budget() if budget is None else budget
    return _eq(a, b, p, Budget(steps), certify=True)


def _eq(a: CellTerm, b: CellTerm, p: Presentation, budget: Budget,
        certify: bool) -> Verdict:
    """eq on two normal terms, after the boundary certificate when certify
    is set.  In a normal form every Inv wraps a generator."""
    if any(illegal_inverses(a, p.gens)) or any(illegal_inverses(b, p.gens)):
        return EQ_UNKNOWN
    if a == b:
        return EQ_EQUAL
    # normal forms are well-formed, so dim cannot raise here
    d = p.dim(a)
    if p.dim(b) != d or d == 0:
        return EQ_DISTINCT
    if certify:
        v = _certificate(a, b, d, p, budget)[0]
        if v is not EQ_EQUAL:
            return v
    if d == 1:
        rules = _word_rules(p)
        step = lambda w: _rewrites(w, rules, budget, _join)
        wb = word_of(b, p)
        return _meet(word_of(a, p), wb, step, budget, {wb})
    if d == 2:
        return _eq2(a, b, p, budget)
    return _eq_high(a, b, d, p, budget)


def parallel(a: CellTerm, b: CellTerm, p: Presentation,
             budget: Optional[int] = None) -> Tuple[Verdict, Optional[int]]:
    """(Equal, None) when the k-sources and k-targets of two cells are
    equal under eq at every level k (two 0-cells always are), (Distinct,
    k) for the lowest level k with a Distinct pair, (Distinct, None) for
    cells of different dimensions, else (Unknown, None).  Each pair starts
    from the step budget, by default eq's.  Raises TermError when a
    boundary cannot be taken."""
    d = p.dim(a)
    if p.dim(b) != d:
        return EQ_DISTINCT, None
    if d == 0:
        return EQ_EQUAL, None
    steps = default_budget() if budget is None else budget
    return _certificate(a, b, d, p, Budget(steps))


def _certificate(a: CellTerm, b: CellTerm, d: int, p: Presentation,
                 budget: Budget) -> Tuple[Verdict, Optional[int]]:
    """parallel for a and b of dimension d.  Each k-boundary is taken once,
    down its spine, and the levels are compared from 0 upward by _eq alone.
    Each pair starts from the budget left when the certificate began, so a
    pair that runs it out hides no Distinct at another; the budget is then
    charged what all pairs spent."""
    levels: List[list] = [[] for _ in range(d)]
    for side in (SOURCE, TARGET):
        x, y = a, b
        for k in range(d - 1, -1, -1):
            x = top_boundary(x, side, p.gens, k + 1)
            y = top_boundary(y, side, p.gens, k + 1)
            try:
                x, y = p.normalize(x), p.normalize(y)
            except TermError:
                levels[k].append(None)  # Unknown, and nothing below it
                break
            if x == y:  # so is every pair below; _eq compares x to itself
                levels[k].append((x, x))
                break
            levels[k].append((x, y))
    start, spent, verdict = budget.left, 0, EQ_EQUAL
    for k, pairs in enumerate(levels):
        for pair in pairs:
            own = Budget(start)
            v = _eq(pair[0], pair[1], p, own, False) if pair else EQ_UNKNOWN
            spent += start - own.left
            if v is EQ_DISTINCT:
                budget.spend(spent)
                return v, k
            if v is EQ_UNKNOWN:
                verdict = v
    budget.spend(spent)
    return verdict, None


def _eq2(a: CellTerm, b: CellTerm, p: Presentation, budget: Budget) -> Verdict:
    """The 2-cell search, on the packed states of one atom table."""
    try:
        sa = stack_of(a, p)
        sb = stack_of(b, p)
    except TermError:
        return EQ_UNKNOWN
    table = interchange.AtomTable()
    sa = (sa.srcword, _pack(sa.layers, table))
    sb = (sb.srcword, _pack(sb.layers, table))
    xa = interchange.cancel_inverses(table, sa)
    xb = interchange.cancel_inverses(table, sb)
    ca, cb = interchange.canonical(table, xa), interchange.canonical(table, xb)
    if ca == cb:
        return EQ_EQUAL
    rules = _packed_rules(p, table)
    step = lambda s: interchange.successors(table, s, rules, budget)
    # with nothing cancelled, the search starts from the state already
    # canonicalized
    start_a = ca if xa is sa else interchange.canonical(table, sa)
    start_b = cb if xb is sb else interchange.canonical(table, sb)
    return _meet(start_a, start_b, step, budget, {cb})


def _eq_high(a: CellTerm, b: CellTerm, d: int, p: Presentation,
             budget: Budget) -> Verdict:
    """Dimension >= 3: boundaries already agree; bounded search over move
    chains, rewriting by oriented same-dimension relations (contiguous
    syntactic matches only) and cancelling inverse pairs.  Chains meet
    when they are equal move by move as normalized terms.  Never returns
    Distinct: chains that never meet may still be equal by an interchange
    of moves the chains do not model (sound, incomplete)."""
    rules = [(_moves(r.lhs, p), _moves(r.rhs, p))
             for r in p.relations if r.dim == d and r.oriented]
    step = lambda c: _chain_successors(c, rules, p, budget)
    chain_b = _moves(b, p)
    met = _meet(_moves(a, p), chain_b, step, budget, {chain_b})
    return EQ_EQUAL if met is EQ_EQUAL else EQ_UNKNOWN


def _chain_successors(cur, rules, p: Presentation, budget: Budget):
    """The move chains one step away: all inverse pairs cancelled, or one
    contiguous match of an oriented rule rewritten."""
    yield _cancel_moves(cur, p)
    yield from _rewrites(cur, rules, budget)


def _moves(t: CellTerm, p: Presentation) -> Tuple[CellTerm, ...]:
    t = p.normalize(t)
    return tuple(m for m in flatten(t, p.dim(t) - 1) if not isinstance(m, Id))


def _cancel_moves(moves: Sequence[CellTerm],
                  p: Presentation) -> Tuple[CellTerm, ...]:
    out: List[CellTerm] = []
    for m in moves:
        if out and p.normalize(Inv(out[-1])) == m:
            out.pop()
        else:
            out.append(m)
    return tuple(out)


class CompositionError(TermError):
    """Boundary mismatch when composing; carries both offending terms."""

    def __init__(self, level: int, left_boundary: CellTerm,
                 right_boundary: CellTerm):
        super().__init__(
            f"target and source disagree at level {level}: "
            f"{print_term(left_boundary)} vs {print_term(right_boundary)}")
        self.level = level
        self.left_boundary = left_boundary
        self.right_boundary = right_boundary


def composable(k: int, a: CellTerm, b: CellTerm, p: Presentation,
               budget: Optional[int] = None
               ) -> Tuple[Verdict, CellTerm, CellTerm]:
    """eq on the k-target of a and the k-source of b, which a-then-b
    shares, with both, normalized for a report when they are not Equal.
    Raises TermError when a boundary cannot be taken."""
    lt, rs = boundary(a, TARGET, k, p.gens), boundary(b, SOURCE, k, p.gens)
    v = eq(lt, rs, p, budget)
    if v is not EQ_EQUAL:
        lt, rs = p.normalize(lt), p.normalize(rs)
    return v, lt, rs


def compose(k: int, a: CellTerm, b: CellTerm, p: Presentation,
            budget: Optional[int] = None) -> CellTerm:
    """The k-composite a-then-b, admitted only when the shared boundary
    agrees under eq (Unknown is not good enough to compose)."""
    v, lt, rs = composable(k, a, b, p, budget)
    if v is not EQ_EQUAL:
        raise CompositionError(k, lt, rs)
    return p.normalize(Comp(k, a, b))
