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

A 2-cell is a state of the `interchange` kernel: its source word and a
flat (offset, atom id, ...) tuple of layers.  stack_of builds it over
an atom table in one walk of the term, giving each atom its generator's
source and target words (swapped when inverted) from the presentation's
boundary-word table.  Each presentation keeps one atom table, made by
its first 2-cell search (which freezes the presentation), with memos of
canonical forms and successors and the oriented 2-rules, packed by the
first search that explores.  _eq2 builds both states in it under its
lock, from sides eq has already normalized, and _meet explores them, so
slides, canonicalization, cancellation and rule matching are functions
of the states and the table alone.

The readers word_of and stack_of take normal terms and normalize
nothing, and hold that contract by construction: on any term they read
what they read on its normal form or raise TermError, since they refuse
each shape no normal form has, so a raw term passed by mistake never
becomes a wrong word or stack.  Callers with raw terms (relations and
generator faces) normalize once first; a boundary is never raw.

Every boundary is taken by the one walk, `terms.top_boundary`, which
composes the presentation's normal generator faces
(`Presentation.normal_face`, each normalized once per presentation) with
the normal forms of identities' inner cells, so it is built normal and
never taken raw and then normalized whole.  Every comparison starts with
the boundary certificate, `parallel`: the k-sources and k-targets of
both sides are built once each, by the walk from the level above, and
compared from level 0 upward, each level by its own decision alone.  A
generator without a boundary raises TermError out of the certificate; a
face that cannot be normalized to the dimension below its generator's
makes its level Unknown.  Each pair starts from the budget left when the
certificate began, so running out on one pair never hides a difference
at another.  Validation passes `parallel` the dimension it has already
taken, for a generator's source and target and a relation's sides, and
names the lowest level that differs.  `boundaries_eq` is eq on two
normal cells of known dimensions, with no second normalization:
`composable` passes it the target of one cell and the source of the
next, each read from `Presentation.boundary`, the same walk iterated.

Every stratum reads its rules from `_oriented`: an oriented relation
whose sides do not both normalize to cells of its stated dimension is
left out, as a rule, in every dimension.

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
from typing import (TYPE_CHECKING, AbstractSet, Callable, Container, Dict,
                    Iterable, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

from . import interchange
from .terms import (CellTerm, Comp, Gen, Id, Inv, SOURCE, TARGET, TermError,
                    dim, flatten, illegal_inverses, normal_dim, print_term,
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
    """The freely reduced word of generator letters of a normal 1-cell
    term.  TermError on the shapes no normal 1-cell has: an identity that
    is not the whole term or not on a 0-cell, and a factor that is not a
    1-generator or its Inv."""
    gens = p.gens
    if t.__class__ is Id:
        if dim(t.inner, gens) != 0:
            raise TermError(f"not the identity of a 0-cell: {t!r}")
        return ()
    out: List[Letter] = []
    for f in flatten(t, 0):
        inverted = f.__class__ is Inv
        g = f.inner if inverted else f
        if g.__class__ is not Gen or g.name not in gens:
            raise TermError(f"not a 1-cell word factor: {f!r}")
        if gens[g.name].dim != 1:
            raise TermError(f"not a 1-generator: {g.name!r}")
        out.append((g.name, inverted))
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
    return [(word_of(lhs, p), word_of(rhs, p)) for lhs, rhs in _oriented(p, 1)]


def _oriented(p: Presentation, d: int) -> Iterator[Tuple[CellTerm, CellTerm]]:
    """The normal sides of the oriented d-relations whose sides both
    normalize to d-cells.  Every stratum reads its rules from here, so a
    relation that is ill-formed or of another dimension than it states is
    left out alike in every dimension."""
    for r in p.relations:
        if r.dim != d or not r.oriented:
            continue
        try:
            lhs, rhs = normal_dim(r.lhs, p.gens), normal_dim(r.rhs, p.gens)
        except TermError:
            continue
        if lhs[1] == rhs[1] == d:
            yield lhs[0], rhs[0]


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
# layers: 2-cells as packed states of the interchange kernel


def stack_of(t: CellTerm, p: Presentation,
             table: interchange.AtomTable) -> interchange.State:
    """Layer decomposition of a normal 2-cell term, as a state over table:
    its source word and its (offset, atom id, ...) layers, each atom added
    to table with its generator's source and target words, swapped when
    inverted, all read in one walk.  TermError on a shape no normal 2-cell
    has (see _layers_rec); atoms added before it stay in table."""
    flat: List[int] = []
    src = _layers_rec(t, 0, p, table, flat)[0]
    return src, tuple(flat)


def _layers_rec(t: CellTerm, offset: int, p: Presentation,
                table: interchange.AtomTable,
                out: List[int]) -> Tuple[Tuple[Letter, ...],
                                         Tuple[Letter, ...]]:
    """Append the layers of a normal 2-cell term whose source word starts
    at offset to out, and return its source and target words.  TermError
    on a part of a 1-composite without layers (normalize absorbs it), an
    Inv over a non-generator, a composite above level 1, and (through
    boundary_words) a generator not of dimension 2."""
    cls = t.__class__
    if cls is Id:
        w = word_of(t.inner, p)
        return w, w
    if cls is Gen:
        name, inverted = t.name, False
    elif cls is Inv:
        if t.inner.__class__ is not Gen:
            raise TermError(f"Inv not pushed to a leaf: {t!r}")
        name, inverted = t.inner.name, True
    elif t.k == 1:
        start = len(out)
        src = _layers_rec(t.left, offset, p, table, out)[0]
        middle = len(out)
        tgt = _layers_rec(t.right, offset, p, table, out)[1]
        if start == middle or middle == len(out):
            raise TermError("an identity part in a 1-composite")
        return src, tgt
    elif t.k == 0:
        # interchange expansion, left part fires first
        src, tgt = _layers_rec(t.left, offset, p, table, out)
        right_src, right_tgt = _layers_rec(t.right, offset + len(tgt), p,
                                           table, out)
        return _join(src, right_src), _join(tgt, right_tgt)
    else:
        raise TermError(f"composition level {t.k} inside a 2-cell")
    src, tgt = p.boundary_words(name)
    if inverted:
        src, tgt = tgt, src
    out += (offset, table.add(name, inverted, src, tgt))
    return src, tgt


# perfbench/tracing.py wraps this name, and with it every call of
# interchange.canonical, the search's included; the alias goes once the
# tracer wraps the kernel itself.
canonical_stack = interchange.canonical


def _packed_rules(p: Presentation,
                  table: interchange.AtomTable) -> List[interchange.Rule]:
    """The oriented 2-relations whose sides both normalize to 2-cells and
    decompose, as rules over table."""
    rules = []
    for lhs, rhs in _oriented(p, 2):
        try:
            src, before = stack_of(lhs, p, table)
            after = stack_of(rhs, p, table)[1]
        except TermError:
            continue
        rules.append((src, before, after))
    return rules


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
        a, da = normal_dim(a, p.gens)
        b, db = normal_dim(b, p.gens)
    except TermError:
        return EQ_UNKNOWN
    steps = default_budget() if budget is None else budget
    return _eq(a, da, b, db, p, Budget(steps), certify=True)


def _eq(a: CellTerm, da: int, b: CellTerm, db: int, p: Presentation,
        budget: Budget, certify: bool) -> Verdict:
    """eq on two normal terms of dimensions da and db, after the boundary
    certificate when certify is set.  In a normal form every Inv wraps a
    generator."""
    if any(illegal_inverses(a, p.gens)) or (
            b is not a and any(illegal_inverses(b, p.gens))):
        return EQ_UNKNOWN
    if a == b:
        return EQ_EQUAL
    if db != da or da == 0:
        return EQ_DISTINCT
    if certify:
        v = _certificate(a, b, da, p, budget)[0]
        if v is not EQ_EQUAL:
            return v
    if da == 1:
        rules = _word_rules(p)
        step = lambda w: _rewrites(w, rules, budget, _join)
        wb = word_of(b, p)
        return _meet(word_of(a, p), wb, step, budget, {wb})
    if da == 2:
        return _eq2(a, b, p, budget)
    return _eq_high(a, b, da, p, budget)


def parallel(a: CellTerm, b: CellTerm, p: Presentation,
             budget: Optional[int] = None,
             d: Optional[int] = None) -> Tuple[Verdict, Optional[int]]:
    """(Equal, None) when the k-sources and k-targets of two cells are
    equal under eq at every level k (two 0-cells always are), (Distinct,
    k) for the lowest level k with a Distinct pair, (Distinct, None) for
    cells of different dimensions, else (Unknown, None).  Each pair starts
    from the step budget, by default eq's.  A caller that has already
    taken the one dimension of well-formed a and b passes it as d, and
    no dimension is taken again.  Raises TermError when a or b is
    ill-formed or a boundary cannot be taken."""
    if d is None:
        d = dim(a, p.gens)
        if dim(b, p.gens) != d:
            return EQ_DISTINCT, None
    if d == 0:
        return EQ_EQUAL, None
    steps = default_budget() if budget is None else budget
    return _certificate(a, b, d, p, Budget(steps))


def _certificate(a: CellTerm, b: CellTerm, d: int, p: Presentation,
                 budget: Budget) -> Tuple[Verdict, Optional[int]]:
    """parallel for well-formed a and b of dimension d.  Each k-boundary
    is built once, already normal, from the (k+1)-boundary and the
    presentation's normal generator faces, and the
    levels are compared from 0 upward by _eq alone.  Each pair starts
    from the budget left when the certificate began, so a pair that runs
    it out hides no Distinct at another; the budget is then charged what
    all pairs spent."""
    gens, face = p.gens, p.normal_face
    levels: List[list] = [[] for _ in range(d)]
    for side in (SOURCE, TARGET):
        x, y = a, b
        for k in range(d - 1, -1, -1):
            x = top_boundary(x, side, k + 1, gens, face)
            y = top_boundary(y, side, k + 1, gens, face)
            if x is None or y is None:
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
            v = (_eq(pair[0], k, pair[1], k, p, own, False) if pair
                 else EQ_UNKNOWN)
            spent += start - own.left
            if v is EQ_DISTINCT:
                budget.spend(spent)
                return v, k
            if v is EQ_UNKNOWN:
                verdict = v
    budget.spend(spent)
    return verdict, None


def _eq2(a: CellTerm, b: CellTerm, p: Presentation, budget: Budget) -> Verdict:
    """The 2-cell search, on the packed states of the presentation's
    kernel, under its lock."""
    table = p.kernel()
    with table.lock:
        if len(table.canonical_of) > interchange.MEMO_STATES:
            table.canonical_of, table.successors_of = {}, {}
        try:
            sa = stack_of(a, p, table)
            sb = stack_of(b, p, table)
        except TermError:
            return EQ_UNKNOWN
        xa = interchange.cancel_inverses(table, sa)
        xb = interchange.cancel_inverses(table, sb)
        ca = interchange.canonical(table, xa)
        cb = interchange.canonical(table, xb)
        if ca == cb:
            return EQ_EQUAL
        if table.rules is None:
            table.rules = _packed_rules(p, table)
        step = lambda s: interchange.successors(table, s, budget)
        # with nothing cancelled, the search starts from the state already
        # canonicalized
        start_a = ca if xa is sa else interchange.canonical(table, sa)
        start_b = cb if xb is sb else interchange.canonical(table, sb)
        return _meet(start_a, start_b, step, budget, {cb})


def _eq_high(a: CellTerm, b: CellTerm, d: int, p: Presentation,
             budget: Budget) -> Verdict:
    """Dimension >= 3, for normal a and b of dimension d: boundaries
    already agree; bounded search over move chains, rewriting by oriented
    same-dimension relations (contiguous syntactic matches only, each
    side normalized once per call) and cancelling inverse pairs.  Chains
    meet when they are equal move by move as normalized terms.  Never
    returns Distinct: chains that never meet may still be equal by an
    interchange of moves the chains do not model (sound, incomplete)."""
    rules = [(_moves(lhs, d), _moves(rhs, d)) for lhs, rhs in _oriented(p, d)]
    step = lambda c: _chain_successors(c, rules, p, budget)
    chain_b = _moves(b, d)
    met = _meet(_moves(a, d), chain_b, step, budget, {chain_b})
    return EQ_EQUAL if met is EQ_EQUAL else EQ_UNKNOWN


def _chain_successors(cur, rules, p: Presentation, budget: Budget):
    """The move chains one step away: all inverse pairs cancelled, or one
    contiguous match of an oriented rule rewritten."""
    yield _cancel_moves(cur, p)
    yield from _rewrites(cur, rules, budget)


def _moves(t: CellTerm, d: int) -> Tuple[CellTerm, ...]:
    """The non-identity (d-1)-composition factors of a normal d-cell."""
    return tuple(m for m in flatten(t, d - 1) if not isinstance(m, Id))


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


def boundaries_eq(x: CellTerm, dx: int, y: CellTerm, dy: int,
                  p: Presentation, budget: Optional[int] = None) -> Verdict:
    """eq on two normal cells of dimensions dx and dy, such as the
    boundaries Presentation.boundary builds normal: eq's own
    normalization is skipped."""
    steps = default_budget() if budget is None else budget
    return _eq(x, dx, y, dy, p, Budget(steps), certify=True)


def composable(k: int, a: CellTerm, b: CellTerm, p: Presentation,
               budget: Optional[int] = None
               ) -> Tuple[Verdict, CellTerm, CellTerm]:
    """boundaries_eq on the k-target of a and the k-source of b, which
    a-then-b shares, with both, for a report.  Raises TermError when a
    boundary cannot be taken."""
    x, y = p.boundary(a, TARGET, k), p.boundary(b, SOURCE, k)
    return boundaries_eq(x, k, y, k, p, budget), x, y


def compose(k: int, a: CellTerm, b: CellTerm, p: Presentation,
            budget: Optional[int] = None) -> CellTerm:
    """The k-composite a-then-b, admitted only when the shared boundary
    agrees under eq (Unknown is not good enough to compose)."""
    v, lt, rs = composable(k, a, b, p, budget)
    if v is not EQ_EQUAL:
        raise CompositionError(k, lt, rs)
    return p.normalize(Comp(k, a, b))
