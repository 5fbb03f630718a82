"""Stratified equality for cell terms.

The decision procedure is dimension-stratified and deliberately partial:

  dim 0   generator names
  dim 1   free words in the 1-generators modulo oriented 1-rules
  dim 2   layered interchange normal form: a 2-cell is decomposed into
          layers, one whiskered atom each; whisker-disjoint layers slide
          past each other toward a canonical order; oriented 2-relations
          and formal-inverse cancellation are applied by a bounded,
          memoized closure on both sides
  dim >=3 boundary equality plus a bounded comparison of move chains

Boundary words of generators are read from the presentation's
boundary-word table (Presentation.boundary_words), filled once per
generator by word_of and dropped whenever the presentation changes, so
interchange tests do not re-derive them.

Verdicts are Equal / Distinct / Unknown.  Distinct is only produced
with a certificate: differing boundaries, differing free normal forms,
or two finite, fully explored rewrite closures that do not meet.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .presentation import Presentation
from .terms import (CellTerm, Comp, Gen, Id, Inv, SOURCE, TARGET, TermError,
                    flatten, top_boundary)


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
    t = p.normalize(t)
    out: List[Letter] = []
    for f in flatten(t, 0):
        f = p.normalize(f)
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
    rules = []
    for r in p.relations:
        if r.dim == 1 and r.oriented:
            rules.append((word_of(r.lhs, p), word_of(r.rhs, p)))
    return rules


def _rewrite_word(w, rules, budget: Budget):
    changed = True
    while changed and budget.spend():
        changed = False
        for lhs, rhs in rules:
            n = len(lhs)
            for i in range(len(w) - n + 1):
                if w[i:i + n] == lhs:
                    w = _cancel_word(w[:i] + rhs + w[i + n:])
                    changed = True
                    break
            if changed:
                break
    return w


# ---------------------------------------------------------------------------
# layers: 2-cells as whiskered atom stacks


@dataclass(frozen=True)
class Atom:
    name: str
    inverted: bool

    def words(self, p: Presentation) -> Tuple[Tuple[Letter, ...],
                                              Tuple[Letter, ...]]:
        """(source word, target word), from the presentation's table."""
        src, tgt = p.boundary_words(self.name)
        return (tgt, src) if self.inverted else (src, tgt)

    def inverse(self) -> "Atom":
        return Atom(self.name, not self.inverted)


@dataclass(frozen=True)
class Layer:
    offset: int
    atom: Atom


@dataclass(frozen=True)
class Stack:
    """A 2-cell in layer form: the source word plus the layer sequence."""
    srcword: Tuple[Letter, ...]
    layers: Tuple[Layer, ...]

    def word_before(self, i: int, p: Presentation) -> Tuple[Letter, ...]:
        """The word after the first i layers fire; TermError when a layer
        does not fit the word it fires on."""
        w = self.srcword
        for layer in self.layers[:i]:
            a, b = layer.atom.words(p)
            if w[layer.offset:layer.offset + len(a)] != a:
                raise TermError("layer does not fit its word")
            w = w[:layer.offset] + b + w[layer.offset + len(a):]
        return w

    def tgtword(self, p: Presentation) -> Tuple[Letter, ...]:
        return self.word_before(len(self.layers), p)


def stack_of(t: CellTerm, p: Presentation) -> Stack:
    """Layer decomposition of a 2-cell term."""
    t = p.normalize(t)
    src = word_of(top_boundary(t, SOURCE, p.sig), p)
    layers = tuple(_layers_rec(t, 0, p))
    return Stack(src, layers)


def _layers_rec(t: CellTerm, offset: int, p: Presentation) -> List[Layer]:
    t = p.normalize(t)
    if isinstance(t, Id):
        return []
    if isinstance(t, Gen):
        return [Layer(offset, Atom(t.name, False))]
    if isinstance(t, Inv):
        inner = p.normalize(t.inner)
        if isinstance(inner, Gen):
            return [Layer(offset, Atom(inner.name, True))]
        raise TermError(f"Inv not pushed to a leaf: {t!r}")
    assert isinstance(t, Comp)
    if t.k == 1:
        return (_layers_rec(t.left, offset, p)
                + _layers_rec(t.right, offset, p))
    if t.k == 0:
        # interchange expansion, left part fires first
        left_tgt = word_of(top_boundary(t.left, TARGET, p.sig), p)
        left_layers = _layers_rec(t.left, offset, p)
        right_layers = _layers_rec(t.right, offset + len(left_tgt), p)
        return left_layers + right_layers
    raise TermError(f"composition level {t.k} inside a 2-cell")


def _swap_variants(a: Layer, b: Layer,
                   p: Presentation) -> List[Tuple[Layer, Layer]]:
    """All legal interchanges of adjacent layers a-then-b, as b'-then-a'
    pairs.  Normally at most one reading applies; when an insertion and a
    deletion meet at a single point (both boundary intervals empty at one
    offset) both readings are valid and genuinely equal by the interchange
    law, so both are returned."""
    a_src, a_tgt = a.atom.words(p)
    b_src, b_tgt = b.atom.words(p)
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


def slide(a: Layer, b: Layer, p: Presentation) -> Optional[Tuple[Layer, Layer]]:
    """The first legal interchange of adjacent layers a-then-b, as a
    b'-then-a' pair, or None when they do not commute."""
    variants = _swap_variants(a, b, p)
    return variants[0] if variants else None


def _layer_key(layer: Layer):
    return (layer.atom.name, layer.atom.inverted, layer.offset)


def _bubble_front(layers: List[Layer], i: int, p: Presentation):
    """Slide layers[i] to the front if every intervening layer commutes with
    it.  Returns (front form of the layer, adjusted remaining layers) or
    None when blocked."""
    cand = layers[i]
    passed: List[Layer] = []
    for j in range(i - 1, -1, -1):
        swapped = slide(layers[j], cand, p)
        if swapped is None:
            return None
        cand, adjusted = swapped
        passed.insert(0, adjusted)
    return cand, passed + layers[i + 1:]


def canonical_stack(stack: Stack, p: Presentation) -> Stack:
    """Normal form under interchange: the lexicographically least firing
    order, computed greedily by always emitting the least (name, position)
    layer among those that can slide to the front."""
    layers = list(stack.layers)
    out: List[Layer] = []
    while layers:
        best = None
        for i in range(len(layers)):
            got = _bubble_front(layers, i, p)
            if got is None:
                continue
            front, rest = got
            if best is None or _layer_key(front) < _layer_key(best[0]):
                best = (front, rest)
        assert best is not None  # i = 0 always bubbles
        out.append(best[0])
        layers = list(best[1])
    return Stack(stack.srcword, tuple(out))


def _pair_cancels(a: Layer, b: Layer, p: Presentation) -> bool:
    """Whether the adjacent pair a-then-b composes to an identity: either
    literally an inverse pair at one offset, or one slide away from it."""
    if (a.atom.name == b.atom.name and a.atom.inverted != b.atom.inverted
            and a.offset == b.offset):
        return True
    sw = slide(a, b, p)
    if sw is not None:
        c, d = sw
        return (c.atom.name == d.atom.name and c.atom.inverted != d.atom.inverted
                and c.offset == d.offset)
    return False


def _cancellations(stack: Stack, p: Presentation) -> List[Stack]:
    """All single removals of an inverse pair of layers, sliding intervening
    disjoint layers out of the way in either direction."""
    out: List[Stack] = []
    layers = list(stack.layers)
    for i in range(len(layers)):
        for j in range(i + 1, len(layers)):
            block = layers[i + 1:j]
            # bubble layers[j] leftward until adjacent to layers[i]
            moved = layers[j]
            adjusted: List[Layer] = []
            ok = True
            for back in range(len(block) - 1, -1, -1):
                swapped = slide(block[back], moved, p)
                if swapped is None:
                    ok = False
                    break
                moved, shifted = swapped
                adjusted.insert(0, shifted)
            if ok and _pair_cancels(layers[i], moved, p):
                out.append(Stack(stack.srcword,
                                 tuple(layers[:i] + adjusted + layers[j + 1:])))
                continue
            # or bubble layers[i] rightward until adjacent to layers[j]
            moved = layers[i]
            adjusted = []
            ok = True
            for fwd in range(len(block)):
                swapped = slide(moved, block[fwd], p)
                if swapped is None:
                    ok = False
                    break
                shifted, moved = swapped
                adjusted.append(shifted)
            if ok and _pair_cancels(moved, layers[j], p):
                out.append(Stack(stack.srcword,
                                 tuple(layers[:i] + adjusted + layers[j + 1:])))
    return out


def _cancel_inverses(stack: Stack, p: Presentation) -> Stack:
    """Fully cancelled form, for the fast equality path."""
    while True:
        nexts = _cancellations(stack, p)
        if not nexts:
            return stack
        stack = nexts[0]


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


def _match_rule(stack: Stack, rule: LayerRule, p: Presentation,
                budget: Budget) -> List[Stack]:
    """All single-step applications of the rule to the stack, trying each
    contiguous window after bubbling candidate layers together."""
    out = []
    n = len(rule.lhs)
    layers = stack.layers
    if n == 0:
        return out
    for i in range(len(layers)):
        if not budget.spend():
            return out
        got = _try_window(stack, i, rule, p)
        if got is not None:
            out.append(got)
    return out


def _try_window(stack: Stack, i: int, rule: LayerRule, p: Presentation):
    """Try to apply the rule with its first layer matched at index i,
    pulling later rule layers adjacent by legal slides."""
    layers = list(stack.layers)
    n = len(rule.lhs)
    if i + 1 > len(layers):
        return None
    first = layers[i]
    if (first.atom != rule.lhs[0].atom):
        return None
    shift = first.offset - rule.lhs[0].offset
    if shift < 0:
        return None
    # check the whole rule source word occurs at the shift position
    word_here = stack.word_before(i, p)
    seg = word_here[shift:shift + len(rule.src)]
    if seg != rule.src:
        return None
    # find and bubble the remaining rule layers up behind position i
    pos = i
    for r_idx in range(1, n):
        want = Layer(rule.lhs[r_idx].offset + shift, rule.lhs[r_idx].atom)
        j = pos + 1
        found = None
        probe = None
        while j < len(layers):
            cand = layers[j]
            # slide cand leftward to pos+1 if possible
            ok = True
            moved = cand
            for back in range(j - 1, pos, -1):
                swapped = slide(layers[back], moved, p)
                if swapped is None:
                    ok = False
                    break
                moved = swapped[0]
            if ok and moved == want:
                found, probe = j, moved
                break
            j += 1
        if found is None:
            return None
        # perform the bubbling
        cand = layers.pop(found)
        moved = cand
        block = layers[pos + 1:found]
        newblock = []
        for back in range(len(block) - 1, -1, -1):
            swapped = slide(block[back], moved, p)
            assert swapped is not None
            moved, shifted = swapped
            newblock.insert(0, shifted)
        assert moved == probe
        layers[pos + 1:found] = newblock
        layers.insert(pos + 1, moved)
        pos += 1
    replacement = [Layer(l.offset + shift, l.atom) for l in rule.rhs]
    layers[i:i + n] = replacement
    return Stack(stack.srcword, tuple(layers))


def _closure(stack: Stack, rules: List[LayerRule], p: Presentation,
             budget: Budget) -> Tuple[set, bool]:
    """Forward closure under oriented rules and inverse-pair cancellation,
    on canonical forms.  Cancellation is a move rather than a
    preprocessing step: cancelling eagerly can destroy rule redexes.
    Returns the set of canonical stacks seen and whether exploration
    completed."""
    start = canonical_stack(stack, p)
    seen = {start}
    frontier = [start]
    complete = True
    while frontier:
        if budget.left < 0:
            complete = False
            break
        cur = frontier.pop()
        nexts = []
        for rule in rules:
            nexts.extend(_match_rule(cur, rule, p, budget))
        nexts.extend(_cancellations(cur, p))
        # single slides: canonicalization collapses ordinary interchange, but
        # a point-degenerate insertion/deletion pair has two inequivalent-
        # looking canonical forms that are equal, reachable only this way
        layers = cur.layers
        for i in range(len(layers) - 1):
            for swapped in _swap_variants(layers[i], layers[i + 1], p):
                nexts.append(Stack(cur.srcword,
                                   layers[:i] + swapped + layers[i + 2:]))
        for nxt in nexts:
            nxt = canonical_stack(nxt, p)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        if len(seen) > 4096:
            complete = False
            break
    return seen, complete


# ---------------------------------------------------------------------------
# top level


def eq(a: CellTerm, b: CellTerm, p: Presentation,
       budget: Optional[int] = None) -> Verdict:
    """Decide equality of two parallel terms over p, within a step budget."""
    steps = default_budget() if budget is None else budget
    return _eq(a, b, p, Budget(steps))


def _eq(a: CellTerm, b: CellTerm, p: Presentation, budget: Budget) -> Verdict:
    sig = p.sig
    a = p.normalize(a)
    b = p.normalize(b)
    if a == b:
        return EQ_EQUAL
    try:
        da, db = p.dim(a), p.dim(b)
    except TermError:
        return EQ_UNKNOWN
    if da != db:
        return EQ_DISTINCT
    d = da
    # boundary certificate first
    if d >= 1:
        for side in (SOURCE, TARGET):
            v = _eq(top_boundary(a, side, sig), top_boundary(b, side, sig),
                    p, budget)
            if v is EQ_DISTINCT:
                return EQ_DISTINCT
            if v is EQ_UNKNOWN:
                return EQ_UNKNOWN
    if d == 0:
        return EQ_EQUAL if a == b else EQ_DISTINCT
    if d == 1:
        rules = _word_rules(p)
        wa = _rewrite_word(word_of(a, p), rules, budget)
        wb = _rewrite_word(word_of(b, p), rules, budget)
        if wa == wb:
            return EQ_EQUAL
        return EQ_DISTINCT if budget.left >= 0 else EQ_UNKNOWN
    if d == 2:
        return _eq2(a, b, p, budget)
    return _eq_high(a, b, p, budget)


def _eq2(a: CellTerm, b: CellTerm, p: Presentation, budget: Budget) -> Verdict:
    try:
        sa = stack_of(a, p)
        sb = stack_of(b, p)
    except (TermError, AssertionError):
        return EQ_UNKNOWN
    ca = canonical_stack(_cancel_inverses(sa, p), p)
    cb = canonical_stack(_cancel_inverses(sb, p), p)
    if ca == cb:
        return EQ_EQUAL
    rules = _layer_rules(p)
    seen_a, done_a = _closure(sa, rules, p, budget)
    if cb in seen_a:
        return EQ_EQUAL
    seen_b, done_b = _closure(sb, rules, p, budget)
    if seen_a & seen_b:
        return EQ_EQUAL
    if done_a and done_b:
        return EQ_DISTINCT
    return EQ_UNKNOWN


def _eq_high(a: CellTerm, b: CellTerm, p: Presentation,
             budget: Budget) -> Verdict:
    """Dimension >= 3: boundaries already agree; bounded search over move
    chains, rewriting by oriented same-dimension relations (contiguous
    syntactic matches only) and cancelling inverse pairs.  Never returns
    Distinct here (sound, incomplete)."""
    d = p.dim(p.normalize(a))
    rules = []
    for r in p.relations:
        if r.dim == d and r.oriented:
            rules.append((tuple(_moves(r.lhs, p)), tuple(_moves(r.rhs, p))))
    seen_a = _chain_closure(tuple(_moves(a, p)), rules, p, budget)
    seen_b = _chain_closure(tuple(_moves(b, p)), rules, p, budget)
    for ca in seen_a:
        for cb in seen_b:
            if len(ca) == len(cb) and all(
                    x == y or _eq(x, y, p, budget) is EQ_EQUAL
                    for x, y in zip(ca, cb)):
                return EQ_EQUAL
    return EQ_UNKNOWN


def _chain_closure(chain, rules, p: Presentation, budget: Budget):
    seen = {chain}
    frontier = [chain]
    while frontier and budget.spend():
        cur = frontier.pop()
        nexts = [tuple(_cancel_moves(list(cur), p))]
        for lhs, rhs in rules:
            n = len(lhs)
            for i in range(len(cur) - n + 1):
                if cur[i:i + n] == lhs:
                    nexts.append(cur[:i] + rhs + cur[i + n:])
        for nxt in nexts:
            if nxt not in seen and len(seen) < 256:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _moves(t: CellTerm, p: Presentation) -> Optional[List[CellTerm]]:
    t = p.normalize(t)
    d = p.dim(t)
    out = []
    for part in flatten(t, d - 1):
        part = p.normalize(part)
        if isinstance(part, Id):
            continue
        out.append(part)
    return out


def _cancel_moves(moves: List[CellTerm], p: Presentation) -> List[CellTerm]:
    out: List[CellTerm] = []
    for m in moves:
        if out and p.normalize(Inv(out[-1])) == m:
            out.pop()
        else:
            out.append(m)
    return out


class CompositionError(TermError):
    """Boundary mismatch when composing; carries both offending terms."""

    def __init__(self, level: int, left_boundary: CellTerm,
                 right_boundary: CellTerm):
        from .terms import print_term
        super().__init__(
            f"target and source disagree at level {level}: "
            f"{print_term(left_boundary)} vs {print_term(right_boundary)}")
        self.level = level
        self.left_boundary = left_boundary
        self.right_boundary = right_boundary


def compose(k: int, a: CellTerm, b: CellTerm, p: Presentation,
            budget: Optional[int] = None) -> CellTerm:
    """The k-composite a-then-b, admitted only when the shared boundary
    agrees under eq (Unknown is not good enough to compose)."""
    from .terms import boundary
    lt = p.normalize(boundary(a, TARGET, k, p.sig))
    rs = p.normalize(boundary(b, SOURCE, k, p.sig))
    if eq(lt, rs, p, budget) is not EQ_EQUAL:
        raise CompositionError(k, lt, rs)
    return p.normalize(Comp(k, a, b))
