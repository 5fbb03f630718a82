"""The interchange kernel: 2-cell stacks as packed integer layers.

An AtomTable gives an int id to every atom (name, inverted) it meets
and to its inverse, and holds per id the source and target words, their
lengths, the id of the inverse, and the rank of (name, inverted) among
the atoms of the table, ranked when a canonical form reads it.  A state
is (srcword, (off0, id0, off1, id1, ...)): the source word and the
layers in firing order, flattened, so states hash and compare as plain
tuples.

rewriting keeps one table, with its rules and memos, per presentation,
and rewriting.stack_of builds every state, adding its atoms to a table.
This module alone decides whether two layers interchange.  The moves
are those of the Layer-object reference in tests/, on states:

  _readings      the legal interchanges of two adjacent layers; a slide
                 takes the first one
  align          the adjacent swaps that turn one layer sequence into
                 another, searched depth-first
  canonical      greedy firing orders under interchange, on layers that
                 keep their input positions and are unlinked as they fire,
                 until one is unchanged
  cancellations  single removals of an inverse pair of layers
  moves          oriented-rule windows, cancellations and the single
                 slides of insertion/deletion pairs
  successors     the moves, each in canonical order, less the state

Nothing here reads a presentation: a table holds every word it needs.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .terms import TermError

Word = tuple
Flat = Tuple[int, ...]
State = Tuple[Word, Flat]
# an oriented 2-rule: its source word, then both sides as flat layers
Rule = Tuple[Word, Flat, Flat]
# memos outlive a search only up to this many canonical forms (~650 B each)
MEMO_STATES = 10_000


class AtomTable:
    """Atoms by int id.  Adding an atom adds its inverse too, with the
    words swapped.  `ranks` ranks every atom when one was added since it
    last did, once however many atoms a stack added, so the rank order
    of the atoms already in states never changes.  The table also keeps
    the oriented rules that moves applies, successors' memos, and the
    lock that serializes the searches on it."""

    def __init__(self):
        self.ids: Dict[Tuple[str, bool], int] = {}
        self.keys: List[Tuple[str, bool]] = []
        self.src: List[Word] = []
        self.tgt: List[Word] = []
        self.ns: List[int] = []
        self.nt: List[int] = []
        self.inv: List[int] = []
        # None when an atom was added since the last ranking
        self.rank: Optional[List[int]] = []
        self.rules: Optional[List[Rule]] = None
        self.canonical_of: Dict[State, State] = {}
        self.successors_of: Dict[State, Tuple[int, Tuple[State, ...]]] = {}
        self.lock = threading.Lock()

    def add(self, name: str, inverted: bool, src: Word, tgt: Word) -> int:
        got = self.ids.get((name, inverted))
        if got is None:
            got = self._new((name, inverted), src, tgt)
            self._new((name, not inverted), tgt, src)
            self.inv += (got + 1, got)
            self.rank = None
        return got

    def ranks(self) -> List[int]:
        """The rank of each atom's (name, inverted) among the atoms of the
        table, by id."""
        rank = self.rank
        if rank is None:
            order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
            rank = self.rank = [0] * len(order)
            for r, x in enumerate(order):
                rank[x] = r
        return rank

    def _new(self, key: Tuple[str, bool], src: Word, tgt: Word) -> int:
        self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.src.append(src)
        self.tgt.append(tgt)
        self.ns.append(len(src))
        self.nt.append(len(tgt))
        return self.ids[key]


def _flat(offs: Sequence[int], ids: Sequence[int]) -> Flat:
    flat = [0] * (2 * len(ids))
    flat[0::2] = offs
    flat[1::2] = ids
    return tuple(flat)


def _readings(ns: List[int], nt: List[int], ao: int, a: int, bo: int,
              b: int) -> int:
    """The legal interchanges of adjacent layers (ao, a)-then-(bo, b), as
    bits.  Bit 1: b lies right of a's output and fires first at
    bo + ns[a] - nt[a].  Bit 2: b lies left of a, which then fires at
    ao + nt[b] - ns[b].  Both are set only when a deletion and an
    insertion meet at one point, where both readings are equal by the
    interchange law."""
    return (ao + nt[a] <= bo) | ((bo + ns[b] <= ao) << 1)


def _slide_left(ns: List[int], nt: List[int], offs: Sequence[int],
                ids: Sequence[int], lo: int, hi: int, o: int,
                x: int) -> Optional[Tuple[int, List[int]]]:
    """Slide layer (o, x), which fires right after layers lo..hi-1, so that
    it fires before them, by the first reading at each step: its offset
    then, and the indices of the block layers that shift by
    nt[x] - ns[x]; or None when a block layer does not commute with it."""
    shifted = []
    for j in range(hi - 1, lo - 1, -1):
        y = ids[j]
        r = _readings(ns, nt, offs[j], y, o, x)
        if r & 1:
            o += ns[y] - nt[y]
        elif r:
            shifted.append(j)
        else:
            return None
    return o, shifted


def _slide_right(ns: List[int], nt: List[int], offs: Sequence[int],
                 ids: Sequence[int], lo: int, hi: int, o: int,
                 x: int) -> Optional[Tuple[int, List[int]]]:
    """Mirror of _slide_left: layer (o, x), which fires right before layers
    lo..hi-1, moved to fire after them.  The shifted block layers move by
    ns[x] - nt[x]."""
    shifted = []
    for j in range(lo, hi):
        y = ids[j]
        r = _readings(ns, nt, o, x, offs[j], y)
        if r & 1:
            shifted.append(j)
        elif r:
            o += nt[y] - ns[y]
        else:
            return None
    return o, shifted


def align(tab: AtomTable, a: Flat, b: Flat
          ) -> Optional[List[Tuple[Flat, int]]]:
    """The adjacent swaps that turn the layers a into the layers b, each
    by the first reading, as (the layers before the swap, the index of
    its first layer), or None when the search below finds none.
    Position by position, a layer that slides to b's layer there is slid
    there, one swap at a time: the layer already there when it is b's,
    else the first later layer that slides to it.  When a choice fails
    further on, the search goes back and tries the next later layer,
    depth-first, and never tries a (position, layers) pair that failed
    once again; so an alignment that needs no going back is the one
    found.  It misses an order that moves a layer away and back through
    a pair with two readings, which changes the layer's offset."""
    if len(a) != len(b) or sorted(a[1::2]) != sorted(b[1::2]):
        return None
    ns, nt = tab.ns, tab.nt
    swaps: List[Tuple[Flat, int]] = []
    failed = set()
    # (position, layers, its untried choices, len(swaps) on reaching it)
    todo = [(0, a, _choices(ns, nt, a, b, 0), 0)]
    while todo:
        k, flat, choices, mark = todo[-1]
        if k == len(b) // 2:
            return swaps
        j = next(choices, None)
        if j is None:
            failed.add((k, flat))
            todo.pop()
            continue
        del swaps[mark:]
        offs, ids = list(flat[0::2]), list(flat[1::2])
        for i in range(j, k, -1):
            swaps.append((_flat(offs, ids), i - 1))
            x, y = ids[i - 1], ids[i]
            if _readings(ns, nt, offs[i - 1], x, offs[i], y) & 1:
                offs[i - 1], offs[i] = offs[i] + ns[x] - nt[x], offs[i - 1]
            else:
                offs[i - 1], offs[i] = offs[i], offs[i - 1] + nt[y] - ns[y]
            ids[i - 1], ids[i] = y, x
        nxt = _flat(offs, ids)
        if (k + 1, nxt) not in failed:
            todo.append((k + 1, nxt, _choices(ns, nt, nxt, b, k + 1),
                         len(swaps)))
    return None


def _choices(ns: List[int], nt: List[int], flat: Flat, b: Flat,
             k: int) -> Iterator[int]:
    """The indices of the layers of flat that slide to b's layer k, which
    flat's first k layers already match: k itself first when its layer
    is b's, then in order the later layers with b's atom that _slide_left
    brings there.  A slide keeps the atom, so no other layer is tried."""
    offs, ids = flat[0::2], flat[1::2]
    bo, bx = b[2 * k], b[2 * k + 1]
    if offs[k] == bo and ids[k] == bx:
        yield k
    for j in range(k + 1, len(ids)):
        if ids[j] == bx:
            got = _slide_left(ns, nt, offs, ids, k, j, offs[j], bx)
            if got is not None and got[0] == bo:
                yield j


def canonical(tab: AtomTable, state: State) -> State:
    """A fixed firing order under interchange: greedy passes until one
    changes nothing, at most one per layer.  A deletion and an insertion
    at one point, where a slide takes the first reading, are all that can
    make a pass change its own output, or a single slide change the result."""
    got, ns, nt, ids = _greedy(tab, state), tab.ns, tab.nt, state[1][1::2]
    if any(not ns[x] for x in ids) and any(not nt[x] for x in ids):
        for _ in ids:
            if got == state:
                break
            state, got = got, _greedy(tab, got)
    return got


def _greedy(tab: AtomTable, state: State) -> State:
    """One pass: each round emits the least (name, inverted, offset) layer
    that can slide to the front, at its offset after the slide; of two
    insertions at one point, the left one, whose slide shifts the other.
    Every layer keeps its index in the input for the whole call: an
    emitted layer is unlinked from the prev/nxt links of the layers still
    to fire, and a slide walks the prev links.  Index order is then
    firing order among the remaining layers, and nothing is renumbered.
    Candidates are tried in order of (rank, index), sorted once; a round
    stops after the first atom with a member that slides to the front: a
    slide keeps the atom, so every later atom has a larger key.  The
    slide is _slide_left's loop, inlined with _readings' two tests
    written out: this is the kernel's hot loop."""
    word, flat = state
    offs, ids = list(flat[0::2]), list(flat[1::2])
    ns, nt, rank = tab.ns, tab.nt, tab.ranks()
    n = len(ids)
    order = sorted(range(n), key=[rank[x] for x in ids].__getitem__)
    # the layers still to fire, linked in firing order; -1 and n end the
    # links, and index n (which -1 also reaches) absorbs writes past an end
    prev, nxt = list(range(-1, n)), list(range(1, n + 2))
    # stuck[i]: layer i does not commute with layer prev[i], known from an
    # earlier round in which neither has moved since
    stuck = [False] * (n + 1)
    out: List[int] = []
    while order:
        k = -1
        for i in order:
            x = ids[i]
            if k >= 0 and x != bx:
                break
            if stuck[i]:
                continue
            o, shifted, j = offs[i], [], prev[i]
            while j >= 0:
                y = ids[j]
                if offs[j] + nt[y] <= o:
                    o += ns[y] - nt[y]
                elif o + ns[x] <= offs[j]:
                    shifted.append(j)
                else:
                    stuck[i] = j == prev[i]
                    break
                j = prev[j]
            else:
                if k < 0 or o < bo or o == bo and k in shifted:
                    k, bo, bx, bs = i, o, x, shifted
        out += (bo, bx)
        for j in bs:
            offs[j] += nt[bx] - ns[bx]
            # j moved, so its flag is stale; the flag of nxt[j] is not.
            # nxt[j] is k, or shifted too, or a layer k passed on its left,
            # whose source ends at or before k's source there, which ends
            # at or before j's target: it commutes with j, so not stuck
            stuck[j] = False
        a, b = prev[k], nxt[k]
        nxt[a], prev[b], stuck[b] = b, a, False
        order.remove(k)
    return word, tuple(out)


def _pair_cancels(ns: List[int], nt: List[int], ao: int, a: int, bo: int,
                  b: int) -> bool:
    """Whether adjacent layers (ao, a)-then-(bo, b), with b the inverse of
    a, compose to an identity: at one offset, or one slide away from it."""
    if ao == bo:
        return True
    r = _readings(ns, nt, ao, a, bo, b)
    if r & 1:
        return bo + ns[a] - nt[a] == ao
    return bool(r) and bo == ao + nt[b] - ns[b]


def _without(offs: Sequence[int], ids: Sequence[int], i: int, j: int,
             shifted: List[int], d: int) -> Flat:
    """The layers without i and j, the shifted ones moved by d."""
    offs = list(offs)
    for s in shifted:
        offs[s] += d
    return _flat(offs[:i] + offs[i + 1:j] + offs[j + 1:],
                 ids[:i] + ids[i + 1:j] + ids[j + 1:])


def cancellations(tab: AtomTable, state: State) -> Iterator[State]:
    """The states with one inverse pair of layers removed, sliding the
    layers between them out of the way in either direction.  A slide
    keeps the atom, so only pairs of inverse atoms are tried; a state
    without such a pair is answered without any slide."""
    word, flat = state
    ids, inv = flat[1::2], tab.inv
    present = set(ids)
    if not any(inv[x] in present for x in present):
        return
    offs, ns, nt = flat[0::2], tab.ns, tab.nt
    for i, x in enumerate(ids):
        y = inv[x]
        for j in range(i + 1, len(ids)):
            if ids[j] != y:
                continue
            # slide layer j leftward until adjacent to layer i
            got = _slide_left(ns, nt, offs, ids, i + 1, j, offs[j], y)
            if got is not None and _pair_cancels(ns, nt, offs[i], x,
                                                 got[0], y):
                yield word, _without(offs, ids, i, j, got[1], nt[y] - ns[y])
                continue
            # or slide layer i rightward until adjacent to layer j
            got = _slide_right(ns, nt, offs, ids, i + 1, j, offs[i], x)
            if got is not None and _pair_cancels(ns, nt, got[0], x,
                                                 offs[j], y):
                yield word, _without(offs, ids, i, j, got[1], ns[x] - nt[x])


def cancel_inverses(tab: AtomTable, state: State) -> State:
    """The fully cancelled state, removing the first pair each time; the
    state itself when it has nothing to cancel."""
    while True:
        nxt = next(cancellations(tab, state), None)
        if nxt is None:
            return state
        state = nxt


def _fire(tab: AtomTable, word: Word, o: int, x: int) -> Word:
    src = tab.src[x]
    if word[o:o + len(src)] != src:
        raise TermError("layer does not fit its word")
    return word[:o] + tab.tgt[x] + word[o + len(src):]


def _apply(tab: AtomTable, offs: Sequence[int], ids: Sequence[int], i: int,
           shift: int, rule: Rule) -> Optional[Flat]:
    """The rule applied with its first layer at index i, pulling its later
    layers up behind i by legal slides, or None when one cannot be
    pulled.  A slide keeps the atom, so only layers with the wanted atom
    are slid."""
    _, lhs, rhs = rule
    ns, nt = tab.ns, tab.nt
    offs, ids = list(offs), list(ids)
    for pos in range(i, i + len(lhs) // 2 - 1):
        want, x = lhs[2 * (pos - i + 1)] + shift, lhs[2 * (pos - i) + 3]
        for j in range(pos + 1, len(ids)):
            if ids[j] != x:
                continue
            got = _slide_left(ns, nt, offs, ids, pos + 1, j, offs[j], x)
            if got is not None and got[0] == want:
                break
        else:
            return None
        for s in got[1]:
            offs[s] += nt[x] - ns[x]
        offs[pos + 1:j + 1] = [want] + offs[pos + 1:j]
        ids[pos + 1:j + 1] = [x] + ids[pos + 1:j]
    n = len(lhs) // 2
    offs[i:i + n] = [o + shift for o in rhs[0::2]]
    ids[i:i + n] = rhs[1::2]
    return _flat(offs, ids)


def _windows(tab: AtomTable, state: State, words: List[Word], rule: Rule,
             budget) -> List[State]:
    """Every single application of the rule, trying each window in turn;
    each window spends one unit of the budget.  words[i] is the word
    after the first i layers fire, extended as far as a window needs it
    (TermError when a layer does not fit)."""
    out: List[State] = []
    src, lhs, _ = rule
    if not lhs:
        return out
    word, flat = state
    offs, ids = flat[0::2], flat[1::2]
    for i in range(len(ids)):
        if not budget.spend():
            return out
        shift = offs[i] - lhs[0]
        if ids[i] != lhs[1] or shift < 0:
            continue
        while len(words) <= i:
            k = len(words) - 1
            words.append(_fire(tab, words[k], offs[k], ids[k]))
        if words[i][shift:shift + len(src)] != src:
            continue
        got = _apply(tab, offs, ids, i, shift, rule)
        if got is not None:
            out.append((word, got))
    return out


def moves(tab: AtomTable, state: State, budget) -> List[State]:
    """The states one move away, in order: every application of the
    table's oriented rules, every inverse-pair cancellation and every
    single slide of an insertion next to a deletion (both readings at a
    point).  Cancellation is a move rather than a preprocessing step:
    cancelling eagerly can destroy rule redexes."""
    words = [state[0]]
    out: List[State] = []
    for rule in tab.rules:
        out += _windows(tab, state, words, rule, budget)
    out += cancellations(tab, state)
    # single slides: only those of an insertion/deletion pair can change the
    # canonical form, to an equal one reachable only this way
    word, flat = state
    ns, nt = tab.ns, tab.nt
    for k in range(0, len(flat) - 2, 2):
        ao, a, bo, b = flat[k:k + 4]
        if ns[a] + nt[b] and nt[a] + ns[b]:
            continue
        r = _readings(ns, nt, ao, a, bo, b)
        if r & 1:
            out.append((word, flat[:k] + (bo + ns[a] - nt[a], b, ao, a)
                        + flat[k + 4:]))
        if r & 2:
            out.append((word, flat[:k] + (bo, b, ao + nt[b] - ns[b], a)
                        + flat[k + 4:]))
    return out


def successors(tab: AtomTable, state: State, budget) -> Tuple[State, ...]:
    """The canonical states one move away, but the state itself.  The
    table memoizes canonical forms, and the successors of each state
    expanded within budget with the windows charged; these are replayed,
    charging those windows, only when the budget covers them, so a search
    spends what it would on a fresh table."""
    left = budget.left
    hit = tab.successors_of.get(state)
    if hit is not None and hit[0] <= left:
        budget.spend(hit[0])
        return hit[1]
    seen = tab.canonical_of
    out = []
    for nxt in moves(tab, state, budget):
        got = seen.get(nxt)
        if got is None:
            got = seen[nxt] = canonical(tab, nxt)
        if got != state:
            out.append(got)
    out = tuple(out)
    if budget.left >= 0:
        tab.successors_of[state] = (left - budget.left, out)
    return out
