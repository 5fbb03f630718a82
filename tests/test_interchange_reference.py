"""Differential oracle, slide counts and search trace for the interchange
kernel.

The reference functions below work on the Atom, Layer and Stack objects
of `reference_cells`, each atom carrying its own words, and
ref_canonical_stack, ref_cancellations, ref_try_window and ref_align try
to slide every layer, whatever its atom, so they are slower but
obviously follow their definitions.  The kernel (hopfsmith.interchange) works on packed
integer states and skips slides whose outcome is known without making
them; it must give the same stacks, and the same lists in the same
order, on every stack.  ref_align is greedy: align must make its swaps
wherever it finds them, and goes back to find more.  The slide counts are exact: every interchange test of the
kernel goes through interchange._readings, which the counter wraps, or
through the slide loop that canonical inlines, whose iterations the
counter traces.  The search trace pins the verdict and the budget spent
of every search.
"""

import hashlib
import inspect
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bench_diagrams
from hopfsmith import interchange, mates, rewriting
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import Budget, _packed_rules, eq, stack_of
from hopfsmith.terms import Gen, Id, SOURCE, TARGET, comp
from hopfsmith.walking import adj, mnd
from reference_cells import Atom, Layer, Letter, Stack, pack, ref_boundary

PRESENTATIONS = {"mnd": mnd().base, "adj": adj().base,
                 "walking_retract": walking_retract().presentation}
# random stacks stop growing their word past this many letters
MAX_WIDTH = 6


# ---------------------------------------------------------------------------
# reference code


@dataclass(frozen=True)
class LayerRule:
    src: Tuple[Letter, ...]
    lhs: Tuple[Layer, ...]
    rhs: Tuple[Layer, ...]


def unpack_layers(flat, table) -> Tuple[Layer, ...]:
    return tuple(Layer(o, Atom(*table.keys[x], table.src[x], table.tgt[x]))
                 for o, x in zip(flat[0::2], flat[1::2]))


def unpack(state, table) -> Stack:
    return Stack(state[0], unpack_layers(state[1], table))


def ref_layer_rules(p) -> List[LayerRule]:
    """p's oriented 2-rules in layer form, as the kernel packs them."""
    table = interchange.AtomTable()
    return [LayerRule(src, unpack_layers(lhs, table),
                      unpack_layers(rhs, table))
            for src, lhs, rhs in _packed_rules(p, table)]


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


def _slide_right(layer, block):
    """Mirror of slide_left: a layer that fires right before block, moved
    to fire after it.  Returns (the adjusted block as a list, the moved
    layer), or None when blocked."""
    adjusted = []
    for nxt in block:
        swapped = slide(layer, nxt)
        if swapped is None:
            return None
        shifted, layer = swapped
        adjusted.append(shifted)
    return adjusted, layer


def _pair_cancels(a, b):
    """Whether the adjacent pair a-then-b composes to an identity: either
    literally an inverse pair at one offset, or one slide away from it."""
    if (a.atom.name == b.atom.name and a.atom.inverted != b.atom.inverted
            and a.offset == b.offset):
        return True
    sw = slide(a, b)
    if sw is not None:
        c, d = sw
        return (c.atom.name == d.atom.name and c.atom.inverted != d.atom.inverted
                and c.offset == d.offset)
    return False


def _layer_key(layer):
    return (layer.atom.name, layer.atom.inverted, layer.offset)


def ref_canonical_stack(stack):
    layers = list(stack.layers)
    out = []
    while layers:
        best = None
        for i in range(len(layers)):
            got = slide_left(layers[:i], layers[i])
            if got is None:
                continue
            if best is None or _layer_key(got[0]) < _layer_key(best[0]):
                best = (got[0], got[1] + layers[i + 1:])
        out.append(best[0])
        layers = best[1]
    return Stack(stack.srcword, tuple(out))


def ref_cancellations(stack):
    out = []
    layers = stack.layers
    for i in range(len(layers)):
        for j in range(i + 1, len(layers)):
            block = layers[i + 1:j]
            got = slide_left(block, layers[j])
            if got is not None and _pair_cancels(layers[i], got[0]):
                out.append(Stack(stack.srcword, layers[:i] + tuple(got[1])
                                 + layers[j + 1:]))
                continue
            got = _slide_right(layers[i], block)
            if got is not None and _pair_cancels(got[1], layers[j]):
                out.append(Stack(stack.srcword, layers[:i] + tuple(got[0])
                                 + layers[j + 1:]))
    return out


def ref_try_window(stack, i, rule):
    layers = list(stack.layers)
    first = layers[i]
    if first.atom != rule.lhs[0].atom:
        return None
    shift = first.offset - rule.lhs[0].offset
    if shift < 0:
        return None
    word_here = stack.word_before(i)
    if word_here[shift:shift + len(rule.src)] != rule.src:
        return None
    for pos, r in enumerate(rule.lhs[1:], i):
        want = Layer(r.offset + shift, r.atom)
        for j in range(pos + 1, len(layers)):
            got = slide_left(layers[pos + 1:j], layers[j])
            if got is not None and got[0] == want:
                break
        else:
            return None
        layers[pos + 1:j + 1] = [got[0]] + got[1]
    n = len(rule.lhs)
    layers[i:i + n] = [Layer(l.offset + shift, l.atom) for l in rule.rhs]
    return Stack(stack.srcword, tuple(layers))


def ref_moves(stack, rules, budget):
    """Every rule window, then every cancellation, then every single slide
    with each of its readings."""
    out = []
    for rule in rules:
        if not rule.lhs:
            continue
        for i in range(len(stack.layers)):
            if not budget.spend():
                break
            got = ref_try_window(stack, i, rule)
            if got is not None:
                out.append(got)
    out += ref_cancellations(stack)
    layers = stack.layers
    for i in range(len(layers) - 1):
        for swapped in _swap_variants(layers[i], layers[i + 1]):
            out.append(Stack(stack.srcword,
                             layers[:i] + swapped + layers[i + 2:]))
    return out


def ref_stack_successors(stack, rules, budget):
    return [ref_canonical_stack(s) for s in ref_moves(stack, rules, budget)]


def ref_align(a: List[Layer], b: List[Layer]):
    """Adjacent transpositions turning layer list a into b, or None.
    Returns pairs (configuration before the swap, position)."""
    if len(a) != len(b):
        return None
    a = list(a)
    swaps = []
    for k in range(len(b)):
        if a[k] == b[k]:
            continue
        found = None
        for j in range(k + 1, len(a)):
            got = slide_left(a[k:j], a[j])
            if got is not None and got[0] == b[k]:
                found = j
                break
        if found is None:
            return None
        for j in range(found, k, -1):
            sw = slide(a[j - 1], a[j])
            assert sw is not None
            swaps.append((tuple(a), j - 1))
            a[j - 1], a[j] = sw
    if a != b:
        return None
    return swaps


# ---------------------------------------------------------------------------
# the kernel on stacks


def packed(p, stack):
    """A fresh atom table with the stack and p's layer rules packed."""
    table = interchange.AtomTable()
    state = (stack.srcword, pack(stack.layers, table))
    table.rules = _packed_rules(p, table)
    return table, state


def kernel_canonical(stack):
    table = interchange.AtomTable()
    state = (stack.srcword, pack(stack.layers, table))
    return unpack(interchange.canonical(table, state), table)


def kernel_cancellations(stack):
    table = interchange.AtomTable()
    state = (stack.srcword, pack(stack.layers, table))
    return [unpack(s, table)
            for s in interchange.cancellations(table, state)]


# ---------------------------------------------------------------------------
# slide counting


def _canonical_slide_line():
    """The first line of the slide loop that canonical inlines: one run of
    it per interchange test."""
    lines, first = inspect.getsourcelines(interchange.canonical)
    hits = [first + k for k, line in enumerate(lines)
            if line.strip() == "y = ids[j]"]
    assert len(hits) == 1, "canonical's slide loop has moved"
    return hits[0]


@contextmanager
def counting_slides():
    """Count the calls of interchange._readings, through which every other
    slide and every single-slide move of the kernel goes, plus the
    iterations of canonical's slide loop, which makes its interchange
    tests inline and is counted by a line tracer."""
    count = [0]
    readings = interchange._readings
    code, line = interchange.canonical.__code__, _canonical_slide_line()

    def counted(*args):
        count[0] += 1
        return readings(*args)

    def in_canonical(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            count[0] += 1
        return in_canonical

    tracer = sys.gettrace()
    interchange._readings = counted
    sys.settrace(lambda frame, event, arg:
                 in_canonical if frame.f_code is code else None)
    try:
        yield count
    finally:
        sys.settrace(tracer)
        interchange._readings = readings


def has_inverse_pair(stack):
    atoms = {layer.atom for layer in stack.layers}
    return any(a.inverse() in atoms for a in atoms)


# ---------------------------------------------------------------------------
# strategies


def _end(p, letter, side):
    """The 0-cell at one end of a 1-cell letter."""
    g = p.gens[letter[0]]
    return g.tgt if (side == TARGET) != letter[1] else g.src


def _atoms(p):
    """(atom, source word, target word, 0-cell under it) for every
    2-generator and, for an invertible one, its inverse."""
    out = []
    for name in sorted(g.name for g in p.gens_of_dim(2)):
        src, tgt = p.boundary_words(name)
        obj = ref_boundary(Gen(name), SOURCE, 0, p.gens)
        out.append((Atom(name, False, src, tgt), src, tgt, obj))
        if p.gens[name].invertible:
            out.append((Atom(name, True, tgt, src), tgt, src, obj))
    return out


def _object_at(p, start, word, i):
    return start if i == 0 else _end(p, word[i - 1], TARGET)


def _fitting(p, start, word):
    """The layers that can fire on word, as (layer, source, target)."""
    out = []
    for atom, src, tgt, obj in _atoms(p):
        for off in range(len(word) - len(src) + 1):
            if src:
                if word[off:off + len(src)] != src:
                    continue
            elif _object_at(p, start, word, off) != obj:
                continue
            out.append((Layer(off, atom), src, tgt))
    return out


def _fire(word, off, src, tgt):
    return word[:off] + tgt + word[off + len(src):]


@st.composite
def stacks(draw, max_layers=10):
    """A presentation and a well-typed stack over it.  Three kinds of
    step keep the interesting cases common: a deletion followed by an
    insertion at the same point (the point-degenerate pair, an inverse
    pair when both are alpha), a rule's left-hand side spliced in where
    its source word occurs, and random legal swaps at the end."""
    p = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    start = Gen(draw(st.sampled_from(sorted(g.name for g in p.gens_of_dim(0)))))
    letters = sorted((g.name, False) for g in p.gens_of_dim(1))
    word, obj = (), start
    for _ in range(draw(st.integers(0, 3))):
        nxt = [l for l in letters if _end(p, l, SOURCE) == obj]
        if not nxt:
            break
        letter = draw(st.sampled_from(nxt))
        word, obj = word + (letter,), _end(p, letter, TARGET)
    rules = ref_layer_rules(p)
    layers: List[Layer] = []
    cur = word
    size = draw(st.integers(0, max_layers))
    while len(layers) < size:
        options = _fitting(p, start, cur)
        kind = draw(st.sampled_from(["any", "any", "point", "rule"]))
        if kind == "point" and layers and not layers[-1].atom.tgt:
            # the last layer deletes: insert at the point it left
            same = [o for o in options
                    if o[0].offset == layers[-1].offset and not o[1]]
            options = same or options
        if kind == "rule" and rules:
            rule = draw(st.sampled_from(rules))
            places = [off for off in range(len(cur) - len(rule.src) + 1)
                      if cur[off:off + len(rule.src)] == rule.src]
            if places:
                off = draw(st.sampled_from(places))
                for r in rule.lhs:
                    layer = Layer(r.offset + off, r.atom)
                    layers.append(layer)
                    cur = _fire(cur, layer.offset, layer.atom.src,
                                 layer.atom.tgt)
                continue
        if len(cur) >= MAX_WIDTH:
            options = [o for o in options if len(o[2]) <= len(o[1])] or options
        if not options:
            break
        layer, src, tgt = draw(st.sampled_from(options))
        layers.append(layer)
        cur = _fire(cur, layer.offset, src, tgt)
    for _ in range(draw(st.integers(0, 2 * len(layers)))):
        if len(layers) < 2:
            break
        i = draw(st.integers(0, len(layers) - 2))
        readings = _swap_variants(layers[i], layers[i + 1])
        if readings:
            layers[i:i + 2] = draw(st.sampled_from(readings))
    stack = Stack(word, tuple(layers))
    stack.tgtword()  # raises if a layer does not fit
    return p, stack


# ---------------------------------------------------------------------------
# properties


def assert_kernel_matches_reference(p, stack):
    """canonical, the cancellations, and the whole move and
    successor lists of the packed state, against the Layer-level
    reference."""
    assert kernel_canonical(stack) == ref_canonical_stack(stack)
    assert kernel_cancellations(stack) == ref_cancellations(stack)
    table, state = packed(p, stack)
    layer_rules = ref_layer_rules(p)
    got = [unpack(s, table)
           for s in interchange.moves(table, state, Budget(10**6))]
    assert got == ref_moves(stack, layer_rules, Budget(10**6))
    got = [unpack(s, table) for s in
           interchange.successors(table, state, Budget(10**6))]
    assert got == ref_stack_successors(stack, layer_rules, Budget(10**6))


@settings(max_examples=300)
@given(stacks())
def test_interchange_core_matches_reference(case):
    assert_kernel_matches_reference(*case)


@settings(max_examples=300)
@given(stacks())
def test_no_slides_without_an_inverse_pair(case):
    p, stack = case
    with counting_slides() as count:
        got = kernel_cancellations(stack)
    if not has_inverse_pair(stack):
        assert got == [] and count[0] == 0


def point_degenerate_stacks():
    """Deletions then insertions at one point, and with alpha's inverse
    then alpha also inverse pairs."""
    p = PRESENTATIONS["walking_retract"]
    f, g = ("f", False), ("g", False)
    alpha = Atom("alpha", False, *p.boundary_words("alpha"))
    alpha_inv = alpha.inverse()
    eta_f = Atom("eta_f", False, *p.boundary_words("eta_f"))
    return p, [
        Stack((f, g), (Layer(0, alpha_inv), Layer(0, alpha))),
        Stack((f, g), (Layer(0, alpha_inv), Layer(0, eta_f), Layer(0, alpha))),
        Stack((), (Layer(0, alpha), Layer(0, alpha_inv), Layer(0, alpha))),
        Stack((f, g, f, g), (Layer(2, alpha_inv), Layer(0, alpha_inv),
                             Layer(0, alpha), Layer(0, alpha))),
    ]


def test_point_degenerate_pairs_match_reference():
    """A deletion then an insertion at one point slides both ways; with
    alpha's inverse then alpha it is also an inverse pair."""
    p, cases = point_degenerate_stacks()
    for stack in cases:
        stack.tgtword()
        assert_kernel_matches_reference(p, stack)
        assert kernel_cancellations(stack)


@st.composite
def reorderings(draw):
    """A stack and a reordering of its layers by random single slides,
    each taking either reading of its pair."""
    p, stack = draw(stacks())
    layers = list(stack.layers)
    for _ in range(draw(st.integers(0, 3 * len(layers)))):
        if len(layers) < 2:
            break
        i = draw(st.integers(0, len(layers) - 2))
        readings = _swap_variants(layers[i], layers[i + 1])
        if readings:
            layers[i:i + 2] = draw(st.sampled_from(readings))
    return stack, tuple(layers)


def assert_align_matches_reference(stack, target):
    """align makes ref_align's swaps, in the same configurations, whenever
    ref_align finds them: the greedy path is the first one align tries.
    Whenever align succeeds, its swaps, replayed by the reference slide,
    reach the target; and a target with one atom changed is never
    reached."""
    table = interchange.AtomTable()
    a, b = pack(stack.layers, table), pack(target, table)
    got = interchange.align(table, a, b)
    want = ref_align(list(stack.layers), list(target))
    if want is not None:
        assert got == [(pack(config, table), pos) for config, pos in want]
    if got is not None:
        assert_swaps_reach(stack, target, got, table)
    if b:
        other = b[:-1] + (table.inv[b[-1]],)
        assert interchange.align(table, a, other) is None


def assert_swaps_reach(stack, target, swaps, table):
    """Each swap starts from the layers the swaps before it left, and the
    reference slide, applied to each in turn, ends at the target."""
    layers = list(stack.layers)
    for flat, pos in swaps:
        assert flat == pack(layers, table)
        layers[pos:pos + 2] = slide(layers[pos], layers[pos + 1])
    assert layers == list(target)


@settings(max_examples=300)
@given(reorderings())
def test_align_matches_reference(case):
    assert_align_matches_reference(*case)


@st.composite
def first_reading_reorderings(draw):
    """A stack, a reordering of its layers by random single slides, each
    taking the first reading as align's swaps do, and whether one of
    those slides met a pair with two readings."""
    p, stack = draw(stacks())
    layers, two_readings = list(stack.layers), False
    for _ in range(draw(st.integers(0, 3 * len(layers)))):
        if len(layers) < 2:
            break
        i = draw(st.integers(0, len(layers) - 2))
        readings = _swap_variants(layers[i], layers[i + 1])
        if readings:
            two_readings |= len(readings) > 1
            layers[i:i + 2] = readings[0]
    return stack, tuple(layers), two_readings


@settings(max_examples=300)
@given(first_reading_reorderings())
def test_align_reaches_every_first_reading_reordering(case):
    """Every reordering whose slides each had one reading aligns; the
    others may not (see the strict xfail below).  Whenever align
    succeeds, its swaps replay to the target."""
    stack, target, two_readings = case
    table = interchange.AtomTable()
    swaps = interchange.align(table, pack(stack.layers, table),
                              pack(target, table))
    if not two_readings:
        assert swaps is not None
    if swaps is not None:
        assert_swaps_reach(stack, target, swaps, table)


@pytest.mark.xfail(strict=True, reason="align slides each layer straight "
                   "to its place, so it misses a layer whose offset a "
                   "round trip through a two-reading pair changed")
def test_align_reaches_a_round_trip_through_a_two_reading_pair():
    """Over walking_retract, first-reading slides move the first alpha
    right past alpha's inverse and back, through the pair (alpha^-1@0,
    alpha@0) whose first reading gives alpha@2: the first layer keeps its
    place and its offset changes."""
    p = PRESENTATIONS["walking_retract"]
    alpha = Atom("alpha", False, *p.boundary_words("alpha"))
    stack = Stack(alpha.tgt, (Layer(0, alpha), Layer(0, alpha),
                              Layer(4, alpha.inverse()), Layer(0, alpha)))
    layers = list(stack.layers)
    for pos in (1, 0, 0):
        layers[pos:pos + 2] = slide(layers[pos], layers[pos + 1])
    assert layers == [Layer(2, alpha), Layer(0, alpha.inverse()),
                      Layer(0, alpha), Layer(0, alpha)]
    table = interchange.AtomTable()
    swaps = interchange.align(table, pack(stack.layers, table),
                              pack(layers, table))
    assert swaps is not None


def test_align_tries_the_later_copies_of_a_repeated_atom():
    """Over adj the greedy choice slides the wrong copy of eta: the first
    eta@0 stays in place, and no later layer then slides to eta@2."""
    p = PRESENTATIONS["adj"]
    atoms = {name: Atom(name, False, *p.boundary_words(name))
             for name in ("eta", "eps")}

    def layers(text):
        return tuple(Layer(int(off), atoms[name])
                     for name, off in (x.split("@") for x in text.split()))

    stack = Stack((), layers("eta@0 eta@0 eps@1 eta@0 eta@0 eta@6 eps@1"))
    target = layers("eta@0 eta@2 eta@0 eta@0 eta@8 eps@1 eps@3")
    stack.tgtword()
    assert Stack((), target).tgtword() == stack.tgtword()
    assert ref_align(list(stack.layers), list(target)) is None
    table = interchange.AtomTable()
    swaps = interchange.align(table, pack(stack.layers, table),
                              pack(target, table))
    assert swaps is not None
    assert_swaps_reach(stack, target, swaps, table)


def test_align_on_every_reordering_of_the_point_degenerate_stacks():
    """Every layer order that single slides, by either reading, reach from
    each point-degenerate stack, where align meets pairs with two
    readings."""
    for stack in point_degenerate_stacks()[1]:
        seen, todo = {stack.layers}, [stack.layers]
        while todo:
            layers = todo.pop()
            assert_align_matches_reference(stack, layers)
            for i in range(len(layers) - 1):
                for pair in _swap_variants(layers[i], layers[i + 1]):
                    nxt = layers[:i] + pair + layers[i + 2:]
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        assert len(seen) > 1


def _bench_stack(diagrams, sig, w, layers):
    """A benchmark stack of sig's layers on the word w, as the diagrams
    workload builds its term, read back through stack_of; a stack over
    the free monad signature is read over mnd, which has its generators."""
    rows = [diagrams.to_term(sig, word, [layer]) for word, layer
            in zip(diagrams.words_along(sig, w, layers), layers)]
    p, table = PRESENTATIONS[sig.name.split("-")[0]], interchange.AtomTable()
    return p, unpack(stack_of(comp(1, *rows), p, table), table)


def _fixed_adj_stack():
    """The fixed 40-layer adj stack of the diagrams benchmark workload,
    drawn the same way, from random.Random(0)."""
    diagrams = bench_diagrams()
    fixed = random.Random(0)
    w = diagrams.start_word(fixed, diagrams.ADJ)
    return _bench_stack(diagrams, diagrams.ADJ, w,
                        diagrams.random_stack(fixed, diagrams.ADJ, w, 40))


def _bracket_stacks(seed):
    """The re-bracketed tall stacks of the diagrams benchmark workload at a
    seed, drawn as perfbench/workloads.py draws them: 12 to 24 layers over
    mnd, adj and the free monad signature."""
    diagrams = bench_diagrams()
    rng = random.Random(seed + 1)
    for n in (12, 16, 20, 24):
        for sig in (diagrams.MND, diagrams.ADJ, diagrams.FREE):
            w = diagrams.start_word(rng, sig)
            yield _bench_stack(diagrams, sig, w,
                               diagrams.random_stack(rng, sig, w, n))


def test_tall_stacks_match_reference():
    """canonical and the cancellations against the reference on stacks
    taller than the random strategy draws, where a layer emitted from the
    middle of the stack leaves layers on both sides of it."""
    stacks = [stack for seed in (1, 2, 3) for _, stack in _bracket_stacks(seed)]
    stacks.append(_fixed_adj_stack()[1])
    assert sorted({len(s.layers) for s in stacks}) == [12, 16, 20, 24, 40]
    for stack in stacks:
        assert kernel_canonical(stack) == ref_canonical_stack(stack)
        assert kernel_cancellations(stack) == ref_cancellations(stack)


def test_slide_counts_on_the_fixed_40_layer_stack():
    p, stack = _fixed_adj_stack()
    assert len(stack.layers) == 40
    with counting_slides() as count:
        got = kernel_canonical(stack)
    # the reference makes 5,780 slides here
    assert count[0] == 3633
    assert got == ref_canonical_stack(stack)
    with counting_slides() as count:
        assert kernel_cancellations(stack) == []
    assert count[0] == 0


# the (verdict, budget spent) of every search below, as the Layer-object
# search that the packed kernel replaced made them
SEARCH_TRACE_SHA256 = ("fb14ebd1faed8414015c4e5bd41a83fd1d92492c"
                       "d1ef1d6b8d9827acf88bfd6a")


def test_every_search_keeps_its_verdict_and_budget(monkeypatch):
    """Every _meet call of the hopf-square queries and of 96 diagrams
    pairs (seeds 1 and 2): its verdict and the budget it spent, in
    order."""
    monkeypatch.delenv("HOPFSMITH_BUDGET", raising=False)
    trace = []
    meet = rewriting._meet

    def recorded(a, b, successors, budget, stop):
        left = budget.left
        verdict = meet(a, b, successors, budget, stop)
        trace.append((verdict.name, left - budget.left))
        return verdict

    monkeypatch.setattr(rewriting, "_meet", recorded)
    mates.hopf_square_terms(mates.walking_retract())
    hs = mates.hopf_square_terms(mates.trivial_retract())
    eq(hs.H, Id(Id(Gen("one"))), hs.record.presentation)
    base = mnd().base
    signatures = {"mnd": base, "adj": adj().base,
                  "mnd-free": Presentation(base.max_dim, dict(base.gens))}
    diagrams = bench_diagrams()
    for seed in (1, 2):
        for pair in diagrams.make_pairs(seed, [2, 3, 4] * 4):
            eq(pair.left, pair.right, signatures[pair.signature])
    assert len(trace) == 105
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
    assert digest == SEARCH_TRACE_SHA256
