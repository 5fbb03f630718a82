"""Differential oracle, slide counts and search trace for the interchange
kernel.

The reference functions below work on Layer objects, and
ref_canonical_stack, ref_cancellations and ref_try_window try to slide
every layer, whatever its atom, so they are slower but obviously follow
their definitions.  The kernel (hopfsmith.interchange) works on packed
integer states and skips slides whose outcome is known without making
them; it must give the same stacks, and the same lists in the same
order, on every stack.  The slide counts are exact: every interchange test of the
kernel goes through interchange._readings, which the counter wraps.  The
search trace pins the verdict and the budget spent of every search.
"""

import hashlib
import importlib.util
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List

from hypothesis import given, settings, strategies as st

from hopfsmith import interchange, mates, rewriting
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import (Atom, Budget, Layer, Stack, _layer_rules,
                                 _pack, _packed_rules, _swap_variants,
                                 _unpack, canonical_stack, eq, slide,
                                 slide_left, stack_of)
from hopfsmith.terms import Gen, Id, SOURCE, TARGET, boundary, comp
from hopfsmith.walking import adj, mnd

PRESENTATIONS = {"mnd": mnd().base, "adj": adj().base,
                 "walking_retract": walking_retract().presentation}
# random stacks stop growing their word past this many letters
MAX_WIDTH = 6


# ---------------------------------------------------------------------------
# reference code


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


# ---------------------------------------------------------------------------
# the kernel on stacks


def packed(p, stack):
    """A fresh atom table with the stack and p's layer rules packed."""
    table = interchange.AtomTable()
    state = (stack.srcword, _pack(stack.layers, table))
    return table, state, _packed_rules(p, table)


def kernel_cancellations(stack):
    table = interchange.AtomTable()
    state = (stack.srcword, _pack(stack.layers, table))
    return [_unpack(s, table)
            for s in interchange.cancellations(table, state)]


# ---------------------------------------------------------------------------
# slide counting


@contextmanager
def counting_slides():
    """Count the calls of interchange._readings, through which every slide
    and every single-slide move of the kernel goes."""
    count = [0]
    readings = interchange._readings

    def counted(*args):
        count[0] += 1
        return readings(*args)

    interchange._readings = counted
    try:
        yield count
    finally:
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
        obj = boundary(Gen(name), SOURCE, 0, p.gens)
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
    rules = _layer_rules(p)
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
    """canonical_stack, the cancellations, and the whole move and
    successor lists of the packed state, against the Layer-level
    reference."""
    assert canonical_stack(stack) == ref_canonical_stack(stack)
    assert kernel_cancellations(stack) == ref_cancellations(stack)
    table, state, rules = packed(p, stack)
    layer_rules = _layer_rules(p)
    got = [_unpack(s, table)
           for s in interchange.moves(table, state, rules, Budget(10**6))]
    assert got == ref_moves(stack, layer_rules, Budget(10**6))
    got = [_unpack(s, table) for s in
           interchange.successors(table, state, rules, Budget(10**6))]
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


def test_point_degenerate_pairs_match_reference():
    """A deletion then an insertion at one point slides both ways; with
    alpha's inverse then alpha it is also an inverse pair."""
    p = PRESENTATIONS["walking_retract"]
    f, g = ("f", False), ("g", False)
    alpha = Atom("alpha", False, *p.boundary_words("alpha"))
    alpha_inv = alpha.inverse()
    eta_f = Atom("eta_f", False, *p.boundary_words("eta_f"))
    cases = [
        Stack((f, g), (Layer(0, alpha_inv), Layer(0, alpha))),
        Stack((f, g), (Layer(0, alpha_inv), Layer(0, eta_f), Layer(0, alpha))),
        Stack((), (Layer(0, alpha), Layer(0, alpha_inv), Layer(0, alpha))),
        Stack((f, g, f, g), (Layer(2, alpha_inv), Layer(0, alpha_inv),
                             Layer(0, alpha), Layer(0, alpha))),
    ]
    for stack in cases:
        stack.tgtword()
        assert_kernel_matches_reference(p, stack)
        assert kernel_cancellations(stack)


def _bench_diagrams():
    """perfbench/diagrams.py, the diagrams benchmark's pair generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "diagrams.py"
    spec = importlib.util.spec_from_file_location("_bench_diagrams", path)
    diagrams = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = diagrams
    spec.loader.exec_module(diagrams)
    return diagrams


def _fixed_adj_stack():
    """The fixed 40-layer adj stack of the diagrams benchmark workload,
    drawn the same way, from random.Random(0)."""
    diagrams = _bench_diagrams()
    fixed = random.Random(0)
    w = diagrams.start_word(fixed, diagrams.ADJ)
    layers = diagrams.random_stack(fixed, diagrams.ADJ, w, 40)
    rows = [diagrams.to_term(diagrams.ADJ, word, [layer]) for word, layer
            in zip(diagrams.words_along(diagrams.ADJ, w, layers), layers)]
    p = PRESENTATIONS["adj"]
    return p, stack_of(comp(1, *rows), p)


def test_slide_counts_on_the_fixed_40_layer_stack():
    p, stack = _fixed_adj_stack()
    assert len(stack.layers) == 40
    with counting_slides() as count:
        got = canonical_stack(stack)
    # the reference makes 5,780 slides here
    assert count[0] <= 4000
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
    diagrams = _bench_diagrams()
    for seed in (1, 2):
        for pair in diagrams.make_pairs(seed, [2, 3, 4] * 4):
            eq(pair.left, pair.right, signatures[pair.signature])
    assert len(trace) == 105
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
    assert digest == SEARCH_TRACE_SHA256
