"""Properties of interchange.canonical that let the 2-cell search drop
single slides.

The search makes a single slide a move only for an insertion/deletion
pair (an atom with an empty source next to one with an empty target, in
either order).  Dropping the others is safe when each of them gives back
the canonical state it was made from; that needs canonical to be
idempotent.  Both are checked over random stacks of mnd, adj, the free
monad signature and walking_retract().  Over the first three, no
deletion ever meets an insertion inside another layer's output, so
every legal reordering of a stack, by slides taking either reading of
a two-reading pair, has one canonical state.

A stack is built from one drawn list of choice numbers, each picking
from the options of its step, so the strategies are made once, here.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from hopfsmith import interchange
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.terms import SOURCE, Gen
from hopfsmith.walking import adj, mnd

# random stacks stop growing their word past this many letters
MAX_WIDTH = 6


def _signature(p):
    """p's atoms on one table, with what a stack over p needs to grow."""
    table = interchange.AtomTable()
    atoms = []
    for g in sorted(p.gens_of_dim(2), key=lambda g: g.name):
        src, tgt = p.boundary_words(g.name)
        under = p.boundary(Gen(g.name), SOURCE, 0)
        x = table.add(g.name, False, src, tgt)
        atoms += [(x, under), (table.inv[x], under)][:1 + g.invertible]
    ends = {(g.name, False): (g.src, g.tgt) for g in p.gens_of_dim(1)}
    objects = sorted(g.name for g in p.gens_of_dim(0))
    return SimpleNamespace(table=table, atoms=atoms, ends=ends,
                           objects=[Gen(o) for o in objects],
                           letters=sorted(ends))


base = mnd().base
SIGNATURES = {
    "mnd": _signature(base),
    "adj": _signature(adj().base),
    "free": _signature(Presentation(base.max_dim, dict(base.gens))),
    "walking_retract": _signature(walking_retract().presentation),
}
CHOICES = st.lists(st.integers(0, 2**16), max_size=120)
EVERY = st.tuples(st.sampled_from(sorted(SIGNATURES)), CHOICES)
ONE_STATE = st.tuples(st.sampled_from(["adj", "free", "mnd"]), CHOICES,
                      CHOICES)


def _picker(choices):
    it = iter(choices)
    return lambda options: options[next(it, 0) % len(options)]


def _fire(tab, word, o, x):
    return word[:o] + tab.tgt[x] + word[o + tab.ns[x]:]


def _fitting(sig, start, word):
    """The layers (offset, id) that can fire on word."""
    tab, out = sig.table, []
    for x, under in sig.atoms:
        for o in range(len(word) - tab.ns[x] + 1):
            if tab.ns[x]:
                if word[o:o + tab.ns[x]] == tab.src[x]:
                    out.append((o, x))
            elif (sig.ends[word[o - 1]][1] if o else start) == under:
                out.append((o, x))
    return out


def _readings(tab, flat, k):
    """The single slides of the pair at layers k, k + 1, by each reading."""
    ao, a, bo, b = flat[2 * k:2 * k + 4]
    r = interchange._readings(tab.ns, tab.nt, ao, a, bo, b)
    out = []
    if r & 1:
        out.append((bo + tab.ns[a] - tab.nt[a], b, ao, a))
    if r & 2:
        out.append((bo, b, ao + tab.nt[b] - tab.ns[b], a))
    return [flat[:2 * k] + pair + flat[2 * k + 4:] for pair in out]


def _reorder(tab, flat, pick):
    """flat after some legal single slides, each by either reading."""
    for _ in range(pick(range(2 * len(flat) + 1))):
        if len(flat) < 4:
            break
        slid = _readings(tab, flat, pick(range(len(flat) // 2 - 1)))
        if slid:
            flat = pick(slid)
    return flat


def build(name, choices):
    """A signature and a well-typed state over it, grown by the choices.
    Half the time a deletion is followed by an insertion at the point it
    leaves, when one fits there."""
    sig, pick = SIGNATURES[name], _picker(choices)
    tab = sig.table
    start = obj = pick(sig.objects)
    word = ()
    for _ in range(pick(range(4))):
        nxt = [l for l in sig.letters if sig.ends[l][0] == obj]
        if not nxt:
            break
        letter = pick(nxt)
        word, obj = word + (letter,), sig.ends[letter][1]
    flat, cur = (), word
    for _ in range(pick(range(10))):
        options = _fitting(sig, start, cur)
        if flat and not tab.nt[flat[-1]] and pick([True, False]):
            options = [(o, x) for o, x in options
                       if o == flat[-2] and not tab.ns[x]] or options
        if len(cur) >= MAX_WIDTH:
            options = [(o, x) for o, x in options
                       if tab.nt[x] <= tab.ns[x]] or options
        if not options:
            break
        o, x = pick(options)
        flat, cur = flat + (o, x), _fire(tab, cur, o, x)
    return sig, (word, _reorder(tab, flat, pick))


def _dropped(tab, flat, k):
    """Whether the search makes no single slide of the pair at k, k + 1:
    it is not an insertion next to a deletion."""
    a, b = flat[2 * k + 1], flat[2 * k + 3]
    return not (tab.ns[a] == tab.nt[b] == 0 or tab.nt[a] == tab.ns[b] == 0)


@settings(max_examples=150)
@given(EVERY)
def test_canonical_is_idempotent(case):
    sig, state = build(*case)
    canon = interchange.canonical(sig.table, state)
    assert interchange.canonical(sig.table, canon) == canon


@settings(max_examples=150)
@given(EVERY)
def test_every_dropped_slide_gives_back_its_state(case):
    sig, state = build(*case)
    tab = sig.table
    word, flat = canon = interchange.canonical(tab, state)
    for k in range(len(flat) // 2 - 1):
        if _dropped(tab, flat, k):
            for slid in _readings(tab, flat, k):
                assert interchange.canonical(tab, (word, slid)) == canon


@settings(max_examples=150)
@given(ONE_STATE)
def test_every_reordering_has_one_canonical_state(case):
    name, grow, moves = case
    sig, (word, flat) = build(name, grow)
    other = _reorder(sig.table, flat, _picker(moves))
    assert (interchange.canonical(sig.table, (word, other))
            == interchange.canonical(sig.table, (word, flat)))


def _walking_state(text, word):
    """A state over walking_retract from "name@offset" layers, "^" marking
    an inverse."""
    tab, flat = SIGNATURES["walking_retract"].table, ()
    for item in text.split():
        name, off = item.split("@")
        key = (name.rstrip("^"), name.endswith("^"))
        flat += (int(off), tab.ids[key])
    return tab, (tuple((l, False) for l in word.split()), flat)


def test_a_pass_over_its_own_output_can_read_further():
    """alpha^-1 fires first in the first pass, and eta_g then lies at the
    point it leaves, inside secL's output; a second pass reads that pair
    the other way, so eta_g passes secL and fires first.  canonical
    returns what the second pass gives, which a third leaves as it is."""
    tab, state = _walking_state(
        "secL@1 eta_g@2 eta_g@3 alpha^@6 secL@4 alpha^@5", "gL g")
    first = interchange._greedy(tab, state)
    assert first == _walking_state(
        "secL@1 alpha^@2 eta_g@2 eta_g@3 secL@4 alpha^@5", "gL g")[1]
    canon = interchange.canonical(tab, state)
    assert canon == interchange._greedy(tab, first) != first
    assert canon == _walking_state(
        "eta_g@2 eta_g@3 secL@1 alpha^@2 secL@4 alpha^@5", "gL g")[1]
    assert interchange.canonical(tab, canon) == canon
