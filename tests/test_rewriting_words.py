"""The per-presentation boundary-word table: it agrees with word_of on
every generator, every atom stack_of builds carries its entry (swapped
for inverted atoms), and it keeps its entries when the presentation
grows.  Also the fit check of Stack.word_before, the public slide
test, and the splice of a rule's right side into a word, which reduces
only where the parts meet."""

import pytest
from hypothesis import given, strategies as st

from hopfsmith import presentation, rewriting
from hopfsmith.cli import BUILTIN_PRESENTATIONS
from hopfsmith.gray import gray
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import (EQ_EQUAL, Atom, Layer, Stack, _cancel_word,
                                 _join, eq, slide, stack_of, word_of)
from hopfsmith.terms import Gen, Id, Inv, TermError, comp
from hopfsmith.walking import mnd


def _presentations():
    out = {name: build() for name, build in BUILTIN_PRESENTATIONS.items()}
    out["gray(mnd, mnd)"] = gray(mnd().base, mnd().base)
    out["walking_retract"] = walking_retract().presentation
    return out


def _word_or_error(t, p):
    try:
        return word_of(t, p)
    except TermError:
        return TermError


def _table_or_error(p, name):
    try:
        return p.boundary_words(name)
    except TermError:
        return TermError


def _atom(p, name):
    return Atom(name, False, *p.boundary_words(name))


@pytest.mark.parametrize("name,p", sorted(_presentations().items()))
def test_table_matches_word_of(name, p):
    for g in p.gens.values():
        if g.dim < 2:
            continue
        src, tgt = _word_or_error(g.src, p), _word_or_error(g.tgt, p)
        if TermError in (src, tgt):
            # not a 2-cell boundary: the table refuses it the same way
            assert _table_or_error(p, g.name) is TermError
            continue
        assert p.boundary_words(g.name) == (src, tgt), g.name


@pytest.mark.parametrize("name,p", sorted(_presentations().items()))
def test_atoms_carry_their_table_words(name, p):
    """Every atom of every stack stack_of builds from a 2-generator, its
    inverse or a side of a 2-relation carries the generator's table
    words, swapped when it is inverted."""
    terms = []
    for g in p.gens_of_dim(2):
        terms += [Gen(g.name), Inv(Gen(g.name))]
    terms += [t for r in p.relations if r.dim == 2 for t in (r.lhs, r.rhs)]
    atoms = 0
    for t in terms:
        try:
            stack = stack_of(t, p)
        except TermError:
            continue
        for layer in stack.layers:
            src, tgt = p.boundary_words(layer.atom.name)
            want = (tgt, src) if layer.atom.inverted else (src, tgt)
            assert (layer.atom.src, layer.atom.tgt) == want, (name, t)
            inverse = layer.atom.inverse()
            assert (inverse.src, inverse.tgt) == want[::-1]
            atoms += 1
    assert atoms >= 2 * len(p.gens_of_dim(2))


def _loop_presentation():
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    a = p.add("a", 2, f, f)
    return p, f, a


def test_words_and_verdicts_after_add_and_relate():
    p, f, a = _loop_presentation()
    side_by_side = comp(0, a, a)
    stacked = comp(1, comp(0, a, Id(f)), comp(0, Id(f), a))
    assert eq(side_by_side, stacked, p) is EQ_EQUAL
    b = p.add("b", 2, comp(0, f, f), f)
    lhs, rhs = comp(1, comp(0, a, a), b), comp(1, b, a)
    p.relate(2, lhs, rhs, oriented=True)
    ff, one_f = (("f", False), ("f", False)), (("f", False),)
    assert p.boundary_words("b") == (ff, one_f)
    atom = stack_of(rhs, p).layers[0].atom
    assert (atom.name, atom.src, atom.tgt) == ("b", ff, one_f)
    assert (atom.inverse().src, atom.inverse().tgt) == (one_f, ff)
    assert eq(lhs, rhs, p) is EQ_EQUAL


def test_add_and_relate_keep_the_table(monkeypatch):
    p, f, a = _loop_presentation()
    calls = []

    def counting(t, q):
        calls.append(t)
        return word_of(t, q)

    monkeypatch.setattr(presentation, "word_of", counting)
    p.boundary_words("a")
    p.boundary_words("a")
    assert len(calls) == 2  # source and target, once
    p.add("b", 2, comp(0, f, f), f)
    p.boundary_words("a")
    p.relate(2, Gen("a"), Gen("a"))
    p.boundary_words("a")
    assert len(calls) == 2
    monkeypatch.undo()
    # the kept entry is what a presentation built afresh computes
    fresh = Presentation.loads(p.dumps())
    g = fresh.gens["a"]
    assert p.boundary_words("a") == (word_of(g.src, fresh),
                                     word_of(g.tgt, fresh))


def test_word_before_rejects_a_layer_that_does_not_fit():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    stack = Stack((("f", False),), (Layer(0, _atom(p, "b")),))
    assert stack.word_before(0) == (("f", False),)
    with pytest.raises(TermError):
        stack.word_before(1)
    with pytest.raises(TermError):
        stack.tgtword()


def test_slide_disjoint_and_blocked():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    a, b = _atom(p, "a"), _atom(p, "b")
    left, right = Layer(0, a), Layer(1, a)
    assert slide(left, right) == (right, left)
    merge = Layer(0, b)
    assert slide(left, merge) is None


def test_slide_left_and_right_across_a_block():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    # on the word f f f: a at 2 fires after a at 0 and a at 1, which it
    # passes unchanged; a merge b at 0 blocks it
    a, b = _atom(p, "a"), _atom(p, "b")
    block = [Layer(0, a), Layer(1, a)]
    last = Layer(2, a)
    assert rewriting.slide_left(block, last) == (last, block)
    assert rewriting._slide_right(last, block) == (block, last)
    merge = Layer(0, b)
    assert rewriting.slide_left([merge], Layer(1, a)) == (Layer(2, a), [merge])
    assert rewriting.slide_left([merge], Layer(0, a)) is None
    assert rewriting._slide_right(Layer(2, a), [merge]) \
        == ([merge], Layer(1, a))
    assert rewriting.slide_left([], last) == (last, [])


# signed letters over two names, so that neighbours often cancel
_reduced = st.lists(st.tuples(st.sampled_from("fg"), st.booleans()),
                    max_size=8).map(lambda w: _cancel_word(tuple(w)))


@given(_reduced, _reduced, st.data())
def test_splice_reduces_as_the_whole_word_does(word, rhs, data):
    """Replacing a window of a reduced word by a reduced right side and
    reducing only at the two junctions gives the free reduction of the
    whole spliced word, also when the right side cancels away entirely
    and the two ends of the word meet."""
    i = data.draw(st.integers(0, len(word)))
    j = data.draw(st.integers(i, len(word)))
    before, after = word[:i], word[j:]
    assert _join(before, rhs) == _cancel_word(before + rhs)
    assert (_join(_join(before, rhs), after)
            == _cancel_word(before + rhs + after))
