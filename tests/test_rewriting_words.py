"""The per-presentation boundary-word table: it agrees with word_of on
every generator, swaps for inverted atoms, and keeps its entries when
the presentation grows.  Also the fit check of Stack.word_before and the
public slide test."""

import pytest

from hopfsmith import rewriting
from hopfsmith.cli import BUILTIN_PRESENTATIONS
from hopfsmith.gray import gray
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import (EQ_EQUAL, Atom, Layer, Stack, eq, slide,
                                 word_of)
from hopfsmith.terms import Gen, Id, TermError, comp
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


def _words_or_error(atom, p):
    try:
        return atom.words(p)
    except TermError:
        return TermError


@pytest.mark.parametrize("name,p", sorted(_presentations().items()))
def test_table_matches_word_of(name, p):
    for g in p.gens.values():
        if g.dim < 2:
            continue
        src, tgt = _word_or_error(g.src, p), _word_or_error(g.tgt, p)
        if TermError in (src, tgt):
            # not a 2-cell boundary: the table refuses it the same way
            assert _words_or_error(Atom(g.name, False), p) is TermError
            assert _words_or_error(Atom(g.name, True), p) is TermError
            continue
        assert Atom(g.name, False).words(p) == (src, tgt), g.name
        assert Atom(g.name, True).words(p) == (tgt, src), g.name


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
    assert Atom("b", False).words(p) == (ff, one_f)
    assert Atom("b", True).words(p) == (one_f, ff)
    assert eq(lhs, rhs, p) is EQ_EQUAL


def test_add_and_relate_keep_the_table(monkeypatch):
    p, f, a = _loop_presentation()
    calls = []

    def counting(t, q):
        calls.append(t)
        return word_of(t, q)

    monkeypatch.setattr(rewriting, "word_of", counting)
    Atom("a", False).words(p)
    Atom("a", True).words(p)
    assert len(calls) == 2  # source and target, once
    p.add("b", 2, comp(0, f, f), f)
    Atom("a", False).words(p)
    p.relate(2, Gen("a"), Gen("a"))
    Atom("a", True).words(p)
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
    stack = Stack((("f", False),), (Layer(0, Atom("b", False)),))
    assert stack.word_before(0, p) == (("f", False),)
    with pytest.raises(TermError):
        stack.word_before(1, p)
    with pytest.raises(TermError):
        stack.tgtword(p)


def test_slide_disjoint_and_blocked():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    left, right = Layer(0, Atom("a", False)), Layer(1, Atom("a", False))
    assert slide(left, right, p) == (right, left)
    merge = Layer(0, Atom("b", False))
    assert slide(left, merge, p) is None


def test_slide_left_and_right_across_a_block():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    # on the word f f f: a at 2 fires after a at 0 and a at 1, which it
    # passes unchanged; a merge b at 0 blocks it
    block = [Layer(0, Atom("a", False)), Layer(1, Atom("a", False))]
    last = Layer(2, Atom("a", False))
    assert rewriting.slide_left(block, last, p) == (last, block)
    assert rewriting._slide_right(last, block, p) == (block, last)
    merge = Layer(0, Atom("b", False))
    assert rewriting.slide_left([merge], Layer(1, Atom("a", False)), p) \
        == (Layer(2, Atom("a", False)), [merge])
    assert rewriting.slide_left([merge], Layer(0, Atom("a", False)), p) is None
    assert rewriting._slide_right(Layer(2, Atom("a", False)), [merge], p) \
        == ([merge], Layer(1, Atom("a", False)))
    assert rewriting.slide_left([], last, p) == (last, [])
