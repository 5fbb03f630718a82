"""The per-presentation boundary-word table: it agrees with word_of on
every generator, every atom stack_of adds to an atom table carries its
entry (swapped for inverted atoms), and each entry is computed once,
since reading the table freezes the presentation.  Also the kernel's fit check of a layer on its
word, its interchange test of two layers and its slides across a
block, and the splice of a rule's right side into a word, which
reduces only where the parts meet."""

import pytest
from hypothesis import given, strategies as st

from hopfsmith import presentation
from hopfsmith.cli import BUILTIN_PRESENTATIONS
from hopfsmith.gray import gray
from hopfsmith.interchange import (AtomTable, _fire, _readings, _slide_left,
                                   _slide_right)
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import (EQ_EQUAL, _cancel_word, _join, eq, stack_of,
                                 word_of)
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


def _atoms(p, *names):
    """A table holding the named atoms, and their ids."""
    table = AtomTable()
    return table, [table.add(name, False, *p.boundary_words(name))
                   for name in names]


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
    words, swapped when it is inverted, and its inverse the other way
    round."""
    terms = []
    for g in p.gens_of_dim(2):
        terms += [Gen(g.name), Inv(Gen(g.name))]
    terms += [t for r in p.relations if r.dim == 2 for t in (r.lhs, r.rhs)]
    atoms = 0
    for t in terms:
        table = AtomTable()
        try:
            _, flat = stack_of(t, p, table)
        except TermError:
            continue
        for x in flat[1::2]:
            atom, inverted = table.keys[x]
            src, tgt = p.boundary_words(atom)
            want = (tgt, src) if inverted else (src, tgt)
            assert (table.src[x], table.tgt[x]) == want, (name, t)
            inverse = table.inv[x]
            assert (table.src[inverse], table.tgt[inverse]) == want[::-1]
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
    b = p.add("b", 2, comp(0, f, f), f)
    lhs, rhs = comp(1, comp(0, a, a), b), comp(1, b, a)
    p.relate(2, lhs, rhs, oriented=True)
    side_by_side = comp(0, a, a)
    stacked = comp(1, comp(0, a, Id(f)), comp(0, Id(f), a))
    assert eq(side_by_side, stacked, p) is EQ_EQUAL
    ff, one_f = (("f", False), ("f", False)), (("f", False),)
    assert p.boundary_words("b") == (ff, one_f)
    table = AtomTable()
    x = stack_of(rhs, p, table)[1][1]
    assert (table.keys[x], table.src[x], table.tgt[x]) == (("b", False),
                                                          ff, one_f)
    inverse = table.inv[x]
    assert (table.src[inverse], table.tgt[inverse]) == (one_f, ff)
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
    with pytest.raises(TermError):
        p.add("b", 2, comp(0, f, f), f)
    p.boundary_words("a")
    with pytest.raises(TermError):
        p.relate(2, Gen("a"), Gen("a"))
    p.boundary_words("a")
    assert len(calls) == 2
    monkeypatch.undo()
    # the kept entry is what a presentation built afresh computes
    fresh = Presentation.loads(p.dumps())
    g = fresh.gens["a"]
    assert p.boundary_words("a") == (word_of(g.src, fresh),
                                     word_of(g.tgt, fresh))


def test_fire_rejects_a_layer_that_does_not_fit():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    table, (b,) = _atoms(p, "b")
    f1 = (("f", False),)
    assert _fire(table, f1 + f1, 0, b) == f1
    with pytest.raises(TermError):
        _fire(table, f1, 0, b)


def test_readings_disjoint_and_blocked():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    table, (a, b) = _atoms(p, "a", "b")
    ns, nt = table.ns, table.nt
    # a at 0 then a at 1: the second fires first, at 1 + ns[a] - nt[a]
    assert _readings(ns, nt, 0, a, 1, a) == 1
    assert 1 + ns[a] - nt[a] == 1
    # a merge b at 0 overlaps a at 0
    assert _readings(ns, nt, 0, a, 0, b) == 0


def test_slide_left_and_right_across_a_block():
    p, f, a = _loop_presentation()
    p.add("b", 2, comp(0, f, f), f)
    # on the word f f f: a at 2 fires after a at 0 and a at 1, which it
    # passes unchanged; a merge b at 0 blocks it
    table, (a, b) = _atoms(p, "a", "b")
    ns, nt = table.ns, table.nt
    block = ([0, 1], [a, a])
    assert _slide_left(ns, nt, *block, 0, 2, 2, a) == (2, [])
    assert _slide_right(ns, nt, *block, 0, 2, 2, a) == (2, [])
    merge = ([0], [b])
    assert _slide_left(ns, nt, *merge, 0, 1, 1, a) == (2, [])
    assert _slide_left(ns, nt, *merge, 0, 1, 0, a) is None
    assert _slide_right(ns, nt, *merge, 0, 1, 2, a) == (1, [])
    assert _slide_left(ns, nt, [], [], 0, 0, 2, a) == (2, [])


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
