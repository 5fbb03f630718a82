"""The interchange kernel a presentation keeps for its 2-cell searches,
and the freeze that keeps it and the other derived tables current.

All searches on one presentation share its kernel: the atom table, the
packed oriented 2-rules and the memos of canonical forms and successors.
Sharing must change nothing: every query gives the verdict and spends
the budget it does on a fresh copy of the presentation, whatever ran
before it.  Reading a derived table (the kernel, a normal face or a
boundary word pair), as every search and every boundary certificate
does, freezes the presentation: add and relate raise from then on, so
the kernel is never dropped and an ill-formed face is normalized once.
Copies and pickles keep the freeze and leave the kernel out, and a
search drops its memos once they pass interchange.MEMO_STATES.
"""

import copy
import pickle
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bench_diagrams
from hopfsmith import interchange, presentation, rewriting
from hopfsmith.presentation import Presentation, validate_presentation
from hopfsmith.rewriting import (Budget, EQ_DISTINCT, EQ_EQUAL, EQ_UNKNOWN,
                                 eq, parallel)
from hopfsmith.terms import SOURCE, TARGET, Gen, TermError, comp, normal_dim
from hopfsmith.walking import adj, mnd


def _diagram_queries():
    """The JSON of each diagrams signature and the (left, right) pairs of
    seed 1 over it."""
    base = mnd().base
    signatures = {"mnd": base, "adj": adj().base,
                  "mnd-free": Presentation(base.max_dim, dict(base.gens))}
    out = {name: (p.dumps(), []) for name, p in signatures.items()}
    for pair in bench_diagrams().make_pairs(1, [2, 3, 4]):
        out[pair.signature][1].append((pair.left, pair.right))
    return out


QUERIES = _diagram_queries()


def verdict_and_spent(a, b, p, steps):
    """eq's verdict on a and b with a budget of steps, and the steps it
    spent."""
    budget = Budget(steps)
    v = rewriting._eq(*normal_dim(a, p.gens), *normal_dim(b, p.gens),
                      p, budget, True)
    return v.name, steps - budget.left


@settings(max_examples=40)
@given(st.data())
def test_a_shared_kernel_spends_what_a_fresh_one_does(hopf_square_queries,
                                                      data):
    queries = dict(QUERIES, hopf=hopf_square_queries)
    text, pairs = queries[data.draw(st.sampled_from(sorted(queries)))]
    shared = Presentation.loads(text)
    runs = data.draw(st.lists(st.tuples(
        st.integers(0, len(pairs) - 1), st.integers(1, 400)),
        min_size=1, max_size=8))
    for i, steps in runs:
        a, b = pairs[i]
        assert verdict_and_spent(a, b, shared, steps) == verdict_and_spent(
            a, b, Presentation.loads(text), steps), (i, steps)


def _loop():
    """x; f: x -> x; a, b: f => f."""
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    return p, f


def assert_frozen(p, f):
    with pytest.raises(TermError, match="frozen"):
        p.add("late", 2, f, f)
    with pytest.raises(TermError, match="frozen"):
        p.relate(2, Gen("a"), Gen("b"))
    assert "late" not in p.gens and len(p.relations) == 1


@pytest.mark.parametrize("query", [
    lambda p: eq(Gen("a"), Gen("b"), p),
    lambda p: parallel(Gen("a"), Gen("b"), p),
    validate_presentation,
    # each derived table on its own
    Presentation.kernel,
    lambda p: p.normal_face("a", SOURCE),
    lambda p: p.boundary_words("a")],
    ids=["eq", "parallel", "validate", "kernel", "normal_face",
         "boundary_words"])
def test_a_queried_presentation_is_frozen(query):
    p, f = _loop()
    a, b = p.add("a", 2, f, f), p.add("b", 2, f, f)
    p.relate(2, a, b, oriented=True)
    query(p)
    assert_frozen(p, f)
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert q == p and q._kernel is None
        assert_frozen(q, f)
    # the same data built again grows until its own first query
    again = Presentation.loads(p.dumps())
    again.add("c", 2, f, f)
    assert eq(a, b, again) is EQ_EQUAL


def test_a_rule_naming_a_later_generator_is_live_at_the_first_search():
    # the rule a -> b names b before b is added; the presentation is
    # built whole before its first search, which has the rule
    p, f = _loop()
    a, c = p.add("a", 2, f, f), p.add("c", 2, f, f)
    p.relate(2, a, Gen("b"), oriented=True)
    b = p.add("b", 2, f, f)
    assert eq(a, c, p) is EQ_DISTINCT
    assert eq(a, b, p) is EQ_EQUAL


def test_an_ill_formed_face_is_normalized_once(monkeypatch):
    # the source of bad mentions an unknown generator, and the target of
    # low has the wrong dimension; each side is normalized once
    p, f = _loop()
    p.add("bad", 2, comp(0, f, Gen("nope")), f)
    p.add("low", 2, f, Gen("x"))
    calls = Counter()

    def counting(t, gens):
        calls[t] += 1
        return normal_dim(t, gens)

    monkeypatch.setattr(presentation, "normal_dim", counting)
    for _ in range(3):
        assert p.normal_face("bad", SOURCE) is None
        assert p.normal_face("low", TARGET) is None
        assert p.normal_face("low", SOURCE) == f
        assert parallel(Gen("bad"), Gen("low"), p) == (EQ_UNKNOWN, None)
    # f is two faces: the target of bad and the source of low
    assert calls == {comp(0, f, Gen("nope")): 1, Gen("x"): 1, f: 2}


def _memo_size(p):
    return len(p._kernel.canonical_of)


def test_memos_are_dropped_past_their_bound(hopf_square_queries,
                                            monkeypatch):
    # with a bound of 0 every 2-cell search starts from empty memos, so the
    # shared kernel ends each query that makes one with the memos of a
    # fresh presentation
    text, pairs = hopf_square_queries
    monkeypatch.setattr(interchange, "MEMO_STATES", 0)
    shared = Presentation.loads(text)
    compared = 0
    for a, b in pairs + pairs:
        fresh = Presentation.loads(text)
        assert verdict_and_spent(a, b, shared, 10_000) == verdict_and_spent(
            a, b, fresh, 10_000)
        if fresh._kernel is not None:
            assert _memo_size(shared) == _memo_size(fresh)
            compared += _memo_size(fresh) > 0
    assert compared


def test_copies_and_pickles_leave_the_kernel_out(hopf_square_queries):
    text, pairs = hopf_square_queries
    p = Presentation.loads(text)
    want = [eq(a, b, p) for a, b in pairs]
    assert p._kernel is not None
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert q == p and q._kernel is None
        assert [eq(a, b, q) for a, b in pairs] == want
    assert p._kernel is not None


def test_searches_wait_for_the_kernel_lock(hopf_square_queries):
    # without the lock, two searches that add one atom at once could give
    # it two ids; a search started while the lock is held must wait
    text, pairs = hopf_square_queries
    p = Presentation.loads(text)
    for a, b in pairs:
        eq(a, b, p)
        if p._kernel is not None:
            break
    done = threading.Event()
    worker = threading.Thread(target=lambda: (eq(a, b, p), done.set()))
    with p._kernel.lock:
        worker.start()
        assert not done.wait(0.5)
    assert done.wait(60)
    worker.join(60)
    assert not worker.is_alive()
