"""Differential oracle for the one-pass term operations.

The reference functions below are the earlier, straightforward versions
of dim, normalize, top_boundary, boundary, word_of and stack_of: each
recomputes dim at every composite and normalizes every subterm again, so
they are quadratic or cubic in the size of a term, but obviously follow
the definitions.  The program's versions must agree with them on every
well-formed term, and normalize must raise exactly where dim raises.
normal_top_boundary, which the boundary certificate builds its levels
with, must give the normal form of the reference top boundary, also over
a presentation whose generator faces are written in forms that are not
normal.  word_of and stack_of take normal terms, so they are compared
with the reference on normal forms; on any other term they must read
what they read on its normal form or refuse it, and each shape that no
normal form has is refused.
"""

from typing import List

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfsmith.interchange import AtomTable
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import _cancel_word, stack_of, word_of
from hopfsmith.terms import (Comp, Gen, Id, Inv, SOURCE, TARGET, TermError,
                             boundary, comp, dim, flatten, generators,
                             identity_core, normal_top_boundary, normalize,
                             top_boundary)
from hopfsmith.walking import adj, mnd
from test_interchange_reference import Atom, Layer, Stack, pack

PRESENTATIONS = {"mnd": mnd().base, "adj": adj().base,
                 "walking_retract": walking_retract().presentation}


# ---------------------------------------------------------------------------
# reference code


def ref_dim(t, sig):
    if isinstance(t, Gen):
        if t.name not in sig:
            raise TermError(f"unknown generator {t.name!r}")
        return sig[t.name].dim
    if isinstance(t, Id):
        return ref_dim(t.inner, sig) + 1
    if isinstance(t, Inv):
        return ref_dim(t.inner, sig)
    dl = ref_dim(t.left, sig)
    dr = ref_dim(t.right, sig)
    if dl != dr:
        raise TermError(f"composite of unequal dimensions {dl} and {dr}")
    if not 0 <= t.k < dl:
        raise TermError(f"illegal composition level {t.k} for dimension {dl}")
    return dl


def ref_top_boundary(t, side, sig):
    if isinstance(t, Gen):
        b = sig[t.name].src if side == SOURCE else sig[t.name].tgt
        if b is None:
            raise TermError(f"0-cell {t.name!r} has no boundary")
        return b
    if isinstance(t, Id):
        return t.inner
    if isinstance(t, Inv):
        return ref_top_boundary(t.inner, TARGET if side == SOURCE else SOURCE,
                                sig)
    d = ref_dim(t, sig)
    if t.k == d - 1:
        part = t.left if side == SOURCE else t.right
        return ref_top_boundary(part, side, sig)
    return Comp(t.k, ref_top_boundary(t.left, side, sig),
                ref_top_boundary(t.right, side, sig))


def ref_boundary(t, side, k, sig):
    d = ref_dim(t, sig)
    if not 0 <= k < d:
        raise TermError(f"boundary level {k} out of range for dimension {d}")
    out = t
    while d > k + 1:
        out = ref_top_boundary(out, side, sig)
        d -= 1
    return ref_top_boundary(out, side, sig)


def ref_normalize(t, sig, push_inv=True):
    """The earlier normalize: absorbs identity factors after checking only
    the left part's dimension, so it accepts some ill-formed composites."""
    if isinstance(t, Gen):
        return t
    if isinstance(t, Id):
        return Id(ref_normalize(t.inner, sig, push_inv))
    if isinstance(t, Inv):
        inner = ref_normalize(t.inner, sig, push_inv)
        if not push_inv:
            if isinstance(inner, Inv):
                return inner.inner
            return Inv(inner)
        return _ref_push_inv(inner, ref_dim(inner, sig))
    left = ref_normalize(t.left, sig, push_inv)
    right = ref_normalize(t.right, sig, push_inv)
    d = ref_dim(left, sig)
    if identity_core(left)[1] >= d - t.k:
        return right
    if identity_core(right)[1] >= d - t.k:
        return left
    if isinstance(left, Id) and isinstance(right, Id):
        return Id(ref_normalize(Comp(t.k, left.inner, right.inner), sig,
                                push_inv))
    return Comp(t.k, left, right)


def _ref_push_inv(t, d):
    """Only a composite at the top level d - 1 of a d-cell reverses."""
    if isinstance(t, Inv):
        return t.inner
    if isinstance(t, Id):
        return t
    if isinstance(t, Comp):
        left, right = _ref_push_inv(t.left, d), _ref_push_inv(t.right, d)
        return Comp(t.k, *((right, left) if t.k == d - 1 else (left, right)))
    return Inv(t)


def ref_word_of(t, p):
    t = ref_normalize(t, p.gens)
    out = []
    for f in flatten(t, 0):
        f = ref_normalize(f, p.gens)
        if isinstance(f, Id):
            continue
        if isinstance(f, Gen):
            out.append((f.name, False))
        elif isinstance(f, Inv) and isinstance(f.inner, Gen):
            out.append((f.inner.name, True))
        else:
            raise TermError(f"not a 1-cell word factor: {f!r}")
    return _cancel_word(tuple(out))


def ref_stack_of(t, p):
    t = ref_normalize(t, p.gens)
    src = ref_word_of(ref_top_boundary(t, SOURCE, p.gens), p)
    return Stack(src, tuple(_ref_layers_rec(t, 0, p)))


def ref_atom(name, inverted, p):
    g = p.gens[name]
    src, tgt = ref_word_of(g.src, p), ref_word_of(g.tgt, p)
    return Atom(name, inverted, *((tgt, src) if inverted else (src, tgt)))


def _ref_layers_rec(t, offset, p) -> List[Layer]:
    t = ref_normalize(t, p.gens)
    if isinstance(t, Id):
        return []
    if isinstance(t, Gen):
        return [Layer(offset, ref_atom(t.name, False, p))]
    if isinstance(t, Inv):
        inner = ref_normalize(t.inner, p.gens)
        if isinstance(inner, Gen):
            return [Layer(offset, ref_atom(inner.name, True, p))]
        raise TermError(f"Inv not pushed to a leaf: {t!r}")
    if not isinstance(t, Comp):
        raise TermError(f"not a 2-cell term: {t!r}")
    if t.k == 1:
        return (_ref_layers_rec(t.left, offset, p)
                + _ref_layers_rec(t.right, offset, p))
    if t.k == 0:
        left_tgt = ref_word_of(ref_top_boundary(t.left, TARGET, p.gens), p)
        return (_ref_layers_rec(t.left, offset, p)
                + _ref_layers_rec(t.right, offset + len(left_tgt), p))
    raise TermError(f"composition level {t.k} inside a 2-cell")


# ---------------------------------------------------------------------------
# strategies


@st.composite
def cells(draw, p, d, depth=4):
    """A term of dimension d over p: dimensions agree at every node, while
    boundaries need not match.  Whiskering (a composite with an identity
    on a lower cell) is drawn on its own so that it is common."""
    gens = sorted(g.name for g in p.gens.values() if g.dim == d)
    kinds = ["gen"] if gens else []
    if d >= 1:
        kinds.append("id")
    if depth > 0:
        kinds.append("inv")
        if d >= 1:
            kinds += ["comp", "comp", "whisker"]
    kind = draw(st.sampled_from(kinds))
    if kind == "gen":
        return Gen(draw(st.sampled_from(gens)))
    if kind == "id":
        return Id(draw(cells(p, d - 1, depth - 1)))
    if kind == "inv":
        return Inv(draw(cells(p, d, depth - 1)))
    k = draw(st.integers(0, d - 1))
    if kind == "comp":
        return Comp(k, draw(cells(p, d, depth - 1)),
                    draw(cells(p, d, depth - 1)))
    # whisker: an identity tower of height d - j over a j-cell, j >= k
    j = draw(st.integers(k, d - 1))
    whisker = Id(draw(cells(p, j, 1)))
    for _ in range(d - 1 - j):
        whisker = Id(whisker)
    cell = draw(cells(p, d, depth - 1))
    return Comp(k, whisker, cell) if draw(st.booleans()) else Comp(k, cell, whisker)


@st.composite
def well_formed(draw, d=None):
    """A presentation and a term over it, of dimension d when given."""
    p = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    if d is None:
        d = draw(st.integers(0, max(g.dim for g in p.gens.values())))
    return p, draw(cells(p, d))


def _trees(p):
    leaves = st.sampled_from(sorted(p.gens) + ["nope"]).map(Gen)
    return st.tuples(st.just(p), st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Id), sub.map(Inv),
        st.builds(Comp, st.integers(-1, 4), sub, sub)), max_leaves=12))


# a presentation and a random tree over its generator names and one
# unknown name, with levels from -1 to 4: mostly ill-formed
trees = st.one_of([_trees(PRESENTATIONS[name]) for name in sorted(PRESENTATIONS)])


def outcome(f, *args):
    """The result of f, or the type and message of the TermError it raises."""
    try:
        return f(*args)
    except TermError as e:
        return ("raises", type(e).__name__, str(e))


def stack_outcome(t, p):
    """The outcomes of stack_of on the normal form of t and of
    ref_stack_of on t, whose layers are packed into the same atom table;
    each state with the words its atoms carry, which the table does not
    compare when it adds an atom it holds."""
    table = AtomTable()
    got = outcome(stack_of, normalize(t, p.gens), p, table)
    want = outcome(ref_stack_of, t, p)
    if isinstance(want, Stack):
        want = ((want.srcword, pack(want.layers, table)),
                [(l.atom.src, l.atom.tgt) for l in want.layers])
    if got[0] != "raises":
        got = got, [(table.src[x], table.tgt[x]) for x in got[1][1::2]]
    return got, want


def subterms(t):
    yield t
    if isinstance(t, (Id, Inv)):
        yield from subterms(t.inner)
    elif isinstance(t, Comp):
        yield from subterms(t.left)
        yield from subterms(t.right)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150)
@given(well_formed())
def test_normalize_and_boundaries_match_reference(case):
    p, t = case
    sig = p.gens
    d = ref_dim(t, sig)
    assert dim(t, sig) == d
    for push_inv in (True, False):
        assert normalize(t, sig, push_inv) == ref_normalize(t, sig, push_inv)
    for side in (SOURCE, TARGET):
        if d >= 1:
            assert (outcome(top_boundary, t, side, sig)
                    == outcome(ref_top_boundary, t, side, sig))
        for k in range(-1, d + 1):
            assert (outcome(boundary, t, side, k, sig)
                    == outcome(ref_boundary, t, side, k, sig))


@settings(max_examples=150)
@given(well_formed())
def test_normal_forms_are_idempotent_and_closed_under_subterms(case):
    p, t = case
    for push_inv in (True, False):
        n = normalize(t, p.gens, push_inv)
        assert dim(n, p.gens) == dim(t, p.gens)
        for s in subterms(n):
            assert normalize(s, p.gens, push_inv) == s


@settings(max_examples=150)
@given(trees)
def test_normalize_raises_exactly_where_dim_raises(case):
    p, t = case
    sig = p.gens
    want = outcome(ref_dim, t, sig)
    assert outcome(dim, t, sig) == want
    for push_inv in (True, False):
        got = outcome(normalize, t, sig, push_inv)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got == ref_normalize(t, sig, push_inv)


@settings(max_examples=100)
@given(well_formed(d=2))
def test_stack_of_matches_reference(case):
    p, t = case
    got, want = stack_outcome(t, p)
    assert got == want
    for side in (SOURCE, TARGET):
        b = top_boundary(t, side, p.gens)
        assert (outcome(word_of, normalize(b, p.gens), p)
                == outcome(ref_word_of, b, p))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_stack_of_matches_reference_on_relations(name):
    p = PRESENTATIONS[name]
    for r in p.relations:
        for t in (r.lhs, r.rhs):
            if ref_dim(t, p.gens) == 2:
                got, want = stack_outcome(t, p)
                assert got == want


# a presentation whose generator faces are written in forms that are not
# normal: identity factors that normalize absorbs
PADDED = Presentation(max_dim=3)
_x, _y = PADDED.add("x", 0), PADDED.add("y", 0)
_f, _g = PADDED.add("f", 1, _x, _y), PADDED.add("g", 1, _x, _y)
_a = PADDED.add("a", 2, comp(0, _f, Id(_y)), comp(0, Id(_x), _g))
_b = PADDED.add("b", 2, _g, comp(0, _f, Id(_y)), invertible=True)
PADDED.add("c", 3, comp(1, _a, _b), comp(1, Id(comp(0, Id(_x), _f)), Id(_f)))


@st.composite
def padded_or_pinned(draw):
    """A term of dimension at least 1 over PADDED or one of PRESENTATIONS."""
    if draw(st.booleans()):
        return PADDED, draw(cells(PADDED, draw(st.integers(1, 3))))
    p, t = draw(well_formed())
    assume(dim(t, p.gens) >= 1)
    return p, t


@settings(max_examples=200)
@given(padded_or_pinned())
def test_normal_top_boundary_is_the_normal_form_of_the_top_boundary(case):
    """For a well-formed term, and for its normal form, normal_top_boundary
    builds the normal form of the reference top boundary."""
    p, t = case
    sig, d = p.gens, ref_dim(t, p.gens)
    for u in (t, ref_normalize(t, sig)):
        for side in (SOURCE, TARGET):
            want = ref_normalize(ref_top_boundary(u, side, sig), sig)
            face = Presentation(p.max_dim, dict(sig)).normal_face
            assert normal_top_boundary(u, side, d, sig, face) == want
            # and again from the faces already read
            assert normal_top_boundary(u, side, d, sig, face) == want


def read(reader, t, p):
    """What word_of or stack_of reads from t, with each atom named by its
    key rather than by its id in a fresh table, or TermError."""
    try:
        if reader is word_of:
            return word_of(t, p)
        table = AtomTable()
        src, flat = stack_of(t, p, table)
    except TermError:
        return TermError
    return src, flat[::2], [table.keys[x] for x in flat[1::2]]


@settings(max_examples=250)
@given(st.one_of(trees, well_formed(), well_formed(d=1), well_formed(d=2),
                 padded_or_pinned()))
def test_the_readers_read_a_term_as_its_normal_form_or_refuse_it(case):
    """word_of and stack_of take normal terms, and hold that contract by
    construction: on any term they read what they read on its normal
    form, or raise TermError; where no normal form exists they raise."""
    p, t = case
    try:
        n = normalize(t, p.gens)
    except TermError:
        n = None
    for reader in (word_of, stack_of):
        got = read(reader, t, p)
        if got is not TermError:
            assert n is not None and read(reader, n, p) == got


A, m, u, pt = Gen("A"), Gen("m"), Gen("u"), Gen("pt")
MND = PRESENTATIONS["mnd"]
AA = comp(0, A, A)
# each shape that no normal form has, with its normal form where that
# reads as a word or a stack, else None
REFUSED_WORDS = {
    "identity part": (comp(0, Id(pt), A), A),
    "identity of a 1-cell": (Id(A), None),
    "inv over a composite": (Inv(AA), comp(0, Inv(A), Inv(A))),
    "inv over an inv": (Inv(Inv(A)), A),
    "leaf of dimension 0": (comp(0, A, pt), None),
    "leaf of dimension 2": (comp(0, A, m), None),
}
REFUSED_STACKS = {
    "identity part": (comp(1, Id(AA), m), m),
    "part normalizing to an identity": (comp(1, comp(0, Id(A), Id(A)), m),
                                        m),
    "inv over a composite": (Inv(comp(1, m, u)), comp(1, Inv(u), Inv(m))),
    "inv over an identity": (Inv(Id(A)), Id(A)),
    "composite at level 2": (comp(2, Id(m), Id(m)), None),
    "leaf of dimension 1": (comp(0, m, A), None),
    "leaf of dimension 3": (Gen("c"), None),
}


@pytest.mark.parametrize("shape", sorted(REFUSED_WORDS))
def test_word_of_refuses_a_shape_no_normal_word_has(shape):
    t, n = REFUSED_WORDS[shape]
    with pytest.raises(TermError):
        word_of(t, MND)
    if n is not None:
        assert normalize(t, MND.gens) == n
        word_of(n, MND)


@pytest.mark.parametrize("shape", sorted(REFUSED_STACKS))
def test_stack_of_refuses_a_shape_no_normal_stack_has(shape):
    t, n = REFUSED_STACKS[shape]
    p = PADDED if t == Gen("c") else MND
    with pytest.raises(TermError):
        stack_of(t, p, AtomTable())
    if n is not None:
        assert normalize(t, p.gens) == n
        stack_of(n, p, AtomTable())


@settings(max_examples=300)
@given(st.one_of(trees, well_formed(), padded_or_pinned()))
def test_a_term_dim_accepts_mentions_no_generator_above_its_dimension(case):
    """What validate_presentation rests on when it looks for generators of
    too high a dimension only in a side whose dimension is wrong."""
    p, t = case
    try:
        d = dim(t, p.gens)
    except TermError:
        return
    assert all(p.gens[name].dim <= d for name in generators(t))
