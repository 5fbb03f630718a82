"""`validate_presentation` against the validator before the change that
skipped the certificate of a 1-generator.

The reference below, kept as test-only code, sends every generator's
sides through the certificate, 1-generators included; the validator
skips a 1-generator's, since its two 0-cell sides are always parallel.
Both must give the same violations, in the same order, on the 770 pinned
presentations and on drawn presentations that are ill-formed in each way
validation reports: unknown names, a side of the wrong dimension, an
ill-formed face, sides that are not parallel, an `Inv` over a generator
not marked invertible, and a 0-generator with a boundary.  Each
validator runs on its own copy, made before either queries it, and the
reference reads each generator face from a face table of its own,
filled by its own walk: a wrong entry that `Presentation.normal_face`
stores for an ill-formed side reaches the validator's certificates and
not the reference's."""

import copy
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmith.presentation import Presentation, Violation, \
    validate_presentation
from hopfsmith.rewriting import (EQ_DISTINCT, EQ_EQUAL, composable,
                                 default_budget, parallel)
from hopfsmith.terms import (SOURCE, Comp, Gen, Id, Inv, TermError, dim,
                             generators, illegal_inverses, normal_dim,
                             print_term)

from test_presentation_layer_outputs import _presentations

# ---------------------------------------------------------------------------
# the reference validator


def ref_validate_term(t, p, budget) -> List[Violation]:
    try:
        d = dim(t, p.gens)
    except TermError as e:
        return [Violation("term", str(e))]
    out = ([Violation("term", f"dimension {d} exceeds maxDim")]
           if d > p.max_dim else [])
    out += [Violation("term", f"Inv over non-invertible generator {name!r}")
            for name in illegal_inverses(t, p.gens)]
    return out + _ref_validate_rec(t, p, budget)


def _ref_validate_rec(t, p, budget) -> List[Violation]:
    if t.__class__ is Gen:
        return []
    if t.__class__ is not Comp:
        return _ref_validate_rec(t.inner, p, budget)
    out = (_ref_validate_rec(t.left, p, budget)
           + _ref_validate_rec(t.right, p, budget))
    if out:
        return out
    try:
        v, lt, rs = composable(t.k, t.left, t.right, p, budget)
    except TermError as e:
        return [Violation("term", str(e))]
    if v is not EQ_EQUAL:
        word = "mismatch" if v is EQ_DISTINCT else "undecided"
        out.append(Violation("term", f"composition {word} at level {t.k}: "
                             f"{print_term(lt)} vs {print_term(rs)}",
                             v is not EQ_DISTINCT))
    return out


def _ref_parallel_violations(where, a, b, d, what, p, budget):
    try:
        v, level = parallel(a, b, p, budget, d)
    except TermError as e:
        return [Violation(where, str(e))]
    if v is EQ_EQUAL:
        return []
    if v is EQ_DISTINCT:
        return [Violation(where, f"{what} not parallel at level {level}")]
    return [Violation(where, f"{what} parallel undecided", True)]


def ref_validate_presentation(p, budget: Optional[int] = None):
    budget = default_budget() if budget is None else budget
    out: List[Violation] = []
    gens = p.gens
    for g in gens.values():
        if g.dim == 0:
            if g.src is not None or g.tgt is not None:
                out.append(Violation(g.name, "0-generator with boundary"))
            continue
        if g.src is None or g.tgt is None:
            out.append(Violation(g.name, "missing boundary"))
            continue
        found = len(out)
        sides = []
        for side_name, side_term in (("src", g.src), ("tgt", g.tgt)):
            try:
                d = dim(side_term, gens)
            except TermError as e:
                out.append(Violation(g.name, f"{side_name}: {e}"))
                continue
            sides.append(side_term)
            if d == g.dim - 1:
                continue
            out.append(Violation(g.name, f"{side_name} has dimension {d}, "
                                 f"expected {g.dim - 1}"))
            for name in generators(side_term):
                if name in gens and gens[name].dim >= g.dim:
                    out.append(Violation(g.name, f"{side_name} mentions "
                                         f"{name!r} of dimension >= {g.dim}"))
        if len(out) == found:
            out.extend(_ref_parallel_violations(g.name, *sides, g.dim - 1,
                                                "src/tgt", p, budget))
    for i, r in enumerate(p.relations):
        label = f"relation#{i}"
        found = len(out)
        for side_name, side_term in (("lhs", r.lhs), ("rhs", r.rhs)):
            out.extend(Violation(label, f"{side_name}: {v.issue}",
                                 v.undecided)
                       for v in ref_validate_term(side_term, p, budget))
        if len(out) > found:
            continue
        if dim(r.lhs, gens) != r.dim or dim(r.rhs, gens) != r.dim:
            out.append(Violation(label,
                                 "stated dimension disagrees with sides"))
            continue
        out.extend(_ref_parallel_violations(label, r.lhs, r.rhs, r.dim,
                                            "sides", p, budget))
    return out


def ref_normal_face(p: Presentation):
    """Presentation.normal_face over a face table of its own, filled by
    its own walk, for the reference's copy of p: a wrong entry the
    validator stores cannot reach the reference."""
    table = {}

    def normal_face(name, side):
        if (name, side) not in table:
            if name not in p.gens:
                raise TermError(f"unknown generator {name!r}")
            g = p.gens[name]
            b = g.src if side == SOURCE else g.tgt
            if b is None:
                raise TermError(f"generator {name!r} has no boundary")
            try:
                face, d = normal_dim(b, p.gens)
            except TermError:
                face = d = None
            table[name, side] = face if d == g.dim - 1 else None
        return table[name, side]

    return normal_face


def both(p: Presentation, budget: Optional[int] = None):
    """(the reference's violations, the validator's), each on a copy of p
    made before either runs; the reference's copy reads its faces through
    ref_normal_face."""
    ref, new = copy.copy(p), copy.copy(p)
    ref.normal_face = ref_normal_face(ref)
    return (ref_validate_presentation(ref, budget),
            validate_presentation(new, budget))


def test_the_pinned_presentations_agree():
    for label, p in _presentations():
        ref, new = both(p)
        assert new == ref, label


# ---------------------------------------------------------------------------
# drawn presentations

MAX_DIM = 3
# a name no generator has
UNKNOWN = "nowhere"


@st.composite
def terms_of(draw, by_dim, d: int, depth: int):
    """A term meant to have dimension d over the generators by_dim (name
    lists by dimension): a generator, a composite at a level below d whose
    parts need not compose, an identity or an inverse.  About one draw in
    six is ill-formed: an unknown name, or a part one dimension off."""
    kind = draw(st.integers(0, 11 if depth else 0))
    names = by_dim.get(d) or [n for ns in by_dim.values() for n in ns]
    if kind == 0 or kind > 9 or (kind < 6 and not d):
        return Gen(draw(st.sampled_from(names)))
    if kind < 4:
        return Comp(draw(st.integers(0, d - 1)),
                    draw(terms_of(by_dim, d, depth - 1)),
                    draw(terms_of(by_dim, d, depth - 1)))
    if kind < 6:
        return Id(draw(terms_of(by_dim, d - 1, depth - 1)))
    if kind < 8:
        return Inv(draw(terms_of(by_dim, d, depth - 1)))
    if kind == 8:
        return Gen(UNKNOWN)
    off = d + 1 if d < MAX_DIM and (not d or draw(st.booleans())) else d - 1
    return draw(terms_of(by_dim, off, depth - 1))


@st.composite
def presentations(draw):
    """Two objects, then one to five generators of dimensions 1 to 3 with
    drawn sides (now and then without one), an object that may have a
    boundary, and up to two relations.  Each generator is invertible or
    not."""
    dims = [0, 0] + sorted(draw(st.lists(st.integers(1, MAX_DIM),
                                         min_size=1, max_size=5)))
    names = [f"g{i}" for i in range(len(dims))]
    by_dim = {}
    for name, d in zip(names, dims):
        by_dim.setdefault(d, []).append(name)
    p = Presentation(max_dim=MAX_DIM)
    for name, d in zip(names, dims):
        sides = [None, None]
        if d or draw(st.integers(0, 7)) == 7:
            sides = [None if draw(st.integers(0, 15)) == 15 else
                     draw(terms_of(by_dim, max(d - 1, 0), 2))
                     for _ in range(2)]
        p.add(name, d, *sides, invertible=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(0, MAX_DIM))
        p.relate(d, draw(terms_of(by_dim, d, 2)), draw(terms_of(by_dim, d, 2)),
                 draw(st.booleans()))
    return p


@settings(max_examples=100)
@given(presentations())
def test_drawn_presentations_agree(p):
    ref, new = both(p, 50)
    assert new == ref
