"""Differential oracle and comparison counts for the boundary certificate.

The reference below is the earlier, recursive certificate: eq compared a
cell's top sources and top targets by eq, which compared their own
boundaries first, so a k-boundary was compared once for every path of
sources and targets down to it, and the lowest differing level was then
found by a second eq pass, level by level.  The program's certificate
takes each k-boundary once, down the source spine and the target spine,
and compares the levels from 0 upward.  Over the walking monad, the
walking adjunction, the walking retract and the monad's tensor square it
must give the same verdict and the same lowest differing level, and eq
must give the same verdict.
"""

from hypothesis import given, strategies as st

from hopfsmith import rewriting
from hopfsmith.gray import gray
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import (Budget, EQ_DISTINCT, EQ_EQUAL, EQ_UNKNOWN,
                                 Stack, _cancel_word, _eq2, _eq_high, _meet,
                                 _rewrites, _word_rules, default_budget,
                                 eq, parallel, word_of)
from hopfsmith.terms import (Comp, Gen, Id, Inv, SOURCE, TARGET, TermError,
                             boundary, illegal_inverses, top_boundary)
from hopfsmith.walking import adj, mnd

# ---------------------------------------------------------------------------
# reference code


def ref_eq(a, b, p, budget):
    try:
        a = p.normalize(a)
        b = p.normalize(b)
    except TermError:
        return EQ_UNKNOWN
    if any(illegal_inverses(a, p.gens)) or any(illegal_inverses(b, p.gens)):
        return EQ_UNKNOWN
    if a == b:
        return EQ_EQUAL
    d = p.dim(a)
    if p.dim(b) != d or d == 0:
        return EQ_DISTINCT
    v = ref_parallel(a, b, d, p, budget)
    if v is not EQ_EQUAL:
        return v
    if d == 1:
        rules = _word_rules(p)
        step = lambda w: map(_cancel_word, _rewrites(w, rules, budget))
        wb = word_of(b, p)
        return _meet(word_of(a, p), wb, step, budget, {wb})
    if d == 2:
        return _eq2(a, b, p, budget)
    return _eq_high(a, b, d, p, budget)


def ref_parallel(a, b, d, p, budget):
    verdict = EQ_EQUAL
    spent = 0
    for side in (SOURCE, TARGET):
        own = Budget(budget.left)
        v = ref_eq(top_boundary(a, side, p.gens, d),
                   top_boundary(b, side, p.gens, d), p, own)
        spent += budget.left - own.left
        if v is EQ_DISTINCT:
            verdict = EQ_DISTINCT
            break
        if v is EQ_UNKNOWN:
            verdict = EQ_UNKNOWN
    budget.spend(spent)
    return verdict


def ref_certificate(a, b, p, steps):
    d = p.dim(a)
    if p.dim(b) != d:
        return EQ_DISTINCT, None
    if d == 0:
        return EQ_EQUAL, None
    v = ref_parallel(a, b, d, p, Budget(steps))
    if v is not EQ_DISTINCT:
        return v, None
    level = next((k for k in range(d) if any(
        ref_eq(boundary(a, side, k, p.gens), boundary(b, side, k, p.gens),
               p, Budget(steps)) is EQ_DISTINCT
        for side in (SOURCE, TARGET))), d - 1)
    return EQ_DISTINCT, level


# ---------------------------------------------------------------------------
# cells


def _cells(p):
    """The generators of p of dimension >= 1, the formal inverses of the
    invertible ones, the identities on the cells below the top, and every
    composite of two generators whose shared boundary agrees as terms."""
    gens = [Gen(g.name) for g in p.gens.values() if g.dim >= 1]
    out = list(gens)
    out += [Inv(g) for g in gens if p.gens[g.name].invertible]
    out += [Id(Gen(g.name)) for g in p.gens.values() if g.dim < p.max_dim]
    for x in gens:
        for y in gens:
            d = p.dim(x)
            if p.dim(y) != d:
                continue
            for k in range(d):
                if (p.normalize(boundary(x, TARGET, k, p.gens))
                        == p.normalize(boundary(y, SOURCE, k, p.gens))):
                    out.append(Comp(k, x, y))
    return out


PRESENTATIONS = {"mnd": mnd().base, "adj": adj().base,
                 "walking_retract": walking_retract().presentation,
                 "gray(mnd, mnd)": gray(mnd().base, mnd().base)}
CELLS = {name: _cells(p) for name, p in PRESENTATIONS.items()}


@st.composite
def cell_pairs(draw):
    """A presentation, two of its cells, of one dimension three times in
    four, and a step budget."""
    name = draw(st.sampled_from(sorted(PRESENTATIONS)))
    p, cells = PRESENTATIONS[name], CELLS[name]
    a = draw(st.sampled_from(cells))
    same = [c for c in cells if p.dim(c) == p.dim(a)]
    b = draw(st.sampled_from(same if draw(st.integers(0, 3)) else cells))
    return p, a, b, draw(st.sampled_from([0, 1, 5, default_budget()]))


@given(cell_pairs())
def test_certificate_matches_the_recursive_reference(case):
    p, a, b, steps = case
    assert parallel(a, b, p, steps) == ref_certificate(a, b, p, steps)
    assert eq(a, b, p, steps) is ref_eq(a, b, p, Budget(steps))


def test_certificate_names_the_lowest_differing_level():
    p = mnd().base
    m, u, A = Gen("m"), Gen("u"), Gen("A")
    assert parallel(m, m, p) == (EQ_EQUAL, None)
    assert parallel(m, u, p) == (EQ_DISTINCT, 1)  # AA vs 1
    assert parallel(m, A, p) == (EQ_DISTINCT, None)
    assert parallel(Gen("pt"), Gen("pt"), p) == (EQ_EQUAL, None)


# ---------------------------------------------------------------------------
# counts


def _rule_tower():
    """t: a => a and u: b => b with a: f(gh) => k, b: (fg)h => k and the
    oriented rule a -> b: the 1-sources f(gh) and (fg)h are different
    terms with one word, and the 2-cells a and b are equal only through a
    search."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f, g, h, k = (p.add(n, 1, x, x) for n in "fghk")
    a = p.add("a", 2, Comp(0, f, Comp(0, g, h)), k)
    b = p.add("b", 2, Comp(0, Comp(0, f, g), h), k)
    p.add("t", 3, a, a)
    p.add("u", 3, b, b)
    p.relate(2, a, b, oriented=True)
    return p


def test_each_level_and_side_is_compared_once(monkeypatch):
    """The 1-sources differ as terms, so comparing them takes a word
    search (which starts where it stops); the 2-sources and the 2-targets
    are both a against b, a stack search each.  The certificate runs one
    word search (level 1, source side; the 1-targets are equal as terms)
    and two stack searches (level 2, each side).  A certificate that
    compares the 2-boundaries by eq compares their 1-sources again, once
    for each."""
    searches = []
    meet = rewriting._meet

    def counted(a, b, *args):
        searches.append("stack" if isinstance(a, Stack) else "word")
        return meet(a, b, *args)

    monkeypatch.setattr(rewriting, "_meet", counted)
    assert parallel(Gen("t"), Gen("u"), _rule_tower()) == (EQ_EQUAL, None)
    assert sorted(searches) == ["stack", "stack", "word"]
