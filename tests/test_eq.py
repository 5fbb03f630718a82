"""Properties of the stratified equality: congruence on the decided
fragment, soundness of oriented-rule steps, interchange normalization,
inverse cancellation."""

import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfsmith import interchange, rewriting
from hopfsmith.presentation import Presentation, validate_presentation
from hopfsmith.rewriting import (Budget, CompositionError, EQ_DISTINCT,
                                 EQ_EQUAL, EQ_UNKNOWN, _explore,
                                 _packed_rules, _rewrites, boundaries_eq,
                                 composable, compose, eq, parallel,
                                 stack_of)
from hopfsmith.terms import (Comp, Gen, Id, Inv, SOURCE, TARGET, TermError,
                             comp, dim, normal_dim, normalize)
from hopfsmith.walking import adj, mnd
from reference_cells import ref_boundary
from test_terms_reference import subterms, well_formed

M = mnd().base
A = adj().base


def random_mnd_2cell(rng, size):
    """A random vertical stack of whiskered multiplication/unit layers,
    built so that boundaries chain."""
    m, u, Ag = Gen("m"), Gen("u"), Gen("A")
    width = rng.randint(1, 3)
    word = width
    layers = []
    for _ in range(size):
        if word >= 2 and rng.random() < 0.5:
            pos = rng.randint(0, word - 2)
            parts = [Id(Ag)] * pos + [m] + [Id(Ag)] * (word - 2 - pos)
            word -= 1
        else:
            pos = rng.randint(0, word)
            parts = [Id(Ag)] * pos + [u] + [Id(Ag)] * (word - pos)
            word += 1
        layers.append(parts[0] if len(parts) == 1 else comp(0, *parts))
    if not layers:
        base = Gen("A") if width == 1 else comp(0, *([Ag] * width))
        return Id(base)
    out = layers[0]
    for l in layers[1:]:
        out = Comp(1, out, l)
    return out


def test_equal_reflexive_symmetric_random():
    rng = random.Random(7)
    for _ in range(25):
        t = random_mnd_2cell(rng, rng.randint(1, 4))
        assert eq(t, t, M) is EQ_EQUAL
        s = random_mnd_2cell(rng, rng.randint(1, 4))
        assert eq(t, s, M) is eq(s, t, M)


def test_equal_preserved_by_id_and_compose():
    m, u, Ag = Gen("m"), Gen("u"), Gen("A")
    a = comp(1, comp(0, Id(Ag), m), m)
    b = comp(1, comp(0, m, Id(Ag)), m)
    assert eq(a, b, M) is EQ_EQUAL
    assert eq(Id(a), Id(b), M) in (EQ_EQUAL, EQ_UNKNOWN)
    c = comp(0, u, Id(Ag), Id(Ag), Id(Ag))
    ca = comp(1, c, a)
    cb = comp(1, c, b)
    assert eq(ca, cb, M) is EQ_EQUAL


def test_single_rule_step_is_never_distinct():
    # every oriented relation's two sides are Equal, whiskered or not
    for p in (M, A):
        for r in p.relations:
            if not r.oriented or r.dim != 2:
                continue
            assert eq(r.lhs, r.rhs, p) is EQ_EQUAL


def test_unit_absorption():
    f = Gen("l")
    t = compose(0, Id(Gen("a")), f, A)
    assert eq(t, f, A) is EQ_EQUAL


def test_composition_error_carries_boundaries():
    m = Gen("m")
    with pytest.raises(CompositionError) as exc:
        compose(1, m, comp(0, m, Id(Gen("A"))), M)
    assert exc.value.left_boundary is not None
    assert exc.value.right_boundary is not None


def test_interchange_two_orders_equal():
    p = Presentation(max_dim=2)
    x, y, z = p.add("x", 0), p.add("y", 0), p.add("z", 0)
    f, f2 = p.add("f", 1, x, y), p.add("f2", 1, x, y)
    g, g2 = p.add("g", 1, y, z), p.add("g2", 1, y, z)
    al = p.add("al", 2, f, f2)
    be = p.add("be", 2, g, g2)
    one = comp(1, comp(0, al, Id(g)), comp(0, Id(f2), be))
    two = comp(1, comp(0, Id(f), be), comp(0, al, Id(g2)))
    assert eq(one, two, p) is EQ_EQUAL
    assert eq(comp(0, al, Id(g)), comp(0, Id(f), be), p) is EQ_DISTINCT


def test_inv_cancellation():
    p = Presentation(max_dim=2)
    x, y = p.add("x", 0), p.add("y", 0)
    f, g = p.add("f", 1, x, y), p.add("g", 1, x, y)
    al = p.add("al", 2, f, g, invertible=True)
    t = comp(1, al, Inv(al))
    assert eq(t, Id(f), p) is EQ_EQUAL
    t2 = comp(1, Inv(al), al)
    assert eq(t2, Id(g), p) is EQ_EQUAL


def test_inverse_of_a_horizontal_composite_keeps_its_order():
    # the inverse of a comp0 b is inv a comp0 inv b: only the top
    # composition of a cell reverses under inversion
    p = Presentation(max_dim=2)
    x, y, z = p.add("x", 0), p.add("y", 0), p.add("z", 0)
    f, f2 = p.add("f", 1, x, y), p.add("f2", 1, x, y)
    g, g2 = p.add("g", 1, y, z), p.add("g2", 1, y, z)
    a = p.add("a", 2, f, f2, invertible=True)
    b = p.add("b", 2, g, g2, invertible=True)
    c = p.add("c", 2, f2, f, invertible=True)
    t = Inv(comp(0, a, b))
    n = p.normalize(t)
    assert n == Comp(0, Inv(a), Inv(b))
    assert [p.boundary(n, side, 0) for side in (SOURCE, TARGET)] == [x, z]
    assert eq(t, comp(0, Inv(a), Inv(b)), p) is EQ_EQUAL
    # the vertical composite does reverse
    assert p.normalize(Inv(comp(1, a, c))) == Comp(1, Inv(c), Inv(a))


def composes(t, p):
    """Whether the parts of every composite in t compose, under eq."""
    if isinstance(t, (Id, Inv)):
        return composes(t.inner, p)
    if isinstance(t, Comp):
        return (composes(t.left, p) and composes(t.right, p)
                and composable(t.k, t.left, t.right, p)[0] is EQ_EQUAL)
    return True


@settings(max_examples=150)
@given(st.sampled_from([2, 3]).flatmap(lambda d: well_formed(d)))
def test_an_inverse_normalizes_to_a_cell_with_its_boundaries(case):
    # normalize pushes an inverse to the leaves; the normal form runs
    # between the same 0- and 1-cells as the inverse it came from (eq is
    # Unknown on an inverse of a non-invertible generator, never
    # Distinct).  Every subterm whose composites compose is checked,
    # since a term drawn with its dimensions alone seldom composes whole
    p, t = case
    for u in subterms(t):
        if not composes(u, p):
            continue
        s = Inv(u)
        n = normalize(s, p.gens)
        for k in range(min(dim(u, p.gens), 2)):
            for side in (SOURCE, TARGET):
                assert eq(ref_boundary(s, side, k, p.gens),
                          ref_boundary(n, side, k, p.gens),
                          p) is not EQ_DISTINCT


@pytest.mark.parametrize("bad, good", [
    (Comp(1, Gen("A"), Gen("A")), Gen("A")),
    (Comp(0, Id(Gen("pt")), Gen("m")), Gen("m")),
])
def test_ill_formed_side_is_unknown(bad, good):
    # normalize used to absorb the identity factor and answer Equal
    assert eq(bad, good, M) is EQ_UNKNOWN
    assert eq(good, bad, M) is EQ_UNKNOWN


def unknown_rule():
    """x; f, g: x -> x; a: f => f; b: g => g; t: a => b, whose sides are
    not parallel; u, v: a => a with the oriented 3-rule u -> v; and two
    oriented relations over a generator the presentation lacks, nope -> f
    and nope -> u."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f, g = p.add("f", 1, x, x), p.add("g", 1, x, x)
    a, b = p.add("a", 2, f, f), p.add("b", 2, g, g)
    p.add("t", 3, a, b)
    u, v = p.add("u", 3, a, a), p.add("v", 3, a, a)
    p.relate(1, Gen("nope"), f, oriented=True)
    p.relate(3, Gen("nope"), u, oriented=True)
    p.relate(3, u, v, oriented=True)
    return p


def test_validation_blames_the_generator_whose_sides_differ():
    # the malformed 1-rule used to make the certificate of t raise, so t
    # was blamed for the relation's unknown generator
    issues = [(v.where, v.issue) for v in validate_presentation(
        unknown_rule())]
    assert issues == [("t", "src/tgt not parallel at level 1"),
                      ("relation#0", "lhs: unknown generator 'nope'"),
                      ("relation#1", "lhs: unknown generator 'nope'")]


def test_a_malformed_word_rule_is_left_out():
    assert eq(Gen("f"), Gen("g"), unknown_rule()) is EQ_DISTINCT


def test_a_malformed_rule_above_dimension_2_is_left_out():
    # the well-formed rule u -> v still applies
    assert eq(Gen("u"), Gen("v"), unknown_rule()) is EQ_EQUAL


@pytest.mark.parametrize("side, other", [
    (comp(1, Gen("m"), Inv(Gen("m"))), Id(comp(0, Gen("A"), Gen("A")))),
    (comp(1, Inv(Gen("m")), Gen("m")), Id(Gen("A"))),
    (comp(0, Gen("A"), Inv(Gen("A"))), Id(Gen("pt"))),
])
def test_inverse_of_a_non_invertible_generator_is_unknown(side, other):
    # cancelled as formal inverses, these pairs were Equal, but no
    # generator of the walking monad is invertible
    assert eq(side, other, M) is EQ_UNKNOWN
    assert eq(other, side, M) is EQ_UNKNOWN


def test_boundary_certificate_distinct():
    m, u = Gen("m"), Gen("u")
    assert eq(m, u, M) is EQ_DISTINCT


def test_budget_exhaustion_is_unknown():
    a = comp(1, comp(0, Gen("m"), Id(Gen("A"))), Gen("m"))
    b = comp(1, comp(0, Id(Gen("A")), Gen("m")), Gen("m"))
    assert eq(a, b, M, budget=1) is EQ_UNKNOWN


def test_snakes_normalize_to_identities():
    l, r, e, n = Gen("l"), Gen("r"), Gen("eps"), Gen("eta")
    snake_r = comp(1, comp(0, Id(r), n), comp(0, e, Id(r)))
    snake_l = comp(1, comp(0, n, Id(l)), comp(0, Id(l), e))
    assert eq(snake_r, Id(r), A) is EQ_EQUAL
    assert eq(snake_l, Id(l), A) is EQ_EQUAL


def test_budget_env_var(monkeypatch):
    from hopfsmith.rewriting import default_budget
    monkeypatch.setenv("HOPFSMITH_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.setenv("HOPFSMITH_BUDGET", "garbage")
    assert default_budget() == 10_000


def test_whiskered_rule_step_equal():
    # a single oriented rule applied inside whiskers is still Equal
    m, u, Ag = Gen("m"), Gen("u"), Gen("A")
    lhs = comp(1, comp(0, Id(Ag), comp(1, comp(0, u, Id(Ag)), m)),
               comp(0, Id(Ag), Id(Ag)))
    rhs = comp(0, Id(Ag), Id(Ag))
    assert eq(M.normalize(lhs), M.normalize(rhs), M) is EQ_EQUAL


def test_concurrent_readonly_use(hopf_square_queries):
    # searches on one presentation share its kernel, under its lock: the
    # hopf-square queries at three budgets, from 8 threads that switch as
    # often as the interpreter lets them, each give the verdict and spend
    # the budget of a sequential run
    import concurrent.futures
    text, pairs = hopf_square_queries
    jobs = [(a, b, steps) for a, b in pairs for steps in (40, 200, 10_000)]

    def run(p, job):
        a, b, steps = job
        budget = Budget(steps)
        v = rewriting._eq(*normal_dim(a, p.gens), *normal_dim(b, p.gens),
                          p, budget, True)
        return v.name, steps - budget.left

    sequential = Presentation.loads(text)
    want = [run(sequential, job) for job in jobs]
    shared = Presentation.loads(text)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda job: run(shared, job), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_point_degenerate_interchange_orders_equal():
    """An insertion meeting a deletion at one point: all three layerings
    (vertical, and the two horizontal orders) are the same 2-cell."""
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f, g = p.add("f", 1, x, x), p.add("g", 1, x, x)
    delc = p.add("del", 2, comp(0, f, f), Id(x))
    ins = p.add("ins", 2, Id(x), comp(0, g, g))
    vertical = comp(1, delc, ins)
    del_then_ins = comp(0, delc, ins)
    ins_then_del = comp(0, ins, delc)
    assert eq(vertical, del_then_ins, p) is EQ_EQUAL
    assert eq(vertical, ins_then_del, p) is EQ_EQUAL
    assert eq(del_then_ins, ins_then_del, p) is EQ_EQUAL


# The monad signature without its relations: a dimension-2 search over it
# has no oriented rules, so it tries no rule windows and only the budget
# spent per expanded state bounds it.
FREE = Presentation(M.max_dim, dict(M.gens))
FREE_ATOMS = {"m": (2, 1), "u": (0, 1)}  # atom -> (source, target) width


def free_term(width, layers):
    """The 2-cell over FREE firing (offset, atom) layers from A^width."""
    rows = []
    for off, atom in layers:
        src, tgt = FREE_ATOMS[atom]
        rows.append(comp(0, *([Id(Gen("A"))] * off + [Gen(atom)]
                              + [Id(Gen("A"))] * (width - off - src))))
        width += tgt - src
    return comp(1, *rows)


# (source width, left layers, right layers).  Each pair differs by slides
# of two units at one point, which the canonical form identifies: two
# insertions of one atom at one point fire left one first.
FREE_EQUAL_PAIRS = {
    "two-units": (1, [(0, "u"), (0, "u")], [(0, "u"), (1, "u")]),
    "units-and-m": (1, [(0, "u"), (0, "m"), (0, "u")],
                    [(0, "u"), (1, "u"), (1, "m")]),
}
# Each Distinct pair adds a unit and a multiplication, which changes the
# multiset of atoms, so only the search decides it.
FREE_DISTINCT_PAIRS = {
    "unit-redex": (2, [(0, "m")], [(0, "m"), (0, "u"), (0, "m")]),
    "unit-redex-inside": (2, [(2, "u"), (0, "m"), (1, "u")],
                          [(2, "u"), (0, "m"), (0, "u"), (0, "m"), (1, "u")]),
}


def free_canonical(t):
    table = interchange.AtomTable()
    return interchange.canonical(table, stack_of(t, FREE, table))


@pytest.mark.parametrize("name", sorted(FREE_EQUAL_PAIRS))
def test_units_at_one_point_have_one_canonical_form(name):
    width, left, right = FREE_EQUAL_PAIRS[name]
    a, b = free_term(width, left), free_term(width, right)
    assert free_canonical(a) == free_canonical(b)
    assert eq(a, b, FREE, budget=0) is EQ_EQUAL
    assert eq(b, a, FREE, budget=0) is EQ_EQUAL


@pytest.mark.parametrize("name", sorted(FREE_DISTINCT_PAIRS))
def test_budget_bounds_search_without_rules(name):
    width, left, right = FREE_DISTINCT_PAIRS[name]
    a, b = free_term(width, left), free_term(width, right)
    # only the search decides the pair: the normal forms differ
    assert free_canonical(a) != free_canonical(b)
    assert eq(a, b, FREE, budget=0) is EQ_UNKNOWN
    assert eq(a, b, FREE) is EQ_DISTINCT
    assert eq(b, a, FREE) is EQ_DISTINCT


def test_explore_finds_states_in_order_within_budget():
    def halves(n):
        return [n // 2, n // 3]

    found, done = _explore(12, halves, Budget(100))
    assert list(found) == [12, 6, 4, 2, 1, 0, 3]
    assert done
    spend = Budget(2)
    found, done = _explore(12, halves, spend)
    assert list(found) == [12, 6, 4, 2, 1] and not done
    assert spend.left < 0


def test_explore_stops_at_first_state_in_stop():
    def halves(n):
        return [n // 2, n // 3]

    order = [12, 6, 4, 2, 1, 0, 3]
    for stop in ({4}, {3}, {0, 3}, {1, 99}, {2, 6}):
        found, done = _explore(12, halves, Budget(100), stop)
        cut = min(order.index(s) for s in stop if s in order)
        assert list(found) == order[:cut + 1] and not done
    # a start already in stop returns at once, spending nothing
    spend = Budget(5)
    found, done = _explore(12, halves, spend, {12})
    assert list(found) == [12] and not done
    assert spend.left == 5
    # a stop set the search never reaches changes nothing
    found, done = _explore(12, halves, Budget(100), {99})
    assert list(found) == order and done


def unstopped_eq2(a, b, p, budget):
    """Reference for rewriting._eq2 without the stop: both sides explored
    to the end, then compared."""
    table = interchange.AtomTable()
    try:
        sa = stack_of(a, p, table)
        sb = stack_of(b, p, table)
    except TermError:
        return EQ_UNKNOWN
    canonical = lambda s: interchange.canonical(table, s)
    ca = canonical(interchange.cancel_inverses(table, sa))
    cb = canonical(interchange.cancel_inverses(table, sb))
    if ca == cb:
        return EQ_EQUAL
    table.rules = _packed_rules(p, table)
    step = lambda s: interchange.successors(table, s, budget)
    seen_a, done_a = _explore(canonical(sa), step, budget)
    if cb in seen_a:
        return EQ_EQUAL
    seen_b, done_b = _explore(canonical(sb), step, budget)
    if not seen_a.keys().isdisjoint(seen_b):
        return EQ_EQUAL
    if done_a and done_b:
        return EQ_DISTINCT
    return EQ_UNKNOWN


def assert_unstopped_verdicts(a, b, p):
    for x, y in ((a, b), (b, a)):
        for budget in (0, 12, 20, None):
            with mock.patch.object(rewriting, "_eq2", unstopped_eq2):
                want = eq(x, y, p, budget)
            assert eq(x, y, p, budget) is want, (budget, want)


FREE_PAIRS = {**FREE_EQUAL_PAIRS, **FREE_DISTINCT_PAIRS}


@pytest.mark.parametrize("name", sorted(FREE_PAIRS))
def test_stopped_search_keeps_unstopped_verdicts(name):
    width, left, right = FREE_PAIRS[name]
    assert_unstopped_verdicts(free_term(width, left), free_term(width, right),
                           FREE)


def free_offsets(draw, width, atoms):
    layers = []
    for atom in atoms:
        src, tgt = FREE_ATOMS[atom]
        assume(width >= src)
        layers.append((draw(st.integers(0, width - src)), atom))
        width += tgt - src
    return layers


@st.composite
def free_pairs(draw):
    """Two 2-cells over FREE from one source: the second fires the first's
    atoms in another order, sometimes with a unit and a multiplication
    added, so most pairs are parallel."""
    width = draw(st.integers(1, 3))
    atoms = draw(st.lists(st.sampled_from(sorted(FREE_ATOMS)), min_size=1,
                          max_size=4))
    other = list(draw(st.permutations(atoms)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(other)))
        other[i:i] = ["u", "m"]
    return (free_term(width, free_offsets(draw, width, atoms)),
            free_term(width, free_offsets(draw, width, other)))


@settings(max_examples=40)
@given(free_pairs())
def test_stopped_search_keeps_unstopped_verdicts_random(pair):
    assert_unstopped_verdicts(*pair, FREE)


def three_cells():
    """2-cells a, b, c, d : f => f and 3-cells between them: al;be -> ga
    oriented, th invertible, ep and de to lengthen chains."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    a, b, c, d = (p.add(n, 2, f, f) for n in "abcd")
    cells = {"al": (a, b), "be": (b, c), "ga": (a, c), "ep": (d, a),
             "de": (c, d), "th": (a, b)}
    out = {n: p.add(n, 3, s, t, invertible=(n == "th"))
           for n, (s, t) in cells.items()}
    p.relate(3, comp(2, out["al"], out["be"]), out["ga"], oriented=True)
    return p, out


def test_high_rule_inside_a_chain_is_equal():
    p, g = three_cells()
    long = comp(2, g["ep"], g["al"], g["be"], g["de"])
    short = comp(2, g["ep"], g["ga"], g["de"])
    assert eq(long, short, p) is EQ_EQUAL
    assert eq(short, long, p) is EQ_EQUAL


def test_high_move_then_inverse_cancels():
    p, g = three_cells()
    there_and_back = comp(2, g["ep"], g["th"], Inv(g["th"]), g["al"])
    assert eq(there_and_back, comp(2, g["ep"], g["al"]), p) is EQ_EQUAL


def test_high_budget_zero_is_unknown():
    p, g = three_cells()
    long = comp(2, g["ep"], g["al"], g["be"], g["de"])
    short = comp(2, g["ep"], g["ga"], g["de"])
    assert eq(long, short, p, budget=0) is EQ_UNKNOWN


def test_high_never_distinct():
    p, g = three_cells()
    ep, al, be, ga, de, th = (g[n] for n in ("ep", "al", "be", "ga", "de",
                                             "th"))
    # parallel chains d => d, some equal and some not
    chains = [comp(2, ep, al, be, de), comp(2, ep, ga, de),
              comp(2, ep, th, be, de), comp(2, ep, th, Inv(th), ga, de),
              comp(2, ep, th, Inv(th), al, be, de)]
    for x in chains:
        for y in chains:
            for budget in (0, 1, 3, None):
                assert eq(x, y, p, budget) is not EQ_DISTINCT
    # two parallel generators: their one-move chains are compared by
    # equality of the normalized moves, with no nested eq
    assert eq(al, th, p) is EQ_UNKNOWN
    assert eq(comp(2, ep, al, be, de), comp(2, ep, th, be, de),
              p) is EQ_UNKNOWN


def test_high_cycling_rules_do_not_recurse():
    """Oriented 3-rules X -> Z and Z -> X between parallel 3-cells: the
    searches go round the cycle, and the third cell Y is never reached."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    a, b = (p.add(n, 2, f, f) for n in "ab")
    X, Y, Z = (p.add(n, 3, a, b) for n in "XYZ")
    p.relate(3, X, Z, oriented=True)
    p.relate(3, Z, X, oriented=True)
    for budget in (10, 100, 1000, None):
        assert eq(X, Y, p, budget) is EQ_UNKNOWN
        assert eq(X, Z, p, budget) is EQ_EQUAL


def test_unknown_source_does_not_hide_a_distinct_target():
    """a: f => k is not parallel (as in a presentation under validation).
    At budget 0 the sources f, f2 are Unknown, but the targets k: x -> z
    and k2: x -> y differ at an object, which costs no budget."""
    p = Presentation(max_dim=2)
    x, y, z = (p.add(n, 0) for n in "xyz")
    f, f2, k2 = (p.add(n, 1, x, y) for n in ("f", "f2", "k2"))
    k = p.add("k", 1, x, z)
    a = p.add("a", 2, f, k)
    b = p.add("b", 2, f2, k2)
    assert eq(f, f2, p, budget=0) is EQ_UNKNOWN
    assert eq(k, k2, p, budget=0) is EQ_DISTINCT
    assert eq(a, b, p, budget=0) is EQ_DISTINCT
    assert eq(b, a, p, budget=0) is EQ_DISTINCT


def _growing_words():
    """1-cells f, f2, k, k2: x -> y and e: y -> y with the oriented rule
    f -> f e, whose closure of f is infinite, so comparing f with f2 runs
    any budget out."""
    p = Presentation(max_dim=4)
    x, y = p.add("x", 0), p.add("y", 0)
    f, f2, k, k2 = (p.add(n, 1, x, y) for n in ("f", "f2", "k", "k2"))
    p.relate(1, f, comp(0, f, p.add("e", 1, y, y)), oriented=True)
    return p, f, f2, k, k2


def test_a_side_that_runs_the_budget_out_leaves_the_other_its_own():
    p, f, f2, k, k2 = _growing_words()
    a = p.add("a", 2, f, k)
    b = p.add("b", 2, f2, k2)
    t = p.add("t", 3, a, a)
    u = p.add("u", 3, b, b)
    assert eq(f, f2, p) is EQ_UNKNOWN
    assert eq(k, k2, p) is EQ_DISTINCT
    assert parallel(a, b, p) == (EQ_DISTINCT, 1)
    assert eq(a, b, p) is EQ_DISTINCT
    # one level further up, the same certificate is found inside eq
    assert parallel(t, u, p) == (EQ_DISTINCT, 1)
    assert eq(t, u, p) is EQ_DISTINCT


def _loops(rules, letters="fgh"):
    """Non-invertible loops on one object x, one per letter, and the
    oriented 1-rules given as (lhs, rhs) strings of letters."""
    p = Presentation(max_dim=1)
    x = p.add("x", 0)
    for n in letters:
        p.add(n, 1, x, x)
    for lhs, rhs in rules:
        p.relate(1, _loop_word(lhs), _loop_word(rhs), oriented=True)
    return p


def _loop_word(w):
    return comp(0, *map(Gen, w)) if w else Id(Gen("x"))


def test_words_that_share_a_redex_are_equal():
    # f -> g and f -> h: h is one rule step from f
    p = _loops([("f", "g"), ("f", "h")])
    assert eq(Gen("f"), Gen("h"), p) is EQ_EQUAL
    assert eq(Gen("h"), Gen("f"), p) is EQ_EQUAL
    assert eq(Gen("f"), Gen("g"), p) is EQ_EQUAL


def test_cycling_word_rules_decide_both_ways():
    # f -> g -> f: the closure of f is {f, g}, finite, and misses f2
    p = _loops([("f", "g"), ("g", "f")], letters=("f", "g", "f2"))
    for budget in (None, 100):
        assert eq(Gen("f"), Gen("g"), p, budget) is EQ_EQUAL
        assert eq(Gen("g"), Gen("f"), p, budget) is EQ_EQUAL
        assert eq(Gen("f"), Gen("f2"), p, budget) is EQ_DISTINCT
    assert eq(Gen("f"), Gen("f2"), p, budget=1) is EQ_UNKNOWN


def test_a_word_search_cut_short_is_unknown():
    # f2's closure is {f2}, explored to the end; f's never ends
    p, f, f2, _, _ = _growing_words()
    assert eq(f2, f, p) is EQ_UNKNOWN


def test_word_rewrites_are_freely_reduced():
    # g -> f^-1 over invertible loops: f g -> f f^-1, which reduces to
    # the empty word
    p = Presentation(max_dim=1)
    x = p.add("x", 0)
    f, g = (p.add(n, 1, x, x, invertible=True) for n in "fg")
    p.relate(1, g, Inv(f), oriented=True)
    assert eq(comp(0, f, g), Id(x), p) is EQ_EQUAL
    assert eq(Id(x), comp(0, f, g), p) is EQ_EQUAL
    assert eq(comp(0, g, f), Id(x), p) is EQ_EQUAL


def test_rewrites_spend_one_unit_per_window():
    rules = [(("a",), ("b",)), (("a", "a"), ())]
    budget = Budget(100)
    assert list(_rewrites(tuple("aab"), rules, budget)) == [
        tuple("bab"), tuple("abb"), tuple("b")]
    assert budget.left == 100 - 3 - 2
    budget = Budget(2)
    assert list(_rewrites(tuple("aab"), rules, budget)) == [
        tuple("bab"), tuple("abb")]


def forward_closure(word, rules, cap):
    """The words reachable from word by rewriting one occurrence of a
    rule's lhs to its rhs at a time, and whether that is all of them;
    the search stops once it holds cap words."""
    seen, todo = {word}, [word]
    while todo:
        cur = todo.pop()
        for lhs, rhs in rules:
            i = cur.find(lhs)
            while i >= 0:
                nxt = cur[:i] + rhs + cur[i + len(lhs):]
                if nxt not in seen:
                    if len(seen) == cap:
                        return seen, False
                    seen.add(nxt)
                    todo.append(nxt)
                i = cur.find(lhs, i + 1)
    return seen, True


loop_words = st.text("fgh", max_size=4)
loop_rules = st.lists(st.tuples(st.text("fgh", min_size=1, max_size=2),
                                st.text("fgh", max_size=2)), max_size=4)


@settings(max_examples=300)
@given(loop_rules, loop_words, loop_words)
def test_word_search_meets_where_the_forward_closures_do(rules, u, v):
    # a closure of at most 20 words holds words of at most 4 + 19
    # letters, so exploring it costs at most 20 * (1 + 4 * 23) units per
    # side: 4000 decides every pair of such closures
    p = _loops(rules)
    seen_u, all_u = forward_closure(u, rules, cap=20)
    seen_v, all_v = forward_closure(v, rules, cap=20)
    meet = not seen_u.isdisjoint(seen_v)
    verdict = eq(_loop_word(u), _loop_word(v), p, budget=4000)
    if all_u and all_v:
        assert verdict is (EQ_EQUAL if meet else EQ_DISTINCT)
    elif meet:
        assert verdict is not EQ_DISTINCT


def test_a_generator_boundary_that_is_not_a_word_is_unknown():
    """g's target mentions an unknown generator, so g has no boundary
    words: stack_of refuses the stack g-then-a, and eq, which used to
    let the TermError escape from canonical_stack, answers Unknown."""
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    g = p.add("g", 2, f, comp(0, f, Gen("nope")))
    a, b = p.add("a", 2, f, f), p.add("b", 2, f, f)
    with pytest.raises(TermError):
        stack_of(comp(1, g, a), p, interchange.AtomTable())
    assert eq(comp(1, g, a), comp(1, g, b), p) is EQ_UNKNOWN


def test_boundaries_eq_compares_the_sides_it_names():
    m, u, a = Gen("m"), Gen("u"), Gen("A")
    aa, pt = comp(0, a, a), Id(Gen("pt"))
    assert boundaries_eq(aa, 1, aa, 1, M) is EQ_EQUAL
    assert boundaries_eq(a, 1, a, 1, M) is EQ_EQUAL
    assert boundaries_eq(aa, 1, pt, 1, M) is EQ_DISTINCT
    # composable names the sides: the normal boundaries it compared come
    # back for the report
    assert composable(1, u, m, M) == (EQ_DISTINCT, a, aa)
    assert composable(1, m, u, M) == (EQ_DISTINCT, a, pt)
    assert composable(1, m, Id(a), M) == (EQ_EQUAL, a, a)


def test_parallel_spends_the_given_budget(undecidable_at_budget_0):
    p, a, b = undecidable_at_budget_0, Gen("a"), Gen("b")
    assert parallel(a, b, p) == (EQ_EQUAL, None)
    assert parallel(a, b, p, budget=0) == (EQ_UNKNOWN, None)


def test_parallel(monkeypatch):
    m, u, A = Gen("m"), Gen("u"), Gen("A")
    assert parallel(m, m, M) == (EQ_EQUAL, None)
    assert parallel(m, comp(1, comp(0, m, u), m), M) == (EQ_EQUAL, None)
    assert parallel(m, u, M) == (EQ_DISTINCT, 1)   # different sources
    assert parallel(m, A, M) == (EQ_DISTINCT, None)   # different dimensions
    assert parallel(Gen("pt"), Gen("pt"), M) == (EQ_EQUAL, None)
    a = comp(1, comp(0, m, Id(A)), m)
    b = comp(1, comp(0, Id(A), m), m)
    # their sources AAA and their targets A agree as terms, at no cost
    monkeypatch.setenv("HOPFSMITH_BUDGET", "0")
    assert parallel(a, b, M) == (EQ_EQUAL, None)
