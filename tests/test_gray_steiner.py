"""The Gray tensor against Steiner's tensor of augmented directed complexes.

For a generator x⊗y of `gray(P, Q)` of dimension d, the (d−1)-chains of
its source and target (the (d−1)-generators each side pastes, with their
multiplicities) must be the chains Steiner's formula gives:

    ∂^α(x⊗y) = ∂^α x ⊗ y + x ⊗ ∂^{(−1)^{|x|} α} y,

where ∂^− and ∂^+ of a generator are the chains of its source and target
and an object has no boundary (Steiner, "Omega-categories and chain
complexes", HHA 2004; Crans 1995).  The formula is exact for loop-free
factors without relations or inverses, the twelve such built-ins; it is
also checked on factors with composite boundaries (stacks, whiskers,
identities) and on the monad and adjunction squares.  The chains are read
off the terms here, independently of how `gray` builds them.

The tensor is also checked to be associative up to eq: both bracketings
of a triple of loop-free built-ins name each generator x⊗y⊗z alike, and
must have the same generators and census and sides that are the same
term or not Distinct.
"""

from collections import Counter
from itertools import product

from hopfsmith import gray as gray_module
from hopfsmith.cli import BUILTIN_PRESENTATIONS
from hopfsmith.gray import gray, pair_name, split_pair
from hopfsmith.rewriting import eq
from hopfsmith.terms import Comp, Gen, Id, TermError

from test_gray import _factors

LOOP_FREE = ("point", "oriental2", "e-oriental2", "globe0", "globe1",
             "globe2", "globe3", "globe4", "bglobe1", "bglobe2", "bglobe3",
             "bglobe4")


def chain(p, t, n):
    """The n-chain of a term t of p of dimension n: every n-generator it
    pastes, with multiplicity.  Identities paste none."""
    out = Counter()
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Comp):
            todo += [t.left, t.right]
        elif isinstance(t, Gen):
            if p.gens[t.name].dim == n:
                out[t.name] += 1
        elif not isinstance(t, Id):
            raise ValueError(f"no chain for {t!r}")
    return out


def steiner(P, Q, x, y, alpha):
    """The α-boundary chain of x⊗y by Steiner's formula, α = 0 for the
    source and 1 for the target."""
    out = Counter()
    if x.dim:
        side = (x.src, x.tgt)[alpha]
        for a, c in chain(P, side, x.dim - 1).items():
            out[pair_name(a, y.name)] += c
    if y.dim:
        side = (y.src, y.tgt)[alpha if x.dim % 2 == 0 else 1 - alpha]
        for b, c in chain(Q, side, y.dim - 1).items():
            out[pair_name(x.name, b)] += c
    return out


def rows(P, Q):
    """(generator, side, as built, by the formula) for every side of every
    generator of gray(P, Q) of positive dimension."""
    T = gray(P, Q)
    for g in T.gens.values():
        if g.dim == 0:
            continue
        x, y = (f.gens[n] for f, n in
                zip((P, Q), split_pair(g.name, P.gens, Q.gens)))
        for alpha, side in enumerate((g.src, g.tgt)):
            yield g.name, alpha, chain(T, side, g.dim - 1), steiner(
                P, Q, x, y, alpha)


def check(pairs):
    """(number of rows, the rows whose chains differ) over the ordered
    pairs of factors whose tensor reaches at most dimension 4."""
    count, bad = 0, []
    for P, Q in pairs:
        try:
            found = list(rows(P, Q))
        except TermError:          # beyond dimension 4
            continue
        count += len(found)
        bad += [(name, alpha) for name, alpha, built, want in found
                if built != want]
    return count, bad


def loop_free_pairs():
    return [(BUILTIN_PRESENTATIONS[a](), BUILTIN_PRESENTATIONS[b]())
            for a in LOOP_FREE for b in LOOP_FREE]


def composite_pairs():
    out = []
    for left, right in list(_factors().values()) + [
            (BUILTIN_PRESENTATIONS["mnd"](), BUILTIN_PRESENTATIONS["mnd"]()),
            (BUILTIN_PRESENTATIONS["adj"](), BUILTIN_PRESENTATIONS["adj"]())]:
        out += [(left, right), (right, left)]
    return out


def test_loop_free_built_ins_follow_steiner():
    assert check(loop_free_pairs()) == (3044, [])


def test_composite_boundaries_follow_steiner():
    assert check(composite_pairs()) == (732, [])


def test_the_oracle_sees_swapped_sides_at_k3(monkeypatch):
    """The 4-dimensional pulls (a wire with a 3-bead) with their source
    and target exchanged fail the oracle, one row per side."""
    rule = gray_module._wire_bead

    def swapped(tt, g, h):
        src, tgt = rule(tt, g, h)
        return (tgt, src) if 3 in (g.dim, h.dim) else (src, tgt)

    monkeypatch.setattr(gray_module, "_wire_bead", swapped)
    count, bad = check(loop_free_pairs())
    assert count == 3044 and len(bad) == 36


def test_chains_count_multiplicity_and_skip_identities():
    M = BUILTIN_PRESENTATIONS["mnd"]()
    A, m = Gen("A"), Gen("m")
    assert chain(M, Comp(0, A, A), 1) == Counter({"A": 2})
    assert chain(M, Id(A), 2) == Counter()
    assert chain(M, Comp(1, Comp(0, m, Id(A)), m), 2) == Counter({"m": 2})


# every ordered triple of these whose top dimensions sum to at most 4, 93
# in all, is checked for associativity; over all twelve loop-free
# built-ins there are 722 such triples, which take about 1 s
ASSOCIATIVE = ("point", "globe1", "globe2", "oriental2", "bglobe2")


def test_the_tensor_is_associative_up_to_eq():
    """gray(gray(P, Q), R) and gray(P, gray(Q, R)) have the same
    generators, dimensions and census, and each side of a generator is
    the same term in both or, where the two paste it differently, is not
    Distinct under eq over the first.  On the triples of ASSOCIATIVE the
    sides that differ are those of 3- and 4-generators; eq finds the
    first Equal and leaves the second Unknown."""
    top = {n: len(BUILTIN_PRESENTATIONS[n]().census()) - 1
           for n in ASSOCIATIVE}
    triples, verdicts = 0, Counter()
    for names in product(ASSOCIATIVE, repeat=3):
        if sum(top[n] for n in names) > 4:
            continue
        P, Q, R = (BUILTIN_PRESENTATIONS[n]() for n in names)
        left, right = gray(gray(P, Q), R), gray(P, gray(Q, R))
        assert left.census() == right.census()
        assert {n: (g.dim, g.invertible) for n, g in left.gens.items()} \
            == {n: (g.dim, g.invertible) for n, g in right.gens.items()}
        triples += 1
        for name, g in left.gens.items():
            h = right.gens[name]
            for a, b in ((g.src, h.src), (g.tgt, h.tgt)) if g.dim else ():
                verdicts["same" if a == b else eq(a, b, left).name] += 1
    assert triples == 93 and verdicts["Equal"]
    assert "Distinct" not in verdicts
