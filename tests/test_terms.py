from hopfsmith.presentation import Presentation
from hopfsmith.terms import (Comp, Gen, Id, Inv, TermError, comp, flatten,
                             generators, idn, illegal_inverses, parse_term,
                             print_term)
from hopfsmith.walking import mnd

import pytest

M = mnd().base


def test_parse_print_roundtrip():
    texts = [
        "(gen A)",
        "(id (gen pt))",
        "(comp0 (gen A) (gen A))",
        "(comp1 (comp0 (gen m) (id (gen A))) (gen m))",
        "(inv (gen A))",
    ]
    for t in texts:
        term = parse_term(t)
        assert print_term(term) == t
        assert parse_term(print_term(term)) == term


def test_parse_rejects_garbage():
    for bad in ["gen A", "(gen A", "(comp9 (gen A) (gen A))", "(frob x)"]:
        with pytest.raises(TermError):
            parse_term(bad)


def test_dimensions():
    assert M.dim(Gen("A")) == 1
    assert M.dim(Gen("m")) == 2
    assert M.dim(Id(Gen("A"))) == 2
    assert M.dim(comp(0, Gen("A"), Gen("A"))) == 1
    with pytest.raises(TermError):
        M.dim(Comp(1, Gen("A"), Gen("A")))


def test_boundaries():
    m = Gen("m")
    assert M.boundary(m, "source", 1) == comp(0, Gen("A"), Gen("A"))
    assert M.boundary(m, "target", 1) == Gen("A")
    assert M.boundary(m, "source", 0) == Gen("pt")
    assert M.boundary(Id(Gen("A")), "source", 1) == Gen("A")
    with pytest.raises(TermError):
        M.boundary(m, "source", 2)


def test_boundary_of_inv_swaps_sides():
    m = Gen("m")
    assert M.boundary(Inv(m), "source", 1) == M.boundary(m, "target", 1)
    assert M.boundary(Inv(m), "target", 1) == M.boundary(m, "source", 1)


def test_normalize_absorbs_identities():
    f = Gen("A")
    assert M.normalize(Comp(0, Id(Gen("pt")), f)) == f
    assert M.normalize(Comp(0, f, Id(Gen("pt")))) == f
    assert M.normalize(Comp(1, Id(comp(0, f, f)), Gen("m"))) == Gen("m")
    assert M.normalize(Comp(1, Gen("m"), Id(f))) == Gen("m")


def test_normalize_pushes_inverses():
    t = Inv(Comp(0, Gen("A"), Gen("A")))
    out = M.normalize(t)
    assert isinstance(out, Comp)
    assert isinstance(out.left, Inv) and isinstance(out.right, Inv)
    assert M.normalize(Inv(Inv(Gen("A")))) == Gen("A")


def test_flatten():
    t = comp(0, Gen("A"), Gen("A"), Gen("A"))
    assert flatten(t, 0) == [Gen("A")] * 3


def test_globularity_of_constructed_terms():
    # source(source(t)) == source(target(t)) for every 2-cell we build
    for t in (Gen("m"), Gen("u"), comp(1, comp(0, Gen("m"), Id(Gen("A"))),
                                       Gen("m"))):
        s = M.boundary(t, "source", 1)
        g = M.boundary(t, "target", 1)
        assert M.normalize(M.boundary(s, "source", 0)) == \
            M.normalize(M.boundary(g, "source", 0))
        assert M.normalize(M.boundary(s, "target", 0)) == \
            M.normalize(M.boundary(g, "target", 0))


@pytest.mark.parametrize("bad, message", [
    (Comp(1, Gen("A"), Gen("A")), "illegal composition level 1 for dimension 1"),
    (Comp(0, Id(Gen("pt")), Gen("m")), "composite of unequal dimensions 1 and 2"),
])
def test_normalize_raises_where_dim_raises(bad, message):
    # identity absorption used to swallow these ill-formed composites
    for push_inv in (True, False):
        with pytest.raises(TermError, match=message):
            M.normalize(bad, push_inv)
    with pytest.raises(TermError, match=message):
        M.dim(bad)


def test_generators_walks_deep_terms():
    """A 10⁴-letter word, either way associated, and a 10⁴-deep id tower
    give their generators left to right, with multiplicity."""
    names = [f"g{i}" for i in range(10_000)]
    right = Gen(names[-1])
    for name in reversed(names[:-1]):
        right = Comp(0, Gen(name), right)
    for word in (comp(0, *map(Gen, names)), right):
        assert list(generators(word)) == names
    assert list(generators(idn(Gen("m"), 10_000))) == ["m"]
    mixed = Comp(1, Inv(comp(0, Gen("A"), Id(Gen("m")))), Gen("A"))
    assert list(generators(mixed)) == ["A", "m", "A"]


def test_illegal_inverses_walks_deep_terms():
    A = Gen("A")
    deep = comp(0, *[Inv(A), A] * 5000)
    assert list(illegal_inverses(deep, M.gens)) == ["A"] * 5000
    twice = Inv(comp(0, Inv(A), A))
    assert list(illegal_inverses(twice, M.gens)) == ["A", "A"]
    p = Presentation(max_dim=1)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x, invertible=True)
    assert list(illegal_inverses(comp(0, *[Inv(f), f] * 5000), p.gens)) == []
