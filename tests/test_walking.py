from hopfsmith.presentation import Presentation, validate_presentation
from hopfsmith.rewriting import EQ_EQUAL, eq
from hopfsmith.terms import Gen, Id, comp, generators
from hopfsmith.walking import (adj, boundary_globe, e_oriental2, globe, mnd,
                               oriental2, point, suspend)

import pytest


def test_globe_censuses():
    assert globe(0).census() == (1,)
    assert globe(2).census() == (2, 2, 1)
    assert globe(4).census() == (2, 2, 2, 2, 1)
    assert boundary_globe(3).census() == (2, 2, 2)
    with pytest.raises(ValueError):
        globe(5)


def test_suspend_globe_matches_next_globe():
    s = suspend(globe(1))
    g2 = globe(2)
    assert s.census() == g2.census()
    assert validate_presentation(s) == []


def test_suspend_empty_is_two_points():
    from hopfsmith.walking import empty
    s = suspend(empty())
    assert s.census() == (2,)


def test_double_suspension_of_point():
    s2 = suspend(suspend(point()))
    assert s2.census() == globe(2).census()
    # the unique 2-generator's boundaries are the two parallel 1-generators
    top = [g for g in s2.gens.values() if g.dim == 2][0]
    assert s2.dim(top.src) == 1 and s2.dim(top.tgt) == 1
    assert top.src != top.tgt


def test_suspend_truncated_mnd():
    m1 = Presentation(max_dim=1)
    m1.add("pt", 0)
    m1.add("A", 1, Gen("pt"), Gen("pt"))
    s = suspend(m1)
    assert s.census() == (2, 1, 1)


def test_mnd_census_and_relations():
    m = mnd()
    assert m.base.census() == (1, 1, 2)
    assert len(m.base.relations) == 3
    assert all(r.oriented for r in m.base.relations)
    assert m.basepoint == "pt"


def test_adj_zigzags_normalize():
    a = adj().base
    l, r, e, n = Gen("l"), Gen("r"), Gen("eps"), Gen("eta")
    snake_r = comp(1, comp(0, Id(r), n), comp(0, e, Id(r)))
    assert eq(snake_r, Id(r), a) is EQ_EQUAL


def test_oriental_censuses():
    assert oriental2().census() == (3, 3, 1)
    assert e_oriental2().census() == (5, 5, 1)
    assert validate_presentation(e_oriental2()) == []


@pytest.mark.parametrize("build", [lambda: mnd().base, lambda: adj().base])
@pytest.mark.parametrize("times", [1, 2])
def test_suspension_shifts_relations(build, times):
    """Every relation moves up one dimension per suspension, keeps its
    orientation and its generators (renamed), and the suspension
    validates."""
    p = build()
    s = p
    for _ in range(times):
        s = suspend(s)
    assert validate_presentation(s) == []
    assert len(s.relations) == len(p.relations) > 0
    prefix = "S." * times
    for r, sr in zip(p.relations, s.relations):
        assert sr.dim == r.dim + times
        assert sr.oriented == r.oriented
        for side, shifted in ((r.lhs, sr.lhs), (r.rhs, sr.rhs)):
            assert s.dim(shifted) == r.dim + times
            assert list(generators(shifted)) == [
                prefix + n for n in generators(side)]
