"""Tensor-square structure: censuses, boundary sanity, the smash collapse
and its functoriality."""

import pytest

from hopfsmith.gray import GrayMorphism, TensorTerms, gray, pair_name, smash
from hopfsmith.mates import walking_retract
from hopfsmith.presentation import (PresMorphism, Presentation,
                                    validate_presentation,
                                    validate_term)
from hopfsmith.rewriting import EQ_EQUAL, eq
from hopfsmith.terms import Comp, Gen, Id, Inv, TermError, comp
from hopfsmith.walking import (PointedPresentation, boundary_globe, globe,
                               mnd, point)


def census_product(pc, qc, d):
    return sum(pc[i] * qc[d - i]
               for i in range(d + 1)
               if i < len(pc) and d - i < len(qc))


def test_census_multiplicativity_globes():
    for p in range(3):
        for q in range(3):
            if p + q > 4:
                continue
            g = gray(globe(p), globe(q))
            pc, qc = globe(p).census(), globe(q).census()
            for d in range(len(g.census())):
                assert g.census()[d] == census_product(pc, qc, d)


def test_gray_globe11_census():
    assert gray(globe(1), globe(1)).census() == (4, 4, 1)


def test_gray_mnd_census_and_validity():
    g = gray(mnd().base, mnd().base)
    assert g.census() == (1, 2, 5, 4, 4)
    assert validate_presentation(g) == []


def test_gray_point_unit():
    m = mnd().base
    g = gray(m, point())
    assert g.census() == m.census()
    g2 = gray(point(), m)
    assert g2.census() == m.census()


def test_gray_dimension_overflow():
    with pytest.raises(TermError):
        gray(globe(3), globe(2))


@pytest.mark.parametrize("swap", [False, True])
def test_a_bead_across_an_inverse_wire_is_a_term_error(swap):
    """No pull crosses an inverse: a boundary through the inverse of an
    invertible 1-cell raises TermError, which the command line reports as
    a fail line, not an assertion traceback."""
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x, True)
    p.add("a", 2, Inv(f), f)
    with pytest.raises(TermError, match="no pull"):
        gray(globe(1), p) if swap else gray(p, globe(1))


def test_gray_13_pair_builds():
    g = gray(globe(1), globe(3))
    assert validate_presentation(g) == []
    assert g.census()[4] == 1


def test_smash_mnd_census():
    out, _ = smash(mnd(), mnd())
    assert out.census() == (1, 0, 1, 4, 4) == smash_census(
        mnd().base.census(), mnd().base.census())
    assert validate_presentation(out) == []


def smash_census(pc, qc):
    """The census of a smash of presentations with censuses pc and qc: the
    base object, and the pairs of cells that are not basepoints."""
    pc, qc = [pc[0] - 1, *pc[1:]], [qc[0] - 1, *qc[1:]]
    out = [census_product(pc, qc, d) for d in range(len(pc) + len(qc) - 1)]
    return (out[0] + 1, *out[1:])


@pytest.mark.parametrize("swap", [False, True])
def test_a_pair_basepoint_of_an_iterated_tensor_collapses(swap):
    # gray(globe1, globe1) pointed at the pair s0⊗s0: the names of its
    # pairs with globe1 split at either tensor sign, and only the factors'
    # generator tables tell which split is meant
    gg = PointedPresentation(gray(globe(1), globe(1)), pair_name("s0", "s0"))
    g1 = PointedPresentation(globe(1), "s0")
    P, Q = (g1, gg) if swap else (gg, g1)
    out, _ = smash(P, Q)
    assert out.census() == smash_census(P.base.census(), Q.base.census()) \
        == (4, 7, 5, 1)
    assert validate_presentation(out) == []


def test_the_tensor_of_identities_is_the_identity_on_an_iterated_tensor():
    gg, g1 = gray(globe(1), globe(1)), globe(1)
    big = gray(gg, g1)
    gm = GrayMorphism(*(PresMorphism(p, p, {n: Gen(n) for n in p.gens})
                        for p in (gg, g1)), big)
    assert all(gm.push(Gen(n)) == Gen(n) for n in big.gens)


def test_smash_with_two_point_presentation_is_identity_like():
    # smashing with a two-object presentation pointed at one object keeps
    # the other copy intact
    two = Presentation(max_dim=0)
    two.add("base", 0)
    two.add("other", 0)
    m = mnd()
    out, _ = smash(m, PointedPresentation(two, "base"))
    assert out.census() == m.base.census()


def test_collapse_functoriality():
    """The collapse commutes with boundaries and composition on a sample
    of tensor terms."""
    m = mnd()
    big = gray(m.base, m.base)
    out, cm = smash(m, m)
    tt = TensorTerms(m.base, m.base)
    samples = [
        Gen(pair_name("A", "A")),
        Gen(pair_name("m", "A")),
        Gen(pair_name("A", "m")),
        tt.tensor(comp(0, Gen("A"), Gen("A")), 1, Gen("A"), 1),
        tt.tensor(Gen("A"), 1, Gen("m"), 2),
    ]
    for t in samples:
        d = big.dim(t)
        for k in range(d):
            for side in ("source", "target"):
                lhs = cm.push(big.boundary(t, side, k))
                rhs = out.boundary(cm.push(t), side, k)
                assert eq(lhs, rhs, out) is EQ_EQUAL, (t, side, k)


def test_collapse_commutes_with_compose():
    m = mnd()
    big = gray(m.base, m.base)
    out, cm = smash(m, m)
    c = Gen(pair_name("A", "A"))
    stack = Comp(1, c, c)
    assert eq(cm.push(stack), Comp(1, cm.push(c), cm.push(c)), out) is EQ_EQUAL


def test_smash_adj_survivor_count():
    from hopfsmith.walking import adj
    out, _ = smash(adj(), adj())
    # survivors in dimension 1 pair the non-basepoint object with l or r
    assert out.census()[1] == 4


def test_census_multiplicativity_all_globe_pairs():
    for p in range(5):
        for q in range(5):
            if p + q > 4:
                continue
            g = gray(globe(p), globe(q))
            pc, qc = globe(p).census(), globe(q).census()
            got = g.census()
            for d in range(len(got)):
                assert got[d] == census_product(pc, qc, d), (p, q, d)


def test_census_multiplicativity_mnd_square():
    m = mnd().base
    g = gray(m, m)
    pc = m.census()
    got = g.census()
    for d in range(len(got)):
        assert got[d] == census_product(pc, pc, d)


def test_large_tensor_squares_validate():
    from hopfsmith.walking import adj, e_oriental2, oriental2
    for p in (gray(oriental2(), oriental2()),
              gray(e_oriental2(), e_oriental2()),
              gray(adj().base, adj().base),
              smash(adj(), adj())[0]):
        assert validate_presentation(p) == []


def _composite_boundaries():
    """3-generators whose boundaries are a horizontal composite of two
    2-generators (t) and an identity 2-cell (s), so that tensoring with a
    1-cell pulls a composite and an identity across a wire."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f, g = p.add("f", 1, x, x), p.add("g", 1, x, x)
    a, a2 = p.add("a", 2, f, g), p.add("a2", 2, f, g)
    b = p.add("b", 2, g, f)
    p.add("t", 3, comp(0, a, b), comp(0, a2, b))
    p.add("s", 3, Id(f), p.add("c", 2, f, f))
    return p


def _factors():
    retract = walking_retract().presentation
    return {"retract x globe1": (retract, globe(1)),
            "retract x bglobe2": (retract, boundary_globe(2)),
            "composite boundaries x globe1": (_composite_boundaries(),
                                              globe(1))}


@pytest.mark.parametrize("name", sorted(_factors()))
@pytest.mark.parametrize("swap", [False, True])
def test_tensors_that_pull_stacks_and_composites_validate(name, swap):
    """The walking retract has 3-generators whose boundaries are vertical
    stacks, so its tensors with a 1-cell pull a stack across a wire, with
    the idle bead whiskered; the composite-boundaries presentation pulls
    a horizontal composite and an identity.  Every tensor validates, and
    every generator side passes validate_term."""
    left, right = _factors()[name]
    t = gray(right, left) if swap else gray(left, right)
    assert validate_presentation(t) == []
    for g in t.gens.values():
        if g.dim:
            assert validate_term(g.src, t) == []
            assert validate_term(g.tgt, t) == []
