"""The universal shear 3-cell, the structure cells of the smashed monad
square, and the boundary-checked factorization chain."""

import hashlib
import io
from contextlib import redirect_stdout

from hopfsmith.cli import main
from hopfsmith.gray import GrayMorphism, TensorTerms, gray
from hopfsmith.presentation import validate_term
from hopfsmith.rewriting import EQ_EQUAL, eq
from hopfsmith.shear import (_g, _o2_to_mnd, bimnd_cells, mnd_gray,
                             mnd_smash, oriental_shear_term,
                             proof_skeleton_check, universal_shear,
                             whiskered_gray)
from hopfsmith.terms import Comp, Gen, Id, comp, generators
from hopfsmith.walking import oriental2


def oriental_shear_boundaries():
    """Hand-encoded fixtures for the two 2-sides of the shear picture:
    four layers each, transcribed from the displayed diagrams."""
    src = comp(
        1,
        comp(0, _g("v", "v"), Id(_g("x1", "u")), Id(_g("u", "x0"))),
        comp(0, Id(_g("v", "x2")), _g("x1", "sigma"), Id(_g("u", "x0"))),
        comp(0, Id(_g("v", "x2")), _g("u", "w")),
        comp(0, _g("sigma", "x2"), Id(_g("x0", "w"))),
    )
    tgt = comp(
        1,
        comp(0, Id(_g("x2", "v")), Id(_g("v", "x1")), _g("u", "u")),
        comp(0, Id(_g("x2", "v")), _g("sigma", "x1"), Id(_g("x0", "u"))),
        comp(0, _g("w", "v"), Id(_g("x0", "u"))),
        comp(0, Id(_g("w", "x2")), _g("x0", "sigma")),
    )
    return src, tgt


def shear_fixtures():
    """The hand-encoded 2-sides of the shear picture, pushed along the
    triangle-to-monad morphism into the monad tensor square."""
    to_mnd = _o2_to_mnd()
    gm = GrayMorphism(to_mnd, to_mnd, mnd_gray())
    return tuple(gm.push(t) for t in oriental_shear_boundaries())


def test_shear_term_valid_and_fixtures_match():
    p, term = mnd_gray(), universal_shear()
    source_fixture, target_fixture = shear_fixtures()
    assert validate_term(term, p) == []
    assert p.dim(term) == 3
    assert eq(p.boundary(term, "source", 2), source_fixture, p) is EQ_EQUAL
    assert eq(p.boundary(term, "target", 2), target_fixture, p) is EQ_EQUAL


def test_shear_globularity():
    p, term = mnd_gray(), universal_shear()
    src2 = p.boundary(term, "source", 2)
    tgt2 = p.boundary(term, "target", 2)
    for k in (0, 1):
        for side in ("source", "target"):
            assert eq(p.boundary(src2, side, k),
                      p.boundary(tgt2, side, k), p) is EQ_EQUAL


def test_shear_collapse_generator_multiset():
    _, collapse = mnd_smash()
    names = sorted(generators(collapse.push(universal_shear())))
    crossing = "A⊗A"
    assert names.count(crossing) == 2
    assert names.count("A⊗m") == 1
    assert names.count("m⊗A") == 1
    assert len(names) == 4


def test_bimnd_cells_shapes():
    cells = bimnd_cells()
    small, _ = mnd_smash()
    under = cells["underlying"]
    pt_id = Id(Gen("pt"))
    assert eq(small.boundary(under, "source", 1), pt_id, small) is EQ_EQUAL
    assert eq(small.boundary(under, "target", 1), pt_id, small) is EQ_EQUAL
    # counit: crossing => identity 2-cell
    assert eq(small.boundary(cells["counit"], "source", 2), under,
              small) is EQ_EQUAL
    assert eq(small.boundary(cells["counit"], "target", 2), Id(pt_id),
              small) is EQ_EQUAL
    # mult source is the vertical square of the crossing
    assert eq(small.boundary(cells["mult"], "source", 2),
              Comp(1, under, under), small) is EQ_EQUAL
    assert eq(small.boundary(cells["mult"], "target", 2), under,
              small) is EQ_EQUAL
    # comult mirrors it
    assert eq(small.boundary(cells["comult"], "source", 2), under,
              small) is EQ_EQUAL
    assert eq(small.boundary(cells["comult"], "target", 2),
              Comp(1, under, under), small) is EQ_EQUAL
    # unit: identity 2-cell => crossing
    assert eq(small.boundary(cells["unit"], "source", 2), Id(pt_id),
              small) is EQ_EQUAL


def test_proof_skeleton_passes():
    rep = proof_skeleton_check()
    assert rep.ok()
    assert rep.chain_composable and rep.boundary_match and rep.hexagon_closes
    assert rep.table.get("L", 0) >= 2
    assert rep.table.get("R", 0) >= 2
    assert rep.table.get("4-cell", 0) >= 1
    assert rep.table.get("collapse-trivial", 0) >= 1


def test_proof_skeleton_empty_chain_vacuous():
    from hopfsmith.shear import SkeletonReport
    rep = SkeletonReport([], True, True, True, {}, [])
    assert rep.ok()


def test_proof_skeleton_mutation_fails_at_step():
    rep = proof_skeleton_check(mutate_step=2)
    assert not rep.chain_composable
    assert any("step2" in f or "step1" in f for f in rep.failures)


def test_hexagon_check_catches_swapped_boundaries(monkeypatch):
    # a tensor whose interchange 4-cells have source and target exchanged:
    # the routes stay parallel, but each carries the other's 3-chain
    fill = TensorTerms.fill22_boundaries

    def swapped(self, alpha, beta):
        src, tgt = fill(self, alpha, beta)
        return tgt, src

    whiskered_gray.cache_clear()
    monkeypatch.setattr(TensorTerms, "fill22_boundaries", swapped)
    try:
        rep = proof_skeleton_check()
    finally:
        monkeypatch.undo()
        whiskered_gray.cache_clear()
    assert not rep.hexagon_closes and not rep.ok()
    assert rep.failures == ["hexagon source mismatch at level 3",
                            "hexagon target mismatch at level 3"]
    assert proof_skeleton_check().hexagon_closes


PROOF_SKELETON_SHA256 = (
    "cd4d5b60840a08ecd95d097f2f9e2bcc6d2afb4aeaaece846439a0b7d60d25ba")


def test_proof_skeleton_report_is_pinned():
    """The `--json --no-timing` report of the proof skeleton, byte for byte:
    the step labels and classes of the chain that GrayMorphism pushes into
    the whiskered square, the table and every check."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--json", "--no-timing", "proof-skeleton"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        PROOF_SKELETON_SHA256


def test_oriental_shear_term_lives_in_the_triangle_square():
    """The shear that both tensor-square morphisms push is a valid 3-cell
    of gray(oriental2, oriental2), their common domain."""
    o2 = oriental2()
    og = gray(o2, o2)
    assert validate_term(oriental_shear_term(), og) == []
    assert og.dim(oriental_shear_term()) == 3
