"""Semantics: structure cells hit their tensors, evaluation is functorial,
and the universal shear evaluates to the coshear on every fixture."""

import pytest

from hopfsmith.bialgebra import shear, NE, NW, SE, SW
from hopfsmith import evaluate, shear as shear_module
from hopfsmith.evaluate import evaluate_diagram, shear_semantics
from hopfsmith.fixtures import standard_fixtures
from hopfsmith.matrix import Matrix
from hopfsmith.shear import bimnd_cells, mnd_smash, universal_shear
from hopfsmith.terms import Comp, Gen, Id, Inv

FX = standard_fixtures()
CROSS = "A⊗A"


def test_structure_cells():
    for name in ("QZ2", "sweedler", "superline"):
        B = FX[name]
        cells = bimnd_cells()
        assert evaluate_diagram(cells["mult"], B) == B.m
        assert evaluate_diagram(cells["comult"], B) == B.delta
        assert evaluate_diagram(cells["unit"], B) == B.u
        assert evaluate_diagram(cells["counit"], B) == B.eps


def test_identity_of_crossing():
    B = FX["QS3"]
    assert evaluate_diagram(Id(Gen(CROSS)), B) == \
        Matrix.identity(B.field, B.n)
    assert evaluate_diagram(Id(Comp(1, Gen(CROSS), Gen(CROSS))), B) == \
        Matrix.identity(B.field, B.n ** 2)


def test_functoriality_of_vertical_composition():
    B = FX["sweedler"]
    cells = bimnd_cells()
    chain = Comp(2, cells["comult"], cells["mult"])
    lhs = evaluate_diagram(chain, B)
    rhs = evaluate_diagram(cells["mult"], B) @ \
        evaluate_diagram(cells["comult"], B)
    assert lhs == rhs


def test_whiskering_tensors_identity():
    B = FX["sweedler"]
    cells = bimnd_cells()
    stacked = Comp(1, Id(Gen(CROSS)), cells["mult"])
    val = evaluate_diagram(stacked, B)
    assert val == B.m.kron(Matrix.identity(B.field, B.n))


def test_inverse_evaluation():
    B = FX["QZ2"]
    sh = evaluate_diagram(universal_shear(), B)
    sh_inv = evaluate_diagram(Inv(universal_shear()), B)
    assert sh @ sh_inv == Matrix.identity(B.field, B.n ** 2)


@pytest.mark.parametrize("name", ["QS3", "QZ3dual"])
def test_an_identity_4_cell_evaluates_its_inner_cell_as_written(name):
    """Both sides of Id(Inv(shear)) are the inverse of the whole shear,
    which evaluates to the inverse matrix; pushing the inverse to the
    leaves would ask for the inverse of a non-square m (x) A."""
    B = FX[name]
    assert (evaluate_diagram(Id(Inv(universal_shear())), B)
            == shear(B, NE).inverse())


def test_inverse_of_singular_errors():
    B = FX["QM"]
    with pytest.raises(Exception):
        evaluate_diagram(Inv(universal_shear()), B)


def test_universal_shear_is_the_coshear_everywhere():
    for name, B in FX.items():
        val, want = shear_semantics(B)
        assert val == want, name
        assert want == shear(B, NE)


def test_the_universal_shear_is_evaluated_without_the_smash(monkeypatch):
    """The universal shear lives in the monad tensor square, so neither
    building it nor evaluating it builds the smashed square."""
    def no_smash():
        raise AssertionError("the smashed monad square was built")

    universal_shear.cache_clear()
    monkeypatch.setattr(shear_module, "mnd_smash", no_smash)
    monkeypatch.setattr(evaluate, "mnd_smash", no_smash, raising=False)
    for name, B in FX.items():
        val, want = shear_semantics(B)
        assert val == want, name


def test_shear_semantics_distinguishes_directions():
    B = FX["sweedler"]
    val, _ = shear_semantics(B)
    assert val != shear(B, NW)
    assert val != shear(B, SE)
    assert val != shear(B, SW)


def test_four_cell_assertions():
    # collapse-trivial four-cells assert equalities that hold trivially
    B = FX["QZ2"]
    small, _ = mnd_smash()
    name = "m⊗u"
    src = small.gens[name].src
    tgt = small.gens[name].tgt
    assert evaluate_diagram(src, B) == evaluate_diagram(tgt, B)


def test_functoriality_across_fixture_pairs():
    cells = bimnd_cells()
    pairs = [("comult", "mult"), ("unit", "counit")]
    for name in ("QZ2", "QS3", "superline"):
        B = FX[name]
        for a, b in pairs:
            chain = Comp(2, cells[a], cells[b])
            assert evaluate_diagram(chain, B) == \
                evaluate_diagram(cells[b], B) @ evaluate_diagram(cells[a], B)


def test_dual_comodule_without_antipode_errors():
    from hopfsmith.bialgebra import NoAntipode
    from hopfsmith.comodule import dual_comodule, regular_comodule
    with pytest.raises(NoAntipode):
        dual_comodule(regular_comodule(FX["QM"]))
