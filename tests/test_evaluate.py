"""Semantics: structure cells hit their tensors, evaluation is functorial,
the universal shear evaluates to the coshear on every fixture, the four
4-cells of the monad square are the bialgebra axioms, and the same
evaluator at level 1 is a 2-cell model that agrees with eq."""

import random

import pytest

from conftest import bench_diagrams
from hopfsmith.bialgebra import shear, NE, NW, SE, SW
from hopfsmith import evaluate, shear as shear_module
from hopfsmith.evaluate import (EvaluationError, Interpretation,
                                evaluate_diagram, monad_square,
                                shear_semantics)
from hopfsmith.field import QQ
from hopfsmith.fixtures import corrupted_delta, standard_fixtures
from hopfsmith.matrix import Matrix
from hopfsmith.presentation import Presentation
from hopfsmith.rewriting import EQ_EQUAL, eq
from hopfsmith.shear import bimnd_cells, mnd_gray, mnd_smash, universal_shear
from hopfsmith.terms import Comp, Gen, Id, Inv
from hopfsmith.walking import adj, mnd

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


@pytest.mark.parametrize("name", sorted(FX))
def test_the_four_4_cells_are_the_bialgebra_axioms(name, monkeypatch):
    """Each 4-generator of the monad tensor square evaluates to the common
    value of its sides.  They are read over the tensor square: in the
    smash, m⊗m's sides lose the braiding of their junction."""
    def no_smash():
        raise AssertionError("the smashed monad square was built")

    monkeypatch.setattr(evaluate, "mnd_smash", no_smash)
    B = FX[name]
    assert evaluate_diagram(Gen("m⊗m"), B) == B.delta @ B.m
    assert evaluate_diagram(Gen("m⊗u"), B) == B.eps @ B.m
    assert evaluate_diagram(Gen("u⊗m"), B) == B.delta @ B.u
    assert evaluate_diagram(Gen("u⊗u"), B) == B.eps @ B.u


def test_a_failing_4_cell_equality_is_reported():
    with pytest.raises(EvaluationError,
                       match="^4-cell asserts an equality that fails$"):
        evaluate_diagram(Gen("m⊗m"), corrupted_delta(FX["QZ2"]))


def test_a_cell_of_another_dimension_is_refused():
    with pytest.raises(EvaluationError, match="^evaluation needs a 3-cell, "
                       "got dimension 2$"):
        evaluate_diagram(Gen(CROSS), FX["QZ2"])


def test_a_generator_without_a_matrix_is_refused():
    I = monad_square(FX["QZ2"])
    I = evaluate.Interpretation(I.field, I.k, I.sizes, {}, I.junction)
    with pytest.raises(EvaluationError,
                       match="^no matrix assigned to generator 'm⊗A'$"):
        evaluate.evaluate(Gen("m⊗A"), I, mnd_gray())


def test_two_non_identity_cells_side_by_side_are_refused():
    mult = bimnd_cells()["mult"]
    with pytest.raises(EvaluationError, match="^0-composition of two "
                       "non-identity 3-cells$"):
        evaluate_diagram(Comp(0, mult, mult), FX["QZ2"])


def test_boundaries_that_no_slides_align_are_refused():
    """m⊗A ends on one crossing and starts on two, in either square."""
    mult = bimnd_cells()["mult"]
    with pytest.raises(EvaluationError, match="^composition boundaries "
                       "differ by more than interchange slides$"):
        evaluate_diagram(Comp(2, mult, mult), FX["QZ2"])


# ---------------------------------------------------------------------------
# 2-cell models: the same evaluator at level 1


def _models(seed):
    """Each diagrams signature with a level-1 interpretation that satisfies
    its relations: the monad through QZ2's multiplication and unit, the
    adjunction through the identity pairing of a 2-dimensional space, and
    the relation-free monad through integer matrices drawn from the
    seed."""
    B, rng = FX["QZ2"], random.Random(seed)

    def drawn(rows, cols):
        return Matrix.from_entries(QQ, rows, cols, (
            (i, j, rng.randint(-3, 3)) for i in range(rows)
            for j in range(cols)))

    pairing = [(3 * i, 0, 1) for i in range(2)]
    cap = Matrix.from_entries(QQ, 4, 1, pairing)
    base = mnd().base
    return {
        "mnd": (base, Interpretation(QQ, 1, {"A": 2},
                                     {"m": B.m, "u": B.u}, None)),
        "adj": (adj().base, Interpretation(QQ, 1, {"l": 2, "r": 2}, {
            "eta": cap, "eps": cap.transpose()}, None)),
        "mnd-free": (Presentation(base.max_dim, dict(base.gens)),
                     Interpretation(QQ, 1, {"A": 2}, {
                         "m": drawn(2, 4), "u": drawn(2, 1)}, None)),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_2_cell_model_agrees_with_eq_on_the_benchmark_pairs(seed):
    """The 48 diagrams pairs of a seed at the benchmark's closure sizes:
    every Equal pair evaluates equal, and every free-ne pair, Distinct by
    construction, evaluates to different matrices."""
    models = _models(seed)
    pairs = bench_diagrams().make_pairs(seed, [2, 3, 4] * 4)
    assert len(pairs) == 48
    for pair in pairs:
        p, I = models[pair.signature]
        left, right = (evaluate.evaluate(p.normalize(t, push_inv=False), I, p)
                       for t in (pair.left, pair.right))
        verdict = eq(pair.left, pair.right, p)
        assert verdict.name == pair.expect, pair.label
        assert (left == right) == (verdict is EQ_EQUAL), pair.label
