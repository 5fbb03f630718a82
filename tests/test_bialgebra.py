import json

import pytest

from hopfsmith.bialgebra import (IntegralConditionError, Matrix, NoAntipode,
                                 antipode, antipode_from_integrals,
                                 bialgebra_from_json, bialgebra_to_json,
                                 check_bialgebra, convolution_inverse,
                                 dual_bialgebra, integrals, is_cohopf,
                                 is_hopf, is_valid_bialgebra, shear,
                                 NE, NW, SE, SW)
from hopfsmith.field import QQ, number_field_from_text
from hopfsmith.fixtures import (corrupted_delta, cyclic_group_algebra,
                                exterior_line_super, group_inversion_matrix,
                                standard_fixtures, symmetric_group_algebra)
from hopfsmith.matrix import koszul_matrix

FX = standard_fixtures()


def test_all_fixtures_pass_axioms():
    for name, B in FX.items():
        assert is_valid_bialgebra(B), name


def test_br_is_the_braiding_that_braid_applies():
    for name, B in FX.items():
        p = B.parities
        assert (koszul_matrix(B.field, p, p) @ B.delta
                == B.delta.braid(1, p, p, 1)), name
    assert FX["superline"].parities == FX["superline"].grading
    assert FX["QS3"].parities == (0,) * 6


def test_corrupted_delta_fails_with_witness():
    bad = corrupted_delta(FX["QZ2"])
    failing = [r for r in check_bialgebra(bad) if not r.holds]
    assert failing
    assert any(r.witness for r in failing)


def test_shear_rank_collapse_for_idempotent_monoid():
    B = FX["QM"]
    assert shear(B, SE).rank() == 3
    assert not is_hopf(B) and not is_cohopf(B)


def test_group_algebra_shear_is_permutation():
    B = FX["QZ2"]
    se = shear(B, SE)
    # permutation matrix: each row and column has exactly one 1
    for i in range(4):
        assert sum(1 for j in range(4) if se[i, j] != 0) == 1
        assert sum(1 for j in range(4) if se[j, i] != 0) == 1
    assert is_hopf(B)


def test_shear_direction_equivalences():
    for name, B in FX.items():
        nw, ne = shear(B, NW).is_invertible(), shear(B, NE).is_invertible()
        sw, se = shear(B, SW).is_invertible(), shear(B, SE).is_invertible()
        assert nw == se, name
        assert ne == sw, name


def test_antipodes_match_convolution_oracle():
    for name in ("QZ2", "QS3", "QZ3dual", "sweedler", "superline"):
        B = FX[name]
        hd = antipode(B)
        assert convolution_inverse(B) == hd.S, name


def test_antipode_inverts_shear():
    # checked inside antipode(); assert it does not raise and round-trips
    for name in ("QZ2", "QS3", "sweedler", "superline"):
        B = FX[name]
        hd = antipode(B)
        I = Matrix.identity(B.field, B.n)
        undo = I.kron(B.m) @ I.kron(hd.S).kron(I) @ B.delta.kron(I)
        assert undo @ shear(B, SE) == Matrix.identity(B.field, B.n ** 2)


def test_specific_antipodes():
    assert antipode(FX["QZ2"]).S == Matrix.identity(QQ, 2)
    B = FX["QS3"]
    assert antipode(B).S == group_inversion_matrix(B)
    S = antipode(FX["sweedler"]).S
    I4 = Matrix.identity(QQ, 4)
    assert S @ S != I4
    assert S @ S @ S @ S == I4
    Bs = FX["superline"]
    Ssl = antipode(Bs).S
    assert Ssl[1, 1] == -1 and Ssl[0, 0] == 1


def test_no_antipode_carries_kernel():
    with pytest.raises(NoAntipode) as exc:
        antipode(FX["QM"])
    assert len(exc.value.kernel) == 1


def test_cohopf_iff_invertible_antipode():
    """antipode reads a singular S as "not co-Hopf": on every fixture, over
    Q and over Q[x]/(x^2+x+1), S is invertible exactly when the NE shear
    is."""
    for field in (QQ, number_field_from_text("x^2+x+1")):
        for name, B in standard_fixtures(field).items():
            if not is_hopf(B):
                assert name == "QM"
                continue
            hd = antipode(B)
            assert (hd.S_inv is not None) == is_cohopf(B), name
            if hd.S_inv is not None:
                assert hd.S @ hd.S_inv == Matrix.identity(B.field, B.n)


def test_integrals_group_algebra():
    B = FX["QZ2"]
    d = integrals(B)
    assert len(d.left_integrals) == 1 and len(d.left_cointegrals) == 1
    lam = d.normalized_integral
    # delta_e up to scalar: supported on the unit element only
    assert lam[0, 0] != 0 and lam[0, 1] == 0
    co = d.normalized_cointegral
    assert co[0, 0] == co[1, 0] != 0  # the group sum


def test_integrals_all_hopf_fixtures_are_lines():
    for name in ("QZ2", "QS3", "QZ3dual", "sweedler", "superline"):
        d = integrals(FX[name])
        assert len(d.left_integrals) == 1, name
        assert len(d.left_cointegrals) == 1, name
        assert d.pairing is not None and d.pairing != 0, name


def test_integrals_monoid_reported_without_guarantee():
    d = integrals(FX["QM"])
    assert len(d.left_integrals) >= 1
    assert len(d.left_cointegrals) >= 1


def test_antipode_from_integrals_matches():
    for name in ("QZ2", "QS3", "QZ3dual", "sweedler", "superline"):
        B = FX[name]
        assert antipode_from_integrals(B) == antipode(B).S, name


def test_dual_compatibility():
    for name in ("QZ2", "QS3", "sweedler", "superline"):
        B = FX[name]
        D = dual_bialgebra(B)
        assert is_valid_bialgebra(D), name
        assert is_hopf(D), name
        assert antipode(D).S == antipode(B).S.transpose(), name


def test_json_roundtrip():
    for name in ("QZ2", "sweedler", "superline"):
        B = FX[name]
        doc = bialgebra_to_json(B)
        text = json.dumps(doc)
        again = bialgebra_from_json(json.loads(text))
        assert again.m == B.m and again.delta == B.delta
        assert again.u == B.u and again.eps == B.eps
        assert again.braiding == B.braiding
        assert bialgebra_to_json(again) == doc


def test_number_field_group_algebra():
    F = number_field_from_text("x^2+x+1")
    B = cyclic_group_algebra(3, F)
    assert is_valid_bialgebra(B)
    assert is_hopf(B)
    assert antipode_from_integrals(B) == antipode(B).S


def test_symmetric_group_s4_scales():
    # dimension 24: the bialgebra axiom composes through a 331,776-square
    # Kronecker product with one nonzero per row
    B = symmetric_group_algebra(4)
    assert all(r.holds for r in check_bialgebra(B))
    assert is_hopf(B)


def test_superline_needs_koszul():
    B = exterior_line_super()
    assert is_valid_bialgebra(B)
    flat = type(B)(B.field, B.n, m=B.m, u=B.u, delta=B.delta, eps=B.eps,
                   grading=B.grading, braiding="flip",
                   basis_names=B.basis_names)
    bad = [r.name for r in check_bialgebra(flat) if not r.holds]
    assert "bialgebra_axiom" in bad


def test_integral_formula_condition_not_met():
    with pytest.raises(IntegralConditionError):
        antipode_from_integrals(FX["QM"])
