import json

import pytest

from hopfsmith.bialgebra import (Bialgebra, IntegralConditionError, Matrix,
                                 NoAntipode, antipode, antipode_from_integrals,
                                 bialgebra_from_json, bialgebra_to_json,
                                 braiding_matrix,
                                 check_bialgebra, convolution_inverse,
                                 integrals, is_cohopf, is_hopf, shear,
                                 NE, NW, SE, SW)
from hopfsmith.field import QQ, number_field_from_text
from hopfsmith.fixtures import (corrupted_delta, cyclic_group_algebra,
                                exterior_line_super, standard_fixtures,
                                symmetric_group_algebra)
from test_matrix_properties import koszul_matrix

FX = standard_fixtures()


def is_valid_bialgebra(B: Bialgebra) -> bool:
    return all(r.holds for r in check_bialgebra(B))


def dual_bialgebra(B: Bialgebra) -> Bialgebra:
    return Bialgebra(B.field, B.n,
                     m=B.delta.transpose(), u=B.eps.transpose(),
                     delta=B.m.transpose(), eps=B.u.transpose(),
                     grading=B.grading, braiding=B.braiding,
                     basis_names=tuple(f"{x}*" for x in B.basis_names))


def group_inversion_matrix(B: Bialgebra) -> Matrix:
    """For group-algebra fixtures: the permutation g |-> g^{-1}, found from
    the multiplication tensor."""
    F, n = B.field, B.n
    e = min(k for k, _, _ in B.u.entries())
    # column (i, j) of row e of m is nonzero exactly when j = i^{-1}
    return Matrix.from_entries(F, n, n, [(c % n, c // n, F.one)
                                         for k, c, _ in B.m.entries()
                                         if k == e])


def test_all_fixtures_pass_axioms():
    for name, B in FX.items():
        assert is_valid_bialgebra(B), name


def test_braiding_matrix_is_the_koszul_swap():
    for name, B in FX.items():
        p = B.parities
        br = braiding_matrix(B)
        assert br == koszul_matrix(B.field, p, p), name
        assert br @ br == Matrix.identity(B.field, B.n * B.n), name
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


def test_records_are_built_whole():
    # the defaults a Bialgebra fills in and the integrals' normalized pair
    # are there at construction, and no field can be set afterwards
    Z2 = FX["QZ2"]
    B = Bialgebra(Z2.field, Z2.n, Z2.m, Z2.u, Z2.delta, Z2.eps)
    d = integrals(B)
    assert B.grading == (0, 0) and B.basis_names == ("e0", "e1")
    assert (d.normalized_integral @ d.normalized_cointegral)[0, 0] == 1
    for record, name in ((B, "grading"), (d, "pairing"),
                         (check_bialgebra(B)[0], "holds"),
                         (antipode(B), "S")):
        before = getattr(record, name)
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        assert getattr(record, name) is before


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
    # dimension 24: the bialgebra axiom is one contraction, where
    # (m (x) m) @ (delta (x) delta) would be a 331,776-square product
    B = symmetric_group_algebra(4)
    assert all(r.holds for r in check_bialgebra(B))
    assert is_hopf(B)
    S = antipode(B).S
    assert S == group_inversion_matrix(B)
    # an involutive permutation matrix
    assert sorted((j, x) for _, j, x in S.entries()) == [(j, 1)
                                                         for j in range(24)]
    assert sorted(i for i, _, _ in S.entries()) == list(range(24))
    assert S @ S == B.id_n


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
