"""Comodules and desk-scale reconstruction."""

import pytest

from hopfsmith.bialgebra import antipode, is_hopf
from hopfsmith.comodule import (Comodule, ComoduleError, comodule_hom,
                                dual_comodule, regular_comodule,
                                tensor_comodule, trivial_comodule)
from hopfsmith.fixtures import corrupted_delta, standard_fixtures
from hopfsmith.matrix import Matrix
from hopfsmith.reconstruct import (GeneratingFamily, _block_offsets,
                                   _relations, coend_reconstruct, resolve,
                                   round_trip)

FX = standard_fixtures()


def coend_dimension(family: GeneratingFamily) -> int:
    """Dimension of the quotient of the coefficient span by naturality."""
    offs = _block_offsets(family)
    return offs[-1] - _relations(family, offs).rank()


def test_regular_and_trivial_are_valid():
    for name in ("QZ2", "QS3", "sweedler", "QM"):
        B = FX[name]
        assert regular_comodule(B).is_valid()
        assert trivial_comodule(B).is_valid()


def test_hom_dimensions_qz2():
    B = FX["QZ2"]
    reg = regular_comodule(B)
    assert len(comodule_hom(reg, reg)) == 2
    assert len(comodule_hom(trivial_comodule(B), reg)) == 1


def test_hom_contains_identity():
    for name in ("QZ2", "sweedler"):
        reg = regular_comodule(FX[name])
        basis = comodule_hom(reg, reg)
        ident = Matrix.identity(FX[name].field, reg.d)
        stacked = Matrix.from_rows(
            FX[name].field,
            [[phi[i, j] for phi in basis]
             for i in range(reg.d) for j in range(reg.d)])
        target = Matrix.from_rows(
            FX[name].field,
            [[ident[i, j]] for i in range(reg.d) for j in range(reg.d)])
        assert stacked.solve(target) is not None


def test_tensor_and_trivial_unit():
    B = FX["QZ2"]
    reg = regular_comodule(B)
    t = tensor_comodule(trivial_comodule(B), reg)
    assert t.is_valid()
    assert t.rho == reg.rho  # canonical identification is on the nose


def test_comodules_over_different_bialgebras_do_not_combine():
    # QZ2 and QM have the same dimension, so no shape check separates them
    for other in ("QM", "QS3"):
        M, N = regular_comodule(FX["QZ2"]), regular_comodule(FX[other])
        for combine in (tensor_comodule, comodule_hom):
            for pair in ((M, N), (N, M)):
                with pytest.raises(ComoduleError,
                                   match="comodules over different "
                                         "bialgebras"):
                    combine(*pair)


def test_tensor_square_hom_count_qz2():
    B = FX["QZ2"]
    reg = regular_comodule(B)
    rr = tensor_comodule(reg, reg)
    assert rr.is_valid()
    assert len(comodule_hom(rr, reg)) == 4


def test_dual_of_regular_is_valid():
    for name in ("QS3", "sweedler"):
        B = FX[name]
        hd = antipode(B)
        d = dual_comodule(regular_comodule(B), hd)
        assert d.is_valid(), name


def test_resolution_identity_property():
    B = FX["sweedler"]
    fam = GeneratingFamily([regular_comodule(B)])
    P = tensor_comodule(regular_comodule(B), regular_comodule(B))
    res = resolve(fam, P)
    F = B.field
    total = Matrix.zero(F, P.d, P.d)
    for iota, pi in zip(res.iotas, res.pis):
        total = total + iota @ pi
    assert total == Matrix.identity(F, P.d)


def test_round_trips():
    for name in ("QZ2", "QS3", "sweedler", "QM"):
        rt = round_trip(FX[name])
        assert rt.verdict == "isomorphism", (name, rt.details)
        assert rt.flags_agree(), name
        assert rt.reconstruction_hopf == is_hopf(FX[name])


def test_one_point_family_gives_trivial_bialgebra():
    B = FX["QZ2"]
    fam = GeneratingFamily([trivial_comodule(B)])
    res = coend_reconstruct(fam, reference=B)
    assert res.bialgebra.n == 1
    assert res.verdict == "not-isomorphism"


def test_coend_dimension_bound():
    for name in ("QZ2", "sweedler"):
        B = FX[name]
        fam = GeneratingFamily([regular_comodule(B)])
        res = coend_reconstruct(fam)
        assert res.bialgebra.n <= B.n * B.n


def test_corrupted_reference_rejected():
    bad = corrupted_delta(FX["QZ2"])
    with pytest.raises(ComoduleError):
        round_trip(bad)


def test_invalid_member_rejected():
    B = FX["QZ2"]
    broken = Comodule(B, 1, Matrix.from_rows(B.field, [[1], [1]]))
    assert not broken.is_valid()
    with pytest.raises(ComoduleError):
        GeneratingFamily([broken])


def test_canonical_map_is_coalgebra_morphism():
    # checked inside coend_reconstruct for all verdicts; spot check details
    for name in ("QZ2", "sweedler"):
        rt = round_trip(FX[name])
        assert not any("comult" in d or "counit" in d for d in rt.details)


def test_round_trip_function_algebra():
    rt = round_trip(FX["QZ3dual"])
    assert rt.verdict == "isomorphism"
    assert rt.flags_agree()


def test_valid_but_wrong_reference_is_not_isomorphism():
    """A basis-permuted copy of the reference is a perfectly valid
    bialgebra, but the canonical map compares entrywise and rejects it."""
    from hopfsmith.bialgebra import Bialgebra
    from hopfsmith.matrix import Matrix
    from test_bialgebra import is_valid_bialgebra
    B = FX["QZ2"]
    F, n = B.field, B.n
    P = Matrix.from_rows(F, [[0, 1], [1, 0]])
    Pk = P.kron(P)
    wrong = Bialgebra(F, n,
                      m=P @ B.m @ Pk.inverse(),
                      u=P @ B.u,
                      delta=Pk @ B.delta @ P.inverse(),
                      eps=B.eps @ P.inverse(),
                      basis_names=B.basis_names)
    assert is_valid_bialgebra(wrong)
    fam = GeneratingFamily([regular_comodule(B)])
    res = coend_reconstruct(fam, reference=wrong)
    assert res.verdict == "not-isomorphism"


def test_coend_dimension_monotone_in_relations():
    """Dropping intertwiners from the relation span can only grow the
    quotient."""
    B = FX["QZ2"]
    fam_full = GeneratingFamily([regular_comodule(B)])
    full = coend_dimension(fam_full)

    fam_cut = GeneratingFamily([regular_comodule(B)])
    idphi = Matrix.identity(B.field, 2)
    fam_cut.hom_cache[(0, 0)] = [idphi]  # identity only: trivial relations
    cut = coend_dimension(fam_cut)
    assert B.n * B.n >= cut >= full
    assert full == 2 and cut == 4


def test_two_member_family_reconstructs():
    B = FX["QZ2"]
    fam = GeneratingFamily([trivial_comodule(B), regular_comodule(B)])
    res = coend_reconstruct(fam, reference=B)
    assert res.verdict == "isomorphism"
    assert res.bialgebra.n == 2
