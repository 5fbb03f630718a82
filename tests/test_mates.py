"""Mates, zigzag soundness, double-mate involution, and the structure
cells of the retract square."""

import pytest

from hopfsmith import rewriting
from hopfsmith.mates import (AdjunctionRecord, ShapeError, Square,
                             double_mate, hopf_square_terms, left_mate,
                             right_mate, trivial_retract, walking_retract)
from hopfsmith.presentation import validate_presentation
from hopfsmith.rewriting import EQ_EQUAL, eq
from hopfsmith.terms import Gen, Id, Inv, comp, print_term
from hopfsmith.walking import adj
from test_presentation import to_json

A = adj().base
REC = AdjunctionRecord(A, Gen("l"), Gen("r"), Gen("eps"), Gen("eta"))
TRIV_A = AdjunctionRecord.trivial(A, Gen("a"))
TRIV_B = AdjunctionRecord.trivial(A, Gen("b"))


def test_zigzag_soundness():
    z = REC.check_zigzags()
    assert z["snake_r"] is EQ_EQUAL
    assert z["snake_l"] is EQ_EQUAL


def test_right_mate_of_identity_square_is_snake():
    sq = Square(f=Gen("l"), g=Id(Gen("b")), h=Id(Gen("a")), k=Gen("l"),
                alpha=Id(Gen("l")))
    rm = right_mate(sq, REC, REC)
    assert eq(rm, Id(Gen("r")), A) is EQ_EQUAL


def test_left_mate_of_identity_square_is_snake():
    sq = Square(f=Id(Gen("b")), g=Gen("r"), h=Gen("r"), k=Id(Gen("a")),
                alpha=Id(Gen("r")))
    lm = left_mate(sq, REC, REC)
    assert eq(lm, Id(Gen("l")), A) is EQ_EQUAL


@pytest.mark.parametrize("square,adj_f,adj_k,alpha", [
    (Square(Gen("l"), Id(Gen("b")), Id(Gen("a")), Gen("l"), Id(Gen("l"))),
     REC, REC, Id(Gen("l"))),
    (Square(Id(Gen("b")), Id(Gen("b")), Gen("r"), Gen("l"), Gen("eps")),
     TRIV_B, REC, Gen("eps")),
    (Square(Gen("l"), Gen("r"), Id(Gen("a")), Id(Gen("a")), Gen("eta")),
     REC, TRIV_A, Gen("eta")),
])
def test_double_mate_involution(square, adj_f, adj_k, alpha):
    out = double_mate(square, adj_f, adj_k)
    assert eq(out, alpha, A, 10_000) is EQ_EQUAL


def test_mate_shape_mismatch_raises():
    sq = Square(f=Gen("r"), g=Id(Gen("a")), h=Id(Gen("b")), k=Gen("r"),
                alpha=Id(Gen("r")))
    with pytest.raises(ShapeError):
        right_mate(sq, REC, REC)  # record's left adjoint is l, not r


def test_walking_retract_presentation_valid():
    W = walking_retract()
    assert validate_presentation(W.presentation) == []
    assert W.adj_f.check_zigzags()["snake_l"] is EQ_EQUAL
    assert W.adj_g.check_zigzags()["snake_r"] is EQ_EQUAL


def test_hopf_square_checks():
    hs = hopf_square_terms(walking_retract())
    # every boundary comparison is verified outright on the generic record
    for name, verdict in hs.checks.items():
        assert verdict in ("Equal", "Unknown"), (name, verdict)
    for name in ("H_src1", "H_tgt1", "mult_src", "mult_tgt",
                 "comult_src", "comult_tgt", "unit_src", "unit_tgt",
                 "counit_src", "counit_tgt"):
        assert hs.checks[name] == "Equal"
    assert hs.checks["H_eq_algebra_form"] == "Equal"
    assert hs.checks["H_eq_coalgebra_form"] == "Equal"


def test_hopf_square_checks_stop_within_budget(monkeypatch):
    # each search stops where it meets the other side, so no check runs
    # its budget out, and all twelve together stay under one default budget
    budgets = []

    class Recording(rewriting.Budget):
        def __init__(self, steps):
            super().__init__(steps)
            self.steps = steps
            budgets.append(self)

    monkeypatch.setattr(rewriting, "Budget", Recording)
    hs = hopf_square_terms(walking_retract())
    assert len(hs.checks) == 12
    assert set(hs.checks.values()) == {"Equal"}
    assert budgets and all(b.left > 0 for b in budgets)
    assert sum(b.steps - b.left for b in budgets) < 10_000


def test_hopf_square_mates_shapes():
    W = walking_retract()
    hs = hopf_square_terms(W)
    p = W.presentation
    assert eq(p.boundary(hs.alpha_rmate, "source", 1), Gen("fR"), p) is EQ_EQUAL
    assert eq(p.boundary(hs.alpha_rmate, "target", 1), Gen("g"), p) is EQ_EQUAL
    assert eq(p.boundary(hs.alpha_lmate, "source", 1), Gen("gL"), p) is EQ_EQUAL
    assert eq(p.boundary(hs.alpha_lmate, "target", 1), Gen("f"), p) is EQ_EQUAL


def test_trivial_retract_collapses():
    hs = hopf_square_terms(trivial_retract())
    p = hs.record.presentation
    assert eq(hs.H, Id(Id(Gen("one"))), p) is EQ_EQUAL


def retract_to_json(rec) -> dict:
    """The pinned JSON of a retract's presentation with its named cells
    under "retract"."""
    data = to_json(rec.presentation)
    data["retract"] = {
        "f": print_term(rec.f), "g": print_term(rec.g),
        "alpha": print_term(rec.alpha),
        "fR": print_term(rec.adj_f.r), "gL": print_term(rec.adj_g.l),
        "section_l": print_term(rec.section_l),
        "retraction_r": print_term(rec.retraction_r),
    }
    return data


def test_retract_serialization_header():
    W = walking_retract()
    doc = retract_to_json(W)
    assert "retract" in doc
    assert doc["retract"]["f"] == "(gen f)"
    assert "generators" in doc


def test_dim3_zigzag_reduces():
    """The 2-adjunction snake is decided at dimension 3 by the bounded
    chain search."""
    W = walking_retract()
    p = W.presentation
    Q = comp(0, Gen("eps_f"), Id(Gen("g")))
    snake = comp(2, comp(1, Id(Q), Gen("unit_secL")),
                 comp(1, Gen("counit_secL"), Id(Q)))
    assert eq(snake, Id(Q), p) is EQ_EQUAL
    # and an inverse pair of 3-cells cancels
    us = comp(2, Gen("unit_secL"), Inv(Gen("unit_secL")))
    # not invertible-marked, so only boundary-sound comparison applies
    from hopfsmith.rewriting import EQ_UNKNOWN
    assert eq(us, Id(Id(Gen("g"))), p) in (EQ_EQUAL, EQ_UNKNOWN)
