"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated time bound.  Everything is exact; there
are no numeric tolerances to tune."""

import time

from hopfsmith.bialgebra import (antipode, antipode_from_integrals,
                                 check_bialgebra, convolution_inverse,
                                 integrals, shear, Matrix, NE, NW, SE, SW)
from hopfsmith.cli import main as cli_main
from hopfsmith.evaluate import shear_semantics
from hopfsmith.fixtures import corrupted_delta, standard_fixtures
from hopfsmith.gray import gray, smash
from hopfsmith.mates import AdjunctionRecord, Square, double_mate
from hopfsmith.reconstruct import round_trip
from hopfsmith.rewriting import EQ_EQUAL, eq
from hopfsmith.shear import mnd_gray, proof_skeleton_check, universal_shear
from hopfsmith.terms import Gen, Id
from hopfsmith.walking import adj, globe, mnd

from test_shear_cells import shear_fixtures

FIXTURES = standard_fixtures()
HOPF_NAMES = ("QZ2", "QS3", "QZ3dual", "sweedler", "superline")
ALL_NAMES = ("QZ2", "QS3", "QZ3dual", "QM", "sweedler", "superline")


class timed:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label}  ({dt:.2f}s, limit {self.limit}s)")
        if exc_type is None and dt > self.limit:
            raise AssertionError(
                f"{self.label} exceeded its time bound: {dt:.2f}s")
        return False


def test_criterion_1_gray_censuses():
    with timed("1 tensor censuses", 1.0):
        assert gray(globe(1), globe(1)).census() == (4, 4, 1)
        assert gray(mnd().base, mnd().base).census() == (1, 2, 5, 4, 4)
        out, _ = smash(mnd(), mnd())
        assert out.census() == (1, 0, 1, 4, 4)


def test_criterion_2_universal_shear_syntax():
    with timed("2 universal shear syntax", 1.0):
        p, term = mnd_gray(), universal_shear()
        source_fixture, target_fixture = shear_fixtures()
        assert eq(p.boundary(term, "source", 2), source_fixture,
                  p) is EQ_EQUAL
        assert eq(p.boundary(term, "target", 2), target_fixture,
                  p) is EQ_EQUAL
        src2 = p.boundary(term, "source", 2)
        tgt2 = p.boundary(term, "target", 2)
        for k in (0, 1):
            for side in ("source", "target"):
                assert eq(p.boundary(src2, side, k),
                          p.boundary(tgt2, side, k), p) is EQ_EQUAL


def test_criterion_3_universal_shear_semantics():
    with timed("3 universal shear semantics on 6 fixtures", 5.0):
        assert len(ALL_NAMES) >= 6
        for name in ALL_NAMES:
            B = FIXTURES[name]
            value, want = shear_semantics(B)
            assert value == want == shear(B, NE), name


def test_criterion_4_shear_equivalences():
    with timed("4 shear direction equivalences", 1.0):
        for name in ALL_NAMES:
            B = FIXTURES[name]
            inv = {d: shear(B, d).is_invertible() for d in (NW, NE, SW, SE)}
            assert inv[NW] == inv[SE], name
            assert inv[NE] == inv[SW], name
        qm = {d: shear(FIXTURES["QM"], d).is_invertible()
              for d in (NW, NE, SW, SE)}
        assert not any(qm.values())


def test_criterion_5_antipodes():
    with timed("5 antipode: shear formula, inversion, integrals", 5.0):
        for name in HOPF_NAMES:
            B = FIXTURES[name]
            hd = antipode(B)  # internally checks both convolution axioms
            I = Matrix.identity(B.field, B.n)
            undo = I.kron(B.m) @ I.kron(hd.S).kron(I) @ B.delta.kron(I)
            assert undo @ shear(B, SE) == Matrix.identity(B.field, B.n ** 2)
            assert shear(B, SE) @ undo == Matrix.identity(B.field, B.n ** 2)
            assert antipode_from_integrals(B) == hd.S, name
            assert convolution_inverse(B) == hd.S, name
        S = antipode(FIXTURES["sweedler"]).S
        I4 = Matrix.identity(FIXTURES["sweedler"].field, 4)
        assert S @ S != I4 and S @ S @ S @ S == I4


def test_criterion_6_integrals():
    with timed("6 integral and cointegral lines", 2.0):
        for name in HOPF_NAMES:
            data = integrals(FIXTURES[name])
            assert len(data.left_integrals) == 1, name
            assert len(data.left_cointegrals) == 1, name
            assert data.pairing is not None and data.pairing != 0, name
        for name in ("QZ2", "QS3"):
            B = FIXTURES[name]
            data = integrals(B)
            lam = data.normalized_integral
            unit_idx = next(k for k in range(B.n) if B.u[k, 0] != 0)
            for k in range(B.n):
                if k == unit_idx:
                    assert lam[0, k] != 0
                else:
                    assert lam[0, k] == 0
            co = data.normalized_cointegral
            first = co[0, 0]
            assert first != 0
            assert all(co[k, 0] == first for k in range(B.n))


def test_criterion_7_mate_involution():
    with timed("7 mate involution and zigzags", 5.0):
        A = adj().base
        rec = AdjunctionRecord(A, Gen("l"), Gen("r"), Gen("eps"), Gen("eta"))
        z = rec.check_zigzags(budget=10_000)
        assert z["snake_r"] is EQ_EQUAL and z["snake_l"] is EQ_EQUAL
        triv_a = AdjunctionRecord.trivial(A, Gen("a"))
        triv_b = AdjunctionRecord.trivial(A, Gen("b"))
        squares = [
            (Square(Gen("l"), Id(Gen("b")), Id(Gen("a")), Gen("l"),
                    Id(Gen("l"))), rec, rec, Id(Gen("l"))),
            (Square(Id(Gen("b")), Id(Gen("b")), Gen("r"), Gen("l"),
                    Gen("eps")), triv_b, rec, Gen("eps")),
            (Square(Gen("l"), Gen("r"), Id(Gen("a")), Id(Gen("a")),
                    Gen("eta")), rec, triv_a, Gen("eta")),
        ]
        for sq, af, ak, alpha in squares:
            out = double_mate(sq, af, ak)
            assert eq(out, alpha, A, budget=10_000) is EQ_EQUAL


def test_criterion_8_proof_skeleton():
    with timed("8 factorization chain in the whiskered square", 10.0):
        rep = proof_skeleton_check()
        assert rep.chain_composable
        assert rep.boundary_match
        assert rep.hexagon_closes
        assert rep.table.get("L", 0) >= 2
        assert rep.table.get("R", 0) >= 2
        assert rep.table.get("4-cell", 0) >= 1
        assert rep.table.get("collapse-trivial", 0) >= 1
        assert not rep.failures


def test_criterion_9_tannakian_round_trip():
    with timed("9 reconstruction round trips", 30.0):
        for name in ("QZ2", "QS3", "sweedler", "QM"):
            rt = round_trip(FIXTURES[name])
            assert rt.verdict == "isomorphism", (name, rt.details)
            assert rt.flags_agree(), name


def test_criterion_10_negative_controls():
    with timed("10 negative controls and exit codes", 10.0):
        bad = corrupted_delta(FIXTURES["QZ2"])
        failing = [r for r in check_bialgebra(bad) if not r.holds]
        assert failing and any(r.witness for r in failing)

        rep = proof_skeleton_check(mutate_step=2)
        assert not rep.chain_composable
        assert any("step" in f for f in rep.failures)

        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["--json", "--no-timing",
                             "shear-check", "QS3"]) == 0
            assert cli_main(["--json", "--no-timing",
                             "shear-check", "QM"]) == 0
            assert cli_main(["bogus-subcommand"]) == 64
        import json as _json
        import tempfile, os
        from hopfsmith.bialgebra import bialgebra_to_json
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.json")
            with open(path, "w") as fh:
                _json.dump(bialgebra_to_json(bad), fh)
            with redirect_stdout(buf):
                assert cli_main(["--json", "--no-timing",
                                 "shear-check", path]) == 1
