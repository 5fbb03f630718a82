"""The wire/bead rule of `gray._pair_boundaries` against the explicit case
table it replaced.

The table below, kept as reference code, gave the boundaries of the
dimension pairs (1,1), (1,2), (2,1), (1,3) and (3,1) one case at a time.
The pinned hashes of `test_presentation_layer_outputs` cover only the
built-in presentations, whose generator boundaries are all generators.
Here the factors have composite boundaries: the walking retract
(vertical stacks and identities), a presentation whose 3-generators have a
horizontal composite and an identity as boundaries, and the suspensions of
the walking monad and adjunction (their relations and 2-cells become
3-cells between composites).  Every tensor of one of them with a small
built-in, in both orders and within dimension 4, must serialize
byte-identically under the rule and under the table.
"""

import pytest

from hopfsmith import gray as gray_module
from hopfsmith.cli import BUILTIN_PRESENTATIONS
from hopfsmith.gray import _ends, gray
from hopfsmith.mates import walking_retract
from hopfsmith.terms import Comp, Gen, Id, TermError, comp
from hopfsmith.walking import adj, mnd, suspend

from test_gray import _composite_boundaries


def reference_pair_boundaries(tt, g, h):
    """The case table of dimension pairs, as `gray` had it."""
    dg, dh = g.dim, h.dim
    gx, hy = Gen(g.name), Gen(h.name)
    if dg == 0:
        return tt.ten_r(g.name, h.src), tt.ten_r(g.name, h.tgt)
    if dh == 0:
        return tt.ten_l(g.src, h.name), tt.ten_l(g.tgt, h.name)
    if (dg, dh) == (1, 1):
        A0, A1 = _ends(tt.L, gx)
        p, q = _ends(tt.R, hy)
        src = comp(0, tt.ten_r(A0, hy), tt.ten_l(gx, q))
        tgt = comp(0, tt.ten_l(gx, p), tt.ten_r(A1, hy))
        return src, tgt
    if (dg, dh) == (1, 2):
        a = gx
        b, b2 = h.src, h.tgt
        p, q = _ends(tt.R, b)
        A0, A1 = _ends(tt.L, a)
        src = Comp(1, Comp(0, tt.ten_r(A0, hy), Id(tt.ten_l(a, q))),
                   tt.tensor(a, 1, b2, 1))
        tgt = Comp(1, tt.tensor(a, 1, b, 1),
                   Comp(0, Id(tt.ten_l(a, p)), tt.ten_r(A1, hy)))
        return src, tgt
    if (dg, dh) == (2, 1):
        b = hy
        a, a2 = g.src, g.tgt
        p, q = _ends(tt.R, b)
        A0, A1 = _ends(tt.L, a)
        src = Comp(1, tt.tensor(a, 1, b, 1),
                   Comp(0, tt.ten_l(gx, p), Id(tt.ten_r(A1, b))))
        tgt = Comp(1, Comp(0, Id(tt.ten_r(A0, b)), tt.ten_l(gx, q)),
                   tt.tensor(a2, 1, b, 1))
        return src, tgt
    if (dg, dh) == (2, 2):
        return tt.fill22_boundaries(gx, hy)
    if (dg, dh) == (1, 3):
        beta, beta2 = h.src, h.tgt
        b = tt.R.src(beta)
        b2 = tt.R.tgt(beta)
        p, q = _ends(tt.R, b)
        A0, A1 = _ends(tt.L, gx)
        w_src = Comp(1, Comp(0, tt.ten_r(A0, hy), Id(Id(tt.ten_l(gx, q)))),
                     Id(tt.tensor(gx, 1, b2, 1)))
        src = Comp(2, w_src, tt.tensor(gx, 1, beta2, 2))
        w_tgt = Comp(1, Id(tt.tensor(gx, 1, b, 1)),
                     Comp(0, Id(Id(tt.ten_l(gx, p))), tt.ten_r(A1, hy)))
        tgt = Comp(2, tt.tensor(gx, 1, beta, 2), w_tgt)
        return src, tgt
    if (dg, dh) == (3, 1):
        alpha, alpha2 = g.src, g.tgt
        a = tt.L.src(alpha)
        a2 = tt.L.tgt(alpha)
        p, q = _ends(tt.R, hy)
        A0, A1 = _ends(tt.L, a)
        w_src = Comp(1, Comp(0, Id(Id(tt.ten_r(A0, hy))), tt.ten_l(gx, q)),
                     Id(tt.tensor(a2, 1, hy, 1)))
        src = Comp(2, tt.tensor(alpha, 2, hy, 1), w_src)
        w_tgt = Comp(1, Id(tt.tensor(a, 1, hy, 1)),
                     Comp(0, tt.ten_l(gx, p), Id(Id(tt.ten_r(A1, hy)))))
        tgt = Comp(2, w_tgt, tt.tensor(alpha2, 2, hy, 1))
        return src, tgt
    raise TermError(f"no boundary rule for dimension pair ({dg},{dh})")


FACTORS = {
    "retract": lambda: walking_retract().presentation,
    "composite boundaries": _composite_boundaries,
    "suspended mnd": lambda: suspend(mnd().base),
    "suspended adj": lambda: suspend(adj().base),
}
PARTNERS = ("point", "globe1", "bglobe2", "bglobe3", "mnd", "adj")


def _top(p):
    return max(g.dim for g in p.gens.values())


def _cases():
    """(factor, partner, swap) for every tensor within dimension 4."""
    out = []
    for name, build in FACTORS.items():
        for partner in PARTNERS:
            if _top(build()) + _top(BUILTIN_PRESENTATIONS[partner]()) <= 4:
                out += [(name, partner, False), (name, partner, True)]
    return out


def test_every_factor_has_a_case_with_a_wire():
    """The factors reach dimension 3, so globe1 and bglobe2 (whose top
    generators are wires) pair with each factor in both orders."""
    cases = _cases()
    for name in FACTORS:
        for partner in ("globe1", "bglobe2"):
            for swap in (False, True):
                assert (name, partner, swap) in cases
    assert len(cases) == 24


@pytest.mark.parametrize("name, partner, swap", _cases())
def test_rule_matches_the_case_table(monkeypatch, name, partner, swap):
    left = FACTORS[name]()
    right = BUILTIN_PRESENTATIONS[partner]()
    if swap:
        left, right = right, left
    rule = gray(left, right).dumps()
    monkeypatch.setattr(gray_module, "_pair_boundaries",
                        reference_pair_boundaries)
    assert rule == gray(left, right).dumps()
