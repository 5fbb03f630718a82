"""Exact counts of scalar operations, with no timing.

The field instance's add, sub, mul and neg are wrapped with counters for
the length of one block.  The shear-and-antipode checks stay at or below
the counts measured when they stopped building Kronecker products by
identities, a rational fixture over an extension never folds, and reading
a fixture's bialgebra JSON over an extension parses each distinct entry
text once per matrix.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from hopfsmith import bialgebra as ba
from hopfsmith.field import QQ, NumberField, number_field_from_text
from hopfsmith.fixtures import (FIXTURE_BUILDERS, exterior_line_super,
                                sweedler_algebra, symmetric_group_algebra)

OPS = ("add", "sub", "mul", "neg")


@contextmanager
def counting(F):
    """Count F's scalar operations inside the block."""
    counts: Counter = Counter()
    for op in OPS:
        def wrapped(*args, _op=getattr(F, op), _name=op):
            counts[_name] += 1
            return _op(*args)
        setattr(F, op, wrapped)
    try:
        yield counts
    finally:
        for op in OPS:
            delattr(F, op)


EXT = number_field_from_text("x^2+x+1")


def checks_and_shears(B):
    ba.check_bialgebra(B)
    for which in (ba.SE, ba.NE, ba.NW, ba.SW):
        ba.shear(B, which)
    ba.antipode(B)


# Measured with tensor-slot whiskering and braiding by relabelling.  The
# Kronecker products by identities they replace took these checks to 9567
# multiplications on QS3 over Q, 2301 on sweedler over Q[x]/(x^2+x+1), and
# 368 on the odd line (superline), whose Koszul signs are the only
# braiding that negates.
BUDGETS = [
    ("QS3", QQ, lambda F: symmetric_group_algebra(3, F), {"mul": 2745}),
    ("sweedler", EXT, sweedler_algebra,
     {"mul": 705, "add": 12, "sub": 12, "neg": 4}),
    ("superline", EXT, exterior_line_super,
     {"mul": 153, "add": 4, "sub": 3, "neg": 5}),
]


@pytest.mark.parametrize("name,F,build,budget", BUDGETS,
                         ids=[b[0] for b in BUDGETS])
def test_checks_stay_within_scalar_budget(name, F, build, budget):
    B = build(F)
    with counting(F) as counts:
        checks_and_shears(B)
    over = {op: n for op, n in counts.items() if n > budget.get(op, 0)}
    assert not over, f"{name}: {dict(counts)} exceeds {budget}"


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_rational_fixture_over_an_extension_never_folds(name):
    # every structure constant is rational, so over Q[x]/(x^2+x+1) no
    # product of two elements, and so no polynomial fold, is ever needed
    F = number_field_from_text("x^2+x+1")
    B, w = FIXTURE_BUILDERS[name](F), F.gen
    folds = Counter()
    fold = F._make

    def counted(cs):
        folds["fold"] += 1
        return fold(cs)

    F._make = counted
    try:
        assert F.mul(w, w) != 0 and folds["fold"] == 1
        folds.clear()
        reports = ba.check_bialgebra(B)
    finally:
        del F._make
    assert folds == {} and reports and all(r.holds for r in reports)


MATRICES = ("m", "u", "delta", "epsilon")


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_json_read_parses_each_entry_text_once_per_matrix(name, monkeypatch):
    # the reader builds its own field from the document, so the class's
    # parse is counted; the six fixtures' 700 entries hold three texts
    doc = ba.bialgebra_to_json(FIXTURE_BUILDERS[name](EXT))
    parsed = Counter()
    parse = NumberField.parse

    def counted(self, text):
        parsed[text] += 1
        return parse(self, text)

    monkeypatch.setattr(NumberField, "parse", counted)
    B = ba.bialgebra_from_json(doc)
    texts = [{x for row in doc[key] for x in row} for key in MATRICES]
    assert sum(parsed.values()) <= sum(map(len, texts))
    assert set(parsed) == set().union(*texts)
    assert B == FIXTURE_BUILDERS[name](B.field)
