"""The term value types: Gen, Id, Comp, Inv and Generator.

Each is frozen (every write or delete raises AttributeError), survives
pickle and copy, is equal to another value exactly when both print the
same, hashes alike when equal, and hashes the same in every process under
one PYTHONHASHSEED.  The reprs are pinned to the text the earlier
dataclass versions printed.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hopfsmith
from hopfsmith.terms import (Comp, Gen, Generator, Id, Inv, parse_term,
                             print_term)
from test_terms_reference import PRESENTATIONS, cells, subterms, well_formed

FIELDS = {Gen: ("name",), Id: ("inner",), Comp: ("k", "left", "right"),
          Inv: ("inner",),
          Generator: ("name", "dim", "src", "tgt", "invertible")}
GENERATORS = [g for name in sorted(PRESENTATIONS)
              for g in PRESENTATIONS[name].gens.values()]


def values(t):
    """Every node of t, then the generators of every presentation."""
    return list(subterms(t)) + GENERATORS


def assert_frozen(v):
    before = repr(v)
    for name in FIELDS[type(v)] + ("other",):
        with pytest.raises(AttributeError):
            setattr(v, name, Gen("x"))
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert repr(v) == before


@settings(max_examples=50)
@given(well_formed())
def test_no_field_can_be_set_or_deleted(case):
    for v in values(case[1]):
        assert_frozen(v)


@settings(max_examples=50)
@given(well_formed())
def test_copies_and_pickles_are_equal_and_hash_alike(case):
    for v in values(case[1]):
        for other in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                      copy.deepcopy(v)):
            assert type(other) is type(v)
            assert other == v and not other != v
            assert hash(other) == hash(v)
            assert_frozen(other)


@st.composite
def pairs(draw):
    """Two terms over one presentation: the same term, a separately built
    copy of it, or another term of the same dimension."""
    p, a = draw(well_formed())
    kind = draw(st.sampled_from(["same", "copy", "other"]))
    if kind == "same":
        return a, a
    if kind == "copy":
        return a, parse_term(print_term(a))
    return a, draw(cells(p, p.dim(a)))


@settings(max_examples=200)
@given(pairs())
def test_equal_exactly_when_printed_alike(pair):
    for a in subterms(pair[0]):
        for b in subterms(pair[1]):
            same = print_term(a) == print_term(b)
            assert (a == b) is same and (a != b) is not same
            if same:
                assert hash(a) == hash(b)


def test_values_of_different_kinds_differ():
    x = Gen("a")
    assert Id(x) != Inv(x) and Inv(x) != Id(x)
    assert hash(Id(x)) != hash(Inv(x))
    assert Gen("a") != ("a",) and ("a",) != Gen("a")
    assert Gen("a") != "a" and Comp(0, x, x) != (0, x, x)
    assert Generator("a", 0, None, None) != Gen("a")
    assert Generator("a", 0, None, None) == Generator("a", 0, None, None,
                                                      False)
    assert Generator("f", 1, x, x) != Generator("f", 1, x, x, True)


def test_reprs_are_the_dataclass_text():
    t = Comp(1, Id(Gen("a")), Inv(Comp(0, Gen("f"), Gen("g"))))
    assert repr(t) == ("Comp(1, Id(Gen('a')), "
                       "Inv(Comp(0, Gen('f'), Gen('g'))))")
    assert repr(Generator("f", 1, Gen("x"), Gen("y"))) == (
        "Generator(name='f', dim=1, src=Gen('x'), tgt=Gen('y'), "
        "invertible=False)")
    assert repr(Generator("pt", 0, None, None, True)) == (
        "Generator(name='pt', dim=0, src=None, tgt=None, invertible=True)")


HASH_SCRIPT = """
from hopfsmith.terms import Comp, Gen, Generator, Id, Inv
t = Comp(1, Id(Comp(0, Gen("f"), Gen("g"))), Inv(Gen("alpha")))
print(hash(t), hash(Generator("alpha", 2, t, t, True)))
"""


def test_hashes_repeat_across_processes():
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(hopfsmith.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-c", HASH_SCRIPT], env=env,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1] and runs[0].strip()
