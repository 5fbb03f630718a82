"""The benchmark's per-layer tracer wraps functions of the program by
name.  Installing it here makes a deleted or renamed traced function
fail the test suite, not only the benchmark run."""

import importlib.util
from pathlib import Path

from hopfsmith import interchange, rewriting, walking
from hopfsmith.terms import Gen, Id, comp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_against_the_program():
    tracing = load_tracing()
    eq = rewriting.eq
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rewriting.eq is not eq
        p = walking.mnd().base
        assert rewriting.eq(Gen("m"), Gen("m"), p) is rewriting.EQ_EQUAL
        assert tracer.calls["rewriting.eq"] == 1
        assert tracer.calls["walking.build"] == 1
    finally:
        tracer.uninstall()
    assert rewriting.eq is eq
    assert not tracer.installed


def test_tracer_counts_the_kernel_inside_a_search():
    """rewriting.canonical_stack is interchange.canonical, so the tracer's
    span sees every canonicalization: two before the search starts, and
    those of successors.  A snake in adj and the identity it removes
    have different canonical forms: only a search, applying the snake
    rule, finds them equal."""
    p = walking.adj().base
    l = Gen("l")
    snake = comp(1, comp(0, Gen("eta"), Id(l)), comp(0, Id(l), Gen("eps")))
    canonical = interchange.canonical
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert rewriting.eq(snake, Id(l), p) is rewriting.EQ_EQUAL
    finally:
        tracer.uninstall()
    assert interchange.canonical is canonical
    assert tracer.calls["rewriting.canonical_stack"] > 2


def test_tracer_counts_the_stacks_of_a_search():
    """The 2-cell search builds its states through rewriting.stack_of, the
    name the tracer wraps: two stacks for a pair that canonical forms
    alone show Equal."""
    p = walking.mnd().base
    u, A, pt = Gen("u"), Gen("A"), Gen("pt")
    a = comp(0, u, u)
    b = comp(1, comp(0, u, Id(Id(pt))), comp(0, Id(A), u))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert rewriting.eq(a, b, p) is rewriting.EQ_EQUAL
    finally:
        tracer.uninstall()
    assert tracer.calls["rewriting.stack_of"] == 2
