"""The benchmark's per-layer tracer wraps functions of the program by
name.  Installing it here makes a deleted or renamed traced function
fail the test suite, not only the benchmark run."""

import importlib.util
from pathlib import Path

from hopfsmith import rewriting, walking
from hopfsmith.terms import Gen

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
