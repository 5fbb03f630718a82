"""Hypothesis settings for the whole suite: the same examples on every run
(derandomized, with no example database on disk), and no per-example
deadline, which a slow or busy machine would turn into spurious failures.
Also one presentation shared by the budget tests, the queries of the
hopf-square check shared by the kernel tests, `whiskered`, the slot
map I_left (x) A (x) I_right built with kron, which the matrix and
linear-system tests use as a reference, and `bench_diagrams`, the
diagrams benchmark's pair generator, which the kernel, interchange and
evaluation tests draw from."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

from hopfsmith import mates
from hopfsmith.matrix import Matrix
from hopfsmith.presentation import Presentation

settings.register_profile("suite", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("suite")


def whiskered(F, left, A, right):
    """I_left (x) A (x) I_right, materialized with kron."""
    return Matrix.identity(F, left).kron(A).kron(Matrix.identity(F, right))


def bench_diagrams():
    """perfbench/diagrams.py, the diagrams benchmark's pair generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "diagrams.py"
    spec = importlib.util.spec_from_file_location("_bench_diagrams", path)
    diagrams = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = diagrams
    spec.loader.exec_module(diagrams)
    return diagrams


@pytest.fixture
def undecidable_at_budget_0():
    """t: a => b with a: f => k, b: g => k and the oriented rule f -> g:
    the sources f and g of a and b are equal only through a search, so
    parallel(a, b) is Unknown at budget 0 and Equal at the default."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f, g, k = (p.add(n, 1, x, x) for n in "fgk")
    p.add("t", 3, p.add("a", 2, f, k), p.add("b", 2, g, k))
    p.relate(1, f, g, oriented=True)
    return p


@pytest.fixture(scope="session")
def hopf_square_queries():
    """The JSON of walking_retract()'s presentation and the (left, right)
    pair of every eq query that hopf_square_terms makes over it."""
    rec = mates.walking_retract()
    queries = []
    eq = mates.eq

    def recorded(a, b, p, budget=None):
        queries.append((a, b))
        return eq(a, b, p, budget)

    with mock.patch.object(mates, "eq", recorded):
        mates.hopf_square_terms(rec)
    return rec.presentation.dumps(), queries
