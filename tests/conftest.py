"""Hypothesis settings for the whole suite: the same examples on every run
(derandomized, with no example database on disk), and no per-example
deadline, which a slow or busy machine would turn into spurious failures.
Also one presentation shared by the budget tests."""

import pytest
from hypothesis import settings

from hopfsmith.presentation import Presentation

settings.register_profile("suite", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("suite")


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
