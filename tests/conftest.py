"""Hypothesis settings for the whole suite: the same examples on every run
(derandomized, with no example database on disk), and no per-example
deadline, which a slow or busy machine would turn into spurious failures."""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("suite")
