"""The serialized form and the validation verdicts of the presentation
layer are pinned over 770 presentations: the 14 built-ins, the 147
ordered pairs of built-ins whose lax tensor stays within dimension 4, and
the 609 smash products of those pairs at every choice of 0-cell
basepoints.  A refactoring of `gray`, `smash` or `validate_presentation`
must leave both hashes as they are."""

import hashlib

import pytest

from hopfsmith.cli import BUILTIN_PRESENTATIONS
from hopfsmith.gray import gray, smash
from hopfsmith.presentation import validate_presentation
from hopfsmith.terms import TermError
from hopfsmith.walking import PointedPresentation

DUMPS_SHA256 = (
    "8ca2acb6d20f380f3abd1b6b6c71d17c61072f8f2f825e6fa7d87a3d7d83ac74")
VIOLATIONS_SHA256 = (
    "e06b5530072589880e1fd48fa442a956516c93a5aca96bb1a47135d5463e068c")


def _presentations():
    """(label, presentation) for all 770, in a fixed order."""
    builtins = [(name, build()) for name, build in
                sorted(BUILTIN_PRESENTATIONS.items())]
    out = list(builtins)
    for pn, P in builtins:
        for qn, Q in builtins:
            try:
                out.append((f"gray {pn} {qn}", gray(P, Q)))
            except TermError:
                continue
            for x in P.gens_of_dim(0):
                for y in Q.gens_of_dim(0):
                    out.append((f"smash {pn} {x.name} {qn} {y.name}",
                                smash(PointedPresentation(P, x.name),
                                      PointedPresentation(Q, y.name))[0]))
    return out


@pytest.fixture(scope="module")
def layer_outputs():
    dumps = hashlib.sha256()
    violations = hashlib.sha256()
    labels = []
    for label, p in _presentations():
        labels.append(label)
        dumps.update(f"{label}\n{p.dumps()}\n".encode())
        for v in validate_presentation(p):
            violations.update(f"{label}\t{v.where}\t{v.issue}\n".encode())
    return labels, dumps.hexdigest(), violations.hexdigest()


def test_census_of_the_pinned_presentations(layer_outputs):
    labels = layer_outputs[0]
    assert len(labels) == 770
    assert sum(l.startswith("gray ") for l in labels) == 147
    assert sum(l.startswith("smash ") for l in labels) == 609


def test_dumps_are_pinned(layer_outputs):
    assert layer_outputs[1] == DUMPS_SHA256


def test_violation_lists_are_pinned(layer_outputs):
    assert layer_outputs[2] == VIOLATIONS_SHA256
