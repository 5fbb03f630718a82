"""Differential oracle for the term syntax: parse_term and print_term.

The reference functions below are the earlier recursive reader and
printer.  The reader copied the rest of the token list at every token
and both recursed once per node, so they were quadratic and bounded by
the recursion limit, but they follow the grammar directly.  The
program's one-scan reader must give the same term, or a TermError with
the same message, on every token string; where the reference failed
with an IndexError (a text that ends right after an opening parenthesis
or a `gen`), it raises TermError("unexpected end of term").  The
program's printer must write what the reference writes.  Both must
handle terms far deeper than the recursion limit, and a left comb read
back must equal the one printed.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from hopfsmith.presentation import Presentation
from hopfsmith.terms import (Comp, Gen, Id, Inv, TermError, comp,
                             parse_term, print_term)
from test_terms_reference import trees, well_formed


# ---------------------------------------------------------------------------
# reference code


def ref_parse_term(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    term, rest = ref_parse_tokens(tokens)
    if rest:
        raise TermError(f"trailing tokens {rest!r} in term {text!r}")
    return term


def ref_parse_tokens(tokens):
    if not tokens:
        raise TermError("unexpected end of term")
    tok = tokens[0]
    if tok != "(":
        raise TermError(f"expected '(' but found {tok!r}")
    head, rest = tokens[1], tokens[2:]
    if head == "gen":
        name, rest = rest[0], rest[1:]
        out = Gen(name)
    elif head == "id":
        inner, rest = ref_parse_tokens(rest)
        out = Id(inner)
    elif head == "inv":
        inner, rest = ref_parse_tokens(rest)
        out = Inv(inner)
    elif head.startswith("comp") and head[4:].isdigit():
        k = int(head[4:])
        if k > 3:
            raise TermError(f"composition level {k} exceeds the dimension cap")
        left, rest = ref_parse_tokens(rest)
        right, rest = ref_parse_tokens(rest)
        out = Comp(k, left, right)
    else:
        raise TermError(f"unknown term head {head!r}")
    if not rest or rest[0] != ")":
        raise TermError(f"missing ')' after {head}")
    return out, rest[1:]


def ref_print_term(t):
    if isinstance(t, Gen):
        return f"(gen {t.name})"
    if isinstance(t, Id):
        return f"(id {ref_print_term(t.inner)})"
    if isinstance(t, Inv):
        return f"(inv {ref_print_term(t.inner)})"
    return f"(comp{t.k} {ref_print_term(t.left)} {ref_print_term(t.right)})"


def read(f, text):
    """The term f reads from text, or the message of its TermError."""
    try:
        return f(text)
    except TermError as e:
        return ("raises", str(e))


def assert_reads_as_reference(text):
    try:
        want = read(ref_parse_term, text)
    except IndexError:
        want = ("raises", "unexpected end of term")
    assert read(parse_term, text) == want


# ---------------------------------------------------------------------------
# drawn terms and token strings

HEADS = ["gen", "id", "inv", "comp0", "comp1", "comp2", "comp3"]
VOCABULARY = HEADS + ["(", ")", "(", ")", "A", "m", "comp4", "comp12",
                      "comp", "compx", "comp03", "frob"]

any_terms = st.one_of(well_formed(), trees).map(lambda case: case[1])


def _tokens(t):
    return ref_print_term(t).replace("(", " ( ").replace(")", " ) ").split()


@st.composite
def damaged(draw):
    """The tokens of a printed term with one defect: cut short, a token
    appended, a head unknown or above the level cap, or a ')' dropped."""
    tokens = _tokens(draw(any_terms))
    kind = draw(st.sampled_from(["cut", "trailing", "head", "level",
                                 "unclosed"]))
    if kind == "cut":
        tokens = tokens[:draw(st.integers(0, len(tokens) - 1))]
    elif kind == "trailing":
        tokens.append(draw(st.sampled_from(VOCABULARY)))
    else:
        wanted = "(" if kind in ("head", "level") else ")"
        spots = [i for i, tok in enumerate(tokens) if tok == wanted]
        i = draw(st.sampled_from(spots))
        if kind == "unclosed":
            del tokens[i]
        else:
            tokens[i + 1] = draw(st.sampled_from(
                ["frob", "comp", "compx", "Gen"] if kind == "head"
                else ["comp4", "comp5", "comp9", "comp10", "comp12",
                      "comp0004", "comp99"]))
    return " ".join(tokens)


@settings(max_examples=300)
@given(any_terms)
def test_print_and_parse_agree_with_the_reference(t):
    text = print_term(t)
    assert text == ref_print_term(t)
    assert_reads_as_reference(text)


@settings(max_examples=150)
@given(well_formed())
def test_parse_inverts_print(case):
    t = case[1]
    assert parse_term(print_term(t)) == t


@settings(max_examples=300)
@given(damaged())
def test_damaged_terms_fail_as_the_reference_fails(text):
    assert_reads_as_reference(text)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(VOCABULARY), max_size=12).map(" ".join))
def test_token_strings_read_as_the_reference_reads(text):
    assert_reads_as_reference(text)


@pytest.mark.parametrize("text", [
    "", "(", "(gen", "(id", "(comp0 (gen A)", "(comp0 (gen A) (gen A)",
    "(gen A) (gen B)", "(gen A))", "(gen A B)", "gen A", "(comp4 x",
    "(comp0 (gen A) (gen A) (gen A))", "(frob)", "(comp)"])
def test_each_malformed_text_is_a_term_error(text):
    with pytest.raises(TermError):
        parse_term(text)
    assert_reads_as_reference(text)


# ---------------------------------------------------------------------------
# terms deeper than the recursion limit

N = 10_000


def _left_comb():
    t = comp(0, *[Gen("f")] * N)
    text = "(comp0 " * (N - 1) + "(gen f)" + " (gen f))" * (N - 1)
    return t, text


def _right_comb():
    t = Gen("f")
    for _ in range(N - 1):
        t = Comp(0, Gen("f"), t)
    return t, "(comp0 (gen f) " * (N - 1) + "(gen f)" + ")" * (N - 1)


def _tower():
    t, heads = Gen("x"), []
    for i in range(N):
        t = Id(t) if i % 2 else Inv(t)
        heads.append("id" if i % 2 else "inv")
    return t, "".join(f"({h} " for h in reversed(heads)) + "(gen x)" + ")" * N


DEEP = {"left comb": _left_comb, "right comb": _right_comb,
        "id/inv tower": _tower}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_terms_print_and_parse(name):
    assert N > sys.getrecursionlimit()
    t, text = DEEP[name]()
    assert print_term(t) == text
    assert print_term(parse_term(text)) == text


def test_a_left_comb_read_back_equals_the_printed_one():
    """Equality walks the left spine in a loop, so a word read back
    compares with the one printed at any length; a different first
    letter is found at the bottom of the spine."""
    t, text = _left_comb()
    assert parse_term(text) == t
    assert parse_term(text.replace("(gen f)", "(gen g)", 1)) != t


def test_deep_boundaries_round_trip_through_the_pinned_json():
    left, right = _left_comb()[0], _right_comb()[0]
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    p.add("a", 2, left, right)
    p.add("b", 2, _tower()[0], f)
    p.relate(2, left, right, oriented=True)
    text = p.dumps()
    assert Presentation.loads(text).dumps() == text
