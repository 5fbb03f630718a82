import copy
import json

import pytest
from hypothesis import example, given, strategies as st

from hopfsmith.gray import gray
from hopfsmith.presentation import (Presentation, Violation,
                                    validate_presentation, validate_term)
from hopfsmith.rewriting import EQ_DISTINCT, EQ_EQUAL, eq
from hopfsmith.terms import (SOURCE, Comp, Gen, Id, Inv, TermError, comp,
                             print_term)
from hopfsmith.walking import adj, e_oriental2, globe, mnd, oriental2


def test_shipped_presentations_are_valid():
    for p in (mnd().base, adj().base, oriental2(), e_oriental2()):
        assert validate_presentation(p) == []


def test_duplicate_generator_rejected():
    p = Presentation(max_dim=1)
    p.add("x", 0)
    with pytest.raises(Exception):
        p.add("x", 0)


# names from the characters that matter to the term syntax (whitespace,
# parentheses, the tensor sign) and to JSON
SOME_NAMES = st.text(st.sampled_from('ab⊗ ()\t\n\x1f\x85\xa0"\\é'),
                     max_size=5)


@given(SOME_NAMES)
@example("a b")
@example("")
def test_every_name_add_accepts_round_trips(name):
    p = Presentation(max_dim=1)
    try:
        x = p.add(name, 0)
    except TermError as e:
        assert repr(name) in str(e)
        assert not name or any(c.isspace() or c in "()" for c in name)
        return
    p.add(name + "f", 1, x, x)
    assert Presentation.loads(p.dumps()) == p
    tensor = gray(p, globe(1))
    assert Presentation.loads(tensor.dumps()) == tensor


def test_a_shallow_copy_owns_its_tables():
    """A copy that grows leaves the original as it was, and each reads
    the faces of its own generators."""
    p = Presentation(max_dim=1)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    q = copy.copy(p)
    q.add("y", 0)
    q.relate(1, f, f)
    assert list(p.gens) == ["x", "f"] and p.relations == []
    q.add("g", 1, x, x)
    assert q.normal_face("g", SOURCE) == x
    z = p.add("z", 0)
    p.add("g", 1, z, z)
    assert p.normal_face("g", SOURCE) == z


def test_derived_tables_are_not_constructor_arguments():
    """A presentation is built from max_dim, gens and relations alone; its
    word, face and kernel tables are derived, so no stale table can be
    passed in."""
    with pytest.raises(TypeError):
        Presentation(2, {}, [], {"a": ("stale",)})
    with pytest.raises(TypeError):
        Presentation(2, _words={"a": ("stale",)})


def test_wrong_dimension_src_flagged():
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    p.add("bad", 2, x, f)  # src is 0-dimensional
    issues = validate_presentation(p)
    assert any(v.where == "bad" and "dimension" in v.issue for v in issues)


def test_nonparallel_relation_flagged():
    p = Presentation(max_dim=1)
    x = p.add("x", 0)
    y = p.add("y", 0)
    f = p.add("f", 1, x, y)
    g = p.add("g", 1, y, x)
    p.relate(1, f, g)
    issues = validate_presentation(p)
    assert any("parallel" in v.issue for v in issues)


def test_mutating_valid_presentation_gives_one_violation():
    # relation whose sides have different 0-boundaries
    p = mnd().base
    q = Presentation.loads(p.dumps())
    q.add("x", 0)
    q.relate(1, Gen("A"), comp(0, Gen("A"), Gen("A")))  # fine
    q.relations[-1] = type(q.relations[-1])(1, Gen("A"), Gen("x"))
    issues = validate_presentation(q)
    assert len(issues) >= 1


def test_json_roundtrip_bit_exact():
    for p in (mnd().base, adj().base, oriental2()):
        text = p.dumps()
        again = Presentation.loads(text)
        assert again.dumps() == text
        assert again.census() == p.census()
        assert len(again.relations) == len(p.relations)


# names with quotes, backslashes, control characters and non-ASCII text,
# one character outside the basic plane (escaped as a surrogate pair);
# none empty or holding whitespace, which add refuses
NAMES = st.text(st.sampled_from('ab"\\/\b\x00\x1b\x7fé€😀'), min_size=1,
                max_size=6)


@st.composite
def presentations(draw):
    """Points, arrows between them and 2-cells between composites of
    arrows, with relations between arrows and between 2-cells."""
    p = Presentation(max_dim=draw(st.integers(1, 4)))
    names = draw(st.lists(NAMES, unique=True, max_size=10))
    points = names[:draw(st.integers(0, len(names)))]
    for name in points:
        p.add(name, 0)
    arrows, cells = [], []
    for name in names[len(points):]:
        if not points:
            break
        if arrows and p.max_dim >= 2 and draw(st.booleans()):
            # a 2-cell whose boundaries are composites, identities among
            # them; the data need not be valid to be written
            ends = [comp(0, *draw(st.lists(st.sampled_from(
                arrows + [Id(Gen(x)) for x in points]), min_size=1,
                max_size=3))) for _ in range(2)]
            cells.append(p.add(name, 2, *ends))
            continue
        ends = [Gen(draw(st.sampled_from(points))) for _ in range(2)]
        arrows.append(p.add(name, 1, *ends, invertible=draw(st.booleans())))
    for level, parts in ((1, arrows), (2, cells)):
        for _ in range(draw(st.integers(0, 3)) if parts else 0):
            lhs = comp(level - 1, *draw(st.lists(st.sampled_from(parts),
                                                 min_size=1, max_size=2)))
            rhs = Inv(draw(st.sampled_from(parts)))
            p.relate(level, lhs, rhs, oriented=draw(st.booleans()))
    return p


def to_json(p: Presentation) -> dict:
    """The pinned JSON record of p, built field by field."""
    return {
        "maxDim": p.max_dim,
        "generators": [
            {"name": g.name, "dim": g.dim,
             "src": print_term(g.src) if g.src is not None else None,
             "tgt": print_term(g.tgt) if g.tgt is not None else None,
             "invertible": g.invertible}
            for g in p.gens.values()],
        "relations": [
            {"dim": r.dim, "lhs": print_term(r.lhs),
             "rhs": print_term(r.rhs), "oriented": r.oriented}
            for r in p.relations],
    }


@example(Presentation(max_dim=0))
@given(presentations())
def test_dumps_writes_what_json_writes(p):
    assert p.dumps() == json.dumps(to_json(p), indent=1, sort_keys=True)


def test_a_side_of_the_wrong_dimension_names_what_it_mentions():
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    a = p.add("a", 2, f, f)
    t = p.add("t", 3, a, a)
    p.add("bad", 2, comp(1, a, Id(f)), Id(t))
    assert validate_presentation(p) == [
        Violation("bad", "src has dimension 2, expected 1"),
        Violation("bad", "src mentions 'a' of dimension >= 2"),
        Violation("bad", "tgt has dimension 4, expected 1"),
        Violation("bad", "tgt mentions 't' of dimension >= 2")]


def test_census():
    assert mnd().base.census() == (1, 1, 2)
    assert adj().base.census() == (2, 2, 2)
    assert oriental2().census() == (3, 3, 1)
    assert e_oriental2().census() == (5, 5, 1)


def test_parallelism_is_checked_after_an_earlier_violation():
    p = Presentation(max_dim=2)
    x = p.add("x", 0)
    y = p.add("y", 0)
    p.add("bad", 2, x, x)  # 0-dimensional boundaries
    f = p.add("f", 1, x, y)
    g = p.add("g", 1, y, x)
    p.add("np", 2, f, g)
    issues = validate_presentation(p)
    assert [v.where for v in issues] == ["bad", "bad", "np"]
    assert issues[-1].issue == "src/tgt not parallel at level 0"


def test_boundaries_differing_only_at_level_0_are_flagged():
    # the 1-boundaries Id(x) and Id(y) have the same empty word
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    y = p.add("y", 0)
    a = p.add("a", 2, Id(x), Id(x))
    b = p.add("b", 2, Id(y), Id(y))
    p.add("t", 3, a, b)
    assert validate_presentation(p) == [
        Violation("t", "src/tgt not parallel at level 0")]


def test_a_boundary_that_runs_the_budget_out_hides_no_violation():
    # f -> f e -> f e e ... grows without end, so f against f2 is Unknown
    # at any budget; the targets k and k2 still differ, one and two
    # levels down
    p = Presentation(max_dim=4)
    x, y = p.add("x", 0), p.add("y", 0)
    f, f2, k, k2 = (p.add(n, 1, x, y) for n in ("f", "f2", "k", "k2"))
    p.relate(1, f, comp(0, f, p.add("e", 1, y, y)), oriented=True)
    a = p.add("a", 2, f, k)
    b = p.add("b", 2, f2, k2)
    p.add("t", 3, a, b)
    p.add("u", 4, p.add("aa", 3, a, a), p.add("bb", 3, b, b))
    assert validate_presentation(p) == [
        Violation("t", "src/tgt not parallel at level 1"),
        Violation("u", "src/tgt not parallel at level 1")]


def test_a_check_eq_cannot_decide_is_an_undecided_violation(
        undecidable_at_budget_0):
    p = undecidable_at_budget_0
    # the same with a relation composing c: k => f with d: g => k, which
    # meets at f against g
    q = Presentation.loads(p.dumps())
    c = q.add("c", 2, Gen("k"), Gen("f"))
    d = q.add("d", 2, Gen("g"), Gen("k"))
    q.relate(2, comp(1, c, d), Id(Gen("k")))
    assert validate_presentation(p) == []
    assert validate_presentation(p, budget=0) == [
        Violation("t", "src/tgt parallel undecided", undecided=True)]
    assert validate_presentation(q) == []
    assert validate_presentation(q, budget=0)[1:] == [
        Violation("relation#1", "lhs: composition undecided at level 1: "
                  "(gen f) vs (gen g)", undecided=True)]


def test_an_illegal_inverse_in_a_shared_top_boundary_is_undecided():
    """a and b have one source and one target, Inv(f) with f not
    invertible, so t's source and target agree at every level as terms,
    yet eq answers Unknown on a term holding such an inverse: the
    certificate must not call the shared boundary Equal."""
    p = Presentation(max_dim=3)
    x = p.add("x", 0)
    f = p.add("f", 1, x, x)
    a = p.add("a", 2, Inv(f), Inv(f))
    b = p.add("b", 2, Inv(f), Inv(f))
    p.add("t", 3, a, b)
    assert validate_presentation(p) == [
        Violation("t", "src/tgt parallel undecided", True)]


def test_a_boundary_that_cannot_be_taken_is_a_violation():
    p = Presentation(max_dim=2)
    p.add("x", 0)
    h = p.add("h", 1)  # no boundary
    p.add("a", 2, h, h)
    issues = validate_presentation(p)
    assert [v.where for v in issues] == ["h", "a"]
    assert "no boundary" in issues[1].issue


def test_a_relation_over_a_generator_without_boundary_is_a_violation(
        tmp_path, capsys):
    from hopfsmith.cli import main
    p = Presentation(max_dim=1)
    p.add("x", 0)
    h = p.add("h", 1)  # no boundary
    p.relate(1, comp(0, h, h), h)
    assert validate_presentation(p) == [
        Violation("h", "missing boundary"),
        Violation("relation#0", "lhs: generator 'h' has no boundary")]
    path = tmp_path / "h.json"
    path.write_text(p.dumps(), encoding="utf-8")
    assert main(["--json", "--no-timing", "census", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [
        ("valid", "fail")]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_each_illegal_inverse_is_reported_once(depth):
    """m is not invertible: however many Invs enclose its one occurrence,
    validate_term names it once, and each of two occurrences once."""
    m = Gen("m")
    t = m
    for _ in range(depth):
        t = Inv(t)
    illegal = Violation("term", "Inv over non-invertible generator 'm'")
    assert validate_term(t, mnd().base) == [illegal]
    assert validate_term(comp(0, t, Inv(t)), mnd().base) == [illegal] * 2


@pytest.mark.xfail(strict=True, reason=(
    "m⊗eta's two source stacks on A⊗a A⊗a are one point-degenerate slide "
    "apart, but canonical_stack and the search answer Distinct"))
def test_smash_of_mnd_and_adj_at_b_is_valid():
    from hopfsmith.gray import smash
    from hopfsmith.walking import PointedPresentation
    q = smash(mnd(), PointedPresentation(adj().base, "b"))[0]
    assert validate_presentation(q) == []


def eta_eta_target(p):
    """The target of eta⊗eta in p, a level-2 composite, and the shared
    boundary of its two parts."""
    t = p.gens["eta⊗eta"].tgt
    assert isinstance(t, Comp) and t.k == 2
    return p.boundary(t.left, "target", 2), p.boundary(t.right, "source", 2)


def test_eta_eta_target_composes_in_the_tensor_square():
    from hopfsmith.gray import gray
    p = gray(adj().base, adj().base)
    lt, rs = eta_eta_target(p)
    assert eq(lt, rs, p) is EQ_EQUAL


@pytest.mark.xfail(strict=True, reason=(
    "the target of eta⊗eta composes in gray adj adj and the collapse is a "
    "functor, yet in smash adj a adj b eq calls the shared boundary of its "
    "level-2 composite Distinct, even at budget 100,000"))
def test_eta_eta_target_is_not_distinct_in_the_smash():
    from hopfsmith.gray import smash
    from hopfsmith.walking import PointedPresentation
    p = smash(adj(), PointedPresentation(adj().base, "b"))[0]
    lt, rs = eta_eta_target(p)
    assert eq(lt, rs, p) is not EQ_DISTINCT
