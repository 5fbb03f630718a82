"""Cost and depth guards for the term operations.

Costs are counted as Python calls into hopfsmith.terms and
hopfsmith.rewriting, which repeat exactly from run to run, so the guard
does not depend on timing.  An operation that is linear in the size of its
input makes about twice the calls when the input doubles; recomputing
dimensions at every node made that ratio about 4 for normalize and
boundary, and about 7.6 for stack_of; taking the target word of every
0-composite's left part made it about 3.9 for stack_of on wide whiskers.
The other guards count the calls of one function or builtin, or the pair
generators a tensor builds, on a fixed input.
"""

import sys

import pytest

from hopfsmith import gray as gray_module
from hopfsmith import interchange, rewriting, terms
from hopfsmith.evaluate import evaluate_diagram
from hopfsmith.fixtures import standard_fixtures
from hopfsmith.gray import PAIR_SEP, gray
from hopfsmith.presentation import Presentation, validate_presentation
from hopfsmith.rewriting import EQ_EQUAL, eq, stack_of, word_of
from hopfsmith.shear import universal_shear
from hopfsmith.terms import SOURCE, Comp, Gen, Id, comp, flatten
from hopfsmith.walking import adj, mnd

M = mnd().base
A, m, u = Gen("A"), Gen("m"), Gen("u")
FILES = {terms.__file__, rewriting.__file__}


def calls(f, *args) -> int:
    """The number of Python calls into the counted modules made by f(*args)."""
    return _count(lambda frame: frame.f_code.co_filename in FILES, f, *args)


def normalize_calls(f, *args) -> int:
    """The number of terms.normalize calls made by f(*args)."""
    return code_calls(terms.normalize, f, *args)


def code_calls(fn, f, *args) -> int:
    """The number of calls of the Python function fn made by f(*args)."""
    return _count(lambda frame: frame.f_code is fn.__code__, f, *args)


def builtin_calls(fn, f, *args) -> int:
    """The number of calls of the builtin fn made by f(*args)."""
    return _count(lambda frame: True, f, *args, event="c_call", called=fn)


def _count(counted, f, *args, event="call", called=None) -> int:
    """The number of Python calls made by f(*args) whose new frame, with
    its arguments bound, counted accepts; with event "c_call", the
    number of calls of the builtin called made from a frame counted
    accepts."""
    count = 0

    def profile(frame, seen, arg):
        nonlocal count
        if seen == event and (called is None or arg is called) \
                and counted(frame):
            count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(old)
    return count


def word(n):
    return comp(0, *[A] * n)


def stack(n):
    """2n layers: a unit whiskered on the right, then a multiplication."""
    return comp(1, *[Comp(0, u, Id(A)), m] * n)


def whiskers(n):
    """n units side by side: each one is whiskered by all the others."""
    return comp(0, *[u] * n)


OPERATIONS = {
    "normalize": (word, lambda t: M.normalize(t)),
    "boundary": (word, lambda t: M.boundary(t, SOURCE, 0)),
    "word_of": (word, lambda t: word_of(t, M)),
    "stack_of": (stack, lambda t: stack_of(t, M, interchange.AtomTable())),
    "stack_of_wide": (whiskers,
                      lambda t: stack_of(t, M, interchange.AtomTable())),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_calls_grow_linearly(name):
    build, op = OPERATIONS[name]
    small, large = calls(op, build(100)), calls(op, build(200))
    assert large <= 2.5 * small, (small, large)


def zigzags(n):
    """n layers over adj, each whiskered by l: a unit, then a counit, in
    turn.  The term is normal."""
    eta, eps, l = Gen("eta"), Gen("eps"), Gen("l")
    return comp(1, *[comp(0, eta, Id(l)), comp(0, Id(l), eps)] * (n // 2))


def test_stack_of_normalizes_a_fixed_number_of_times():
    """stack_of normalizes nothing but each generator's boundaries, once
    per presentation; every whisker's word is read from the normal term,
    so the count does not grow with the number of layers."""
    counts = []
    for n in (10, 20, 40):
        p = adj().base
        t = zigzags(n)
        assert p.normalize(t) == t
        table = interchange.AtomTable()
        counts.append(normalize_calls(stack_of, t, p, table))
        assert len(stack_of(t, p, table)[1]) == 2 * n
    assert counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("name", ["QS3", "QZ3dual"])
def test_evaluation_normalizes_the_diagram_once(name):
    """evaluate_diagram normalizes the universal shear once, and the sides
    of its one junction come from the boundary walk already normal: one
    call, once a first evaluation has filled the presentation's
    boundary-word table.  The subterms of the normal diagram are not
    normalized again (18 calls when every node was, 5 when stack_of
    normalized each side and its source word, 3 when each junction side
    was normalized before it was stacked)."""
    B = standard_fixtures()[name]
    term = universal_shear()
    evaluate_diagram(term, B)
    assert normalize_calls(evaluate_diagram, term, B) == 1


def test_eq_on_a_300_letter_word():
    w = word(300)
    assert eq(w, w, M) is EQ_EQUAL
    assert eq(w, word(300), M) is EQ_EQUAL


def test_700_deep_terms_do_not_hit_the_recursion_limit():
    w = word(700)
    # compared through the iterative flatten: == on two distinct 700-deep
    # terms recurses as deep as they are
    assert flatten(M.normalize(w), 0) == [A] * 700
    assert M.boundary(w, SOURCE, 0) == Gen("pt")
    src, flat = stack_of(stack(350), M, interchange.AtomTable())
    assert src == (("A", False),)
    assert len(flat) == 2 * 700


def test_validation_reads_the_budget_once():
    """validate_presentation resolves the default budget once and passes
    the number down (56 reads of the environment for gray(adj, adj)
    when each parallel and boundaries_eq call read it)."""
    p = gray(adj().base, adj().base)
    assert code_calls(rewriting.default_budget, validate_presentation, p) == 1


def test_normal_dim_reads_leaf_dimensions_from_the_table():
    """normal_dim reads each leaf's dimension from the generator table
    itself: no dim call on a 40-letter word (40 when each leaf asked dim)."""
    assert code_calls(terms.dim, terms.normal_dim, word(40), M.gens) == 0


def test_a_tensor_builds_one_gen_per_pair_name():
    """gray builds each pair generator once and its boundaries reuse it
    (340 pair Gens for the 36 pair names of gray(adj, adj) when every
    relabelling and every pull made its own)."""
    p = adj().base
    names = len(gray(p, p).gens)
    made = _count(lambda frame: frame.f_code is Gen.__init__.__code__
                  and PAIR_SEP in frame.f_locals["name"], gray, p, p)
    assert made <= names == 36


def test_a_tensor_takes_each_ends_dimension_once():
    """gray takes no dimension at all: its ends are read by descent and
    its face chains at their known dimensions, so gray(adj, adj) makes no
    dim call (152, recursive ones included, when the two 0-boundaries of
    a wire or bead were taken from one dimension, 208 when each end took
    its own)."""
    p = adj().base
    assert code_calls(terms.dim, gray, p, p) == 0


def test_a_tensor_takes_no_boundary_for_its_ends():
    """gray reads the end objects of a wire or bead by one descent along
    the term, with no boundary built between: no Presentation.boundary
    call from _ends or its descent for gray(adj, adj) (88 when each end
    was the boundary walk down to level 0)."""
    p = adj().base
    ends = {gray_module._ends.__code__, gray_module._end.__code__}
    assert _count(lambda frame: frame.f_code is Presentation.boundary.__code__
                  and frame.f_back.f_code in ends, gray, p, p) == 0


def units(n):
    """The horizontal composite of n distinct 2-cells id => A over one
    object: a stack of n layers, each a new atom."""
    p = Presentation(2)
    p.add("pt", 0)
    A = p.add("A", 1, Gen("pt"), Gen("pt"))
    return p, comp(0, *[p.add(f"u{i}", 2, Id(Gen("pt")), A)
                        for i in range(n)])


@pytest.mark.parametrize("n", [5, 20])
def test_a_stack_ranks_its_atoms_once_per_canonical_call(n):
    """Adding an atom does not rank the table: a stack that adds n atoms
    is ranked once, when canonical's greedy pass first reads the ranks,
    so the sorts are one per greedy pass and one ranking (n + 1 sorts
    when every added atom re-ranked the table)."""
    p, t = units(n)

    def build_and_canonicalize():
        table = interchange.AtomTable()
        interchange.canonical(table, stack_of(t, p, table))

    sorts = builtin_calls(sorted, build_and_canonicalize)
    passes = code_calls(interchange._greedy, build_and_canonicalize)
    assert sorts == passes + 1, (sorts, passes)


def test_validation_certifies_what_can_differ():
    """validate_presentation makes no certificate for a 1-generator, whose
    0-cell sides are always parallel, and the certificate sends no level
    pair of one term with itself through _eq: for gray(adj, adj), 32
    parallel calls for its 24 generators above dimension 1 and its 8
    relations (40 when its 8 1-generators were certified too), and no
    such _eq call (24 when each went through _eq)."""
    p = gray(adj().base, adj().base)
    certified = code_calls(rewriting.parallel, validate_presentation, p)
    assert certified == sum(g.dim > 1 for g in p.gens.values()) \
        + len(p.relations) == 32
    p = gray(adj().base, adj().base)
    assert _count(lambda frame: frame.f_code is rewriting._eq.__code__
                  and frame.f_back.f_code is rewriting._certificate.__code__
                  and frame.f_locals["a"] is frame.f_locals["b"],
                  validate_presentation, p) == 0
