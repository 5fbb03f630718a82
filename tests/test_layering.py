"""The matrix storage stays behind `matrix.py`.

Outside that module no code may read a matrix's private row maps
(`._maps`), adopt maps with `Matrix._of`, or use the module's private
`_row_map` and `_EMPTY`; structure tensors and linear systems are built
from their nonzero entries (`Matrix.from_entries`), not from dense
scratch rows such as `[F.zero] * n`; and only the JSON loaders build a
matrix from dense rows (`Matrix.from_rows`).  Scalars stay behind
`field.py`: no other module divides with `/` (an `int / int` is a
`float`, not an exact scalar) or names `Fraction`.  A Kronecker product
is only ever a value: `Matrix.kron` is called at the allowlisted sites
alone, and a product that is only multiplied goes through one
`whisker_matmul` per factor or a contraction of entries.  `matrix.py`
is linear algebra over a field and knows no grading: no name in it
speaks of parities, degrees, Koszul signs or braidings, and only
`bialgebra.py`, which carries the braiding, reads `parities`.  No
module reaches into another's private attributes: an attribute
`x._name` is read or written only in the module that defines `_name`,
and no module imports another's private name.  Terms are mapped
generator by generator only through `terms.substitute`: no other
function rebuilds `Id`, `Inv` and `Comp` around recursive calls of its
own.  Every stratum of `eq` searches through `rewriting._meet`: no
other function names the frontier loop `_explore`.  Stacks are complete
values: only `rewriting._layers_rec`, which builds each atom, reads the
presentation's boundary-word table, and no function of the interchange
core takes a presentation.  Normal terms have one stack builder and one
word reader, with no "already normal" twin: only `rewriting.stack_of`
walks a term into layers (`_layers_rec`), only `rewriting.word_of`
reduces a word (`_cancel_word`), and no function takes a table of
normal faces of its own (a `faces` parameter), since each presentation
keeps one.  Boundaries have one walk: `terms.top_boundary` is the only
function of that name, with no `normal_top_boundary`, `_normal` or
`terms.boundary` beside it, and `Presentation.boundary` is the only
other function named for a boundary.  Only `interchange.py` decides
whether two layers interchange: no other module reads an atom table's
lengths (`.ns`, `.nt`), names `_readings`, `_slide_left` or
`_slide_right`, or defines a `slide` function of its own.  The Gray
tensor's terms come from one pull recursion: `TensorTerms._pull` is the only method of its
class that calls itself, for both orders of the factors.  Imports run
once, at module top: no function imports, `rewriting` names
`presentation` only for type checkers (so the presentation layer imports
one way), and every module imports on its own, with nothing else of the
package imported.  All checks but that last one read the syntax tree of
every module, so they fail as soon as such a shortcut is written,
whether or not a test runs it.

Values are built whole: every dataclass is frozen but `Presentation`,
which `add` and `relate` build and its first query freezes; a field is
set through `object.__setattr__` only in a `__post_init__`; and only
`Presentation.add` and `Presentation.relate` write a presentation's
`gens` or `relations`.
"""

import ast
import functools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfsmith"
PRIVATE = {"_maps", "_of", "_row_map", "_EMPTY"}
# the functions that read dense matrices from JSON documents
JSON_LOADERS = {("bialgebra.py", "bialgebra_from_json"),
                ("cli.py", "cmd_reconstruct")}
# the interchange core: every function that slides, aligns,
# canonicalizes, cancels or matches layers, reading words from the atom
# table alone
INTERCHANGE_CORE = {("interchange.py", name) for name in (
    "AtomTable.__init__", "AtomTable.add", "AtomTable._new", "_flat",
    "_readings", "_slide_left", "_slide_right", "align", "_choices",
    "canonical", "_pair_cancels", "_without", "cancellations",
    "cancel_inverses", "_fire", "_apply", "_windows", "moves", "successors")}
# every use of Matrix.kron, with its count: each tensor product is a value
# in its own right, and a product that is only multiplied goes through
# one whisker_matmul per factor or a contraction of entries
KRON_VALUES = {
    # the vertical composite of two 3-cells is their tensor product
    ("evaluate.py", "_eval3"): 1,
    # u (x) u and eps (x) eps, the comult_unit and counit_mult sides
    ("bialgebra.py", "check_bialgebra"): 2,
}
# the parts of a name that speak of a grading or a braiding
GRADING_WORDS = {"grading", "graded", "parity", "parities", "koszul", "odd",
                 "even", "deg", "degree", "sign", "braid", "braiding",
                 "super"}
# the one dataclass that is not frozen: add and relate build it, and its
# first query freezes it
MUTABLE_DATACLASSES = [("presentation.py", "Presentation")]
# a presentation's generator table and relation list, and their writers
PRESENTATION_TABLES = {"gens", "relations"}
PRESENTATION_WRITERS = {("presentation.py", "Presentation.add"),
                        ("presentation.py", "Presentation.relate")}
# the methods that change a dict or a list in place
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
            "reverse", "update", "setdefault", "popitem", "__setitem__",
            "__delitem__"}
# the names a boundary walk or its twins would take; the one walk is
# terms.top_boundary, which Presentation.boundary iterates
BOUNDARY_WALKS = {"top_boundary", "normal_top_boundary", "_normal",
                  "boundary"}
# what only the interchange core may name: the atom lengths that decide
# an interchange, and its tests and slides
INTERCHANGE_DECISIONS = {"ns", "nt", "_readings", "_slide_left",
                         "_slide_right"}


def private_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in PRIVATE:
            yield node.lineno, node.id
        elif isinstance(node, ast.Constant) and node.value in PRIVATE:
            yield node.lineno, node.value          # getattr(m, "_maps")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in PRIVATE:
                    yield node.lineno, alias.name


def grading_names(tree):
    """(line, name) of every name, attribute, parameter or definition one
    of whose underscore-separated parts is in GRADING_WORDS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if GRADING_WORDS & set(name.lower().split("_")):
            yield node.lineno, name


def own_attributes(tree):
    """The names a module defines: its functions, classes and methods,
    every name it assigns, the attributes its methods set on self or cls,
    and its `__slots__` entries."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) in ("self", "cls")):
            own.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in node.targets):
            own |= {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return own


def foreign_privates(tree):
    """(line, name) of every private attribute x._name (dunders aside)
    that the module does not define itself, and of every private name it
    imports from a sibling module."""
    own = own_attributes(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__") and node.attr not in own):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


def zero_rows(tree):
    """Lists of a field's zero repeated with `*`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if (isinstance(side, ast.List) and len(side.elts) == 1
                        and isinstance(side.elts[0], ast.Attribute)
                        and side.elts[0].attr == "zero"):
                    yield node.lineno


def from_rows_callers(tree):
    """The enclosing top-level function of every `from_rows` call."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_rows"):
                yield node.lineno, getattr(top, "name", None)


def true_divisions_and_fractions(tree):
    """Every `/` or `/=`, and every use of the name `Fraction`."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            yield node.lineno, "/"
        elif ((isinstance(node, ast.Name) and node.id == "Fraction")
              or (isinstance(node, ast.Attribute)
                  and node.attr == "Fraction")):
            yield node.lineno, "Fraction"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] == "Fraction":
                    yield node.lineno, "Fraction"


def term_rebuilders(tree):
    """Functions that rebuild Id(f(..)), Inv(f(..)) and Comp(t.k, f(..),
    f(..)) around calls f of themselves, as a generator-by-generator map
    does.  A rebuild through type(t)(f(..)) counts as both Id and Inv, and
    one at level t.k + shift as one at t.k, so a map that raises every
    level, as a suspension does, is found too."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue

        def recurses(node):
            return isinstance(node, ast.Call) and fn.name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))

        rebuilt = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                names = {node.func.id}
            elif (isinstance(node.func, ast.Call)
                  and getattr(node.func.func, "id", None) == "type"):
                names = {"Id", "Inv"}
            else:
                continue
            parts = node.args
            if names == {"Comp"}:
                level, parts = node.args[0], node.args[1:]
                if isinstance(level, ast.BinOp) and isinstance(level.op,
                                                               ast.Add):
                    level = level.left
                if getattr(level, "attr", None) != "k":
                    continue
            if parts and all(recurses(a) for a in parts):
                rebuilt |= names
        if {"Id", "Inv", "Comp"} <= rebuilt:
            yield fn.lineno, fn.name


def uses_of(name, tree):
    """The enclosing top-level function of every use of name, called or
    not, as a plain name or as an attribute."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                yield node.lineno, getattr(top, "name", None)


def self_callers(tree, cls):
    """The methods of class cls that call themselves, by a method or a
    plain name, nested functions included."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == cls:
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(node, ast.Call) and fn.name in (
                            getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))
                        for node in ast.walk(fn)):
                    yield fn.lineno, fn.name


def interchange_decisions(tree):
    """Every use of a name in INTERCHANGE_DECISIONS, as a plain name, an
    attribute or an imported name, and every function or method whose
    name starts with slide or _slide."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in INTERCHANGE_DECISIONS:
            yield node.lineno, node.id
        elif (isinstance(node, ast.Attribute)
              and node.attr in INTERCHANGE_DECISIONS):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in INTERCHANGE_DECISIONS:
                    yield node.lineno, alias.name
        elif (isinstance(node, ast.FunctionDef)
              and node.name.lstrip("_").startswith("slide")):
            yield node.lineno, node.name


def functions(tree):
    """Every top-level function and method, by name (Class.method)."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node


def takes_a_presentation(fn):
    """Whether a parameter of fn is named p or annotated Presentation."""
    args = fn.args
    return any(a.arg == "p" or (a.annotation is not None
                                and "Presentation" in ast.unparse(a.annotation))
               for a in args.posonlyargs + args.args + args.kwonlyargs)


def parameters(fn):
    """The names of fn's parameters."""
    args = fn.args
    return [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg]) if a is not None]


def imports_in_functions(tree):
    """(line, function) of every import inside a top-level function or a
    method, nested functions included."""
    for name, fn in functions(tree):
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node.lineno, name


def runtime_imports_of(module, tree):
    """Lines that import the sibling module named module at run time, on
    import or inside a function: every import of it but those under
    `if TYPE_CHECKING:`."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if (isinstance(node, ast.If) and ast.unparse(node.test)
                in ("TYPE_CHECKING", "typing.TYPE_CHECKING")):
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module in (None, "hopfsmith"):
                names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        if any(name.split(".")[-1] == module for name in names):
            yield node.lineno
        todo.extend(ast.iter_child_nodes(node))


# imports each module named on its command line, after dropping every
# module of that module's package from sys.modules, and prints one line
# per module: its name, a tab, and the last line of the traceback if the
# import failed
IMPORT_EACH = """
import importlib, sys, traceback
for module in sys.argv[1:]:
    package = module.split(".")[0]
    for name in [n for n in sys.modules if n.split(".")[0] == package]:
        del sys.modules[name]
    try:
        importlib.import_module(module)
        error = ""
    except Exception:
        error = traceback.format_exc().strip().splitlines()[-1]
    print(module, error, sep="\\t")
"""


def import_errors(names, path):
    """For each module name, the last line of what `import name` prints
    when it fails with path on the module search path and nothing of its
    package imported yet, or None.  One interpreter imports them all."""
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH, *names], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(path)}, check=True)
    lines = dict(line.split("\t", 1) for line in run.stdout.splitlines())
    return {name: lines[name] or None for name in names}


def mutable_dataclasses(tree):
    """(line, class) of every class decorated with dataclass, called or
    not, without frozen=True."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            if ast.unparse(call.func if call else dec).split(".")[-1] \
                    != "dataclass":
                continue
            if not call or not any(
                    k.arg == "frozen" and getattr(k.value, "value", None)
                    is True for k in call.keywords):
                yield node.lineno, node.name


def setattr_calls(tree, fn=None):
    """(line, function) of every object.__setattr__ call, with the
    innermost function around it (None at module level)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield from setattr_calls(node, node.name)
            continue
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__"):
            yield node.lineno, fn
        yield from setattr_calls(node, fn)


def presentation_writes(tree):
    """(line, function) of every write to a `gens` or `relations`
    attribute or to a name bound to one in the same function: binding or
    deleting the attribute, storing or deleting an item, an augmented
    assignment, or a call of a mutating method."""
    top = [node for node in tree.body
           if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for name, scope in [*functions(tree), (None, ast.Module(top, []))]:
        aliases = {t.id for node in ast.walk(scope)
                   if isinstance(node, ast.Assign)
                   and getattr(node.value, "attr", None) in PRESENTATION_TABLES
                   for t in node.targets if isinstance(t, ast.Name)}

        def held(e):
            return (isinstance(e, ast.Attribute)
                    and e.attr in PRESENTATION_TABLES
                    or isinstance(e, ast.Name) and e.id in aliases)

        for node in ast.walk(scope):
            if (isinstance(node, ast.Attribute)
                    and node.attr in PRESENTATION_TABLES
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    or isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and held(node.value)
                    or isinstance(node, ast.AugAssign) and held(node.target)
                    or isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS and held(node.func.value)):
                yield node.lineno, name


def modules(but="matrix.py"):
    return sorted(p for p in SRC.glob("*.py") if p.name != but)


# every checker only reads the tree it is given, so each module is parsed
# once per session
@functools.cache
def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_but_matrix_touches_the_row_maps():
    bad = [(p.name, *use) for p in modules() for use in private_uses(parse(p))]
    assert not bad


def test_no_dense_zero_rows():
    bad = [(p.name, line) for p in modules() for line in zero_rows(parse(p))]
    assert not bad


def test_only_json_loaders_build_from_dense_rows():
    bad = [(p.name, line, fn) for p in modules()
           for line, fn in from_rows_callers(parse(p))
           if (p.name, fn) not in JSON_LOADERS]
    assert not bad


def test_only_the_field_module_divides_or_names_fractions():
    bad = [(p.name, *use) for p in modules(but="field.py")
           for use in true_divisions_and_fractions(parse(p))]
    assert not bad


def test_only_substitute_maps_terms_generator_by_generator():
    found = [(p.name, name) for p in modules(but=None)
             for _, name in term_rebuilders(parse(p))]
    assert found == [("terms.py", "substitute")]


def test_only_meet_runs_the_search_loop():
    found = {(p.name, fn) for p in modules(but=None)
             for _, fn in uses_of("_explore", parse(p))}
    assert found == {("rewriting.py", "_meet")}


def test_kronecker_products_are_only_values():
    found = Counter((p.name, fn) for p in modules(but=None)
                    for _, fn in uses_of("kron", parse(p)))
    assert found == KRON_VALUES


def test_matrix_knows_no_grading():
    assert not list(grading_names(parse(SRC / "matrix.py")))


def test_only_the_bialgebra_reads_parities():
    found = {p.name for p in modules(but=None)
             for _ in uses_of("parities", parse(p))}
    assert found == {"bialgebra.py"}


def test_no_module_touches_another_modules_privates():
    bad = [(p.name, *use) for p in modules(but=None)
           for use in foreign_privates(parse(p))]
    assert not bad


def test_only_layers_rec_reads_boundary_words():
    found = {(p.name, fn) for p in modules(but=None)
             for _, fn in uses_of("boundary_words", parse(p))}
    assert found == {("rewriting.py", "_layers_rec")}


def test_one_stack_builder_and_one_word_reader():
    found = {(p.name, fn) for p in modules(but=None)
             for name in ("_layers_rec", "_cancel_word")
             for _, fn in uses_of(name, parse(p))}
    assert found == {("rewriting.py", "stack_of"),
                     ("rewriting.py", "_layers_rec"),
                     ("rewriting.py", "word_of")}


def test_no_function_takes_a_faces_table():
    found = [(p.name, name) for p in modules(but=None)
             for name, fn in functions(parse(p))
             if "faces" in parameters(fn)]
    assert not found


def test_one_boundary_walk():
    found = sorted((p.name, name) for p in modules(but=None)
                   for name, _ in functions(parse(p))
                   if name.split(".")[-1] in BOUNDARY_WALKS)
    assert found == [("presentation.py", "Presentation.boundary"),
                     ("terms.py", "top_boundary")]


def test_the_interchange_core_takes_no_presentation():
    found = {(p.name, name): takes_a_presentation(fn)
             for p in modules(but=None) for name, fn in functions(parse(p))
             if (p.name, name) in INTERCHANGE_CORE}
    assert found == dict.fromkeys(INTERCHANGE_CORE, False)


def test_one_pull_recursion_builds_the_tensor_terms():
    found = [name for _, name in self_callers(parse(SRC / "gray.py"),
                                              "TensorTerms")]
    assert found == ["_pull"]


def test_only_the_interchange_module_decides_interchange():
    bad = [(p.name, *use) for p in modules(but="interchange.py")
           for use in interchange_decisions(parse(p))]
    assert not bad


def test_no_function_imports():
    bad = [(p.name, *use) for p in modules(but=None)
           for use in imports_in_functions(parse(p))]
    assert not bad


def test_rewriting_imports_presentation_only_for_type_checkers():
    assert not list(runtime_imports_of("presentation",
                                       parse(SRC / "rewriting.py")))


def test_every_module_imports_on_its_own():
    names = ["hopfsmith" if p.stem == "__init__" else f"hopfsmith.{p.stem}"
             for p in modules(but=None)]
    assert import_errors(names, SRC.parent) == dict.fromkeys(names)


def test_every_dataclass_but_the_presentation_is_frozen():
    found = [(p.name, name) for p in modules(but=None)
             for _, name in mutable_dataclasses(parse(p))]
    assert found == MUTABLE_DATACLASSES


def test_fields_are_set_around_the_freeze_only_after_init():
    found = [(p.name, *use) for p in modules(but=None)
             for use in setattr_calls(parse(p)) if use[1] != "__post_init__"]
    assert not found


def test_only_add_and_relate_write_a_presentation():
    found = {(p.name, fn) for p in modules(but=None)
             for _, fn in presentation_writes(parse(p))}
    assert found == PRESENTATION_WRITERS


def test_the_checks_see_what_they_forbid(tmp_path):
    tree = ast.parse(
        "from .matrix import _EMPTY\n"
        "def f(F, A, n):\n"
        "    row = [F.zero] * n\n"
        "    g = getattr(A, '_maps')\n"
        "    return Matrix._of(F, 1, n, A._maps), Matrix.from_rows(F, [row])\n")
    assert {name for _, name in private_uses(tree)} == PRIVATE - {"_row_map"}
    assert list(zero_rows(tree)) == [3]
    assert list(from_rows_callers(tree)) == [(5, "f")]
    tree = ast.parse(
        "def braid(self, left, deg_a, right):\n"
        "    odd_a = [g % 2 for g in deg_a]\n"
        "    return B.parities, self.field.neg, Matrix.kron_matmul\n")
    assert sorted(grading_names(tree)) == [
        (1, "braid"), (1, "deg_a"), (2, "deg_a"), (2, "odd_a"),
        (3, "parities")]
    tree = ast.parse(
        "from .matrix import _EMPTY, Matrix\n"
        "class P:\n"
        "    __slots__ = ('_maps',)\n"
        "    _faces: dict\n"
        "    def __init__(self):\n"
        "        self._words = {}\n"
        "    def kernel(self, p):\n"
        "        table = p._kernel\n"
        "        p._kernel = table = interchange._Table()\n"
        "        return self._maps, self._faces, p._words, table.__dict__\n")
    assert sorted(foreign_privates(tree)) == [
        (1, "_EMPTY"), (8, "_kernel"), (9, "_Table"), (9, "_kernel")]
    assert {name for _, name in private_uses(parse(SRC / "matrix.py"))} \
        == PRIVATE
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "def g(x, y):\n"
        "    x /= y\n"
        "    return x // y, x / y, fractions.Fraction(x)\n")
    assert list(true_divisions_and_fractions(tree)) == [
        (1, "Fraction"), (4, "/"), (5, "/"), (5, "Fraction")]
    assert {kind for _, kind in
            true_divisions_and_fractions(parse(SRC / "field.py"))} \
        == {"/", "Fraction"}
    tree = ast.parse(
        "class T:\n"
        "    def ten(self, t, y):\n"
        "        if isinstance(t, Gen):\n"
        "            return Gen(t.name + y)\n"
        "        if isinstance(t, Id):\n"
        "            return Id(self.ten(t.inner, y))\n"
        "        if isinstance(t, Inv):\n"
        "            return Inv(self.ten(t.inner, y))\n"
        "        return Comp(t.k, self.ten(t.left, y), self.ten(t.right, y))\n")
    assert list(term_rebuilders(tree)) == [(2, "ten")]
    tree = ast.parse(
        "def keep(t):\n"
        "    if isinstance(t, Comp):\n"
        "        return Comp(t.k, keep(t.left), keep(t.right))\n"
        "    return type(t)(keep(t.inner))\n"
        "def lift(t):\n"
        "    if isinstance(t, Comp):\n"
        "        return Comp(t.k + 1, lift(t.left), lift(t.right))\n"
        "    return type(t)(lift(t.inner))\n")
    assert list(term_rebuilders(tree)) == [(1, "keep"), (5, "lift")]
    tree = ast.parse(
        "def _meet(a, b, step):\n"
        "    return _explore(a, step), _explore(b, step)\n"
        "def _eq1(a, b):\n"
        "    search = rewriting._explore\n"
        "    return (lambda: _explore(a, None))()\n")
    assert list(uses_of("_explore", tree)) == [
        (2, "_meet"), (2, "_meet"), (4, "_eq1"), (5, "_eq1")]
    tree = ast.parse(
        "class Atom:\n"
        "    def words(self, p):\n"
        "        return p.boundary_words(self.name)\n"
        "def slide(a, b, q: 'Presentation'):\n"
        "    return a\n"
        "def slide_left(block, layer, *, p=None):\n"
        "    return layer\n"
        "def canonical_stack(stack: Stack) -> Presentation:\n"
        "    return stack\n")
    assert list(uses_of("boundary_words", tree)) == [(3, "Atom")]
    assert [parameters(fn) for _, fn in functions(ast.parse(
        "def top(t, side, d, gens, faces, *more, **kw):\n"
        "    pass\n"))] == [["t", "side", "d", "gens", "faces", "more",
                             "kw"]]
    assert {name: takes_a_presentation(fn)
            for name, fn in functions(tree)} == {
        "Atom.words": True, "slide": True, "slide_left": True,
        "canonical_stack": False}
    tree = ast.parse(
        "class TensorTerms:\n"
        "    def tensor(self, a, b):\n"
        "        return self._pull(a, b)\n"
        "    def _pull(self, a, b):\n"
        "        def pull(w):\n"
        "            return self._pull(w, b)\n"
        "        return pull(a)\n"
        "    def move21(self, a, b):\n"
        "        return self.move21(b, a)\n"
        "class Other:\n"
        "    def _pull(self, a):\n"
        "        return self._pull(a)\n")
    assert list(self_callers(tree, "TensorTerms")) == [(4, "_pull"),
                                                       (8, "move21")]
    tree = ast.parse(
        "from .interchange import _readings, align\n"
        "def _junction(tab, a, b):\n"
        "    n = tab.ns[a[1]] + tab.nt[a[1]] + len(b)\n"
        "    return interchange._slide_left(n), _slide_right\n"
        "class Layers:\n"
        "    def slide(self, other):\n"
        "        return _readings\n"
        "def _slide_up(a):\n"
        "    return a.offset\n")
    assert sorted(interchange_decisions(tree)) == [
        (1, "_readings"), (3, "ns"), (3, "nt"), (4, "_slide_left"),
        (4, "_slide_right"), (6, "slide"), (7, "_readings"),
        (8, "_slide_up")]
    assert {name for _, name in interchange_decisions(
        parse(SRC / "interchange.py"))} >= INTERCHANGE_DECISIONS
    tree = ast.parse(
        "import os\n"
        "def f():\n"
        "    from .terms import Gen\n"
        "    def g():\n"
        "        import json\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import terms\n")
    assert list(imports_in_functions(tree)) == [(3, "f"), (5, "f"), (8, "C.m")]
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import typing\n"
        "if TYPE_CHECKING:\n"
        "    from .presentation import Presentation\n"
        "if typing.TYPE_CHECKING:\n"
        "    from hopfsmith.presentation import Presentation\n"
        "else:\n"
        "    from . import presentation\n"
        "import hopfsmith.presentation\n"
        "def f():\n"
        "    from .presentation import Presentation\n")
    assert sorted(runtime_imports_of("presentation", tree)) == [8, 9, 11]
    package = tmp_path / "cyc"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("from .b import g\ndef f():\n    pass\n")
    (package / "b.py").write_text("from .a import f\ndef g():\n    pass\n")
    (package / "c.py").write_text("def h():\n    from .a import f\n")
    # d imports only where c was imported before it
    (package / "d.py").write_text("import sys\nsys.modules['cyc.c']\n")
    errors = import_errors(["cyc.c", "cyc.d", "cyc.a"], tmp_path)
    assert "ImportError" in errors["cyc.a"]
    assert errors["cyc.c"] is None
    assert "KeyError" in errors["cyc.d"]
    tree = ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    x: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "        def later():\n"
        "            object.__setattr__(self, 'x', 2)\n"
        "@dataclass(eq=False, frozen=False)\n"
        "class C:\n"
        "    gens: dict\n"
        "    def add(self, g):\n"
        "        self.gens[g.name] = g\n"
        "def grow(p, q, g):\n"
        "    gens = p.gens\n"
        "    gens[g.name] = g\n"
        "    p.relations.append(g)\n"
        "    q.gens = {}\n"
        "    del p.gens['x']\n"
        "    rules = q.relations\n"
        "    rules += [g]\n"
        "    return p.gens.get('x'), len(rules), object.__setattr__\n"
        "object.__setattr__(B(0), 'x', 3)\n")
    assert list(mutable_dataclasses(tree)) == [(2, "A"), (12, "C")]
    assert list(setattr_calls(tree)) == [(8, "__post_init__"),
                                         (10, "later"), (25, None)]
    assert sorted(presentation_writes(tree)) == [
        (15, "C.add"), (18, "grow"), (19, "grow"), (20, "grow"),
        (21, "grow"), (23, "grow")]
