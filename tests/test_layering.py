"""The matrix storage stays behind `matrix.py`.

Outside that module no code may read a matrix's private row maps
(`._maps`), adopt maps with `Matrix._of`, or use the module's private
`_row_map` and `_EMPTY`; structure tensors and linear systems are built
from their nonzero entries (`Matrix.from_entries`), not from dense
scratch rows such as `[F.zero] * n`; and only the JSON loaders build a
matrix from dense rows (`Matrix.from_rows`).  Scalars stay behind
`field.py`: no other module divides with `/` (an `int / int` is a
`float`, not an exact scalar) or names `Fraction`.  Terms are mapped
generator by generator only through `terms.substitute`: no other
function rebuilds `Id`, `Inv` and `Comp` around recursive calls of its
own.  Every stratum of `eq` searches through `rewriting._meet`: no
other function names the frontier loop `_explore`.  Stacks are complete
values: only `rewriting._layers_rec`, which builds each atom, reads the
presentation's boundary-word table, and no function of the interchange
core takes a presentation.  Imports run once, at module top: no function
imports, `rewriting` names `presentation` only for type checkers (so the
presentation layer imports one way), and every module imports on its own
in a fresh interpreter.  All checks but that last one read the syntax
tree of every module, so they fail as soon as such a shortcut is
written, whether or not a test runs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfsmith"
PRIVATE = {"_maps", "_of", "_row_map", "_EMPTY"}
# the functions that read dense matrices from JSON documents
JSON_LOADERS = {("bialgebra.py", "bialgebra_from_json"),
                ("cli.py", "cmd_reconstruct")}
# the interchange core: every function that slides, canonicalizes,
# cancels or matches layers, reading words from the atoms or from the
# search's atom table alone
INTERCHANGE_CORE = {("rewriting.py", name) for name in (
    "Stack.word_before", "Stack.tgtword", "_swap_variants", "slide",
    "slide_left", "canonical_stack", "_pack", "_unpack")} | {
    ("interchange.py", name) for name in (
        "AtomTable.__init__", "AtomTable.add", "AtomTable._new", "_flat",
        "_readings", "_slide_left", "_slide_right", "canonical",
        "_pair_cancels", "_without", "cancellations", "cancel_inverses",
        "_fire", "_apply", "_windows", "moves", "successors")} | {
    ("evaluate.py", "_align")}


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


def import_error(module, path):
    """The last line of what a fresh interpreter prints when `import
    module` fails with path on its module search path, or None."""
    run = subprocess.run(
        [sys.executable, "-c", f"import {module}"], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(path)})
    return run.stderr.strip().splitlines()[-1] if run.returncode else None


def modules(but="matrix.py"):
    return sorted(p for p in SRC.glob("*.py") if p.name != but)


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


def test_only_layers_rec_reads_boundary_words():
    found = {(p.name, fn) for p in modules(but=None)
             for _, fn in uses_of("boundary_words", parse(p))}
    assert found == {("rewriting.py", "_layers_rec")}


def test_the_interchange_core_takes_no_presentation():
    found = {(p.name, name): takes_a_presentation(fn)
             for p in modules(but=None) for name, fn in functions(parse(p))
             if (p.name, name) in INTERCHANGE_CORE}
    assert found == dict.fromkeys(INTERCHANGE_CORE, False)


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
    failed = {name: import_error(name, SRC.parent) for name in names}
    assert failed == dict.fromkeys(names)


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
    assert {name: takes_a_presentation(fn)
            for name, fn in functions(tree)} == {
        "Atom.words": True, "slide": True, "slide_left": True,
        "canonical_stack": False}
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
    assert "ImportError" in import_error("cyc.a", tmp_path)
    assert import_error("cyc.c", tmp_path) is None
