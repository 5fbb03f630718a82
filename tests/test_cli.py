import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfsmith.cli import (BROKEN_PIPE_EXIT, COMMANDS, USAGE_EXIT,
                           build_parser, main)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_census_builtin():
    code, out = run(["--json", "--no-timing", "census", "mnd"])
    assert code == 0
    doc = json.loads(out)
    assert doc["census"] == [1, 1, 2]


def test_gray_census():
    code, out = run(["--json", "--no-timing", "gray", "globe1", "globe1"])
    assert code == 0
    assert json.loads(out)["census"] == [4, 4, 1]


def test_smash_census():
    code, out = run(["--json", "--no-timing", "smash", "mnd", "pt", "mnd", "pt"])
    assert code == 0
    assert json.loads(out)["census"] == [1, 0, 1, 4, 4]


def test_census_of_point():
    code, out = run(["--json", "--no-timing", "census", "point"])
    assert code == 0
    assert json.loads(out)["census"] == [1]


def test_shear_check_hopf_fixture():
    code, out = run(["--json", "--no-timing", "shear-check", "QS3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hopf"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_shear_check_non_hopf_is_not_failure():
    code, out = run(["--json", "--no-timing", "shear-check", "QM"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hopf"] is False and doc["cohopf"] is False


def test_corrupted_bialgebra_fails(tmp_path):
    from hopfsmith.bialgebra import bialgebra_to_json
    from hopfsmith.fixtures import corrupted_delta, standard_fixtures
    bad = corrupted_delta(standard_fixtures()["QZ2"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bialgebra_to_json(bad)))
    code, out = run(["--json", "--no-timing", "shear-check", str(path)])
    assert code == 1
    doc = json.loads(out)
    assert any(c["status"] == "fail" and "witness" in c for c in doc["checks"])


def test_determinism_of_json_reports():
    a = run(["--json", "--no-timing", "shear-check", "sweedler"])
    b = run(["--json", "--no-timing", "shear-check", "sweedler"])
    assert a == b


def test_usage_error_exit_64():
    code, _ = run(["no-such-command"])
    assert code == 64


def test_a_named_command_builds_only_its_own_parser(monkeypatch):
    """The top-level parser and the subparser of the command argv names;
    the other subcommands' parsers are never built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["--json", "--no-timing", "integrals", "QZ2"])[0] == 0
    assert built == ["hopfsmith", "hopfsmith integrals"]


def _usage_cases():
    """Help, usage errors before and after the subcommand, an unknown
    subcommand and none."""
    yield ["--help"]
    yield ["-h", "census"]
    yield ["no-such-command", "mnd"]
    yield []
    for name, (_, arguments, _) in COMMANDS.items():
        positional = [a for a in arguments.split() if a[0] != "-"]
        yield [name, "-h"]
        yield ["--budget", "x", name] + positional
        if positional:
            yield [name] + positional[:-1]


@pytest.mark.parametrize("argv", list(_usage_cases()),
                         ids=lambda argv: " ".join(argv) or "no command")
def test_usage_help_and_errors_read_as_the_full_parser(capsys, argv):
    code = main(argv)
    got = code, *capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    want = 0 if stop.value.code == 0 else USAGE_EXIT, *capsys.readouterr()
    assert got == want


def test_missing_file_exit_64():
    code, _ = run(["--json", "census", "/nonexistent/file.json"])
    assert code == 64


def test_reconstruct_round_trip():
    code, out = run(["--json", "--no-timing", "reconstruct", "QZ2"])
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphism"


def test_reconstruct_family_file(tmp_path):
    from hopfsmith.bialgebra import bialgebra_to_json
    from hopfsmith.fixtures import standard_fixtures
    B = standard_fixtures()["QZ2"]
    fam = {
        "bialgebra": bialgebra_to_json(B),
        "comodules": [{"dim": 2, "rho": [["1", "0"], ["0", "0"],
                                         ["0", "0"], ["0", "1"]]}],
        "depth": 2,
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, out = run(["--json", "--no-timing", "reconstruct", str(path)])
    doc = json.loads(out)
    assert doc["coend_dim"] >= 1


@pytest.mark.parametrize("name", ["QZ2", "sweedler"])
def test_reconstruct_family_over_number_field(tmp_path, name):
    from hopfsmith.bialgebra import bialgebra_to_json
    from hopfsmith.field import number_field_from_text
    from hopfsmith.fixtures import standard_fixtures
    F = number_field_from_text("x^2+x+1")
    B = standard_fixtures(F)[name]
    rho = [[F.show(B.delta[i, j]) for j in range(B.n)]
           for i in range(B.n * B.n)]
    fam = {"bialgebra": bialgebra_to_json(B), "depth": 2,
           "comodules": [{"dim": B.n, "rho": rho}]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, out = run(["--json", "--no-timing", "reconstruct", str(path)])
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "isomorphism"
    assert doc["coend_dim"] == B.n


def test_proof_skeleton_cli():
    code, out = run(["--json", "--no-timing", "proof-skeleton"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification_table"]["4-cell"] >= 1


def test_dot_emission(tmp_path):
    dot = tmp_path / "g.dot"
    code, _ = run(["--json", "--no-timing", "gray", "globe1", "globe1",
                   "--dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_gray_out_roundtrips(tmp_path):
    out_path = tmp_path / "g.json"
    code, _ = run(["--json", "--no-timing", "gray", "mnd", "mnd",
                   "--out", str(out_path)])
    assert code == 0
    code2, out2 = run(["--json", "--no-timing", "census", str(out_path)])
    assert code2 == 0
    assert json.loads(out2)["census"] == [1, 2, 5, 4, 4]


def test_exit_code_contract():
    from hopfsmith.cli import Report
    r = Report(["x"], timing=False)
    assert r.exit_code() == 0
    r.check("a", "pass")
    assert r.exit_code() == 0
    r.check("b", "unknown")
    assert r.exit_code() == 2
    r.check("c", "fail")
    assert r.exit_code() == 1


def _qz2_json():
    from hopfsmith.bialgebra import bialgebra_to_json
    from hopfsmith.fixtures import standard_fixtures
    return bialgebra_to_json(standard_fixtures()["QZ2"])


MALFORMED = [
    ("census", {"maxDim": 2}, "'generators'"),
    ("census", {"maxDim": 1, "generators": [{"dim": 0}]}, "'name'"),
    ("census", [1, 2], "an array"),
    ("census", {"maxDim": 1, "generators": [{"name": "x", "dim": "0"}]},
     "'dim'"),
    ("shear-check", {"dim": 2}, "'m'"),
    ("antipode", {"dim": 2}, "'m'"),
    ("antipode", {"dim": 1, "m": [1]}, "row 0 of 'm'"),
    ("reconstruct", "family-without-comodules", "'comodules'"),
    ("reconstruct", "comodule-without-rho", "'rho'"),
    # a float would enter as an inexact binary fraction: 0.5 is exact,
    # 0.1 is not, and both are refused
    ("antipode", "qz2-with-float-u", "an entry of 'u'"),
    ("reconstruct", "comodule-with-float-rho", "an entry of 'rho'"),
    # a degree is a JSON integer: not a string, a fraction or a boolean
    ("shear-check", "qz2-super-with-string-grading", "an entry of 'grading'"),
    ("shear-check", "qz2-super-with-float-grading", "an entry of 'grading'"),
    ("shear-check", "qz2-super-with-boolean-grading",
     "an entry of 'grading'"),
    # "false" is a string, not JSON false: it must not load as invertible
    # or oriented
    ("census", {"maxDim": 1, "generators": [
        {"name": "x", "dim": 0, "invertible": "false"}]}, "'invertible'"),
    ("census", {"maxDim": 1, "generators": [{"name": "x", "dim": 0}],
                "relations": [{"dim": 0, "lhs": "(gen x)", "rhs": "(gen x)",
                               "oriented": "false"}]}, "'oriented'"),
    # a basis name is a JSON string, for every command that reads one
    ("shear-check", "qz2-with-number-basis", "an entry of 'basis'"),
    ("antipode", "qz2-with-number-basis", "an entry of 'basis'"),
    ("integrals", "qz2-with-number-basis", "an entry of 'basis'"),
]
GRADINGS = {"qz2-super-with-string-grading": ["1", "0"],
            "qz2-super-with-float-grading": [1.5, 0],
            "qz2-super-with-boolean-grading": [True, False]}
BASES = {"qz2-with-number-basis": [1, [2]]}


@pytest.mark.parametrize("command, doc, named", MALFORMED)
def test_malformed_json_exit_64(tmp_path, capsys, command, doc, named):
    """A wrong shape is a usage error: one stderr line naming the key or
    type, exit 64, no traceback."""
    if doc == "family-without-comodules":
        doc = {"bialgebra": _qz2_json(), "depth": 2}
    elif doc == "comodule-without-rho":
        doc = {"bialgebra": _qz2_json(), "comodules": [{"dim": 2}]}
    elif doc == "qz2-with-float-u":
        doc = dict(_qz2_json(), u=[[1], [0.5]])
    elif doc == "comodule-with-float-rho":
        doc = {"bialgebra": _qz2_json(),
               "comodules": [{"dim": 1, "rho": [[0.1], [1]]}]}
    elif isinstance(doc, str) and doc in GRADINGS:
        doc = dict(_qz2_json(), grading=GRADINGS[doc], braiding="super")
    elif isinstance(doc, str) and doc in BASES:
        doc = dict(_qz2_json(), basis=BASES[doc])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(["--json", "--no-timing", command, str(path)])
    err = capsys.readouterr().err
    assert code == 64 and out == ""
    assert err.startswith("hopfsmith: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("command", ["shear-check", "antipode",
                                     "integrals"])
@pytest.mark.parametrize("basis", [["a"], ["a", "b", "c"]])
def test_a_basis_of_the_wrong_length_is_a_fail_line(tmp_path, command,
                                                    basis):
    # QZ2 is 2-dimensional
    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(_qz2_json(), basis=basis)))
    code, out = run(["--json", "--no-timing", command, str(path)])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[-1]["status"] == "fail"
    assert checks[-1]["witness"] == "basis length mismatch"


@pytest.mark.parametrize("src", ["(", "(gen", "(comp²", "(gen x) x"])
def test_a_malformed_term_is_a_fail_line(tmp_path, src):
    """A term string the reader cannot finish is a TermError, reported as
    a fail line, never a traceback."""
    doc = {"maxDim": 1, "generators": [
        {"name": "x", "dim": 0},
        {"name": "f", "dim": 1, "src": src, "tgt": "(gen x)"}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(["--json", "--no-timing", "census", str(path)])
    assert code == 1
    assert json.loads(out)["checks"][-1]["status"] == "fail"


def _deep_side(shape, n=3000):
    """A term nested n levels deep: a comp0 word in f, or an id or inv
    tower."""
    if shape == "word":
        return "(comp0 " * (n - 1) + "(gen f)" + " (gen f))" * (n - 1)
    head, leaf = ("id", "(gen x)") if shape == "id" else ("inv", "(gen f)")
    return f"({head} " * n + leaf + ")" * n


@pytest.mark.parametrize("shape", ["word", "id", "inv"])
@pytest.mark.parametrize("command", [["census", "P"], ["gray", "P", "globe1"],
                                     ["smash", "P", "x", "globe1", "s0"]])
def test_a_deeply_nested_term_is_a_fail_line(tmp_path, shape, command):
    """The term walks that still recurse reach the recursion limit on a
    3,000-level generator source; the report says so in a fail line."""
    doc = {"maxDim": 2, "generators": [
        {"name": "x", "dim": 0},
        {"name": "f", "dim": 1, "src": "(gen x)", "tgt": "(gen x)",
         "invertible": True},
        {"name": "a", "dim": 2, "src": _deep_side(shape), "tgt": "(gen f)"}]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if arg == "P" else arg for arg in command]
    code, out = run(["--json", "--no-timing"] + argv)
    assert code == 1
    assert json.loads(out)["checks"][-1] == {
        "name": "error", "status": "fail",
        "witness": "term nested too deeply"}


def _tall_globes(top=6):
    """Two parallel generators in each dimension from 0 to top, each pair
    between the pair below, with maxDim top."""
    gens = [{"name": "s0", "dim": 0}, {"name": "t0", "dim": 0}]
    for d in range(1, top + 1):
        gens += [{"name": f"{n}{d}", "dim": d, "src": f"(gen s{d - 1})",
                  "tgt": f"(gen t{d - 1})"} for n in "st"]
    return {"maxDim": top, "generators": gens}


@pytest.mark.parametrize("command", [["census", "P"], ["gray", "P", "globe1"],
                                     ["smash", "P", "s0", "globe1", "s0"]])
def test_a_generator_above_the_dimension_cap_is_a_fail_line(tmp_path,
                                                             command):
    """maxDim may say 6, but no generator goes above the cap of 4."""
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(_tall_globes()))
    argv = [str(path) if arg == "P" else arg for arg in command]
    code, out = run(["--json", "--no-timing"] + argv)
    assert code == 1
    assert json.loads(out)["checks"][-1] == {
        "name": "error", "status": "fail",
        "witness": "generator 's5' exceeds the dimension cap 4"}


@pytest.mark.parametrize("command", [["census", "P"], ["gray", "P", "globe1"],
                                     ["smash", "P", "x", "globe1", "s0"]])
def test_a_generator_of_negative_dimension_is_a_fail_line(tmp_path, command):
    """A -1-cell x would make the pair of x with a 0-cell a cell without a
    boundary; add refuses it."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"maxDim": 1, "generators": [
        {"name": "x", "dim": -1},
        {"name": "f", "dim": 1, "src": "(gen x)", "tgt": "(gen x)"}]}))
    argv = [str(path) if arg == "P" else arg for arg in command]
    code, out = run(["--json", "--no-timing"] + argv)
    assert code == 1
    assert json.loads(out)["checks"][-1] == {
        "name": "error", "status": "fail",
        "witness": "generator 'x' has negative dimension -1"}


# a 2-generator whose source names a generator the file lacks
ILL_FORMED_FACE = {"maxDim": 2, "generators": [
    {"name": "x", "dim": 0},
    {"name": "f", "dim": 1, "src": "(gen x)", "tgt": "(gen x)"},
    {"name": "a", "dim": 2, "src": "(gen nope)", "tgt": "(gen f)"}]}
# an oriented 1-relation over a generator the file lacks, beside a 3-cell
# t: a => b whose sides are not parallel at level 1
UNKNOWN_RULE = {"maxDim": 3, "generators": [
    {"name": "x", "dim": 0},
    {"name": "f", "dim": 1, "src": "(gen x)", "tgt": "(gen x)"},
    {"name": "g", "dim": 1, "src": "(gen x)", "tgt": "(gen x)"},
    {"name": "a", "dim": 2, "src": "(gen f)", "tgt": "(gen f)"},
    {"name": "b", "dim": 2, "src": "(gen g)", "tgt": "(gen g)"},
    {"name": "t", "dim": 3, "src": "(gen a)", "tgt": "(gen b)"}],
    "relations": [{"dim": 1, "lhs": "(gen nope)", "rhs": "(gen f)",
                   "oriented": True}]}


@pytest.mark.parametrize("doc, command, witness", [
    (ILL_FORMED_FACE, ["census", "P"], "src: unknown generator 'nope'"),
    (ILL_FORMED_FACE, ["gray", "P", "globe1"], "a face of 'a' is ill-formed"),
    (ILL_FORMED_FACE, ["smash", "P", "x", "globe1", "s0"],
     "a face of 'a' is ill-formed"),
    (UNKNOWN_RULE, ["census", "P"], "src/tgt not parallel at level 1"),
    (UNKNOWN_RULE, ["gray", "P", "globe1"], "src/tgt not parallel at level 1"),
    (UNKNOWN_RULE, ["smash", "P", "x", "globe1", "s0"],
     "unknown generator 'nope\u2297s0'"),
])
def test_an_unknown_generator_ends_in_one_fail_line(tmp_path, doc, command,
                                                    witness):
    """A face or a relation that names a generator the file lacks ends in
    one fail line naming what is wrong, never a traceback: the smash of
    the relation's image used to raise KeyError."""
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if arg == "P" else arg for arg in command]
    code, out = run(["--json", "--no-timing"] + argv)
    assert code == 1
    fails = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["witness"] for c in fails] == [witness]


def test_field_with_non_string_modulus_is_a_fail_line(tmp_path):
    doc = dict(_qz2_json(), field={"ext": 5})
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(["--json", "--no-timing", "antipode", str(path)])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[-1]["status"] == "fail"
    assert "unknown field description" in checks[-1]["witness"]


def _written(p, path):
    path.write_text(p.dumps(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("budget, env, status, code", [
    ([], None, "pass", 0),
    (["--budget", "0"], None, "unknown", 2),
    ([], "0", "unknown", 2),
    (["--budget", "10000"], "0", "pass", 0),
])
def test_validation_honours_the_budget(tmp_path, monkeypatch,
                                       undecidable_at_budget_0, budget, env,
                                       status, code):
    if env is not None:
        monkeypatch.setenv("HOPFSMITH_BUDGET", env)
    path = _written(undecidable_at_budget_0, tmp_path / "p.json")
    got, out = run(["--json", "--no-timing", *budget, "census", path])
    check = json.loads(out)["checks"][0]
    assert (got, check["name"], check["status"]) == (code, "valid", status)
    if status == "unknown":
        assert check["witness"] == "src/tgt parallel undecided"


def test_a_decided_violation_fails_whatever_else_is_undecided(
        tmp_path, undecidable_at_budget_0):
    from hopfsmith.terms import Gen
    p = undecidable_at_budget_0
    p.add("bad", 2, Gen("x"), Gen("x"))
    path = _written(p, tmp_path / "p.json")
    code, out = run(["--json", "--no-timing", "--budget", "0", "census",
                     path])
    check = json.loads(out)["checks"][0]
    assert (code, check["status"]) == (1, "fail")
    assert check["witness"] == "src has dimension 0, expected 1"


@pytest.mark.parametrize("command", [["gray", "P", "globe1"],
                                     ["smash", "P", "x", "globe1", "t0"]])
def test_tensor_validation_honours_the_budget(tmp_path, command,
                                              undecidable_at_budget_0):
    path = _written(undecidable_at_budget_0, tmp_path / "p.json")
    command = [path if arg == "P" else arg for arg in command]
    code, out = run(["--json", "--no-timing", "--budget", "0", *command])
    assert code == 2
    assert [c["status"] for c in json.loads(out)["checks"]] == ["unknown"]
    code, out = run(["--json", "--no-timing", *command])
    assert code == 0


def test_there_is_no_depth_option():
    assert run(["--depth", "2", "reconstruct", "QZ2"])[0] == 64


def test_text_report_lines():
    """Without --json each check is one `[status] name` line and each
    payload key one `key: json` line."""
    assert run(["--no-timing", "census", "mnd"]) == (
        0, "[   pass] valid\ncensus: [1, 1, 2]\n")


def test_text_report_ends_with_elapsed_time():
    code, out = run(["census", "mnd"])
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["[   pass] valid", "census: [1, 1, 2]"]
    assert len(lines) == 3
    assert lines[2].startswith("elapsed: ") and lines[2].endswith(" ms")
    float(lines[2][len("elapsed: "):-len(" ms")])


def test_text_report_shows_a_failing_witness(tmp_path):
    from hopfsmith.presentation import Presentation
    from hopfsmith.terms import Gen
    p = Presentation(max_dim=2)
    p.add("x", 0)
    p.add("bad", 2, Gen("x"), Gen("x"))
    path = _written(p, tmp_path / "p.json")
    assert run(["--no-timing", "census", path]) == (
        1, "[   fail] valid  (src has dimension 0, expected 1)\n"
           "census: [1, 0, 1]\n")


@pytest.mark.parametrize("name", ["QZ2", "sweedler", "QM"])
def test_reconstruct_bialgebra_json_reports_like_the_fixture(tmp_path, name):
    """A bialgebra file is round-tripped whatever its name; only a document
    with a `bialgebra` key is a comodule family."""
    from hopfsmith.bialgebra import bialgebra_to_json
    from hopfsmith.fixtures import standard_fixtures
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(bialgebra_to_json(standard_fixtures()[name])))
    code, out = run(["--json", "--no-timing", "reconstruct", str(path)])
    want_code, want = run(["--json", "--no-timing", "reconstruct", name])
    doc, want_doc = json.loads(out), json.loads(want)
    assert doc.pop("command")[-1] == str(path)
    assert want_doc.pop("command")[-1] == name
    assert (code, doc) == (want_code, want_doc)
    assert "verdict" in doc


@pytest.mark.parametrize("args", [["census", "mnd"],
                                  ["--json", "census", "oriental2"]])
def test_a_closed_stdout_ends_without_a_traceback(args):
    """Standard output is a pipe whose read end is closed before the
    command starts, so every write to it fails: the command exits 141 and
    writes nothing to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hopfsmith.cli", "--no-timing", *args],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == BROKEN_PIPE_EXIT
