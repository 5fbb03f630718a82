"""Batch front end: load presentations, bialgebras, and comodule families,
run the constructions and checks, and emit machine- or human-readable
reports.  A well-formed call is read from the command table; help,
abbreviations and usage errors go through the full argparse parser.

Exit codes: 0 when everything passes, 1 on any failing check, 2 when the
only non-passes are Unknown verdicts, 64 for usage errors, 141 when the
reader of standard output closed it before the report was written.
Hopf-ness is reported data, never a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from . import bialgebra as ba
from . import jsonshape as shape
from . import walking
from .evaluate import EvaluationError, shear_semantics
from .field import QQ, FieldError
from .fixtures import FIXTURE_BUILDERS
from .gray import gray, smash
from .matrix import Matrix
from .presentation import Presentation, validate_presentation
from .reconstruct import (ClosureError, GeneratingFamily, coend_reconstruct,
                          round_trip)
from .comodule import Comodule
from .rewriting import default_budget
from .shear import proof_skeleton_check
from .terms import TermError, generators
from .walking import PointedPresentation

USAGE_EXIT = 64
# 128 + SIGPIPE, what a shell reports for a writer whose reader went away
BROKEN_PIPE_EXIT = 141

BUILTIN_PRESENTATIONS = {
    "point": walking.point,
    "mnd": lambda: walking.mnd().base,
    "adj": lambda: walking.adj().base,
    "oriental2": walking.oriental2,
    "e-oriental2": walking.e_oriental2,
    **{f"globe{i}": (lambda i=i: walking.globe(i)) for i in range(5)},
    **{f"bglobe{i}": (lambda i=i: walking.boundary_globe(i))
       for i in range(1, 5)},
}


class Report:
    def __init__(self, command: List[str], timing: bool):
        self.command = command
        self.timing = timing
        self.start = time.monotonic()
        self.checks: List[Dict] = []
        self.payload: Dict = {}

    def check(self, name: str, status: str, witness: Optional[str] = None):
        entry = {"name": name, "status": status}
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def exit_code(self) -> int:
        statuses = {c["status"] for c in self.checks}
        if "fail" in statuses:
            return 1
        if "unknown" in statuses:
            return 2
        return 0

    def emit(self, as_json: bool) -> None:
        if as_json:
            doc = {"command": self.command, "checks": self.checks,
                   **self.payload}
            if self.timing:
                doc["timing_ms"] = round(
                    (time.monotonic() - self.start) * 1000, 3)
            print(json.dumps(doc, sort_keys=True))
            return
        for c in self.checks:
            line = f"[{c['status']:>7}] {c['name']}"
            if "witness" in c:
                line += f"  ({c['witness']})"
            print(line)
        for k, v in self.payload.items():
            print(f"{k}: {json.dumps(v, sort_keys=True)}")
        if self.timing:
            print(f"elapsed: {(time.monotonic() - self.start) * 1000:.1f} ms")


def load_presentation(name: str) -> Presentation:
    if name in BUILTIN_PRESENTATIONS:
        return BUILTIN_PRESENTATIONS[name]()
    with open(name, "r", encoding="utf-8") as fh:
        return Presentation.loads(fh.read())


def load_bialgebra(name: str) -> ba.Bialgebra:
    if name in FIXTURE_BUILDERS:
        return FIXTURE_BUILDERS[name](QQ)
    return ba.load_bialgebra(name)


def emit_dot(p: Presentation, path: str) -> None:
    lines = ["digraph presentation {"]
    for g in p.gens.values():
        lines.append(f'  "{g.name}" [label="{g.name} ({g.dim})"];')
    for g in p.gens.values():
        seen = set()
        for side in (g.src, g.tgt):
            if side is None:
                continue
            for name in generators(side):
                if name not in seen:
                    seen.add(name)
                    lines.append(f'  "{g.name}" -> "{name}";')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_valid(report: Report, name: str, p: Presentation,
                budget: Optional[int]) -> None:
    """fail on a decided violation, else unknown on an undecided one."""
    bad = validate_presentation(p, budget)
    decided = [v for v in bad if not v.undecided]
    status = "fail" if decided else "unknown" if bad else "pass"
    report.check(name, status, (decided or bad)[0].issue if bad else None)


# ---------------------------------------------------------------------------
# subcommands


def cmd_census(args, report: Report) -> None:
    p = load_presentation(args.presentation)
    check_valid(report, "valid", p, args.budget)
    report.payload["census"] = list(p.census())


def report_product(args, report: Report, check: str,
                   out: Presentation) -> None:
    """Validity and census of a built presentation; --out and --dot."""
    check_valid(report, check, out, args.budget)
    report.payload["census"] = list(out.census())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out.dumps())
    if args.dot:
        emit_dot(out, args.dot)


def cmd_gray(args, report: Report) -> None:
    out = gray(load_presentation(args.left), load_presentation(args.right))
    report_product(args, report, "tensor-valid", out)


def cmd_smash(args, report: Report) -> None:
    a, b = load_presentation(args.left), load_presentation(args.right)
    out, _ = smash(PointedPresentation(a, args.left_point),
                   PointedPresentation(b, args.right_point))
    report_product(args, report, "smash-valid", out)


def cmd_shear_check(args, report: Report) -> None:
    B = load_bialgebra(args.bialgebra)
    for axiom in ba.check_bialgebra(B):
        report.check(f"axiom:{axiom.name}", "pass" if axiom.holds else "fail",
                     axiom.witness)
    ranks = {}
    for d in (ba.NW, ba.NE, ba.SW, ba.SE):
        mat = ba.shear(B, d)
        ranks[d] = mat.rank()
    full = {d: r == B.n * B.n for d, r in ranks.items()}
    report.payload["shear_ranks"] = ranks
    report.payload["hopf"] = full[ba.SE]
    report.payload["cohopf"] = full[ba.NE]
    equiv = full[ba.NW] == full[ba.SE] and full[ba.NE] == full[ba.SW]
    report.check("shear-direction-equivalences", "pass" if equiv else "fail")
    try:
        value, want = shear_semantics(B)
        report.check("universal-shear-image",
                     "pass" if value == want else "fail")
    except EvaluationError as e:
        report.check("universal-shear-image", "fail", str(e))


def cmd_antipode(args, report: Report) -> None:
    B = load_bialgebra(args.bialgebra)
    for axiom in ba.check_bialgebra(B):
        if not axiom.holds:
            report.check(f"axiom:{axiom.name}", "fail", axiom.witness)
    try:
        hd = ba.antipode(B)
    except ba.NoAntipode as e:
        report.payload["hopf"] = False
        report.check("antipode", "pass",
                     f"not Hopf: kernel dimension {len(e.kernel)}")
        return
    report.payload["hopf"] = True
    report.payload["antipode"] = [[B.field.show(hd.S[i, j])
                                   for j in range(B.n)] for i in range(B.n)]
    report.payload["antipode_invertible"] = hd.S_inv is not None
    conv = ba.convolution_inverse(B)
    report.check("convolution-oracle", "pass" if conv == hd.S else "fail")
    try:
        from_int = ba.antipode_from_integrals(B)
        report.check("integral-formula",
                     "pass" if from_int == hd.S else "fail")
    except ba.IntegralConditionError as e:
        report.check("integral-formula", "unknown", str(e))


def cmd_integrals(args, report: Report) -> None:
    B = load_bialgebra(args.bialgebra)
    data = ba.integrals(B)
    report.payload["integral_dimension"] = len(data.left_integrals)
    report.payload["cointegral_dimension"] = len(data.left_cointegrals)
    if data.pairing is not None:
        report.payload["pairing"] = B.field.show(data.pairing)
    report.check("integrals-computed", "pass")


def cmd_reconstruct(args, report: Report) -> None:
    """A document with a `bialgebra` key is a comodule family; a fixture
    name or any other document is a bialgebra, round-tripped."""
    doc = None
    if args.family not in FIXTURE_BUILDERS:
        with open(args.family, "r", encoding="utf-8") as fh:
            doc = shape.loads(fh.read())
    if not (isinstance(doc, dict) and "bialgebra" in doc):
        B = load_bialgebra(args.family) if doc is None \
            else ba.bialgebra_from_json(doc)
        rt = round_trip(B)
        report.payload["verdict"] = rt.verdict
        report.payload["hopf"] = [rt.reference_hopf, rt.reconstruction_hopf]
        report.check("round-trip",
                     "pass" if rt.verdict == "isomorphism" else "fail",
                     "; ".join(rt.details))
        report.check("hopf-flags-agree",
                     "pass" if rt.flags_agree() else "fail")
        return
    spec = shape.get(doc, "bialgebra", (str, dict), "family")
    B = load_bialgebra(spec) if isinstance(spec, str) \
        else ba.bialgebra_from_json(spec)
    members = []
    for i, c in enumerate(shape.get(doc, "comodules", list, "family")):
        where = f"comodule {i}"
        c = shape.obj(c, where)
        rho = Matrix.from_rows(B.field, shape.rows(c, "rho", where))
        members.append(Comodule(B, shape.get(c, "dim", int, where), rho))
    res = coend_reconstruct(GeneratingFamily(members), reference=B)
    report.payload["verdict"] = res.verdict
    report.payload["coend_dim"] = res.bialgebra.n
    report.check("reconstruction",
                 "pass" if res.verdict == "isomorphism" else "fail",
                 "; ".join(res.details))


def cmd_proof_skeleton(args, report: Report) -> None:
    rep = proof_skeleton_check(budget=args.budget)
    report.check("chain-composable",
                 "pass" if rep.chain_composable else "fail")
    report.check("total-boundary-matches-shear",
                 "pass" if rep.boundary_match else "fail")
    report.check("hexagon-closes", "pass" if rep.hexagon_closes else "fail")
    need = {"L": 2, "R": 2, "4-cell": 1, "collapse-trivial": 1}
    for kind, minimum in need.items():
        got = rep.table.get(kind, 0)
        report.check(f"classification:{kind}",
                     "pass" if got >= minimum else "fail", f"count {got}")
    report.payload["classification_table"] = rep.table
    report.payload["steps"] = [
        {"label": s.label, "class": s.classification} for s in rep.steps]
    for f in rep.failures:
        report.check("failure", "fail", f)


# name: (help, positional and optional arguments, handler)
COMMANDS = {
    "census": ("per-dimension generator counts", "presentation", cmd_census),
    "gray": ("lax tensor product of two presentations",
             "left right --out --dot", cmd_gray),
    "smash": ("pointed smash collapse of a tensor",
              "left left_point right right_point --out --dot", cmd_smash),
    "shear-check": ("axioms, shear ranks, and shear semantics", "bialgebra",
                    cmd_shear_check),
    "antipode": ("antipode by shear and by oracle", "bialgebra", cmd_antipode),
    "integrals": ("integral and cointegral spaces", "bialgebra",
                  cmd_integrals),
    "reconstruct": ("coend reconstruction or a round trip", "family",
                    cmd_reconstruct),
    "proof-skeleton": ("factorization chain in the whiskered square", "",
                       cmd_proof_skeleton),
}
ARGUMENT_HELP = {"family": "family JSON, bialgebra JSON, or fixture"}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: help, usage and error text."""
    ap = argparse.ArgumentParser(
        prog="hopfsmith",
        description="workbench for walking structures, lax tensor squares, "
                    "and exact Hopf-algebra checks")
    ap.add_argument("--json", action="store_true", help="machine output")
    ap.add_argument("--no-timing", action="store_true",
                    help="omit timing for byte-stable output")
    ap.add_argument("--budget", type=int, default=None,
                    help="rewrite search budget: one unit per search "
                         "state expanded or rule window tried, Unknown when "
                         "it runs out (default HOPFSMITH_BUDGET or "
                         f"{default_budget()})")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, arguments, run) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for arg in arguments.split():
            sp.add_argument(arg, help=ARGUMENT_HELP.get(arg))
        sp.set_defaults(run=run)
    return ap


def read_argv(argv: List[str]) -> Optional[argparse.Namespace]:
    """build_parser().parse_args(argv) when argv is --json, --no-timing and
    --budget DIGITS, each at most once, then a subcommand, its positionals
    and at most one of each of its options; else None, for the parser."""
    args = argparse.Namespace(json=False, no_timing=False, budget=None)
    options = {"--json": bool, "--no-timing": bool, "--budget": int}
    names, values, tokens = None, [], iter(argv)
    for token in tokens:
        if token in options:
            read = options.pop(token)
            value = "on" if read is bool else next(tokens, "-")
            if value[:1] == "-" or read is int and not (
                    value.isascii() and value.isdigit() and len(value) < 19):
                return None  # int() reads 18 digits under any digit limit
            vars(args)[token[2:].replace("-", "_")] = read(value)
        elif token[:1] == "-" or names is None and token not in COMMANDS:
            return None
        elif names is None:
            args.command, (_, arguments, args.run) = token, COMMANDS[token]
            names = [a for a in arguments.split() if a[0] != "-"]
            options = {a: str for a in arguments.split() if a[0] == "-"}
            vars(args).update(dict.fromkeys(a[2:] for a in options))
        else:
            values.append(token)
    if names is None or len(values) != len(names):
        return None
    return argparse.Namespace(**vars(args), **dict(zip(names, values)))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = read_argv(argv) or build_parser().parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0,) else 0
    report = Report(["hopfsmith"] + list(argv), timing=not args.no_timing)
    try:
        args.run(args, report)
    except (OSError, json.JSONDecodeError, shape.ShapeError) as e:
        print(f"hopfsmith: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (TermError, FieldError, ba.BialgebraError, ClosureError,
            ValueError) as e:
        report.check("error", "fail", str(e))
    except RecursionError:  # the term walks that still recurse
        report.check("error", "fail", "term nested too deeply")
    try:
        report.emit(args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module's documentation: what is still
        # buffered goes to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_EXIT
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
