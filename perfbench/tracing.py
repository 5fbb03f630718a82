"""Per-layer tracing by wrapping public functions from outside the program.

`Tracer.install()` replaces each listed function, in every module namespace
that holds it, by a wrapper.  A span wrapper records (name, start, end,
parent) and counts calls; a count wrapper only counts, for hot leaves where
a timer would cost more than the work.  Field operations are counted
against the innermost open span, so a ratio such as multiplications per
dense matmul is measured where the work happens.  `uninstall()` puts the
originals back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

from hopfsmith import (bialgebra, cli, comodule, evaluate, field, gray,
                       mates, matrix, presentation, reconstruct, rewriting,
                       shear, terms, walking)

# (metric prefix, owner, attribute); owner is a module or a class
SPANS = [
    ("rewriting.eq", rewriting, "eq"),
    ("rewriting.stack_of", rewriting, "stack_of"),
    ("rewriting.canonical_stack", rewriting, "canonical_stack"),
    ("presentation.loads", presentation.Presentation, "loads"),
    ("presentation.validate_presentation", presentation, "validate_presentation"),
    ("terms.parse_term", terms, "parse_term"),
    ("terms.print_term", terms, "print_term"),
    ("gray.gray", gray, "gray"),
    ("gray.smash", gray, "smash"),
    ("mates.hopf_square_terms", mates, "hopf_square_terms"),
    ("mates.double_mate", mates, "double_mate"),
    ("mates.check_zigzags", mates.AdjunctionRecord, "check_zigzags"),
    ("shear.proof_skeleton_check", shear, "proof_skeleton_check"),
    ("evaluate.evaluate_diagram", evaluate, "evaluate_diagram"),
    ("matrix.matmul", matrix.Matrix, "__matmul__"),
    ("matrix.kron", matrix.Matrix, "kron"),
    ("matrix.rref", matrix.Matrix, "rref"),
    ("bialgebra.check_bialgebra", bialgebra, "check_bialgebra"),
    ("bialgebra.antipode", bialgebra, "antipode"),
    ("bialgebra.integrals", bialgebra, "integrals"),
    ("bialgebra.shear", bialgebra, "shear"),
    ("bialgebra.convolution_inverse", bialgebra, "convolution_inverse"),
    ("comodule.comodule_hom", comodule, "comodule_hom"),
    ("reconstruct.resolve", reconstruct, "resolve"),
    ("reconstruct.coend_reconstruct", reconstruct, "coend_reconstruct"),
    ("cli.main", cli, "main"),
] + [("walking.build", walking, name) for name in (
    "point", "empty", "globe", "boundary_globe", "suspend", "mnd", "adj",
    "oriental2", "e_oriental2")]

COUNTS = [
    ("rewriting.word_of", rewriting, "word_of"),
    ("rewriting.compose", rewriting, "compose"),
    ("presentation.normalize", presentation.Presentation, "normalize"),
    ("terms.normalize", terms, "normalize"),
    ("matrix.det", matrix.Matrix, "det"),
]

# metric group of each counted field method
FIELD_OPS = {"add": "ops", "sub": "ops", "mul": "ops", "neg": "ops",
             "inv": "inv", "is_zero": "is_zero"}
FIELDS = (("QQ", field.RationalField), ("NF", field.NumberField))

ROOT = "<root>"


def _modules():
    return [m for name, m in sys.modules.items()
            if name.startswith("hopfsmith") or name in ("workloads", "diagrams")]


class Tracer:
    def __init__(self):
        self.installed: List[tuple] = []
        self.spans: List[list] = []          # [name, start_ns, end_ns, parent]
        self.open: List[int] = []
        self.calls: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.kernel: Counter = Counter()     # computed sizes, not timings
        self.field_by_span: Dict[str, Counter] = defaultdict(Counter)
        self.top = self.field_by_span[ROOT]

    def reset(self) -> None:
        """Forget what was recorded; the installed wrappers keep working."""
        for store in (self.spans, self.open, self.calls, self.verdicts,
                      self.kernel, self.field_by_span):
            store.clear()
        self.top = self.field_by_span[ROOT]

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        calls, spans, open_ = self.calls, self.spans, self.open
        by_span = self.field_by_span
        kernel = KERNELS.get(name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if kernel is not None:
                kernel(tracer.kernel, args)
            parent = open_[-1] if open_ else -1
            record = [name, 0, 0, parent]
            open_.append(len(spans))
            spans.append(record)
            outer = tracer.top
            tracer.top = by_span[name]
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
                tracer.top = outer
            if name == "rewriting.eq":
                tracer.verdicts[result.name] += 1
            return result
        return wrapped

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _field(self, key: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.top[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self.installed.append((owner, attr, raw))
            return
        new = make(raw)
        for module in _modules():
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, new)
                    self.installed.append((module, key, raw))
                elif isinstance(value, dict):
                    # tables of builders, such as the CLI's presentations
                    for k, v in list(value.items()):
                        if v is raw:
                            value[k] = new
                            self.installed.append((value, k, raw))

    def install(self) -> None:
        for name, owner, attr in SPANS:
            self._replace(owner, attr, lambda fn, n=name: self._span(n, fn))
        for name, owner, attr in COUNTS:
            self._replace(owner, attr, lambda fn, n=name: self._count(n, fn))
        for label, cls in FIELDS:
            for op in FIELD_OPS:
                self._replace(cls, op, lambda fn, k=f"{label}.{op}":
                              self._field(k, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self.installed):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self.installed.clear()

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Span duration minus the part its direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, zero where the layer was idle."""
        selfs = self.self_seconds()
        calls = self.calls
        field_total: Counter = Counter()
        for counter in self.field_by_span.values():
            field_total.update(counter)
        in_matmul = self.field_by_span.get("matrix.matmul", Counter())
        mults = in_matmul["QQ.mul"] + in_matmul["NF.mul"]
        out = {
            "rewriting.word_of.calls": calls["rewriting.word_of"],
            "rewriting.eq.calls": calls["rewriting.eq"],
            "rewriting.eq.self_s": selfs["rewriting.eq"],
            "rewriting.eq.equal": self.verdicts["Equal"],
            "rewriting.eq.distinct": self.verdicts["Distinct"],
            "rewriting.eq.unknown": self.verdicts["Unknown"],
            "rewriting.compose.calls": calls["rewriting.compose"],
            "presentation.normalize.calls": calls["presentation.normalize"],
            "terms.normalize.calls": calls["terms.normalize"],
            "gray.gray.calls": calls["gray.gray"],
            "walking.build.self_s": selfs["walking.build"],
            "evaluate.evaluate_diagram.calls": calls["evaluate.evaluate_diagram"],
            "matrix.matmul.calls": calls["matrix.matmul"],
            "matrix.matmul.dense_mults": self.kernel["dense_mults"],
            "matrix.matmul.nonzero_share":
                mults / self.kernel["dense_mults"] if self.kernel["dense_mults"] else 0.0,
            "matrix.kron.calls": calls["matrix.kron"],
            "matrix.kron.out_entries": self.kernel["out_entries"],
            "matrix.rref.calls": calls["matrix.rref"],
            "matrix.rref.cells": self.kernel["cells"],
            "matrix.det.calls": calls["matrix.det"],
            "comodule.comodule_hom.calls": calls["comodule.comodule_hom"],
            "reconstruct.resolve.calls": calls["reconstruct.resolve"],
        }
        for name in ("rewriting.stack_of", "rewriting.canonical_stack"):
            out[f"{name}.calls"] = calls[name]
        for name, _, _ in SPANS:
            if name != "walking.build":
                out[f"{name}.self_s"] = selfs[name]
        for label, _ in FIELDS:
            for op, group in FIELD_OPS.items():
                key = f"field.{label}.{group}.calls"
                out[key] = out.get(key, 0) + field_total[f"{label}.{op}"]
        return out


def _matmul_size(kernel: Counter, args) -> None:
    a, b = args
    kernel["dense_mults"] += a.rows * a.cols * b.cols


def _kron_size(kernel: Counter, args) -> None:
    a, b = args
    kernel["out_entries"] += a.rows * b.rows * a.cols * b.cols


def _rref_size(kernel: Counter, args) -> None:
    (a,) = args
    kernel["cells"] += a.rows * a.cols


KERNELS = {"matrix.matmul": _matmul_size, "matrix.kron": _kron_size,
           "matrix.rref": _rref_size}
