"""Presentations: stratified generators, relations, and validation.

The JSON format is pinned for interchange:

    {"maxDim": n,
     "generators": [{"name", "dim", "src", "tgt", "invertible"}],
     "relations":  [{"dim", "lhs", "rhs", "oriented"}]}

with src/tgt/lhs/rhs as S-expression strings.  parse -> print -> parse
is the identity on the nose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .terms import (CellTerm, Gen, Signature, SOURCE, TARGET, TermError,
                    boundary, dim, generators, normalize, parse_term,
                    print_term, top_boundary)

MAX_DIM = 4


@dataclass(frozen=True)
class Generator:
    name: str
    dim: int
    src: Optional[CellTerm]  # None exactly in dimension 0
    tgt: Optional[CellTerm]
    invertible: bool = False


@dataclass(frozen=True)
class Relation:
    dim: int
    lhs: CellTerm
    rhs: CellTerm
    oriented: bool = False  # oriented relations are rewrite rules lhs -> rhs


@dataclass
class Presentation:
    max_dim: int
    gens: Dict[str, Generator] = field(default_factory=dict)
    relations: List[Relation] = field(default_factory=list)
    # memo tables, dropped by _invalidate on every add and relate
    _sig: Optional[Signature] = field(default=None, repr=False, compare=False)
    _words: Dict[str, tuple] = field(default_factory=dict, repr=False,
                                     compare=False)

    # -- construction -------------------------------------------------

    def add(self, name: str, d: int, src: Optional[CellTerm] = None,
            tgt: Optional[CellTerm] = None, invertible: bool = False) -> Gen:
        if name in self.gens:
            raise TermError(f"duplicate generator {name!r}")
        if d > self.max_dim:
            raise TermError(f"generator {name!r} exceeds maxDim {self.max_dim}")
        self.gens[name] = Generator(name, d, src, tgt, invertible)
        self._invalidate()
        return Gen(name)

    def relate(self, d: int, lhs: CellTerm, rhs: CellTerm,
               oriented: bool = False) -> None:
        self.relations.append(Relation(d, lhs, rhs, oriented))
        self._invalidate()

    def _invalidate(self) -> None:
        self._sig = None
        self._words = {}

    # -- views ---------------------------------------------------------

    @property
    def sig(self) -> Signature:
        if self._sig is None:
            self._sig = Signature({g.name: (g.dim, g.src, g.tgt)
                                   for g in self.gens.values()})
        return self._sig

    def boundary_words(self, name: str) -> tuple:
        """(source word, target word) of a generator of dimension >= 2, as
        computed by rewriting.word_of; memoized until the next mutation."""
        try:
            return self._words[name]
        except KeyError:
            from .rewriting import word_of
            g = self.gens[name]
            pair = (word_of(g.src, self), word_of(g.tgt, self))
            self._words[name] = pair
            return pair

    def gens_of_dim(self, d: int) -> List[Generator]:
        return [g for g in self.gens.values() if g.dim == d]

    def census(self) -> Tuple[int, ...]:
        """Per-dimension generator counts, up to the top occupied dimension."""
        top = max([g.dim for g in self.gens.values()], default=0)
        return tuple(len(self.gens_of_dim(d)) for d in range(top + 1))

    def invertible_names(self) -> set:
        return {g.name for g in self.gens.values() if g.invertible}

    def dim(self, t: CellTerm) -> int:
        return dim(t, self.sig)

    def boundary(self, t: CellTerm, side: str, k: int) -> CellTerm:
        return boundary(t, side, k, self.sig)

    def src(self, t: CellTerm) -> CellTerm:
        return top_boundary(t, SOURCE, self.sig)

    def tgt(self, t: CellTerm) -> CellTerm:
        return top_boundary(t, TARGET, self.sig)

    def normalize(self, t: CellTerm, push_inv: bool = True) -> CellTerm:
        return normalize(t, self.sig, push_inv)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "maxDim": self.max_dim,
            "generators": [
                {"name": g.name, "dim": g.dim,
                 "src": print_term(g.src) if g.src is not None else None,
                 "tgt": print_term(g.tgt) if g.tgt is not None else None,
                 "invertible": g.invertible}
                for g in self.gens.values()],
            "relations": [
                {"dim": r.dim, "lhs": print_term(r.lhs),
                 "rhs": print_term(r.rhs), "oriented": r.oriented}
                for r in self.relations],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        p = cls(max_dim=data["maxDim"])
        for g in data["generators"]:
            p.add(g["name"], g["dim"],
                  parse_term(g["src"]) if g.get("src") else None,
                  parse_term(g["tgt"]) if g.get("tgt") else None,
                  bool(g.get("invertible", False)))
        for r in data.get("relations", []):
            p.relate(r["dim"], parse_term(r["lhs"]), parse_term(r["rhs"]),
                     bool(r.get("oriented", False)))
        return p

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Presentation":
        return cls.from_json(json.loads(text))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    where: str   # generator or relation identifier
    issue: str


def validate_term(t: CellTerm, p: Presentation) -> List[Violation]:
    """Structural checks on a term: known generators, legal dimensions,
    boundary-compatible composites (up to Id-normal syntactic match),
    Inv restricted to invertible-marked content."""
    out: List[Violation] = []
    sig = p.sig
    try:
        d = dim(t, sig)
    except TermError as e:
        return [Violation("term", str(e))]
    if d > p.max_dim:
        out.append(Violation("term", f"dimension {d} exceeds maxDim"))
    invertibles = p.invertible_names()
    out.extend(_validate_rec(t, p, invertibles))
    return out


def _validate_rec(t, p, invertibles) -> List[Violation]:
    from .terms import Comp, Id as IdT, Inv as InvT
    out: List[Violation] = []
    if isinstance(t, Gen):
        if t.name not in p.gens:
            out.append(Violation("term", f"unknown generator {t.name!r}"))
        return out
    if isinstance(t, IdT):
        return _validate_rec(t.inner, p, invertibles)
    if isinstance(t, InvT):
        for name in generators(t.inner):
            if name not in invertibles:
                out.append(Violation(
                    "term", f"Inv over non-invertible generator {name!r}"))
        return out + _validate_rec(t.inner, p, invertibles)
    assert isinstance(t, Comp)
    out.extend(_validate_rec(t.left, p, invertibles))
    out.extend(_validate_rec(t.right, p, invertibles))
    if out:
        return out
    sig = p.sig
    lt = normalize(boundary(t.left, TARGET, t.k, sig), sig)
    rs = normalize(boundary(t.right, SOURCE, t.k, sig), sig)
    if not _boundary_match(lt, rs, p):
        out.append(Violation(
            "term",
            f"composition mismatch at level {t.k}: "
            f"{print_term(lt)} vs {print_term(rs)}"))
    return out


def _boundary_match(a: CellTerm, b: CellTerm, p: Presentation) -> bool:
    """Cheap boundary agreement test used during validation; final
    authority is eq() in rewriting, which compose() consults."""
    if a == b:
        return True
    from .rewriting import eq, EQ_DISTINCT
    return eq(a, b, p) is not EQ_DISTINCT


def validate_presentation(p: Presentation) -> List[Violation]:
    """Every violation of dimension stratification, parallelism, or
    globularity in the generator and relation data.  Empty iff valid."""
    out: List[Violation] = []
    sig = p.sig
    for g in p.gens.values():
        if g.dim == 0:
            if g.src is not None or g.tgt is not None:
                out.append(Violation(g.name, "0-generator with boundary"))
            continue
        if g.src is None or g.tgt is None:
            out.append(Violation(g.name, "missing boundary"))
            continue
        for side_name, side_term in (("src", g.src), ("tgt", g.tgt)):
            try:
                d = dim(side_term, sig)
            except TermError as e:
                out.append(Violation(g.name, f"{side_name}: {e}"))
                continue
            if d != g.dim - 1:
                out.append(Violation(
                    g.name, f"{side_name} has dimension {d}, expected {g.dim - 1}"))
            for name in generators(side_term):
                if name in p.gens and p.gens[name].dim >= g.dim:
                    out.append(Violation(
                        g.name,
                        f"{side_name} mentions {name!r} of dimension >= {g.dim}"))
        if out:
            continue
        if g.dim >= 2:
            # parallelism: src and tgt share each lower boundary
            for k in range(g.dim - 1):
                for side in (SOURCE, TARGET):
                    try:
                        bs = normalize(boundary(g.src, side, k, sig), sig)
                        bt = normalize(boundary(g.tgt, side, k, sig), sig)
                    except TermError as e:
                        out.append(Violation(g.name, str(e)))
                        break
                    if not _boundary_match(bs, bt, p):
                        out.append(Violation(
                            g.name, f"src/tgt not parallel at level {k}"))
    for i, r in enumerate(p.relations):
        label = f"relation#{i}"
        for side_name, side_term in (("lhs", r.lhs), ("rhs", r.rhs)):
            out.extend(Violation(label, f"{side_name}: {v.issue}")
                       for v in validate_term(side_term, p))
        if any(v.where == label for v in out):
            continue
        if dim(r.lhs, sig) != r.dim or dim(r.rhs, sig) != r.dim:
            out.append(Violation(label, "stated dimension disagrees with sides"))
            continue
        for k in range(r.dim):
            for side in (SOURCE, TARGET):
                bs = normalize(boundary(r.lhs, side, k, sig), sig)
                bt = normalize(boundary(r.rhs, side, k, sig), sig)
                if not _boundary_match(bs, bt, p):
                    out.append(Violation(label, f"sides not parallel at level {k}"))
    return out
