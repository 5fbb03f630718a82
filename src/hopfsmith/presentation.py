"""Presentations: stratified generators, relations, and validation.

The JSON format is pinned for interchange:

    {"maxDim": n,
     "generators": [{"name", "dim", "src", "tgt", "invertible"}],
     "relations":  [{"dim", "lhs", "rhs", "oriented"}]}

with src/tgt/lhs/rhs as S-expression strings.  parse -> print -> parse
is the identity on the nose.  `dumps` writes this format directly, one
record per generator and per relation, byte for byte as json.dumps(...,
indent=1, sort_keys=True) writes the same record; the tests check it
against that call.

A presentation's `gens` is the generator table that `dim`, `normalize`
and `top_boundary` in `terms` read.  Unlike the records here and
elsewhere (`record.Record`), a presentation is built in place, by `add`
and `relate`, and freezes at its first query: reading one of its derived
tables (the normal faces, the boundary words or the interchange kernel),
which every search, every boundary certificate and every boundary query
that reads a generator's face does, makes any later `add` or `relate`
raise TermError, so no table is ever stale.  `add` refuses a generator
name that the term syntax cannot write: an empty one, or one holding
whitespace or a parenthesis.
`boundary`, `src` and `tgt` iterate the one boundary walk,
`terms.top_boundary`, over the normal face table, so every boundary they
give is normal.  `PresMorphism` maps the terms of one presentation to
another, generator by generator.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from . import jsonshape as shape
from .interchange import AtomTable
from .record import Record
from .rewriting import (EQ_DISTINCT, EQ_EQUAL, composable, default_budget,
                        parallel, word_of)
from .terms import (MAX_DIM, CellTerm, Comp, Gen, Generator, SOURCE,
                    TARGET, TermError, dim, generators, illegal_inverses,
                    normal_dim, normalize, parse_term, print_term,
                    substitute, top_boundary)


class Relation(Record):
    # oriented relations are rewrite rules lhs -> rhs
    __slots__ = ("dim", "lhs", "rhs", "oriented")

    def __init__(self, dim: int, lhs: CellTerm, rhs: CellTerm,
                 oriented: bool = False):
        _set_rel_dim(self, dim)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_oriented(self, oriented)


_set_rel_dim = Relation.dim.__set__
_set_lhs = Relation.lhs.__set__
_set_rhs = Relation.rhs.__set__
_set_oriented = Relation.oriented.__set__

# what a generator name may not hold: the term syntax splits its tokens
# at whitespace and parentheses
_UNWRITABLE = re.compile(r"[\s()]")


class Presentation:
    """The one mutable value: `add` and `relate` build it until its first
    query freezes it.  Like a list, it does not hash."""

    def __init__(self, max_dim: int,
                 gens: Optional[Dict[str, Generator]] = None,
                 relations: Optional[List[Relation]] = None):
        self.max_dim = max_dim
        self.gens = {} if gens is None else gens
        self.relations = [] if relations is None else relations
        # the derived tables, each entry made on first use: normal faces
        # (None for an ill-formed one), boundary words, and the interchange
        # kernel of 2-cell searches.  Reading one freezes the presentation.
        self._faces: Dict[Tuple[str, str], Optional[CellTerm]] = {}
        self._words: Dict[str, tuple] = {}
        self._kernel: Optional[AtomTable] = None
        self._frozen = False

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.max_dim, self.gens, self.relations) == (
            other.max_dim, other.gens, other.relations)

    def __repr__(self) -> str:
        return (f"Presentation(max_dim={self.max_dim!r}, gens={self.gens!r}, "
                f"relations={self.relations!r})")

    def __getstate__(self) -> dict:
        # copies and pickles keep the freeze, leave out the derived kernel
        # and its lock, and own their tables: a shallow copy that grows
        # must not grow the original, nor read faces the original reads
        return {**self.__dict__, "gens": dict(self.gens),
                "relations": list(self.relations),
                "_faces": dict(self._faces), "_words": dict(self._words),
                "_kernel": None}

    # -- construction -------------------------------------------------

    def add(self, name: str, d: int, src: Optional[CellTerm] = None,
            tgt: Optional[CellTerm] = None, invertible: bool = False) -> Gen:
        self._check_unfrozen()
        if name in self.gens:
            raise TermError(f"duplicate generator {name!r}")
        if not name or _UNWRITABLE.search(name):
            raise TermError(f"generator name {name!r} is empty or holds a "
                            "space or a parenthesis")
        if d < 0:
            raise TermError(f"generator {name!r} has negative dimension {d}")
        if d > self.max_dim:
            raise TermError(f"generator {name!r} exceeds maxDim {self.max_dim}")
        if d > MAX_DIM:
            raise TermError(
                f"generator {name!r} exceeds the dimension cap {MAX_DIM}")
        self.gens[name] = Generator(name, d, src, tgt, invertible)
        return Gen(name)

    def relate(self, d: int, lhs: CellTerm, rhs: CellTerm,
               oriented: bool = False) -> None:
        self._check_unfrozen()
        self.relations.append(Relation(d, lhs, rhs, oriented))

    def _check_unfrozen(self) -> None:
        if self._frozen:
            raise TermError("a presentation is frozen once it is queried")

    # -- views: each freezes the presentation ----------------------------

    def kernel(self) -> AtomTable:
        """The interchange kernel that 2-cell searches share, made on first
        use.  Two first searches at once each make one and run on their
        own, and one of the two is kept."""
        self._frozen = True
        table = self._kernel
        if table is None:
            table = self._kernel = AtomTable()
        return table

    def normal_face(self, name: str, side: str) -> Optional[CellTerm]:
        """The normal form of a generator's source or target, normalized
        once.  None when it is ill-formed or not of the dimension below the
        generator's; TermError when the generator is unknown or has no
        boundary."""
        self._frozen = True
        try:
            return self._faces[name, side]
        except KeyError:
            pass
        if name not in self.gens:
            raise TermError(f"unknown generator {name!r}")
        g = self.gens[name]
        b = g.src if side == SOURCE else g.tgt
        if b is None:
            raise TermError(f"generator {name!r} has no boundary")
        try:
            face, d = normal_dim(b, self.gens)
        except TermError:
            face = d = None
        face = self._faces[name, side] = face if d == g.dim - 1 else None
        return face

    def boundary_words(self, name: str) -> tuple:
        """(source word, target word) of a 2-generator, read by
        rewriting.word_of from its normal faces, once per generator.
        TermError for any other generator, or a face that is not a word."""
        try:
            return self._words[name]
        except KeyError:
            faces = [self._face(name, side) for side in (SOURCE, TARGET)]
            pair = self._words[name] = tuple(word_of(f, self) for f in faces)
            return pair

    def _face(self, name: str, side: str) -> CellTerm:
        """normal_face, with TermError naming the generator when its face
        is ill-formed."""
        face = self.normal_face(name, side)
        if face is None:
            raise TermError(f"a face of {name!r} is ill-formed")
        return face

    def gens_of_dim(self, d: int) -> List[Generator]:
        return [g for g in self.gens.values() if g.dim == d]

    def census(self) -> Tuple[int, ...]:
        """Per-dimension generator counts, up to the top occupied dimension."""
        top = max([g.dim for g in self.gens.values()], default=0)
        return tuple(len(self.gens_of_dim(d)) for d in range(top + 1))

    def dim(self, t: CellTerm) -> int:
        return dim(t, self.gens)

    def boundary(self, t: CellTerm, side: str, k: int,
                 d: Optional[int] = None) -> CellTerm:
        """The k-dimensional source or target of t, for 0 <= k < dim(t) = d,
        normal: the boundary walk, once per level from d down to k + 1,
        over the normal face table, whose first read freezes the
        presentation.  TermError when t is ill-formed, k is out of range,
        or a face the boundary needs is missing or ill-formed."""
        d = dim(t, self.gens) if d is None else d
        if not 0 <= k < d:
            raise TermError(
                f"boundary level {k} out of range for dimension {d}")
        for level in range(d, k, -1):
            t = top_boundary(t, side, level, self.gens, self._face)
        return t

    def src(self, t: CellTerm) -> CellTerm:
        return top_boundary(t, SOURCE, dim(t, self.gens), self.gens, self._face)

    def tgt(self, t: CellTerm) -> CellTerm:
        return top_boundary(t, TARGET, dim(t, self.gens), self.gens, self._face)

    def normalize(self, t: CellTerm, push_inv: bool = True) -> CellTerm:
        return normalize(t, self.gens, push_inv)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        """Raises jsonshape.ShapeError when data is not shaped like the
        pinned format, TermError when a term does not parse or add refuses
        a generator."""
        data = shape.obj(data, "presentation")
        p = cls(max_dim=shape.get(data, "maxDim", int, "presentation"))
        for i, g in enumerate(shape.get(data, "generators", list,
                                        "presentation")):
            where = f"generator {i}"
            g = shape.obj(g, where)
            src, tgt = (shape.get(g, side, (str, type(None)), where, None)
                        for side in ("src", "tgt"))
            p.add(shape.get(g, "name", str, where),
                  shape.get(g, "dim", int, where),
                  parse_term(src) if src else None,
                  parse_term(tgt) if tgt else None,
                  shape.get(g, "invertible", bool, where, False))
        for i, r in enumerate(shape.get(data, "relations", list,
                                        "presentation", [])):
            where = f"relation {i}"
            r = shape.obj(r, where)
            p.relate(shape.get(r, "dim", int, where),
                     parse_term(shape.get(r, "lhs", str, where)),
                     parse_term(shape.get(r, "rhs", str, where)),
                     shape.get(r, "oriented", bool, where, False))
        return p

    def dumps(self) -> str:
        """The pinned JSON, byte for byte as json.dumps(..., indent=1,
        sort_keys=True) writes the same record, written directly: one record
        per generator and per relation, keys in sorted order, strings
        through json's C string encoder (under an indent json itself falls
        back to its pure-Python encoder)."""
        gens = [_GENERATOR % (_scalar(g.dim), _scalar(g.invertible),
                              _STR(g.name), _side(g.src), _side(g.tgt))
                for g in self.gens.values()]
        rels = [_RELATION % (_scalar(r.dim), _STR(print_term(r.lhs)),
                             _scalar(r.oriented), _STR(print_term(r.rhs)))
                for r in self.relations]
        return (f'{{\n "generators": {_records(gens)},\n'
                f' "maxDim": {_scalar(self.max_dim)},\n'
                f' "relations": {_records(rels)}\n}}')

    @classmethod
    def loads(cls, text: str) -> "Presentation":
        return cls.from_json(json.loads(text))


class PresMorphism(Record):
    """A map of presentations: each generator of the domain goes to a term
    of the codomain of the same dimension, with images of boundaries
    matching boundaries of images."""
    __slots__ = ("domain", "codomain", "assignment")

    def push(self, t: CellTerm) -> CellTerm:
        """The normal image of t.  TermError when t names a generator
        outside the assignment."""
        try:
            image = substitute(t, self.assignment.__getitem__)
        except KeyError as e:
            raise TermError(f"unknown generator {e.args[0]!r}") from None
        return self.codomain.normalize(image)


_STR = json.encoder.encode_basestring_ascii

# one record of each list, indented as json.dumps(indent=1) nests it
_GENERATOR = ('  {\n   "dim": %s,\n   "invertible": %s,\n   "name": %s,\n'
              '   "src": %s,\n   "tgt": %s\n  }')
_RELATION = ('  {\n   "dim": %s,\n   "lhs": %s,\n   "oriented": %s,\n'
             '   "rhs": %s\n  }')


def _records(items: List[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def _side(t: Optional[CellTerm]) -> str:
    return "null" if t is None else _STR(print_term(t))


def _scalar(v) -> str:
    """An integer, a boolean or null as json writes it."""
    return ("null" if v is None else "true" if v is True
            else "false" if v is False else int.__repr__(v))


# ---------------------------------------------------------------------------
# validation


class Violation(Record):
    # where: a generator or relation identifier; undecided: eq ran out of
    # budget, so the data may be valid
    __slots__ = ("where", "issue", "undecided")

    def __init__(self, where: str, issue: str, undecided: bool = False):
        _set_where(self, where)
        _set_issue(self, issue)
        _set_undecided(self, undecided)


_set_where = Violation.where.__set__
_set_issue = Violation.issue.__set__
_set_undecided = Violation.undecided.__set__


def validate_term(t: CellTerm, p: Presentation,
                  budget: Optional[int] = None) -> List[Violation]:
    """Structural checks on a term: known generators, legal dimensions,
    boundary-compatible composites (up to eq within the step budget),
    Inv restricted to invertible-marked content, each offending
    occurrence reported once."""
    budget = default_budget() if budget is None else budget
    try:
        d = dim(t, p.gens)
    except TermError as e:
        return [Violation("term", str(e))]
    out = ([Violation("term", f"dimension {d} exceeds maxDim")]
           if d > p.max_dim else [])
    out += [Violation("term", f"Inv over non-invertible generator {name!r}")
            for name in illegal_inverses(t, p.gens)]
    return out + _validate_rec(t, p, budget)


def _validate_rec(t, p, budget) -> List[Violation]:
    """The composites of t whose parts do not compose, innermost first;
    a composite is checked only when its parts passed."""
    if t.__class__ is Gen:
        return []
    if t.__class__ is not Comp:
        return _validate_rec(t.inner, p, budget)
    out = _validate_rec(t.left, p, budget) + _validate_rec(t.right, p, budget)
    if out:
        return out
    try:
        v, lt, rs = composable(t.k, t.left, t.right, p, budget)
    except TermError as e:
        return [Violation("term", str(e))]
    if v is not EQ_EQUAL:
        word = "mismatch" if v is EQ_DISTINCT else "undecided"
        out.append(Violation("term", f"composition {word} at level {t.k}: "
                             f"{print_term(lt)} vs {print_term(rs)}",
                             v is not EQ_DISTINCT))
    return out


def _parallel_violations(where: str, a: CellTerm, b: CellTerm, d: int,
                         what: str, p: Presentation,
                         budget) -> List[Violation]:
    """A violation when a and b, well-formed terms of dimension d, are not
    parallel, naming the lowest level that differs (undecided when eq
    cannot tell within the budget), or a boundary cannot be taken."""
    try:
        v, level = parallel(a, b, p, budget, d)
    except TermError as e:
        return [Violation(where, str(e))]
    if v is EQ_EQUAL:
        return []
    if v is EQ_DISTINCT:
        return [Violation(where, f"{what} not parallel at level {level}")]
    return [Violation(where, f"{what} parallel undecided", True)]


def validate_presentation(p: Presentation,
                          budget: Optional[int] = None) -> List[Violation]:
    """Every violation of dimension stratification, parallelism, or
    globularity in the generator and relation data, undecided where eq
    cannot tell within the step budget (eq's default).  Empty iff valid.
    The certificate of each generator and relation takes the dimension
    its sides were checked at, and reads the presentation's normal
    generator faces."""
    budget = default_budget() if budget is None else budget
    out: List[Violation] = []
    gens = p.gens
    for g in gens.values():
        if g.dim == 0:
            if g.src is not None or g.tgt is not None:
                out.append(Violation(g.name, "0-generator with boundary"))
            continue
        if g.src is None or g.tgt is None:
            out.append(Violation(g.name, "missing boundary"))
            continue
        found = len(out)
        sides = []
        for side_name, side_term in (("src", g.src), ("tgt", g.tgt)):
            try:
                d = dim(side_term, gens)
            except TermError as e:
                out.append(Violation(g.name, f"{side_name}: {e}"))
                continue
            sides.append(side_term)
            if d == g.dim - 1:
                # a well-formed term of dimension d mentions no generator
                # of a higher dimension
                continue
            out.append(Violation(
                g.name, f"{side_name} has dimension {d}, expected {g.dim - 1}"))
            for name in generators(side_term):
                if name in gens and gens[name].dim >= g.dim:
                    out.append(Violation(
                        g.name,
                        f"{side_name} mentions {name!r} of dimension >= {g.dim}"))
        if len(out) == found:
            out.extend(_parallel_violations(g.name, *sides, g.dim - 1,
                                            "src/tgt", p, budget))
    for i, r in enumerate(p.relations):
        label = f"relation#{i}"
        found = len(out)
        for side_name, side_term in (("lhs", r.lhs), ("rhs", r.rhs)):
            out.extend(Violation(label, f"{side_name}: {v.issue}",
                                 v.undecided)
                       for v in validate_term(side_term, p, budget))
        if len(out) > found:
            continue
        if dim(r.lhs, gens) != r.dim or dim(r.rhs, gens) != r.dim:
            out.append(Violation(label, "stated dimension disagrees with sides"))
            continue
        out.extend(_parallel_violations(label, r.lhs, r.rhs, r.dim, "sides",
                                        p, budget))
    return out
