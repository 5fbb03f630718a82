"""Seeded random 2-cell pairs with an independent oracle.

A diagram is a source word and a list of layers, each layer one atom
fired at an offset of the current word.  Pairs are made here, with their
own interchange and rule-insertion code, so the expected verdict is known
by construction and never read back from the program under test:

* an equal pair differs by legal swaps of disjoint adjacent layers and by
  inserting the left-hand side of an oriented rule where the other term
  has its right-hand side;
* a distinct pair lives over a signature without relations, where the two
  terms have different multisets of atoms, which no interchange changes.

Only `hopfsmith.terms` constructors are used to turn a diagram into a term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from hopfsmith.terms import Gen, Id, comp

Word = Tuple[str, ...]
Layer = Tuple[int, str]  # (offset, atom name)


@dataclass(frozen=True)
class Signature:
    """Boundary data of a 2-dimensional signature, written out by hand."""
    name: str
    objects: Dict[str, Tuple[str, str]]   # 1-cell letter -> (source, target)
    atoms: Dict[str, Tuple[Word, Word]]    # 2-cell atom -> (source, target)
    atom_object: Dict[str, str]            # object of an atom with empty source
    rules: Tuple[Tuple[Word, Tuple[Layer, ...], Tuple[Layer, ...]], ...]
    start_object: str


# random stacks stop growing their word past this many letters
MAX_WIDTH = 6


# The walking monad: one object, A, m: AA => A, u: id => A.  Rules are the
# oriented associativity and unit laws, given as (source word, lhs, rhs).
MND = Signature(
    name="mnd",
    objects={"A": ("pt", "pt")},
    atoms={"m": (("A", "A"), ("A",)), "u": ((), ("A",))},
    atom_object={"u": "pt"},
    rules=(
        (("A", "A", "A"), ((1, "m"), (0, "m")), ((0, "m"), (0, "m"))),
        (("A",), ((0, "u"), (0, "m")), ()),
        (("A",), ((1, "u"), (0, "m")), ()),
    ),
    start_object="pt",
)

# The walking adjunction l -| r: eps: r l => id_b, eta: id_a => l r, with
# the two snake-removal rules.
ADJ = Signature(
    name="adj",
    objects={"l": ("a", "b"), "r": ("b", "a")},
    atoms={"eps": (("r", "l"), ()), "eta": ((), ("l", "r"))},
    atom_object={"eta": "a"},
    rules=(
        (("r",), ((1, "eta"), (0, "eps")), ()),
        (("l",), ((0, "eta"), (1, "eps")), ()),
    ),
    start_object="a",
)

# The monad signature with its relations removed.
FREE = Signature(
    name="mnd-free",
    objects=MND.objects,
    atoms=MND.atoms,
    atom_object=MND.atom_object,
    rules=(),
    start_object="pt",
)


def object_at(sig: Signature, word: Word, i: int) -> str:
    obj = sig.start_object
    for letter in word[:i]:
        obj = sig.objects[letter][1]
    return obj


def fits(sig: Signature, word: Word, layer: Layer) -> bool:
    off, atom = layer
    src = sig.atoms[atom][0]
    if not 0 <= off <= len(word) - len(src):
        return False
    if src:
        return word[off:off + len(src)] == src
    return object_at(sig, word, off) == sig.atom_object[atom]


def fire(sig: Signature, word: Word, layer: Layer) -> Word:
    off, atom = layer
    src, tgt = sig.atoms[atom]
    return word[:off] + tgt + word[off + len(src):]


def words_along(sig: Signature, word: Word, layers: List[Layer]) -> List[Word]:
    out = [word]
    for layer in layers:
        if not fits(sig, out[-1], layer):
            raise ValueError(f"layer {layer} does not fit {out[-1]}")
        out.append(fire(sig, out[-1], layer))
    return out


def swaps(sig: Signature, a: Layer, b: Layer) -> List[Tuple[Layer, Layer]]:
    """Every reading of a-then-b as b'-then-a' by the interchange law."""
    (oa, na), (ob, nb) = a, b
    sa, ta = (len(w) for w in sig.atoms[na])
    sb, tb = (len(w) for w in sig.atoms[nb])
    out = []
    if ob >= oa + ta:        # b sits right of a's output
        out.append(((ob - ta + sa, nb), a))
    if ob + sb <= oa:        # b sits left of a's output
        out.append((b, (oa + tb - sb, na)))
    return out


def random_stack(rng: random.Random, sig: Signature, word: Word,
                 size: int) -> List[Layer]:
    layers: List[Layer] = []
    for _ in range(size):
        options = [(off, atom) for atom in sorted(sig.atoms)
                   for off in range(len(word) + 1)
                   if fits(sig, word, (off, atom))]
        growing = [o for o in options
                   if len(sig.atoms[o[1]][1]) > len(sig.atoms[o[1]][0])]
        if len(word) >= MAX_WIDTH:
            options = [o for o in options if o not in growing] or options
        layer = rng.choice(options)
        layers.append(layer)
        word = fire(sig, word, layer)
    return layers


def shuffle(rng: random.Random, sig: Signature, layers: List[Layer],
            times: int) -> List[Layer]:
    layers = list(layers)
    for _ in range(times):
        if len(layers) < 2:
            break
        i = rng.randrange(len(layers) - 1)
        readings = swaps(sig, layers[i], layers[i + 1])
        if readings:
            layers[i:i + 2] = rng.choice(readings)
    return layers


def insert_rule(rng: random.Random, sig: Signature, word: Word,
                size: int) -> Tuple[List[Layer], List[Layer]]:
    """A random stack of about `size` layers with a rule spliced in part
    way: its left-hand side on one copy, its right-hand side on the other.
    Both sides have the same target word, so the layers after the splice
    are shared."""
    k = rng.randint(0, size)
    head = random_stack(rng, sig, word, k)
    here = words_along(sig, word, head)[-1]
    places = [(off, src, lhs, rhs) for src, lhs, rhs in sig.rules
              for off in range(len(here) - len(src) + 1)
              if here[off:off + len(src)] == src]
    off, src, lhs, rhs = rng.choice(places)
    after = here[:off] + words_along(sig, src, list(lhs))[-1] \
        + here[off + len(src):]
    tail = random_stack(rng, sig, after, size - k)
    at = lambda side: [(o + off, a) for o, a in side]
    return head + at(lhs) + tail, head + at(rhs) + tail


def word_term(word: Word, obj: str):
    return comp(0, *(Gen(x) for x in word)) if word else Id(Gen(obj))


def to_term(sig: Signature, word: Word, layers: List[Layer]):
    """The 2-cell as a vertical composite of whiskered atoms."""
    if not layers:
        return Id(word_term(word, sig.start_object))
    rows = []
    for w, (off, atom) in zip(words_along(sig, word, layers), layers):
        src = sig.atoms[atom][0]
        parts = ([Id(Gen(x)) for x in w[:off]] + [Gen(atom)]
                 + [Id(Gen(x)) for x in w[off + len(src):]])
        rows.append(comp(0, *parts))
    return comp(1, *rows)


@dataclass(frozen=True)
class Pair:
    label: str
    signature: str
    expect: str          # "Equal" or "Distinct"
    left: object
    right: object


def start_word(rng: random.Random, sig: Signature) -> Word:
    word: Word = ()
    for _ in range(rng.randint(1, 3)):
        obj = object_at(sig, word, len(word))
        word += (rng.choice(sorted(x for x, (s, _) in sig.objects.items()
                                   if s == obj)),)
    return word


def make_pairs(seed: int, sizes: List[int]) -> List[Pair]:
    """For each size: an equal pair over mnd, one over adj, and an equal
    and a distinct pair over the relation-free monad signature."""
    rng = random.Random(seed)
    out: List[Pair] = []
    for i, n in enumerate(sizes):
        for sig in (MND, ADJ):
            w = start_word(rng, sig)
            lhs, rhs = insert_rule(rng, sig, w, n)
            left = shuffle(rng, sig, lhs, 3 * len(lhs))
            right = shuffle(rng, sig, rhs, 3 * len(rhs))
            out.append(Pair(f"{sig.name}-eq-{n}.{i}", sig.name, "Equal",
                            to_term(sig, w, left), to_term(sig, w, right)))
        w = start_word(rng, FREE)
        base = random_stack(rng, FREE, w, n)
        out.append(Pair(f"free-eq-{n}.{i}", FREE.name, "Equal",
                        to_term(FREE, w, base),
                        to_term(FREE, w, shuffle(rng, FREE, base, 3 * n))))
        # a unit-law redex is not a relation here: splicing one in changes
        # the multiset of atoms by one u and one m and keeps both boundaries
        k = rng.randrange(len(base) + 1)
        off = rng.randrange(len(words_along(FREE, w, base)[k]))
        extra = base[:k] + [(off, "u"), (off, "m")] + base[k:]
        out.append(Pair(f"free-ne-{n}.{i}", FREE.name, "Distinct",
                        to_term(FREE, w, base),
                        to_term(FREE, w, shuffle(rng, FREE, extra, 3 * n))))
    return out
