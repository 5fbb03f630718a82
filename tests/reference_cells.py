"""Reference code that the term and interchange oracles share: the
straightforward dim and raw boundary walk of terms (ref_dim,
ref_top_boundary, ref_boundary), which take a side as it is written and
normalize nothing, and the layer form of a 2-cell (Atom, Layer, Stack),
each atom carrying its own words, with pack, which gives layers as the
packed state the interchange kernel works on.  Both oracle modules
import it at their top, so either one runs on its own.
"""

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from hopfsmith.terms import Comp, Gen, Id, Inv, SOURCE, TARGET, TermError

# ---------------------------------------------------------------------------
# terms


def ref_dim(t, sig):
    if isinstance(t, Gen):
        if t.name not in sig:
            raise TermError(f"unknown generator {t.name!r}")
        return sig[t.name].dim
    if isinstance(t, Id):
        return ref_dim(t.inner, sig) + 1
    if isinstance(t, Inv):
        return ref_dim(t.inner, sig)
    dl = ref_dim(t.left, sig)
    dr = ref_dim(t.right, sig)
    if dl != dr:
        raise TermError(f"composite of unequal dimensions {dl} and {dr}")
    if not 0 <= t.k < dl:
        raise TermError(f"illegal composition level {t.k} for dimension {dl}")
    return dl


def ref_top_boundary(t, side, sig):
    if isinstance(t, Gen):
        b = sig[t.name].src if side == SOURCE else sig[t.name].tgt
        if b is None:
            raise TermError(f"0-cell {t.name!r} has no boundary")
        return b
    if isinstance(t, Id):
        return t.inner
    if isinstance(t, Inv):
        return ref_top_boundary(t.inner, TARGET if side == SOURCE else SOURCE,
                                sig)
    d = ref_dim(t, sig)
    if t.k == d - 1:
        part = t.left if side == SOURCE else t.right
        return ref_top_boundary(part, side, sig)
    return Comp(t.k, ref_top_boundary(t.left, side, sig),
                ref_top_boundary(t.right, side, sig))


def ref_boundary(t, side, k, sig):
    d = ref_dim(t, sig)
    if not 0 <= k < d:
        raise TermError(f"boundary level {k} out of range for dimension {d}")
    out = t
    while d > k + 1:
        out = ref_top_boundary(out, side, sig)
        d -= 1
    return ref_top_boundary(out, side, sig)


# ---------------------------------------------------------------------------
# layers


Letter = Tuple[str, bool]


@dataclass(frozen=True)
class Atom:
    name: str
    inverted: bool
    # the words it fires on and leaves; equality and hashing ignore them
    src: Tuple[Letter, ...] = field(compare=False)
    tgt: Tuple[Letter, ...] = field(compare=False)

    def inverse(self) -> "Atom":
        return Atom(self.name, not self.inverted, self.tgt, self.src)


@dataclass(frozen=True)
class Layer:
    offset: int
    atom: Atom


@dataclass(frozen=True)
class Stack:
    """A 2-cell in layer form: the source word plus the layer sequence."""
    srcword: Tuple[Letter, ...]
    layers: Tuple[Layer, ...]

    def word_before(self, i: int) -> Tuple[Letter, ...]:
        """The word after the first i layers fire; TermError when a layer
        does not fit the word it fires on."""
        w = self.srcword
        for layer in self.layers[:i]:
            a, b = layer.atom.src, layer.atom.tgt
            if w[layer.offset:layer.offset + len(a)] != a:
                raise TermError("layer does not fit its word")
            w = w[:layer.offset] + b + w[layer.offset + len(a):]
        return w

    def tgtword(self) -> Tuple[Letter, ...]:
        return self.word_before(len(self.layers))


def pack(layers: Sequence[Layer], table) -> Tuple[int, ...]:
    """Layers as a flat (offset, atom id, ...) tuple, adding each atom to
    the table."""
    flat: List[int] = []
    for layer in layers:
        a = layer.atom
        flat += (layer.offset, table.add(a.name, a.inverted, a.src, a.tgt))
    return tuple(flat)
