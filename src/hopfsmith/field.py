"""Exact scalars: rationals, or elements of a quotient field Q[x]/(f).

The extension field is a single monic irreducible modulus with rational
coefficients; irreducibility is the caller's responsibility beyond a
cheap rational-root screen (enough to reject the easy mistakes).
A rational scalar is canonical: an `int` when it is integral, otherwise a
`Fraction` with denominator > 1, so the integral structure tensors of
every fixture are multiplied as machine-word `int`s.  `int` and
`Fraction` compare, hash and print alike, so the representation shows in
no result.  Every operation of both fields returns canonical values, and
this module is the only one that divides: `int / int` would be a
`float`, so a quotient is always taken with a `Fraction` operand.
A value of Q[x]/(f) is represented by its canonical rational whenever its
reduced coefficients above the constant term are all zero, so `zero` and
`one` are `0` and `1` in both fields, and the rational structure constants
of every fixture are multiplied as in Q.  Only an irrational value is a
`NumberFieldElement`, holding its reduced coefficient tuple: `degree`
canonical rationals, low degree first.  `NumberField.from_coefficients`
is its one constructor and returns the rational whenever it can, so a
rational value equals and hashes like that rational by construction, and
`NumberField.coefficients` reads the tuple of either form back.

The operations dispatch on the operand types: two rationals use the
rational operation; a rational and an element combine the rational with
the element's coefficients (a product scales them); only the product of
two elements runs the polynomial product, which multiplies only their
nonzero coefficients and is then reduced by `NumberField._make`, the one
reduction routine: because the modulus is monic, each coefficient of x^k
with k >= degree folds into the lower ones from the top down, with no
polynomial division.  Only `inv` divides: a rational is inverted as a
rational, an element by extended Euclid over `Fraction` polynomials.
Any operand that is neither a rational nor an element of the field is
converted first, and an element of another field is refused.  Values are
never mutated.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, Iterable, List, Sequence, Tuple, Union


# a canonical rational: an int, or a Fraction with denominator > 1
Rational = Union[int, Fraction]
_RATIONAL_TYPES = frozenset((int, Fraction))


class FieldError(ArithmeticError):
    pass


def _canonical(q):
    """The canonical form of a rational given as an int or a Fraction."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _rational(text: str):
    """The canonical rational a string such as '-3' or '1/2' denotes;
    a plain integer is read without building a Fraction."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isdecimal():
        return int(text)
    try:
        return _canonical(Fraction(text))
    except ZeroDivisionError:
        raise FieldError(f"zero denominator in {text!r}") from None


def _inverse(q):
    """1/q for a rational q, canonical."""
    if q == 0:
        raise FieldError("division by zero")
    if type(q) is int:
        return q if q == 1 or q == -1 else Fraction(1, q)
    return _canonical(1 / Fraction(q))


def _canonical_tuple(cs) -> tuple:
    """The canonical forms of cs, with `_canonical` inlined."""
    return tuple([c if type(c) is int or c.denominator != 1
                  else c.numerator for c in cs])


class RationalField:
    """Q, with each scalar an int when it is integral and a Fraction
    otherwise."""

    name = "Q"
    zero = 0
    one = 1

    def __call__(self, value):
        if type(value) is int:
            return value
        if isinstance(value, str):
            return _rational(value)
        return _canonical(Fraction(value))

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return _canonical(-a)

    def inv(self, a):
        return _inverse(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str):
        return _rational(text)

    def show(self, a) -> str:
        return str(a)

    def to_json(self):
        return "Q"

    def __reduce__(self):
        # the one instance: copies and pickles refer to it
        return "QQ"


QQ = RationalField()

_ZERO = 0
# the generator of every extension field: the JSON format names none
VAR = "x"
# the largest modulus: its degree, and each coefficient once all are scaled
# to integers by their common denominator, bound the rational-root screen
MAX_MODULUS_DEGREE = 16
MAX_MODULUS_HEIGHT = 10 ** 4


def _poly_trim(cs: List[Fraction]) -> Tuple[Fraction, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a: List[Fraction], b: Sequence[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        d = len(a) - len(b)
        c = a[-1] / b[-1]
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        a.pop()
    return q, a


class NumberFieldElement:
    """An irrational element of Q[x]/(f): its reduced coefficient tuple,
    `degree` canonical rationals low degree first, has a nonzero entry
    above the constant term.  Built only by `NumberField.from_coefficients`;
    a rational value of the field is never an element."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "NumberField", coeffs: Tuple[Rational, ...]):
        self.field = field
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        if type(other) is NumberFieldElement:
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return self.field.show(self)


class NumberField:
    """Q[x]/(modulus) for a monic modulus given by its coefficient list
    [c0, c1, ..., 1] (low degree first)."""

    zero = 0
    one = 1

    def __init__(self, modulus: Sequence[Rational]):
        mod = [QQ(c) for c in modulus]
        if len(mod) < 2:
            raise FieldError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise FieldError("modulus must be monic")
        self._rational_root_screen(mod)
        self.modulus = tuple(mod)
        self.degree = d = len(mod) - 1
        self.name = f"Q[{VAR}]/({self.show_poly(self.modulus)})"
        # x^d = -(c0 + c1 x + ... + c_{d-1} x^{d-1}): (i, -c_i) for c_i != 0
        self._fold = tuple((i, -c) for i, c in enumerate(mod[:-1]) if c)
        # the higher coefficients of a rational
        self._pad = (_ZERO,) * (d - 1)

    @staticmethod
    def _rational_root_screen(mod: List[Rational]) -> None:
        # scale to integer coefficients and try all p/q candidates
        den = 1
        for c in mod:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in mod]
        if (len(ints) > MAX_MODULUS_DEGREE + 1
                or max(map(abs, ints)) > MAX_MODULUS_HEIGHT):
            raise FieldError(f"modulus above the cap of degree "
                             f"{MAX_MODULUS_DEGREE} and integer coefficients "
                             f"up to {MAX_MODULUS_HEIGHT}")
        lead, const, d = ints[-1], ints[0], len(ints) - 1
        if const == 0:
            raise FieldError("modulus has root 0; not irreducible")

        def divisors(n):
            small = [k for k in range(1, isqrt(abs(n)) + 1) if n % k == 0]
            return small + [abs(n) // k for k in small]

        # f(p/q) = 0 when sum(c_i p^i q^(d-i)) = 0, in integers
        for p in divisors(const):
            for q in divisors(lead):
                for r in (p, -p):
                    if sum(c * r ** i * q ** (d - i)
                           for i, c in enumerate(ints)) == 0:
                        raise FieldError(f"modulus has rational root "
                                         f"{Fraction(r, q)}; not irreducible")

    # -- values and their coefficients ----------------------------------

    def from_coefficients(self, cs: Iterable[Rational]):
        """The value whose reduced coefficients are `cs` (`degree`
        rationals, low degree first): the canonical rational cs[0] when
        every higher coefficient is zero, otherwise an element.  The one
        constructor of `NumberFieldElement`."""
        cs = _canonical_tuple(cs)
        if len(cs) != self.degree:
            raise FieldError(f"{len(cs)} coefficients for degree "
                             f"{self.degree}")
        return NumberFieldElement(self, cs) if any(cs[1:]) else cs[0]

    def coefficients(self, x) -> Tuple[Rational, ...]:
        """The reduced coefficient tuple of x, `degree` canonical rationals
        low degree first; x is converted as by `__call__`."""
        return self._coeffs(self(x))

    def _coeffs(self, x) -> Tuple[Rational, ...]:
        # x is a canonical rational or an element of this field
        return x.coeffs if type(x) is NumberFieldElement else (x,) + self._pad

    def _make(self, cs: List):
        """The class of the polynomial with coefficients `cs` (low degree
        first, any length), reducing `cs` in place.  From the top down, each
        nonzero coefficient c of x^k, k >= d = degree, folds into the lower
        ones as c * x^(k-d) * (x^d - modulus); no division is needed
        because the modulus is monic.  A slot that is `_ZERO` (the int 0)
        takes a term as it is, which saves an addition."""
        d = self.degree
        fold = self._fold
        for k in range(len(cs) - 1, d - 1, -1):
            c = cs[k]
            if c:
                base = k - d
                for i, m in fold:
                    t = cs[base + i]
                    cs[base + i] = c * m if t is _ZERO else t + c * m
        if len(cs) < d:
            cs.extend([_ZERO] * (d - len(cs)))
        return self.from_coefficients(cs[:d])

    def __call__(self, value):
        """`value` as a value of this field: an element of this field as it
        is, an int, Fraction or float as its canonical rational, a str
        parsed; an element of another field is refused."""
        if type(value) in _RATIONAL_TYPES:
            return _canonical(value)
        if type(value) is NumberFieldElement:
            if value.field is not self:
                raise FieldError("element of a different field")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return QQ(value)

    @property
    def gen(self) -> NumberFieldElement:
        return self._make([_ZERO, 1])

    # -- arithmetic -----------------------------------------------------

    # Two rationals are combined as in Q.  Any other operand goes through
    # __call__, which converts an int, Fraction or str and refuses an
    # element of another field; then only a product of two elements runs
    # the polynomial product and the fold.

    def add(self, a, b):
        if type(a) in _RATIONAL_TYPES and type(b) in _RATIONAL_TYPES:
            return _canonical(a + b)
        a, b = self(a), self(b)
        return self.from_coefficients(
            map(operator.add, self._coeffs(a), self._coeffs(b)))

    def sub(self, a, b):
        if type(a) in _RATIONAL_TYPES and type(b) in _RATIONAL_TYPES:
            return _canonical(a - b)
        a, b = self(a), self(b)
        return self.from_coefficients(
            map(operator.sub, self._coeffs(a), self._coeffs(b)))

    def neg(self, a):
        if type(a) not in _RATIONAL_TYPES:
            a = self(a)
            if type(a) is NumberFieldElement:
                return self.from_coefficients(map(operator.neg, a.coeffs))
        return _canonical(-a)

    def mul(self, a, b):
        if type(a) in _RATIONAL_TYPES and type(b) in _RATIONAL_TYPES:
            return _canonical(a * b)
        a, b = self(a), self(b)
        if type(a) is not NumberFieldElement:
            a, b = b, a
        if type(a) is not NumberFieldElement:   # two rationals
            return _canonical(a * b)
        if type(b) is not NumberFieldElement:   # a rational scales a
            return self.from_coefficients([b * c for c in a.coeffs])
        terms = [(j, y) for j, y in enumerate(b.coeffs) if y]
        out = [_ZERO] * (2 * self.degree - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in terms:  # `_ZERO` slots as in `_make`
                    t = out[i + j]
                    out[i + j] = x * y if t is _ZERO else t + x * y
        return self._make(out)

    def inv(self, a):
        if type(a) not in _RATIONAL_TYPES:
            a = self(a)
            if type(a) is NumberFieldElement:
                return self._euclid_inverse(a.coeffs)
        return _inverse(a)

    def _euclid_inverse(self, coeffs: Sequence[Rational]):
        """The inverse of the nonzero value with coefficients `coeffs` by
        extended Euclid in Q[x], on Fraction coefficients so that every
        quotient is exact."""
        r0 = [Fraction(c) for c in self.modulus]
        r1 = [Fraction(c) for c in coeffs]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod(r0, _poly_trim(list(r1)) or [Fraction(0)])
            r0, r1 = list(r1), list(r)
            qs1 = _poly_mul(q, s1)
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                news[i] += c
            for i, c in enumerate(qs1):
                news[i] -= c
            s0, s1 = s1, news
        r0 = list(_poly_trim(r0))
        if len(r0) != 1:
            raise FieldError("modulus is not irreducible after all")
        c = r0[0]
        return self._make([x / c for x in s0])

    def is_zero(self, a) -> bool:
        if type(a) not in _RATIONAL_TYPES:
            a = self(a)
            if type(a) is NumberFieldElement:   # irrational, so nonzero
                return False
        return a == 0

    # -- text -----------------------------------------------------------

    def parse(self, text: str):
        """Polynomial expressions in the generator: '1/2*x^2 - x + 3'."""
        coeffs = [_ZERO] * self.degree
        for power, coeff in _parse_poly(text).items():
            if power >= self.degree:
                raise FieldError(f"exponent too large in {text!r}")
            coeffs[power] = coeff
        return self._make(coeffs)

    def show_poly(self, coeffs) -> str:
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{VAR}" if c != 1 else VAR)
            else:
                terms.append(f"{c}*{VAR}^{i}" if c != 1 else f"{VAR}^{i}")
        return " + ".join(terms) if terms else "0"

    def show(self, a) -> str:
        return self.show_poly(self.coefficients(a))

    def to_json(self):
        return {"ext": self.show_poly(self.modulus)}

    def __reduce__(self):
        return number_field, (self.modulus,)


# one field per modulus, as elements compare their fields by identity
_NUMBER_FIELDS: Dict[Tuple[Rational, ...], NumberField] = {}


def number_field(modulus: Sequence[Rational]) -> NumberField:
    """The one NumberField of this monic modulus, made on first use."""
    mod = tuple(QQ(c) for c in modulus)
    # setdefault keeps the field made first, should two threads race
    return _NUMBER_FIELDS.get(mod) or _NUMBER_FIELDS.setdefault(
        mod, NumberField(mod))


Field = Union[RationalField, NumberField]


def field_from_json(data) -> Field:
    if data == "Q" or data is None:
        return QQ
    if isinstance(data, dict) and isinstance(data.get("ext"), str):
        return number_field_from_text(data["ext"])
    raise FieldError(f"unknown field description {data!r}")


def number_field_from_text(text: str) -> NumberField:
    """Parse a monic modulus like 'x^2+x+1'."""
    coeffs = _parse_poly(text)
    mod = [coeffs.get(i, _ZERO) for i in range(max(coeffs) + 1)]
    return number_field(mod)


def _parse_poly(text: str) -> Dict[int, Rational]:
    """Power -> coefficient of a polynomial written like '1/2*x^2 - x + 3';
    repeated powers add up."""
    coeffs: Dict[int, Rational] = {}
    text = text.replace("-", "+-").replace(" ", "")
    for part in filter(None, text.split("+")):
        if VAR in part:
            head, _, tail = part.partition(VAR)
            power = int(tail[1:]) if tail.startswith("^") else 1
            if power > MAX_MODULUS_DEGREE:
                raise FieldError(f"exponent above {MAX_MODULUS_DEGREE} in "
                                 f"{part!r}")
            if head in ("", "-"):
                head += "1"
            coeff = _rational(head.rstrip("*"))
        else:
            power, coeff = 0, _rational(part)
        coeffs[power] = QQ.add(coeffs[power], coeff) if power in coeffs \
            else coeff
    return coeffs
