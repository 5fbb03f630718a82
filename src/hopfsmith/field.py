"""Exact scalars: rationals, or elements of a quotient field Q[x]/(f).

The extension field is a single monic irreducible modulus with rational
coefficients; irreducibility is the caller's responsibility beyond a
cheap rational-root screen (enough to reject the easy mistakes).
Elements are represented by their reduced coefficient tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union


class FieldError(ArithmeticError):
    pass


class RationalField:
    """Q, with scalars as Fraction."""

    name = "Q"

    def __call__(self, value) -> Fraction:
        return Fraction(value)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str) -> Fraction:
        return Fraction(text)

    def show(self, a) -> str:
        return str(a)

    def to_json(self):
        return "Q"


QQ = RationalField()


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
    __slots__ = ("field", "coeffs")

    def __init__(self, field: "NumberField", coeffs: Tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, NumberFieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        try:
            q = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == (self.field._lift(q)).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return self.field.show(self)


class NumberField:
    """Q[x]/(modulus) for a monic modulus given by its coefficient list
    [c0, c1, ..., 1] (low degree first)."""

    def __init__(self, modulus: Sequence[Fraction], var: str = "x"):
        mod = [Fraction(c) for c in modulus]
        if len(mod) < 2:
            raise FieldError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise FieldError("modulus must be monic")
        self._rational_root_screen(mod)
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        self.var = var
        self.name = f"Q[{var}]/({self.show_poly(self.modulus)})"

    @staticmethod
    def _rational_root_screen(mod: List[Fraction]) -> None:
        # scale to integer coefficients and try all p/q candidates
        from math import gcd
        den = 1
        for c in mod:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in mod]
        lead, const = ints[-1], ints[0]
        if const == 0:
            raise FieldError("modulus has root 0; not irreducible")

        def divisors(n):
            n = abs(n)
            return [d for d in range(1, n + 1) if n % d == 0]

        for p in divisors(const):
            for q in divisors(lead):
                for sign in (1, -1):
                    r = Fraction(sign * p, q)
                    if sum(c * r ** i for i, c in enumerate(mod)) == 0:
                        raise FieldError(
                            f"modulus has rational root {r}; not irreducible")

    # -- element constructors ------------------------------------------

    def _make(self, coeffs: List[Fraction]) -> NumberFieldElement:
        _, rem = _poly_divmod(list(coeffs), self.modulus)
        rem = list(rem) + [Fraction(0)] * (self.degree - len(rem))
        return NumberFieldElement(self, tuple(rem[:self.degree]))

    def _lift(self, q: Fraction) -> NumberFieldElement:
        return self._make([q])

    def __call__(self, value) -> NumberFieldElement:
        if isinstance(value, NumberFieldElement):
            if value.field is not self:
                raise FieldError("element of a different field")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self._lift(Fraction(value))

    @property
    def zero(self) -> NumberFieldElement:
        return self._lift(Fraction(0))

    @property
    def one(self) -> NumberFieldElement:
        return self._lift(Fraction(1))

    @property
    def gen(self) -> NumberFieldElement:
        return self._make([Fraction(0), Fraction(1)])

    # -- arithmetic -----------------------------------------------------

    def add(self, a, b):
        a, b = self(a), self(b)
        return NumberFieldElement(self, tuple(x + y for x, y in
                                              zip(a.coeffs, b.coeffs)))

    def sub(self, a, b):
        a, b = self(a), self(b)
        return NumberFieldElement(self, tuple(x - y for x, y in
                                              zip(a.coeffs, b.coeffs)))

    def neg(self, a):
        a = self(a)
        return NumberFieldElement(self, tuple(-x for x in a.coeffs))

    def mul(self, a, b):
        a, b = self(a), self(b)
        return self._make(_poly_mul(a.coeffs, b.coeffs))

    def inv(self, a):
        a = self(a)
        if self.is_zero(a):
            raise FieldError("division by zero")
        # extended Euclid in Q[x]
        r0, r1 = list(self.modulus), list(a.coeffs)
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
        return all(c == 0 for c in self(a).coeffs)

    # -- text -----------------------------------------------------------

    def parse(self, text: str) -> NumberFieldElement:
        """Polynomial expressions in the generator: '1/2*x^2 - x + 3'."""
        text = text.replace("-", "+-").replace(" ", "")
        coeffs = [Fraction(0)] * self.degree
        for part in filter(None, text.split("+")):
            if self.var in part:
                head, _, tail = part.partition(self.var)
                power = int(tail[1:]) if tail.startswith("^") else 1
                if head in ("", "-"):
                    head += "1"
                head = head.rstrip("*")
                coeff = Fraction(head)
            else:
                power, coeff = 0, Fraction(part)
            if power >= self.degree:
                raise FieldError(f"exponent too large in {part!r}")
            coeffs[power] += coeff
        return self._make(coeffs)

    def show_poly(self, coeffs) -> str:
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{self.var}" if c != 1 else self.var)
            else:
                terms.append(f"{c}*{self.var}^{i}" if c != 1 else f"{self.var}^{i}")
        return " + ".join(terms) if terms else "0"

    def show(self, a) -> str:
        return self.show_poly(self(a).coeffs)

    def to_json(self):
        return {"ext": self.show_poly(self.modulus)}


Field = Union[RationalField, NumberField]


def field_from_json(data) -> Field:
    if data == "Q" or data is None:
        return QQ
    if isinstance(data, dict) and "ext" in data:
        return number_field_from_text(data["ext"])
    raise FieldError(f"unknown field description {data!r}")


def number_field_from_text(text: str, var: str = "x") -> NumberField:
    """Parse a monic modulus like 'x^2+x+1'."""
    text = text.replace("-", "+-").replace(" ", "")
    pieces = [p for p in text.split("+") if p]
    coeffs = {}
    for part in pieces:
        if var in part:
            head, _, tail = part.partition(var)
            power = int(tail[1:]) if tail.startswith("^") else 1
            if head in ("", "-"):
                head += "1"
            coeffs[power] = coeffs.get(power, Fraction(0)) + Fraction(head.rstrip("*"))
        else:
            coeffs[0] = coeffs.get(0, Fraction(0)) + Fraction(part)
    deg = max(coeffs)
    mod = [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]
    return NumberField(mod, var)
