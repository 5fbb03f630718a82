"""Q[x]/(f) arithmetic against the earlier tuple-only representation.

The reference code below is the earlier `NumberField` arithmetic: every
value, rational or not, is its reduced coefficient tuple, and every
operation, a product of two embedded rationals included, runs on whole
tuples and reduces through the fold.  The program keeps a rational value as
the rational itself and runs the polynomial product only for two
irrational factors; over random programs of operations on rationals and
elements, every result must have the reference's coefficients, with the
same types (an int or a Fraction in each place), and inversion must fail
on exactly the same values.
"""

import operator
from fractions import Fraction

from hypothesis import given, strategies as st

from hopfsmith.field import FieldError, number_field_from_text

MODULI = ["x^2+x+1", "x^2+1", "x^3-2", "x^2-1/2", "x^3+1/3*x^2-x+1/2"]
FIELDS = {text: number_field_from_text(text) for text in MODULI}

# about a third of the coefficients are zero, as in embedded rationals
RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9),
                                st.integers(1, 6)))


# ---------------------------------------------------------------------------
# reference code


def _canonical(q):
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _tuple(cs):
    return tuple(map(_canonical, cs))


class Reference:
    """Q[x]/(modulus) on coefficient tuples only."""

    def __init__(self, modulus):
        self.degree = len(modulus) - 1
        self.modulus = modulus
        self.fold = tuple((i, -c) for i, c in enumerate(modulus[:-1]) if c)

    def lift(self, q):
        return self.make([q])

    def make(self, cs):
        d = self.degree
        cs = list(cs)
        for k in range(len(cs) - 1, d - 1, -1):
            c = cs[k]
            if c:
                for i, m in self.fold:
                    cs[k - d + i] += c * m
        cs.extend([0] * (d - len(cs)))
        return _tuple(cs[:d])

    def add(self, a, b):
        return _tuple(map(operator.add, a, b))

    def sub(self, a, b):
        return _tuple(map(operator.sub, a, b))

    def neg(self, a):
        return _tuple(map(operator.neg, a))

    def mul(self, a, b):
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self.make(out)

    def inv(self, a):
        if not any(a[1:]):
            if a[0] == 0:
                raise FieldError("division by zero")
            return self.lift(1 / Fraction(a[0]))
        # extended Euclid on Fraction polynomials
        r0 = [Fraction(c) for c in self.modulus]
        r1 = [Fraction(c) for c in a]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1[-1] == 0:
                r1.pop()
            q = [Fraction(0)] * max(0, len(r0) - len(r1) + 1)
            r = list(r0)
            while len(r) >= len(r1):
                c = r[-1] / r1[-1]
                q[len(r) - len(r1)] = c
                for i, y in enumerate(r1):
                    r[len(r) - len(r1) + i] -= c * y
                r.pop()
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    qs1[i + j] += x * y
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                news[i] += c
            for i, c in enumerate(qs1):
                news[i] -= c
            r0, r1 = r1, r or [Fraction(0)]
            s0, s1 = s1, news
        while r0[-1] == 0:
            r0.pop()
        return self.make([x / r0[0] for x in s0])


REFERENCES = {text: Reference(F.modulus) for text, F in FIELDS.items()}


# ---------------------------------------------------------------------------
# the differential test


def typed(cs):
    return tuple((type(c), c) for c in cs)


OPERATIONS = ("add", "sub", "mul", "neg", "inv")


@st.composite
def programs(draw):
    """A modulus, starting values as coefficient tuples (some of them
    embedded rationals), and steps (operation, i, j) that each combine two
    earlier values and append the result."""
    text = draw(st.sampled_from(MODULI))
    degree = FIELDS[text].degree
    rational = RATIONALS.map(lambda q: (q,) + (0,) * (degree - 1))
    start = draw(st.lists(st.one_of(rational,
                                    st.tuples(*[RATIONALS] * degree)),
                          min_size=1, max_size=4))
    steps = []
    for k in range(draw(st.integers(1, 12))):
        n = len(start) + k
        steps.append((draw(st.sampled_from(OPERATIONS)),
                      draw(st.integers(0, n - 1)),
                      draw(st.integers(0, n - 1))))
    return text, start, steps


@given(programs())
def test_arithmetic_matches_tuple_only_reference(program):
    text, start, steps = program
    F, ref = FIELDS[text], REFERENCES[text]
    values = [F.from_coefficients(cs) for cs in start]
    tuples = [_tuple(cs) for cs in start]
    for op, i, j in steps:
        args = (values[i], values[j]) if op in ("add", "sub", "mul") \
            else (values[i],)
        ref_args = (tuples[i], tuples[j]) if len(args) == 2 else (tuples[i],)
        try:
            want = getattr(ref, op)(*ref_args)
        except FieldError:
            try:
                getattr(F, op)(*args)
            except FieldError:
                # keep the indices of the later steps in range
                values.append(values[i])
                tuples.append(tuples[i])
                continue
            raise AssertionError(f"{op} of {args} did not fail")
        got = getattr(F, op)(*args)
        assert typed(F.coefficients(got)) == typed(want)
        values.append(got)
        tuples.append(want)
