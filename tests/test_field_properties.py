"""NumberField arithmetic against naive polynomial arithmetic.

The oracle multiplies coefficient lists in full, zeros included, and
reduces the product by schoolbook long division by the modulus, dividing by
its leading coefficient; it shares no code with `field.py`.  The moduli
cover a sparse fold (x^2+1, x^3-2), a dense one (x^2+x+1), a non-integer
coefficient (x^2-1/2) and a cubic whose fold of x^4 produces an x^3 term
that has to be folded again.

Every scalar either field returns is canonical: an `int` when it is
integral, otherwise a `Fraction` with denominator > 1, never a `float`.
Plain `Fraction` arithmetic is the oracle for the values.  A value of
Q[x]/(f) is read through `NumberField.coefficients`, whether it is a
rational or an element, and built from drawn coefficients by
`NumberField.from_coefficients`, so that a drawn value with zero higher
coefficients is the rational it equals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfsmith.field import (FieldError, NumberFieldElement, QQ,
                             number_field_from_text)

MODULI = ["x^2+x+1", "x^2+1", "x^3-2", "x^2-1/2", "x^3+1/3*x^2-x+1/2"]
FIELDS = {text: number_field_from_text(text) for text in MODULI}

# about a third of the coefficients are zero, as in embedded rationals
RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9),
                                st.integers(1, 6)))


def is_canonical(q):
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def canonical_coeffs(F, x):
    return all(map(is_canonical, F.coefficients(x)))


def oracle_mul(F, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    mod = list(F.modulus)
    while len(prod) >= len(mod):
        c = prod[-1] / mod[-1]
        shift = len(prod) - len(mod)
        for i, m in enumerate(mod):
            prod[shift + i] -= c * m
        prod.pop()
    return tuple(prod + [Fraction(0)] * (F.degree - len(prod)))


@st.composite
def field_elements(draw, count):
    F = FIELDS[draw(st.sampled_from(MODULI))]
    elems = [F.from_coefficients(draw(st.tuples(*[RATIONALS] * F.degree)))
             for _ in range(count)]
    return (F, *elems)


@given(field_elements(2))
def test_mul_matches_long_division(args):
    F, a, b = args
    got = F.mul(a, b)
    assert F.coefficients(got) == oracle_mul(F, F.coefficients(a),
                                             F.coefficients(b))
    assert len(F.coefficients(got)) == F.degree
    assert canonical_coeffs(F, got)


@given(field_elements(3))
def test_ring_laws(args):
    F, a, b, c = args
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.sub(a, b), c) == F.sub(F.mul(a, c), F.mul(b, c))


@given(field_elements(1))
def test_inverse(args):
    F, a = args
    if F.is_zero(a):
        return
    inv = F.inv(a)
    assert F.mul(a, inv) == F.one
    assert oracle_mul(F, F.coefficients(a), F.coefficients(inv)) \
        == F.coefficients(F.one)


@given(field_elements(1))
def test_identities_and_is_zero(args):
    F, a = args
    assert F.zero is F.zero and F.one is F.one
    assert F.add(a, F.zero) == a
    assert F.mul(a, F.one) == a and F.mul(F.one, a) == a
    assert F.mul(a, F.zero) == F.zero
    assert F.is_zero(a) == all(c == 0 for c in F.coefficients(a))
    assert F.is_zero(F.sub(a, a)) and F.is_zero(F.zero)
    assert not F.is_zero(F.one)


@given(field_elements(1))
def test_parse_show_round_trip(args):
    F, a = args
    assert F.parse(F.show(a)) == a


@given(field_elements(2), RATIONALS)
def test_equal_implies_equal_hash(args, q):
    F, a, b = args
    assert hash(F.mul(a, b)) == hash(F.mul(b, a))
    assert F(q) == q and hash(F(q)) == hash(q)
    n = q.numerator
    assert F(n) == n and hash(F(n)) == hash(n) == hash(Fraction(n))
    for x in (a, b):
        if x == q:
            assert hash(x) == hash(q)


@pytest.mark.parametrize("text", MODULI)
def test_embedded_rationals_are_one_key(text):
    F = FIELDS[text]
    assert len({F(3), Fraction(3), 3}) == 1
    table = {F(3): "field"}
    table[Fraction(3)] = "fraction"
    table[3] = "int"
    assert table == {F(3): "int"}
    assert F.gen not in {Fraction(0), Fraction(1)}
    assert F(3) != "3"
    assert F(1) != float("inf") and F(1) != float("nan")


# -- canonical scalars ---------------------------------------------------------

# operands as a caller may pass them: ints, and Fractions whether
# integral or not
OPERANDS = st.one_of(st.integers(-50, 50), RATIONALS,
                     st.builds(Fraction, st.integers(-9, 9)))


@given(OPERANDS, OPERANDS)
def test_rational_operations_are_exact_and_canonical(a, b):
    x, y = Fraction(a), Fraction(b)
    for got, want in ((QQ.add(a, b), x + y), (QQ.sub(a, b), x - y),
                      (QQ.mul(a, b), x * y), (QQ.neg(a), -x), (QQ(a), x),
                      (QQ.parse(str(a)), x), (QQ(f"{x.numerator}/"
                                                 f"{x.denominator}"), x)):
        assert got == want and is_canonical(got)
    if y:
        assert QQ.inv(b) == 1 / y and is_canonical(QQ.inv(b))
    else:
        with pytest.raises(FieldError):
            QQ.inv(b)


@pytest.mark.parametrize("text", MODULI)
def test_field_constants_are_canonical(text):
    F = FIELDS[text]
    for x in (F.zero, F.one, F.gen):
        assert canonical_coeffs(F, x)
    assert all(map(is_canonical, F.modulus))
    assert (QQ.zero, QQ.one) == (0, 1)
    assert is_canonical(QQ.zero) and is_canonical(QQ.one)


@given(field_elements(2), OPERANDS)
def test_number_field_coefficients_are_exact_and_canonical(args, q):
    F, a, b = args
    # the oracle is Fraction arithmetic on the coefficients
    ca, cb = (tuple(map(Fraction, F.coefficients(x))) for x in (a, b))
    for got, want in ((F.add(a, b), map(Fraction.__add__, ca, cb)),
                      (F.sub(a, b), map(Fraction.__sub__, ca, cb)),
                      (F.neg(a), map(Fraction.__neg__, ca)),
                      (F.parse(F.show(a)), ca),
                      (F(q), [q] + [0] * (F.degree - 1))):
        assert F.coefficients(got) == tuple(want) \
            and canonical_coeffs(F, got)
    if not F.is_zero(a):
        # the drawn value and its parsed copy have int integral
        # coefficients, which Euclid must not divide as ints
        for x in (a, F.parse(F.show(a))):
            inv = F.inv(x)
            assert canonical_coeffs(F, inv) and F.mul(x, inv) == F.one


@given(field_elements(1), OPERANDS)
def test_embedded_rationals_equal_and_hash_like_the_rational(args, q):
    F, a = args
    embedded = [F(q), F.add(F(q), F.zero), F.mul(F(q), F.one),
                F.sub(F.add(a, F(q)), a)]
    if q:
        embedded.append(F.inv(F.inv(F(q))))
    for x in embedded:
        assert x == q and x == QQ(q) and x == Fraction(q)
        assert hash(x) == hash(q) == hash(QQ(q))


@given(st.sampled_from(MODULI), OPERANDS)
def test_rational_inverse_shortcut_agrees_with_euclid(text, q):
    F = FIELDS[text]
    if not q:
        with pytest.raises(FieldError):
            F.inv(F(q))
        return
    got, euclid = F.inv(F(q)), F._euclid_inverse(F.coefficients(F(q)))
    assert F.coefficients(got) == F.coefficients(euclid)
    assert canonical_coeffs(F, got) and canonical_coeffs(F, euclid)
    assert got == 1 / Fraction(q)


# -- rationals are never elements ---------------------------------------------


@st.composite
def mixed_operands(draw, count):
    """A field and `count` operands, each a rational as a caller may pass
    it or a value built from drawn coefficients, which is an element
    unless its higher coefficients are zero."""
    F = FIELDS[draw(st.sampled_from(MODULI))]
    built = st.tuples(*[RATIONALS] * F.degree).map(F.from_coefficients)
    return (F, *(draw(st.one_of(OPERANDS, built)) for _ in range(count)))


@given(mixed_operands(2))
def test_no_operation_returns_a_rational_element(args):
    F, a, b = args
    # the sums and products that cancel back to a or b may be rational
    results = [F(a), F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a),
               F.parse(F.show(a)), F.sub(F.add(a, b), b),
               F.sub(F.add(a, b), a), F.add(F.sub(a, b), b)]
    if not F.is_zero(b):
        inv = F.inv(b)
        results += [inv, F.mul(b, inv), F.mul(F.mul(a, b), inv)]
    for x in results:
        if type(x) is NumberFieldElement:
            assert x.field is F and any(x.coeffs[1:])
        else:
            assert is_canonical(x)
        assert canonical_coeffs(F, x)
