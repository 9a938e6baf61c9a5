from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncprob.errors import SizeOutOfRangeError, SpecFormatError
from ncprob.scalar import ONE, ZERO, ComplexRational

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
scalars = st.builds(ComplexRational, fractions, fractions)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", ComplexRational()),
        ("-3/2", ComplexRational(Fraction(-3, 2))),
        ("0.25", ComplexRational(Fraction(1, 4))),
        ("1/2+1/3 i", ComplexRational(Fraction(1, 2), Fraction(1, 3))),
        ("1/2-1/3 i", ComplexRational(Fraction(1, 2), Fraction(-1, 3))),
        ("2 i", ComplexRational(Fraction(0), Fraction(2))),
        ("i", ComplexRational(Fraction(0), Fraction(1))),
        ("-i", ComplexRational(Fraction(0), Fraction(-1))),
        ("1+i", ComplexRational(Fraction(1), Fraction(1))),
        ("1-i", ComplexRational(Fraction(1), Fraction(-1))),
        ("2e-3", ComplexRational(Fraction(1, 500))),
        ("1e4300", ComplexRational(Fraction(10) ** 4300)),
        ("1e-4300 i", ComplexRational(Fraction(0), Fraction(1, 10**4300))),
        ("1e0000000000001", ComplexRational(Fraction(10))),
    ],
)
def test_parse(text, expected):
    assert ComplexRational.parse(text) == expected


@pytest.mark.parametrize("text", [
    "", "x", "1/2/3", "1//2", "1 + j", "3/0", "1e4301", "2E-100000000", "1/2+3e9999 i",
])
def test_parse_rejects(text):
    with pytest.raises(SpecFormatError):
        ComplexRational.parse(text)


@given(scalars)
def test_text_round_trip(z):
    assert ComplexRational.parse(str(z)) == z


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == ZERO
    assert a * ONE == a


@given(scalars, scalars)
def test_conjugation(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert ComplexRational(a.abs2()) == a * a.conjugate()


@given(scalars)
def test_division(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            ONE / a
    else:
        assert (ONE / a) * a == ONE


def test_coercion():
    assert ComplexRational.of(2) + Fraction(1, 2) == ComplexRational(Fraction(5, 2))
    assert 3 * ComplexRational.of(Fraction(1, 3)) == ONE
    with pytest.raises(TypeError):
        ComplexRational.of("1/2")


def test_too_long_to_print():
    with pytest.raises(SizeOutOfRangeError):
        str(ComplexRational(Fraction(1, 10**5000)))
