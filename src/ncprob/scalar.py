"""Exact complex rational scalars and their text form.

Every quantity in this package is a ``ComplexRational``: a pair of
``fractions.Fraction`` values.  Text form is ``"re"`` or ``"re+im i"``
(``"-3/2"``, ``"1/2+1/3 i"``); decimal input such as ``"0.25"`` is parsed
as an exact rational.  Floats never appear.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SizeOutOfRangeError, SpecFormatError
from .value import Value

RationalLike = int | Fraction

# CPython's default limit on int <-> str digits.  A larger decimal exponent
# would make Fraction build a number too long to print (or, at 1e100000000,
# take minutes to build at all).
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def _frac(text: str) -> Fraction:
    s = text.strip()
    exponent = _EXPONENT.search(s)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise SpecFormatError(
                f"exponent of {text!r} exceeds {MAX_DIGITS} in magnitude"
            )
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"not a rational number: {text!r}") from exc


class ComplexRational(Value):
    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is ComplexRational:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    __hash__ = Value.__hash__  # a class that defines __eq__ alone is unhashable

    @staticmethod
    def of(value: "ComplexRational | RationalLike") -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a complex rational")

    @staticmethod
    def parse(text: str) -> "ComplexRational":
        """Parse ``"re"``, ``"re+im i"``, ``"re-im i"`` or ``"im i"``."""
        s = text.strip()
        if not s:
            raise SpecFormatError("empty scalar")
        if not s.endswith("i"):
            return ComplexRational(_frac(s))
        body = s[:-1].rstrip()
        real_text, imag_text = _split_imaginary(body)
        re = _frac(real_text) if real_text else Fraction(0)
        if imag_text in ("", "+"):
            im = Fraction(1)
        elif imag_text == "-":
            im = Fraction(-1)
        else:
            im = _frac(imag_text)
        return ComplexRational(re, im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def abs2(self) -> Fraction:
        """|z|^2, always a non-negative rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        denom = other.abs2()
        if not denom:
            raise ZeroDivisionError("division by zero scalar")
        num = self * other.conjugate()
        return ComplexRational(num.re / denom, num.im / denom)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __str__(self) -> str:
        try:
            return self._text()
        except ValueError:  # the int-to-str digit limit
            raise SizeOutOfRangeError(
                f"scalar too large to print (over {MAX_DIGITS} digits)"
            ) from None

    def _text(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im} i"
        if self.im > 0:
            return f"{self.re}+{self.im} i"
        return f"{self.re}-{-self.im} i"

    def __repr__(self) -> str:
        return f"ComplexRational({self})"


def _coerce(value) -> ComplexRational | None:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(Fraction(value))
    return None


def _split_imaginary(body: str) -> tuple[str, str]:
    # Split "1/2+1/3" into ("1/2", "+1/3").  A sign at position 0 or right
    # after an exponent marker belongs to the number, not the split point.
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE/+-":
            return body[:k], body[k:]
    return "", body


ZERO = ComplexRational()
ONE = ComplexRational(Fraction(1))

