"""Exact rational intervals with verified decimal rendering.

Every quantity in this package is a `fractions.Fraction` (arbitrary
precision, always in lowest terms with a positive denominator).  A
`RationalInterval` is a closed interval with rational endpoints, used as a
rigorous enclosure of a real number: each operation returns an interval
that contains the image of every point of its operand, with no rounding
anywhere.  Decimal output is by truncation, and only digits shared by the
entire interval are reported as verified.

Floats are rejected on sight.  Allowing even one float into the pipeline
would silently break the exactness guarantee, so constructors raise
`TypeError` instead of coercing.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DecimalDigits",
    "InvalidArgument",
    "NonPositiveInterval",
    "ParseError",
    "RationalInterval",
    "format_rational",
    "parse_decimal",
    "parse_rational",
    "to_decimal",
]

# CPython caps int-to-str conversion length by default (sys.set_int_max_str_digits,
# default 4300).  Rendering enclosures to tens of thousands of digits needs
# string forms of much larger integers, so raise the cap once at import.
_INT_STR_DIGIT_CAP = 2_000_000
if hasattr(sys, "get_int_max_str_digits"):
    if 0 < sys.get_int_max_str_digits() < _INT_STR_DIGIT_CAP:
        sys.set_int_max_str_digits(_INT_STR_DIGIT_CAP)


class InvalidArgument(ValueError):
    """Raised when a count, size or limit argument is missing or out of its range."""


class ParseError(ValueError):
    """Raised when textual input is not in the accepted format."""


class NonPositiveInterval(ValueError):
    """Raised when decimal rendering is asked for an interval not strictly above zero."""


@dataclass(frozen=True)
class DecimalDigits:
    """Truncated decimal digits certified to be shared by a whole interval.

    `verified` counts certified digits after the decimal point.  `boundary`
    is True when the interval straddles an integer-part transition (for
    example 2.999... versus 3.000...), in which case no digit at all can be
    certified and `fraction_digits` is empty.  Values are nonnegative, so
    there is no sign field.
    """

    integer_digits: str
    fraction_digits: str
    verified: int
    boundary: bool

    @property
    def text(self) -> str:
        """The certified digits as a plain decimal string."""
        if self.fraction_digits:
            return f"{self.integer_digits}.{self.fraction_digits}"
        return self.integer_digits

    def __str__(self) -> str:
        return self.text


def _as_fraction(value: Fraction | int, what: str = "value") -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"{what} must be exact (Fraction or int), got float; "
            "floats would break the enclosure guarantee"
        )
    raise TypeError(f"{what} must be a Fraction or int, got {type(value).__name__}")


class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints.

    Instances are immutable.  All arithmetic is exact, so the inclusion
    property is strict: for any point x in the interval, the image of x
    under an operation lies in the returned interval.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Fraction | int, hi: Fraction | int) -> None:
        lo = _as_fraction(lo, "lo")
        hi = _as_fraction(hi, "hi")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: lo={lo} > hi={hi}")
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalInterval is immutable")

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @property
    def width(self) -> Fraction:
        """Exact width hi - lo."""
        return self._hi - self._lo

    @property
    def midpoint(self) -> Fraction:
        return (self._lo + self._hi) / 2

    def add_scalar(self, value: Fraction | int) -> "RationalInterval":
        """Translate both endpoints by an exact scalar."""
        q = _as_fraction(value)
        return RationalInterval(self._lo + q, self._hi + q)

    def contains(self, value: Fraction | int) -> bool:
        q = _as_fraction(value)
        return self._lo <= q <= self._hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        """True when `other` lies entirely within this interval."""
        return self._lo <= other._lo and other._hi <= self._hi

    def to_pair(self) -> tuple[str, str]:
        """Serialize as a pair of "numerator/denominator" strings."""
        return (format_rational(self._lo), format_rational(self._hi))

    @classmethod
    def from_pair(cls, lo: str, hi: str) -> "RationalInterval":
        return cls(parse_rational(lo), parse_rational(hi))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalInterval):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self) -> int:
        return hash((self._lo, self._hi))

    def __repr__(self) -> str:
        return f"[{format_rational(self._lo)}, {format_rational(self._hi)}]"


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "numerator/denominator", denominator always present."""
    return f"{value.numerator}/{value.denominator}"


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction in lowest terms.

    Raises ParseError for anything else, including a zero denominator.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    cleaned = text.strip()
    if not _RATIONAL_RE.match(cleaned):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(cleaned)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def to_decimal(interval: RationalInterval, max_digits: int) -> DecimalDigits:
    """Certified truncated decimal digits shared by every point of `interval`.

    Both endpoints are truncated to `max_digits` fractional digits and the
    common prefix is reported.  Truncation, not rounding: the digits given
    are exactly the leading digits of every number in the interval.  When
    the integer parts already disagree the result is flagged as a boundary
    case with zero verified digits.
    """
    if not isinstance(max_digits, int) or isinstance(max_digits, bool):
        raise TypeError("max_digits must be int")
    if max_digits < 1:
        raise InvalidArgument(f"max_digits must be >= 1, got {max_digits}")
    if interval.lo <= 0:
        raise NonPositiveInterval(
            f"decimal rendering requires a strictly positive interval, got lo={interval.lo}"
        )
    scale = 10**max_digits
    lo_scaled = interval.lo.numerator * scale // interval.lo.denominator
    hi_scaled = interval.hi.numerator * scale // interval.hi.denominator
    lo_text = str(lo_scaled).zfill(max_digits + 1)
    hi_text = str(hi_scaled).zfill(max_digits + 1)
    integer_len = len(lo_text) - max_digits
    if len(hi_text) != len(lo_text):
        # The magnitudes differ, so not even the integer part is shared.
        return DecimalDigits(lo_text[:integer_len], "", 0, True)
    shared = 0
    for a, b in zip(lo_text, hi_text):
        if a != b:
            break
        shared += 1
    if shared < integer_len:
        return DecimalDigits(lo_text[:integer_len], "", 0, True)
    return DecimalDigits(
        lo_text[:integer_len],
        lo_text[integer_len:shared],
        shared - integer_len,
        False,
    )


_DECIMAL_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")


def parse_decimal(text: str) -> RationalInterval:
    """Interval of all reals that truncate to the given decimal string.

    "2.92" denotes any number in [2.92, 2.93), which is enclosed here as
    the closed interval [292/100, 293/100].  Only plain nonnegative
    decimals are accepted: no sign, no exponent, no leading point.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    match = _DECIMAL_RE.match(text.strip())
    if not match:
        raise ParseError(f"not a plain decimal literal: {text!r}")
    integer_part, fraction_part = match.group(1), match.group(2) or ""
    scale = 10 ** len(fraction_part)
    value = Fraction(int(integer_part + fraction_part), scale)
    return RationalInterval(value, value + Fraction(1, scale))
