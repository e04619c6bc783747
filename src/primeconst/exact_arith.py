"""Exact rational intervals with verified decimal rendering.

At the API edges every quantity is a `fractions.Fraction` (arbitrary
precision, always in lowest terms with a positive denominator).  A
`RationalInterval` is a closed interval with rational endpoints, used as a
rigorous enclosure of a real number: each operation returns an interval
that contains the image of every point of its operand, with no rounding
anywhere.  Decimal output is by truncation, and only digits shared by the
entire interval are reported as verified.  An enclosure [L/P, (L+1)/P] of
integers, the form `constant.enclose` builds, is rendered from L and P
directly by `_EnclosureText`, without forming a `Fraction`.  The rows the
floor recurrence prints, one per step, are stepped and rendered in lowest
terms by `_LowestTerms`, in time linear in their digits.

Rendering is exact at every size.  Small integers go through `str()` and
int `//`, whose cost grows with the square of the digit count.  Above
`_DECIMAL_PATH_BITS` (about 10^4 digits, the measured crossover) one
converter takes over: it splits an integer on bits, converts the halves,
and joins them with powers of two in the `decimal` module, whose large
multiplications and divisions are subquadratic.  Every such operation runs
in the private context `_EXACT`, with the largest precision and with
`Inexact` and `Rounded` trapped, so a result that would need rounding
raises instead.  Methods of that context are called directly, so the
interpreter's current decimal context is never changed.

Floats are rejected on sight.  Allowing even one float into the pipeline
would silently break the exactness guarantee, so constructors raise
`TypeError` instead of coercing.
"""

from __future__ import annotations

import decimal
import math
import operator
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
    "decimal_length",
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


# Integers wider than this (about 10^4 digits) go through the decimal
# converter, and so do floors whose quotient is.  Best of 7, Python 3.11.7 on
# a shared 2-vCPU host, str() against the converter: 1.03 / 0.95 ms at 8000
# digits, 2.23 / 1.28 ms at 12000, 179 / 29 ms at 10^5.  floor(a * 10**d / b)
# with d-digit a and b, int // and str() against the decimal path: 2.56 /
# 3.46 ms at d = 8000, 4.08 / 4.23 ms at 10^4, 5.75 / 5.70 ms at 12000.
_DECIMAL_PATH_BITS = 33_000
# Pieces this narrow are handed to Decimal(int) whole.
_LEAF_BITS = 2048
_LOG2_10 = math.log2(10)

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact,
        decimal.Rounded,
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
    ],
)


def _exact_decimal(n: int) -> decimal.Decimal:
    """The integer n >= 0 as a Decimal, by splitting on bits and joining with powers of two."""
    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(bits: int) -> decimal.Decimal:
        # Built from the powers the split asks for next, as in CPython 3.12's _pylong.
        if bits not in powers:
            if bits <= _LEAF_BITS:
                powers[bits] = _EXACT.power(2, bits)
            elif bits - 1 in powers:
                powers[bits] = _EXACT.add(powers[bits - 1], powers[bits - 1])
            else:
                half = bits >> 1
                powers[bits] = _EXACT.multiply(power_of_two(half), power_of_two(bits - half))
        return powers[bits]

    def convert(value: int, bits: int) -> decimal.Decimal:
        if bits <= _LEAF_BITS:
            return decimal.Decimal(value)
        low_bits = bits >> 1
        high = value >> low_bits
        low = value - (high << low_bits)
        return _EXACT.add(
            _EXACT.multiply(convert(high, bits - low_bits), power_of_two(low_bits)),
            convert(low, low_bits),
        )

    return convert(n, n.bit_length())


def _int_text(n: int) -> str:
    """Decimal text of an integer, as str(n) gives it."""
    if n.bit_length() <= _DECIMAL_PATH_BITS:
        return str(n)
    if n < 0:
        return "-" + str(_exact_decimal(-n))
    return str(_exact_decimal(n))


def _scaled_floor_text(value: Fraction, digits: int) -> str:
    """Decimal text of floor(value * 10**digits) for value > 0."""
    numerator, denominator = value.numerator, value.denominator
    quotient_bits = numerator.bit_length() - denominator.bit_length() + digits * _LOG2_10
    if quotient_bits <= _DECIMAL_PATH_BITS:
        return str(numerator * 10**digits // denominator)
    scaled = _EXACT.scaleb(_exact_decimal(numerator), digits)
    return str(_EXACT.divide_int(scaled, _exact_decimal(denominator)))


def decimal_length(n: int) -> int:
    """Number of decimal digits of an integer n >= 0, as len(str(n)), from its bit length.

    2**(b-1) <= n < 2**b with b = n.bit_length(), so n has either as many
    digits as 2**(b-1), which is 1 + floor((b-1) * log10(2)), or one more;
    one comparison with a power of ten decides.  The floor is taken in
    floating point, with an error below b * 1e-16.  For b <= 8 * 10**7 (over
    2 * 10**7 digits) no (b-1) * log10(2) lies within 5.7e-9 of an integer
    (the continued fraction of log10(2) shows it), so the floor is exact.
    """
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    length = int((n.bit_length() - 1) * math.log10(2)) + 1
    return length + 1 if n >= 10**length else length


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
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


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
    _check_int(max_digits, "max_digits", 1)
    if interval.lo <= 0:
        raise NonPositiveInterval(
            f"decimal rendering requires a strictly positive interval, got lo={interval.lo}"
        )
    return _shared_digits(
        _scaled_floor_text(interval.lo, max_digits),
        _scaled_floor_text(interval.hi, max_digits),
        max_digits,
    )


def _check_int(value: int, name: str, minimum: int) -> None:
    """Refuse a bool, a float or any other non-int, then an int below `minimum`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be int, got {type(value).__name__}")
    if value < minimum:
        raise InvalidArgument(f"{name} must be >= {minimum}, got {value}")


def _shared_digits(lo_text: str, hi_text: str, max_digits: int) -> DecimalDigits:
    """The digits shared by two truncations, given as the text of floor(x * 10**max_digits)."""
    lo_text = lo_text.zfill(max_digits + 1)
    hi_text = hi_text.zfill(max_digits + 1)
    integer_len = len(lo_text) - max_digits
    if len(hi_text) != len(lo_text):
        # The magnitudes differ, so not even the integer part is shared.
        return DecimalDigits(lo_text[:integer_len], "", 0, True)
    # The longest shared prefix, by bisection on slice equality, which
    # compares at C speed.
    shared, differs = 0, len(lo_text) + 1
    while differs - shared > 1:
        middle = (shared + differs) // 2
        if lo_text[:middle] == hi_text[:middle]:
            shared = middle
        else:
            differs = middle
    if shared < integer_len:
        return DecimalDigits(lo_text[:integer_len], "", 0, True)
    return DecimalDigits(
        lo_text[:integer_len],
        lo_text[integer_len:shared],
        shared - integer_len,
        False,
    )


class _Ints:
    """The `_EXACT` methods that `_EnclosureText` calls, on plain ints."""

    add = staticmethod(operator.add)
    divmod = staticmethod(divmod)
    divide_int = staticmethod(operator.floordiv)

    @staticmethod
    def scaleb(n: int, digits: int) -> int:
        return n * 10**digits


class _EnclosureText:
    """Decimal digits and text of the enclosure [L/P, (L+1)/P], for integers L, P >= 1.

    L and P are converted once each.  When L or the scaled floor is wider
    than `_DECIMAL_PATH_BITS`, they become Decimals by `_exact_decimal` and
    every later operation runs in `_EXACT`; otherwise they stay ints and
    `str()` renders them.  One divmod, q, r = divmod(L * 10**d, P), gives
    both truncations, since floor((L + 1) * 10**d / P) = q + (r + 10**d) // P.
    The lowest-terms endpoints divide the converted L, L + 1 and P exactly
    by gcd(L, P) and gcd(L + 1, P); each gcd is computed when its endpoint
    is asked for.
    """

    def __init__(self, lo_numerator: int, denominator: int, max_digits: int) -> None:
        self._lo_numerator, self._denominator = lo_numerator, denominator
        quotient_bits = lo_numerator.bit_length() - denominator.bit_length() + max_digits * _LOG2_10
        if max(lo_numerator.bit_length(), quotient_bits) > _DECIMAL_PATH_BITS:
            self._arith, self._convert = _EXACT, _exact_decimal
        else:
            self._arith, self._convert = _Ints, int
        arith = self._arith
        self._lo = self._convert(lo_numerator)
        self._den = self._convert(denominator)
        quotient, remainder = arith.divmod(arith.scaleb(self._lo, max_digits), self._den)
        carry = arith.divide_int(arith.add(remainder, arith.scaleb(1, max_digits)), self._den)
        self.digits = _shared_digits(str(quotient), str(arith.add(quotient, carry)), max_digits)

    def lo(self) -> str:
        """L/P in lowest terms, as `format_rational` renders it."""
        return self._lowest_terms(self._lo, math.gcd(self._lo_numerator, self._denominator))

    def hi(self) -> str:
        """(L + 1)/P in lowest terms, as `format_rational` renders it."""
        numerator = self._arith.add(self._lo, 1)
        return self._lowest_terms(numerator, math.gcd(self._lo_numerator + 1, self._denominator))

    def width(self) -> str:
        """The width 1/P."""
        return "1/" + str(self._den)

    def _lowest_terms(self, numerator, divisor: int) -> str:
        denominator = self._den
        if divisor > 1:
            divisor = self._convert(divisor)
            numerator = self._arith.divide_int(numerator, divisor)
            denominator = self._arith.divide_int(denominator, divisor)
        return str(numerator) + "/" + str(denominator)


class _LowestTerms:
    """A rational n/q in lowest terms, stepped and printed in time linear in its digits.

    n and q are exact Decimals in `_EXACT`.  If n/q is in lowest terms, so
    is (n + c*q)/q for any integer c, and m * n/q reduces only by
    g = gcd(m, q mod m), a gcd of two small ints.  So `add` costs a multiply
    by a small int and an addition, `scale` a multiply by a small int, one
    remainder by m and one exact division by g, and `str` reads the digits
    off the Decimals.  The same steps on a Fraction pay full-size gcds, and
    `format_rational` converts both ints from binary again on every call.
    """

    __slots__ = ("_numerator", "_denominator")

    def __init__(self, value: Fraction) -> None:
        self._numerator = _exact_decimal(value.numerator)
        self._denominator = _exact_decimal(value.denominator)

    def add(self, c: int) -> None:
        """n/q += c."""
        self._numerator = _EXACT.add(self._numerator, _EXACT.multiply(self._denominator, c))

    def scale(self, m: int) -> None:
        """n/q *= m, for an int m >= 1."""
        divisor = math.gcd(m, int(_EXACT.remainder(self._denominator, m)))
        self._numerator = _EXACT.multiply(self._numerator, m // divisor)
        if divisor > 1:
            self._denominator = _EXACT.divide_int(self._denominator, divisor)

    def __str__(self) -> str:
        """The value as `format_rational` renders it."""
        return f"{self._numerator}/{self._denominator}"


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
