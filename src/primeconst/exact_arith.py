"""Exact rational intervals with verified decimal rendering.

At the API edges every quantity is a `fractions.Fraction` (arbitrary
precision, always in lowest terms with a positive denominator).  The
CLI's `recover` edge is integers instead, since the floor recurrence needs
no lowest terms: `_decimal_ints` reads a decimal as (N, N + 1, 10**k), and
`_rational_ints` reads each end of an enclosure document as written, which
`_over_lcm` puts over the lcm of the two denominators.  `parse_decimal` and
`parse_rational` build their Fractions from the same two parsers.  A
`RationalInterval` is a closed interval with rational endpoints, used as a
rigorous enclosure of a real number, with no rounding anywhere.  Decimal
output is by truncation, and only digits shared by the entire interval are
reported as verified.  Inside the package an enclosure is carried as
integer numerators over one denominator, [lo/D, hi/D], and `_IntervalText`
renders any interval from those integers, held as exact Decimals with a
product tree of D, without forming a `Fraction`.
The rows the floor recurrence prints, one per step, are stepped and
rendered in lowest terms by `_lowest_terms_steps`, one divmod by the step's
term and at most one fma per step, in time linear in their digits.

Conversion between integers and text is exact and subquadratic at every
size.  `_exact_decimal` renders every integer: it splits it on bits and
joins the converted halves with powers of two in the `decimal` module.
`_parse_int` parses every digit string: it joins its halves with a power
of ten; `_parse_int_literal` adds the sign and underscores int() takes.
An integral Decimal goes back through its text, never int(), which is quadratic.
Neither hands `int()` more than 640 digits, the lowest int-to-text
limit CPython accepts, so the library works under any limit and never
reads or sets it.  Every decimal operation runs in the private context
`_EXACT`, with the largest precision and with `Inexact` and `Rounded`
trapped, so a result that would need rounding raises instead.  Its methods
are called directly, so the interpreter's current decimal context is never
changed.

Floats are rejected on sight.  Allowing even one float into the pipeline
would silently break the exactness guarantee, so constructors raise
`TypeError` instead of coercing.
"""

from __future__ import annotations

import decimal
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

__all__ = [
    "DecimalDigits",
    "InputError",
    "InvalidArgument",
    "ParseError",
    "RationalInterval",
    "format_rational",
    "parse_decimal",
    "parse_rational",
    "to_decimal",
]


class InputError(ValueError):
    """Refused input, on which the CLI exits 2: the base of every package error but MismatchDetected, never raised."""


class InvalidArgument(InputError):
    """Raised when an argument is missing or out of its range: a count, size or limit, a term list or an interval."""


class ParseError(InputError):
    """Raised when textual input is not in the accepted format."""


# Pieces this narrow are handed to Decimal(int) whole.
_LEAF_BITS = 2048
# Digit strings this short are handed to int() whole.  CPython accepts no
# int-to-text limit below 640 digits other than none at all, so int() takes
# them whatever limit the caller has set.
_LEAF_DIGITS = 640

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
    """The integer n as a Decimal, by splitting on bits and joining with powers of two."""
    if n.bit_length() <= _LEAF_BITS:
        return decimal.Decimal(n)
    if n < 0:
        return _exact_decimal(-n).copy_negate()
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
    return str(_exact_decimal(n))


def _power_of_ten(k: int, powers: dict[int, int]) -> int:
    """10**k, by squaring 10**(k//2); `powers` keeps it and the powers it was built from."""
    if k not in powers:
        if k <= _LEAF_DIGITS:
            powers[k] = 10**k
        else:
            half = _power_of_ten(k // 2, powers)
            powers[k] = half * half * 10 if k % 2 else half * half
    return powers[k]


def _parse_int(digits: str, powers: dict[int, int] | None = None) -> int:
    """int(digits) for a digit string that the caller's regex has checked.

    Longer than `_LEAF_DIGITS`, it is split in half and joined as
    high * 10**k + low (Brent and Zimmermann, *Modern Computer Arithmetic*,
    §1.7); `powers` keeps each 10**k, for the rest of the recursion and for
    the caller.
    """
    if len(digits) <= _LEAF_DIGITS:
        return int(digits)
    if powers is None:
        powers = {}
    k = len(digits) // 2
    return _parse_int(digits[:-k], powers) * _power_of_ten(k, powers) + _parse_int(digits[-k:], powers)


# What int() accepts in base 10, once stripped: a sign, then digits with
# single underscores between them.
_INT_RE = re.compile(r"([+-]?)(\d+(?:_\d+)*)")


def _parse_int_literal(text: str) -> int:
    """int(text) in base 10 at any length; ParseError where int() would refuse the text."""
    if text.isdecimal():
        return _parse_int(text)
    match = _INT_RE.fullmatch(text.strip())
    if match is None:
        raise ParseError(f"not an integer: {text!r}")
    value = _parse_int(match[2].replace("_", ""))
    return -value if match[1] == "-" else value


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


@dataclass(frozen=True, slots=True, repr=False)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints.

    Instances are immutable, and the endpoints are never rounded.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = _as_fraction(self.lo, "lo")
        hi = _as_fraction(self.hi, "hi")
        if lo > hi:
            raise _out_of_order(lo, hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        """Exact width hi - lo."""
        return self.hi - self.lo

    def _lcm_numerators(self) -> tuple[int, int, int]:
        """(lo, hi, D) with this interval = [lo/D, hi/D], for D the lcm of its two denominators."""
        return _over_lcm(self.lo.as_integer_ratio(), self.hi.as_integer_ratio())

    def __repr__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _out_of_order(lo: Fraction, hi: Fraction) -> InvalidArgument:
    """The error for an interval whose lo exceeds its hi."""
    return InvalidArgument(f"interval endpoints out of order: lo={_fraction_text(lo)} > hi={_fraction_text(hi)}")


def _over_lcm(lo: tuple[int, int], hi: tuple[int, int]) -> tuple[int, int, int]:
    """(x, y, D) with [x/D, y/D] the interval from lo to hi, given as (numerator, denominator) pairs.

    The denominators are positive and need not be in lowest terms; D is
    their lcm.  Raises RationalInterval's InvalidArgument when lo > hi, and
    forms the lowest-terms Fractions only for its message.
    """
    (p, q), (r, s) = lo, hi
    g = math.gcd(q, s)
    x, y = p * (s // g), r * (q // g)
    if x > y:
        raise _out_of_order(Fraction(p, q), Fraction(r, s))
    return x, y, q // g * s


def format_rational(value: Fraction | int) -> str:
    """Render a Fraction or int as "numerator/denominator", denominator always present."""
    value = _as_fraction(value)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _fraction_text(value: Fraction) -> str:
    """The value as str(value) gives it: no denominator when it is 1."""
    return format_rational(value).removesuffix("/1")


_RATIONAL_RE = re.compile(r"^([+-]?)(\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction in lowest terms.

    Raises ParseError for anything else, including a zero denominator.
    """
    return Fraction(*_rational_ints(text))


def _rational_ints(text: str) -> tuple[int, int]:
    """(a, b) of the text "a/b" or "a" (b = 1), as written: not reduced, b > 0."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ParseError(f"not a rational literal: {text!r}")
    sign, numerator, denominator = match.groups()
    denominator = 1 if denominator is None else _parse_int(denominator)
    if denominator == 0:
        raise ParseError(f"zero denominator in {text!r}")
    numerator = _parse_int(numerator)
    return -numerator if sign == "-" else numerator, denominator


def to_decimal(interval: RationalInterval, max_digits: int) -> DecimalDigits:
    """Certified truncated decimal digits shared by every point of `interval`.

    Both endpoints are truncated to `max_digits` fractional digits and the
    common prefix is reported.  Truncation, not rounding: the digits given
    are exactly the leading digits of every number in the interval.  When
    the integer parts already disagree the result is flagged as a boundary
    case with zero verified digits.  A proper interval [lo/D, hi/D] stops
    at D's digit count; a point shares every digit, so its cap must fit `_EXACT`.
    """
    _check_int(max_digits, "max_digits", 1)
    if interval.lo <= 0:
        raise InvalidArgument(
            "decimal rendering requires a strictly positive interval, "
            f"got lo={_fraction_text(interval.lo)}"
        )
    lo, hi, denominator = interval._lcm_numerators()
    lo_decimal = _exact_decimal(lo)
    if hi == lo and lo_decimal.adjusted() + max_digits >= decimal.MAX_PREC:
        limit = decimal.MAX_PREC - lo_decimal.adjusted() - 1
        raise InvalidArgument(f"max_digits must be <= {limit} for a point, got {_int_text(max_digits)}")
    return _IntervalText(lo_decimal, _exact_decimal(hi - lo), [[_exact_decimal(denominator)]], max_digits).digits


def _check_int(value: int, name: str, minimum: int) -> None:
    """Refuse a bool, a float or any other non-int, then an int below `minimum`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be int, got {type(value).__name__}")
    if value < minimum:
        raise InvalidArgument(f"{name} must be >= {minimum}, got {_int_text(value)}")


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


def _low_digits(value: decimal.Decimal, count: int) -> decimal.Decimal:
    """value mod 10**count, for an integral Decimal value >= 0 with exponent 0."""
    return _EXACT.subtract(value, _EXACT.scaleb(_EXACT.shift(value, -count), count))


def _gcd(numerator: decimal.Decimal, residues: Iterable[int], leaves: Iterable[int]) -> int:
    """gcd(numerator, prod(leaves)), from residues congruent to the numerator modulo each leaf."""
    divisor = math.prod(map(math.gcd, residues, leaves))
    if divisor == 1:
        return 1
    return math.gcd(_parse_int(str(_EXACT.remainder(numerator, _exact_decimal(divisor)))), divisor)


class _IntervalText:
    """Decimal digits and text of [lo/D, hi/D], for integers 0 <= lo <= hi and D >= 1, as Decimals.

    lo, the width w = hi - lo and a product tree `levels` of D come as exact
    Decimals, and every operation runs in `_EXACT`.  levels[0] holds the
    leaves B_j, a level above multiplies adjacent pairs of the one below and
    carries a last odd node up, and levels[-1] is [D].  d is `max_digits`,
    or D's digit count if smaller and w > 0, where w/D >= 1/D already
    separates the truncations.  One divmod,
    q, r = divmod(lo * 10**d, D), gives both truncations, since
    floor(hi * 10**d / D) = q + (r + w * 10**d) // D.

    Each lowest-terms text divides its numerator x and D exactly by
    gcd(x, D), found without a full-size gcd when a text is first asked
    for.  A scaled remainder tree (Bernstein, "Scaled remainder trees",
    2004) runs lo down the product tree to the leaf remainders
    r_j = lo mod B_j, with multiplications only: for a node c with sibling
    s under p = c * s, frac(lo / c) = frac(frac(lo / p) * s), so each
    node's fraction, kept to a fixed number of digits, is its parent's
    times its sibling, less the integer part and the digits its smaller
    size no longer needs.  The root's fraction comes from q and r, and
    r_j = round(frac(lo / B_j) * B_j) at the leaves.  Then
    gcd(x, D) = gcd(x, G) = gcd(x mod G, G) for G = prod gcd(x mod B_j, B_j),
    with x mod B_j equal to r_j for lo and to r_j + w for hi: G divides D,
    and gcd(x, D) divides G, since each prime's exponent in it is at most
    the sum of its exponents in the gcd(x, B_j).  So the leaves need not be
    coprime.  The gcds left are of small leaves, and of G with x mod G,
    which is small unless x shares a large part of D.  Only the leaves, G
    and x mod G are turned into ints.
    """

    def __init__(
        self, lo: decimal.Decimal, width: decimal.Decimal, levels: Sequence[Sequence[decimal.Decimal]], max_digits: int
    ) -> None:
        self._lo, self._width, self._hi, self._levels = lo, width, _EXACT.add(lo, width), levels
        self._den = levels[-1][0]
        if width:
            max_digits = min(max_digits, self._den.adjusted() + 1)
        quotient, remainder = _EXACT.divmod(_EXACT.scaleb(lo, max_digits), self._den)
        carry = _EXACT.divide_int(_EXACT.add(remainder, _EXACT.scaleb(width, max_digits)), self._den)
        self.digits = _shared_digits(str(quotient), str(_EXACT.add(quotient, carry)), max_digits)
        # Kept for the root of the remainder tree: lo * 10**d = q * D + r.
        self._scaled_lo = (max_digits, quotient, remainder)

    def lo(self) -> str:
        """lo/D in lowest terms, as `format_rational` renders it."""
        return self._lowest_terms(self._endpoint_divisors[0], self._lo)

    def hi(self) -> str:
        """hi/D in lowest terms, as `format_rational` renders it."""
        return self._lowest_terms(self._endpoint_divisors[1], self._hi)

    @cached_property
    def _endpoint_divisors(self) -> tuple[int, int]:
        """(gcd(lo, D), gcd(hi, D)), from the leaf remainders of lo's scaled remainder tree."""
        leaves = [_parse_int(str(leaf)) for leaf in self._levels[0]]
        remainders = self._leaf_remainders(leaves)
        width = _parse_int(str(self._width))
        return _gcd(self._lo, remainders, leaves), _gcd(self._hi, [r + width for r in remainders], leaves)

    def _leaf_remainders(self, leaves: list[int]) -> list[int]:
        """lo mod B_j for each leaf B_j, by the scaled remainder tree."""
        # Each fraction is a pair (y, h) with y = floor(frac(lo / node) * 10**h),
        # up to an error of e units.  A child keeps h minus its sibling's
        # digit count, which is at most one digit fewer past its own digit
        # count than its parent kept, and has e one unit larger.  So h at the
        # root exceeds D's digit count by the depth plus 3, and at each leaf
        # the error times B_j stays below (depth + 1) / 1000 < 1/2.
        digits = self._den.adjusted() + len(self._levels) + 3
        # floor(lo * 10**digits / D), from q and r.
        scale, quotient, remainder = self._scaled_lo
        shift = digits - scale
        scaled = _EXACT.shift(quotient, shift)
        if shift > 0:
            scaled = _EXACT.add(scaled, _EXACT.divide_int(_EXACT.scaleb(remainder, shift), self._den))
        fractions = [(_low_digits(scaled, digits), digits)]
        for level in reversed(self._levels[:-1]):
            children = []
            for i in range(len(level)):
                fraction, digits = fractions[i // 2]
                if i ^ 1 < len(level):
                    sibling = level[i ^ 1]
                    size = sibling.adjusted() + 1
                    digits -= size
                    fraction = _low_digits(_EXACT.shift(_EXACT.multiply(fraction, sibling), -size), digits)
                children.append((fraction, digits))
            fractions = children
        return [
            (_parse_int(str(fraction)) * leaf * 2 + 10**digits) // (2 * 10**digits) % leaf
            for (fraction, digits), leaf in zip(fractions, leaves)
        ]

    def _lowest_terms(self, divisor: int, numerator: decimal.Decimal) -> str:
        """`numerator` over D, both divided by `divisor`, their gcd."""
        denominator = self._den
        if divisor > 1:
            divisor = _exact_decimal(divisor)
            numerator = _EXACT.divide_int(numerator, divisor)
            denominator = _EXACT.divide_int(denominator, divisor)
        return f"{numerator}/{denominator}"


def _lowest_terms_steps(numerator: int, denominator: int, steps: Iterable[tuple[int, int]]) -> Iterator[str]:
    """format_rational of x after each step x -> a*x + c, for (a, c) in `steps`, ints with a >= 1.

    x starts as numerator/denominator, two ints with denominator > 0,
    reduced by their gcd when the first step is asked for.  With x = n/q in
    lowest terms and g = gcd(a, q), a*x + c is ((a/g)*n + c*(q/g)) / (q/g),
    again in lowest terms, since neither n nor a/g shares a factor with q/g.
    One divmod, q = Q*a + R, gives q/g: Q when R = 0, so g = a, as at nearly
    every step of an enclosure's rows, and else Q*(a/g) + R/g for
    g = gcd(a, R), a gcd of small ints, with n multiplied by a/g.  One fma
    adds c*(q/g).  n and q stay exact Decimals in `_EXACT`, so a step costs
    time linear in their digits, and the text is read off their digits; q's
    text is kept until q changes, since with g = 1 it does not.
    """
    divisor = math.gcd(numerator, denominator)
    numerator, denominator = _exact_decimal(numerator // divisor), _exact_decimal(denominator // divisor)
    denominator_text = None
    for a, c in steps:
        quotient, remainder = _EXACT.divmod(denominator, a)
        if remainder:
            remainder = int(remainder)
            divisor = math.gcd(a, remainder)
            if divisor > 1:
                denominator, denominator_text = _EXACT.fma(quotient, a // divisor, remainder // divisor), None
            numerator = _EXACT.multiply(numerator, a // divisor)
        else:
            denominator, denominator_text = quotient, None
        if c:
            numerator = _EXACT.fma(denominator, c, numerator)
        if denominator_text is None:
            denominator_text = str(denominator)
        yield f"{numerator}/{denominator_text}"


_DECIMAL_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")


def parse_decimal(text: str) -> RationalInterval:
    """Interval of all reals that truncate to the given decimal string.

    "2.92" denotes any number in [2.92, 2.93), which is enclosed here as
    the closed interval [292/100, 293/100].  Only plain nonnegative
    decimals are accepted: no sign, no exponent, no leading point.
    """
    lo, hi, scale = _decimal_ints(text)
    return RationalInterval(Fraction(lo, scale), Fraction(hi, scale))


def _decimal_ints(text: str) -> tuple[int, int, int]:
    """(N, N + 1, 10**k) for the decimal "I.F", with k digits in F and N = int("IF").

    This is `parse_decimal`'s interval over 10**k, not reduced.  N is
    I * 10**k + F, and 10**k is one squaring of the 10**(k//2) that the
    parse of F has built, where `10**k` would build its own powers.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    match = _DECIMAL_RE.match(text.strip())
    if not match:
        raise ParseError(f"not a plain decimal literal: {text!r}")
    integer_part, fraction_part = match.group(1), match.group(2)
    powers: dict[int, int] = {}
    lo = _parse_int(integer_part, powers)
    if fraction_part is None:
        return lo, lo + 1, 1
    fraction = _parse_int(fraction_part, powers)
    scale = _power_of_ten(len(fraction_part), powers)
    lo = lo * scale + fraction
    return lo, lo + 1, scale
