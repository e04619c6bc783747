"""Unit and property tests for rational intervals and decimal rendering.

`str()` and int `//`, which rendered everything below a size switch of
33 000 bits before the decimal converter took over at every size, are the
oracles for the converter, the interval renderer and `to_decimal` (as
`str_to_decimal` and `point_digits`).  They run inside `int_text_unlimited()`, and the library
calls beside them under the default int-to-text limit.
"""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import int_text_unlimited, interval_text, str_length
from primeconst import exact_arith
from primeconst.constant import enclose
from primeconst.exact_arith import (
    DecimalDigits,
    InvalidArgument,
    ParseError,
    RationalInterval,
    format_rational,
    parse_decimal,
    parse_rational,
    to_decimal,
)
from primeconst.sequences import SequenceSpec

# The former crossover between str() and the decimal converter; sizes
# around it are still drawn, since both sides once took different paths.
OLD_SWITCH_BITS = 33_000


def str_to_decimal(interval, max_digits):
    """to_decimal as it was before the converter: int // and str() at every size."""
    scale = 10**max_digits
    with int_text_unlimited():
        lo_text = str(interval.lo.numerator * scale // interval.lo.denominator).zfill(max_digits + 1)
        hi_text = str(interval.hi.numerator * scale // interval.hi.denominator).zfill(max_digits + 1)
    integer_len = len(lo_text) - max_digits
    if len(hi_text) != len(lo_text):
        return DecimalDigits(lo_text[:integer_len], "", 0, True)
    shared = 0
    for a, b in zip(lo_text, hi_text):
        if a != b:
            break
        shared += 1
    if shared < integer_len:
        return DecimalDigits(lo_text[:integer_len], "", 0, True)
    return DecimalDigits(lo_text[:integer_len], lo_text[integer_len:shared], shared - integer_len, False)


def point_digits(value, max_digits):
    """to_decimal of the point [value, value] by int // and str(): every digit is verified."""
    with int_text_unlimited():
        text = str(value.numerator * 10**max_digits // value.denominator).zfill(max_digits + 1)
    return DecimalDigits(text[:-max_digits], text[-max_digits:], max_digits, False)


# Integers of 0 to 3 * OLD_SWITCH_BITS bits, so both sides of the switch are drawn.
sized_ints = st.builds(
    lambda bits, seed: random.Random(seed).getrandbits(bits),
    st.integers(min_value=0, max_value=3 * OLD_SWITCH_BITS),
    st.integers(min_value=0, max_value=2**32),
)

SPECIAL_INTS = [0, 1, 2, 9, 10, 11]
for _k in (OLD_SWITCH_BITS - 1, OLD_SWITCH_BITS, OLD_SWITCH_BITS + 1, 2 * OLD_SWITCH_BITS, 100_003):
    SPECIAL_INTS += [2**_k - 1, 2**_k, 2**_k + 1]
for _k in (9_999, 10_000, 10_001, 30_000):
    SPECIAL_INTS += [10**_k - 1, 10**_k, 10**_k + 1]


def interval(lo, hi):
    return RationalInterval(Fraction(*lo) if isinstance(lo, tuple) else lo,
                            Fraction(*hi) if isinstance(hi, tuple) else hi)


# Numerators of either sign and positive denominators, up to 40 digits each.
end_numerators = st.integers(-10**40, 10**40)
end_denominators = st.integers(1, 10**40)


@st.composite
def interval_ends(draw):
    """Two ends as ints, or as Fractions over one denominator, denominators sharing a large factor, or unrelated ones.

    The second end is drawn over its own denominator, or equals the first,
    or is one unit of the lcm of the two denominators away from it.
    """
    over = draw(st.sampled_from(["ints", "one", "shared", "unrelated"]))
    if over == "ints":
        a = draw(end_numerators)
        return a, draw(st.one_of(end_numerators, st.sampled_from([a - 1, a, a + 1])))
    if over == "one":
        q = s = draw(end_denominators)
    elif over == "shared":
        factor = draw(end_denominators)
        q, s = factor * draw(st.integers(1, 10**6)), factor * draw(st.integers(1, 10**6))
    else:
        q, s = draw(end_denominators), draw(end_denominators)
    a = Fraction(draw(end_numerators), q)
    unit = Fraction(1, math.lcm(q, s))
    return a, draw(st.one_of(st.builds(Fraction, end_numerators, st.just(s)), st.sampled_from([a - unit, a, a + unit])))


class TestConstruction:
    def test_accepts_fractions_and_ints(self):
        iv = RationalInterval(2, Fraction(7, 3))
        assert iv.lo == 2 and iv.hi == Fraction(7, 3)

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(3), Fraction(2))

    def test_a_point_is_not_ordered(self, fraction_orderings):
        # Ordering two Fractions cross-multiplies them; the ends are ordered
        # over the lcm of their denominators instead, as ints, so neither a
        # point nor distinct ends make a Fraction comparison.
        x = Fraction(10**10_000 + 1, 3**20_000)
        compared = fraction_orderings
        point = RationalInterval(x, x)
        assert (point.lo, point.hi, compared) == (x, x, [])
        assert RationalInterval(x, x + 1).hi == x + 1
        assert compared == []
        with pytest.raises(InvalidArgument) as refusal:
            RationalInterval(x + 1, x)
        with int_text_unlimited():
            assert str(refusal.value) == f"interval endpoints out of order: lo={x + 1} > hi={x}"

    @given(ends=interval_ends())
    def test_refuses_exactly_the_ends_out_of_order(self, ends):
        a, b = ends
        if a > b:
            with pytest.raises(InvalidArgument) as refusal:
                RationalInterval(a, b)
            assert str(refusal.value) == f"interval endpoints out of order: lo={a} > hi={b}"
        else:
            iv = RationalInterval(a, b)
            assert (iv.lo, iv.hi) == (a, b)
            assert isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RationalInterval(2.5, 3)
        with pytest.raises(TypeError):
            RationalInterval(2, 3.5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            RationalInterval(True, 2)

    def test_immutable(self):
        iv = interval((1, 2), (3, 4))
        with pytest.raises(AttributeError):
            iv.lo = Fraction(0)

    def test_equality_and_hash(self):
        a = interval((1, 2), (3, 4))
        b = RationalInterval(Fraction(2, 4), Fraction(6, 8))
        assert a == b
        assert hash(a) == hash(b)
        assert a != interval((1, 2), (7, 8))

    def test_repr_gives_both_ends_as_rationals(self):
        assert repr(RationalInterval(Fraction(-7, 3), 2)) == "[-7/3, 2/1]"

    def test_decimal_digits_print_as_their_text(self):
        digits = to_decimal(interval((2920, 1000), (2921, 1000)), 5)
        assert str(digits) == digits.text == "2.92"
        assert str(DecimalDigits("3", "", 0, True)) == "3"


class TestArithmetic:
    @given(
        lo=st.fractions(min_value=-1000, max_value=1000),
        delta=st.fractions(min_value=0, max_value=1000),
        point=st.fractions(min_value=0, max_value=1),
    )
    def test_inclusion_isotonic(self, lo, delta, point):
        iv = RationalInterval(lo, lo + delta)
        x = lo + point * delta
        assert iv.lo <= x <= iv.hi


class TestToDecimal:
    def test_partial_overlap(self):
        digits = to_decimal(interval((87, 30), (88, 30)), 12)
        assert digits.text == "2.9"
        assert digits.verified == 1
        assert not digits.boundary

    def test_degenerate_is_fully_verified(self):
        digits = to_decimal(interval((1, 3), (1, 3)), 5)
        assert digits.text == "0.33333"
        assert digits.verified == 5

    def test_boundary_integer_transition(self):
        digits = to_decimal(interval((2999, 1000), (3001, 1000)), 3)
        assert digits.boundary
        assert digits.verified == 0
        assert digits.text == "2"

    def test_shared_integer_part_no_fraction_digits(self):
        digits = to_decimal(interval((23999, 10000), (24001, 10000)), 4)
        assert not digits.boundary
        assert digits.verified == 0
        assert digits.text == "2"

    def test_magnitude_change_is_boundary(self):
        digits = to_decimal(interval((99, 10), (101, 10)), 2)
        assert digits.boundary

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument, match=r"^decimal rendering requires a strictly positive interval, got lo=0$"):
            to_decimal(interval(0, 1), 3)
        with pytest.raises(InvalidArgument, match=r"^decimal rendering requires a strictly positive interval, got lo=-1/2$"):
            to_decimal(interval((-1, 2), (1, 2)), 3)

    def test_rejects_bad_max_digits(self):
        with pytest.raises(ValueError):
            to_decimal(interval(1, 2), 0)
        with pytest.raises(TypeError):
            to_decimal(interval(1, 2), True)

    @pytest.mark.parametrize("max_digits", [10**18, 10**20])
    def test_huge_max_digits(self, max_digits):
        # [1/3, 1/2] is over D = 6, so its truncations already differ at one
        # place; a point has every digit, and these caps pass libmpdec's limits.
        assert to_decimal(interval((1, 3), (1, 2)), max_digits) == DecimalDigits("0", "", 0, False)
        with pytest.raises(InvalidArgument, match=f"max_digits must be <= .* for a point, got {max_digits}$"):
            to_decimal(interval((1, 3), (1, 3)), max_digits)

    @given(
        lo=st.fractions(min_value=Fraction(1, 1000), max_value=10**6),
        delta=st.fractions(min_value=0, max_value=10**3),
        max_digits=st.integers(min_value=1, max_value=30),
    )
    def test_verified_digits_enclose_the_interval(self, lo, delta, max_digits):
        iv = RationalInterval(lo, lo + delta)
        digits = to_decimal(iv, max_digits)
        assert len(digits.fraction_digits) == digits.verified
        if digits.boundary:
            assert digits.verified == 0
            return
        enclosure = parse_decimal(digits.text)
        assert enclosure.lo <= iv.lo and iv.hi <= enclosure.hi

    @given(
        value=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
        max_digits=st.integers(min_value=1, max_value=40),
    )
    def test_degenerate_never_boundary(self, value, max_digits):
        digits = to_decimal(RationalInterval(value, value), max_digits)
        assert not digits.boundary
        assert digits.verified == max_digits

    @given(
        lo=st.fractions(min_value=Fraction(1, 100), max_value=10**4),
        delta=st.fractions(min_value=0, max_value=10),
        d=st.integers(min_value=1, max_value=20),
    )
    def test_more_digits_never_verify_less(self, lo, delta, d):
        iv = RationalInterval(lo, lo + delta)
        first = to_decimal(iv, d)
        second = to_decimal(iv, d + 5)
        assert second.verified >= first.verified
        if not first.boundary and first.verified > 0:
            assert second.text.startswith(first.text)


class TestParseDecimal:
    def test_fraction_digits(self):
        iv = parse_decimal("2.92")
        assert iv.lo == Fraction(292, 100)
        assert iv.hi == Fraction(293, 100)

    def test_integer_only(self):
        iv = parse_decimal("3")
        assert iv.lo == 3 and iv.hi == 4

    def test_long_literal(self):
        iv = parse_decimal("2.920050977316")
        assert iv.lo == Fraction(2920050977316, 10**12)
        assert iv.width == Fraction(1, 10**12)

    def test_whitespace_tolerated(self):
        assert parse_decimal(" 2.5 ") == parse_decimal("2.5")

    @pytest.mark.parametrize(
        "bad", ["", "2.", ".5", "-1", "+2", "1e3", "2.9.2", "2,9", "abc", "2 .9"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_decimal(bad)

    def test_rejects_non_string(self):
        with pytest.raises(ParseError):
            parse_decimal(2.92)

    @given(
        whole=st.integers(min_value=0, max_value=10**9),
        frac=st.text(alphabet="0123456789", min_size=0, max_size=12),
    )
    def test_matches_direct_construction(self, whole, frac):
        literal = f"{whole}.{frac}" if frac else str(whole)
        iv = parse_decimal(literal)
        scale = 10 ** len(frac)
        assert iv.lo == Fraction(int(str(whole) + frac), scale)
        assert iv.width == Fraction(1, scale)


class TestIntegerEdges:
    """The integers the CLI's `recover` edge reads, against `int()` and the Fraction edges built on them."""

    @settings(max_examples=60, deadline=None)
    @given(
        whole=st.integers(0, 2000),
        fraction=st.integers(0, 9000),
        seed=st.integers(0, 2**32),
        point=st.booleans(),
    )
    def test_decimal(self, whole, fraction, seed, point):
        rng = random.Random(seed)
        integer_part = "".join(rng.choice("0123456789") for _ in range(whole + 1))
        fraction_part = "".join(rng.choice("0123456789") for _ in range(fraction + 1)) if point else ""
        literal = f"{integer_part}.{fraction_part}" if point else integer_part
        lo, hi, scale = exact_arith._decimal_ints(f" {literal}\n")
        with int_text_unlimited():
            assert lo == int(integer_part + fraction_part)
        assert (hi, scale) == (lo + 1, 10 ** len(fraction_part))
        assert parse_decimal(literal) == RationalInterval(Fraction(lo, scale), Fraction(hi, scale))

    @pytest.mark.parametrize("k", [0, 1, 640, 641, 1281, 1282, 5000, 5001, 20_003])
    def test_power_of_ten(self, k):
        powers = {}
        assert exact_arith._power_of_ten(k, powers) == 10**k
        assert all(power == 10**j for j, power in powers.items())

    @pytest.mark.parametrize(
        "text, parts", [("58/20", (58, 20)), ("-0/7", (0, 7)), ("+3", (3, 1)), (" -88/30 ", (-88, 30))]
    )
    def test_rational_as_written(self, text, parts):
        assert exact_arith._rational_ints(text) == parts
        assert parse_rational(text) == Fraction(*parts)

    @given(
        lo=st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)),
        hi=st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    )
    def test_over_lcm(self, lo, hi):
        try:
            expected = RationalInterval(Fraction(*lo), Fraction(*hi))._lcm_numerators()
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                exact_arith._over_lcm(lo, hi)
            assert str(excinfo.value) == str(exc)
            return
        x, y, denominator = exact_arith._over_lcm(lo, hi)
        assert denominator % expected[2] == 0
        scale = denominator // expected[2]
        assert (x, y) == (expected[0] * scale, expected[1] * scale)
        assert Fraction(x, denominator) == Fraction(*lo) and Fraction(y, denominator) == Fraction(*hi)


class TestRationalSerialization:
    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-7, 2)) == "-7/2"

    @pytest.mark.parametrize("bad", [True, 0.5])
    def test_format_refuses_bools_and_floats(self, bad):
        with pytest.raises(TypeError):
            format_rational(bad)

    def test_parse_accepts_plain_integers(self):
        assert parse_rational("42") == 42
        assert parse_rational("-3/6") == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.5", "1/2/3", "/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @given(q=st.fractions(min_value=-10**12, max_value=10**12))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestDecimalConverter:
    """The converter and the scaled floor against str() and int //."""

    @pytest.mark.parametrize("n", SPECIAL_INTS, ids=lambda n: f"{n.bit_length()}bits")
    def test_special_values(self, n):
        with int_text_unlimited():
            expected, negated = str(n), str(-n)
        assert exact_arith._int_text(n) == expected
        assert exact_arith._int_text(-n) == negated
        assert str(exact_arith._exact_decimal(n)) == expected

    @settings(max_examples=60, deadline=None)
    @given(n=sized_ints)
    def test_matches_str(self, n):
        with int_text_unlimited():
            expected = str(n), str(-n)
        assert (exact_arith._int_text(n), exact_arith._int_text(-n)) == expected

    @settings(max_examples=60, deadline=None)
    @given(numerator=sized_ints, denominator=sized_ints, digits=st.integers(min_value=1, max_value=25_000))
    def test_scaled_floor_matches_int_division(self, numerator, denominator, digits):
        value = Fraction(numerator + 1, denominator + 1)
        assert to_decimal(RationalInterval(value, value), digits) == point_digits(value, digits)

    @pytest.mark.parametrize("digits", [1, 9_999, 10_000, 10_001, 12_000])
    @pytest.mark.parametrize(
        "value",
        [Fraction(1), Fraction(1, 3), Fraction(10**5000 + 1, 7**5000), Fraction(2**40000 - 1, 2**39999)],
    )
    def test_scaled_floor_at_the_switch(self, value, digits):
        assert to_decimal(RationalInterval(value, value), digits) == point_digits(value, digits)

    @settings(max_examples=60, deadline=None)
    @given(
        lo=sized_ints,
        denominator=sized_ints,
        # hi = lo + whole * D + (part mod D): points, narrow intervals and widths of D or more.
        whole=st.integers(min_value=0, max_value=2),
        part=st.one_of(st.just(0), st.integers(min_value=1, max_value=10**6), sized_ints),
        digits=st.integers(min_value=1, max_value=25_000),
    )
    def test_interval_text_matches_two_floors(self, lo, denominator, whole, part, digits):
        denominator += 1
        hi = lo + whole * denominator + part % denominator
        self.check_interval_text(lo, hi, denominator, digits)

    @pytest.mark.parametrize(
        "lo, hi, denominator, digits",
        [
            (0, 0, 1, 3),
            (6, 6, 2, 4),
            (14, 21, 7, 2),
            (2999, 3001, 1000, 3),
            (99, 101, 10, 2),
            (87, 88, 30, 12),
            (10**5000 + 1, 10**5000 + 2, 7**5000, 10_001),
        ],
        ids=["zero", "integer-point", "unit-width", "straddles", "longer-integer", "narrow", "large"],
    )
    def test_interval_text_special_cases(self, lo, hi, denominator, digits):
        self.check_interval_text(lo, hi, denominator, digits)

    @staticmethod
    def check_interval_text(lo, hi, denominator, digits):
        text = interval_text(lo, hi, (denominator,), digits)
        with int_text_unlimited():
            floors = str(lo * 10**digits // denominator), str(hi * 10**digits // denominator)
        assert text.digits == exact_arith._shared_digits(*floors, digits)
        assert text.lo() == format_rational(Fraction(lo, denominator))
        assert text.hi() == format_rational(Fraction(hi, denominator))

    def test_large_enclosure_renders_as_before(self):
        # 5300 primes give a product of about 2.1 * 10^4 digits, past the switch.
        enclosure = enclose(SequenceSpec.primes(), 5300, max_digits=10)
        iv = enclosure.interval
        assert iv.lo.denominator.bit_length() > 2 * OLD_SWITCH_BITS
        for max_digits in (10, 19_999, 20_001, str_length(enclosure.product) + 5):
            assert to_decimal(iv, max_digits) == str_to_decimal(iv, max_digits)
        with int_text_unlimited():
            expected = [f"{q.numerator}/{q.denominator}" for q in (iv.lo, iv.hi)]
        assert [format_rational(iv.lo), format_rational(iv.hi)] == expected

    @given(
        lo=st.fractions(min_value=Fraction(1, 1000), max_value=10**6),
        delta=st.fractions(min_value=0, max_value=10**3),
        max_digits=st.integers(min_value=1, max_value=30),
    )
    def test_small_intervals_render_as_before(self, lo, delta, max_digits):
        iv = RationalInterval(lo, lo + delta)
        assert to_decimal(iv, max_digits) == str_to_decimal(iv, max_digits)


def fraction_steps(value, steps):
    """format_rational of value after each step x -> a*x + c, stepped on a Fraction."""
    texts = []
    for a, c in steps:
        value = a * value + c
        texts.append(format_rational(value))
    return texts


class TestLowestTermsSteps:
    """The row stepper against the same steps on a Fraction, printed by format_rational."""

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**40),
        steps=st.lists(
            st.tuples(
                # Past 10**19, a term no longer fits one word of the decimal module.
                st.one_of(st.integers(1, 60), st.integers(1, 10**30), st.sampled_from((10**19, 10**19 + 1, 2**64))),
                st.one_of(st.just(0), st.integers(-(10**25), 10**25)),
            ),
            max_size=40,
        ),
        # The start need not be in lowest terms.
        scale=st.integers(1, 10**6),
    )
    def test_matches_fraction_steps(self, start, steps, scale):
        n, q = start.numerator * scale, start.denominator * scale
        assert list(exact_arith._lowest_terms_steps(n, q, steps)) == fraction_steps(start, steps)

    def test_large_operands(self):
        start = enclose(SequenceSpec.primes(), 5300).interval.lo
        assert start.denominator.bit_length() > 2 * OLD_SWITCH_BITS
        steps = [(m, -m * m) for m in (2, 3, 6, 10**20 + 7, 7919)]
        n, q = start.numerator, start.denominator
        assert list(exact_arith._lowest_terms_steps(n, q, steps)) == fraction_steps(start, steps)


class TestExactnessGuard:
    @staticmethod
    def snapshot():
        ctx = decimal.getcontext()
        return ctx, (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp,
                     dict(ctx.traps), dict(ctx.flags))

    def test_rendering_leaves_the_current_context_alone(self):
        before = self.snapshot()
        value = Fraction(3**60000 + 1, 7**40000)
        digits = to_decimal(RationalInterval(value, value + Fraction(1, 10**30000)), 25_000)
        assert digits.verified > 20_000
        with int_text_unlimited():
            expected = str(value.numerator)[:50]
        assert format_rational(value).startswith(expected)
        after = self.snapshot()
        assert after[0] is before[0]
        assert after[1] == before[1]

    def test_inexact_operations_raise(self):
        # Operations that would round must raise in the library's context,
        # never round; none of these needs memory for MAX_PREC digits.
        context = exact_arith._EXACT
        with pytest.raises(decimal.Inexact):
            context.to_integral_exact(decimal.Decimal("2.5"))
        with pytest.raises(decimal.Inexact):
            context.quantize(decimal.Decimal("1.25"), decimal.Decimal("0.1"))
        with pytest.raises(decimal.Rounded):
            context.quantize(decimal.Decimal("1.20"), decimal.Decimal("0.1"))
        assert context.divide_int(10**30 + 7, 3) == (10**30 + 7) // 3
