"""Unit and property tests for rational intervals and decimal rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from primeconst.exact_arith import (
    NonPositiveInterval,
    ParseError,
    RationalInterval,
    format_rational,
    parse_decimal,
    parse_rational,
    to_decimal,
)


def interval(lo, hi):
    return RationalInterval(Fraction(*lo) if isinstance(lo, tuple) else lo,
                            Fraction(*hi) if isinstance(hi, tuple) else hi)


class TestConstruction:
    def test_accepts_fractions_and_ints(self):
        iv = RationalInterval(2, Fraction(7, 3))
        assert iv.lo == 2 and iv.hi == Fraction(7, 3)

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(3), Fraction(2))

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


class TestArithmetic:
    def test_add_scalar_exact(self):
        iv = interval((87, 30), (88, 30)).add_scalar(-2)
        assert iv == interval((27, 30), (28, 30))

    def test_add_scalar_rejects_float(self):
        with pytest.raises(TypeError):
            interval(1, 2).add_scalar(0.5)

    @given(
        lo=st.fractions(min_value=-1000, max_value=1000),
        delta=st.fractions(min_value=0, max_value=1000),
        shift=st.fractions(min_value=-1000, max_value=1000),
        point=st.fractions(min_value=0, max_value=1),
    )
    def test_inclusion_isotonic(self, lo, delta, shift, point):
        iv = RationalInterval(lo, lo + delta)
        x = lo + point * delta
        assert iv.contains(x)
        assert iv.add_scalar(shift).contains(x + shift)


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
        with pytest.raises(NonPositiveInterval):
            to_decimal(interval(0, 1), 3)
        with pytest.raises(NonPositiveInterval):
            to_decimal(interval((-1, 2), (1, 2)), 3)

    def test_rejects_bad_max_digits(self):
        with pytest.raises(ValueError):
            to_decimal(interval(1, 2), 0)
        with pytest.raises(TypeError):
            to_decimal(interval(1, 2), True)

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
        assert parse_decimal(digits.text).contains_interval(iv)

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


class TestRationalSerialization:
    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-7, 2)) == "-7/2"

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

    @given(
        lo=st.fractions(min_value=-100, max_value=100),
        delta=st.fractions(min_value=0, max_value=100),
    )
    def test_interval_pair_round_trip(self, lo, delta):
        iv = RationalInterval(lo, lo + delta)
        assert RationalInterval.from_pair(*iv.to_pair()) == iv
