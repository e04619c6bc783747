"""Tests for floor-recurrence recovery, residuals, and denominator bounds."""

import dataclasses
import functools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import int_text_unlimited
from primeconst import cli, recurrence
from primeconst.constant import ConstantEnclosure, _compose, enclose, enclose_digits
from primeconst.exact_arith import (
    InvalidArgument,
    RationalInterval,
    _lowest_terms_steps,
    format_rational,
    parse_decimal,
)
from primeconst.recurrence import (
    FloorBelowTwo,
    RecoveryResult,
    ResidualReport,
    RoundtripReport,
    StopReason,
    _recover,
    recover,
    residuals,
    roundtrip,
)
from primeconst.sequences import SequenceSpec

FIRST_TWELVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def iv(lo, hi):
    return RationalInterval(
        Fraction(*lo) if isinstance(lo, tuple) else lo,
        Fraction(*hi) if isinstance(hi, tuple) else hi,
    )


def fraction_recover(start, max_terms):
    """The floor recurrence on normalised Fractions, keeping every interval.

    The differential oracle for `recover`, which runs on integer numerators
    and keeps only the terms.  Returns every quantity a RecoveryResult
    reports, computed the direct way.
    """
    recovered, intervals = [], []
    lo, hi = start.lo, start.hi
    while True:
        step = len(recovered) + 1
        if len(recovered) >= max_terms:
            stop = StopReason("max_terms")
            break
        if hi - lo >= 1:
            stop = StopReason("width_exceeds_one", step=step)
            break
        m = math.floor(lo)
        if hi >= m + 1:
            stop = StopReason("ambiguous_floor", step=step, straddled=m + 1)
            break
        if m < 2:
            raise FloorBelowTwo(m, step=step)
        recovered.append(m)
        intervals.append(RationalInterval(lo, hi))
        lo, hi = (lo - m + 1) * m, (hi - m + 1) * m
    residual_intervals = [RationalInterval(i.lo - m, i.hi - m) for i, m in zip(intervals, recovered)]
    min_upper = min((r.hi for r in residual_intervals), default=None)
    return {
        "recovered": tuple(recovered),
        "stop": stop,
        "intervals": tuple(intervals),
        "residual_intervals": residual_intervals,
        "min_residual_upper": min_upper,
        "denominator_bound": (
            None if min_upper is None or min_upper <= 0
            else min_upper.denominator // min_upper.numerator
        ),
    }


def oracle_row_texts(expected):
    """The rows `residuals` and `recover --format json` print, rendered the direct way.

    `expected` is a `fraction_recover` result: each residual interval and
    interval width is a lowest-terms Fraction from the replay, printed by
    `format_rational`.
    """
    return (
        [(format_rational(r.lo), format_rational(r.hi)) for r in expected["residual_intervals"]],
        [format_rational(i.width) for i in expected["intervals"]],
    )


def assert_matches_oracle(start, max_terms):
    """Every RecoveryResult field, and the row and width texts, against `fraction_recover`."""
    try:
        expected = fraction_recover(start, max_terms)
    except FloorBelowTwo as oracle_error:
        with pytest.raises(FloorBelowTwo) as excinfo:
            recover(start, max_terms)
        assert (excinfo.value.floor_value, excinfo.value.step) == (
            oracle_error.floor_value,
            oracle_error.step,
        )
        return None
    run = recover(start, max_terms)
    assert {name: getattr(run, name) for name in expected} == expected
    residual_rows, widths = oracle_row_texts(expected)
    assert list(run._ends(_lowest_terms_steps)) == residual_rows
    assert run.to_json_dict()["widths"] == widths
    return run


class TestRecurrenceStep:
    """Single steps of the recurrence, seen through `recover`."""

    def test_exact_image(self):
        run = recover(iv((87, 30), (88, 30)), max_terms=2)
        assert run.recovered == (2, 3)
        assert run.intervals[1] == iv((19, 5), (58, 15))

    def test_degenerate_fixed_point(self):
        run = recover(iv(3, 3), max_terms=2)
        assert run.recovered == (3, 3)
        assert run.intervals == (iv(3, 3), iv(3, 3))

    def test_ambiguous_stops(self):
        # [5/2, 7/2] would stop for width first; this one is narrower than 1.
        run = recover(iv((5, 2), (13, 4)), max_terms=5)
        assert run.recovered == ()
        assert run.stop == StopReason("ambiguous_floor", step=1, straddled=3)

    def test_closed_endpoint_is_ambiguous(self):
        # 3 itself is in [5/2, 3] and has floor 3, so 2 cannot be certified.
        run = recover(iv((5, 2), 3), max_terms=5)
        assert run.recovered == ()
        assert run.stop == StopReason("ambiguous_floor", step=1, straddled=3)

    def test_floor_below_two_raises(self):
        with pytest.raises(FloorBelowTwo) as excinfo:
            recover(iv((3, 2), (8, 5)), max_terms=5)
        assert (excinfo.value.floor_value, excinfo.value.step) == (1, 1)

    def test_negative_floor_raises(self):
        with pytest.raises(FloorBelowTwo) as excinfo:
            recover(iv((-3, 2), (-5, 4)), max_terms=5)
        assert (excinfo.value.floor_value, excinfo.value.step) == (-2, 1)


class TestStopReason:
    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown stop kind: 'bogus'"):
            StopReason("bogus")


class TestComposedMap:
    """The steps `_base` takes on an enclosure are the map (M, C) = `_compose` of the terms it found."""

    @pytest.mark.parametrize(
        "spec", [SequenceSpec.primes(), SequenceSpec.naturals(), SequenceSpec.doubling(), SequenceSpec.boundary()], ids=str
    )
    @pytest.mark.parametrize("steps", [0, 1, 16, 17, 64, 65, 300])
    def test_base_on_an_enclosure(self, spec, steps):
        lo, hi, product = enclose(spec, 320).ints
        terms, x, width = recurrence._base(lo, hi - lo, product, steps)
        # The boundary constant is 3, whose first floor no enclosure certifies.
        assert terms == ([] if spec == SequenceSpec.boundary() else spec.terms(steps))
        M, C = _compose(terms)
        assert x == M * lo - C * product
        assert x + width == M * hi - C * product


class TestWindowWithoutAFirstFloor:
    """A window whose first floor is not certified finds no terms: its sub-windows contain it, down to `_base`."""

    @pytest.mark.parametrize("bits", [64, recurrence._LEAF_BITS, recurrence._LEAF_BITS + 2, 4 * recurrence._LEAF_BITS])
    @pytest.mark.parametrize("case", ["straddles-3", "floor-0", "floor-1", "hi-at-the-next-integer", "width-past-one"])
    def test_returns_no_terms_and_the_identity_map(self, bits, case):
        q = (1 << bits) - 3
        x, width = {
            "straddles-3": (3 * q - 5, 10),
            "floor-0": (q // 3, 1 << (bits // 2)),
            "floor-1": (q + q // 3, 1),
            "hi-at-the-next-integer": (5 * q + q // 3, q - q // 3),
            "width-past-one": (5 * q + 1, 2 * q),
        }[case]
        assert recurrence._windows(x, width, q, 10**6) == ([], 1, 0, x, width)


class TestRecover:
    def test_published_digits_recover_twelve_primes(self):
        run = recover(parse_decimal("2.920050977316"), max_terms=100)
        assert run.recovered == FIRST_TWELVE_PRIMES
        assert run.stop.kind == "width_exceeds_one"
        assert run.stop.step == 13
        assert len(run.intervals) == len(run.recovered)
        assert run.intervals[0] == parse_decimal("2.920050977316")

    def test_two_digit_value_is_immediately_ambiguous(self):
        run = recover(parse_decimal("2.9"), max_terms=10)
        assert run.recovered == ()
        assert run.stop.kind == "ambiguous_floor"
        assert run.stop.step == 1
        assert run.stop.straddled == 3
        assert run.denominator_bound is None

    def test_integer_fixed_point(self):
        run = recover(parse_decimal("3.0"), max_terms=10)
        assert run.recovered == (3, 3, 3)
        assert run.stop.kind == "width_exceeds_one"
        assert run.stop.step == 4
        assert [i.width for i in run.intervals] == [
            Fraction(1, 10),
            Fraction(3, 10),
            Fraction(9, 10),
        ]

    def test_max_terms_zero(self):
        run = recover(parse_decimal("2.920050977316"), max_terms=0)
        assert run.recovered == ()
        assert run.stop.kind == "max_terms"

    def test_floor_below_two_is_an_error_not_a_stop(self):
        with pytest.raises(FloorBelowTwo):
            recover(parse_decimal("1.5"), max_terms=5)

    def test_max_terms_validation(self):
        start = parse_decimal("2.92")
        with pytest.raises(InvalidArgument, match="max_terms must be >= 0, got -1"):
            recover(start, max_terms=-1)
        with pytest.raises(TypeError, match="max_terms must be int"):
            recover(start, max_terms=True)

    def test_step_width_growth_law(self):
        for spec in (SequenceSpec.primes(), SequenceSpec.naturals(), SequenceSpec.doubling()):
            enclosure = enclose(spec, 50)
            run = recover(enclosure.interval, max_terms=50)
            widths = [i.width for i in run.intervals]
            assert widths[0] == Fraction(1, enclosure.product)
            for k in range(len(widths) - 1):
                assert widths[k + 1] == widths[k] * run.recovered[k]

    def test_two_digit_value_certifies_four_terms(self):
        # [2.92, 2.93] has width 0.01, which grows by factors 2, 3, 5, 7 and
        # passes 1 entering the fifth step.
        run = recover(parse_decimal("2.92"), max_terms=10)
        assert run.recovered == (2, 3, 5, 7)
        assert run.stop.kind == "width_exceeds_one"
        assert run.stop.step == 5

    def test_json_shape(self):
        doc = recover(parse_decimal("2.92"), max_terms=10).to_json_dict()
        assert doc["recovered"] == [2, 3, 5, 7]
        assert doc["stop"]["kind"] == "width_exceeds_one"
        assert len(doc["widths"]) == 4
        assert isinstance(doc["denominator_bound"], int)


@st.composite
def start_intervals(draw):
    """Intervals with negative and small floors, integer points, and lo, hi
    on unrelated denominators; widths from 0 to past 1."""
    lo = draw(st.integers(-5, 60)) + draw(st.fractions(0, 1, max_denominator=10**12))
    shape = draw(st.sampled_from(("point", "narrow", "wide")))
    if shape == "point":
        return RationalInterval(lo, lo)
    if shape == "narrow":
        return RationalInterval(lo, lo + Fraction(1, draw(st.integers(1, 10**40))))
    return RationalInterval(lo, lo + draw(st.fractions(min_value=0, max_value=3, max_denominator=10**6)))


@st.composite
def lowest_terms_edge_intervals(draw):
    """Intervals whose rows test the lowest-terms stepper: integer endpoints
    (rows 0/1), points, and endpoints a +- 1/q or a over q = 10^k - 1, 10^k,
    10^k + 1, which run many steps before the width reaches 1."""
    a = draw(st.integers(2, 40))
    if draw(st.booleans()):
        width = draw(st.sampled_from((Fraction(0), Fraction(1, draw(st.integers(1, 10**30))))))
        return draw(st.sampled_from((RationalInterval(a, a + width), RationalInterval(a - width, a))))
    k = draw(st.integers(1, 60))

    def endpoint():
        denominator = 10**k + draw(st.integers(-1, 1))
        return Fraction(a * denominator + draw(st.integers(-1, 1)), denominator)

    lo, hi = sorted((endpoint(), endpoint()))
    return RationalInterval(lo, hi)


class TestAgainstFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(start=start_intervals(), max_terms=st.integers(min_value=0, max_value=80))
    def test_random_intervals(self, start, max_terms):
        assert_matches_oracle(start, max_terms)

    @settings(max_examples=200, deadline=None)
    @given(start=lowest_terms_edge_intervals(), max_terms=st.integers(min_value=0, max_value=80))
    def test_lowest_terms_edge_intervals(self, start, max_terms):
        assert_matches_oracle(start, max_terms)

    def test_integer_point_rows(self):
        run = assert_matches_oracle(iv(3, 3), 2)
        assert list(run._ends(_lowest_terms_steps)) == [("0/1", "0/1"), ("0/1", "0/1")]
        assert run.to_json_dict()["widths"] == ["0/1", "0/1"]
        run = assert_matches_oracle(parse_decimal("3.0"), 10)
        assert list(run._ends(_lowest_terms_steps)) == [("0/1", "1/10"), ("0/1", "3/10"), ("0/1", "9/10")]

    def test_stop_kinds_each_reached(self):
        assert_matches_oracle(iv((5, 2), 3), 10)
        assert_matches_oracle(iv(2, 4), 10)
        assert_matches_oracle(iv((-7, 3), (-7, 3)), 10)
        assert_matches_oracle(iv((29, 10), (2921, 1000)), 10)
        assert_matches_oracle(iv(3, 3), 10)

    def test_primes_enclosure_5004_digits(self):
        run = assert_matches_oracle(enclose(SequenceSpec.primes(), 1404).interval, 100000)
        assert len(run.recovered) == 1404
        assert run.stop == StopReason("width_exceeds_one", step=1405)

    def test_primes_decimal_4000_digits(self):
        start = parse_decimal(enclose_digits(SequenceSpec.primes(), 4000).digits.text)
        run = assert_matches_oracle(start, 100000)
        assert len(run.recovered) == 1154
        assert run.stop.kind == "ambiguous_floor"

    def test_views_order_no_fraction(self, fraction_orderings):
        # Each view's ends are ordered as ints over the lcm of their
        # denominators, both divisors of the enclosure's, not
        # cross-multiplied as Fractions.
        start = enclose(SequenceSpec.primes(), 905).interval
        expected = fraction_recover(start, 905)
        run = recover(start, 905)
        fraction_orderings.clear()
        views = run.residual_intervals, run.intervals
        assert fraction_orderings == []
        assert views == (expected["residual_intervals"], expected["intervals"])
        assert len(views[0]) == 905

    def test_result_keeps_no_per_step_intervals(self):
        start = parse_decimal(enclose_digits(SequenceSpec.primes(), 4000).digits.text)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = recover(start, 100000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(run.recovered) == 1154
        # One interval of this enclosure is about 3.3 kB; 1154 of them are MBs.
        assert retained < 500_000


def row_step_branches(values, terms):
    """The branch of `_lowest_terms_steps` that steps each value but the last into the next.

    The k-th value steps by the k-th term a, and the branch is told by
    g = gcd(a, q) for the value's lowest-terms denominator q.
    """
    branches = set()
    for value, a in zip(values[:-1], terms):
        g = math.gcd(a, value.denominator)
        branches.add("a divides q" if g == a else "g = 1" if g == 1 else "1 < g < a")
    return branches


class TestRowStepBranches:
    """Fixed runs whose printed rows and widths reach each branch of the row stepper, against the oracle."""

    @pytest.mark.parametrize(
        "start, max_terms, ends, widths",
        [
            pytest.param(
                lambda: enclose(SequenceSpec.primes(), 50).interval, 50,
                {"a divides q", "g = 1"}, {"a divides q"}, id="primes enclosure",
            ),
            # A term shares only part of the denominator, on lo's end.
            pytest.param(
                lambda: enclose(SequenceSpec.from_name("naturals"), 20).interval, 20,
                {"a divides q", "1 < g < a"}, {"a divides q"}, id="naturals enclosure",
            ),
            pytest.param(
                lambda: parse_decimal("2.920050977316"), 100,
                {"a divides q", "g = 1"}, {"a divides q", "g = 1"}, id="2.920050977316",
            ),
            pytest.param(
                lambda: parse_decimal("2.718281828459045"), 100,
                {"a divides q", "g = 1", "1 < g < a"}, {"a divides q", "g = 1", "1 < g < a"}, id="e",
            ),
            # lo's rows are 0/1 (see test_integer_point_rows).
            pytest.param(lambda: parse_decimal("3.0"), 100, {"g = 1"}, {"g = 1"}, id="3.0"),
        ],
    )
    def test_branches_reached(self, start, max_terms, ends, widths):
        run = assert_matches_oracle(start(), max_terms)
        lo_branches, hi_branches = (
            row_step_branches([getattr(r, end) for r in run.residual_intervals], run.recovered) for end in ("lo", "hi")
        )
        assert lo_branches | hi_branches == ends
        assert row_step_branches([i.width for i in run.intervals], run.recovered) == widths


def loop_recover(lo, hi, denominator, max_terms):
    """The one-term recurrence loop `_recover` ran before its windows, kept as the differential oracle.

    Each step is a full-size multiply-by-small on the numerators over the
    common denominator, so the loop is quadratic; `_recover` must give the
    same RecoveryResult, field by field, and raise the same FloorBelowTwo.
    Returns that result and the smallest residual upper numerator, which
    the loop finds by comparing every step's and which is not a field.
    """

    def _step(x, m, denominator):
        return m * (x - (m - 1) * denominator)

    recovered: list[int] = []
    min_upper: int | None = None
    x, y = lo, hi
    while True:
        step = len(recovered) + 1
        if len(recovered) >= max_terms:
            stop = StopReason("max_terms")
            break
        if y - x >= denominator:
            stop = StopReason("width_exceeds_one", step=step)
            break
        m = x // denominator
        if y >= (m + 1) * denominator:
            stop = StopReason("ambiguous_floor", step=step, straddled=m + 1)
            break
        if m < 2:
            raise FloorBelowTwo(m, step=step)
        recovered.append(m)
        upper = y - m * denominator
        if min_upper is None or upper < min_upper:
            min_upper = upper
        x, y = _step(x, m, denominator), _step(y, m, denominator)
    return RecoveryResult(tuple(recovered), stop, lo, hi, denominator, y), min_upper


def assert_same_run(run, expected):
    """`run` against a `loop_recover` result: every field, the smallest residual upper numerator and the bound."""
    result, min_upper = expected
    assert run == result
    assert run.min_upper_numerator == min_upper
    bound = None if min_upper is None or min_upper <= 0 else result.denominator // min_upper
    assert run.denominator_bound == bound


def assert_matches_loop(lo, hi, denominator, max_terms):
    """`_recover` on [lo/D, hi/D] against `loop_recover`: every field and the minimum, or the same FloorBelowTwo."""
    try:
        expected = loop_recover(lo, hi, denominator, max_terms)
    except FloorBelowTwo as oracle_error:
        with pytest.raises(FloorBelowTwo) as excinfo:
            _recover(lo, hi, denominator, max_terms)
        assert (excinfo.value.floor_value, excinfo.value.step) == (oracle_error.floor_value, oracle_error.step)
        return None
    run = _recover(lo, hi, denominator, max_terms)
    assert_same_run(run, expected)
    return run


def count_windows(monkeypatch):
    """Count the calls of `recurrence._windows`, its recursive calls included."""
    calls = []
    windows = recurrence._windows

    def counted(*args, **kwargs):
        calls.append(None)
        return windows(*args, **kwargs)

    monkeypatch.setattr(recurrence, "_windows", counted)
    return calls


@st.composite
def window_intervals(draw):
    """[lo/D, hi/D] with D on either side of the leaf size: points, integer lo,
    negative floors, and widths from 0 to past 1.  A point never widens, so
    only its cap stops it, and the cap stays small."""
    bits = draw(st.one_of(st.integers(2, recurrence._LEAF_BITS - 1), st.integers(recurrence._LEAF_BITS + 1, 12000)))
    denominator = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    lo = draw(st.integers(-5 * denominator, 60 * denominator))
    shape = draw(st.sampled_from(("point", "integer", "narrow", "wide")))
    if shape == "integer":
        lo -= lo % denominator
    if shape == "point":
        width = 0
    elif shape == "wide":
        width = draw(st.integers(0, 3 * denominator << draw(st.sampled_from((0, 0, 100)))))
    else:
        width = draw(st.integers(0, 2 ** draw(st.integers(0, bits))))
    cap = draw(st.integers(0, 400 if width == 0 else 10**6))
    return lo, lo + width, denominator, cap


@functools.cache
def primes_digits(digits):
    """The first `digits` digits after the point of the prime constant, as an int."""
    text = enclose_digits(SequenceSpec.primes(), digits).digits.text
    with int_text_unlimited():
        return int(text.replace(".", "")[: digits + 1])


@st.composite
def perturbed_primes_decimals(draw):
    """A 900-6000-digit reading of the prime constant, moved by a few units
    in its last places, with a random width and cap."""
    digits = draw(st.integers(900, 6000))
    denominator = 10**digits
    lo = primes_digits(6000) // 10 ** (6000 - digits) + draw(st.integers(-(10**6), 10**6))
    width = draw(st.integers(1, 10 ** draw(st.integers(0, digits // 4))))
    cap = draw(st.sampled_from((0, 1, 10**6))) if draw(st.booleans()) else draw(st.integers(0, 2000))
    return lo, lo + width, denominator, cap


class TestAgainstTheLoop:
    """`_recover`, by half-size windows, against the one-term loop it replaced."""

    @settings(max_examples=250, deadline=None)
    @given(case=window_intervals())
    def test_random_intervals(self, case):
        assert_matches_loop(*case)

    @settings(max_examples=25, deadline=None)
    @given(case=perturbed_primes_decimals())
    def test_perturbed_primes_decimals(self, case):
        assert_matches_loop(*case)

    def test_width_far_past_one(self):
        # log2(q / width) is -70 here: no window can be formed.
        assert_matches_loop(2 << 100, (2 << 100) + (1 << 170), 1 << 100, 5)

    @pytest.mark.parametrize("terms_used", [1404, 2590, 5300])
    def test_primes_enclosures(self, terms_used, monkeypatch):
        enclosure = enclose(SequenceSpec.primes(), terms_used)
        lo, _, product = enclosure.ints
        for cap in (10**9, terms_used, terms_used // 3):
            expected = loop_recover(lo, lo + 1, product, cap)
            # The smallest residual is reached by a jump back from the last
            # step or forward from the first; each way must give the loop's.
            for walk_back in (recurrence._WALK_BACK, 0, 10**9):
                monkeypatch.setattr(recurrence, "_WALK_BACK", walk_back)
                assert_same_run(_recover(lo, lo + 1, product, cap), expected)
        assert len(expected[0].recovered) == terms_used // 3

    def test_primes_enclosure_ten_to_the_five_digits(self):
        enclosure = enclose(SequenceSpec.primes(), 20488)
        lo = enclosure.ints[0]
        run = _recover(lo, lo + 1, enclosure.product, 10**9)
        assert run.recovered == tuple(SequenceSpec.primes().terms(20488))
        assert run.stop == StopReason("width_exceeds_one", step=20489)


class TestAdversarialInputs:
    """Inputs on which every window fails, or every step is a residual candidate.

    Each must give the loop's result with at most 2 log2(steps) + 8 calls
    of the window function: a failed window doubles the base loop's budget
    at full precision rather than being retried before every step.
    """

    @staticmethod
    def check(monkeypatch, lo, hi, denominator, max_terms):
        calls = count_windows(monkeypatch)
        run = assert_matches_loop(lo, hi, denominator, max_terms)
        assert len(calls) <= 2 * math.log2(max(len(run.recovered), 1)) + 8
        return run

    def test_integer_with_four_thousand_zeros(self, monkeypatch):
        run = self.check(monkeypatch, *parse_decimal("3." + "0" * 4000)._lcm_numerators(), 10**6)
        assert set(run.recovered) == {3} and len(run.recovered) == 8384

    def test_equal_terms_compose_once_for_the_smallest_residual(self, monkeypatch):
        # A term no larger than the one before never holds the smallest
        # residual alone, so of 8384 equal terms only the first is a candidate.
        calls = []
        compose, min_upper = recurrence._compose, recurrence._min_upper

        def counted(*args):
            with monkeypatch.context() as inner:
                inner.setattr(recurrence, "_compose", lambda terms: calls.append(terms) or compose(terms))
                return min_upper(*args)

        monkeypatch.setattr(recurrence, "_min_upper", counted)
        run = assert_matches_loop(*parse_decimal("3." + "0" * 4000)._lcm_numerators(), 10**6)
        assert len(run.recovered) == 8384
        assert len(calls) <= 1

    def test_integer_lo_keeps_its_window_exact(self):
        # Rounded down, the window's floor would be 2 and the window would fail.
        denominator = 10**4000
        x, width, window_q = recurrence._outward(3 * denominator, 1, denominator, 6000)
        assert x == 3 * window_q and width > 0

    def test_integer_point(self, monkeypatch):
        denominator = 10**4000
        run = self.check(monkeypatch, 3 * denominator, 3 * denominator, denominator, 3000)
        assert run.recovered == (3,) * 3000

    @pytest.mark.parametrize("name", ["doubling", "boundary"])
    @pytest.mark.parametrize("terms_used", [60, 150, 220])
    def test_tied_residuals(self, monkeypatch, name, terms_used):
        spec = SequenceSpec.from_name(name)
        enclosure = enclose(spec, terms_used)
        lo = enclosure.ints[0]
        run = self.check(monkeypatch, lo, lo + 1, enclosure.product, terms_used)
        report = roundtrip(spec, terms_used)
        assert (report.run.recovered, report.run.stop) == (run.recovered, run.stop)


class TestRecoveryMemory:
    def test_peak_stays_a_multiple_of_the_operands(self):
        # Memory must grow with the operands, not with steps x operand size
        # (5300 x 9.3 kB here).  Past the terms themselves, the peak stays
        # within 16 times P's size, the smallest residual's pass included.
        enclosure = enclose(SequenceSpec.primes(), 5300)
        lo, _, product = enclosure.ints
        terms = SequenceSpec.primes().terms(5300)
        terms_bytes = sys.getsizeof(terms) + sum(sys.getsizeof(term) for term in terms)
        tracemalloc.start()
        try:
            run = _recover(lo, lo + 1, product, 5300)
            assert run.denominator_bound is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.recovered) == 5300
        assert peak < terms_bytes + 16 * product.bit_length() // 8


def count_min_upper(monkeypatch):
    """Count the calls of `recurrence._min_upper`."""
    calls = []
    min_upper = recurrence._min_upper
    monkeypatch.setattr(recurrence, "_min_upper", lambda *args: calls.append(None) or min_upper(*args))
    return calls


class TestSmallestResidualOnFirstRead:
    """A result finds its smallest residual upper bound when it is first read, and only then."""

    def test_roundtrip_never_finds_it(self, monkeypatch):
        calls = count_min_upper(monkeypatch)
        report = roundtrip(SequenceSpec.primes(), 2590)
        assert report.to_json_dict()["recovered_count"] == 2590
        assert calls == []

    def test_residuals_finds_it_once_for_its_cut(self, monkeypatch):
        calls = count_min_upper(monkeypatch)
        report = residuals(SequenceSpec.primes(), 2590, count=2589)
        assert calls == []
        assert report.run.denominator_bound is not None
        assert report.run.min_residual_upper is not None
        assert len(calls) == 1

    def test_each_result_finds_it_once(self, monkeypatch):
        calls = count_min_upper(monkeypatch)
        run = _recover(*enclose(SequenceSpec.primes(), 905).ints, 905)
        first = run.denominator_bound, run.min_residual_upper
        assert (run.denominator_bound, run.min_residual_upper) == first
        assert len(calls) == 1


WALK_BACKS = (0, recurrence._WALK_BACK, 10**9)


def every_step_min_upper(terms, hi, last, denominator):
    """min over k of hi_k - a_k * D, stepping hi by the one-term map: the oracle for `_min_upper`."""
    uppers = []
    for a in terms:
        uppers.append(hi - a * denominator)
        hi = a * (hi - (a - 1) * denominator)
    assert hi == last
    return min(uppers, default=None)


def random_decimal(seed, digits=2000):
    """(lo, hi, D) of a decimal with a random integer part from 2 to 9 and `digits` random digits after the point."""
    rng = random.Random(seed)
    return parse_decimal(f"{rng.randint(2, 9)}." + "".join(rng.choices("0123456789", k=digits)))._lcm_numerators()


MIN_UPPER_STARTS = {
    "doubling-100": lambda: enclose(SequenceSpec.doubling(), 100).ints,
    "doubling-300": lambda: enclose(SequenceSpec.doubling(), 300).ints,
    **{f"random-decimal-{seed}": functools.partial(random_decimal, seed) for seed in (1, 9, 10)},
    "primes-905": lambda: enclose(SequenceSpec.primes(), 905).ints,
    "primes-2590": lambda: enclose(SequenceSpec.primes(), 2590).ints,
    "naturals-600": lambda: enclose(SequenceSpec.naturals(), 600).ints,
    "3.000...": lambda: parse_decimal("3." + "0" * 4000)._lcm_numerators(),
}


@functools.cache
def min_upper_case(name):
    """The arguments `_min_upper` takes for the recovery of MIN_UPPER_STARTS[name], and the oracle's minimum."""
    run = _recover(*MIN_UPPER_STARTS[name](), 10**6)
    args = (run.recovered, run.hi_numerator, run.end_numerator, run.denominator)
    return args, every_step_min_upper(*args)


def counting_terms(terms, bits):
    """`terms` as ints that record the size of every number of more than `bits` bits divided by them."""
    divided = []

    class Term(int):
        def __rfloordiv__(self, other):
            if other.bit_length() > bits:
                divided.append(other.bit_length())
            return int.__rfloordiv__(self, other)

    return tuple(map(Term, terms)), divided


class TestOnePassMinimum:
    """`_min_upper` finds its candidates' exact bounds in one pass of composed maps, with no step-by-step walk."""

    @staticmethod
    def check(lo, hi, denominator, max_terms):
        """`_min_upper` of the recovery of [lo/D, hi/D] against the every-step oracle, at each jump limit."""
        try:
            run = _recover(lo, hi, denominator, max_terms)
        except FloorBelowTwo:
            return
        args = (run.recovered, run.hi_numerator, run.end_numerator, run.denominator)
        expected = every_step_min_upper(*args)
        for walk_back in WALK_BACKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(recurrence, "_WALK_BACK", walk_back)
                assert recurrence._min_upper(*args) == expected

    @pytest.mark.parametrize("walk_back", WALK_BACKS)
    @pytest.mark.parametrize("name", list(MIN_UPPER_STARTS))
    def test_against_every_step(self, monkeypatch, name, walk_back):
        args, expected = min_upper_case(name)
        monkeypatch.setattr(recurrence, "_WALK_BACK", walk_back)
        assert recurrence._min_upper(*args) == expected

    @settings(max_examples=150, deadline=None)
    @given(start=st.one_of(start_intervals(), lowest_terms_edge_intervals()), max_terms=st.integers(0, 80))
    def test_random_starts(self, start, max_terms):
        self.check(*start._lcm_numerators(), max_terms)

    @settings(max_examples=100, deadline=None)
    @given(case=window_intervals())
    def test_random_windows(self, case):
        self.check(*case)

    @pytest.mark.parametrize("name", ["doubling-300", "random-decimal-1"])
    def test_no_full_size_number_is_divided_by_a_term(self, name):
        # A step-by-step walk back from the last step would divide the
        # full-size hi by every term it passes: 300 times on the doubling
        # enclosure.
        (terms, hi, last, denominator), expected = min_upper_case(name)
        counted, divided = counting_terms(terms, 4096)
        assert denominator.bit_length() > 4096
        assert recurrence._min_upper(counted, hi, last, denominator) == expected
        assert divided == []

    @pytest.mark.parametrize(
        "name, jumps", [("primes-905", True), ("primes-2590", True), ("random-decimal-9", False), ("random-decimal-10", False)]
    )
    def test_jump_back_only_over_a_short_product(self, monkeypatch, name, jumps):
        # The primes' minimum lies near the end: one division by the product
        # of the last few terms replaces a forward map over most of the run.
        # These random decimals' minimum lies past the middle of the run, but
        # the terms from there on, which grow along it, hold over a quarter of
        # D's bits; dividing by their product would cost more than the map.
        (terms, hi, last, denominator), expected = min_upper_case(name)
        composed = []
        monkeypatch.setattr(recurrence, "_compose", lambda segment: composed.append(segment) or _compose(segment))
        assert recurrence._min_upper(terms, hi, last, denominator) == expected
        suffixes = [segment for segment in composed if segment and segment == terms[-len(segment):]]
        assert bool(suffixes) == jumps
        if jumps:
            assert all(len(segment) <= len(terms) // 2 for segment in composed)
        else:
            assert 2 * max(map(len, composed)) > len(terms)


class TestResiduals:
    def test_primes_fifty_terms(self):
        report = residuals(SequenceSpec.primes(), 50)
        assert report.certified == 50
        assert len(report.run.residual_intervals) == 50
        for residual in report.run.residual_intervals:
            assert 0 < residual.lo and residual.hi < 1
        assert report.run.min_residual_upper == Fraction(463, 51983)
        assert report.run.denominator_bound == 112

    def test_primes_hundred_terms(self):
        assert residuals(SequenceSpec.primes(), 100).run.denominator_bound == 256

    def test_bound_nondecreasing_in_terms(self):
        bounds = [
            residuals(SequenceSpec.primes(), n).run.denominator_bound
            for n in (10, 25, 50, 75, 100)
        ]
        assert all(b is not None for b in bounds)
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_bound_reaches_one_thousand_with_enough_terms(self):
        # B >= 1000 first holds with 308 terms (B = 1010, minimum at step 307,
        # the twin pair 2027/2029); at 320 terms the minimum moves to step
        # 318, the twin pair 2111/2113, and B = 1051.
        report = residuals(SequenceSpec.primes(), 320)
        assert report.certified == 320
        assert report.run.denominator_bound == 1051

    def test_count_selects_leading_rows(self):
        report = residuals(SequenceSpec.primes(), 50, count=5)
        assert len(report.run.residual_intervals) == 5
        assert report.certified == 50
        full = residuals(SequenceSpec.primes(), 50)
        assert report.run.residual_intervals == full.run.residual_intervals[:5]

    @pytest.mark.parametrize("walk_back", [0, recurrence._WALK_BACK, 10**9])
    @pytest.mark.parametrize(
        "name, terms_used", [("primes", 905), ("primes", 2590), ("doubling", 220), ("naturals", 300)]
    )
    def test_count_cuts_the_run_to_a_fresh_recovery(self, monkeypatch, name, terms_used, walk_back):
        # Doubling ties every step for the smallest residual; the jump's
        # limit decides which candidates are reached back from the last hi.
        monkeypatch.setattr(recurrence, "_WALK_BACK", walk_back)
        spec = SequenceSpec.from_name(name)
        ints = enclose(spec, terms_used).ints
        certified = len(_recover(*ints, terms_used).recovered)
        counts = {0, 1, certified // 3, certified - 1025, certified - 1024, certified - 1, certified}
        for count in sorted(c for c in counts if c >= 0):
            run = residuals(spec, terms_used, count=count).run
            asked = terms_used if count == certified else count
            fresh = _recover(*ints, asked)
            assert run == fresh
            assert (run.min_upper_numerator, run.denominator_bound) == (
                fresh.min_upper_numerator,
                fresh.denominator_bound,
            )
            if walk_back == 0:
                assert_same_run(run, loop_recover(*ints, asked))

    def test_count_below_certified_recovers_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(recurrence, "_recover", lambda *args: calls.append(args) or _recover(*args))
        report = residuals(SequenceSpec.primes(), 2590, count=2589)
        assert (report.certified, len(report.run.recovered)) == (2590, 2589)
        assert len(calls) == 1

    def test_count_beyond_certified_raises(self):
        message = r"^enclosure from 15 terms certifies only 15 residuals, 16 requested; increase terms_used$"
        with pytest.raises(InvalidArgument, match=message):
            residuals(SequenceSpec.primes(), 15, count=16)

    @pytest.mark.parametrize("count", [12.0, True, False, "3"])
    def test_rejects_non_int_count(self, count):
        # 12.0 and True would pass every comparison with an int count.
        with pytest.raises(TypeError, match="count must be int"):
            residuals(SequenceSpec.primes(), 12, count=count)

    @pytest.mark.parametrize("terms_used", [12.0, True])
    def test_rejects_non_int_terms_used(self, terms_used):
        with pytest.raises(TypeError, match="terms_used must be int"):
            residuals(SequenceSpec.primes(), terms_used)

    def test_boundary_certifies_nothing(self):
        report = residuals(SequenceSpec.boundary(), 10)
        assert report.certified == 0
        assert report.run.residual_intervals == []
        assert report.run.min_residual_upper is None
        assert report.run.denominator_bound is None
        message = r"^enclosure from 10 terms certifies only 0 residuals, 1 requested; increase terms_used$"
        with pytest.raises(InvalidArgument, match=message):
            residuals(SequenceSpec.boundary(), 10, count=1)

    def test_residual_matches_shifted_sequence_route(self):
        # The third residual of the naturals constant encloses f_3 - 4 where
        # f_3 is the constant of the shifted sequence 4, 5, 6, ...; both
        # routes must agree on a common point.
        report = residuals(SequenceSpec.naturals(), 18, count=5)
        shifted = SequenceSpec.explicit(list(range(4, 26)))
        shifted_interval = enclose(shifted, 20).interval
        other = RationalInterval(shifted_interval.lo - 4, shifted_interval.hi - 4)
        direct = report.run.residual_intervals[2]
        assert max(direct.lo, other.lo) <= min(direct.hi, other.hi)

    def test_json_shape(self):
        doc = residuals(SequenceSpec.primes(), 20, count=3).to_json_dict()
        assert doc["sequence"] == "primes"
        assert doc["count"] == 3
        assert len(doc["residuals"]) == 3
        assert doc["denominator_bound"] >= 1


class TestRoundtrip:
    @pytest.mark.parametrize(
        "spec", [SequenceSpec.primes(), SequenceSpec.doubling(), SequenceSpec.naturals()], ids=str
    )
    @pytest.mark.parametrize("terms_used", [5, 10, 15, 20, 25])
    def test_full_recovery_for_builtins(self, spec, terms_used):
        report = roundtrip(spec, terms_used)
        assert len(report.run.recovered) == terms_used
        assert report.run.recovered == tuple(spec.terms(terms_used))
        assert report.run.stop.kind == "max_terms"
        assert not report.enclosure.validation.all_tail_equalities

    def test_reports_hold_the_enclosure_and_the_run(self):
        assert [f.name for f in dataclasses.fields(RoundtripReport)] == ["enclosure", "run"]
        assert [f.name for f in dataclasses.fields(ResidualReport)] == ["enclosure", "certified", "run"]

    def test_terms_are_fetched_once(self, monkeypatch):
        # The recovered terms are compared with the terms the enclosure holds.
        calls = []
        terms = SequenceSpec.terms
        monkeypatch.setattr(SequenceSpec, "terms", lambda spec, count: calls.append(count) or terms(spec, count))
        report = roundtrip(SequenceSpec.primes(), 2590)
        assert len(report.run.recovered) == 2590
        assert calls == [2591]

    def test_bad_counts_are_refused_before_any_term_is_fetched(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("terms fetched before the counts were checked")

        monkeypatch.setattr(SequenceSpec, "terms", refuse)
        primes = SequenceSpec.primes()
        with pytest.raises(InvalidArgument, match=r"^max_terms must be >= 0, got -1$"):
            roundtrip(primes, 10**5, max_terms=-1)
        with pytest.raises(InvalidArgument, match=r"^count must be >= 0, got -1$"):
            residuals(primes, 10**5, count=-1)
        # With both counts bad, terms_used is named first.
        with pytest.raises(InvalidArgument, match=r"^terms_used must be >= 1, got 0$"):
            roundtrip(primes, 0, max_terms=-1)
        with pytest.raises(InvalidArgument, match=r"^terms_used must be >= 1, got 0$"):
            residuals(primes, 0, count=-1)

    def test_recovery_cap(self):
        report = roundtrip(SequenceSpec.primes(), 10, max_terms=4)
        assert len(report.run.recovered) == 4
        assert report.run.stop.kind == "max_terms"

    @pytest.mark.parametrize("terms_used", [12.0, True])
    def test_rejects_non_int_terms_used(self, terms_used):
        with pytest.raises(TypeError, match="terms_used must be int"):
            roundtrip(SequenceSpec.primes(), terms_used)

    @pytest.mark.parametrize(
        "max_terms, error, message",
        [(4.0, TypeError, "max_terms must be int"), (True, TypeError, "max_terms must be int"),
         (-1, InvalidArgument, "max_terms must be >= 0")],
        ids=["4.0", "True", "-1"],
    )
    def test_rejects_bad_max_terms(self, max_terms, error, message):
        with pytest.raises(error, match=message):
            roundtrip(SequenceSpec.primes(), 10, max_terms=max_terms)

    @pytest.mark.parametrize(
        "spec", [SequenceSpec.primes(), SequenceSpec.naturals(), SequenceSpec.doubling(), SequenceSpec.boundary()], ids=str
    )
    @pytest.mark.parametrize("terms_used", [1, 2, 7, 60])
    @pytest.mark.parametrize("max_terms", [None, 0, 3])
    def test_integer_enclosure_recovers_as_the_interval(self, spec, terms_used, max_terms, monkeypatch):
        interval = enclose(spec, terms_used).interval
        run = recover(interval, terms_used if max_terms is None else max_terms)
        expected_residuals = self.residual_outcome(spec, terms_used, max_terms)
        # The integers L, L + 1 and P go to the recurrence: no lowest-terms
        # interval is formed and `recover`, its API edge, is not called.
        monkeypatch.setattr(ConstantEnclosure, "interval", property(self.refuse))
        monkeypatch.setattr("primeconst.recurrence.recover", self.refuse)
        report = roundtrip(spec, terms_used, max_terms=max_terms)
        assert (report.run.recovered, report.run.stop) == (run.recovered, run.stop)
        # `residuals` takes the same path, with max_terms as its count.
        assert self.residual_outcome(spec, terms_used, max_terms) == expected_residuals

    @staticmethod
    def residual_outcome(spec, terms_used, count):
        """The rows, smallest upper end and bound `residuals` reports, or the message it refuses with."""
        try:
            report = residuals(spec, terms_used, count=count)
        except InvalidArgument as exc:
            assert str(exc).endswith("; increase terms_used")
            return str(exc)
        return list(report.run._ends(_lowest_terms_steps)), report.run.min_residual_upper, report.run.denominator_bound

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence went through the lowest-terms interval")

    def test_boundary_stops_degenerately(self):
        report = roundtrip(SequenceSpec.boundary(), 10)
        assert len(report.run.recovered) == 0
        assert report.run.recovered == ()
        assert report.run.stop.kind == "ambiguous_floor"
        assert report.run.stop.straddled == 3
        assert report.enclosure.validation.all_tail_equalities

    def test_json_shape(self):
        doc = roundtrip(SequenceSpec.primes(), 10).to_json_dict()
        assert doc["match_length"] == 10
        assert doc["mismatches"] == 0
        assert doc["degenerate_tail"] is False
        assert doc["stop"]["kind"] == "max_terms"


SEQUENCE_FILE_TERMS = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584]


class TestPrintedRows:
    """`residuals` rows in text and JSON against the Fraction replay, on every kind of sequence."""

    @pytest.fixture
    def sequence_flags(self, request, tmp_path):
        if request.param != "file":
            return ["--sequence", request.param], SequenceSpec.from_name(request.param)
        path = tmp_path / "seq.txt"
        path.write_text("# Fibonacci from 2\n" + "\n".join(map(str, SEQUENCE_FILE_TERMS)) + "\n")
        return ["--sequence-file", str(path)], SequenceSpec.explicit(SEQUENCE_FILE_TERMS)

    @pytest.mark.parametrize(
        "sequence_flags", ["primes", "naturals", "doubling", "boundary", "file"], indirect=True
    )
    @pytest.mark.parametrize("terms_used", [1, 2, 5, 14])
    @pytest.mark.parametrize("count", [None, 0, 1, 3])
    def test_rows_match_the_fraction_replay(self, capsys, sequence_flags, terms_used, count):
        flags, spec = sequence_flags
        expected = fraction_recover(enclose(spec, terms_used).interval, terms_used)
        rows, _ = oracle_row_texts(expected)
        if count is not None:
            if count > len(rows):
                return
            rows = rows[:count]
        argv = ["residuals", *flags, "--terms", str(terms_used)]
        if count is not None:
            argv += ["--count", str(count)]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"count: {len(rows)}" in lines
        assert [line for line in lines if line.startswith("residual ")] == [
            f"residual {step}: [{lo}, {hi}]" for step, (lo, hi) in enumerate(rows, start=1)
        ]
        assert cli.main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["count"], doc["residuals"]) == (len(rows), [list(row) for row in rows])

    def test_count_prefixes_of_nine_hundred_rows(self):
        expected = fraction_recover(enclose(SequenceSpec.primes(), 905).interval, 905)
        rows, _ = oracle_row_texts(expected)
        for count in (0, 1, 2, 10, 450, 904, 905):
            report = residuals(SequenceSpec.primes(), 905, count=count)
            assert list(report.run._ends(_lowest_terms_steps)) == rows[:count]
            assert report.run.residual_intervals == expected["residual_intervals"][:count]


@settings(max_examples=30, deadline=None)
@given(
    start=st.integers(min_value=2, max_value=40),
    seeds=st.lists(st.integers(min_value=0, max_value=10**9), min_size=4, max_size=16),
)
def test_certified_floors_are_never_wrong_generated(start, seeds):
    terms = [start]
    for seed in seeds:
        a = terms[-1]
        terms.append(a + 1 + seed % (a - 1) if a > 2 else a + 1)
    spec = SequenceSpec.explicit(terms)
    # roundtrip raises MismatchDetected if any certified floor disagrees
    # with the source sequence; that must never happen.
    report = roundtrip(spec, len(terms) - 1)
    assert report.run.stop.kind in ("max_terms", "ambiguous_floor")
    assert report.run.recovered == tuple(terms[: len(report.run.recovered)])
