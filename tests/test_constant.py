"""Tests for partial sums, enclosures, and term planning.

The Horner-form series numerator, the one-term-at-a-time planning loop and
the fresh-enclosure extension loop, which the binary splitting, the count
up from a float start and the one-term series extension replaced, are kept
here as differential oracles.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import each_term, str_length
from primeconst import constant
from primeconst.constant import (
    ValidationFailed,
    _series,
    enclose,
    enclose_digits,
    interval_from_enclosure_json,
    plan_terms,
)
from primeconst.exact_arith import InvalidArgument, to_decimal
from primeconst.sequences import ExplicitExhausted, SequenceSpec

ALL_BUILTINS = [
    SequenceSpec.primes(),
    SequenceSpec.naturals(),
    SequenceSpec.doubling(),
    SequenceSpec.boundary(),
]


def series_sum_oracle(terms):
    """The defining series summed term by term, no Horner, no shared code path."""
    total = Fraction(0)
    running = 1
    for t in terms:
        total += Fraction(t - 1, running)
        running *= t
    return total


def horner_numerator(terms):
    """T with g_N = T / (a_1 * ... * a_{N-1}): T_1 = a_1 - 1, T_k = T_{k-1} * a_{k-1} + (a_k - 1)."""
    total = terms[0] - 1
    for previous, current in zip(terms, terms[1:]):
        total = total * previous + (current - 1)
    return total


def plan_terms_oracle(spec, digits):
    """Smallest N with P_N >= 10**(digits + 2), one term at a time."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    threshold = 10 ** (digits + 2)
    running = 1
    count = 0
    terms = each_term(spec)
    while running < threshold:
        count += 1
        running *= next(terms)
    return count


def enclose_digits_oracle(spec, digits, max_digits=None):
    """`enclose_digits` from the one-term plan, with a fresh `enclose` for each added term."""
    cap = digits if max_digits is None else max_digits
    enclosure = enclose(spec, plan_terms_oracle(spec, digits), max_digits=cap)
    while enclosure.digits.verified < min(digits, cap) and not enclosure.digits.boundary:
        try:
            enclosure = enclose(spec, enclosure.terms_used + 1, max_digits=cap)
        except ExplicitExhausted as exc:
            assert str(exc).startswith(f"need {enclosure.terms_used + 2} terms of ")
            break
    return enclosure


def enclosure_view(enclosure):
    """Everything an enclosure shows: its ints, its digits and its texts."""
    return (
        enclosure.terms_used,
        enclosure.max_digits,
        enclosure.product,
        enclosure.ints,
        enclosure.digits,
        enclosure.lo_text,
        enclosure.hi_text,
        enclosure.width_text,
    )


def outcome(fn, *args):
    """The value `fn` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_plans_like_the_loop(spec, digits):
    """plan_terms gives the loop's count or error, and `_proposal` starts at or below that count."""
    expected = outcome(plan_terms_oracle, spec, digits)
    assert outcome(plan_terms, spec, digits) == expected, digits
    if isinstance(expected, int):
        assert constant._proposal(spec, digits)[1] <= expected, digits


class TestProduct:
    """The product tree of P that the series keeps, and that the renderer descends."""

    def test_empty_and_single(self):
        assert _series([7]).levels == ((7,),)
        assert _series([]).levels == ((1,),)

    @pytest.mark.parametrize("size", [2, 63, 64, 65, 130, 400])
    def test_matches_math_prod_across_tree_threshold(self, size):
        values = [(3 * i + 1) for i in range(size)]
        levels = [[int(node) for node in level] for level in _series(values).levels]
        assert levels[-1] == [math.prod(values)]
        assert levels[0] == [math.prod(values[i : i + 64]) for i in range(0, size, 64)]
        for below, above in zip(levels, levels[1:]):
            assert above == [math.prod(below[i : i + 2]) for i in range(0, len(below), 2)]

    @given(values=st.lists(st.integers(min_value=-50, max_value=10**6), min_size=1, max_size=200))
    def test_matches_math_prod_random(self, values):
        assert _series(values).product == math.prod(values)


def one_term_pair(terms):
    """(P, S) of `terms` a term at a time: P' = a * P and S' = (S + a - 1) * a."""
    p, s = 1, 0
    for a in terms:
        p, s = p * a, (s + a - 1) * a
    return p, s


@st.composite
def admissible_terms(draw):
    """Up to 300 terms with a_1 >= 2 and a_k < a_{k+1} <= 2 * a_k - 1."""
    terms = [draw(st.integers(min_value=2, max_value=10**6))]
    for seed in draw(st.lists(st.integers(min_value=0, max_value=2**64), max_size=299)):
        a = terms[-1]
        terms.append(a + 1 + seed % (a - 1))
    return terms


class TestOneAlgebra:
    """`_compose`, the one code that forms (P, S), against the series built from it and the one-term loop."""

    @staticmethod
    def check(terms):
        pair = constant._compose(terms)
        assert pair == one_term_pair(terms)
        series = _series(terms)
        assert (int(series.product), int(series.numerator)) == pair

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    @pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 63, 64, 65, 129, 300])
    def test_builtin_prefixes(self, spec, count):
        self.check(spec.terms(count))

    @settings(max_examples=100, deadline=None)
    @given(terms=admissible_terms())
    def test_admissible_lists(self, terms):
        self.check(terms)


class TestPartialSum:
    """`ConstantEnclosure.partial_sum`, the partial sum g_N of the defining series."""

    def test_single_term(self):
        assert enclose(SequenceSpec.primes(), 1).partial_sum == 1

    def test_primes_three_terms(self):
        assert enclose(SequenceSpec.primes(), 3).partial_sum == Fraction(8, 3)

    def test_naturals_four_terms(self):
        assert enclose(SequenceSpec.naturals(), 4).partial_sum == Fraction(8, 3)

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    def test_matches_series_oracle(self, spec):
        for n in range(1, 41):
            assert enclose(spec, n).partial_sum == series_sum_oracle(spec.terms(n))

    def test_naturals_equals_factorial_series(self):
        # With terms 2, 3, ..., N+1 the k-th series term is 1/(k-1)!, so the
        # partial sum equals sum_{j=0}^{N-1} 1/j!.
        for n in range(1, 30):
            factorial_sum = sum(Fraction(1, math.factorial(j)) for j in range(n))
            assert enclose(SequenceSpec.naturals(), n).partial_sum == factorial_sum

    def test_rejects_inadmissible(self):
        with pytest.raises(ValidationFailed):
            enclose(SequenceSpec.explicit([2, 5]), 1)
        with pytest.raises(ValidationFailed):
            enclose(SequenceSpec.explicit([1, 2]), 1)
        with pytest.raises(InvalidArgument, match="at least one term"):
            SequenceSpec.explicit([])


class TestBinarySplitting:
    """The (P, S) split against the Horner numerator and `math.prod`."""

    @given(terms=st.lists(st.integers(min_value=-5, max_value=10**30), min_size=1, max_size=300))
    def test_matches_horner_and_product(self, terms):
        # Any integers: the identity is algebraic, admissibility plays no part.
        series = _series(terms)
        assert series.product == math.prod(terms)
        assert series.numerator == horner_numerator(terms) * terms[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        size=st.sampled_from([63, 64, 65, 128, 129]),
        bound=st.sampled_from([3, 10**6, 10**40]),
    )
    def test_run_edges(self, data, size, bound):
        # One run of 64 terms is one leaf: counts at and around the run edges.
        terms = data.draw(st.lists(st.integers(min_value=-bound, max_value=bound), min_size=size, max_size=size))
        series = _series(terms)
        assert series.count == size
        assert series.product == math.prod(terms)
        assert series.numerator == horner_numerator(terms) * terms[-1]

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 700])
    def test_enclosure_matches_horner(self, spec, n):
        terms = spec.terms(n + 1)
        numerator = horner_numerator(terms[:n]) * terms[n - 1] + terms[n]
        denominator = math.prod(terms[:n])
        enclosure = enclose(spec, n, max_digits=30)
        assert enclosure.interval.lo == Fraction(numerator, denominator)
        assert enclosure.interval.hi == Fraction(numerator + 1, denominator)
        assert enclosure.product == denominator
        assert enclosure.partial_sum == Fraction(horner_numerator(terms[:n]), math.prod(terms[: n - 1]))

    @staticmethod
    def check_primes(count):
        terms = SequenceSpec.primes().terms(count)
        series = _series(terms)
        assert series.product == math.prod(terms)
        assert series.numerator == horner_numerator(terms) * terms[-1]
        enclosure = enclose(SequenceSpec.primes(), count, max_digits=10)
        assert enclosure.product == math.prod(terms)
        lo = horner_numerator(terms) * terms[-1] + SequenceSpec.primes().terms(count + 1)[-1]
        assert enclosure.ints == (lo, lo + 1, math.prod(terms))

    def test_twenty_thousand_digit_primes_enclosure(self):
        self.check_primes(plan_terms_oracle(SequenceSpec.primes(), 20_000))

    def test_hundred_thousand_digit_primes_enclosure(self):
        # The 20488 terms that 10^5 digits plan for.
        self.check_primes(20488)


class TestOneTermSteps:
    """`_Series.extended` against a series built afresh."""

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 300])
    def test_extended_and_shortened(self, spec, n):
        # One term on from n, and from a start a few terms short of n + 1, as
        # the planner counts up from a start below the count it returns.
        terms = spec.terms(n + 1)
        fresh = _series(terms[: n + 1])
        extended = _series(terms[:n]).extended(terms[n])
        assert (extended.count, extended.product, extended.numerator) == (n + 1, fresh.product, fresh.numerator)
        shortened = _series(terms[: max(0, n - 3)])
        while shortened.count <= n:
            shortened = shortened.extended(terms[shortened.count])
        assert (shortened.count, shortened.product, shortened.numerator) == (n + 1, fresh.product, fresh.numerator)
        for series in (extended, shortened):
            levels = [[int(node) for node in level] for level in series.levels]
            for below, above in zip(levels, levels[1:]):
                assert above == [math.prod(below[i : i + 2]) for i in range(0, len(below), 2)]

    @pytest.mark.parametrize(
        "spec, digits",
        [(SequenceSpec.naturals(), 224), (SequenceSpec.primes(), 300), (SequenceSpec.explicit(range(2, 136)), 224)],
        ids=str,
    )
    def test_extension_matches_a_fresh_enclosure(self, spec, digits):
        # From the planned series, as `enclose_digits` extends it; 224 digits
        # of e take one term past the plan (see TestPlanTerms).
        series = constant._planned(spec, digits)
        n, cap = series.count, digits + 40
        planned = constant._enclosure(spec, n, cap, series)
        extended = constant._enclosure(spec, n + 1, cap, series.extended(planned.lookahead))
        assert enclosure_view(planned) == enclosure_view(enclose(spec, n, max_digits=cap))
        assert enclosure_view(extended) == enclosure_view(enclose(spec, n + 1, max_digits=cap))

    def test_e_at_224_digits_takes_one_extension(self):
        spec = SequenceSpec.naturals()
        enclosure = enclose_digits(spec, 224)
        assert enclosure.terms_used == plan_terms(spec, 224) + 1
        assert enclosure_view(enclosure) == enclosure_view(enclose(spec, enclosure.terms_used, max_digits=224))


class TestProductDigits:
    """The digit count of P read off the Decimal, at the edges of a power of ten."""

    @pytest.mark.parametrize("k", [1, 2, 3, 18, 19, 20, 100, 4300, 5000])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_equals_decimal_length(self, k, offset):
        first = 10**k + offset
        enclosure = enclose(SequenceSpec.explicit([first, first + 1]), 1)
        assert enclosure.product_digits == str_length(enclosure.product) == str_length(first)
        assert enclosure.max_digits == enclosure.product_digits

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    @pytest.mark.parametrize("terms_used", [1, 5, 40])
    def test_caps_past_it_render_as_it(self, spec, terms_used):
        # The width 1/P separates the truncations at P's digit count, so the
        # rendering stops there; the cap itself is kept, and compared.
        enclosure = enclose(spec, terms_used)
        k = enclosure.product_digits
        assert enclosure == enclose(spec, terms_used) != enclose(spec, terms_used, max_digits=k)
        for extra in (1, 2, 7, 50):
            capped = enclose(spec, terms_used, max_digits=k + extra)
            assert capped.max_digits == k + extra
            assert capped.digits == to_decimal(capped.interval, k + extra) == enclosure.digits

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 500])
    def test_powers_of_ten_as_products(self, k):
        assert _series([10] * k).product.adjusted() + 1 == str_length(10**k) == k + 1
        assert _series([10] * (k - 1) + [9]).product.adjusted() + 1 == str_length(9 * 10 ** (k - 1)) == k


class TestEnclose:
    def test_primes_three_terms_exact(self):
        enclosure = enclose(SequenceSpec.primes(), 3)
        assert enclosure.interval.lo == Fraction(87, 30)
        assert enclosure.interval.hi == Fraction(88, 30)
        assert enclosure.interval.width == Fraction(1, 30)
        assert enclosure.product == 30
        assert enclosure.partial_sum == Fraction(8, 3)
        assert enclosure.digits.text == "2.9"

    def test_explicit_sequence_exact(self):
        spec = SequenceSpec.explicit([4, 5, 6, 10])
        enclosure = enclose(spec, 3)
        base = series_sum_oracle([4, 5, 6])
        assert enclosure.interval.lo == base + Fraction(10, 120)
        assert enclosure.interval.hi == base + Fraction(11, 120)

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    def test_width_law_exact(self, spec):
        for n in range(1, 51):
            enclosure = enclose(spec, n)
            assert enclosure.interval.width == Fraction(1, enclosure.product)
            assert enclosure.product == math.prod(spec.terms(n))

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    def test_nesting(self, spec):
        outer = enclose(spec, 5).interval
        for extra in range(1, 11):
            inner = enclose(spec, 5 + extra).interval
            assert outer.lo <= inner.lo and inner.hi <= outer.hi

    @pytest.mark.parametrize("spec", ALL_BUILTINS[:3], ids=str)
    def test_partial_sums_enter_the_enclosure_after_one_step(self, spec):
        # The next partial sum sits exactly 1/product below the interval,
        # and every later partial sum lands inside it.
        for n in (3, 7, 13):
            enclosure = enclose(spec, n)
            g_next = enclose(spec, n + 1).partial_sum
            interval = enclosure.interval
            assert interval.lo - g_next == Fraction(1, enclosure.product)
            for extra in range(2, 16):
                assert interval.lo <= enclose(spec, n + extra).partial_sum <= interval.hi

    def test_primes_published_digits(self):
        enclosure = enclose(SequenceSpec.primes(), 13, max_digits=12)
        assert enclosure.digits.text == "2.920050977316"
        assert enclosure.digits.verified == 12

    def test_doubling_published_digits(self):
        enclosure = enclose(SequenceSpec.doubling(), 10, max_digits=11)
        assert enclosure.digits.text == "3.56797609098"
        assert enclosure.digits.verified == 11

    def test_naturals_digits(self):
        assert enclose(SequenceSpec.naturals(), 16, max_digits=12).digits.text == "2.718281828459"
        assert enclose(SequenceSpec.naturals(), 18, max_digits=15).digits.text == "2.718281828459045"

    def test_boundary_collapses_to_three(self):
        for n in range(1, 26):
            enclosure = enclose(SequenceSpec.boundary(), n)
            assert enclosure.interval.hi == 3
            assert enclosure.interval.lo == 3 - Fraction(1, enclosure.product)
            assert enclosure.digits.boundary
            assert enclosure.digits.verified == 0

    def test_default_digit_cap_scales_with_product(self):
        enclosure = enclose(SequenceSpec.primes(), 40)
        assert enclosure.digits.verified >= 40

    def test_rejects_bad_terms_used(self):
        with pytest.raises(ValueError):
            enclose(SequenceSpec.primes(), 0)

    @pytest.mark.parametrize("terms_used", [True, 3.0, 12.0, "3"])
    def test_rejects_non_int_terms_used(self, terms_used):
        # True would pass as a 1-term enclosure, and a float would fail
        # later, slicing the term list.
        with pytest.raises(TypeError, match="terms_used must be int"):
            enclose(SequenceSpec.primes(), terms_used)

    def test_bad_cap_is_refused_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("terms fetched or planned before the cap was checked")

        monkeypatch.setattr(constant, "_planned", refuse)
        monkeypatch.setattr(SequenceSpec, "terms", refuse)
        with pytest.raises(InvalidArgument, match="max_digits must be >= 1, got 0"):
            enclose_digits(SequenceSpec.primes(), 10**5, max_digits=0)
        with pytest.raises(InvalidArgument, match="max_digits must be >= 1, got 0"):
            enclose(SequenceSpec.primes(), 10**5, max_digits=0)

    def test_insufficient_terms(self):
        with pytest.raises(ExplicitExhausted, match=r"^need 3 terms of explicit\[2,3\] for a 2-term enclosure$"):
            enclose(SequenceSpec.explicit([2, 3]), 2)

    def test_other_term_errors_propagate(self, monkeypatch):
        # Only running out of explicit terms means ExplicitExhausted.
        def broken(self, count):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(SequenceSpec, "terms", broken)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            enclose(SequenceSpec.primes(), 5)

    def test_inadmissible_terms(self):
        with pytest.raises(ValidationFailed) as excinfo:
            enclose(SequenceSpec.explicit([2, 5, 6]), 2)
        assert excinfo.value.report.violations

    def test_json_document_round_trip(self):
        enclosure = enclose(SequenceSpec.primes(), 13, max_digits=12)
        doc = enclosure.to_json_dict()
        assert doc["sequence"] == "primes"
        assert doc["terms_used"] == 13
        assert doc["digits"] == "2.920050977316"
        assert doc["verified_digits"] == 12
        assert doc["boundary"] is False
        assert interval_from_enclosure_json(doc) == enclosure.interval

    def test_interval_from_json_rejects_junk(self):
        with pytest.raises(ValueError):
            interval_from_enclosure_json({"lo": "1/2"})
        with pytest.raises(ValueError):
            interval_from_enclosure_json([1, 2])


class TestPlanTerms:
    @pytest.mark.parametrize(
        "spec, digits, expected",
        [
            (SequenceSpec.primes(), 1, 5),
            (SequenceSpec.primes(), 12, 13),
            (SequenceSpec.naturals(), 12, 16),
            (SequenceSpec.naturals(), 15, 18),
            (SequenceSpec.doubling(), 11, 10),
        ],
        ids=["primes-1", "primes-12", "naturals-12", "naturals-15", "doubling-11"],
    )
    def test_frozen_plans(self, spec, digits, expected):
        assert plan_terms(spec, digits) == expected

    # 224 digits of e (naturals) need one term past the plan: its digits
    # 225-226 are 99, which the P_N >= 10**(d+2) rule cannot absorb.
    @pytest.mark.parametrize("spec", ALL_BUILTINS[:3], ids=str)
    @pytest.mark.parametrize("digits", [1, 2, 5, 9, 14, 20, 224])
    def test_minimal_and_sufficient(self, spec, digits):
        n = plan_terms(spec, digits)
        threshold = 10 ** (digits + 2)
        assert math.prod(spec.terms(n)) >= threshold
        assert math.prod(spec.terms(n - 1)) < threshold
        assert enclose_digits(spec, digits).digits.verified >= digits

    def test_digits_path_stops_when_explicit_terms_run_out(self):
        # 133 naturals support the planned 132-term enclosure but not a 133rd.
        spec = SequenceSpec.explicit(range(2, 135))
        enclosure = enclose_digits(spec, 224)
        assert enclosure.terms_used == 132
        assert enclosure.digits.verified == 223

    def test_digits_path_stops_at_a_boundary(self):
        enclosure = enclose_digits(SequenceSpec.boundary(), 5)
        assert enclosure.terms_used == plan_terms(SequenceSpec.boundary(), 5)
        assert enclosure.digits.boundary and enclosure.digits.verified == 0

    def test_digits_path_honours_a_smaller_cap(self):
        enclosure = enclose_digits(SequenceSpec.naturals(), 224, max_digits=10)
        assert enclosure.terms_used == 132
        assert enclosure.digits.text == "2.7182818284"

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            plan_terms(SequenceSpec.primes(), 0)

    @pytest.mark.parametrize("bad", [True, False, 12.0])
    def test_rejects_bools_and_floats(self, bad):
        with pytest.raises(TypeError):
            plan_terms(SequenceSpec.primes(), bad)

    def test_explicit_exhaustion_propagates(self):
        with pytest.raises(ExplicitExhausted):
            plan_terms(SequenceSpec.explicit([2, 3]), 12)


class TestPlanTermsAgainstLoop:
    """The product-tree descent against the one-term-at-a-time loop it replaced."""

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    def test_builtins_up_to_two_thousand_digits(self, spec):
        for digits in range(1, 2001):
            assert_plans_like_the_loop(spec, digits)

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    def test_builtins_at_a_hundred_thousand_digits(self, spec):
        assert_plans_like_the_loop(spec, 10**5)

    def test_primes_at_a_hundred_thousand_digits(self):
        assert plan_terms(SequenceSpec.primes(), 10**5) == 20488

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(
            st.one_of(st.integers(min_value=-3, max_value=3), st.integers(min_value=2, max_value=10**6)),
            min_size=1,
            max_size=400,
        ),
        digits=st.integers(min_value=1, max_value=60),
    )
    def test_explicit_sequences(self, terms, digits):
        # Ones, zeros and negatives too, and runs of small terms that carry
        # the search past its first blocks: the same count or the same error.
        assert_plans_like_the_loop(SequenceSpec.explicit(terms), digits)

    @pytest.mark.parametrize("base", [2, 10])
    def test_product_equal_to_the_threshold(self, base):
        # With tens, a prefix product meets 10**(digits + 2) exactly, at
        # nodes of the tree too; the first count that meets it is the plan.
        spec = SequenceSpec.explicit([base] * 1000)
        for digits in range(1, 290):
            assert_plans_like_the_loop(spec, digits)

    @pytest.mark.parametrize("length", [1, 5, 63, 64, 65, 191, 192, 193, 500])
    def test_explicit_exhaustion_message(self, length):
        spec = SequenceSpec.explicit([2] * length)
        expected = outcome(plan_terms_oracle, spec, 400)
        assert expected[0] is ExplicitExhausted
        assert outcome(plan_terms, spec, 400) == expected

    def test_extension_past_the_proposal_reads_the_sequence_once(self, monkeypatch):
        # Terms below 2 stop the float proposal; the exact loop then walks the
        # rest of the list it already holds, and asks for one term more only at the end.
        spec = SequenceSpec.explicit([2, 3] + [1] * 20_000)
        calls, terms = [], SequenceSpec.terms
        monkeypatch.setattr(SequenceSpec, "terms", lambda spec, count: calls.append(count) or terms(spec, count))
        with pytest.raises(ExplicitExhausted, match=r"^explicit sequence has 20002 terms, 20003 requested$"):
            plan_terms(spec, 5)
        assert calls == [20_003]

    @pytest.mark.parametrize("length", [3, 60, 133, 134, 135, 400])
    @pytest.mark.parametrize("digits", [5, 100, 224, 300])
    def test_enclose_digits_on_explicit_prefixes(self, length, digits):
        # Naturals and primes prefixes, some too short for the plan or for
        # the terms the extension step adds.
        naturals = SequenceSpec.explicit(range(2, 2 + length))
        primes = SequenceSpec.explicit(SequenceSpec.primes().terms(length))
        for spec in (naturals, primes):
            new = outcome(lambda: enclosure_view(enclose_digits(spec, digits)))
            old = outcome(lambda: enclosure_view(enclose_digits_oracle(spec, digits)))
            assert new == old

    @pytest.mark.parametrize("base", [2, 10, 10**50], ids=["2", "10", "10**50"])
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 129, 400])
    def test_float_near_ties(self, base, length):
        # Powers of ten sum their logs exactly; a product of twos comes
        # close to a power of ten wherever k * log10(2) nearly meets an integer.
        spec = SequenceSpec.explicit([base] * length)
        top = str_length(base**length) + 1
        for digits in sorted({*range(1, min(top, 160)), *range(max(1, top - 160), top)}):
            assert_plans_like_the_loop(spec, digits)

    @pytest.mark.parametrize(
        "head",
        [[10**4998 - 1], [10**4998], [10**4998 + 1], [2, 3, 10**4997 - 1], [7, 12, 10**4999 + 3, 5]],
        ids=["below", "at", "above", "after-small", "then-small"],
    )
    def test_a_five_thousand_digit_term(self, head):
        # The float log10 of such a term rounds to the power of ten it is
        # next to, so the exact check decides.
        spec = SequenceSpec.explicit(head + [2, 3, 5, 7, 11, 13] * 20)
        for digits in [*range(1, 40), *range(4985, 5030)]:
            assert_plans_like_the_loop(spec, digits)

    @pytest.mark.parametrize("head", [2, 8])
    def test_a_float_sum_just_short_of_an_exact_threshold(self, head):
        # P_2 is 10**(k + 1), or head more, but past 10**308 the float sum
        # of the two log10s can fall an ulp short of k + 1; only the start's
        # error bound keeps the plan from taking a third term.
        for k in range(300, 400):
            big = 10 ** (k + 1) // head
            for c in (0, 1):
                spec = SequenceSpec.explicit([head, big + c, 7, 11])
                for digits in (k - 2, k - 1, k, k + 1):
                    assert_plans_like_the_loop(spec, digits)

    @pytest.mark.parametrize("shift", [-70, -3, -1, 0])
    @pytest.mark.parametrize("spec", [*ALL_BUILTINS, SequenceSpec.explicit([10] * 300)], ids=str)
    def test_confirmation_moves_a_wrong_proposal(self, monkeypatch, spec, shift):
        # From any start at or below it, the exact count returns the
        # smallest N with P_N >= 10**(digits + 2), a term at a time.
        proposal = constant._proposal

        def wrong(spec, digits):
            terms, count = proposal(spec, digits)
            return terms, min(len(terms), max(0, count + shift))

        monkeypatch.setattr(constant, "_proposal", wrong)
        for digits in (1, 7, 60, 150):
            assert plan_terms(spec, digits) == plan_terms_oracle(spec, digits), digits


class TestEulerCheck:
    """The naturals constant is Euler's number e."""

    def test_is_the_naturals_enclosure(self):
        enclosure = enclose(SequenceSpec.naturals(), 18, max_digits=15)
        assert enclosure.digits.text == "2.718281828459045"

    def test_brackets_factorial_series(self):
        # Independent bracket: S_M < e < S_M + 1/(M! * M).
        m = 25
        s = sum(Fraction(1, math.factorial(j)) for j in range(m + 1))
        enclosure = enclose(SequenceSpec.naturals(), 20)
        assert enclosure.interval.lo < s + Fraction(1, math.factorial(m) * m)
        assert enclosure.interval.hi > s


@settings(max_examples=25, deadline=None)
@given(
    start=st.integers(min_value=2, max_value=30),
    seeds=st.lists(st.integers(min_value=0, max_value=10**9), min_size=3, max_size=20),
)
def test_enclosure_contains_deep_partial_sums_generated(start, seeds):
    terms = [start]
    for seed in seeds:
        a = terms[-1]
        terms.append(a + 1 + seed % (a - 1) if a > 2 else a + 1)
    spec = SequenceSpec.explicit(terms)
    depth = len(terms) - 1
    enclosure = enclose(spec, max(1, depth - 3))
    interval = enclosure.interval
    assert interval.lo <= series_sum_oracle(terms) <= interval.hi
