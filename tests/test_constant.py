"""Tests for partial sums, enclosures, and term planning.

The Horner-form series numerator and the one-term-at-a-time planning loop
that the binary splitting and the product-tree descent replaced are kept
here as differential oracles.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from primeconst import constant
from primeconst.constant import (
    InsufficientTerms,
    ValidationFailed,
    _product_levels,
    enclose,
    enclose_digits,
    interval_from_enclosure_json,
    plan_terms,
)
from primeconst.exact_arith import InvalidArgument
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
    while running < threshold:
        count += 1
        running *= spec.term(count)
    return count


def outcome(fn, *args):
    """The value `fn` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestProduct:
    """The root of the product tree that `plan_terms` descends."""

    def test_empty_and_single(self):
        assert _product_levels([7]) == [[7]]
        assert _product_levels([]) == [[]]

    @pytest.mark.parametrize("size", [2, 63, 64, 65, 130, 400])
    def test_matches_math_prod_across_tree_threshold(self, size):
        values = [(3 * i + 1) for i in range(size)]
        assert _product_levels(values)[-1] == [math.prod(values)]

    @given(values=st.lists(st.integers(min_value=-50, max_value=10**6), min_size=1, max_size=200))
    def test_matches_math_prod_random(self, values):
        assert _product_levels(values)[-1] == [math.prod(values)]


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
        p, s = constant._series(terms)
        assert p == math.prod(terms)
        assert s == horner_numerator(terms) * terms[-1]

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

    def test_hundred_thousand_digit_primes_enclosure(self):
        # The 20488 terms that 10^5 digits plan for.
        terms = SequenceSpec.primes().terms(20488)
        p, s = constant._series(terms)
        assert p == math.prod(terms)
        assert s == horner_numerator(terms) * terms[-1]


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
            assert enclosure.interval.lo - g_next == Fraction(1, enclosure.product)
            for extra in range(2, 16):
                assert enclosure.interval.contains(enclose(spec, n + extra).partial_sum)

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

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms):
            enclose(SequenceSpec.explicit([2, 3]), 2)

    def test_other_term_errors_propagate(self, monkeypatch):
        # Only running out of explicit terms means InsufficientTerms.
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
            assert plan_terms(spec, digits) == plan_terms_oracle(spec, digits), digits

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    def test_builtins_at_a_hundred_thousand_digits(self, spec):
        assert plan_terms(spec, 10**5) == plan_terms_oracle(spec, 10**5)

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
        spec = SequenceSpec.explicit(terms)
        assert outcome(plan_terms, spec, digits) == outcome(plan_terms_oracle, spec, digits)

    @pytest.mark.parametrize("base", [2, 10])
    def test_product_equal_to_the_threshold(self, base):
        # With tens, a prefix product meets 10**(digits + 2) exactly, at
        # nodes of the tree too; the first count that meets it is the plan.
        spec = SequenceSpec.explicit([base] * 1000)
        for digits in range(1, 290):
            assert plan_terms(spec, digits) == plan_terms_oracle(spec, digits), digits

    @pytest.mark.parametrize("length", [1, 5, 63, 64, 65, 191, 192, 193, 500])
    def test_explicit_exhaustion_message(self, length):
        spec = SequenceSpec.explicit([2] * length)
        expected = outcome(plan_terms_oracle, spec, 400)
        assert expected[0] is ExplicitExhausted
        assert outcome(plan_terms, spec, 400) == expected

    @pytest.mark.parametrize("length", [3, 60, 133, 134, 135, 400])
    @pytest.mark.parametrize("digits", [5, 100, 224, 300])
    def test_enclose_digits_on_explicit_prefixes(self, monkeypatch, length, digits):
        # Naturals and primes prefixes, some too short for the plan or for
        # the terms the extension step adds.
        naturals = SequenceSpec.explicit(range(2, 2 + length))
        primes = SequenceSpec.explicit(SequenceSpec.primes().terms(length))
        for spec in (naturals, primes):
            new = outcome(enclose_digits, spec, digits)
            monkeypatch.setattr(constant, "plan_terms", plan_terms_oracle)
            old = outcome(enclose_digits, spec, digits)
            monkeypatch.undo()
            assert new == old


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
    assert enclosure.interval.contains(series_sum_oracle(terms))
