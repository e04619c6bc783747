"""Tests for the non-dividing-prime average and the digit-packing constant."""

from fractions import Fraction

import pytest

from conftest import midpoint
from primeconst.constant import enclose
from primeconst.crosscheck import alpha_build, alpha_decode, nondivisor_mean
from primeconst.exact_arith import InvalidArgument, RationalInterval, to_decimal
from primeconst.sequences import SequenceSpec, smallest_nondividing_prime


class TestDistribution:
    def test_contribution_total_equals_partial_sum(self):
        # p_i is the smallest non-divisor with density (p_i - 1)/(p_1 * ... * p_i);
        # the first K rows' mass leaves exactly the multiples of the product.
        contribution_total = probability_total = Fraction(0)
        product = 1
        for k, prime in enumerate(SequenceSpec.primes().terms(50), start=1):
            product *= prime
            probability = Fraction(prime - 1, product)
            probability_total += probability
            contribution_total += prime * probability
            assert probability_total == 1 - Fraction(1, product)
            assert contribution_total == enclose(SequenceSpec.primes(), k).partial_sum


class TestNondivisorMean:
    def test_block_of_eight(self):
        # Values over 1..8 are 2,3,2,3,2,5,2,3 summing to 22.
        assert nondivisor_mean(8) == Fraction(22, 8)
        assert nondivisor_mean(8) == Fraction(11, 4)

    def test_matches_elementwise_average(self):
        # 210, 2310 and 30030 are primorials: at each, running_product <= limit
        # decides whether the next prime is the last one read.
        primorial_edges = [209, 210, 211, 2309, 2310, 2311, 30029, 30030, 30031]
        for limit in list(range(1, 61)) + [997, 5000, 20000] + primorial_edges:
            brute = Fraction(
                sum(smallest_nondividing_prime(n) for n in range(1, limit + 1)), limit
            )
            assert nondivisor_mean(limit) == brute

    def test_million_block_frozen(self):
        assert nondivisor_mean(10**6) == Fraction(73001, 25000)

    def test_converges_to_the_primes_constant(self):
        centre = midpoint(enclose(SequenceSpec.primes(), 13).interval)
        for exponent in range(3, 7):
            difference = abs(nondivisor_mean(10**exponent) - centre)
            assert difference <= Fraction(5, 10 ** (exponent - 2))

    def test_input_validation(self):
        for bad in (0, -1):
            with pytest.raises(InvalidArgument, match="limit must be >= 1"):
                nondivisor_mean(bad)
        for bad in (True, 1.5):
            with pytest.raises(TypeError, match="limit must be int"):
                nondivisor_mean(bad)


class TestAlpha:
    def test_one_term(self):
        assert alpha_build(1) == Fraction(2, 10**4)

    def test_two_terms(self):
        assert alpha_build(2) == Fraction(20003, 10**8)

    def test_four_term_expansion_digits(self):
        alpha = alpha_build(4)
        digits = to_decimal(RationalInterval(alpha, alpha), 32)
        assert digits.text == "0.00020003000000050000000000000007"
        assert digits.verified == 32

    @pytest.mark.parametrize("terms", [1, 2, 4, 12])
    def test_decode_recovers_every_packed_prime(self, terms):
        alpha = alpha_build(terms)
        primes = SequenceSpec.primes().terms(terms)
        for n in range(1, terms + 1):
            assert alpha_decode(alpha, n) == primes[n - 1]

    def test_decode_beyond_terms_yields_zero(self):
        assert alpha_decode(alpha_build(2), 3) == 0

    def test_term_cap(self):
        message = r"^alpha with 13 terms needs 10\*\*\(2\*\*14\) as a denominator; the cap is 12 terms$"
        with pytest.raises(InvalidArgument, match=message):
            alpha_build(13)

    def test_decode_cap(self):
        # Index 13 would form 10**(2**14); each index past it costs about 2.5x the one before.
        message = r"^decoding index 13 needs 10\*\*\(2\*\*14\) as a power; the cap is 12 terms$"
        with pytest.raises(InvalidArgument, match=message):
            alpha_decode(alpha_build(12), 13)

    def test_input_validation(self):
        for bad in (0, -1):
            with pytest.raises(InvalidArgument, match="terms must be >= 1"):
                alpha_build(bad)
        with pytest.raises(TypeError, match="terms must be int"):
            alpha_build(True)
        with pytest.raises(TypeError):
            alpha_decode(0.5, 1)
        with pytest.raises(ValueError):
            alpha_decode(alpha_build(1), 0)

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_decode_rejects_bools_and_floats(self, bad):
        with pytest.raises(TypeError):
            alpha_decode(alpha_build(2), bad)
