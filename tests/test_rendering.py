"""The enclosure renderer against the lowest-terms Fraction rendering it replaced.

`fraction_rendering` is the oracle.  It forms both endpoints of
[L/P, (L+1)/P] as `Fraction`s, as `enclose` did before it carried L and P
to the output, and renders them with `to_decimal` and `format_rational`,
the functions the CLI called then.  L and P come from a one-term-at-a-time
loop, and the term count for `--digits` from the one-term planning loop
and the extension rule of `enclose_digits`.  `constant` output is compared
with it byte for byte in text and JSON.
"""

import decimal
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import each_term, int_text_unlimited, interval_text, str_length
from primeconst import cli, exact_arith
from primeconst.constant import enclose, enclose_digits
from primeconst.exact_arith import RationalInterval, format_rational, to_decimal
from primeconst.sequences import ExplicitExhausted, SequenceSpec

# The former crossover between str() and the decimal converter; sizes
# around it are still drawn, since both sides once took different paths.
OLD_SWITCH_BITS = 33_000

ALL_BUILTINS = [
    SequenceSpec.primes(),
    SequenceSpec.naturals(),
    SequenceSpec.doubling(),
    SequenceSpec.boundary(),
]


def lo_numerator_and_product(terms):
    """(L, P) of the enclosure from a_1..a_{N+1}: P = a_1 * ... * a_N, L / P = g_N + a_{N+1} / P."""
    *head, lookahead = terms
    numerator, denominator = 0, 1
    for a in head:
        numerator, denominator = (numerator + a - 1) * a, denominator * a
    return numerator + lookahead, denominator


def fraction_rendering(terms, max_digits):
    """Digits and text of the enclosure from a_1..a_{N+1}, through lowest-terms Fractions."""
    lo_numerator, denominator = lo_numerator_and_product(terms)
    lo = Fraction(lo_numerator, denominator)
    hi = Fraction(lo_numerator + 1, denominator)
    interval = RationalInterval(lo, hi)
    return {
        "interval": interval,
        "digits": to_decimal(interval, max_digits),
        "lo": format_rational(lo),
        "hi": format_rational(hi),
        "width": format_rational(hi - lo),
    }


def oracle_terms_for_digits(spec, digits, cap):
    """The term count `enclose_digits` settles on, planned and extended one term at a time."""
    threshold = 10 ** (digits + 2)
    count, running, terms = 0, 1, each_term(spec)
    while running < threshold:
        count += 1
        running *= next(terms)
    while True:
        shown = fraction_rendering(spec.terms(count + 1), cap)["digits"]
        if shown.verified >= min(digits, cap) or shown.boundary:
            return count
        try:
            spec.terms(count + 2)
        except ExplicitExhausted:
            return count
        count += 1


def fraction_constant_output(spec, argv_terms, digits, max_digits, output_format):
    """stdout of `constant` as the Fraction rendering gives it."""
    if digits is not None:
        cap = digits if max_digits is None else max_digits
        terms_used = oracle_terms_for_digits(spec, digits, cap)
    else:
        terms_used = argv_terms
        cap = max_digits
    terms = spec.terms(terms_used + 1)
    if cap is None:
        with int_text_unlimited():
            cap = max(1, len(str(lo_numerator_and_product(terms)[1])))
    shown = fraction_rendering(terms, cap)
    if output_format == "json":
        document = {
            "sequence": spec.label(),
            "terms_used": terms_used,
            "lo": shown["lo"],
            "hi": shown["hi"],
            "digits": shown["digits"].text,
            "verified_digits": shown["digits"].verified,
            "boundary": shown["digits"].boundary,
        }
        return json.dumps(document, indent=2) + "\n"
    lines = [
        shown["digits"].text,
        f"sequence: {spec}",
        f"terms_used: {terms_used}",
        f"lo: {shown['lo']}",
        f"hi: {shown['hi']}",
        f"width: {shown['width']}",
        f"verified_digits: {shown['digits'].verified}",
        f"boundary: {str(shown['digits'].boundary).lower()}",
    ]
    return "\n".join(lines) + "\n"


def run_constant(capsys, spec_name, *, terms=None, digits=None, max_digits=None, output_format="text"):
    argv = ["constant", "--sequence", spec_name, "--format", output_format]
    argv += ["--terms", str(terms)] if terms is not None else ["--digits", str(digits)]
    if max_digits is not None:
        argv += ["--max-digits", str(max_digits)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def assert_enclosure_matches(enclosure):
    terms = enclosure.sequence.terms(enclosure.terms_used + 1)
    expected = fraction_rendering(terms, enclosure.max_digits)
    assert enclosure.interval == expected["interval"]
    assert enclosure.digits == expected["digits"]
    assert enclosure.lo_text == expected["lo"]
    assert enclosure.hi_text == expected["hi"]
    assert enclosure.width_text == expected["width"]


class TestConstantOutput:
    """`constant` text and JSON against the Fraction rendering."""

    # 9000 digits put P below the decimal switch, 11000 above it.
    @pytest.mark.parametrize("digits", [1, 2, 14, 100, 399, 9_000, 11_000])
    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=str)
    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_digits(self, capsys, spec, digits, output_format):
        expected = fraction_constant_output(spec, None, digits, None, output_format)
        assert run_constant(capsys, spec.label(), digits=digits, output_format=output_format) == expected

    @pytest.mark.parametrize(
        "terms, max_digits",
        # Small P with a scaled floor past the switch, and the reverse.
        [(1, None), (5, None), (40, 7), (5, 12_000), (3_000, 3), (3_000, None)],
    )
    @pytest.mark.parametrize("spec", ALL_BUILTINS[:2], ids=str)
    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_terms_and_caps(self, capsys, spec, terms, max_digits, output_format):
        expected = fraction_constant_output(spec, terms, None, max_digits, output_format)
        actual = run_constant(capsys, spec.label(), terms=terms, max_digits=max_digits, output_format=output_format)
        assert actual == expected

    @pytest.mark.parametrize("digits, max_digits", [(50, 10), (100, 20_000), (12_000, 60)])
    def test_digits_with_a_cap(self, capsys, digits, max_digits):
        expected = fraction_constant_output(SequenceSpec.primes(), None, digits, max_digits, "text")
        assert run_constant(capsys, "primes", digits=digits, max_digits=max_digits) == expected

    def test_sizes_cover_both_sides_of_the_switch(self):
        bits = [enclose_digits(SequenceSpec.primes(), d).product.bit_length() for d in (9_000, 11_000)]
        assert bits[0] < OLD_SWITCH_BITS < bits[1]


class TestGcdCases:
    """Endpoints whose lowest terms need a division, checked to be such cases first."""

    @staticmethod
    def gcds(enclosure):
        lo_numerator, _, denominator = enclosure.ints
        return math.gcd(lo_numerator, denominator), math.gcd(lo_numerator + 1, denominator)

    def test_both_gcds_above_one(self):
        enclosure = enclose_digits(SequenceSpec.naturals(), 100)
        assert self.gcds(enclosure) == (5, 946)
        assert_enclosure_matches(enclosure)

    @pytest.mark.parametrize("digits, gcd_digits", [(100, 16), (9_000, 147), (11_000, 163)])
    def test_large_lo_gcd(self, digits, gcd_digits):
        enclosure = enclose_digits(SequenceSpec.doubling(), digits)
        assert len(str(self.gcds(enclosure)[0])) == gcd_digits
        assert_enclosure_matches(enclosure)

    @pytest.mark.parametrize("digits", [1, 100, 9_000, 11_000])
    def test_hi_gcd_is_the_product(self, digits):
        enclosure = enclose_digits(SequenceSpec.boundary(), digits)
        assert self.gcds(enclosure)[1] == enclosure.product
        assert enclosure.hi_text == "3/1"
        assert_enclosure_matches(enclosure)


class TestRemainderTree:
    """The lowest-terms divisors from the scaled remainder tree against `math.gcd`."""

    @staticmethod
    def check(lo, hi, factors, max_digits):
        denominator = math.prod(factors)
        assert interval_text(lo, hi, factors, max_digits)._leaf_remainders(list(factors)) == [
            lo % factor for factor in factors
        ]
        text = interval_text(lo, hi, factors, max_digits)
        assert text._endpoint_divisors == (math.gcd(lo, denominator), math.gcd(hi, denominator))
        assert text.lo() == format_rational(Fraction(lo, denominator))
        assert text.hi() == format_rational(Fraction(hi, denominator))

    # One run of 64 terms is one leaf: counts at and around the run edges,
    # and 4097 for a deep tree with an odd node carried up at most levels
    # (not for doubling and boundary, whose P has about N**2 / 2 bits).
    @pytest.mark.parametrize(
        "spec, terms_used",
        [(spec, n) for spec in ALL_BUILTINS for n in (1, 63, 64, 65, 128, 129)]
        + [(spec, 4097) for spec in ALL_BUILTINS[:2]],
        ids=str,
    )
    def test_leaf_edges(self, spec, terms_used):
        enclosure = enclose(spec, terms_used, max_digits=40)
        leaves = [exact_arith._parse_int(str(leaf)) for leaf in enclosure.series.levels[0]]
        assert len(leaves) == -(-terms_used // 64)
        assert math.prod(leaves) == enclosure.product
        lo = enclosure.ints[0]
        self.check(lo, lo + 1, leaves, enclosure.max_digits)
        assert_enclosure_matches(enclosure)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_factorisation(self, data):
        # Factors drawn with repeats from a small pool: equal factors, and
        # small ones that share primes.
        pool = data.draw(
            st.lists(
                st.one_of(st.integers(1, 12), st.integers(1, 2**64), st.integers(1, 2**300)),
                min_size=1,
                max_size=6,
            )
        )
        factors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=70))
        denominator = math.prod(factors)
        # Numerators that share a product of some factors with D, or nothing in particular.
        shared = math.prod(data.draw(st.lists(st.sampled_from(factors), max_size=len(factors))))
        lo = shared * data.draw(st.integers(0, 3 * denominator))
        offset = data.draw(st.one_of(st.integers(0, 2), st.integers(0, 2 * denominator)))
        step = math.prod(data.draw(st.lists(st.sampled_from(factors), max_size=4)))
        hi = lo + offset + (-(lo + offset)) % step
        # Scales below, at and past D's length move the root's fraction between q and r.
        max_digits = data.draw(st.integers(1, 2 * str_length(denominator) + 10))
        self.check(lo, hi, factors, max_digits)

    def test_hundred_thousand_digit_primes_enclosure(self):
        # The 20488 terms that 10^5 digits plan for.
        enclosure = enclose(SequenceSpec.primes(), 20488, max_digits=10)
        lo, _, denominator = enclosure.ints
        gcds = math.gcd(lo, denominator), math.gcd(lo + 1, denominator)
        assert enclosure._text._endpoint_divisors == gcds
        with int_text_unlimited():
            assert enclosure.lo_text == f"{lo // gcds[0]}/{denominator // gcds[0]}"
            assert enclosure.hi_text == f"{(lo + 1) // gcds[1]}/{denominator // gcds[1]}"


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=2, max_value=10**6),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64), min_size=1, max_size=60),
    terms_used=st.integers(min_value=1, max_value=60),
    max_digits=st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
)
def test_explicit_sequences(start, seeds, terms_used, max_digits):
    # Admissible: a_{k+1} is drawn from [a_k + 1, 2 * a_k - 1].
    terms = [start]
    for seed in seeds:
        a = terms[-1]
        terms.append(a + 1 + seed % (a - 1))
    spec = SequenceSpec.explicit(terms)
    assert_enclosure_matches(enclose(spec, min(terms_used, len(terms) - 1), max_digits))


class TestExactness:
    def test_output_ignores_the_current_decimal_context(self, capsys):
        expected = fraction_constant_output(SequenceSpec.primes(), None, 20_000, None, "text")
        with decimal.localcontext() as context:
            context.prec = 5
            context.clear_traps()
            before = (context.prec, context.rounding, context.Emin, context.Emax,
                      context.capitals, context.clamp, dict(context.traps), dict(context.flags))
            actual = run_constant(capsys, "primes", digits=20_000)
            assert decimal.getcontext() is context
            after = (context.prec, context.rounding, context.Emin, context.Emax,
                     context.capitals, context.clamp, dict(context.traps), dict(context.flags))
        assert after == before
        assert actual == expected
        assert enclose_digits(SequenceSpec.primes(), 20_000).product.bit_length() > OLD_SWITCH_BITS


class TestMillionDigits:
    """`constant --digits 1000000`, pinned to the output of the int binary splitting and product-tree plan."""

    # SHA-256 of the text output, taken before the series moved to Decimals.
    TEXT_SHA256 = "7535e9a324e8c651624c977c460600c59bd17239d5405232f4bcd7a489bb14c8"

    def test_text_output_is_pinned(self, capsys):
        assert cli.main(["constant", "--digits", "1000000"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.TEXT_SHA256
