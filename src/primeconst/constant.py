"""Series evaluation and rigorous enclosure of sequence constants.

For an admissible sequence a_1, a_2, ... the associated constant is the
limit of the partial sums

    g_N = sum_{k=1}^{N} (a_k - 1) / (a_1 * ... * a_{k-1})

(the k = 1 denominator is the empty product 1).  Admissibility pins the
tail: writing P_N for a_1 * ... * a_N, the limit always lies in

    [ g_N + a_{N+1} / P_N ,  g_N + (a_{N+1} + 1) / P_N ]

an interval of width exactly 1/P_N.  These enclosures are nested as N
grows, so every digit they certify is final.  For the primes the limit is
2.92005097731613..., and the first term of the recovered expansion of the
enclosure is the sequence itself (see `recurrence`).

Partial sums are accumulated in Horner form over a single running
denominator, avoiding a gcd per step, and long products use a balanced
split so huge-integer multiplications stay near the top of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import (
    DecimalDigits,
    InvalidArgument,
    RationalInterval,
    format_rational,
    parse_rational,
    to_decimal,
)
from .sequences import (
    ExplicitExhausted,
    SequenceSpec,
    ValidationReport,
    Violation,
    ViolationKind,
    validate_bertrand,
)

__all__ = [
    "ConstantEnclosure",
    "InsufficientTerms",
    "ValidationFailed",
    "enclose",
    "enclose_digits",
    "euler_check",
    "interval_from_enclosure_json",
    "partial_sum",
    "plan_terms",
    "product",
]

_TREE_THRESHOLD = 64


class InsufficientTerms(ValueError):
    """Raised when a sequence cannot supply the terms an enclosure needs."""


class ValidationFailed(ValueError):
    """Raised when input terms break the admissibility conditions."""

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        details = "; ".join(v.describe() for v in report.violations)
        super().__init__(f"sequence is not admissible: {details}")


def product(values) -> int:
    """Exact product of integers, balanced-tree above 64 values.

    The tree split keeps multiplicand sizes comparable, which matters once
    products reach thousands of digits; short inputs use a plain fold.
    """
    items = list(values)

    def _run(lo: int, hi: int) -> int:
        if hi - lo <= _TREE_THRESHOLD:
            out = 1
            for i in range(lo, hi):
                out *= items[i]
            return out
        mid = (lo + hi) // 2
        return _run(lo, mid) * _run(mid, hi)

    return _run(0, len(items))


def _check_terms(terms: list[int]) -> None:
    """Reject inadmissible input; a single term only needs to be an integer >= 2."""
    if not terms:
        raise ValueError("at least one term is required")
    if len(terms) == 1:
        value = terms[0]
        if not isinstance(value, int) or isinstance(value, bool) or value < 2:
            raise ValidationFailed(
                ValidationReport(
                    terms_checked=1,
                    pairs_checked=0,
                    violations=(Violation(1, ViolationKind.NOT_INTEGER_GE2),),
                )
            )
        return
    report = validate_bertrand(terms)
    if not report.ok:
        raise ValidationFailed(report)


def _horner_numerator(terms: list[int]) -> int:
    """Numerator T with g = T / (a_1 * ... * a_{len-1}); exact, no gcd churn.

    Uses the recurrence T_1 = a_1 - 1 and T_k = T_{k-1} * a_{k-1} + (a_k - 1),
    which is the partial sum brought over the running denominator.
    """
    total = terms[0] - 1
    for previous, current in zip(terms, terms[1:]):
        total = total * previous + (current - 1)
    return total


def partial_sum(terms) -> Fraction:
    """Exact partial sum g_N of the defining series for the given terms."""
    terms = list(terms)
    _check_terms(terms)
    return Fraction(_horner_numerator(terms), product(terms[:-1]))


@dataclass(frozen=True)
class ConstantEnclosure:
    """A certified enclosure of a sequence constant from finitely many terms.

    `interval` contains the limit; its width is exactly 1/product.
    `digits` holds the decimal digits certified by the interval.
    """

    sequence: SequenceSpec
    terms_used: int
    partial_sum: Fraction
    product: int
    interval: RationalInterval
    digits: DecimalDigits

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence.label(),
            "terms_used": self.terms_used,
            "lo": format_rational(self.interval.lo),
            "hi": format_rational(self.interval.hi),
            "digits": self.digits.text,
            "verified_digits": self.digits.verified,
            "boundary": self.digits.boundary,
        }


def enclose(spec: SequenceSpec, terms_used: int, max_digits: int | None = None) -> ConstantEnclosure:
    """Enclose the constant of `spec` using `terms_used` terms (plus one lookahead).

    The lookahead term a_{N+1} tightens the tail bracket to width exactly
    1/P_N.  `max_digits` caps the decimal rendering; by default it is
    sized to the product, which is always enough to expose every digit the
    interval can certify.
    """
    if terms_used < 1:
        raise InvalidArgument(f"terms_used must be >= 1, got {terms_used}")
    try:
        terms = spec.terms(terms_used + 1)
    except ExplicitExhausted as exc:
        raise InsufficientTerms(
            f"need {terms_used + 1} terms of {spec} for a {terms_used}-term enclosure"
        ) from exc
    _check_terms(terms)
    prefix = terms[:terms_used]
    lookahead = terms[terms_used]
    numerator = _horner_numerator(prefix)
    product_before_last = product(prefix[:-1])
    running_product = product_before_last * prefix[-1]
    lo_numerator = numerator * prefix[-1] + lookahead
    interval = RationalInterval(
        Fraction(lo_numerator, running_product),
        Fraction(lo_numerator + 1, running_product),
    )
    if max_digits is None:
        max_digits = max(1, len(str(running_product)))
    return ConstantEnclosure(
        sequence=spec,
        terms_used=terms_used,
        partial_sum=Fraction(numerator, product_before_last),
        product=running_product,
        interval=interval,
        digits=to_decimal(interval, max_digits),
    )


def plan_terms(spec: SequenceSpec, digits: int) -> int:
    """Smallest N with P_N >= 10**(digits + 2): a first guess, not a guarantee.

    The width is then at most 1/100 of the last requested decimal place,
    which certifies `digits` fractional digits except, possibly, when the
    constant's digits just past that place are 99 or 00 and the interval
    still straddles a digit transition.  No fixed margin avoids that: e
    has 99 at places 225-226, so 224 digits of it need one more term.
    `enclose_digits` adds the terms that such a case needs.
    """
    if digits < 1:
        raise InvalidArgument(f"digits must be >= 1, got {digits}")
    threshold = 10 ** (digits + 2)
    running = 1
    count = 0
    while running < threshold:
        count += 1
        running *= spec.term(count)
    return count


def enclose_digits(spec: SequenceSpec, digits: int, max_digits: int | None = None) -> ConstantEnclosure:
    """Enclosure certifying `digits` fractional digits, rendered to `max_digits` (default `digits`).

    Starts from `plan_terms` and adds one term at a time while fewer than
    min(digits, max_digits) digits are verified.  It stops early at an
    integer-part boundary, which no number of terms resolves, and when an
    explicit sequence has no further term; the last enclosure is returned
    as it is then.
    """
    cap = digits if max_digits is None else max_digits
    enclosure = enclose(spec, plan_terms(spec, digits), max_digits=cap)
    while enclosure.digits.verified < min(digits, cap) and not enclosure.digits.boundary:
        try:
            enclosure = enclose(spec, enclosure.terms_used + 1, max_digits=cap)
        except InsufficientTerms:
            break
    return enclosure


def euler_check(terms_used: int, max_digits: int | None = None) -> ConstantEnclosure:
    """Enclosure of the naturals-sequence constant, which is Euler's number e."""
    return enclose(SequenceSpec.naturals(), terms_used, max_digits)


def interval_from_enclosure_json(doc: dict) -> RationalInterval:
    """Rebuild the certified interval from a serialized enclosure document."""
    if not isinstance(doc, dict) or "lo" not in doc or "hi" not in doc:
        raise ValueError("enclosure document must be an object with 'lo' and 'hi'")
    return RationalInterval(parse_rational(doc["lo"]), parse_rational(doc["hi"]))
