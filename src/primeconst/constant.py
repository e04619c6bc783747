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

The series is summed by binary splitting (Haible and Papanikolaou, 1998).
A range of terms gives a pair (P, S): P is the product of its terms and
S / P its share of the sum, scaled to start at 1.  One term a gives
(a, (a - 1) * a), and two adjacent ranges combine as
(P1 * P2, S1 * P2 + S2).  The whole prefix gives g_N = S / P_N, so the
enclosure is [(S + a_{N+1}) / P_N, (S + a_{N+1} + 1) / P_N] with no gcd
until a Fraction is formed, and the operands of each multiplication are of
comparable size.  `plan_terms` finds its term count in a product tree in
the same way: it gallops over blocks of doubling length, then descends
into the block that crosses the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact_arith import (
    DecimalDigits,
    RationalInterval,
    _check_int,
    _int_text,
    _IntervalText,
    decimal_length,
    parse_rational,
)
from .sequences import (
    ExplicitExhausted,
    SequenceKind,
    SequenceSpec,
    ValidationReport,
    validate_bertrand,
)

__all__ = [
    "ConstantEnclosure",
    "InsufficientTerms",
    "ValidationFailed",
    "enclose",
    "enclose_digits",
    "interval_from_enclosure_json",
    "plan_terms",
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


def _run_products(values: list[int]) -> list[int]:
    """The products of the runs of _TREE_THRESHOLD values, in order."""
    return [math.prod(values[i : i + _TREE_THRESHOLD]) for i in range(0, len(values), _TREE_THRESHOLD)]


def _product_levels(values: list[int]) -> list[list[int]]:
    """Product tree, bottom-up: level 0 multiplies runs of _TREE_THRESHOLD values, the last is the root."""
    level = _run_products(values)
    levels = [level]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def _series(terms: list[int]) -> tuple[int, int]:
    """(P, S) with P = a_1 * ... * a_N and g_N = S / P, by binary splitting."""

    def _run(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo <= _TREE_THRESHOLD:
            p, s = 1, 0
            for a in terms[lo:hi]:
                p, s = p * a, (s + a - 1) * a
            return p, s
        mid = (lo + hi) // 2
        p1, s1 = _run(lo, mid)
        p2, s2 = _run(mid, hi)
        return p1 * p2, s1 * p2 + s2

    return _run(0, len(terms))


@dataclass(frozen=True)
class ConstantEnclosure:
    """A certified enclosure [L/P, (L+1)/P] of a sequence constant from finitely many terms.

    `lo_numerator` is L and `product` is P = a_1 * ... * a_N, so the width
    is exactly 1/P; `series_numerator` is S with partial sum g_N = S / P.
    `run_products` are the products of the runs of 64 terms of a_1..a_N,
    whose product is P.  `digits` holds the decimal digits the interval
    certifies, rendered to `max_digits` fractional places on first read.
    The lowest-terms `interval` is derived from L and P.  The text of its
    endpoints is rendered from L and the run products, whose product tree
    gives P, and whose remainder tree gives gcd(L, P) and gcd(L + 1, P)
    without a full-size gcd (see `exact_arith._IntervalText`).
    """

    sequence: SequenceSpec
    terms_used: int
    series_numerator: int
    lo_numerator: int
    product: int
    max_digits: int
    run_products: tuple[int, ...]

    @cached_property
    def _text(self) -> _IntervalText:
        return _IntervalText(self.lo_numerator, self.lo_numerator + 1, self.run_products, self.max_digits)

    @property
    def digits(self) -> DecimalDigits:
        return self._text.digits

    @property
    def interval(self) -> RationalInterval:
        """[L/P, (L+1)/P] with endpoints in lowest terms; its two gcds are paid on each read."""
        return RationalInterval(
            Fraction(self.lo_numerator, self.product),
            Fraction(self.lo_numerator + 1, self.product),
        )

    @property
    def partial_sum(self) -> Fraction:
        """The partial sum g_N, in lowest terms; its gcd is paid on each read."""
        return Fraction(self.series_numerator, self.product)

    @property
    def lo_text(self) -> str:
        """format_rational(interval.lo), rendered from L and P."""
        return self._text.lo()

    @property
    def hi_text(self) -> str:
        """format_rational(interval.hi), rendered from L and P."""
        return self._text.hi()

    @property
    def width_text(self) -> str:
        """format_rational(interval.width), rendered from P."""
        return self._text.width()

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence.label(),
            "terms_used": self.terms_used,
            "lo": self.lo_text,
            "hi": self.hi_text,
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
    _check_int(terms_used, "terms_used", 1)
    try:
        terms = spec.terms(terms_used + 1)
    except ExplicitExhausted as exc:
        raise InsufficientTerms(
            f"need {_int_text(terms_used + 1)} terms of {spec} for a {_int_text(terms_used)}-term enclosure"
        ) from exc
    report = validate_bertrand(terms)
    if not report.ok:
        raise ValidationFailed(report)
    running_product, numerator = _series(terms[:terms_used])
    if max_digits is None:
        max_digits = max(1, decimal_length(running_product))
    _check_int(max_digits, "max_digits", 1)
    return ConstantEnclosure(
        sequence=spec,
        terms_used=terms_used,
        series_numerator=numerator,
        lo_numerator=numerator + terms[terms_used],
        product=running_product,
        max_digits=max_digits,
        run_products=tuple(_run_products(terms[:terms_used])),
    )


def _first_reaching(values: list[int], running: int, threshold: int) -> tuple[int | None, int]:
    """(k, running * product(values)) for the smallest k with running * values[:k] >= threshold.

    k is None, and the product exact, when no prefix of `values` reaches the
    threshold.  Values >= 1 keep the prefix products monotone, so the root
    of a product tree tells whether the block reaches the threshold, and a
    descent that keeps `running * node >= threshold` finds the first run
    that does.  A block holding a value below 1 is scanned one at a time.
    """
    if min(values) < 1:
        for count, value in enumerate(values, start=1):
            running *= value
            if running >= threshold:
                return count, running
        return None, running
    levels = _product_levels(values)
    total = running * levels[-1][0]
    if total < threshold:
        return None, total
    index = 0
    threshold_bits = threshold.bit_length()
    for level in reversed(levels[:-1]):
        index *= 2
        node = level[index]
        # With b the sum of the two bit lengths, running * node >= 2**(b - 2),
        # which exceeds the threshold once b - 2 >= threshold_bits; only a
        # product that may fall short is formed.  The right child exists
        # whenever the left one falls short.
        if running.bit_length() + node.bit_length() - 2 < threshold_bits:
            extended = running * node
            if extended < threshold:
                running = extended
                index += 1
    count = index * _TREE_THRESHOLD
    for value in values[count:]:
        count += 1
        running *= value
        if running >= threshold:
            return count, total
    raise AssertionError("unreachable: the run's product reaches the threshold")


def plan_terms(spec: SequenceSpec, digits: int) -> int:
    """Smallest N with P_N >= 10**(digits + 2): a first guess, not a guarantee.

    The width is then at most 1/100 of the last requested decimal place,
    which certifies `digits` fractional digits except, possibly, when the
    constant's digits just past that place are 99 or 00 and the interval
    still straddles a digit transition.  No fixed margin avoids that: e
    has 99 at places 225-226, so 224 digits of it need one more term.
    `enclose_digits` adds the terms that such a case needs.

    The search gallops over blocks of doubling length, multiplying each
    block by a product tree, and descends into the first block whose
    product carries P past the threshold.  An explicit sequence that runs
    out first raises ExplicitExhausted for the term after its last.
    """
    _check_int(digits, "digits", 1)
    threshold = 10 ** (digits + 2)
    available = len(spec.explicit_terms) if spec.kind is SequenceKind.EXPLICIT else None
    running, start, size = 1, 0, _TREE_THRESHOLD
    while True:
        end = start + size if available is None else min(start + size, available)
        if end == start:
            spec.term(end + 1)  # raises ExplicitExhausted, as the one-term loop did
        found, running = _first_reaching(spec.terms(end)[start:], running, threshold)
        if found is not None:
            return start + found
        start, size = end, 2 * size


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


def interval_from_enclosure_json(doc: dict) -> RationalInterval:
    """Rebuild the certified interval from a serialized enclosure document."""
    if not isinstance(doc, dict) or "lo" not in doc or "hi" not in doc:
        raise ValueError("enclosure document must be an object with 'lo' and 'hi'")
    return RationalInterval(parse_rational(doc["lo"]), parse_rational(doc["hi"]))
