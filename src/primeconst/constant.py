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
(a, (a - 1) * a), and two adjacent ranges combine as (P1 * P2, S1 * P2 + S2).
The whole prefix gives g_N = S / P_N, so the enclosure is
[(S + a_{N+1}) / P_N, (S + a_{N+1} + 1) / P_N] with no gcd.  `_compose`
forms the pair of a range as ints; it is also the floor recurrence's map
over those terms, x -> P * x - S * q on numerators over q (f_{n+1} =
P_n * f_1 - S_n), which `recurrence` applies to its windows.  `_series`
takes the pair of each 64-term run from it and combines the runs
bottom-up in exact Decimals, whose large products libmpdec forms by
number-theoretic transform.  The P of every range is kept, as the one
product tree of P_N that the renderer descends for its lowest-terms gcds
(`exact_arith._IntervalText`).  `plan_terms` starts from a float sum of
log10 a_k, whose error bound keeps the start at or below the term count,
and counts up on that exact P.  An enclosure
builds each form from its terms on first read, by one route: (L, L + 1, P)
as ints by `_compose`, and the Decimal series by `_series`, for the renderer.
"""

from __future__ import annotations

import bisect
import decimal
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exact_arith import (
    _EXACT,
    DecimalDigits,
    InputError,
    ParseError,
    RationalInterval,
    _check_int,
    _exact_decimal,
    _int_text,
    _IntervalText,
    _rational_ints,
)
from .sequences import ExplicitExhausted, SequenceKind, SequenceSpec, ValidationReport, validate_bertrand

__all__ = [
    "ConstantEnclosure",
    "ValidationFailed",
    "enclose",
    "enclose_digits",
    "interval_from_enclosure_json",
    "plan_terms",
]

# Terms per leaf of the product tree, multiplied as Python ints.
_RUN = 64


class ValidationFailed(InputError):
    """Raised when input terms break the admissibility conditions."""

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        details = "; ".join(v.describe() for v in report.violations)
        super().__init__(f"sequence is not admissible: {details}")


@dataclass(frozen=True)
class _Series:
    """(P, S) of a_1..a_N, with g_N = S / P, and the product tree of P.

    `levels[0]` holds the products of the runs of _RUN terms, each level above
    the products of adjacent pairs below, with a last odd node carried up, and
    `levels[-1]` is [P].  Only the last node of each level holds a_N.
    """

    count: int
    levels: tuple[tuple[decimal.Decimal, ...], ...]
    numerator: decimal.Decimal

    @property
    def product(self) -> decimal.Decimal:
        return self.levels[-1][0]

    def extended(self, a: int) -> _Series:
        """The series of a_1..a_N, a."""
        levels = tuple(level[:-1] + (_EXACT.multiply(level[-1], a),) for level in self.levels)
        return _Series(self.count + 1, levels, _EXACT.multiply(_EXACT.add(self.numerator, a - 1), a))


def _compose(terms: Sequence[int]) -> tuple[int, int]:
    """(P, S) of `terms` taken in order, by binary splitting: also the recurrence's map x -> P*x - S*q."""
    if len(terms) <= 16:
        p, s = 1, 0
        for a in terms:
            p, s = a * p, a * (s + a - 1)
        return p, s
    mid = len(terms) // 2
    p1, s1 = _compose(terms[:mid])
    p2, s2 = _compose(terms[mid:])
    return p2 * p1, p2 * s1 + s2


def _series(terms: Sequence[int]) -> _Series:
    """The series of `terms`, by binary splitting: the runs by `_compose`, the levels above in `_EXACT`."""
    runs = (_compose(terms[start : start + _RUN]) for start in range(0, len(terms), _RUN))
    nodes = [(_exact_decimal(p), _exact_decimal(s)) for p, s in runs] or [(decimal.Decimal(1), decimal.Decimal(0))]
    levels = [tuple(p for p, _ in nodes)]
    while len(nodes) > 1:
        merged = [
            (_EXACT.multiply(p1, p2), _EXACT.add(_EXACT.multiply(s1, p2), s2))
            for (p1, s1), (p2, s2) in zip(nodes[::2], nodes[1::2])
        ]
        nodes = merged + nodes[2 * len(merged) :]
        levels.append(tuple(p for p, _ in nodes))
    return _Series(len(terms), tuple(levels), nodes[0][1])


@dataclass(frozen=True)
class ConstantEnclosure:
    """A certified enclosure [L/P, (L+1)/P] of a sequence constant from finitely many terms.

    Its one source is the terms a_1..a_N, with L = S + a_{N+1} for the
    `lookahead` a_{N+1}.  On first read, `ints` (L, L + 1, P) is formed by
    `_compose`, and `series` (P, its product tree and S as Decimals), which
    only the renderer reads, by `_series` or from the series `planned` by
    `enclose_digits`.  `max_digits` is the `cap` asked for, or else P's digit
    count; `digits` stop at P's digit count, where the width 1/P already
    separates the truncations.  `validation` reports on a_1..a_{N+1}.
    Equality compares sequence, count, lookahead and `cap`, not `max_digits`.
    """

    sequence: SequenceSpec
    terms_used: int
    cap: int | None
    terms: Sequence[int] = field(compare=False, repr=False)
    lookahead: int
    validation: ValidationReport = field(compare=False, repr=False)
    planned: _Series | None = field(default=None, compare=False, repr=False)

    @cached_property
    def ints(self) -> tuple[int, int, int]:
        """(L, L + 1, P): the enclosure is [L/P, (L+1)/P]."""
        product, numerator = _compose(self.terms)
        lo = numerator + self.lookahead
        return lo, lo + 1, product

    @cached_property
    def series(self) -> _Series:
        return self.planned or _series(self.terms)

    @property
    def max_digits(self) -> int:
        return self.product_digits if self.cap is None else self.cap

    @cached_property
    def _text(self) -> _IntervalText:
        lo = _EXACT.add(self.series.numerator, self.lookahead)
        return _IntervalText(lo, decimal.Decimal(1), self.series.levels, self.max_digits)

    @property
    def product(self) -> int:
        return self.ints[2]

    @property
    def product_digits(self) -> int:
        """The number of decimal digits of P, read off the Decimal."""
        return self.series.product.adjusted() + 1

    @property
    def digits(self) -> DecimalDigits:
        return self._text.digits

    @property
    def interval(self) -> RationalInterval:
        """[L/P, (L+1)/P] with endpoints in lowest terms; its two gcds are paid on each read."""
        lo, hi, product = self.ints
        return RationalInterval(Fraction(lo, product), Fraction(hi, product))

    @property
    def partial_sum(self) -> Fraction:
        """The partial sum g_N, in lowest terms; its gcd is paid on each read."""
        return Fraction(self.ints[0] - self.lookahead, self.product)

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
        """format_rational(interval.width): 1/P is in lowest terms."""
        return f"1/{self.series.product}"

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


def _enclosure(spec: SequenceSpec, count: int, cap: int | None, planned: _Series | None = None) -> ConstantEnclosure:
    """The enclosure from N = count terms, once a_1..a_{N+1} pass validation; `planned` if already summed."""
    try:
        terms = spec.terms(count + 1)
    except ExplicitExhausted as exc:
        raise ExplicitExhausted(
            f"need {_int_text(count + 1)} terms of {spec} for a {_int_text(count)}-term enclosure"
        ) from exc
    report = validate_bertrand(terms)
    if not report.ok:
        raise ValidationFailed(report)
    return ConstantEnclosure(spec, count, cap, terms[:count], terms[count], report, planned)


def enclose(spec: SequenceSpec, terms_used: int, max_digits: int | None = None) -> ConstantEnclosure:
    """Enclose the constant of `spec` using `terms_used` terms (plus one lookahead).

    The lookahead term a_{N+1} tightens the tail bracket to width exactly
    1/P_N.  `max_digits` caps the decimal rendering; by default it is
    P_N's digit count, which is always enough to expose every digit the
    interval can certify.
    """
    _check_int(terms_used, "terms_used", 1)
    if max_digits is not None:
        _check_int(max_digits, "max_digits", 1)
    return _enclosure(spec, terms_used, max_digits)


def _proposal(spec: SequenceSpec, digits: int) -> tuple[list[int], int]:
    """Terms of `spec`, and a start at or below the smallest N with P_N >= 10**(digits + 2).

    The start is the first count whose float sum of log10 a_k reaches
    digits + 2 - e, where e = (n + 2) * s * 2**-52, for n terms summing to s,
    bounds the rounding of the log10s and of the running sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 4.2).  Of an explicit
    sequence only the terms before the first below 2 are summed, and their
    count is taken if the sum stops short.  A built-in one gives more.
    """
    target = digits + 2
    if spec.kind is SequenceKind.EXPLICIT:
        terms = list(spec.explicit_terms)
        prefix = len(terms) if min(terms) >= 2 else next(i for i, a in enumerate(terms) if a < 2)
        sums = list(itertools.accumulate(map(math.log10, terms[:prefix])))
    else:
        count = _RUN
        if spec.kind is SequenceKind.PRIMES:
            # One sieve: ln P_N = theta(p_N) is a little below p_N, so p_N lies just past
            # (digits + 2) * ln 10, and pi(x) <= x / (ln x - 1.1) for x >= 60184 (Dusart 2010).
            x = 1.01 * target * math.log(10) + 10
            count = int(x / (math.log(x) - 1.1)) + 4
        while True:
            terms = spec.terms(count)
            sums = list(itertools.accumulate(map(math.log10, terms)))
            if sums[-1] >= target:
                break
            count *= 2
    e = (len(sums) + 2) * sums[-1] * 2**-52 if sums else 0.0
    return terms, min(bisect.bisect_left(sums, target - e) + 1, len(sums))


def _planned(spec: SequenceSpec, digits: int) -> _Series:
    """The series of a_1..a_N for the smallest N with P_N >= 10**(digits + 2), counted up exactly."""
    terms, count = _proposal(spec, digits)
    threshold = _EXACT.scaleb(1, digits + 2)
    series = _series(terms[:count])
    while series.product < threshold:
        if series.count == len(terms):
            terms = spec.terms(series.count + 1)
        series = series.extended(terms[series.count])
    return series


def plan_terms(spec: SequenceSpec, digits: int) -> int:
    """Smallest N with P_N >= 10**(digits + 2): a first guess, not a guarantee.

    The width is then at most 1/100 of the last requested decimal place,
    which certifies `digits` fractional digits except, possibly, when the
    constant's digits just past that place are 99 or 00 and the interval
    still straddles a digit transition.  No fixed margin avoids that: e
    has 99 at places 225-226, so 224 digits of it need one more term.
    `enclose_digits` adds the terms that such a case needs.

    A float sum of log10 a_k, less a bound on its rounding error, gives a
    start at or below N; the series' exact P counts up from there a term at
    a time.  An explicit sequence that runs out first raises
    ExplicitExhausted for the term after its last.
    """
    _check_int(digits, "digits", 1)
    return _planned(spec, digits).count


def enclose_digits(spec: SequenceSpec, digits: int, max_digits: int | None = None) -> ConstantEnclosure:
    """Enclosure certifying `digits` fractional digits, rendered to `max_digits` (default `digits`).

    Starts from the planned series and multiplies in one more term while fewer
    than min(digits, max_digits) digits are verified.  It stops early at an
    integer-part boundary, which no number of terms resolves, and when an
    explicit sequence has no further term, returning the last enclosure.
    """
    _check_int(digits, "digits", 1)
    cap = digits if max_digits is None else max_digits
    _check_int(cap, "max_digits", 1)
    series = _planned(spec, digits)
    enclosure = _enclosure(spec, series.count, cap, series)
    while enclosure.digits.verified < min(digits, cap) and not enclosure.digits.boundary:
        series = series.extended(enclosure.lookahead)
        try:
            enclosure = _enclosure(spec, series.count, cap, series)
        except ExplicitExhausted:
            break
    return enclosure


def interval_from_enclosure_json(doc: dict) -> RationalInterval:
    """Rebuild the certified interval from a serialized enclosure document."""
    lo, hi = _enclosure_ends(doc)
    return RationalInterval(Fraction(*lo), Fraction(*hi))


def _enclosure_ends(doc: dict) -> tuple[tuple[int, int], tuple[int, int]]:
    """The document's 'lo' and 'hi' as (numerator, denominator) pairs, read as `parse_rational`
    reads them but not reduced."""
    if not isinstance(doc, dict) or "lo" not in doc or "hi" not in doc:
        raise ParseError("enclosure document must be an object with 'lo' and 'hi'")
    return _rational_ints(doc["lo"]), _rational_ints(doc["hi"])
