"""Exact enclosures of prime-representing constants and their relatives.

The central object is the constant attached to an admissible integer
sequence (terms >= 2, strictly increasing, each step at most doubling
minus one): the limit of sum_k (a_k - 1) / (a_1 * ... * a_{k-1}).  For
the primes this is 2.92005097731613..., and the whole sequence can be
read back out of the constant with one floor per term.  Everything here
is exact rational arithmetic; no floats, no rounding, every printed
digit certified by a closed interval that provably contains the limit.

Modules:

* `exact_arith`: rational intervals and verified decimal rendering.
* `sequences`: term sources (primes, naturals, doubling, a degenerate
  boundary case, explicit lists) and admissibility validation.
* `constant`: partial sums, enclosures of width exactly 1/product, term
  planning for a digit target.
* `recurrence`: term recovery via the floor recurrence, residual
  enclosures, empirical denominator bounds for irrationality evidence.
* `crosscheck`: smallest-non-dividing-prime block averages and a
  digit-packing constant, two independent routes to the same value.
* `cli`: the `primeconst` command.
"""

from .constant import (
    ConstantEnclosure,
    InsufficientTerms,
    ValidationFailed,
    enclose,
    enclose_digits,
    euler_check,
    interval_from_enclosure_json,
    partial_sum,
    plan_terms,
    product,
)
from .crosscheck import (
    DistributionRow,
    NonDivisorDistribution,
    TermLimitExceeded,
    alpha_build,
    alpha_decode,
    nondivisor_distribution,
    nondivisor_mean,
)
from .exact_arith import (
    DecimalDigits,
    InvalidArgument,
    NonPositiveInterval,
    ParseError,
    RationalInterval,
    format_rational,
    parse_decimal,
    parse_rational,
    to_decimal,
)
from .recurrence import (
    FloorBelowTwo,
    MismatchDetected,
    PrecisionExhausted,
    RecoveryResult,
    ResidualReport,
    RoundtripReport,
    StopReason,
    recover,
    residuals,
    roundtrip,
)
from .sequences import (
    ExplicitExhausted,
    PrimeSieve,
    SequenceKind,
    SequenceSpec,
    TooShort,
    ValidationReport,
    Violation,
    ViolationKind,
    load_sequence_file,
    smallest_nondividing_prime,
    validate_bertrand,
)

__version__ = "1.0.0"

__all__ = [
    "ConstantEnclosure",
    "DecimalDigits",
    "DistributionRow",
    "ExplicitExhausted",
    "FloorBelowTwo",
    "InsufficientTerms",
    "InvalidArgument",
    "MismatchDetected",
    "NonDivisorDistribution",
    "NonPositiveInterval",
    "ParseError",
    "PrecisionExhausted",
    "PrimeSieve",
    "RationalInterval",
    "RecoveryResult",
    "ResidualReport",
    "RoundtripReport",
    "SequenceKind",
    "SequenceSpec",
    "StopReason",
    "TermLimitExceeded",
    "TooShort",
    "ValidationFailed",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "alpha_build",
    "alpha_decode",
    "enclose",
    "enclose_digits",
    "euler_check",
    "format_rational",
    "interval_from_enclosure_json",
    "load_sequence_file",
    "nondivisor_distribution",
    "nondivisor_mean",
    "parse_decimal",
    "parse_rational",
    "partial_sum",
    "plan_terms",
    "product",
    "recover",
    "residuals",
    "roundtrip",
    "smallest_nondividing_prime",
    "to_decimal",
    "validate_bertrand",
]
