"""Integer sequence sources and growth validation.

A sequence a_1, a_2, ... is admissible when every term is an integer >= 2,
terms strictly increase, and each step at most doubles minus one:
a_{n+1} <= 2*a_n - 1.  The primes satisfy this by Bertrand's postulate
(p_{n+1} < 2*p_n, and 2*p_n itself is even hence composite), and so does
anything growing no faster, such as the naturals from 2.  The validator
reports exact violation positions and also
flags the degenerate case where every step beyond the first achieves the
upper bound, which makes the associated constant rational.

`SequenceSpec.terms` reads every term; its primes come from one private
growable sieve, so repeated requests do not re-sieve from scratch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .exact_arith import InputError, InvalidArgument, ParseError, _check_int, _int_text, _parse_int_literal

__all__ = [
    "ExplicitExhausted",
    "SequenceKind",
    "SequenceSpec",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "load_sequence_file",
    "smallest_nondividing_prime",
    "validate_bertrand",
]


class ExplicitExhausted(InputError):
    """Raised when more terms are requested than an explicit sequence holds."""


_sieved: list[int] = []
_sieve_bound = 0


def _primes(count: int) -> list[int]:
    """The first `count` primes, for a count already checked.

    When a request outgrows the cache, the sieve of Eratosthenes runs again
    up to the largest of 64, twice the last bound and, from n = 6 on, the
    bound in p_n < n(ln n + ln ln n).  A run of increasing requests so costs
    only a constant factor more than sieving once at the final size.
    """
    global _sieved, _sieve_bound
    while len(_sieved) < count:
        estimate = int(count * (math.log(count) + math.log(math.log(count)))) + 10 if count >= 6 else 0
        _sieve_bound = bound = max(estimate, _sieve_bound * 2, 64)
        flags = bytearray([1]) * (bound + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(bound) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
        _sieved = list(itertools.compress(range(bound + 1), flags))
    return _sieved[:count]


class SequenceKind(str, Enum):
    PRIMES = "primes"
    NATURALS = "naturals"
    DOUBLING = "doubling"
    BOUNDARY = "boundary"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class SequenceSpec:
    """A named source of sequence terms.

    Built-in kinds generate terms on demand; the explicit kind wraps a
    finite list and refuses to go past its end.  The boundary kind
    (2^(n-1) + 1: 2, 3, 5, 9, 17, ...) achieves the growth upper bound at
    every step beyond the first, giving a rational limit; it is included
    as a negative control.
    """

    kind: SequenceKind
    explicit_terms: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is SequenceKind.EXPLICIT:
            if not self.explicit_terms:
                raise InvalidArgument("explicit sequence needs at least one term")
            if not all(isinstance(t, int) and not isinstance(t, bool) for t in self.explicit_terms):
                raise TypeError("explicit terms must be ints; floats, bools and other types are refused")
        elif self.explicit_terms is not None:
            raise InvalidArgument(f"{self.kind.value} sequence takes no explicit terms")

    @classmethod
    def primes(cls) -> "SequenceSpec":
        return cls(SequenceKind.PRIMES)

    @classmethod
    def naturals(cls) -> "SequenceSpec":
        """2, 3, 4, 5, ... whose constant is Euler's number e."""
        return cls(SequenceKind.NATURALS)

    @classmethod
    def doubling(cls) -> "SequenceSpec":
        """2^(n-1) + 2: 3, 4, 6, 10, 18, 34, ..."""
        return cls(SequenceKind.DOUBLING)

    @classmethod
    def boundary(cls) -> "SequenceSpec":
        """2^(n-1) + 1: 2, 3, 5, 9, 17, ... (degenerate, rational limit 3)."""
        return cls(SequenceKind.BOUNDARY)

    @classmethod
    def explicit(cls, terms) -> "SequenceSpec":
        return cls(SequenceKind.EXPLICIT, tuple(terms))

    @classmethod
    def from_name(cls, name: str) -> "SequenceSpec":
        try:
            kind = SequenceKind(name)
        except ValueError:
            raise InvalidArgument(f"unknown sequence name: {name!r}") from None
        if kind is SequenceKind.EXPLICIT:
            raise InvalidArgument("explicit sequences come from a file, not a name")
        return cls(kind)

    @classmethod
    def from_file(cls, path) -> "SequenceSpec":
        return cls.explicit(load_sequence_file(path))

    def terms(self, count: int) -> list[int]:
        """The first `count` terms, in order."""
        _check_int(count, "count", 0)
        if self.kind is SequenceKind.PRIMES:
            return _primes(count)
        if self.kind is SequenceKind.EXPLICIT:
            assert self.explicit_terms is not None
            if count > len(self.explicit_terms):
                raise ExplicitExhausted(
                    f"explicit sequence has {len(self.explicit_terms)} terms, "
                    f"{_int_text(count)} requested"
                )
            return list(self.explicit_terms[:count])
        if self.kind is SequenceKind.NATURALS:
            return list(range(2, count + 2))
        offset = 2 if self.kind is SequenceKind.DOUBLING else 1
        return [2**k + offset for k in range(count)]

    def label(self) -> str | list[int]:
        """JSON-friendly identity: the kind name, or the inline term list."""
        if self.kind is SequenceKind.EXPLICIT:
            assert self.explicit_terms is not None
            return list(self.explicit_terms)
        return self.kind.value

    def __str__(self) -> str:
        if self.kind is SequenceKind.EXPLICIT:
            assert self.explicit_terms is not None
            preview = ",".join(_int_text(t) for t in self.explicit_terms[:6])
            if len(self.explicit_terms) > 6:
                preview += ",..."
            return f"explicit[{preview}]"
        return self.kind.value


class ViolationKind(str, Enum):
    NOT_INTEGER_GE2 = "NotIntegerGe2"
    NOT_INCREASING = "NotIncreasing"
    UPPER_BOUND_EXCEEDED = "UpperBoundExceeded"


@dataclass(frozen=True)
class Violation:
    """One broken admissibility condition.

    `index` is 1-based.  For a term condition it is the offending term's
    position; for a pair condition it is the position of the left term of
    the offending pair.
    """

    index: int
    kind: ViolationKind

    def describe(self) -> str:
        return f"{self.kind.value} at index {self.index}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a finite prefix for admissibility."""

    terms_checked: int
    pairs_checked: int
    violations: tuple[Violation, ...]
    upper_bound_equalities: tuple[int, ...] = field(default=())
    all_tail_equalities: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "terms_checked": self.terms_checked,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "violations": [
                {"index": v.index, "kind": v.kind.value} for v in self.violations
            ],
            "upper_bound_equalities": list(self.upper_bound_equalities),
            "all_tail_equalities": self.all_tail_equalities,
        }


def validate_bertrand(terms) -> ValidationReport:
    """Check a finite prefix for admissibility, reporting every violation.

    Conditions, for 1-based positions: each term is an integer >= 2; each
    pair strictly increases; each pair satisfies b <= 2*a - 1.  Pair
    violations carry the left index.  `upper_bound_equalities` lists pair
    indices where b == 2*a - 1 exactly.  `all_tail_equalities` is True when
    every pair at index >= 2 is such an equality (vacuously for a single
    pair); it is only meaningful on a report with no violations, and it
    marks prefixes consistent with the degenerate rational-limit shape.
    """
    terms = list(terms)
    if len(terms) < 2:
        raise InvalidArgument(f"validation needs at least 2 terms, got {len(terms)}")
    violations: list[Violation] = []
    for position, value in enumerate(terms, start=1):
        if not isinstance(value, int) or isinstance(value, bool) or value < 2:
            violations.append(Violation(position, ViolationKind.NOT_INTEGER_GE2))
    # A pair holding a bool or a non-int is not compared; with no term refused above, there is none.
    typed = not violations
    equalities: list[int] = []
    tail_all_equal = True
    for position, (a, b) in enumerate(zip(terms, terms[1:]), start=1):
        if not typed and (type(a) is bool or type(b) is bool or not isinstance(a, int) or not isinstance(b, int)):
            continue
        if b <= a:
            violations.append(Violation(position, ViolationKind.NOT_INCREASING))
        elif b > 2 * a - 1:
            violations.append(Violation(position, ViolationKind.UPPER_BOUND_EXCEEDED))
        if b == 2 * a - 1:
            equalities.append(position)
        elif position >= 2:
            tail_all_equal = False
    return ValidationReport(
        terms_checked=len(terms),
        pairs_checked=len(terms) - 1,
        violations=tuple(violations),
        upper_bound_equalities=tuple(equalities),
        all_tail_equalities=tail_all_equal,
    )


def smallest_nondividing_prime(value: int) -> int:
    """The smallest prime that does not divide `value` (>= 1).

    Equals 2 for odd values, and exceeds the k-th prime exactly when the
    product of the first k primes divides `value`.
    """
    _check_int(value, "value", 1)
    count = 1
    while all(value % p == 0 for p in _primes(count)):
        count *= 2
    return next(p for p in _primes(count) if value % p)


def load_sequence_file(path) -> list[int]:
    """Read one positive integer per line; '#' starts a comment, blanks skipped.

    Raises ParseError with the line number for anything else, and for a
    file that is not UTF-8 text.  A leading byte-order mark is skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    terms: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = _parse_int_literal(line)
        except ParseError:
            raise ParseError(f"{path}:{lineno}: not an integer: {line!r}") from None
        if value < 1:
            raise ParseError(f"{path}:{lineno}: not a positive integer: {_int_text(value)}")
        terms.append(value)
    return terms
