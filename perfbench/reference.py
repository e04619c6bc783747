"""Reference arithmetic for checking primeconst output.

Nothing here imports primeconst.  Every value a workload checks is
recomputed from first principles with plain integers: a prime sieve, the
built-in sequence formulas, the series enclosure over a common
denominator, and the floor recurrence on integer numerators over a fixed
denominator D (x = num / D), which needs no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_primes: list[int] = []


def first_primes(count: int) -> list[int]:
    """The first `count` primes, by a sieve re-run over a doubled bound until long enough."""
    global _primes
    bound = 64
    while len(_primes) < count:
        bound *= 2
        flags = bytearray([1]) * (bound + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(bound) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
        _primes = [i for i, keep in enumerate(flags) if keep]
    return _primes[:count]


def sequence_terms(name: str, count: int, explicit: list[int] | None = None) -> list[int]:
    """The first `count` terms of a built-in sequence, or of an explicit list."""
    if name == "primes":
        return first_primes(count)
    if name == "naturals":
        return [n + 1 for n in range(1, count + 1)]
    if name == "doubling":
        return [2 ** (n - 1) + 2 for n in range(1, count + 1)]
    if name == "boundary":
        return [2 ** (n - 1) + 1 for n in range(1, count + 1)]
    if name == "explicit" and explicit is not None and count <= len(explicit):
        return explicit[:count]
    raise ValueError(f"no {count} terms for sequence {name!r}")


def enclosure(terms: list[int]) -> tuple[int, int]:
    """(L, P) with the constant in [L/P, (L+1)/P], from N terms plus one lookahead.

    g_N = sum_k (a_k - 1) / (a_1 ... a_{k-1}) is brought over P = a_1 ... a_N,
    where the k-th term becomes (a_k - 1) * a_k * ... * a_N, and the admissible
    tail adds between a_{N+1} / P and (a_{N+1} + 1) / P.
    """
    *head, lookahead = terms
    numerator = 0
    for a in head:
        numerator = (numerator + a - 1) * a
    return numerator + lookahead, math.prod(head)


def terms_for_digits(name: str, digits: int) -> int:
    """Fewest terms N of a built-in sequence with a_1 ... a_N >= 10**digits."""
    target = 10**digits
    count = 16
    while True:
        running = 1
        for n, a in enumerate(sequence_terms(name, count), start=1):
            running *= a
            if running >= target:
                return n
        count *= 2


def truncated_decimal(name: str, digits: int) -> str:
    """The constant of a built-in sequence truncated to `digits` fractional digits."""
    extra = 10
    while True:
        n = terms_for_digits(name, digits + extra)
        lo, den = enclosure(sequence_terms(name, n + 1))
        scale = 10**digits
        low, high = lo * scale // den, (lo + 1) * scale // den
        if low == high:
            text = str(low)
            return f"{text[:-digits]}.{text[-digits:]}"
        extra *= 2


@dataclass(frozen=True)
class Recovery:
    """Outcome of the floor recurrence on [lo/D, hi/D]."""

    terms: list[int]
    stop: dict
    residuals: list[tuple[int, int]]
    denominator: int

    @property
    def bound(self) -> int | None:
        upper = min((hi for _, hi in self.residuals), default=None)
        if upper is None or upper <= 0:
            return None
        return self.denominator // upper


def recover(lo: int, hi: int, den: int, max_terms: int) -> Recovery:
    """Peel certified floors: m = floor(x), x -> m * (x - m + 1), all over a fixed D.

    Checks in the order the library documents: the requested count, then
    a width of at least 1, then whether [lo, hi] straddles an integer.
    Residual enclosures (x - m) are kept as numerators over D.
    """
    terms: list[int] = []
    residuals: list[tuple[int, int]] = []
    while True:
        step = len(terms) + 1
        if len(terms) >= max_terms:
            stop = {"kind": "max_terms", "step": None, "straddled": None}
            break
        if hi - lo >= den:
            stop = {"kind": "width_exceeds_one", "step": step, "straddled": None}
            break
        m = lo // den
        if hi >= (m + 1) * den:
            stop = {"kind": "ambiguous_floor", "step": step, "straddled": m + 1}
            break
        if m < 2:
            raise ValueError(f"certified floor {m} < 2 at step {step}")
        terms.append(m)
        r_lo, r_hi = lo - m * den, hi - m * den
        residuals.append((r_lo, r_hi))
        lo, hi = m * (r_lo + den), m * (r_hi + den)
    return Recovery(terms, stop, residuals, den)


def smallest_nondivisor_mean(limit: int) -> Fraction:
    """Average over n = 1..limit of the smallest prime not dividing n, elementwise."""
    primes = first_primes(20)
    total = 0
    for n in range(1, limit + 1):
        total += next(p for p in primes if n % p)
    return Fraction(total, limit)


def alpha_digits(count: int) -> str:
    """Decimal expansion of sum_{i<=count} p_i / 10**(2**(i+1)), which terminates."""
    width = 2 ** (count + 1)
    numerator = sum(p * 10 ** (width - 2 ** (i + 1)) for i, p in enumerate(first_primes(count), start=1))
    return "0." + str(numerator).zfill(width)
