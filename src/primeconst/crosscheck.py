"""Independent routes to the primes constant and a digit-packing baseline.

Two cross-checks anchor the series value from outside the series code:

* The smallest prime not dividing n.  Over a block n = 1..M the average of
  this quantity converges to the primes constant, because the smallest
  non-dividing prime exceeds p_k exactly when p_1 * ... * p_k divides n,
  an event of density 1 / (p_1 * ... * p_k).  The exact block average is
  computed here by counting multiples, which agrees term for term with
  the elementwise sum.

* A digit-packing constant: alpha = sum over i of p_i / 10**(2**(i+1))
  stores p_i in the decimal positions just before 2**(i+1), sparsely
  enough that each prime is recovered exactly by two floor operations.
  This is the classic trade of a cheap constant for an expensive decode,
  the opposite of the series constant, where the constant is deep but one
  floor per term suffices.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_arith import InvalidArgument, _check_int, _int_text
from .sequences import SequenceSpec

__all__ = ["alpha_build", "alpha_decode", "nondivisor_mean"]

_ALPHA_TERM_CAP = 12


def nondivisor_mean(limit: int) -> Fraction:
    """Exact average of the smallest non-dividing prime over n = 1..limit.

    Counts, for each prime p_k, how many n in the block have p_k as their
    smallest non-dividing prime: the multiples of p_1 * ... * p_{k-1} that
    are not multiples of p_1 * ... * p_k.  This closed form is exactly the
    elementwise average but runs in O(log limit) divisions.  It reads the
    first k = limit.bit_length() primes, which suffice: p_1 * ... * p_k >= 2**k > limit.
    """
    _check_int(limit, "limit", 1)
    total = 0
    running_product = 1
    for prime in SequenceSpec.primes().terms(limit.bit_length()):
        if running_product > limit:
            break
        next_product = running_product * prime
        count = limit // running_product - limit // next_product
        total += prime * count
        running_product = next_product
    return Fraction(total, limit)


def alpha_build(terms: int) -> Fraction:
    """The packing constant for the first `terms` primes.

    alpha(T) = sum_{i=1}^{T} p_i / 10**(2**(i+1)), an exact rational with
    denominator 10**(2**(T+1)).  The denominator doubles in digit count
    with every term, so the count is capped at 12 (about 8000 digits).
    """
    _check_int(terms, "terms", 1)
    if terms > _ALPHA_TERM_CAP:
        raise InvalidArgument(
            f"alpha with {_int_text(terms)} terms needs 10**(2**{_int_text(terms + 1)}) as a denominator; "
            f"the cap is {_ALPHA_TERM_CAP} terms"
        )
    top_exponent = 2 ** (terms + 1)
    numerator = 0
    for i, prime in enumerate(SequenceSpec.primes().terms(terms), start=1):
        numerator += prime * 10 ** (top_exponent - 2 ** (i + 1))
    return Fraction(numerator, 10**top_exponent)


def alpha_decode(alpha: Fraction, index: int) -> int:
    """Recover the index-th packed prime from an alpha value.

    Two floors slice the digit window: floor(alpha * 10**(2**(n+1))) holds
    everything through p_n, and subtracting the shifted previous window
    leaves p_n alone.  Valid for every index up to the term count alpha
    was built with; beyond that the windows are empty and yield 0.  An
    index above the 12-term cap of `alpha_build` raises InvalidArgument,
    since its window needs 10**(2**(index+1)) as a power.
    """
    if not isinstance(alpha, Fraction):
        raise TypeError(f"alpha must be a Fraction, got {type(alpha).__name__}")
    _check_int(index, "index", 1)
    if index > _ALPHA_TERM_CAP:
        raise InvalidArgument(
            f"decoding index {_int_text(index)} needs 10**(2**{_int_text(index + 1)}) as a power; "
            f"the cap is {_ALPHA_TERM_CAP} terms"
        )
    wide = 10 ** (2 ** (index + 1))
    narrow = 10 ** (2**index)
    whole_window = alpha.numerator * wide // alpha.denominator
    previous_window = alpha.numerator * narrow // alpha.denominator
    return whole_window - narrow * previous_window
