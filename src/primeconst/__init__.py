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

from .constant import enclose, enclose_digits, plan_terms
from .exact_arith import parse_decimal
from .recurrence import recover
from .sequences import SequenceSpec

__all__ = ["SequenceSpec", "enclose", "enclose_digits", "parse_decimal", "plan_terms", "recover"]
