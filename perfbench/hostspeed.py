"""Host-speed calibration for timings on a shared machine.

A shared host can change speed by up to 2x in phases of a few seconds, as
other tenants come and go, and the slowdown differs between kinds of work;
a run's raw wall time then measures the host as much as the program.
`calibrate` times a fixed task that does not use primeconst and mixes the
two kinds of work the workloads do, in about equal parts: a Fraction floor
recurrence on a ~1700-digit enclosure of e (small operands, gcd-heavy),
and products and divisions of ~20000-digit integers (large operands).  A
latency measured next to calibrations is reported at reference speed:

    latency * REFERENCE_S / (mean of the calibrations before and after it)

REFERENCE_S is about the task's time on the reference host (Intel Xeon,
2 vCPUs, Python 3.11.7), so normalised times read as seconds there.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

REFERENCE_S = 0.05
_TERMS = range(2, 702)
_NUMERATOR = 0
for _a in _TERMS[:-1]:
    _NUMERATOR = (_NUMERATOR + _a - 1) * _a
_DENOMINATOR = math.prod(_TERMS[:-1])
_X, _Y, _D = 7**25000, 3**45000, 10**20000 + 7


def calibrate() -> float:
    """Seconds the calibration task takes now."""
    start = time.perf_counter()
    lo = Fraction(_NUMERATOR + _TERMS[-1], _DENOMINATOR)
    hi = lo + Fraction(1, _DENOMINATOR)
    while hi - lo < 1:
        m = lo.numerator // lo.denominator
        if hi >= m + 1:
            break
        lo, hi = m * (lo - m + 1), m * (hi - m + 1)
    product = _X * _Y
    product // (_X + 1)
    divmod(product, _D)
    return time.perf_counter() - start


def normalise(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference host speed, given the calibrations around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
