"""Shared pytest configuration.

After the run, prints one line per acceptance criterion recorded by
tests/test_acceptance.py, so the pass/fail status of the acceptance gate
is visible in any pytest invocation, not only with -s.

The whole session runs under CPython's default limit on int-to-text
conversion, 4300 digits, whatever the environment sets (for example
PYTHONINTMAXSTRDIGITS=0), so a library `str()` or `int()` of a big integer
fails here as it would for a user.  A test whose own oracle converts a big
integer wraps only that expression in `int_text_unlimited()`.

A test that starts an interpreter passes it `checkout_env()`, so the child
imports the package from this checkout whether or not it is installed.
"""

import contextlib
import math
import os
import sys
from pathlib import Path

import pytest

DEFAULT_INT_MAX_STR_DIGITS = 4300
SRC = Path(__file__).resolve().parents[1] / "src"
_SAVED_LIMIT = pytest.StashKey[int]()


def pytest_configure(config):
    if hasattr(sys, "set_int_max_str_digits"):
        config.stash[_SAVED_LIMIT] = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(DEFAULT_INT_MAX_STR_DIGITS)


def pytest_unconfigure(config):
    if _SAVED_LIMIT in config.stash:
        sys.set_int_max_str_digits(config.stash[_SAVED_LIMIT])


@contextlib.contextmanager
def int_text_unlimited():
    """Lift the int-to-text limit for a test oracle's own conversions, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def checkout_env():
    """The environment for a child interpreter, with this checkout's `src` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def str_length(n):
    """len(str(n)) of an int, with the int-to-text limit lifted for this one conversion."""
    with int_text_unlimited():
        return len(str(n))


def interval_text(lo, hi, factors, max_digits):
    """`exact_arith._IntervalText` of [lo/D, hi/D] over a product tree of `factors`, whose product is D."""
    from primeconst import exact_arith

    level = list(factors)
    levels = [level]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        levels.append(level)
    tree = [[exact_arith._exact_decimal(node) for node in level] for level in levels]
    decimal_lo, decimal_width = exact_arith._exact_decimal(lo), exact_arith._exact_decimal(hi - lo)
    return exact_arith._IntervalText(decimal_lo, decimal_width, tree, max_digits)


def each_term(spec):
    """The terms of `spec` in order, read from `terms` in prefixes of doubling length.

    Past the end of an explicit sequence it raises what `terms` raises for
    one term more, so a caller sees the refusal a one-term-longer read gives.
    """
    done = 0
    while True:
        size = 2 * done + 1
        if spec.explicit_terms is not None:
            length = len(spec.explicit_terms)
            size = min(size, length) if done < length else length + 1
        yield from spec.terms(size)[done:]
        done = size


def midpoint(interval):
    """The centre of a `RationalInterval`, exactly."""
    return (interval.lo + interval.hi) / 2


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "CRITERION_RESULTS", None)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(results):
        terminalreporter.write_line(results[number])
