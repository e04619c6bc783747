"""Acceptance gate: every acceptance criterion of the project, one test each.

Each test records a single pass/fail line (shown in the terminal summary
by conftest.py) and then asserts at the criterion's stated tolerance and
time bound.  Time bounds are measured around in-process work, excluding
interpreter startup.

Criterion 7 checks the certified denominator bound against an oracle
that sums the series tail backwards without `primeconst.recurrence`.  A
50-term run cannot certify B >= 1000: every residual at depth
2 <= n <= 50 exceeds (p_(n+1) - p_n)/p_n >= 2/229, which caps the bound
at 114 (the exact value is 112).  The test checks that cap, and checks
the target B >= 1000 on a 320-term run, where it is reachable (B = 1051).
"""

import functools
import json
import math
import time
from fractions import Fraction

from conftest import midpoint
from primeconst import cli
from primeconst.constant import enclose
from primeconst.crosscheck import alpha_build, alpha_decode, nondivisor_mean
from primeconst.recurrence import recover, residuals, roundtrip
from primeconst.sequences import SequenceSpec, validate_bertrand

CRITERION_RESULTS = {}

PRIMES = SequenceSpec.primes()
NATURALS = SequenceSpec.naturals()
DOUBLING = SequenceSpec.doubling()
BOUNDARY = SequenceSpec.boundary()


def criterion(number, name):
    """Record a pass/fail summary line for the wrapped criterion test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as exc:
                text = " ".join(str(exc).split())
                if len(text) > 200:
                    text = text[:197] + "..."
                CRITERION_RESULTS[number] = (
                    f"[criterion {number:02d}] {name}: FAIL ({text})"
                )
                raise
            line = f"[criterion {number:02d}] {name}: PASS"
            if detail:
                line += f" ({detail})"
            CRITERION_RESULTS[number] = line

        return wrapper

    return decorate


def run_cli_json(args, capsys):
    code = cli.main(args + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@criterion(1, "primes constant digits")
def test_criterion_01_primes_digits(capsys):
    started = time.perf_counter()
    code = cli.main(["constant", "--sequence", "primes", "--digits", "12"])
    elapsed = time.perf_counter() - started
    first_line = capsys.readouterr().out.splitlines()[0]
    assert code == 0
    assert first_line == "2.920050977316"
    assert elapsed < 0.1, f"took {elapsed:.3f}s, bound is 0.1s"
    return f"output {first_line}, {elapsed * 1000:.1f} ms"


@criterion(2, "doubling constant digits")
def test_criterion_02_doubling_digits(capsys):
    started = time.perf_counter()
    code = cli.main(["constant", "--sequence", "doubling", "--digits", "11"])
    elapsed = time.perf_counter() - started
    first_line = capsys.readouterr().out.splitlines()[0]
    assert code == 0
    assert first_line == "3.56797609098"
    assert elapsed < 0.1, f"took {elapsed:.3f}s, bound is 0.1s"
    return f"output {first_line}, {elapsed * 1000:.1f} ms"


@criterion(3, "naturals constant equals the factorial series")
def test_criterion_03_euler_identity(capsys):
    started = time.perf_counter()
    code = cli.main(["constant", "--sequence", "naturals", "--digits", "15"])
    elapsed = time.perf_counter() - started
    first_line = capsys.readouterr().out.splitlines()[0]
    assert code == 0
    # Independent oracle: e bracketed by S_M < e < S_M + 1/(M! * M), truncated
    # with integer arithmetic only.
    m = 30
    series = sum(Fraction(1, math.factorial(k)) for k in range(m + 1))
    upper = series + Fraction(1, math.factorial(m) * m)
    scale = 10**15
    lo_scaled = series.numerator * scale // series.denominator
    hi_scaled = upper.numerator * scale // upper.denominator
    assert lo_scaled == hi_scaled, "oracle bracket must pin all 15 digits"
    text = str(lo_scaled)
    expected = f"{text[:-15]}.{text[-15:]}"
    assert first_line == expected
    assert elapsed < 0.1, f"took {elapsed:.3f}s, bound is 0.1s"
    return f"both routes give {expected}, {elapsed * 1000:.1f} ms"


@criterion(4, "roundtrip soundness")
def test_criterion_04_roundtrip():
    started = time.perf_counter()
    # roundtrip raises MismatchDetected on any disagreement, so completing
    # at all certifies zero mismatches.
    lengths = {}
    for spec in (PRIMES, DOUBLING):
        for terms_used in (5, 10, 15, 20, 25):
            report = roundtrip(spec, terms_used)
            lengths[(str(spec), terms_used)] = len(report.run.recovered)
    elapsed = time.perf_counter() - started
    assert lengths[("primes", 25)] >= 23
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"
    return (
        f"primes N=25 recovered {lengths[('primes', 25)]} terms, "
        f"all 10 runs mismatch-free, {elapsed * 1000:.0f} ms"
    )


@criterion(5, "published digits recover the first primes")
def test_criterion_05_published_digit_recovery(capsys):
    started = time.perf_counter()
    doc = run_cli_json(["recover", "--value", "2.920050977316"], capsys)
    elapsed = time.perf_counter() - started
    assert len(doc["recovered"]) >= 8
    assert doc["recovered"][:8] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert elapsed < 0.1, f"took {elapsed:.3f}s, bound is 0.1s"
    return f"{len(doc['recovered'])} terms certified, {elapsed * 1000:.1f} ms"


@criterion(6, "exact width laws")
def test_criterion_06_width_laws():
    checked_steps = 0
    for spec in (PRIMES, NATURALS, DOUBLING, BOUNDARY):
        for terms_used in range(1, 51):
            enclosure = enclose(spec, terms_used)
            assert enclosure.interval.width == Fraction(1, enclosure.product)
        run = recover(enclose(spec, 50).interval, max_terms=50)
        widths = [interval.width for interval in run.intervals]
        for k in range(len(widths) - 1):
            assert widths[k + 1] == widths[k] * run.recovered[k]
            checked_steps += 1
    return f"200 enclosure widths and {checked_steps} step multiplications exact"


def first_primes(count):
    """The first `count` primes by trial division, independent of the package's sieve."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def residual_bound_oracle(terms, terms_used):
    """(B, min upper residual) of a `terms_used`-term enclosure, from its series tail.

    The enclosure's upper end at depth N + 1 is a_(N+1) + 1; the inverse
    step hi_n = a_n - 1 + hi_(n+1)/a_n carries it back to depth 1, and
    u_n = hi_n - a_n bounds the n-th residual from above.
    """
    hi = Fraction(terms[terms_used] + 1)
    uppers = []
    for a in reversed(terms[:terms_used]):
        hi = a - 1 + hi / a
        uppers.append(hi - a)
    smallest = min(uppers)
    return smallest.denominator // smallest.numerator, smallest


@criterion(7, "residual bracket and denominator bound")
def test_criterion_07_residuals_and_bound():
    started = time.perf_counter()
    reports = {n: residuals(PRIMES, n) for n in (50, 100, 320)}
    elapsed = time.perf_counter() - started
    primes = first_primes(321)
    oracle = {n: residual_bound_oracle(primes, n) for n in reports}
    # The oracle's own values: the minima sit at the twin pairs 227/229
    # (step 49), 521/523 (step 98) and 2111/2113 (step 318).
    assert {n: bound for n, (bound, _) in oracle.items()} == {50: 112, 100: 256, 320: 1051}
    for n, report in reports.items():
        assert report.certified == n
        bound, smallest = oracle[n]
        assert report.run.min_residual_upper == smallest, f"N={n}: min upper residual disagrees with the oracle"
        assert report.run.denominator_bound == bound, (
            f"N={n}: certified B = {report.run.denominator_bound}, oracle gives {bound}"
        )
        # r_n > (p_(n+1) - p_n)/p_n >= 2/p_N for n >= 2 (and r_1 > 1/2) caps B.
        for k, residual in enumerate(report.run.residual_intervals, start=1):
            assert 0 < residual.lo and residual.hi < 1
            assert residual.lo >= Fraction(primes[k] - primes[k - 1], primes[k - 1])
        assert report.run.denominator_bound <= primes[n - 1] // 2, (
            f"N={n}: B = {report.run.denominator_bound} exceeds the cap {primes[n - 1] // 2}"
        )
    bound_50, bound_100, bound_320 = (reports[n].run.denominator_bound for n in (50, 100, 320))
    assert bound_50 <= bound_100 <= bound_320, "bound must be nondecreasing in terms"
    assert bound_320 >= 1000, f"the 320-term run certifies only B = {bound_320}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"
    return f"B(50)={bound_50}, B(100)={bound_100}, B(320)={bound_320}, all equal the oracle"


@criterion(8, "expectation identity")
def test_criterion_08_expectation_identity():
    # The smallest prime not dividing n is p_i with density
    # (p_i - 1)/(p_1 * ... * p_i), so the first K primes contribute
    # the sum over i <= K of p_i * (p_i - 1)/(p_1 * ... * p_i).
    expectation = Fraction(0)
    product = 1
    for k, prime in enumerate(first_primes(50), start=1):
        product *= prime
        expectation += Fraction(prime * (prime - 1), product)
        assert expectation == enclose(PRIMES, k).partial_sum
    return "sum of p*(1-1/p)/product == partial sum, exact for K <= 50"


@criterion(9, "empirical mean near the constant")
def test_criterion_09_empirical_mean():
    started = time.perf_counter()
    mean = nondivisor_mean(10**6)
    centre = midpoint(enclose(PRIMES, 13).interval)
    elapsed = time.perf_counter() - started
    difference = abs(mean - centre)
    assert difference < Fraction(1, 100)
    assert elapsed < 5.0, f"took {elapsed:.3f}s, bound is 5s"
    return f"mean {mean} within {float(difference):.2e} of midpoint, {elapsed * 1000:.0f} ms"


@criterion(10, "digit-packing decode")
def test_criterion_10_alpha_decode():
    started = time.perf_counter()
    alpha = alpha_build(12)
    primes = PRIMES.terms(12)
    for n in range(1, 12):
        assert alpha_decode(alpha, n) == primes[n - 1]
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1, f"took {elapsed:.3f}s, bound is 0.1s"
    return f"all n <= 11 decode to the n-th prime, {elapsed * 1000:.1f} ms"


@criterion(11, "degenerate boundary sequence")
def test_criterion_11_boundary_negative_control():
    report = validate_bertrand(BOUNDARY.terms(12))
    assert report.ok and report.all_tail_equalities
    for terms_used in range(1, 21):
        enclosure = enclose(BOUNDARY, terms_used)
        assert enclosure.interval.hi == 3
        assert enclosure.interval.width == Fraction(1, enclosure.product)
    trip = roundtrip(BOUNDARY, 10)
    assert trip.run.recovered == ()
    assert trip.run.stop.kind == "ambiguous_floor" and trip.run.stop.straddled == 3
    assert trip.enclosure.validation.all_tail_equalities
    return "all-tail equalities, hi == 3 exactly, recovery stops degenerately"


@criterion(12, "ten thousand verified digits in time")
def test_criterion_12_performance(capsys):
    started = time.perf_counter()
    doc = run_cli_json(["bench", "--digits", "10000"], capsys)
    elapsed = time.perf_counter() - started
    result = doc["results"][0]
    assert result["verified_digits"] >= 10000
    assert str(result["digits_requested"]) in doc["timing"]["seconds"]
    assert elapsed < 60.0, f"took {elapsed:.3f}s, bound is 60s"
    return (
        f"{result['verified_digits']} digits from {result['terms_used']} terms "
        f"in {elapsed:.2f} s"
    )
