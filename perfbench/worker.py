"""Runs one workload in-process through primeconst.cli.main, with stdout captured.

Reads a plan as JSON on stdin:

    {"requests": [argv, ...], "probe": argv or null, "seconds": s, "trace": 0 or 1,
     "outdir": directory for the outputs to check}

and writes one JSON object to stdout.  One caller drives a closed loop:
each pass sends the request list in order, the next request only after the
previous one returns, and passes repeat until the next would end past
`seconds` (at least MIN_PASSES).  With trace 1 a second phase wraps the
package's public functions in spans and repeats the passes, then runs one
more pass under tracemalloc for the memory peaks of `enclose` and
`recover` (tracemalloc slows every allocation, so no timed pass runs
under it), and then times the probe, the main call at half size, for
growth exponents.  Latencies are also reported normalised to reference
host speed (hostspeed.py).  The untraced phase always runs first, so the
process's peak RSS and the untraced timings never include tracing.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import inspect
import io
import json
import math
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed
import primeconst.cli as cli
from primeconst import constant, crosscheck, exact_arith, recurrence, sequences

MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.5
PROBE_REPEATS = 2
GROWTH_SPANS = ("constant.enclose", "exact_arith.to_decimal", "recurrence.recover")
_LOG10_2 = math.log10(2)


def _digits(value: int) -> int:
    return int(abs(value).bit_length() * _LOG10_2) + 1


def call(argv: list[str]) -> tuple[float, int, bytes]:
    """(seconds, exit code, stdout bytes) of one CLI invocation.

    The collector runs first, outside the timing, so that every request
    starts from collected garbage and reset collection counts, as a new CLI
    process would, and does not pay for collections its predecessor earned.
    stdout is encoded into a byte buffer as it is written, as a real stream
    would be; an io.StringIO would hold up to four bytes per character.
    """
    gc.collect()
    buffer = io.BytesIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8")
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        out.flush()
    elapsed = time.perf_counter() - start
    out.detach()
    return elapsed, code, buffer.getvalue()


class Tracer:
    """Spans around the package's public functions, kept in memory per pass.

    A span is [name, request index, start, end, parent span index].  A
    span's self time is its duration minus the durations of its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, measure=None, peak: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.request, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            peak_now = peak and tracemalloc.is_tracing()
            if peak_now:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if peak_now:
                self.maximum(f"{name}.traced_peak_mb", (tracemalloc.get_traced_memory()[1] - base) / 2**20)
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return traced

    def take(self) -> dict:
        """Per-span totals [seconds, self seconds, calls], counters, and request 0's span seconds."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats: dict[str, list] = {}
        for index, (name, _, start, end, _) in enumerate(self.spans):
            row = stats.setdefault(name, [0.0, 0.0, 0])
            row[0] += end - start
            row[1] += end - start - child[index]
            row[2] += 1
        main: dict[str, float] = {}
        for name, request, start, end, _ in self.spans:
            if request == 0:
                main[name] = main.get(name, 0.0) + end - start
        taken = {"stats": stats, "counters": self.counters, "main": main}
        self.spans, self.counters = [], {}
        return taken


def _enclose_sizes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.maximum("constant.enclose.operand_digits", _digits(result.product))


_TO_DECIMAL = inspect.signature(exact_arith.to_decimal)


def _to_decimal_sizes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("exact_arith.to_decimal.digits", _TO_DECIMAL.bind(*args, **kwargs).arguments["max_digits"])


def _format_sizes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("exact_arith.format_rational.digits", len(result))


def _recover_sizes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("recurrence.recover.steps", len(result.recovered))
    widest = max(
        (max(iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator) for iv in result.intervals),
        default=0,
    )
    tracer.maximum("recurrence.recover.max_operand_digits", _digits(widest))


def install(tracer: Tracer) -> None:
    """Wrap each public layer function everywhere the package has bound it."""
    functions = [
        ("cli.main", cli, "main", None, False),
        ("constant.plan_terms", constant, "plan_terms", None, False),
        ("constant.enclose", constant, "enclose", _enclose_sizes, True),
        ("exact_arith.to_decimal", exact_arith, "to_decimal", _to_decimal_sizes, False),
        ("exact_arith.format_rational", exact_arith, "format_rational", _format_sizes, False),
        ("exact_arith.parse_decimal", exact_arith, "parse_decimal", None, False),
        ("recurrence.recover", recurrence, "recover", _recover_sizes, True),
        ("recurrence.residuals", recurrence, "residuals", None, False),
        ("recurrence.roundtrip", recurrence, "roundtrip", None, False),
        ("sequences.validate_bertrand", sequences, "validate_bertrand", None, False),
        ("crosscheck.nondivisor_mean", crosscheck, "nondivisor_mean", None, False),
        ("crosscheck.alpha_build", crosscheck, "alpha_build", None, False),
        ("crosscheck.alpha_decode", crosscheck, "alpha_decode", None, False),
    ]
    modules = [m for n, m in sys.modules.items() if n == "primeconst" or n.startswith("primeconst.")]
    for name, owner, attr, measure, peak in functions:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, measure, peak)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    sequences.SequenceSpec.terms = tracer.wrap("sequences.terms", sequences.SequenceSpec.terms)
    result_type = recurrence.RecoveryResult
    for attr in ("denominator_bound", "residual_intervals"):
        getter = getattr(result_type, attr).fget
        setattr(result_type, attr, property(tracer.wrap(f"recurrence.{attr}", getter)))


class Outputs:
    """Request outputs: the first of each is written to `outdir` for checking, later ones compared by digest.

    Keeping outputs out of memory keeps them out of the workload's peak RSS.
    """

    def __init__(self, outdir: str) -> None:
        self.outdir = Path(outdir)
        self.first: list[list] = []
        self.digests: list[tuple[int, bytes]] = []

    def save(self, name: str, code: int, stdout: bytes) -> list:
        path = self.outdir / name
        path.write_bytes(stdout)
        return [code, str(path)]

    def same_as_first(self, index: int, code: int, stdout: bytes) -> bool:
        """Records the first output of request `index`; afterwards, whether an output repeats it."""
        digest = (code, hashlib.sha256(stdout).digest())
        if index == len(self.digests):
            self.digests.append(digest)
            self.first.append(self.save(f"request{index}.out", code, stdout))
        return self.digests[index] == digest


def run_passes(requests: list[list[str]], seconds: float, tracer: Tracer | None,
               outputs: Outputs, min_passes: int = MIN_PASSES) -> list[dict]:
    """Closed-loop passes, each with per-request latencies and the requests whose output changed.

    A host-speed calibration runs before a pass, after it, and before any
    request that starts CALIBRATE_EVERY_S after the last one; each latency is
    also reported normalised by the calibrations on either side of it.
    """
    passes: list[dict] = []
    started = time.perf_counter()
    elapsed = 0.0
    while len(passes) < min_passes or time.perf_counter() - started + elapsed <= seconds:
        latencies, before, differs, output_bytes = [], [], [], 0
        pass_start = time.perf_counter()
        calibrations = [hostspeed.calibrate()]
        last_calibration = time.perf_counter()
        for index, argv in enumerate(requests):
            if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(hostspeed.calibrate())
                last_calibration = time.perf_counter()
            before.append(len(calibrations) - 1)
            if tracer is not None:
                tracer.request = index
            seconds_taken, code, stdout = call(argv)
            latencies.append(seconds_taken)
            output_bytes += len(stdout)
            if not outputs.same_as_first(index, code, stdout):
                differs.append(index)
        calibrations.append(hostspeed.calibrate())
        elapsed = time.perf_counter() - pass_start
        record = {
            "wall": sum(latencies),
            "latencies": latencies,
            "normalised": [hostspeed.normalise(t, calibrations[k], calibrations[k + 1])
                           for t, k in zip(latencies, before)],
            "calibrations": calibrations,
            "differs": differs,
            "output_bytes": output_bytes,
        }
        if tracer is not None:
            record.update(tracer.take())
        passes.append(record)
    return passes


def probe(half: list[str], traced: list[dict], tracer: Tracer, outputs: Outputs) -> tuple[dict, list[list]]:
    """log2(t(d) / t(d/2)) per growth span of the main call (request 0), in normalised seconds.

    t(d) is the fastest traced pass's span time for request 0, and t(d/2)
    the fastest of PROBE_REPEATS traced calls at half size.
    """
    full = {
        name: min(p["main"].get(name, math.inf) * p["normalised"][0] / p["latencies"][0] for p in traced)
        for name in GROWTH_SPANS
    }
    best = dict.fromkeys(GROWTH_SPANS, math.inf)
    saved: list[list] = []
    for repeat in range(PROBE_REPEATS):
        before = hostspeed.calibrate()
        _, code, stdout = call(half)
        after = hostspeed.calibrate()
        saved.append(outputs.save(f"probe{repeat}.out", code, stdout))
        stats = tracer.take()["stats"]
        for name in GROWTH_SPANS:
            if name in stats:
                best[name] = min(best[name], hostspeed.normalise(stats[name][0], before, after))
    growth = {
        name: math.log2(full[name] / best[name])
        for name in GROWTH_SPANS
        if full[name] < math.inf and 0 < best[name] < math.inf
    }
    return growth, saved


def main() -> None:
    plan = json.load(sys.stdin)
    requests, seconds = plan["requests"], plan["seconds"]
    outputs = Outputs(plan["outdir"])
    # A traced run splits its time between the untraced and the traced phase.
    phase_seconds = seconds / 2 if plan["trace"] else seconds
    untraced_passes = 2 if plan["trace"] else MIN_PASSES
    result: dict = {"passes": run_passes(requests, phase_seconds, None, outputs, untraced_passes)}
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if plan["trace"]:
        tracer = Tracer()
        install(tracer)
        result["traced"] = run_passes(requests, phase_seconds, tracer, outputs, min_passes=2)
        tracemalloc.start()
        result["memory"] = run_passes(requests, 0, tracer, outputs, min_passes=1)
        tracemalloc.stop()
        result["growth"], result["probe"] = (
            probe(plan["probe"], result["traced"], tracer, outputs) if plan["probe"] else ({}, []))
    result["outputs"] = outputs.first
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
