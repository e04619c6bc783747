"""primeconst benchmark: one workload, every output checked, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics.  The
workload runs in its own worker process (worker.py), so its peak RSS is
its own; this process only builds the inputs, measures set-up time and
checks outputs against reference.py.  Exits 2 without a result line when
the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170
# Spans the traced run reports; each gets .s, .self_s and .calls.
SPANS = (
    "cli.main",
    "constant.plan_terms",
    "constant.enclose",
    "exact_arith.to_decimal",
    "exact_arith.format_rational",
    "exact_arith.parse_decimal",
    "recurrence.recover",
    "recurrence.residuals",
    "recurrence.roundtrip",
    "recurrence.denominator_bound",
    "recurrence.residual_intervals",
    "sequences.terms",
    "sequences.validate_bertrand",
    "crosscheck.nondivisor_mean",
    "crosscheck.alpha_build",
    "crosscheck.alpha_decode",
)
# Counters summed (or maximised, by the worker) within a pass: name -> unit.
COUNTERS = {
    "constant.enclose.operand_digits": "digits",
    "constant.enclose.traced_peak_mb": "MB",
    "exact_arith.to_decimal.digits": "digits",
    "exact_arith.format_rational.digits": "digits",
    "recurrence.recover.steps": "count",
    "recurrence.recover.max_operand_digits": "digits",
    "recurrence.recover.traced_peak_mb": "MB",
}


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def setup_times() -> tuple[list[float], int]:
    """Normalised seconds for a fresh interpreter to import the CLI and run `constant --digits 1`.

    Returns the times and the number of runs whose output was wrong.
    """
    times, failed = [], 0
    calibration = hostspeed.calibrate()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "primeconst", "constant", "--digits", "1"],
                              env=_env(), capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = hostspeed.calibrate()
        times.append(hostspeed.normalise(elapsed, calibration, after))
        calibration = after
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines or lines[0] != "2.9" or "verified_digits: 1" not in lines:
            failed += 1
    return times, failed


def run_worker(plan: workloads.Plan, seconds: int, trace: int, outdir: Path) -> dict:
    payload = json.dumps({
        "requests": [r["argv"] for r in plan.requests],
        "probe": plan.probe["argv"] if trace and plan.probe else None,
        "seconds": seconds,
        "trace": trace,
        "outdir": str(outdir),
    })
    done = subprocess.run([sys.executable, str(HERE / "worker.py")], input=payload, env=_env(),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


class Verdicts:
    """Checks each distinct (request, exit code, stdout) once."""

    def __init__(self) -> None:
        self._seen: dict = {}

    def units(self, request: dict, code: int, path: str) -> tuple[int, int] | None:
        stdout = Path(path).read_text(encoding="utf-8")
        key = (id(request), code, stdout)
        if key not in self._seen:
            try:
                self._seen[key] = checks.check(request, code, stdout)
            except checks.CheckFailed as exc:
                sys.stderr.write(f"check failed: {' '.join(request['argv'])[:200]}: {exc}\n")
                self._seen[key] = None
        return self._seen[key]


def _p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], units: list, setup: list[float], rss_mb: float,
               attempted: int, failed: int) -> dict:
    """Timings are per request: the median over the run's passes of its normalised latency.

    wall_s sums these medians over one pass's requests; the percentiles are
    over the workload's distinct requests.  See hostspeed.py.
    """
    medians = [statistics.median(column) for column in zip(*(p["normalised"] for p in passes))]
    wall = sum(medians)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(wall, "s"),
        "op_p50_ms": _metric(statistics.median(medians) * 1e3, "ms"),
        "op_p95_ms": _metric(_p95(medians) * 1e3, "ms"),
        "verified_digits_per_s": _metric(sum(u[0] for u in units if u) / wall, "1/s"),
        "certified_terms_per_s": _metric(sum(u[1] for u in units if u) / wall, "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(untraced: list[dict], traced: list[dict], memory: dict, growth: dict) -> dict:
    """Span and counter medians over the traced passes, in raw seconds.

    host.calibration_s gives the host's speed during them; trace_overhead_s
    compares normalised pass times, like the end-to-end metrics.
    """

    def median(values) -> float:
        return statistics.median(list(values))

    metrics = {}
    for name in SPANS:
        for column, measure, unit in ((0, "s", "s"), (1, "self_s", "s"), (2, "calls", "count")):
            value = median(p["stats"].get(name, [0.0, 0.0, 0])[column] for p in traced)
            metrics[f"{name}.{measure}"] = _metric(value, unit)
    for name, unit in COUNTERS.items():
        source = [memory] if name.endswith("traced_peak_mb") else traced
        metrics[name] = _metric(median(p["counters"].get(name, 0) for p in source), unit)
    for name in ("constant.enclose", "exact_arith.to_decimal", "recurrence.recover"):
        metrics[f"{name}.growth_exp"] = _metric(growth.get(name, 0.0), "log2")
    recovers = metrics["recurrence.recover.calls"]["value"]
    bound_calls = metrics["recurrence.denominator_bound.calls"]["value"]
    metrics["recurrence.denominator_bound.calls_per_result"] = _metric(
        bound_calls / recovers if recovers else 0.0, "ratio")
    metrics["cli.output_bytes"] = _metric(median(p["output_bytes"] for p in traced), "bytes")
    traced_wall = median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.self_sum_s"] = _metric(median(sum(r[1] for r in p["stats"].values()) for p in traced), "s")
    metrics["trace.coverage"] = _metric(
        median(sum(r[1] for r in p["stats"].values()) / p["wall"] for p in traced), "ratio")
    metrics["trace_overhead_s"] = _metric(
        median(sum(p["normalised"]) for p in traced) - median(sum(p["normalised"]) for p in untraced), "s")
    metrics["host.calibration_s"] = _metric(median(c for p in traced for c in p["calibrations"]), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primeconst" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "out").mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        setup, setup_failed = setup_times() if not args.trace else ([], 0)
        result = run_worker(plan, args.seconds, args.trace, workdir / "out")
        verdicts = Verdicts()
        units = [verdicts.units(r, *out) for r, out in zip(plan.requests, result["outputs"])]
        probe_outputs = result.get("probe", [])
        probe_failed = sum(verdicts.units(plan.probe, *out) is None for out in probe_outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"] + result.get("traced", []) + result.get("memory", [])
    attempted = len(setup) + sum(len(p["latencies"]) for p in passes) + len(probe_outputs)
    failed = setup_failed + probe_failed + sum(
        sum(1 for i, u in enumerate(units) if u is None or i in p["differs"]) for p in passes)
    if args.trace:
        metrics = per_layer(result["passes"], result["traced"], result["memory"][0], result["growth"])
    else:
        metrics = end_to_end(result["passes"], units, setup, result["rss_mb"], attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
