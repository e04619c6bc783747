"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

    python3 perfbench/spread.py [WORKLOAD ...] [--seeds 1 2 3 ...] [--seconds S]

Runs run.py once per seed on each workload (default: all, seeds 1..10),
prints every end-to-end metric of every run, and then prints, per metric, the median, the spread
(interquartile distance over the median, from statistics.quantiles with
n=4), the metric's bound from BENCHMARK.json and whether the spread is
below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            steady &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
            for line in done.stderr.splitlines():
                print(f"    {line}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"  {workload:18s} {name:22s} median={median:.5g} spread={spread:.4f} "
                  f"bound={bounds[name]} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
