"""Regenerate the "Measured baseline" rows of ROADMAP.md from traced runs.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

Runs run.py --trace 1 on the three large workloads and prints a markdown
table whose rows follow the ROADMAP baseline.  Times are per pass, the
median over the traced passes of one run; a row that sums several calls
says how many.  Sizes are the operand digits the spans measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} requests failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def rows(big: dict, certify: dict, decimal: dict) -> list[tuple[str, str, str]]:
    def calls(m: dict, span: str) -> str:
        n = int(m[f"{span}.calls"])
        return f"{n} call{'s' if n != 1 else ''}"

    return [
        ("`enclose(primes)`",
         f"up to {certify['constant.enclose.operand_digits']:.0f} digits, {calls(certify, 'constant.enclose')} "
         "(certify-enclosure)",
         f"{certify['constant.enclose.s']:.3f} s"),
        ("`enclose(primes)`",
         f"{big['constant.enclose.operand_digits']:.0f} digits (constant-1e5)",
         f"{big['constant.enclose.s']:.2f} s total: `to_decimal` {big['exact_arith.to_decimal.s']:.2f} s, "
         f"`validate_bertrand` {big['sequences.validate_bertrand.s']:.2f} s, "
         f"`sequences.terms` {big['sequences.terms.s']:.3f} s, numerator, product and gcd "
         f"{big['constant.enclose.self_s']:.2f} s; tracemalloc peak "
         f"{big['constant.enclose.traced_peak_mb']:.1f} MB; growth exponent "
         f"{big['constant.enclose.growth_exp']:.2f} (`to_decimal` {big['exact_arith.to_decimal.growth_exp']:.2f})"),
        ("`plan_terms`", "constant-1e5", f"{big['constant.plan_terms.s']:.2f} s, not counted in the row above"),
        ("CLI text of lo/hi/width", "constant-1e5",
         f"`format_rational` {big['exact_arith.format_rational.s']:.2f} s, `cli.main` self "
         f"{big['cli.main.self_s']:.2f} s, {big['cli.output_bytes']:.0f} bytes"),
        ("`recover(enclosure)`",
         f"up to {certify['recurrence.recover.max_operand_digits']:.0f} digits, "
         f"{calls(certify, 'recurrence.recover')}, {certify['recurrence.recover.steps']:.0f} steps (certify-enclosure)",
         f"{certify['recurrence.recover.s']:.2f} s; tracemalloc peak "
         f"{certify['recurrence.recover.traced_peak_mb']:.1f} MB; growth exponent "
         f"{certify['recurrence.recover.growth_exp']:.2f}"),
        ("`residual_intervals` + `denominator_bound` after recovery", "certify-enclosure",
         f"{certify['recurrence.residual_intervals.s'] + certify['recurrence.denominator_bound.self_s']:.2f} s, "
         f"{certify['recurrence.denominator_bound.calls_per_result']:.2f} bound calls per recovery"),
        ("`recover(decimal)`",
         f"{decimal['recurrence.recover.max_operand_digits']:.0f} digits, "
         f"{decimal['recurrence.recover.steps']:.0f} steps (recover-decimal)",
         f"{decimal['recurrence.recover.s']:.2f} s; tracemalloc peak "
         f"{decimal['recurrence.recover.traced_peak_mb']:.1f} MB; growth exponent "
         f"{decimal['recurrence.recover.growth_exp']:.2f}"),
    ]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    measured = [traced(w, args.seed, args.seconds) for w in ("constant-1e5", "certify-enclosure", "recover-decimal")]
    print(f"python3 perfbench/baseline.py --seed {args.seed} --seconds {args.seconds} (Python {sys.version.split()[0]})")
    print()
    print("| path | size | time |")
    print("|---|---|---|")
    for path, size, time in rows(*measured):
        print(f"| {path} | {size} | {time} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
