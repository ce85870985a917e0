"""Regenerate the reference figures in ``perfbench/README.md``.

    python3 perfbench/figures.py [--seeds 20] [--trace 0|1]

Runs ``run.py`` for ``run_seconds`` (from ``BENCHMARK.json``) once per
workload and seed (seeds 1..N), one process after another, and prints
per metric the median of the runs and the spread (distance between the
first and third quartile, as a share of the median), plus attempted
and failed operations. The runs also split into two interleaved sets,
odd and even seeds, made alternately so that drift of the host hits
both alike; their medians are printed with the second's change against
the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import HERE, ROOT
from run import WORKLOADS

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())[
    "run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace",
         str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/figures.py")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        correct = True
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, args.trace)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {args.seeds} runs, correct={correct}, "
              f"attempted {attempted}, failed {failed}")
        for name, series in values.items():
            line = (f"  {name:30s} {statistics.median(series):12.4f} "
                    f"{units[name]:7s} spread {spread(series):.3f}")
            first, second = series[0::2], series[1::2]
            if len(second) >= 2:
                low, high = (statistics.median(first),
                             statistics.median(second))
                change = high / low - 1.0 if low else 0.0
                line += (f" | odd seeds {low:.4f} spread "
                         f"{spread(first):.3f}, even seeds {high:.4f} "
                         f"spread {spread(second):.3f}, change "
                         f"{change:+.3f}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
