"""Run one workload over several seeds and print each metric's spread.

Usage, from the root of a checkout::

    python3 e2ebench/spread.py fig10 --seeds 1 2 3 4 5 [--seconds 60] [--trace 0]

Prints each run's result line, then per metric the median and the
interquartile distance as a share of the median, which is the figure a
metric's bound in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartile_spread(values) -> float:
    """Quartile distance as a share of the median, as the bound is read."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.splitlines()
        print(out[-2], out[-1], flush=True)
        result = json.loads(out[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if len(series) >= 2 and median else float("nan")
        print(f"{name:32s} median {median:12.4f}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
