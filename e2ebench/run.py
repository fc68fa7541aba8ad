"""End-to-end benchmark of what users run: CLI commands and a service stream.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fig10 --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics over rounds that fill
``--seconds``; ``--trace 1`` runs one untraced and one traced compact
session and reports the per-layer split. The last line of stdout is the
JSON result; the line before it reports the rounds made, host steal
time and load, which are informational. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from session import SCALED, WORKLOADS, golden_json, measure, run_session

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "serve_rss_mb": "MB",
    "miss_mean_ms": "ms",
    "levelk_mean_ms": "ms",
    "hit_mean_ms": "ms",
    "hit_p90_ms": "ms",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.reference_s": "s",
    "compiler.compile_s": "s",
    "compiler.compile_calls": "count",
    "experiments.calibrate_s": "s",
    "sim.cpu_run_s": "s",
    "sim.record_s": "s",
    "sim.record_positions": "count",
    "sim.record_ns_per_position": "ns",
    "sim.record_replayable_ratio": "ratio",
    "runtime.interp_s": "s",
    "runtime.interp_samples": "count",
    "runtime.interp_ns_per_cycle": "ns",
    "runtime.batch_s": "s",
    "runtime.batch_lanes": "count",
    "runtime.batch_kept_ratio": "ratio",
    "runtime.replay_s": "s",
    "runtime.replay_samples": "count",
    "core.grade_s": "s",
    "core.quality_curve_s": "s",
    "power.traces_s": "s",
    "store.load_s": "s",
    "store.load_calls": "count",
    "store.hit_ratio": "ratio",
    "store.put_s": "s",
    "store.fingerprint_s": "s",
    "service.prepare_s": "s",
    "service.wire_ms": "ms",
    "service.compute_s": "s",
    "service.journal_s": "s",
    "service.journal_appends": "count",
    "service.computed": "count",
    "service.store_hits": "count",
    "service.errors": "count",
    "sim.active_cycles": "cycles",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
    "trace.wall_s": "s",
}

#: Self times plus unattributed time must meet the traced wall this closely.
ATTRIBUTION_TOLERANCE = 0.05


def host_sample() -> dict:
    """Cumulative steal seconds (``/proc/stat``) and the 1-minute load."""
    sample = {}
    try:
        with open("/proc/stat", encoding="ascii") as file:
            fields = file.readline().split()
        sample["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    try:
        sample["load_1m"] = os.getloadavg()[0]
    except OSError:
        pass
    return sample


def measure_traced(root: Path, workload: str, seed: int):
    """One untraced and one traced session; the per-layer split of the
    traced one, with tracing overhead measured against the untraced."""
    plain = run_session(root, workload, seed, traced=False)
    traced = run_session(root, workload, seed, traced=True)
    tally = traced.tally
    metrics = dict(traced.metrics)
    if not metrics:
        return [plain, traced], {}
    metrics["trace.overhead_ratio"] = traced.busy_s / plain.busy_s - 1.0

    expected = golden_json("sim.json")[workload]
    for stat, value in expected.items():
        tally.check(metrics[f"sim.{stat}"] == value,
                    f"sim.{stat} {metrics[f'sim.{stat}']} != golden {value}")
    tally.check(metrics["trace.attribution_error_ratio"] <= ATTRIBUTION_TOLERANCE,
                f"self times miss the traced wall by "
                f"{metrics['trace.attribution_error_ratio']:.3f}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print("e2ebench: run from the root of a repro checkout (no src/repro)",
              file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts (children
    # inherit the mask). A closed loop has one busy process at a time,
    # and cross-CPU wake-ups on a shared virtual machine made hit p90
    # swing from 1 to 11 ms between runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    host_before = host_sample()
    if args.trace:
        parts, metrics = measure_traced(root, args.workload, args.seed)
        units = PER_LAYER
        host = {"sessions": len(parts)}
    else:
        measured = measure(root, args.workload, args.seed, args.seconds)
        parts, metrics = [measured], measured.metrics
        units = END_TO_END
        host = {"rounds": measured.rounds,
                "probe_ms": statistics.median(measured.probes) * 1e3,
                "raw": {name: measured.raw.get(name) for name in SCALED}}
    host_after = host_sample()

    attempted = max(1, sum(part.tally.attempted for part in parts))
    failed = sum(part.tally.failed for part in parts)
    for part in parts:
        for note in part.tally.notes:
            print(f"e2ebench: failed: {note}", file=sys.stderr)
    values = {name: metrics.get(name) for name in units}
    host["load_1m"] = host_after.get("load_1m")
    if "steal_s" in host_before and "steal_s" in host_after:
        host["steal_s"] = round(host_after["steal_s"] - host_before["steal_s"], 3)
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": failed == 0 and all(v is not None for v in values.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
