"""Span analysis for the traced pass: self times and per-layer metrics.

A span dump is what ``traced.py`` writes when its process ends::

    {"wall": [start_ns, end_ns],
     "spans": [[id, parent, thread, name, start_ns, end_ns, counts], ...]}

``parent`` is ``-1`` for a span opened with no layer span open on its
thread. Times are ``CLOCK_MONOTONIC`` nanoseconds, which every process
on the host shares, so server spans line up with client timestamps.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ID, PARENT, THREAD, NAME, START, END, COUNTS = range(7)

#: Layer spans, one per public entry point the traced pass times. Each
#: yields a ``<name>_s`` self-time metric.
LAYERS = (
    "workloads.build", "workloads.reference", "compiler.compile",
    "experiments.calibrate", "sim.cpu_run", "sim.record", "runtime.interp",
    "runtime.batch", "runtime.replay", "core.grade", "core.quality_curve",
    "power.traces", "store.load", "store.put", "store.fingerprint",
    "service.prepare", "service.compute", "service.journal",
)
#: Engine spans whose counts carry simulated statistics.
ENGINES = ("runtime.interp", "runtime.batch", "runtime.replay")


def covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[int, int]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: span[END] - span[START] - covered_ns(children.get(span[ID], ()))
        for span in spans
    }


def _clip(intervals, start: int, end: int) -> List[Tuple[int, int]]:
    return [(max(a, start), min(b, end)) for a, b in intervals if a < end and b > start]


def unattributed_ns(dump: dict, windows: Optional[Sequence[Tuple[int, int]]] = None) -> int:
    """Time during which no layer span was open on any thread: over the
    process's wall, or only inside ``windows`` when they are given."""
    roots = [(s[START], s[END]) for s in dump["spans"] if s[PARENT] < 0]
    windows = [tuple(dump["wall"])] if windows is None else windows
    return sum(end - start - covered_ns(_clip(roots, start, end))
               for start, end in windows)


def root_ns_within(dump: dict, start: int, end: int) -> int:
    """Total duration of root spans that opened inside ``[start, end]``."""
    return sum(
        s[END] - s[START] for s in dump["spans"]
        if s[PARENT] < 0 and start <= s[START] <= end
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(dumps: Sequence[Tuple[dict, Optional[Sequence[Tuple[int, int]]]]]
                  ) -> Dict[str, float]:
    """Per-layer metrics summed over the processes of one traced session.

    ``dumps`` pairs each process's span dump with the windows in which
    it was at work, or ``None`` for its whole wall: a server idles while
    the CLI command runs, and that idle time is the benchmark's schedule,
    not program time outside the layers. ``trace.wall_s`` is the sum of
    these walls and windows.

    Returns every ``<layer>_s`` self time, the layer counts and ratios,
    the simulated statistics and ``trace.unattributed_ratio``, plus
    ``trace.attribution_error_ratio``: how far self times and
    unattributed time miss the traced wall (non-zero when spans on
    different threads overlap or a span lies outside the windows)."""
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    wall = unattributed = 0
    for dump, windows in dumps:
        own = self_times(dump["spans"])
        for span in dump["spans"]:
            name = span[NAME]
            self_ns[name] += own[span[ID]]
            calls[name] += 1
            for key, value in (span[COUNTS] or {}).items():
                counts[f"{name}.{key}"] += value
        wall += sum(end - start for start, end in windows or [dump["wall"]])
        unattributed += unattributed_ns(dump, windows)

    metrics = {f"{layer}_s": self_ns[layer] / 1e9 for layer in LAYERS}
    lanes = counts["runtime.batch.lanes"]
    metrics.update({
        "compiler.compile_calls": calls["compiler.compile"],
        "sim.record_positions": counts["sim.record.positions"],
        "sim.record_ns_per_position": _ratio(
            self_ns["sim.record"], counts["sim.record.positions"]),
        "sim.record_replayable_ratio": _ratio(
            counts["sim.record.replayable"], calls["sim.record"]),
        "runtime.interp_samples": calls["runtime.interp"],
        "runtime.interp_ns_per_cycle": _ratio(
            self_ns["runtime.interp"], counts["runtime.interp.active_cycles"]),
        "runtime.batch_lanes": lanes,
        "runtime.batch_kept_ratio": _ratio(counts["runtime.batch.kept"], lanes),
        "runtime.replay_samples": calls["runtime.replay"],
        "store.load_calls": calls["store.load"],
        "store.hit_ratio": _ratio(counts["store.load.hit"], calls["store.load"]),
        "service.journal_appends": calls["service.journal"],
        "trace.unattributed_ratio": _ratio(unattributed, wall),
        "trace.attribution_error_ratio": _ratio(
            abs(sum(self_ns.values()) + unattributed - wall), wall),
        "trace.wall_s": wall / 1e9,
    })
    for stat in ("active_cycles", "outages", "skims"):
        metrics[f"sim.{stat}"] = sum(
            counts[f"{engine}.{stat}"] for engine in ENGINES)
    return metrics
